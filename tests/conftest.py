from hypothesis import settings

# Property tests run a fixed, bounded set of examples so the suite stays
# deterministic: no random seed per run, no example database.
settings.register_profile("clickstats", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("clickstats")
