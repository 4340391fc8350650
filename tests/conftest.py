import signal

import pytest
from hypothesis import settings

# Property tests run a fixed, bounded set of examples so the suite stays
# deterministic: no random seed per run, no example database.
settings.register_profile("clickstats", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("clickstats")


class Hung(Exception):
    """Raised in a test that outlives its deadline; deliberately not an
    OSError, which the CLI would report as a data error."""


@pytest.fixture
def deadline():
    """Fail the test within two seconds instead of letting it hang."""
    def expire(signum, frame):
        raise Hung("no return within 2 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)
