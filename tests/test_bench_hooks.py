"""The pipeline benchmark (pipebench/) reaches into the package by name: its
tracer patches public functions and module globals, and its workloads build
configs positionally. A rename of any of those names fails here."""
import numpy as np

import tracer
import workloads  # noqa: F401  (its imports name the package's types)
from clickstats import cli, criteria, model, simulator, uncertainty
from clickstats.uncertainty import BootstrapConfig, bootstrap

MODULES = (cli, criteria, model, simulator, uncertainty)


def test_tracer_install_uninstall_restores_every_attribute():
    before = {mod: dict(vars(mod)) for mod in MODULES}
    statistics = dict(uncertainty.STATISTICS)
    t = tracer.Tracer()
    t.install()
    try:
        patched = {(mod.__name__, name) for mod in MODULES
                   for name, obj in before[mod].items() if vars(mod)[name] is not obj}
        assert {("clickstats.criteria", "moment_matrix"),
                ("clickstats.criteria", "jacobi_eigh"),
                ("clickstats.criteria", "evaluate_all"),
                ("clickstats.simulator", "click_kernel_matrix"),
                ("clickstats.cli", "json")} <= patched
        assert all(uncertainty.STATISTICS[k] is not v for k, v in statistics.items())
    finally:
        t.uninstall()
    for mod in MODULES:
        assert vars(mod).keys() == before[mod].keys()
        for name, obj in before[mod].items():
            assert vars(mod)[name] is obj, f"{mod.__name__}.{name} not restored"
    assert uncertainty.STATISTICS.keys() == statistics.keys()
    assert all(uncertainty.STATISTICS[k] is v for k, v in statistics.items())


def test_names_the_workloads_call():
    for fn in (criteria.moment_matrix, criteria.conditional_nonclassicality_number,
               criteria.evaluate_all, simulator.click_kernel_matrix,
               simulator.build_photon_distribution, simulator.joint_click_distribution,
               simulator.sample_counts, simulator.StateSpec.coherent,
               simulator.StateSpec.tmsv, simulator.StateSpec.split_photon,
               model.normalize, cli.main, cli.build_parser, cli.write_counts_csv,
               cli.read_counts_csv, cli.cmd_analyze):
        assert callable(fn)
    assert isinstance(uncertainty.STATISTICS, dict)
    # the tracer patches an entry per statistic the bootstrap scores
    assert uncertainty.STATISTICS.keys() == criteria.WHY_UNDEFINED.keys()
    cfg = BootstrapConfig(2, 0, ("summed_click_mean",))
    assert (cfg.replicates, cfg.seed, cfg.statistics) == (2, 0, ("summed_click_mean",))
    counts = model.CountMatrix(np.array([[5, 1, 0], [1, 2, 0], [0, 0, 1]]))
    assert set(bootstrap(counts, cfg)) == {"summed_click_mean"}
    cfg = model.DetectorConfig(8, 0.5, 1e-4)
    jcd = simulator.joint_click_distribution(simulator.build_photon_distribution(
        simulator.StateSpec.tmsv(0.3)), cfg, cfg)
    assert criteria.conditional_nonclassicality_number(jcd) == criteria.statistic(jcd, "frak_n")
