"""Self-test of the benchmark's reference computations.

Run from the repository root:

    python3 pipebench/selftest.py

The occupancy-chain kernel must equal the enumeration oracle of the test suite
(tests/oracles.py, every placement of n photons into N bins) and, averaged
over a Poisson photon number, the binomial closed form of coherent light. The
reference statistics must equal the oracle's closed-form criteria. Exits 1 on
any disagreement.
"""
import sys
from pathlib import Path

import numpy as np

import reference as ref

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import criterion_margins, enumerate_click_kernel  # noqa: E402

STAT_TOL = 1e-12


def main():
    worst = {}
    for bins, eta, nu in ((8, 0.5, 1e-4), (8, 0.05, 1e-4), (8, 0.9, 0.01), (4, 0.3, 0.1)):
        chain = ref.occupancy_kernel(4, bins, eta, nu)
        for n in range(5):
            diff = np.abs(chain[n] - enumerate_click_kernel(n, bins, eta, nu)).max()
            worst["chain vs enumeration"] = max(worst.get("chain vs enumeration", 0.0), diff)
    for bins in (8, 16, 32, 64):
        worst[f"chain vs coherent closed form, N={bins}"] = ref.chain_closed_form_error(bins)
    probs = ref.joint_clicks(("tmsv", 0.1), 8, 0.5, 1e-4)
    gamma_margin, kappa_margin, eigenvalues = criterion_margins(probs)
    stats = ref.statistics(probs)
    worst["statistics vs oracle criteria"] = max(
        abs(stats["gamma_margin"] - gamma_margin),
        abs(stats["kappa_margin"] - kappa_margin),
        abs(stats["frak_n"] - eigenvalues.min()))

    failed = False
    for name, diff in worst.items():
        tol = STAT_TOL if name.startswith("statistics") else ref.KERNEL_TOL
        ok = diff <= tol
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {diff:.2e} (tolerance {tol:.0e})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
