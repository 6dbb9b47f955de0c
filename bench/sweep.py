"""One-off layer sweep behind the reference figures in bench/README.md.

    python3 bench/sweep.py            # every case, one fresh process each
    python3 bench/sweep.py --case w2-100

Each case runs in its own process under the benchmark's environment (one
BLAS thread, fixed hash seed) and reports its wall time and the process's
peak RSS.  The cases: single W_2 solves between uniform 2D clouds of n atoms,
by otbary and by HiGHS on the same sparse LP; the J = 3, n = 14
multi-marginal LP (2744 columns) by otbary and by HiGHS; the J = 2, n = 100
multi-marginal LP, whose dense constraint matrix shows in peak RSS; and the
import time of otbary and of scipy.optimize within it.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

import numpy as np

import run

CASES = [
    "w2-50", "w2-100", "w2-200", "w2-400",
    "w2-highs-50", "w2-highs-100", "w2-highs-200", "w2-highs-400",
    "mmot-J3-n14", "mmot-highs-J3-n14", "mmot-J2-n100",
]
SEED = 20150612


def _clouds(rng, n, J):
    import otbary as ot

    plane = ot.Euclidean(2)
    return [ot.DiscreteMeasure(plane, rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
            for _ in range(J)]


def _case(name: str) -> float:
    """Wall seconds of the case's one timed call."""
    import checks
    import otbary as ot

    rng = np.random.default_rng(SEED)
    kind, *rest = name.split("-")
    if kind == "w2":
        highs = rest[0] == "highs"
        n = int(rest[-1])
        mu, nu = _clouds(rng, n, 2)
        if highs:
            C = ot.pairwise_distances(mu.space, mu.atoms, nu.atoms) ** 2
            t = time.perf_counter()
            checks.transport_lp(C, mu.weights, nu.weights)
        else:
            t = time.perf_counter()
            ot.wasserstein(mu.space, 2.0, mu, nu)
        return time.perf_counter() - t
    highs = rest[0] == "highs"
    J, n = (int(part[1:]) for part in rest[-2:])
    members = _clouds(rng, n, J)
    ens = ot.MeasureEnsemble(members, np.full(J, 1.0 / J))
    if highs:
        data = {"p": 2.0, "space": "plane", "lam": ens.lam,
                "atoms": [m.atoms for m in members], "weights": [m.weights for m in members]}
        t = time.perf_counter()
        checks.multimarginal_optimum(data)
    else:
        t = time.perf_counter()
        ot.solve_multimarginal(ens.space, 2.0, ens)
    return time.perf_counter() - t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="otbary layer sweep")
    parser.add_argument("--case", choices=CASES)
    args = parser.parse_args(argv)
    if args.case:
        seconds = _case(args.case)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"seconds": seconds, "peak_rss_mb": rss}))
        return 0

    env = run._env()
    print("| case | wall | peak RSS |\n|---|---|---|")
    for case in CASES:
        out = subprocess.run([sys.executable, __file__, "--case", case], env=env,
                             stdout=subprocess.PIPE, text=True, check=True)
        r = json.loads(out.stdout.splitlines()[-1])
        print(f"| {case} | {r['seconds'] * 1e3:.0f} ms | {r['peak_rss_mb']:.0f} MB |",
              flush=True)
    imports = run._import_times(env, time.monotonic() + 120)
    for name, value in imports.items():
        print(f"| {name} | {value * 1e3:.0f} ms | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
