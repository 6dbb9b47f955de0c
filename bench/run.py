"""Run one workload of the otbary benchmark and print its metrics.

    python3 bench/run.py --workload barycenter --seed 1 --seconds 50 --trace 0

Run from the root of an otbary checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.  Result and trace
files go to ``bench/results/``.

This launcher imports nothing heavy.  It fixes the environment of every
process it starts (one BLAS/OpenMP thread, fixed ``PYTHONHASHSEED``), times
the set-up of the workload in fresh processes and then runs the measured
process, ``worker.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("barycenter", "consistency")

SETUP_SAMPLES = 5  # set-ups timed per run, the measured process's included
IMPORT_SAMPLES = 3  # `python -X importtime -c "import otbary"` runs per trace
RUN_TIMEOUT_S = 170  # whole-run budget; a process past it is killed

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, env, deadline) -> subprocess.CompletedProcess:
    # subprocess.run kills the child and waits for it on timeout.
    return subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )


def _worker(args, env, deadline, *extra) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(RESULTS), *extra,
    ]
    t0 = time.monotonic()
    out = _run(cmd + ["--t0", repr(t0)], env, deadline)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _import_times(env, deadline) -> dict:
    """Cumulative import time of otbary and of scipy.optimize, in seconds,
    from the median of fresh interpreters run with ``-X importtime``."""
    samples = {"cli.import_s": [], "cli.import_scipy_optimize_s": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import otbary"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        samples["cli.import_s"].append(cumulative.get("otbary", 0.0))
        samples["cli.import_scipy_optimize_s"].append(cumulative.get("scipy.optimize", 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="otbary benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "otbary" / "__init__.py").is_file():
        print(f"error: no otbary sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    RESULTS.mkdir(exist_ok=True)
    env = _env()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            trace_out = RESULTS / f"{stem}.spans.jsonl"
            result = _worker(args, env, deadline, "--trace-out", str(trace_out))
            result["metrics"].update(_import_times(env, deadline))
        else:
            setups = [
                _worker(args, env, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            result = _worker(args, env, deadline)
            setups.append(result["metrics"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["setup_samples_s"] = setups
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    metrics = {
        name: {"value": value, "unit": unit_of[name]}
        for name, value in result["metrics"].items()
        if name in unit_of
    }
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
