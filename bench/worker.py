"""One benchmark process: set up a workload, run it in a closed loop, check it.

Started by ``run.py``, which fixes the environment (one BLAS thread, fixed
hash seed, ``src`` on the path) and passes ``--t0``, the monotonic clock
reading just before it started this process.  Prints one JSON object as the
last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback


def _timed_phase(instances, seconds, fingerprint, reference, tracer=None):
    """Run whole cycles of ``instances`` until ``seconds`` have passed.

    ``reference[i]`` is filled with the first output of instance ``i``; each
    later output's fingerprint must equal the first one's.
    """
    op_id = tracer.op_id() if tracer is not None else None
    times, raised, mismatched = [], [0] * len(instances), [0] * len(instances)
    cycles = 0
    start = time.perf_counter()
    while True:
        for i, inst in enumerate(instances):
            t = time.perf_counter()
            try:
                out = inst.run() if tracer is None else tracer.span(op_id, inst.run)
            except Exception:  # a failed operation is counted, and the run goes on
                raised[i] += 1
                print(f"{inst.label}: operation raised\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            times.append((i, time.perf_counter() - t))
            if reference[i] is None:
                reference[i] = (out, fingerprint(inst, out))
            elif fingerprint(inst, out) != reference[i][1]:
                mismatched[i] += 1
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "elapsed": time.perf_counter() - start,
        "cycles": cycles,
        "times": times,
        "raised": raised,
        "mismatched": mismatched,
    }


def _ops_per_s(phase):
    return len(phase["times"]) / phase["elapsed"]


def _check(instances, reference):
    """Indices of the instances whose output fails its check."""
    import checks

    bad = set()
    for i, inst in enumerate(instances):
        if reference[i] is None:
            continue
        try:
            problems = checks.CHECKS[inst.kind](inst.data, reference[i][0])
        except Exception:  # a check that cannot run fails its instance
            problems = [traceback.format_exc()]
        for problem in problems:
            print(f"{inst.label}: check failed: {problem}", file=sys.stderr)
        if problems:
            bad.add(i)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import workloads  # imports otbary: part of the set-up time

    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        instances = workloads.build(args.workload, args.seed, scratch)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        try:
            instances[0].run()  # untimed warm-up
        except Exception:  # counted when the timed phase repeats it
            traceback.print_exc()
        reference = [None] * len(instances)
        phases = []
        if args.trace:
            from spans import Tracer

            half = args.seconds / 2.0
            phases.append(_timed_phase(instances, half, workloads.fingerprint, reference))
            tracer = Tracer()
            tracer.install()
            try:
                phases.append(_timed_phase(instances, half, workloads.fingerprint,
                                           reference, tracer))
            finally:
                tracer.uninstall()
        else:
            phases.append(_timed_phase(instances, args.seconds, workloads.fingerprint,
                                       reference))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bad = _check(instances, reference)

    k = len(instances)
    cycles = sum(ph["cycles"] for ph in phases)
    failed = 0
    for i in range(k):
        if i in bad:
            failed += cycles
        else:
            failed += sum(ph["raised"][i] + ph["mismatched"][i] for ph in phases)
    # Correct only if every operation returned, every output passed its check
    # and every repeat reproduced the first one.
    result = {
        "correct": not bad
        and all(ref is not None for ref in reference)
        and not any(sum(ph["raised"]) + sum(ph["mismatched"]) for ph in phases),
        "attempted": cycles * k,
        "failed": failed,
    }
    if args.trace:
        untraced, traced = phases
        metrics = tracer.summary(traced["cycles"])
        metrics["trace.overhead_pct"] = 100.0 * (_ops_per_s(untraced) / _ops_per_s(traced) - 1.0)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                tracer.dump(fh)
        if tracer.missing:
            print(f"not found, reported as 0 calls: {tracer.missing}", file=sys.stderr)
    else:
        (ph,) = phases
        if not ph["times"]:
            print("no operation completed: nothing was measured", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": _ops_per_s(ph),
            "op_p50_ms": 1e3 * statistics.median(dt for _i, dt in ph["times"]),
            "peak_rss_mb": peak_rss_mb,
        }
        result["op_times_s"] = ph["times"]
    result["metrics"] = metrics
    result["cycles"] = cycles
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
