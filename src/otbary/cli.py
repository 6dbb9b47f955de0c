"""Command-line surface: dist, bary, mmot, variance, quantize, experiment.

Exit codes: 0 success, 1 validation error (bad files or measures), 2 solver
error, 3 config error.  Structured results go to stdout as JSON; output
files are deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .barycenter import barycenter_finite, barycenter_fixed_support, quantize, variance
from .consistency import config_from_dict, run_experiment
from .errors import (
    InfeasibleWeights,
    InvalidConfig,
    NonConvergence,
    NumericalFailure,
    OTBaryError,
    ProductSizeExceeded,
)
from .measures import (
    load_ensemble,
    load_measure,
    measure_to_dict,
    save_measure,
)
from .multimarginal import DEFAULT_PRODUCT_CAP, pushforward_barycenter, solve_multimarginal
from .transport import wasserstein

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

SOLVER_ERRORS = (InfeasibleWeights, NumericalFailure, ProductSizeExceeded, NonConvergence)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def _plan_dict(plan) -> dict:
    return {
        "entries": [[i, j, mass] for i, j, mass in plan.support],
        "cost": plan.cost,
    }


def _coupling_dict(gamma) -> dict:
    return {
        "entries": [[list(idx), mass] for idx, mass in gamma.entries],
        "objective": gamma.objective,
        "shape": list(gamma.shape),
    }


def cmd_dist(args) -> int:
    mu = load_measure(args.in_a)
    nu = load_measure(args.in_b)
    value, plan = wasserstein(mu.space, args.p, mu, nu)
    if args.plan:
        _write_json(_plan_dict(plan), args.plan)
    _emit({"w_p": value, "p": args.p})
    return EXIT_OK


def cmd_bary(args) -> int:
    ens = load_ensemble(args.in_path)
    if args.support is not None:
        grid = load_measure(args.support)
        result = barycenter_fixed_support(ens.space, args.p, ens, grid.atoms)
    else:
        result = barycenter_finite(
            ens.space, args.p, ens, max_product_size=args.max_product_size
        )
    print(
        "note: barycenters of discrete ensembles need not be unique; "
        "this is the deterministic one picked by the solver's tie-breaking.",
        file=sys.stderr,
    )
    save_measure(result.measure, args.out)
    _emit({"objective": result.objective, "method": result.method})
    return EXIT_OK


def cmd_mmot(args) -> int:
    ens = load_ensemble(args.in_path)
    gamma = solve_multimarginal(
        ens.space, args.p, ens, max_product_size=args.max_product_size
    )
    _write_json(_coupling_dict(gamma), args.out)
    if args.bary:
        nu = pushforward_barycenter(ens.space, args.p, ens, gamma)
        save_measure(nu, args.bary)
    _emit({"objective": gamma.objective, "entries": len(gamma.entries)})
    return EXIT_OK


def cmd_variance(args) -> int:
    ens = load_ensemble(args.in_path)
    v = variance(ens.space, args.p, ens, max_product_size=args.max_product_size)
    _emit({"variance": v, "p": args.p})
    return EXIT_OK


def cmd_quantize(args) -> int:
    m = load_measure(args.in_path)
    q = quantize(m, args.k)
    _write_json(measure_to_dict(q), args.out)
    _emit({"atoms": q.n_atoms})
    return EXIT_OK


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = config_from_dict(raw)
    report = run_experiment(
        cfg,
        max_product_size=args.max_product_size,
        keep_artifacts=args.keep_artifacts,
    )
    report.to_csv(args.out, timing=args.timing)
    _emit({"rows": len(report.rows), "medians": report.summary()})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it was.
    # Each shared flag goes only on the commands that read it.
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--p", type=float, default=2.0, help="order of the distance")
    cap_flag = ("--max-product-size",)
    cap_kwargs = dict(
        type=int, default=DEFAULT_PRODUCT_CAP, help="cap on the multi-marginal product support"
    )
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(*cap_flag, **cap_kwargs)

    parser = argparse.ArgumentParser(
        prog="otbary",
        description="Exact Wasserstein distances and barycenters of discrete measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dist", parents=[order], help="pairwise W_p distance")
    sp.add_argument("--in-a", required=True, dest="in_a")
    sp.add_argument("--in-b", required=True, dest="in_b")
    sp.add_argument("--plan", default=None, help="write optimal plan JSON here")
    sp.set_defaults(fn=cmd_dist)

    sp = sub.add_parser("bary", parents=[order], help="ensemble barycenter")
    sp.add_argument("--in", required=True, dest="in_path")
    sp.add_argument("--out", required=True)
    # The fixed-support LP has no product to cap.
    route = sp.add_mutually_exclusive_group()
    route.add_argument("--support", default=None, help="fix the support to this measure's atoms")
    route.add_argument(*cap_flag, **cap_kwargs)
    sp.set_defaults(fn=cmd_bary)

    sp = sub.add_parser("mmot", parents=[order, cap], help="multi-marginal coupling")
    sp.add_argument("--in", required=True, dest="in_path")
    sp.add_argument("--out", required=True)
    sp.add_argument("--bary", default=None, help="also write the pushforward barycenter")
    sp.set_defaults(fn=cmd_mmot)

    sp = sub.add_parser("variance", parents=[order, cap], help="ensemble variance")
    sp.add_argument("--in", required=True, dest="in_path")
    sp.set_defaults(fn=cmd_variance)

    sp = sub.add_parser("quantize", help="support reduction")
    sp.add_argument("--in", required=True, dest="in_path")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_quantize)

    sp = sub.add_parser("experiment", parents=[cap], help="consistency experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--keep-artifacts", default=None, dest="keep_artifacts")
    sp.add_argument("--seed", type=int, default=None, help="master seed (overrides the config's)")
    sp.add_argument(
        "--timing",
        action="store_true",
        help="record wall_ms (breaks byte-identical reruns)",
    )
    sp.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SOLVER_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OTBaryError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
