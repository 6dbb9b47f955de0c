"""Output checks against computations made apart from the library.

Nothing here calls otbary.  Barycenter objectives are checked against
multi-marginal and fixed-support LPs assembled here as sparse matrices and
solved by HiGHS; consistency reports against the one-dimensional
quantile-average barycenter.  Each ``check_*`` returns a list of problems,
empty when the output passes.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.optimize
import scipy.sparse

# Tolerances; the README gives the reasoning behind each.
MASS_TOL = 1e-9  # total mass of a returned measure
OBJECTIVE_TOL = 1e-9  # barycenter objective vs independent LP, relative
LINE_TOL = 1e-12  # consistency rows, absolute, on the W_2^2 scale
ZERO_TOL = 1e-12  # dist_to_ref of the full-size growing-ensemble row


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def _highs(c, A, b) -> float:
    # HiGHS's default feasibility tolerances (1e-7) leave objective errors
    # above OBJECTIVE_TOL; the references are solved tighter.
    res = scipy.optimize.linprog(
        c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def transport_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """min <C, pi> over couplings of a and b, as a sparse HiGHS LP."""
    n, m = C.shape
    cols = np.arange(n * m)
    rows = np.concatenate([cols // m, n + cols % m])
    A = scipy.sparse.csr_matrix((np.ones(2 * n * m), (rows, np.tile(cols, 2))),
                                shape=(n + m, n * m))
    return _highs(C.ravel(), A, np.concatenate([a, b]))


# ---------------------------------------------------------------------------
# barycenter
# ---------------------------------------------------------------------------

def _geometric_median_cost(points: np.ndarray, lam: np.ndarray) -> float:
    """min_x sum_j lam_j |x - x_j|: the least value at a Nelder-Mead
    minimiser from the weighted mean and at every data point (where the
    minimum may sit on a kink)."""

    def f(x):
        return float(lam @ np.sqrt(((points - x) ** 2).sum(axis=1)))

    res = scipy.optimize.minimize(
        f, lam @ points, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000, "maxfev": 40000},
    )
    return min([float(res.fun)] + [f(x) for x in points])


def _tuple_costs(data: dict, idx: np.ndarray) -> np.ndarray:
    """Cost inf_x sum_j lam_j d(x_j, x)^p of every index tuple (rows of idx)."""
    p, lam = data["p"], data["lam"]
    pts = [data["atoms"][j][idx[:, j]] for j in range(idx.shape[1])]
    if data["space"] == "graph":
        # Exhaustive search over every node of the graph.
        dp = data["dist"] ** p
        return sum(lam[j] * dp[:, pts[j]] for j in range(len(pts))).min(axis=0)
    if p == 2:
        mean = sum(lam[j] * pts[j] for j in range(len(pts)))
        return sum(lam[j] * ((pts[j] - mean) ** 2).sum(axis=1) for j in range(len(pts)))
    if p == 1:
        stacked = np.stack(pts, axis=1)  # (tuples, J, 2)
        return np.array([_geometric_median_cost(t, lam) for t in stacked])
    raise ValueError(f"no reference tuple cost for p = {p}")


def multimarginal_optimum(data: dict) -> float:
    """Optimum of the multi-marginal LP over the product of the supports."""
    shape = tuple(len(w) for w in data["weights"])
    idx = np.indices(shape).reshape(len(shape), -1).T
    offsets = np.concatenate([[0], np.cumsum(shape)[:-1]])
    N = idx.shape[0]
    rows = (idx + offsets).T.ravel()
    cols = np.tile(np.arange(N), len(shape))
    A = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(sum(shape), N))
    return _highs(_tuple_costs(data, idx), A, np.concatenate(data["weights"]))


def _ground_cost(data: dict, xs, ys) -> np.ndarray:
    if data["space"] == "graph":
        return data["dist"][np.ix_(xs, ys)] ** data["p"]
    diff = np.asarray(xs, float)[:, None, :] - np.asarray(ys, float)[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)) ** data["p"]


def fixed_support_optimum(data: dict) -> float:
    """min over weights w on the support and couplings pi_j of (w, mu_j) of
    sum_j lam_j <C_j, pi_j>, with w kept as explicit variables."""
    S = data["support"].shape[0]
    sizes = [len(w) for w in data["weights"]]
    blocks = np.concatenate([[0], np.cumsum([S * n for n in sizes])])
    n_pi = int(blocks[-1])
    c = np.concatenate(
        [data["lam"][j] * _ground_cost(data, data["support"], data["atoms"][j]).ravel()
         for j in range(len(sizes))] + [np.zeros(S)]
    )
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for j, n in enumerate(sizes):
        var = blocks[j] + np.arange(S * n)
        s, i = np.divmod(var - blocks[j], n)
        # sum_i pi_j[s, i] - w_s = 0
        rows += [r + s, r + np.arange(S)]
        cols += [var, n_pi + np.arange(S)]
        vals += [np.ones(S * n), -np.ones(S)]
        rhs.append(np.zeros(S))
        r += S
        # sum_s pi_j[s, i] = mu_j[i]
        rows.append(r + i)
        cols.append(var)
        vals.append(np.ones(S * n))
        rhs.append(data["weights"][j])
        r += n
    A = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(r, n_pi + S),
    )
    return _highs(c, A, np.concatenate(rhs))


def check_barycenter(data: dict, result) -> list[str]:
    problems = []
    nu = result.measure
    w = np.asarray(nu.weights, dtype=float)
    atoms = np.asarray(nu.atoms)
    if w.min() < 0 or abs(w.sum() - 1.0) > MASS_TOL:
        problems.append(f"not a probability vector: min {w.min():.3e}, sum {w.sum()!r}")
    if data["space"] == "graph":
        n_nodes = data["dist"].shape[0]
        if atoms.ndim != 1 or atoms.min() < 0 or atoms.max() >= n_nodes:
            problems.append("barycenter atoms are not nodes of the graph")
    elif not np.all(np.isfinite(atoms)):
        problems.append("barycenter atoms are not finite")
    if problems:
        return problems

    exact = multimarginal_optimum(data)
    if data["space"] == "fixed":
        best_on_grid = fixed_support_optimum(data)
        if _rel(result.objective, best_on_grid) > OBJECTIVE_TOL:
            problems.append(
                f"fixed-support objective {result.objective!r} != LP optimum {best_on_grid!r}"
            )
        if result.objective < exact - OBJECTIVE_TOL * max(1.0, abs(exact)):
            problems.append(
                f"fixed-support objective {result.objective!r} below exact {exact!r}"
            )
    elif _rel(result.objective, exact) > OBJECTIVE_TOL:
        problems.append(f"objective {result.objective!r} != multi-marginal LP {exact!r}")

    # The returned measure must attain the reported objective.
    attained = sum(
        data["lam"][j] * transport_lp(_ground_cost(data, atoms, data["atoms"][j]),
                                       w, data["weights"][j])
        for j in range(len(data["weights"]))
    )
    if _rel(result.objective, attained) > OBJECTIVE_TOL:
        problems.append(f"objective {result.objective!r} != cost of the measure {attained!r}")
    return problems


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

def _quantiles(measures):
    """Interval lengths of the common refinement of the cumulative weights of
    ``measures`` (sorted 1D atoms, weights) and each quantile function on it."""
    cdfs = [np.cumsum(w) for _x, w in measures]
    cuts = np.union1d(np.concatenate(cdfs), [0.0, 1.0])
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    mid = (cuts[:-1] + cuts[1:]) / 2.0
    Q = np.stack([
        x[np.minimum(np.searchsorted(cdf, mid, side="left"), x.size - 1)]
        for (x, _w), cdf in zip(measures, cdfs)
    ])
    return np.diff(cuts), Q


def line_statistics(members, lam, ref_members, ref_lam) -> dict:
    """Objective, squared distance to the reference barycenter and squared
    ensemble distance, from the 1D p = 2 quantile-average barycenter."""
    k = len(members)
    dt, Q = _quantiles(list(members) + list(ref_members))
    Qa, Qb = Q[:k], Q[k:]
    bary = lam @ Qa
    objective = float(dt @ (lam @ (Qa - bary) ** 2))
    dist2 = float(dt @ (bary - ref_lam @ Qb) ** 2)
    cost = ((Qa[:, None, :] - Qb[None, :, :]) ** 2) @ dt
    ens2 = transport_lp(cost, lam, ref_lam)
    return {"objective": objective, "dist2": dist2, "ens2": ens2}


def _empirical_members(data, n, rep):
    out = []
    for j, (x, w) in enumerate(data["members"]):
        # Child seeds keyed by (seed, size, member, replication), as
        # documented in otbary.consistency; multinomial draws over the atoms.
        child = int(np.random.SeedSequence([data["seed"], n, j, rep]).generate_state(1)[0])
        draws = np.random.default_rng(child).choice(x.size, size=n, p=w)
        labels, counts = np.unique(draws, return_counts=True)
        out.append((x[labels], counts / n))
    return out


def _spline_members(data, count):
    # The monotone piecewise-linear warps of [0, 1] drawn from the
    # deformation seed: log-normal slopes between equally spaced knots.
    x, w = data["template"]
    rng = np.random.default_rng(data["spline_seed"])
    knots = np.linspace(0.0, 1.0, data["knots"])
    out = []
    for _ in range(count):
        slopes = np.exp(data["log_slope_std"] * rng.standard_normal(knots.size - 1))
        values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
        out.append((np.interp(x, knots, values), w))
    return out


def check_consistency(data: dict, output) -> list[str]:
    code, text = output
    if code != 0:
        return [f"otbary experiment exited with {code}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = [(s, r) for s in data["sizes"] for r in range(data["reps"])]
    got = [(int(row["size"]), int(row["replication"])) for row in rows]
    if got != expected:
        return [f"rows {got} != expected {expected}"]
    if data["framework"] == "empirical_sampling":
        ref = data["members"]
    else:
        ref = _spline_members(data, data["sizes"][-1])
    ref_lam = np.full(len(ref), 1.0 / len(ref))
    problems = []
    for row, (size, rep) in zip(rows, expected):
        if row["error"]:
            problems.append(f"size {size} rep {rep}: {row['error']}")
            continue
        if data["framework"] == "empirical_sampling":
            members, lam = _empirical_members(data, size, rep), ref_lam
        else:
            members, lam = ref[:size], np.full(size, 1.0 / size)
        want = line_statistics(members, lam, ref, ref_lam)
        got_row = {
            "objective": float(row["objective"]),
            "dist2": float(row["dist_to_ref"]) ** 2,
            "ens2": float(row["ensemble_dist"]) ** 2,
        }
        for key, value in want.items():
            if abs(got_row[key] - value) > LINE_TOL:
                problems.append(f"size {size} rep {rep}: {key} {got_row[key]!r} != {value!r}")
    if data["framework"] != "empirical_sampling":
        last = float(rows[-1]["dist_to_ref"])
        if abs(last) > ZERO_TOL:
            problems.append(f"full-size ensemble is {last!r} from the reference")
    return problems


CHECKS = {
    "barycenter": check_barycenter,
    "consistency": check_consistency,
}
