"""Weighted Fréchet means of point sets in the ground space.

The map implemented here is the deterministic point-level barycenter used by
the multi-marginal solver: it picks one minimizer of
f(x) = sum_j lam_j d(x, a_j)^p with a fixed tie-breaking rule, so identical
inputs always give identical outputs.

:func:`frechet_means` is the one solver.  It takes the members' atoms
((n_j, d) coordinates or (n_j,) labels) and an (N, J) array of index
tuples, and gathers the tuples' points itself, a chunk at a time.  Every
step is elementwise across the rows of a batch, so a tuple gets
bit-identical results alone or inside any batch.  :func:`product_costs`
takes the same atoms and gives the objectives alone of their whole product
(the multi-marginal cost tensor) where they have a closed form, Euclidean
p = 2 and metric matrices, without a per-tuple array or point.

- Metric-matrix spaces minimize over the listed points exhaustively and
  break objective ties (within 1e-12) toward the smallest label.  Each
  member j gets one table of lam_j d(a, x)^p, a row per atom a, and a
  tuple's objectives are the sum of one gathered row per member.
- A Euclidean tuple of one repeated point is its own mean.  The others are
  solved relative to one of their atoms, so coordinates the atoms share
  stay exact; a solution on an atom returns that atom exactly.  Where
  adding that atom back rounds x further than the iteration's tolerance (a
  mean within a few ulps of an atom far from the origin), the rounded
  coordinates are held and the others solved again, and the lowest atom
  wins if it is lower still.
- Euclidean p = 2 is the weighted mean.
- Euclidean p = 1 first tests every atom with the anchor (subgradient)
  condition |sum_{a_j != a} lam_j u_j| <= sum_{a_j = a} lam_j + 1e-12 sum(lam),
  u_j the unit vector from a to a_j (Vardi & Zhang, *The multivariate
  L1-median and associated data depth*, PNAS 2000).  That settles every
  tuple on a line.  (A median within that slack of an atom lowers f by
  about slack^2 / curvature, far below f's resolution.)  The other rows
  start from the weighted mean or, when lower, the best Vardi-Zhang step
  off an atom, which puts a median that sits next to an atom on the right
  ray at once; such a row iterates relative to that atom, where rounding
  leaves the step's direction intact.
- Every other row iterates Newton steps on f, Hessian
  sum_j c_j (I + (p - 2) u_j u_j^T) with c_j = p lam_j |x - a_j|^(p - 2),
  with Armijo backtracking that asks for a quarter of the decrease the
  slope predicts (a weaker test lets Newton hop across an atom where the
  Hessian blows up, p < 2).  Where no Newton step descends, or x sits on an
  atom, the row takes a Weiszfeld step with Vardi-Zhang's rule (p = 1) or
  an Armijo gradient step.  A trial point descends on strict decrease, or,
  where f is flat to its last bits, when it moved and its directional
  derivative is still negative (by convexity).  Near the minimizer f is
  that flat while the Newton step is still ~1e-9 long, so a Newton step
  shorter than 1e-3 of the distance to the nearest atom is taken on the
  quadratic model's word.

A row has converged after a full Newton step of at most ``STEP_TOL`` times
the distance to its nearest atom (or below the resolution of x), when such
short steps stop shrinking (rounding noise), or when nothing descends.  Rows
freeze once converged; a row still iterating after ``MAX_ITER`` steps
raises :class:`NonConvergence`.  The Euclidean rows are gathered and solved
``CHUNK_ENTRIES // (J d)`` at a time, the metric ones
``CHUNK_ENTRIES // n_points`` at a time, so working memory stays bounded for
any batch size; :func:`product_costs` on a metric matrix works in blocks of
at most ``CHUNK_ENTRIES`` floats too.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonConvergence, UnsupportedSpace
from .spaces import MetricMatrix, Space, as_atoms, check_order

STEP_TOL = 1e-10  # Newton step, relative to the nearest atom
RESOLUTION = 4 * np.finfo(float).eps  # steps below this times |x| cannot move x
TIE_TOL = 1e-12
MAX_ITER = 100_000
ANCHOR_TOL = 1e-12  # slack of the anchor test, relative to sum(lam)
NEWTON_DAMPING = 1e-12  # ridge on the Newton Hessian, relative to its trace
NEWTON_TRUST = 1e-3  # Newton steps taken untested, relative to the nearest atom
ARMIJO = 1e-4  # sufficient decrease of a gradient step
NEWTON_DECREASE = 0.25  # sufficient decrease of a Newton step
MIN_STEP = 1e-18  # smallest backtracking factor
CHUNK_ENTRIES = 2**18  # floats in one (rows, J, d) or (n_points, rows) block


def _check(space, pts, lam):
    pts = as_atoms(space, pts)
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape[0] != pts.shape[0] or lam.shape[0] == 0:
        raise DimensionMismatch(
            f"{pts.shape[0]} points with {lam.shape[0]} weights"
        )
    return pts, lam


def frechet_objective(space: Space, p: float, pts, lam, x) -> float:
    """sum_j lam_j d(x, pts_j)^p."""
    pts, lam = _check(space, pts, lam)
    if isinstance(space, MetricMatrix):
        d = space.dist[pts, int(x)]
    else:
        x = np.asarray(x, dtype=float)
        if x.shape != (space.dim,):
            raise DimensionMismatch(f"query point has shape {x.shape}")
        d = np.linalg.norm(pts - x[None, :], axis=1)
    return float(np.dot(lam, d**p))


# ---------------------------------------------------------------------------
# Batched kernel.  Rows are tuples: pts has shape (n, J, d), x has (n, d).
# ---------------------------------------------------------------------------

def _norm(v):
    return np.sqrt((v * v).sum(axis=-1))


def _dists(x, pts):
    return _norm(x[:, None, :] - pts)


def _power_sum(lam, d, p):
    return (lam * (d if p == 1 else d**p)).sum(axis=1)


def _local(x, pts, lam, p):
    # Objective and gradient at each row's x, with diff = x - a_j, d = |diff|
    # and the gradient weights c_j = p lam_j d_j^(p - 2) (0 on an atom).
    diff = x[:, None, :] - pts
    d = _norm(diff)
    on = d == 0
    c = np.where(on, 0.0, p * lam * np.where(on, 1.0, d) ** (p - 2))
    g = (c[:, :, None] * diff).sum(axis=1)
    return _power_sum(lam, d, p), g, diff, d, on, c


def _newton(g, diff, d, on, c, p, free=None):
    # Newton displacements -H^-1 g with the Hessian
    # H = sum_j c_j (I + (p - 2) u_j u_j^T) plus a small ridge; zero where x
    # is on an atom, which has no Hessian.  Also the rows that got one.
    # With a 0/1 mask `free` (g already 0 off it), H keeps only its free
    # block and the identity on the held coordinates, so they do not move.
    s = np.zeros_like(g)
    rows = np.flatnonzero(~on.any(axis=1))
    if rows.size:
        c = c[rows]
        u = diff[rows] / d[rows][:, :, None]
        eye = np.eye(g.shape[1])
        H = (c.sum(axis=1) * (1.0 + NEWTON_DAMPING))[:, None, None] * eye + (p - 2) * (
            (c[:, :, None, None] * u[:, :, :, None]) * u[:, :, None, :]
        ).sum(axis=1)
        if free is not None:
            m = free[rows]
            H = H * m[:, :, None] * m[:, None, :] + (1.0 - m)[:, :, None] * eye
        s[rows] = -np.linalg.solve(H, g[rows][:, :, None])[:, :, 0]
    return s, rows


def _weiszfeld_steps(g, on, c, lam):
    # Weiszfeld displacements, with Vardi-Zhang's rule where x is on an atom
    # (none of which is a minimizer here).
    r = -g
    rn = _norm(r)
    shrink = np.clip(1.0 - (lam * on).sum(axis=1) / np.where(rn > 0, rn, 1.0), 0.0, None)
    return (shrink / c.sum(axis=1))[:, None] * r


def _atom_tests(pts, lam):
    # For every row: the index of the best atom meeting the anchor condition
    # (-1 where none does), and the best Vardi-Zhang step off an atom: its
    # atom, the displacement and f there.
    n, J, dim = pts.shape
    slack = ANCHOR_TOL * lam.sum()
    anchor = np.full(n, -1)
    anchor_f = np.full(n, np.inf)
    escape = np.zeros(n, dtype=np.intp)
    offset = np.zeros((n, dim))
    escape_f = np.full(n, np.inf)
    for k in range(J):
        f, g, _, _, on, c = _local(pts[:, k], pts, lam, 1)
        pull = _norm(g)
        weight = (lam * on).sum(axis=1)
        ok = (pull <= weight + slack) & (f < anchor_f)
        anchor[ok] = k
        anchor_f[ok] = f[ok]
        out = np.flatnonzero(pull > weight + slack)
        step = _weiszfeld_steps(g[out], on[out], c[out], lam)
        f_e = _power_sum(lam, _dists(pts[out, k] + step, pts[out]), 1)
        better = f_e < escape_f[out]
        escape[out[better]] = k
        offset[out[better]] = step[better]
        escape_f[out[better]] = f_e[better]
    return anchor, escape, offset, escape_f


def _flat_descent(x, x_new, f, f_new, g_new, on_new):
    # Where f is flat to its last bits (within RESOLUTION), whether a trial
    # point that moved still has a negative directional derivative, which
    # by convexity (f(x) >= f(x_new) - g(x_new) . (x_new - x)) puts it below f.
    slope = (g_new * (x_new - x)).sum(axis=1)
    flat = (f_new <= f + RESOLUTION * f) & (x_new != x).any(axis=1) & ~on_new.any(axis=1)
    return flat & (slope < 0)


def _backtrack(x, f, g, s, rows, pts, lam, p, armijo):
    # Armijo backtracking along s on `rows`, all at once, with sufficient
    # decrease `armijo`: the points reached, their objectives and the step
    # factor taken (0 where none was).
    x_new, f_new = x.copy(), f.copy()
    taken = np.zeros(x.shape[0])
    if not rows.size:
        return x_new, f_new, taken
    slope = (g * s).sum(axis=1)
    seek = rows[slope[rows] < 0]
    t = 1.0
    while seek.size and t > MIN_STEP:
        trial = x[seek] + t * s[seek]
        f_t, g_t, _, _, on_t, _ = _local(trial, pts[seek], lam, p)
        # Armijo's sufficient decrease, strictly (a tiny step can pass it
        # with f unchanged, and accepting it lets x cycle), or the flat-f
        # certificate.
        ok = (f_t < f[seek]) & (f_t <= f[seek] + armijo * t * slope[seek])
        ok |= _flat_descent(x[seek], trial, f[seek], f_t, g_t, on_t)
        hit = seek[ok]
        x_new[hit], f_new[hit], taken[hit] = trial[ok], f_t[ok], t
        seek = seek[~ok]
        t *= 0.5
    return x_new, f_new, taken


def _iterate_rows(pts, x, lam, p, free=None):
    # Minimizes each row's f from x; with a 0/1 mask `free` of x's shape,
    # only over the coordinates it marks, the others held where x has them.
    n = pts.shape[0]
    iters = np.zeros(n, dtype=np.int64)
    f = _power_sum(lam, _dists(x, pts), p)
    live = np.arange(n)
    last = np.full(n, np.inf)  # each row's last trusted Newton step
    for it in range(1, MAX_ITER + 1):
        if not live.size:
            break
        P, xl, fl = pts[live], x[live], f[live]
        _, g, diff, d, on, c = _local(xl, P, lam, p)
        if free is not None:
            g = g * free[live]
        s, newton = _newton(g, diff, d, on, c, p, None if free is None else free[live])
        step = _norm(s)
        near = step[newton] <= NEWTON_TRUST * d[newton].min(axis=1)
        trusted = newton[near]
        # Trusted steps shrink quadratically; one that stops shrinking is
        # rounding noise hopping between neighbouring floats.
        stalled = np.zeros(live.size, dtype=bool)
        stalled[trusted] = step[trusted] >= 0.5 * last[live[trusted]]
        last[live] = np.inf
        last[live[trusted]] = step[trusted]
        x_n, f_n, taken = _backtrack(xl, fl, g, s, newton[~near], P, lam, p, NEWTON_DECREASE)
        x_n[trusted] = xl[trusted] + s[trusted]
        f_n[trusted] = _power_sum(lam, _dists(x_n[trusted], P[trusted]), p)
        taken[trusted] = 1.0
        # Rows on an atom, or where no Newton step descends: a Weiszfeld step
        # (p = 1) or a gradient step.
        b = np.flatnonzero(taken == 0)
        stuck = b  # the rows where no step descends
        if b.size and p == 1:
            w = _weiszfeld_steps(g[b], on[b], c[b], lam)
            x_w = xl[b] + w
            f_w, g_w, _, _, on_w, _ = _local(x_w, P[b], lam, p)
            took = (f_w < fl[b]) | _flat_descent(xl[b], x_w, fl[b], f_w, g_w, on_w)
            x_n[b[took]], f_n[b[took]] = x_w[took], f_w[took]
            stuck = b[~took]
        elif b.size:
            x_g, f_g, t_g = _backtrack(
                xl[b], fl[b], g[b], -g[b], np.arange(b.size), P[b], lam, p, ARMIJO
            )
            x_n[b], f_n[b] = x_g, f_g
            stuck = b[t_g == 0]
        x[live], f[live] = x_n, f_n
        iters[live] = it
        # Converged: a full Newton step within STEP_TOL of the distance to the
        # nearest atom (the scale on which the model holds) or below the
        # resolution of x, or no descent left at all.
        limit = STEP_TOL * d.min(axis=1) + RESOLUTION * np.abs(xl).max(axis=1)
        stop = ((taken == 1.0) & (step <= limit)) | stalled
        stop[stuck] = True
        live = live[~stop]
    if live.size:
        raise NonConvergence(
            f"{live.size} p = {p:g} Fréchet means still moving after {MAX_ITER} iterations"
        )
    return x, iters


def _member_tables(space, p, lam, atoms):
    # Per member j, lam_j d(a, x)^p from each of its labels a (one row each)
    # to every point x: the one source of the metric objectives, so
    # frechet_means and product_costs agree bit for bit.
    return [lam[j] * space.dist.T[a] ** p for j, a in enumerate(atoms)]


def _metric_chunk(tables, idx):
    objs = np.zeros((idx.shape[0], tables[0].shape[1]))
    for j, table in enumerate(tables):
        objs += table[idx[:, j]]
    label = (objs <= objs.min(axis=1)[:, None] + TIE_TOL).argmax(axis=1)
    return label, objs[np.arange(idx.shape[0]), label], np.zeros(idx.shape[0], dtype=np.int64)


def _rounded_far(x, base, local, x_local):
    # The rows whose float x lies further from base + x_local than the
    # iteration's tolerance.
    limit = STEP_TOL * _dists(x_local, local).min(axis=1) + RESOLUTION * np.abs(x_local).max(axis=1)
    return np.flatnonzero(_norm(x - base - x_local) > limit)


def _to_floats(P, base, local, x_local, lam, p):
    # The points base + x_local of rows with atoms P (local = P - base),
    # their offsets from base and the iterations this took.
    #
    # The sum drops any displacement below half an ulp of base.  Next to an
    # atom far from the origin that moves x by more than the iteration's
    # tolerance, and the coordinates kept are no longer optimal given the
    # rounded ones.  Such a row holds the coordinate that rounding moved
    # furthest at its offset x - base (exact by Fast2Sum, as
    # |x_local| < |base| wherever a coordinate rounds this far) and solves
    # again over the others, one coordinate per pass, until no solved
    # coordinate rounds that far.  Rounding to nearest need not find the
    # best float either, and next to an atom that is often the atom itself,
    # so a held row ends on its lowest atom where that is lower.
    x = base + x_local
    iters = np.zeros(x.shape[0], dtype=np.int64)
    held = _rounded_far(x, base, local, x_local)
    if not held.size:
        return x, x_local, iters
    B, L, xh, xl = base[held], local[held], x[held], x_local[held]
    free = np.ones(xl.shape, dtype=bool)
    redo = np.arange(held.size)
    for _ in range(x.shape[1]):
        off = xh[redo] - B[redo]
        worst = np.where(free[redo], np.abs(off - xl[redo]), -1.0).argmax(axis=1)
        free[redo, worst] = False
        xl[redo] = np.where(free[redo], xl[redo], off)
        redo = redo[free[redo].any(axis=1)]
        if not redo.size:
            break
        xl[redo], more = _iterate_rows(L[redo], xl[redo], lam, p, free[redo].astype(float))
        iters[held[redo]] += more
        xh[redo] = B[redo] + xl[redo]
        redo = redo[_rounded_far(xh[redo], B[redo], L[redo], xl[redo])]
    Ph = P[held]
    f_atoms = np.stack([_power_sum(lam, _dists(Ph[:, k], Ph), p) for k in range(Ph.shape[1])], axis=1)
    k = f_atoms.argmin(axis=1)
    lower = np.flatnonzero(f_atoms[np.arange(held.size), k] < _power_sum(lam, _dists(xh, Ph), p))
    xh[lower], xl[lower] = Ph[lower, k[lower]], L[lower, k[lower]]
    x_local = x_local.copy()
    x[held], x_local[held] = xh, xl
    return x, x_local, iters


def _euclidean_chunk(pts, lam, p):
    x = np.empty((pts.shape[0], pts.shape[2]))
    iters = np.zeros(pts.shape[0], dtype=np.int64)
    # A tuple of one repeated point is its own mean, exactly.
    same = (pts == pts[:, :1]).all(axis=(1, 2))
    x[same] = pts[same, 0]
    rest = np.flatnonzero(~same)
    origin = np.zeros(rest.size, dtype=np.intp)
    if p == 1:
        # Anchored rows are solved.  The others start from the weighted mean
        # or, when lower, the best escape point off an atom, and iterate
        # relative to that atom: next to it, a displacement measured from
        # elsewhere would lose its direction to rounding.
        anchor, escape, offset, escape_f = _atom_tests(pts[rest], lam)
        hit = anchor >= 0
        x[rest[hit]] = pts[rest[hit], anchor[hit]]
        mean = (lam[:, None] * pts[rest]).sum(axis=1) / lam.sum()
        lower = ~hit & (escape_f < _power_sum(lam, _dists(mean, pts[rest]), 1))
        origin[lower] = escape[lower]
        rest, origin, offset, lower = rest[~hit], origin[~hit], offset[~hit], lower[~hit]
    # Iterate relative to an atom: coordinates the atoms share stay exact,
    # and the resolution of x is that of the tuple's own extent.
    base = pts[rest, origin]
    P = pts[rest]
    local = P - base[:, None, :]
    start = (lam[:, None] * local).sum(axis=1) / lam.sum()
    if p == 2:
        x[rest] = base + start
    else:
        if p == 1:
            start[lower] = offset[lower]
        x_local, iters[rest] = _iterate_rows(local, start, lam, p)
        x[rest], x_local, more = _to_floats(P, base, local, x_local, lam, p)
        iters[rest] += more
        # A solution on an atom is that atom, exactly.
        on = (x_local[:, None, :] == local).all(axis=2)
        at = np.flatnonzero(on.any(axis=1))
        x[rest[at]] = P[at, on[at].argmax(axis=1)]
    return x, _power_sum(lam, _dists(x, pts), p), iters


def frechet_means(
    space: Space, p: float, lam, atoms, idx
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fréchet mean of every index tuple: one minimizer of
    x -> sum_j lam_j d(x, atoms[j][idx[k, j]])^p per row k of ``idx``.

    ``atoms`` holds each member's (n_j, d) coordinates or (n_j,) labels, as
    for :func:`product_costs`, and ``idx`` is an (N, J) array of member
    indices.  Returns the points ((N, d) or (N,) labels), their objectives
    and the iterations per row.

    Raises:
        DimensionMismatch: p < 1, or ``atoms``, ``idx`` and ``lam`` disagree
            on the number of members.
        NonConvergence: a row is still iterating after ``MAX_ITER`` steps.
    """
    check_order(p)
    lam = np.asarray(lam, dtype=float).ravel()
    idx = np.asarray(idx, dtype=np.intp)
    N, J = idx.shape
    if not J == len(atoms) == lam.shape[0] or J == 0:
        raise DimensionMismatch(
            f"{len(atoms)} members, {J} indices per tuple and {lam.shape[0]} weights"
        )
    if isinstance(space, MetricMatrix):
        tables = _member_tables(space, p, lam, [np.asarray(a, dtype=np.intp) for a in atoms])
        points = np.empty(N, dtype=np.intp)
        rows = max(1, CHUNK_ENTRIES // space.n_points)
        solve = lambda part: _metric_chunk(tables, idx[part])
    else:
        atoms = [np.asarray(a, dtype=float) for a in atoms]
        points = np.empty((N, space.dim))
        rows = max(1, CHUNK_ENTRIES // (J * space.dim))
        solve = lambda part: _euclidean_chunk(
            np.stack([a[idx[part, j]] for j, a in enumerate(atoms)], axis=1), lam, p
        )
    objs = np.empty(N)
    iters = np.zeros(N, dtype=np.int64)
    for lo in range(0, N, rows):
        part = slice(lo, lo + rows)
        points[part], objs[part], iters[part] = solve(part)
    return points, objs, iters


def _squared_distance_sum(lam, atoms, shape):
    # (1 / Lambda) sum_{j < k} lam_j lam_k D_jk[i_j, i_k], summed into the
    # tensor in place, one n_j x n_k table per pair broadcast along axes j, k.
    C = np.zeros(shape)
    J = len(shape)
    for j in range(J):
        for k in range(j + 1, J):
            diff = atoms[j][:, None, :] - atoms[k][None, :, :]
            D = (diff * diff).sum(axis=2) * (lam[j] * lam[k] / lam.sum())
            C += D.reshape((shape[j],) + (1,) * (k - j - 1) + (shape[k],) + (1,) * (J - 1 - k))
    return C


def _metric_product(space, p, lam, atoms, shape):
    # The tensor in blocks of at most CHUNK_ENTRIES floats: the trailing axes
    # s, ..., J - 1 are broadcast whole, with the points as a last axis, and
    # the flattened leading axes are walked `rows` tuples at a time.
    P = space.n_points
    tables = _member_tables(space, p, lam, atoms)
    J = len(shape)
    s, tail = J, 1
    while s > 1 and tail * shape[s - 1] * P <= CHUNK_ENTRIES:
        s -= 1
        tail *= shape[s]
    lead_size = int(np.prod(shape[:s]))
    rows = min(lead_size, max(1, CHUNK_ENTRIES // (tail * P)))
    # Member j >= s along axis j of a block (rows, n_s, ..., n_{J-1}, P).
    broadcast = [tables[j].reshape((shape[j],) + (1,) * (J - 1 - j) + (P,)) for j in range(s, J)]
    trail = list(np.indices(shape[s:]).reshape(J - s, 1, tail))
    C = np.empty(shape)
    flat = C.reshape(lead_size, tail)
    buf = np.empty((rows,) + shape[s:] + (P,))
    for lo in range(0, lead_size, rows):
        hi = min(lo + rows, lead_size)
        lead = np.unravel_index(np.arange(lo, hi), shape[:s])
        out = buf[: hi - lo]
        # Members are summed in order, as in _metric_chunk, so the values
        # agree bit for bit.
        acc = tables[0][lead[0]]
        for j in range(1, s):
            acc += tables[j][lead[j]]
        out[...] = acc.reshape((hi - lo,) + (1,) * (J - s) + (P,))
        for table in broadcast:
            out += table
        # The smallest label within TIE_TOL of the minimum, found in place
        # (out becomes 1.0 where a label qualifies), so a block needs no
        # second buffer; its objective is summed again from the tables.
        objs = out.reshape(hi - lo, tail, P)
        np.less_equal(objs, (objs.min(axis=2) + TIE_TOL)[:, :, None], out=objs)
        label = objs.argmax(axis=2)
        index = [i[:, None] for i in lead] + trail
        value = tables[0][index[0], label]
        for j in range(1, J):
            value += tables[j][index[j], label]
        flat[lo:hi] = value
    return C


def product_costs(space: Space, p: float, lam, atoms) -> np.ndarray:
    """Cost tensor of the multi-marginal LP, shape (n_1, ..., n_J): entry
    (i_1, ..., i_J) is min_x sum_j lam_j d(x, atoms[j][i_j])^p, the objective
    :func:`frechet_means` returns for that tuple, without its points.

    ``atoms`` holds each member's (n_j, d) coordinates or (n_j,) labels.
    Two spaces have a form that needs no per-tuple array:

    - Euclidean, p = 2: the variance identity
      sum_j lam_j |mean - a_j|^2 = (1 / Lambda) sum_{j<k} lam_j lam_k |a_j - a_k|^2,
      Lambda = sum(lam), broadcast from the n_j x n_k squared-distance
      tables.  Every term is nonnegative, so nothing cancels; the values
      agree with the Fréchet pass to rounding.
    - A metric matrix, any p: the member tables lam_j d(a, x)^p summed over
      the product in member order, in blocks of at most ``CHUNK_ENTRIES``
      floats, then the objective at the smallest label within ``TIE_TOL``
      of the minimum over the points: bit for bit the pass's values.

    Raises:
        UnsupportedSpace: a Euclidean space with p != 2, which has no such
            form (its costs come from :func:`frechet_means`).
    """
    lam = np.asarray(lam, dtype=float).ravel()
    shape = tuple(len(a) for a in atoms)
    if isinstance(space, MetricMatrix):
        return _metric_product(space, p, lam, [np.asarray(a, dtype=np.intp) for a in atoms], shape)
    if p != 2:
        raise UnsupportedSpace(f"no product-cost form for Euclidean p = {p:g}")
    return _squared_distance_sum(lam, [np.asarray(a, dtype=float) for a in atoms], shape)

