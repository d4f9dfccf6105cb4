"""Generalized conjugation with respect to the consumer utility kernel.

The u-conjugate of a sampled indirect utility is a price schedule, computed
as an exact maximum over the type grid at any consumption. The
u-convexity check computes the biconjugate of p* on its type grid exactly,
as a lower hull in g(x), with no consumption grid. Closed forms live in the
solver modules; this module verifies them.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams

GAP_TOL = 1e-6   # u-convexity slack on p* - (p*)**, relative to max(1, max|p*|)
ROW_BLOCK = 32   # time rows per u-conjugate or check pass, measured on 129-node requests


@dataclass(frozen=True, eq=False)
class SampledFunctionOfType:
    """Values q(t_i, x_j) on a strictly increasing x-grid in [0,1]."""

    x_grid: np.ndarray
    values: np.ndarray  # shape (n_times, n_x)

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if np.any(np.diff(x) <= 0):
            raise DomainError("sampled type grid must be strictly increasing")
        if x[0] < -1e-12 or x[-1] > 1.0 + 1e-12:
            raise DomainError("sampled type grid must lie in [0,1]")
        if v.shape[1] != x.size or not np.all(np.isfinite(v)):
            raise DomainError("sampled values must be finite, one row per time node")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "values", v)


def _utility_surface(params, x_grid, c_grid):
    """u(t_i, x_j, c_k) for all grid combinations, shape (n_t, n_x, n_c).

    The dense reference for ``_u_conjugate``: no solver path calls it, the
    tests compare against it, and perfbench/tracing.py wraps it by name.
    """
    gamma = params.gamma
    if gamma < 0 and np.any(c_grid <= 0):
        raise InvalidParams("c_grid", "consumption grid must be positive when gamma < 0")
    cpow = c_grid ** gamma
    return params.phi[:, None, None] * params.g(x_grid)[None, :, None] * cpow[None, None, :] / gamma


def _lower_hull(a, v):
    """Mask of the vertices of the lower convex hull of the points
    (a[j], v[i, j]), one hull per row i; ``a`` is nondecreasing.

    A point on or above the chord between its live neighbours is dropped.
    The first sweep tests every inner point against its grid neighbours on
    contiguous slices. Later sweeps test only the live neighbours of the
    runs just dropped: a run never crosses a row, since the two end points
    of a row always stay, and the runs come in order, so their neighbour
    lists merge in order without a sort. The work is O(n) per row plus a
    constant per sweep, and a concave pocket of depth d takes d sweeps.
    """
    nt, n = v.shape
    live = np.ones((nt, n), dtype=bool)
    live[:, 1:-1] = ~((v[:, 1:-1] - v[:, :-2]) * (a[2:] - a[:-2])
                      >= (v[:, 2:] - v[:, :-2]) * (a[1:-1] - a[:-2]))
    live = live.ravel()
    drop = np.flatnonzero(~live)
    flat = v.ravel()
    a_t = np.tile(a, nt)
    inner = np.tile((np.arange(n) > 0) & (np.arange(n) < n - 1), nt)
    prv = np.arange(-1, nt * n - 1)
    nxt = np.arange(1, nt * n + 1)
    while drop.size:
        # unlink each maximal run of dropped points from the live points around it
        linked = nxt[drop[:-1]] == drop[1:]
        left = prv[drop[np.concatenate([[True], ~linked])]]
        right = nxt[drop[np.concatenate([~linked, [True]])]]
        nxt[left] = right
        prv[right] = left
        # left[r] < right[r] <= left[r + 1], so only adjacent entries repeat
        test = np.column_stack([left, right]).ravel()
        test = test[np.concatenate([[True], test[1:] != test[:-1]])]
        test = test[inner[test]]
        lo, hi = prv[test], nxt[test]
        a_lo = a_t[lo]
        v_lo = flat[lo]
        drop = test[(flat[test] - v_lo) * (a_t[hi] - a_lo) >= (flat[hi] - v_lo) * (a_t[test] - a_lo)]
        live[drop] = False
    return live.reshape(nt, n)


def _u_conjugate(phi, gx, cpow, gamma, values):
    """Exact grid maxima over j of phi[i] * gx[j] * cpow[i, k] / gamma - values[i, j].

    ``values`` has shape (n_t, n_x) and ``cpow`` shape (n_t, n_c), one row
    of consumptions per time node; returns the maxima, shape (n_t, n_c).

    The maximand is linear in gx[j], with slope phi[i] * cpow[i, k] / gamma,
    so each maximum is the convex conjugate of the points (gx, values[i])
    at that slope (Lucet 1997). ``gx`` is strictly monotone: the hull of the
    points is found once per row and each consumption's vertex by
    ``searchsorted``, O(n_x + n_c) per row. The winner and its two hull
    neighbours are then evaluated in the dense formula's own operation
    order, so the maxima equal the dense ones up to rounding in the choice
    between nearly tied grid points.

    Rows are independent, so they go ROW_BLOCK at a time: the temporaries
    stay cache-sized at any n_t and the result is bitwise that of one pass.
    """
    best = np.empty(cpow.shape)
    for lo in range(0, values.shape[0], ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        best[rows] = _u_conjugate_rows(phi[rows], gx, cpow[rows], gamma, values[rows])
    return best


def _u_conjugate_rows(phi, gx, cpow, gamma, values):
    """``_u_conjugate`` on one block of rows."""
    nt = values.shape[0]
    a_up, v_up = (gx[::-1], values[:, ::-1]) if gx[-1] < gx[0] else (gx, values)
    rows, cols = np.nonzero(_lower_hull(a_up, v_up))
    first = np.searchsorted(rows, np.arange(nt + 1))
    slopes = phi[:, None] * cpow / gamma
    # edges between the rows' last and next first vertices are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        edge = np.diff(v_up[rows, cols]) / np.diff(a_up[cols])
    pos = np.empty(slopes.shape, dtype=np.intp)
    for i in range(nt):
        pos[i] = np.searchsorted(edge[first[i]:first[i + 1] - 1], slopes[i]) + first[i]
    cand = (cols[np.maximum(pos - 1, first[:-1, None])], cols[pos],
            cols[np.minimum(pos + 1, first[1:, None] - 1)])
    v0, v1, v2 = (phi[:, None] * a_up[c] * cpow / gamma - np.take_along_axis(v_up, c, axis=1) for c in cand)
    return np.maximum(np.maximum(v0, v1), v2)


@dataclass(frozen=True, eq=False)
class UConvexityReport:
    is_u_convex: bool
    max_biconjugation_gap: float
    convexity_violations: list


def check_u_convexity(p_star, params):
    """Diagnose u-convexity of a sampled indirect utility, exactly.

    The surplus phi(t) g(x) u(c) is separable, so p* is u-convex exactly
    when each time row is convex in s = g(x) with slopes in phi u(R+)
    (Carlier 2001; Figalli, Kim & McCann 2011). Orienting s by the sign of
    gamma makes those slopes [0, inf): the u-biconjugate of a row on the
    type grid is then its lower hull in s with slopes clipped at 0, and no
    consumption grid is needed. Reports the largest gap p* - biconjugate; a
    sample above it by more than GAP_TOL * max(1, max|p*|) is a violation
    (row, x, excess). Rows go ROW_BLOCK at a time, as in ``_u_conjugate``.
    """
    s = np.sign(params.gamma) * params.g(p_star.x_grid)
    values, j = p_star.values, np.arange(s.size)
    tol = GAP_TOL * max(1.0, float(values.max()), -float(values.min()))
    gap, violations = 0.0, []
    for lo in range(0, values.shape[0], ROW_BLOCK):
        v = values[lo:lo + ROW_BLOCK]
        live = _lower_hull(s, v)
        # each sample lies on the chord between its bracketing hull vertices
        left = np.maximum.accumulate(np.where(live, j, 0), axis=1)
        right = np.minimum.accumulate(np.where(live, j, s.size - 1)[:, ::-1], axis=1)[:, ::-1]
        v_left = np.take_along_axis(v, left, axis=1)
        step = (s - s[left]) / np.where(right > left, s[right] - s[left], 1.0)
        hull = v_left + (np.take_along_axis(v, right, axis=1) - v_left) * step
        # a running minimum from the right clips the hull's slopes to [0, inf)
        excess = v - np.minimum.accumulate(hull[:, ::-1], axis=1)[:, ::-1]
        gap = max(gap, float(excess.max()))
        rows, cols = np.nonzero(excess > tol)
        violations += [(lo + i, float(p_star.x_grid[k]), float(excess[i, k]))
                       for i, k in zip(rows.tolist(), cols.tolist())]
    return UConvexityReport(is_u_convex=not violations, max_biconjugation_gap=gap,
                            convexity_violations=violations)
