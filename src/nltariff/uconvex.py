"""Generalized conjugation with respect to the consumer utility kernel.

The transform of a price schedule is the indirect utility surface and vice
versa. Both directions are computed as exact maxima over finite grids, so
this module is a verifier: closed forms live in the solver modules, and the
grid transforms certify them up to O(grid step) under Lipschitz continuity.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams

CONVEXITY_REL_TOL = 1e-9   # slack on second differences, scaled by local slope size
C_MIN, C_MAX = 1e-4, 1e3   # consumption range of the default grid


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


@dataclass(frozen=True, eq=False)
class SampledFunctionOfConsumption:
    """Values q(t_i, c_j) on a strictly increasing consumption grid."""

    c_grid: np.ndarray
    values: np.ndarray  # shape (n_times, n_c)

    def __post_init__(self):
        c = np.asarray(self.c_grid, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if np.any(np.diff(c) <= 0):
            raise DomainError("sampled consumption grid must be strictly increasing")
        if v.shape[1] != c.size or not np.all(np.isfinite(v)):
            raise DomainError("sampled values must be finite, one row per time node")
        object.__setattr__(self, "c_grid", c)
        object.__setattr__(self, "values", v)


def default_c_grid(params, size=513):
    """Consumption grid suited to the utility branch, up to C_MAX.

    gamma < 0 needs geometric spacing from C_MIN (utility singular at 0);
    gamma in (0,1) gets a linear grid that includes zero consumption.
    """
    if params.gamma < 0:
        return np.geomspace(C_MIN, C_MAX, size)
    return np.linspace(0.0, C_MAX, size)


def _utility_surface(params, x_grid, c_grid):
    """u(t_i, x_j, c_k) for all grid combinations, shape (n_t, n_x, n_c).

    The dense reference for ``_u_conjugate``: no solver path calls it, the
    tests compare against it, and perfbench/tracing.py wraps it by name.
    """
    gamma = params.gamma
    cpow = _c_power(params, c_grid)
    return params.phi[:, None, None] * params.g(x_grid)[None, :, None] * cpow[None, None, :] / gamma


def _c_power(params, c_grid):
    if params.gamma < 0 and np.any(c_grid <= 0):
        raise InvalidParams("c_grid", "consumption grid must be positive when gamma < 0")
    return c_grid ** params.gamma


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


def _u_conjugate(phi, gx, cpow, gamma, values, over_x):
    """Exact grid maxima of phi[i] * gx[j] * cpow[k] / gamma - values[i, .].

    ``over_x``: the maximum runs over j, ``values`` has shape (n_t, n_x) and
    ``cpow`` shape (n_c,) or (n_t, n_c); the result has shape (n_t, n_c).
    Otherwise the maximum runs over k, ``values`` has shape (n_t, n_c) and
    the result shape (n_t, n_x). Returns (maxima, argmax indices).

    The maximand is linear in the maximized variable's factor, with slope
    phi * (other factor) / gamma, so each maximum is the convex conjugate of
    the points (factor, values) at that slope (Lucet 1997). ``gx`` and
    ``cpow`` are strictly monotone: the hull of the points is found once per
    row and each query's vertex by ``searchsorted``, O(n_x + n_c) per row.
    The winner and its two hull neighbours are then evaluated in the dense
    formula's own operation order, ties going to the lowest index as with
    ``np.argmax``, so the maxima equal the dense ones up to rounding in the
    choice between nearly tied grid points.
    """
    nt = values.shape[0]
    a, q = (gx, cpow) if over_x else (cpow, gx)
    flip = a[-1] < a[0]
    a_up, v_up = (a[::-1], values[:, ::-1]) if flip else (a, values)
    rows, cols = np.nonzero(_lower_hull(a_up, v_up))
    first = np.searchsorted(rows, np.arange(nt + 1))
    slopes = np.broadcast_to(phi[:, None] * q / gamma, (nt, q.shape[-1]))
    # edges between the rows' last and next first vertices are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        edge = np.diff(v_up[rows, cols]) / np.diff(a_up[cols])
    pos = np.empty(slopes.shape, dtype=np.intp)
    for i in range(nt):
        pos[i] = np.searchsorted(edge[first[i]:first[i + 1] - 1], slopes[i]) + first[i]
    cand = (cols[np.maximum(pos - 1, first[:-1, None])], cols[pos],
            cols[np.minimum(pos + 1, first[1:, None] - 1)])
    if flip:  # reversed, so the planes stay in increasing index order for the tie rule
        cand = tuple(a.size - 1 - c for c in cand[::-1])
    scores = []
    for c in cand:
        if over_x:
            u = phi[:, None] * gx[c] * cpow / gamma
        else:
            u = phi[:, None] * gx * cpow[c] / gamma
        scores.append(u - np.take_along_axis(values, c, axis=1))
    v0, v1, v2 = scores
    best = np.maximum(np.maximum(v0, v1), v2)
    arg = np.where(v0 == best, cand[0], np.where(v1 == best, cand[1], cand[2]))
    return best, arg


def u_transform_price_to_indirect(p, params, x_grid=None):
    """Indirect utility p*(t,x) = max over the c-grid of u(t,x,c) - p(t,c).

    Returns (SampledFunctionOfType, argmax_indices). The maximum is exact on
    the grid; continuous optima are recovered only up to grid resolution.
    """
    if x_grid is None:
        x_grid = np.linspace(0.0, 1.0, 401)
    x_grid = np.asarray(x_grid, dtype=float)
    vals, arg = _u_conjugate(params.phi, params.g(x_grid), _c_power(params, p.c_grid),
                             params.gamma, p.values, over_x=False)
    return SampledFunctionOfType(x_grid=x_grid, values=vals), arg


def u_transform_indirect_to_price(p_star, params, c_grid=None):
    """Price schedule p(t,c) = max over the x-grid of u(t,x,c) - p*(t,x)."""
    if c_grid is None:
        c_grid = default_c_grid(params)
    c_grid = np.asarray(c_grid, dtype=float)
    vals, arg = _u_conjugate(params.phi, params.g(p_star.x_grid), _c_power(params, c_grid),
                             params.gamma, p_star.values, over_x=True)
    return SampledFunctionOfConsumption(c_grid=c_grid, values=vals), arg


@dataclass(frozen=True, eq=False)
class UConvexityReport:
    is_u_convex: bool
    max_biconjugation_gap: float
    convexity_violations: list


def check_u_convexity(p_star, params, c_grid=None):
    """Diagnose u-convexity of a sampled indirect utility.

    Canonical taste maps admit the equivalence "u-convex iff convex
    nondecreasing", tested through slopes of the samples. For any taste map
    the biconjugation gap max |(p*)** - p*| is also computed; the function is
    declared u-convex when the relevant criterion passes within tolerance.
    """
    d = np.diff(p_star.values, axis=1)
    slopes = d / np.diff(p_star.x_grid)
    scale = np.maximum(1.0, np.max(np.abs(slopes), axis=1, keepdims=True, initial=0.0))
    violations = []
    if p_star.x_grid.size >= 3:
        curv = np.diff(slopes, axis=1)
        bad_t, bad_i = np.nonzero(curv < -CONVEXITY_REL_TOL * scale)
        for ti, ii in zip(bad_t.tolist(), bad_i.tolist()):
            violations.append((ti, float(p_star.x_grid[ii + 1]), float(curv[ti, ii])))
    monotone_ok = bool(np.all(slopes >= -CONVEXITY_REL_TOL * scale))

    price, _ = u_transform_indirect_to_price(p_star, params, c_grid=c_grid)
    back, _ = u_transform_price_to_indirect(price, params, x_grid=p_star.x_grid)
    gap = float(np.max(np.abs(back.values - p_star.values)))

    # biconjugation through grids loses up to one local increment of p*
    incr = np.max(np.abs(d), initial=0.0)
    gap_tol = 2.0 * incr + 1e-9

    if params.g.form == "canonical":
        ok = (len(violations) == 0) and monotone_ok
    else:
        ok = gap <= gap_tol
    return UConvexityReport(
        is_u_convex=ok,
        max_biconjugation_gap=gap,
        convexity_violations=violations,
    )
