"""Brute-force verification of the constant-reservation optimum.

The oracle maximizes the discretized screening objective without touching any
closed form: for a candidate threshold it alternates between a pointwise
slope choice on a finite slope grid (given the current marginal cost) and a
recomputation of the aggregate, a damped fixed point that lands on the
discrete optimum because the objective is concave in the slopes.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence
from .model import eval_cost, eval_marginal_cost
from .numerics import trapezoid

FIXED_POINT_DAMPING = 0.5
FIXED_POINT_CAP = 100
FIXED_POINT_TOL = 1e-10
SEED_MARGIN = 1e-12           # relative drop at a seeded peak, far above rounding


@dataclass(eq=False)
class OracleResult:
    value: float
    x0: float
    slopes: np.ndarray          # (n_t, n_x) best discretized dp*/dx
    x_nodes: np.ndarray
    aggregate: np.ndarray       # A(t) at the fixed point
    iterations: int
    x0_values: list = field(default_factory=list)


def _screening_weight(params, x_nodes):
    gp = params.g.prime(x_nodes)
    return (params.g(x_nodes) * params.f.pdf(x_nodes) + gp * (params.f.cdf(x_nodes) - 1.0)) / gp


def _row_constants(params, x_nodes, w):
    """Per (t, x) row, time-major: a = gamma / (phi(t) g'(x)), so that the
    consumption at slope s is c(s) = (a s)^(1/gamma), and the weight w(x)."""
    gp = params.g.prime(x_nodes)
    a = params.gamma / (params.phi[:, None] * gp[None, :])
    return a.ravel(), np.tile(w, params.time_grid.size)


def _gain(gamma, a, w, kf, s):
    """Gain w s - kf c(s) and consumption c(s) of the rows (a, w, kf) at
    slopes s, one column per row. c(s) is 0 where a s <= 0, and a pair whose
    c(s) or w s is not finite gains -inf."""
    base = a * s
    cons = base ** (1.0 / gamma)
    cons[~(base > 0)] = 0.0
    ws = w * s
    gain = ws - kf * cons
    gain[~(np.isfinite(cons) & np.isfinite(ws))] = -np.inf
    return gain, cons


def _bisected_best_slopes(rows, slope_grid, gamma, kf):
    """Grid index of the first maximizer of each row's gain, as ``np.argmax``
    over the whole row finds it, and its consumption.

    The gain is concave in s (c is convex on both branches), so the sign of
    gain[k+1] - gain[k] changes at most once: a bisection on that sign,
    vectorized over the rows, finds the peak, and a scan of five indices
    around it absorbs rounding at the top. A row is scanned whole when one of
    its probe pairs compared equal or unordered, when its window maximum sits
    on a window edge inside the grid, or when its kf is not finite.
    """
    a, w = rows
    n = slope_grid.size
    pos = np.zeros(a.size, dtype=np.intp)
    closest = np.full(a.size, np.inf)      # smallest |gain[k+1] - gain[k]| probed
    if n > 1:
        # count the leading k with gain[k+1] > gain[k]: a first probe at
        # h - 1 leaves a range of h candidates, then steps h/2, ..., 1
        pair = np.array([[0], [1]])
        h = 1 << ((n - 1).bit_length() - 1)
        step = h
        while step:
            gain, _ = _gain(gamma, a, w, kf, slope_grid.take(pos + (step - 1) + pair))
            d = gain[1] - gain[0]
            np.minimum(closest, np.abs(d), out=closest)
            if step == h:
                pos[d > 0] = n - h
            else:
                pos += step * (d > 0)
            step >>= 1
    width = min(5, n)
    start = np.clip(pos - 2, 0, n - width)
    gain, cons = _gain(gamma, a, w, kf, slope_grid.take(start + np.arange(width)[:, None]))
    j = np.argmax(gain, axis=0)
    cols = np.arange(a.size)
    whole = (~(closest > 0) | np.isnan(gain[j, cols]) | ~np.isfinite(kf)
             | ((j == 0) & (start > 0)) | ((j == width - 1) & (start < n - width)))
    best = start + j
    cons = cons[j, cols]
    if whole.any():
        r = np.flatnonzero(whole)
        gain, cons_r = _gain(gamma, a[r], w[r], kf[r], slope_grid[:, None])
        best[r] = np.argmax(gain, axis=0)
        cons[r] = cons_r[best[r], np.arange(r.size)]
    return best, cons


def _pointwise_best_slopes(rows, slope_grid, gamma, kf, seed=None):
    """Per row of ``_row_constants``, the first maximizer over the slope grid of
    the gain w s - kf c(s), as ``np.argmax`` over the whole row finds it, and
    its consumption.

    ``seed`` holds a grid index per row, say the row's previous choice. The
    five slopes around it are scored first, and a row keeps its window
    maximum j when kf and gain[j] are finite, j is not on a window edge inside
    the grid, and the gain drops on both grid neighbours of j by more than
    ``SEED_MARGIN`` (|w s_j| + |kf c_j|). A drop that large is no rounding of
    the gain, so j is the strict peak of the concave gain and every other
    slope gains less. All other rows, or every row without a seed, go through
    ``_bisected_best_slopes``.
    """
    a, w = rows
    n = slope_grid.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if seed is None:
            best, cons = _bisected_best_slopes(rows, slope_grid, gamma, kf)
            return slope_grid[best], cons
        width = min(5, n)
        start = np.clip(seed - 2, 0, n - width)
        s = slope_grid.take(start + np.arange(width)[:, None])
        gain, cons = _gain(gamma, a, w, kf, s)
        j = np.argmax(gain, axis=0)
        cols = np.arange(a.size)
        top = gain[j, cols]
        best = start + j
        cons = cons[j, cols]
        margin = SEED_MARGIN * (np.abs(w * s[j, cols]) + np.abs(kf * cons))
        # a neighbour outside the window passes only where it is outside the grid
        left = np.where(j > 0, top - gain[np.maximum(j - 1, 0), cols] > margin, best == 0)
        right = np.where(j < width - 1, top - gain[np.minimum(j + 1, width - 1), cols] > margin,
                         best == n - 1)
        r = np.flatnonzero(~(np.isfinite(kf) & np.isfinite(top) & left & right))
        if r.size:
            best[r], cons[r] = _bisected_best_slopes((a[r], w[r]), slope_grid, gamma, kf[r])
    return slope_grid[best], cons


def _objective_given_slopes(params, x_nodes, slopes, cons, w, fvals):
    """Objective and aggregate of the slopes, given the screening weight
    w(x) and the density f(x) on ``x_nodes``."""
    flow = trapezoid(w[None, :] * slopes, x_nodes)
    aggregate = trapezoid(cons * fvals[None, :], x_nodes)
    cost = eval_cost(params.time_grid, aggregate, params)
    return float(params.time_integral(flow - cost)), aggregate


def _solve_fixed_point(params, x_nodes, slope_grid, warm_start=None, warm_slopes=None):
    """Damped alternation between slope choice and aggregate recomputation.

    The slope grid is discrete, so the aggregate can settle into a micro
    cycle between adjacent grid slopes; convergence is therefore judged on
    the objective, which is what the oracle certifies. Each round seeds the
    slope search with the previous round's slopes, the first with
    ``warm_slopes`` (a previous threshold's, on its own grid); a seed changes
    the cost of the search, never its answer.
    """
    if warm_start is not None and np.all(np.isfinite(warm_start)) and np.any(warm_start > 0):
        aggregate = np.maximum(warm_start, 1e-9)
    else:
        aggregate = np.full(params.time_grid.size, 1e-3)
    w = _screening_weight(params, x_nodes)
    fvals = params.f.pdf(x_nodes)
    rows = _row_constants(params, x_nodes, w)
    shape = (params.time_grid.size, x_nodes.size)
    best = (-np.inf, None, None, 0)
    stall = 0
    step = np.inf
    slopes = warm_slopes
    for it in range(1, FIXED_POINT_CAP + 1):
        kappa = np.maximum(eval_marginal_cost(params.time_grid, aggregate, params), 1e-12)
        kf = (kappa[:, None] * fvals[None, :]).ravel()
        # the previous round's slopes are values of this increasing grid, so
        # this recovers their indices exactly; a previous threshold's land near
        seed = None if slopes is None else np.searchsorted(slope_grid, slopes.ravel())
        slopes, cons = _pointwise_best_slopes(rows, slope_grid, params.gamma, kf, seed=seed)
        slopes, cons = slopes.reshape(shape), cons.reshape(shape)
        value, agg_actual = _objective_given_slopes(params, x_nodes, slopes, cons, w, fvals)
        if best[1] is None or value > best[0] + 1e-12 * max(1.0, abs(best[0])):
            best = (value, slopes, agg_actual, it)
            stall = 0
        else:
            stall += 1
        step = np.max(np.abs(agg_actual - aggregate)) / max(1e-12, np.max(np.abs(aggregate)))
        aggregate = FIXED_POINT_DAMPING * aggregate + (1.0 - FIXED_POINT_DAMPING) * agg_actual
        if step < FIXED_POINT_TOL or stall >= 8:
            return best[0], best[1], best[2], it
    if step > 1e-3:
        raise NonConvergence(
            f"aggregate fixed point still moving by {step:.3g} after {FIXED_POINT_CAP} rounds"
        )
    return best[0], best[1], best[2], FIXED_POINT_CAP


def _slope_grid_for(params, s_max, size):
    if params.gamma < 0:
        return np.geomspace(max(s_max * 1e-8, 1e-12), s_max, size)
    return np.concatenate([[0.0], np.geomspace(max(s_max * 1e-8, 1e-12), s_max, size - 1)])


def _closed_form_slope_scale(params, x0):
    """Upper bound for the slope grid, from the solved marginal indirect
    utility scaled by ten (only a bracket hint, never an answer)."""
    from .solver_const_h import capacity_A, ell_const, optimal_slopes, upper_bracket

    t = params.time_grid
    ell = ell_const(x0, params)
    Kc = np.maximum(eval_marginal_cost(t, capacity_A(t, x0, params, ell=ell), params), 1e-12)
    xs = np.linspace(min(x0 + 1e-6, 1.0), 1.0 - 1e-9, 64)
    with np.errstate(divide="ignore"):
        s = optimal_slopes(params.phi[:, None], upper_bracket(xs, params), params.f.pdf(xs), Kc[:, None],
                           params.g.prime(xs), params.gamma)
    s = s[np.isfinite(s)]
    return max(float(np.max(s, initial=0.0)), 1e-6)


def oracle_relaxed_maximize_const_h(params, type_grid_size=200, slope_grid_size=1500, x0_candidates=None):
    """Maximize the discretized relaxed objective over thresholds and slopes.

    Completely independent of the closed forms (the solved slope scale is used
    only to size the search grid). Returns an OracleResult whose ``value``
    certifies the solver's optimum up to the discretization bound.
    """
    H = params.reservation.H
    if x0_candidates is None:
        x0_candidates = np.linspace(0.0, 1.0, 41)

    # baseline: empty participation, zero revenue, zero production
    best = OracleResult(value=0.0, x0=1.0,
                        slopes=np.zeros((params.time_grid.size, 1)),
                        x_nodes=np.asarray([1.0]), aggregate=np.zeros(params.time_grid.size),
                        iterations=0)
    evaluated = []
    warm = {"agg": None, "slopes": None}     # carried from one threshold to the next

    def eval_x0(x0):
        if x0 >= 1.0 - 1e-12:
            return 0.0, None
        x_top = 1.0 if params.gamma > 0 else 1.0 - 1e-9
        x_nodes = np.linspace(x0, x_top, type_grid_size)
        s_max = 10.0 * _closed_form_slope_scale(params, x0)
        grid = _slope_grid_for(params, s_max, slope_grid_size)
        value, slopes, agg, iters = _solve_fixed_point(params, x_nodes, grid, warm_start=warm["agg"],
                                                       warm_slopes=warm["slopes"])
        warm["agg"], warm["slopes"] = agg, slopes
        value += (float(params.f.cdf(x0)) - 1.0) * H
        return value, (slopes, x_nodes, agg, iters)

    # coarse scan, then refine around the best candidate
    for x0 in x0_candidates:
        v, payload = eval_x0(float(x0))
        evaluated.append((float(x0), v))
        if v > best.value and payload is not None:
            best = OracleResult(value=v, x0=float(x0), slopes=payload[0], x_nodes=payload[1],
                                aggregate=payload[2], iterations=payload[3])
    span = float(x0_candidates[1] - x0_candidates[0]) if len(x0_candidates) > 1 else 0.1
    for _ in range(3):
        lo = max(best.x0 - span, 0.0)
        hi = min(best.x0 + span, 1.0)
        for x0 in np.linspace(lo, hi, 9):
            v, payload = eval_x0(float(x0))
            evaluated.append((float(x0), v))
            if v > best.value and payload is not None:
                best = OracleResult(value=v, x0=float(x0), slopes=payload[0], x_nodes=payload[1],
                                    aggregate=payload[2], iterations=payload[3])
        span /= 4.0
    best.x0_values = sorted(evaluated)
    return best
