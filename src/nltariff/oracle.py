"""Brute-force verification of the constant-reservation optimum.

The oracle maximizes the discretized screening objective without touching any
closed form: for a candidate threshold it alternates between a pointwise
slope choice on a finite slope grid (given the current marginal cost) and a
recomputation of the aggregate, a damped fixed point that lands on the
discrete optimum because the objective is concave in the slopes. Each row's
slope is the one ``np.argmax`` over its whole grid picks; the grid's
breakpoints only predict it, and a prediction that is not a strict peak by a
margin far above rounding sends the row to that whole-row scan.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence
from .model import eval_cost, eval_marginal_cost
from .numerics import trapezoid

FIXED_POINT_DAMPING = 0.5
FIXED_POINT_CAP = 100
FIXED_POINT_TOL = 1e-10
PEAK_MARGIN = 1e-12           # relative drop at a kept peak, far above rounding


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


def _breakpoints(rows, slope_grid, gamma):
    """The slope grid's breakpoints E_k = (s_{k+1}^(1/gamma) - s_k^(1/gamma))
    / (s_{k+1} - s_k), and per row its level w / a^(1/gamma).

    With c(s) = (a s)^(1/gamma) and a, kf > 0, gain[k+1] > gain[k] holds
    exactly when kf E_k < w / a^(1/gamma). s^(1/gamma) is convex on both
    branches, so the E_k increase and the count of breakpoints below
    level / kf predicts the row's first maximizer. Both depend on the grid
    and the rows only, so they are computed once per threshold; kf is what
    changes from round to round.
    """
    a, w = rows
    p = 1.0 / gamma
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.diff(slope_grid ** p) / np.diff(slope_grid), w / a ** p


def _scanned_best_slopes(rows, slope_grid, gamma, kf):
    """Grid index of each row's first maximizer by ``np.argmax`` over the whole
    grid, and its consumption."""
    a, w = rows
    gain, cons = _gain(gamma, a, w, kf, slope_grid[:, None])
    best = np.argmax(gain, axis=0)
    return best, cons[best, np.arange(a.size)]


def _pointwise_best_slopes(rows, slope_grid, gamma, kf, breaks=None):
    """Per row of ``_row_constants``, the first maximizer over the slope grid of
    the gain w s - kf c(s), as ``np.argmax`` over the whole row finds it, and
    its consumption.

    ``breaks`` is ``_breakpoints(rows, slope_grid, gamma)``, computed here
    when not given. Its prediction k for a row is kept when kf and gain[k]
    are finite and the gain drops on both grid neighbours of k (a neighbour
    outside the grid passes) by more than ``PEAK_MARGIN`` (|w s_k| + |kf c_k|).
    A drop that large is no rounding of the gain, so k is the strict peak of
    the concave gain and every other slope gains less. Every other row, such
    as one whose peak is flat to a few ulp, is scanned over the whole grid.
    The prediction sets the cost of the search, never its answer.
    """
    a, w = rows
    n = slope_grid.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        edges, level = _breakpoints(rows, slope_grid, gamma) if breaks is None else breaks
        best = np.searchsorted(edges, level / kf)
        s = slope_grid.take(best + np.array([[-1], [0], [1]]), mode="clip")
        gain, cons = _gain(gamma, a, w, kf, s)
        top, cons = gain[1], cons[1]
        margin = PEAK_MARGIN * (np.abs(w * s[1]) + np.abs(kf * cons))
        kept = (np.isfinite(kf) & np.isfinite(top) & ((best == 0) | (top - gain[0] > margin))
                & ((best == n - 1) | (top - gain[2] > margin)))
        r = np.flatnonzero(~kept)
        if r.size:
            best[r], cons[r] = _scanned_best_slopes((a[r], w[r]), slope_grid, gamma, kf[r])
    return slope_grid[best], cons


def _objective_given_slopes(params, x_nodes, slopes, cons, w, fvals):
    """Objective and aggregate of the slopes, given the screening weight
    w(x) and the density f(x) on ``x_nodes``."""
    flow, aggregate = trapezoid(np.stack([w[None, :] * slopes, cons * fvals[None, :]]), x_nodes)
    cost = eval_cost(aggregate, params)
    return float(params.time_integral(flow - cost)), aggregate


def _solve_fixed_point(params, x_nodes, slope_grid, warm_start=None):
    """Damped alternation between slope choice and aggregate recomputation.

    The slope grid is discrete, so the aggregate can settle into a micro
    cycle between adjacent grid slopes; convergence is therefore judged on
    the objective, which is what the oracle certifies. The grid's
    breakpoints and the rows' levels are computed once here; each round
    brings only a new marginal cost.
    """
    if warm_start is not None and np.all(np.isfinite(warm_start)) and np.any(warm_start > 0):
        aggregate = np.maximum(warm_start, 1e-9)
    else:
        aggregate = np.full(params.time_grid.size, 1e-3)
    w = _screening_weight(params, x_nodes)
    fvals = params.f.pdf(x_nodes)
    rows = _row_constants(params, x_nodes, w)
    breaks = _breakpoints(rows, slope_grid, params.gamma)
    shape = (params.time_grid.size, x_nodes.size)
    best = (-np.inf, None, None, 0)
    stall = 0
    step = np.inf
    for it in range(1, FIXED_POINT_CAP + 1):
        kappa = np.maximum(eval_marginal_cost(aggregate, params), 1e-12)
        kf = (kappa[:, None] * fvals[None, :]).ravel()
        slopes, cons = _pointwise_best_slopes(rows, slope_grid, params.gamma, kf, breaks)
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

    Kc = np.maximum(eval_marginal_cost(capacity_A(ell_const(x0, params), params), params), 1e-12)
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
    warm_agg = None     # the aggregate carried from one threshold to the next

    def eval_x0(x0):
        nonlocal warm_agg
        if x0 >= 1.0 - 1e-12:
            return 0.0, None
        x_top = 1.0 if params.gamma > 0 else 1.0 - 1e-9
        x_nodes = np.linspace(x0, x_top, type_grid_size)
        s_max = 10.0 * _closed_form_slope_scale(params, x0)
        grid = _slope_grid_for(params, s_max, slope_grid_size)
        value, slopes, agg, iters = _solve_fixed_point(params, x_nodes, grid, warm_start=warm_agg)
        warm_agg = agg
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
