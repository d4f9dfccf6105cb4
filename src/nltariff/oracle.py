"""Brute-force verification of the constant-reservation optimum.

The oracle maximizes the discretized screening objective without touching any
closed form: for a candidate threshold it alternates between a pointwise
slope choice on a finite slope grid (given the current marginal cost) and a
recomputation of the aggregate, a damped fixed point that lands on the
discrete optimum because the objective is concave in the slopes. Each row's
slope is the one ``np.argmax`` over its whole grid picks; the grid's
breakpoints only predict it, and a prediction that is not a strict peak by a
margin far above rounding sends the row to that whole-row scan.

The thresholds come in stages: the coarse candidates, then three zooms of 9
around the best so far. Per stage, one call of the slope-grid hint sizes the
slope grids of all its thresholds below 1. Per threshold, the type grid, the
slope grid, its breakpoints, the rows' constants and levels and a scratch
array for the flow and consumption planes are made once. Per round, only the
marginal cost is new: one breakpoint search with its three-slope check, then,
unless the slopes repeat the last round's, one trapezoid of both planes. The
thresholds are evaluated one after another, because each fixed point starts
from the aggregate of the one before: that warm start is part of the result,
so neither the order of the thresholds nor the count of rounds may change.
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
NEIGHBOURS = np.array([[0], [1], [2]])  # k - 1, k, k + 1 in the NaN-padded slope grid
HINT_BLOCK = 16               # thresholds per block of the slope-grid hint's block x n_t x 64 arrays


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
    """Gain w s - kf c(s) of the rows (a, w, kf) at slopes s, one column per
    row, with its terms w s and kf c(s) and the consumption c(s). c(s) is 0
    where a s <= 0 or is NaN; the gain is not masked, so a pair whose c(s)
    or w s is not finite may gain NaN or +inf."""
    base = a * s
    cons = base ** (1.0 / gamma)
    cons[~(base > 0)] = 0.0
    ws = w * s
    kfc = kf * cons
    return ws - kfc, ws, kfc, cons


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
    grid, and its consumption. A pair whose c(s) or w s is not finite gains
    -inf."""
    a, w = rows
    gain, ws, _, cons = _gain(gamma, a, w, kf, slope_grid[:, None])
    gain[~(np.isfinite(cons) & np.isfinite(ws))] = -np.inf
    best = np.argmax(gain, axis=0)
    return best, cons[best, np.arange(a.size)]


def _pointwise_best_slopes(rows, slope_grid, gamma, kf, breaks=None):
    """Per row of ``_row_constants``, the first maximizer over the slope grid of
    the gain w s - kf c(s), as ``np.argmax`` over the whole row finds it, and
    its consumption.

    ``breaks`` is ``_breakpoints(rows, slope_grid, gamma)``, computed here
    when not given. Its prediction k for a row is kept when the gain at k
    drops on both grid neighbours of k by more than ``PEAK_MARGIN``
    (|w s_k| + |kf c_k|). A drop that large is no rounding of the gain, so
    k is the strict peak of the concave gain and every other slope gains
    less. The neighbours come from the grid padded by a NaN slope at each
    end, whose NaN gain ``np.fmax`` passes over: a neighbour outside the
    grid drops by +inf. A NaN, infinite or overflowing gain or margin fails
    the test, so a kept k has a finite kf and finite terms at k. Every other
    row, such as one whose peak is flat to a few ulp, is scanned over the
    whole grid. The prediction sets the cost of the search, never its answer.
    """
    a, w = rows
    padded = np.concatenate(([np.nan], slope_grid, [np.nan]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        edges, level = _breakpoints(rows, slope_grid, gamma) if breaks is None else breaks
        best = np.searchsorted(edges, level / kf)
        s = padded.take(best + NEIGHBOURS, mode="clip")
        gain, ws, kfc, cons = _gain(gamma, a, w, kf, s)
        slopes, cons = s[1], cons[1]
        margin = PEAK_MARGIN * (np.abs(ws[1]) + np.abs(kfc[1]))
        r = (~(gain[1] - np.fmax(gain[0], gain[2]) > margin)).nonzero()[0]
        if r.size:
            k, cons[r] = _scanned_best_slopes((a[r], w[r]), slope_grid, gamma, kf[r])
            slopes[r] = slope_grid[k]
    return slopes, cons


def _objective_given_slopes(params, x_nodes, slopes, cons, w, fvals, planes=None):
    """Objective and aggregate of the (n_t, n_x) slopes and consumptions,
    given the screening weight w(x) and the density f(x) on ``x_nodes``.
    The flow and consumption planes are written into ``planes``, a
    (2, n_t, n_x) scratch array, allocated here when not given."""
    if planes is None:
        planes = np.empty((2,) + slopes.shape)
    np.multiply(w, slopes, out=planes[0])
    np.multiply(cons, fvals, out=planes[1])
    flow, aggregate = trapezoid(planes, x_nodes)
    return float(params.time_integral(flow - eval_cost(aggregate, params))), aggregate


def _solve_fixed_point(params, x_nodes, slope_grid, warm_start=None):
    """Damped alternation between slope choice and aggregate recomputation.

    The slope grid is discrete, so the aggregate can settle into a micro
    cycle between adjacent grid slopes; convergence is therefore judged on
    the objective, which is what the oracle certifies. The grid's
    breakpoints, the rows' levels and the planes' scratch array are made
    once here; each round brings only a new marginal cost. A round writes
    into no array that an earlier round returned, so ``best`` can keep its
    slopes and aggregate.
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
    planes = np.empty((2,) + shape)
    last = (np.full(shape, np.nan),)      # the last round's slopes (NaN: none yet), objective, aggregate
    best = (-np.inf, None, None, 0)
    stall = 0
    step = np.inf
    for it in range(1, FIXED_POINT_CAP + 1):
        kappa = np.maximum(eval_marginal_cost(aggregate, params), 1e-12)
        kf = np.multiply.outer(kappa, fvals).ravel()
        slopes, cons = _pointwise_best_slopes(rows, slope_grid, params.gamma, kf, breaks)
        slopes = slopes.reshape(shape)
        if (slopes == last[0]).all():
            # the same slopes, hence the same consumptions: the same objective
            value, agg_actual = last[1:]
        else:
            value, agg_actual = _objective_given_slopes(params, x_nodes, slopes, cons.reshape(shape), w, fvals,
                                                        planes)
        last = (slopes, value, agg_actual)
        if best[1] is None or value > best[0] + 1e-12 * max(1.0, abs(best[0])):
            best = (value, slopes, agg_actual, it)
            stall = 0
        else:
            stall += 1
        step = np.abs(agg_actual - aggregate).max() / max(1e-12, np.abs(aggregate).max())
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
    utility scaled by ten (only a bracket hint, never an answer).

    Elementwise on a 1-D array of thresholds below 1, a block of
    ``HINT_BLOCK`` thresholds at a time; a float for a scalar.
    """
    from .solver_const_h import capacity_A, ell_const, optimal_slopes, upper_bracket

    x0s = np.atleast_1d(np.asarray(x0, dtype=float))
    Kc = np.maximum(eval_marginal_cost(capacity_A(ell_const(x0s, params), params), params), 1e-12)
    start = np.minimum(x0s + 1e-6, 1.0)[:, None]
    stop = 1.0 - 1e-9
    # np.linspace(start, stop, 64) of each threshold: k * step + start, then
    # stop; a batched np.linspace would change every row's formula if one
    # row's step were 0
    xs = np.arange(64.0) * ((stop - start) / 63) + start
    xs[:, -1] = stop
    scale = np.empty(x0s.shape)
    for i in range(0, x0s.size, HINT_BLOCK):
        block = xs[i:i + HINT_BLOCK, None, :]
        with np.errstate(divide="ignore"):
            s = optimal_slopes(params.phi[:, None], upper_bracket(block, params), params.f.pdf(block),
                               Kc[i:i + HINT_BLOCK, :, None], params.g.prime(block), params.gamma)
        scale[i:i + HINT_BLOCK] = np.where(np.isfinite(s), s, 0.0).max(axis=(1, 2))
    scale = np.maximum(scale, 1e-6)
    return float(scale[0]) if np.ndim(x0) == 0 else scale


def oracle_relaxed_maximize_const_h(params, type_grid_size=200, slope_grid_size=1500, x0_candidates=None):
    """Maximize the discretized relaxed objective over thresholds and slopes.

    Completely independent of the closed forms (the solved slope scale is used
    only to size the search grid). Returns an OracleResult whose ``value``
    certifies the solver's optimum up to the discretization bound.
    """
    H = params.reservation.H
    if x0_candidates is None:
        x0_candidates = np.linspace(0.0, 1.0, 41)
    x_top = 1.0 if params.gamma > 0 else 1.0 - 1e-9

    # baseline: empty participation, zero revenue, zero production
    best = OracleResult(value=0.0, x0=1.0,
                        slopes=np.zeros((params.time_grid.size, 1)),
                        x_nodes=np.asarray([1.0]), aggregate=np.zeros(params.time_grid.size),
                        iterations=0)
    evaluated = []
    warm_agg = None     # the aggregate carried from one threshold to the next

    def stage(x0s):
        """Evaluate the thresholds in order, each fixed point warm-started
        from the last one's aggregate; one slope-scale hint for the stage."""
        nonlocal best, warm_agg
        x0s = np.asarray(x0s, dtype=float)
        live = x0s < 1.0 - 1e-12
        s_max = iter((10.0 * _closed_form_slope_scale(params, x0s[live])).tolist())
        for x0, alive in zip(x0s.tolist(), live.tolist()):
            if not alive:
                evaluated.append((x0, 0.0))
                continue
            x_nodes = np.linspace(x0, x_top, type_grid_size)
            grid = _slope_grid_for(params, next(s_max), slope_grid_size)
            value, slopes, agg, iters = _solve_fixed_point(params, x_nodes, grid, warm_start=warm_agg)
            warm_agg = agg
            value += (float(params.f.cdf(x0)) - 1.0) * H
            evaluated.append((x0, value))
            if value > best.value:
                best = OracleResult(value=value, x0=x0, slopes=slopes, x_nodes=x_nodes,
                                    aggregate=agg, iterations=iters)

    # coarse scan, then refine around the best candidate
    stage(x0_candidates)
    span = float(x0_candidates[1] - x0_candidates[0]) if len(x0_candidates) > 1 else 0.1
    for _ in range(3):
        stage(np.linspace(max(best.x0 - span, 0.0), min(best.x0 + span, 1.0), 9))
        span /= 4.0
    best.x0_values = sorted(evaluated)
    return best
