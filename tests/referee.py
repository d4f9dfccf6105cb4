"""Formula-free referees for the emitted contract.

``best_responses`` lets every type at one time node pick its consumption on
a grid, optionally polished by golden section. ``principal_utility`` prices
a tariff with those consumptions (or with the envelope consumptions of a
supplied p*) and integrates revenue minus the cost of aggregate demand;
``relaxed_objective`` evaluates the integrated-by-parts screening objective
for a candidate indirect utility at a fixed participation boundary. Apart
from the p* a caller hands in, none of them reads the closed forms they
referee.
"""
import numpy as np

from nltariff.agent import consumption_from_slopes, participation_set
from nltariff.model import eval_cost
from nltariff.numerics import _INVPHI, trapezoid

TYPE_NODES_PER_COMPONENT = 400


def golden_max_each(f, lo, hi, xtol, max_iter=200):
    """``numerics.golden_max`` on every bracket [lo[k], hi[k]] at once.

    ``f(k, x)`` returns the objective of each element ``k`` at ``x``. Each
    element freezes once its bracket is narrower than ``xtol``, so it takes
    the steps the scalar search takes. Returns (x, f(x)) per element.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    every = np.arange(a.size)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(every, c), f(every, d)
    live = every
    for _ in range(max_iter):
        live = live[~(b[live] - a[live] < xtol)]
        if not live.size:
            break
        left = fc[live] >= fd[live]
        k, m = live[left], live[~left]
        b[k], d[k], fd[k] = d[k], c[k], fc[k]
        c[k] = b[k] - _INVPHI * (b[k] - a[k])
        a[m], c[m], fc[m] = c[m], d[m], fd[m]
        d[m] = a[m] + _INVPHI * (b[m] - a[m])
        fnew = f(live, np.where(left, c[live], d[live]))
        fc[k], fd[m] = fnew[left], fnew[~left]
    x = 0.5 * (a + b)
    return x, f(every, x)


def best_responses(tariff, i, xs, c_grid, params, refine=False):
    """Each type's best response at time node ``i``: maximize
    u(t_i, x, c) - p(t_i, c) over ``c_grid`` for every x in ``xs``.

    With ``refine`` each argmax bracket [c_{j-1}, c_{j+1}] is polished by
    golden section on the continuous objective, and the polished point
    replaces the grid point only if its value is strictly higher. Returns
    the consumptions and the values achieved, one per type.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    c_grid = np.asarray(c_grid, dtype=float)
    gamma = params.gamma
    rows = np.array([i])
    scale = params.g(xs) * params.phi[i]
    obj = scale[:, None] * c_grid ** gamma / gamma - tariff._fill(rows, c_grid)
    j = np.argmax(obj, axis=1)
    c, value = c_grid[j], obj[np.arange(xs.size), j]
    if refine:
        lo = c_grid[np.maximum(j - 1, 0)]
        hi = c_grid[np.minimum(j + 1, c_grid.size - 1)]
        live = np.flatnonzero(hi > lo)
        # u(0) = -inf when gamma < 0: keep the bracket off 0
        lo = np.maximum(lo[live], 1e-12) if gamma < 0 else lo[live]
        f = lambda k, cs: scale[live[k]] * cs ** gamma / gamma - tariff._fill(rows, cs)[0]
        c_ref, v_ref = golden_max_each(f, lo, hi[live], xtol=1e-12)
        better = v_ref > value[live]
        c[live[better]] = c_ref[better]
        value[live[better]] = v_ref[better]
    return c, value


def _component_grid(lo, hi, nodes, gamma):
    """Quadrature nodes on a participation component, endpoints snapped.

    The residential closed forms have an integrable slope singularity at
    x = 1; the end node is nudged inside to keep products finite.
    """
    hi_eff = min(hi, 1.0 - 1e-12) if gamma < 0 else hi
    lo_eff = max(lo, 0.0)
    if hi_eff <= lo_eff:
        return None
    return np.linspace(lo_eff, hi_eff, nodes)


def principal_utility(tariff, params, p_star, c_grid=None, type_nodes=TYPE_NODES_PER_COMPONENT):
    """Provider profit for a tariff: revenue minus cost of aggregate demand.

    The participating types are those of ``p_star``. Without ``c_grid`` they
    consume the envelope consumptions of ``p_star``'s slopes; with it, their
    polished best responses on that grid -- the fully independent route.
    Empty participation returns the (zero-production) profit.
    """
    part = participation_set(p_star, params)
    nt = params.time_grid.size
    if part.empty:
        return float(-params.time_integral(eval_cost(np.zeros(nt), params)))

    revenue = np.zeros(nt)
    aggregate = np.zeros(nt)
    for (lo, hi) in part.intervals:
        xs = _component_grid(lo, hi, type_nodes, params.gamma)
        if xs is None:
            continue
        fvals = params.f.prime(xs)
        if c_grid is None:
            cons = consumption_from_slopes(p_star.slopes(xs), xs, params)
        else:
            cons = np.vstack([best_responses(tariff, i, xs, c_grid, params, refine=True)[0]
                              for i in range(nt)])
        cons = np.where(np.isfinite(cons), cons, 0.0)
        prices = np.vstack([
            tariff.price(i, np.maximum(cons[i], 1e-300) if params.gamma < 0 else cons[i])
            for i in range(nt)
        ])
        revenue += trapezoid(prices * fvals[None, :], xs)
        aggregate += trapezoid(cons * fvals[None, :], xs)

    profit_t = revenue - eval_cost(aggregate, params)
    return float(params.time_integral(profit_t))


def relaxed_objective(p_star, boundary, params, type_nodes=TYPE_NODES_PER_COMPONENT):
    """Integrated-by-parts screening objective at a fixed participation boundary.

    Components touching x=1 carry the weight (g f + g' F - g')/g' and the
    boundary term (F(a0)-1) H(a0); components touching x=0 carry
    (g f + g' F)/g' and -F(b0) H(b0). Only the slope of the indirect utility
    enters, which is what makes the first-order perturbation audit exact.
    """
    res = params.reservation
    nt = params.time_grid.size
    flow = np.zeros(nt)
    aggregate = np.zeros(nt)
    boundary_term = 0.0
    for (lo, hi) in boundary.intervals:
        upper = hi >= 1.0 - 1e-9
        xs = _component_grid(lo, hi, type_nodes, params.gamma)
        if xs is None:
            continue
        slopes = np.asarray(p_star.slopes(xs), dtype=float)
        gp = params.g.prime(xs)
        fvals = params.f.prime(xs)
        Fvals = params.f(xs)
        if upper:
            w = (params.g(xs) * fvals + gp * (Fvals - 1.0)) / gp
        else:
            w = (params.g(xs) * fvals + gp * Fvals) / gp
        flow += trapezoid(np.where(np.abs(w) > 0, w[None, :] * slopes, 0.0), xs)
        cons = consumption_from_slopes(slopes, xs, params)
        cons = np.where(np.isfinite(cons), cons, 0.0)
        aggregate += trapezoid(cons * fvals[None, :], xs)
        if upper:
            a0 = lo
            Fa = float(params.f(a0))
            if Fa < 1.0:
                boundary_term += (Fa - 1.0) * float(res(np.asarray([a0]))[0])
        else:
            b0 = hi
            Fb = float(params.f(b0))
            if Fb > 0.0:
                boundary_term += -Fb * float(res(np.asarray([b0]))[0])

    cost_t = eval_cost(aggregate, params)
    return float(params.time_integral(flow - cost_t) + boundary_term)
