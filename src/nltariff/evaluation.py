"""Principal-utility evaluation for arbitrary tariffs and indirect utilities.

``principal_utility`` prices a tariff by simulating the agents (grid-search
or closed-form best responses) and integrating revenue minus the cost of the
aggregate demand; ``relaxed_objective`` evaluates the integrated-by-parts
screening objective for a candidate indirect utility at a fixed participation
boundary. The two together referee closed forms against oracles.
"""
import numpy as np

from .agent import participation_set
from .errors import DomainError
from .model import eval_cost
from .numerics import golden_max, trapezoid
from .uconvex import u_transform_price_to_indirect

TYPE_NODES_PER_COMPONENT = 400


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


def consumption_from_slopes(slopes, x, params):
    """c*(t,x) = (gamma / (phi g'(x)) dp*/dx)^(1/gamma), vectorized, with the
    zero-slope conventions of the two branches."""
    gamma = params.gamma
    gp = params.g.prime(x)
    base = gamma / (params.phi[:, None] * gp[None, :]) * slopes
    if gamma > 0:
        return np.where(base > 0.0, np.maximum(base, 0.0) ** (1.0 / gamma), 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(base > 0.0, base, np.inf) ** (1.0 / gamma)
    return out


def principal_utility(tariff, params, p_star=None, mode="closed_form", c_grid=None,
                      type_nodes=TYPE_NODES_PER_COMPONENT, refine=True):
    """Provider profit for a tariff: revenue minus cost of aggregate demand.

    mode "closed_form" uses the envelope consumptions from ``p_star`` (which
    must then be supplied or recoverable); mode "grid" recomputes agents' best
    responses by grid search over ``c_grid`` -- the fully independent route.
    Empty participation returns the (zero-production) profit.
    """
    if p_star is None:
        if c_grid is None:
            raise DomainError("grid mode needs a consumption grid when p_star is absent")
        sampled = tariff.sample(c_grid)
        ind, _ = u_transform_price_to_indirect(sampled, params, x_grid=np.linspace(0.0, 1.0, 2001))
        from .agent import IndirectUtility
        p_star = IndirectUtility.from_samples(params.time_grid, ind.x_grid, ind.values)
        mode = "grid"
    part = participation_set(p_star, params)
    nt = params.time_grid.size
    if part.empty:
        return float(-params.time_integral(eval_cost(params.time_grid, np.zeros(nt), params)))

    revenue = np.zeros(nt)
    aggregate = np.zeros(nt)
    for (lo, hi) in part.intervals:
        xs = _component_grid(lo, hi, type_nodes, params.gamma)
        if xs is None:
            continue
        fvals = params.f.pdf(xs)
        if mode == "closed_form":
            slopes = p_star.slopes(xs)
            cons = consumption_from_slopes(slopes, xs, params)
        elif mode == "grid":
            if c_grid is None:
                raise DomainError("grid mode needs a consumption grid")
            cons = _grid_consumptions(tariff, params, xs, c_grid, refine)
        else:
            raise DomainError(f"unknown mode {mode!r}")
        cons = np.where(np.isfinite(cons), cons, 0.0)
        prices = np.vstack([
            tariff.price(i, np.maximum(cons[i], 1e-300) if params.gamma < 0 else cons[i])
            for i in range(nt)
        ])
        revenue += trapezoid(prices * fvals[None, :], xs)
        aggregate += trapezoid(cons * fvals[None, :], xs)

    profit_t = revenue - eval_cost(params.time_grid, aggregate, params)
    return float(params.time_integral(profit_t))


def _grid_consumptions(tariff, params, xs, c_grid, refine):
    """Per-type grid-search best responses (independent of any closed form)."""
    nt = params.time_grid.size
    gamma = params.gamma
    gx = params.g(xs)
    cpow = c_grid ** gamma
    cons = np.empty((nt, xs.size))
    for i in range(nt):
        prices = tariff.price(i, c_grid)
        obj = gx[:, None] * params.phi[i] * cpow[None, :] / gamma - prices[None, :]
        arg = np.argmax(obj, axis=1)
        cons[i] = c_grid[arg]
        if refine:
            for j, a in enumerate(arg):
                lo = c_grid[max(a - 1, 0)]
                hi = c_grid[min(a + 1, c_grid.size - 1)]
                if hi <= lo:
                    continue
                fx = gx[j] * params.phi[i]
                f = lambda c: fx * c ** gamma / gamma - float(tariff.price(i, np.asarray([c]))[0])
                c_ref, v_ref = golden_max(f, max(lo, 1e-12) if gamma < 0 else lo, hi, xtol=1e-12)
                if v_ref >= obj[j, a]:
                    cons[i, j] = c_ref
    return cons


def relaxed_objective(p_star, boundary, params, type_nodes=TYPE_NODES_PER_COMPONENT):
    """Integrated-by-parts screening objective at a fixed participation boundary.

    Components touching x=1 carry the weight (g f + g' F - g')/g' and the
    boundary term (F(a0)-1) H(a0); components touching x=0 carry
    (g f + g' F)/g' and -F(b0) H(b0). Only the slope of the indirect utility
    enters, which is what makes the first-order perturbation audit exact.
    """
    intervals = boundary.intervals if hasattr(boundary, "intervals") else tuple(boundary)
    res = params.reservation
    nt = params.time_grid.size
    flow = np.zeros(nt)
    aggregate = np.zeros(nt)
    boundary_term = 0.0
    for (lo, hi) in intervals:
        upper = hi >= 1.0 - 1e-9
        xs = _component_grid(lo, hi, type_nodes, params.gamma)
        if xs is None:
            continue
        slopes = np.asarray(p_star.slopes(xs), dtype=float)
        gp = params.g.prime(xs)
        fvals = params.f.pdf(xs)
        Fvals = params.f.cdf(xs)
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
            Fa = float(params.f.cdf(a0))
            if Fa < 1.0:
                boundary_term += (Fa - 1.0) * float(res(np.asarray([a0]))[0])
        else:
            b0 = hi
            Fb = float(params.f.cdf(b0))
            if Fb > 0.0:
                boundary_term += -Fb * float(res(np.asarray([b0]))[0])

    cost_t = eval_cost(params.time_grid, aggregate, params)
    return float(params.time_integral(flow - cost_t) + boundary_term)
