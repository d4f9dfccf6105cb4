"""Solver for the constant-reservation problem.

Two routes. The canonical power/uniform setting admits explicit formulas:
a scalar root equation locates the participation threshold on the industrial
branch and a closed form (with a positive-part clamp) on the residential
branch. Everything after the threshold (the objective, the scales and the
polynomial tariff) is the one-component case [x0, 1] of the typed closed
forms in ``closed_form``. The general route maximizes the reduced
one-dimensional objective by quadrature plus golden-section refinement and
emits a sampled tariff: the exact u-conjugate of p* on 2001 types, at any
consumption. Its search scores every threshold on one shared table of the
coverage ell(x0), and the threshold it locates gets ell from a trapezoid of
its own, which both the reported profit and the tariff use.
"""
from dataclasses import dataclass, field

import numpy as np

from .agent import IndirectUtility
from .closed_form import (B_gamma, L_gamma_profile, N_gamma_profile, component_shapes, ell_ab, objective_ab,
                          selected_segments)
from .errors import InvalidParams, InvalidReservation
from .model import eval_cost, eval_marginal_cost, g_K_inverse
from .numerics import bisect, cumtrapz, grid_then_golden_max, tail_integrals, trapezoid
from .tariff import ConjugateSegment, Tariff, TariffSegment

CHI_BRACKET_EPS = 1e-12
ALPHA_GRID = 1024
ELL_NODES = 20001    # nodes of the shared ell table and of a reported ell(x0), as in the dual oracle


@dataclass(eq=False)
class SolveReport:
    """Optimizer output for one scenario."""

    boundary: dict
    principal_utility: float
    foc_residual: float
    uniqueness: bool
    route: str
    warnings: list = field(default_factory=list)
    ell: float = None    # the general route's ell(x0), from which its tariff is built


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def lower_bracket(x, params):
    """g f + g' F, the screening weight on the low-type component."""
    return params.g(x) * params.f.prime(x) + params.g.prime(x) * params.f(x)


def upper_bracket(x, params):
    """g f + g' F - g', the screening weight on the served interval."""
    return params.g(x) * params.f.prime(x) + params.g.prime(x) * (params.f(x) - 1.0)


def optimal_slopes(phi, bracket, fx, Kc, gprime, gamma):
    """Optimal marginal indirect utility dp*/dx from the pointwise first-order
    condition: (phi^(1/gamma) bracket^+ / (f K_c(A)))^(gamma/(1-gamma)) g'/gamma.

    Elementwise: a time axis broadcasts through ``phi`` and ``Kc``.
    """
    base = phi ** (1.0 / gamma) * np.maximum(bracket, 0.0) / (fx * Kc)
    return base ** (gamma / (1.0 - gamma)) * gprime / gamma


def beta_fn(x, params):
    """beta(x) = (g f + g' F - g') / f^gamma, the uniqueness diagnostic."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return upper_bracket(x, params) / params.f.prime(x) ** params.gamma


def _ell_integrand(x, params):
    """(beta^+)^(1/(1-gamma)), the integrand of ell."""
    return np.maximum(beta_fn(x, params), 0.0) ** (1.0 / (1.0 - params.gamma))


def ell_const(x0, params):
    """ell(x0): integral of ([g f + g' F - g']^+ / f^gamma)^(1/(1-gamma)) over [x0, 1].

    Elementwise on a 1-D array of thresholds; a float for a scalar. The
    canonical power/uniform setting takes the closed form ell_ab(x0, 0);
    otherwise each threshold gets the trapezoid on ELL_NODES nodes of
    [x0, 1], the dual oracle's quadrature of its reported threshold.
    """
    x0s = np.atleast_1d(np.asarray(x0, dtype=float))
    if params.is_canonical_uniform_power:
        ell = ell_ab(x0s, 0.0, params)
    else:
        ell = np.zeros(x0s.shape)
        for i in np.flatnonzero(x0s < 1.0):
            xs = np.linspace(x0s[i], 1.0, ELL_NODES)
            ell[i] = trapezoid(_ell_integrand(xs, params), xs)
    return float(ell[0]) if np.ndim(x0) == 0 else ell


def ell_table(params):
    """ell on a 1-D array of thresholds for a search that scores many of
    them: the closed form ell_ab(x0, 0) in the canonical power/uniform
    setting; otherwise one shared table, the cumulative trapezoid of the
    integrand on ELL_NODES nodes of [0, 1] graded toward x = 1 (where the
    residential integrand has a square-root end), plus each threshold's
    partial cell."""
    if params.is_canonical_uniform_power:
        return lambda x0s: ell_ab(x0s, 0.0, params)
    return tail_integrals(lambda x: _ell_integrand(x, params), ELL_NODES)


def capacity_A(ell, params):
    """Aggregate consumption at the optimum for coverage ``ell`` on every
    time node.

    Elementwise: the result has shape ell.shape + (n_t,). Power cost:
    A = (phi/k)^(1/(n-gamma)) ell^((1-gamma)/(n-gamma)); general cost goes
    through the increasing-map inverse.
    """
    gamma = params.gamma
    ell = np.asarray(ell, dtype=float)[..., None]
    if params.is_power_cost:
        n = params.n
        node = (params.phi / params.k) ** (1.0 / (n - gamma))
        return ell ** ((1.0 - gamma) / (n - gamma)) * node
    return g_K_inverse(ell * params.phi ** (1.0 / (1.0 - gamma)), params)


def A_gamma(params):
    g, n = params.gamma, params.n
    return B_gamma(params) * ((1.0 - g) / (2.0 * (2.0 - g))) ** (n * (1.0 - g) / (n - g))


def chi(y0, params):
    """Root function for the industrial threshold: chi(y0*) = 0.

    chi(y0) = H - 2 n A_gamma (2-gamma)/(n-gamma) y0 (1 - y0^(2-gamma))^(-gamma(n-1)/(n-gamma)).
    Strictly decreasing from H > 0 to -inf, so the root is unique.
    """
    g, n = params.gamma, params.n
    H = params.reservation.H
    Ag = A_gamma(params)
    return H - 2.0 * n * Ag * (2.0 - g) / (n - g) * y0 * (1.0 - y0 ** (2.0 - g)) ** (-g * (n - 1.0) / (n - g))


def alpha_objective(x0, params, ell=None):
    """General reduced objective: time integral of (1/gamma) A dK/dc(A) - K(A)
    plus the boundary term (F(x0) - 1) H. Elementwise on a 1-D array of
    thresholds; a float for a scalar ``x0``. ``ell`` is the coverage at
    each threshold, ell_const's when None."""
    x0s = np.atleast_1d(np.asarray(x0, dtype=float))
    A = capacity_A(ell_const(x0s, params) if ell is None else np.atleast_1d(ell), params)
    vals = A * eval_marginal_cost(A, params) / params.gamma - eval_cost(A, params)
    out = trapezoid(vals, params.time_grid) + (params.f(x0s) - 1.0) * params.reservation.H
    return float(out[0]) if np.ndim(x0) == 0 else out


def _uniqueness_conditions(params):
    """Sufficient conditions under which the threshold is the unique maximizer."""
    xs = np.linspace(1e-9, 1.0 - 1e-9, 513)
    beta = beta_fn(xs, params)
    fvals = params.f.prime(xs)
    L = beta > 0
    if not np.any(L):
        return False
    dbeta = np.diff(beta[L])
    df = np.diff(fvals)
    if params.gamma > 0:
        return bool(np.all(df <= 1e-12) and np.all(dbeta > -1e-12))
    return bool(np.all(df >= -1e-12) and np.all(dbeta < 1e-12))


# ---------------------------------------------------------------------------
# main solve
# ---------------------------------------------------------------------------

def solve_x0_star(config):
    """Locate the participation threshold and the principal's utility.

    Returns a SolveReport with the threshold, the first-order-condition
    residual, and a uniqueness flag (sufficient condition, not necessary).
    """
    params = config.params
    if params.reservation.kind != "constant":
        raise InvalidParams("reservation", "solve_x0_star needs a constant reservation utility")
    H = params.reservation.H
    if not params.is_canonical_uniform_power or config.force_general_route:
        return _solve_general(config, H)
    industrial = params.gamma > 0
    boundary, residual = (_industrial_threshold if industrial else _residential_threshold)(params, H)
    x0 = boundary["x0"]
    report = SolveReport(
        boundary=boundary,
        principal_utility=float(objective_ab(x0, 0.0, params)),
        foc_residual=float(residual),
        uniqueness=True,
        route="closed_form_industrial" if industrial else "closed_form_residential",
    )
    if x0 == 0.0:
        report.warnings.append("corner solution x0*=0: every type is served")
    return report


def _industrial_threshold(params, H):
    """({x0, y0}, |chi(y0)|) at the root y0 of chi, x0 = (y0^(1-gamma) + 1)/2."""
    if H < 0:
        raise InvalidReservation("H must be >= 0 when gamma in (0,1)")
    e = 1.0 - params.gamma
    y0, z, residual = 0.0, 0.0, 0.0
    if H != 0.0:
        if chi(CHI_BRACKET_EPS, params) < 0:
            # a small enough H puts the root below the bracket's end, chi(0) = H > 0;
            # there an absolute error in y0 is magnified in x0, so bisect z = y0^(1-gamma)
            z = bisect(lambda z: chi(z ** (1.0 / e), params), 0.0, CHI_BRACKET_EPS ** e, xtol=1e-16)
            y0 = z ** (1.0 / e)
        else:
            y0 = bisect(lambda y: chi(y, params), CHI_BRACKET_EPS, 1.0 - CHI_BRACKET_EPS, xtol=1e-16)
            z = y0 ** e
        residual = abs(chi(y0, params))
    x0 = 0.5 * (z + 1.0)
    return {"x0": float(x0), "y0": float(y0)}, residual


def _residential_threshold(params, H):
    """({x0}, residual): the explicit threshold, clamped at 0, and the central
    difference quotient of the objective there (0 at the corner)."""
    g, n = params.gamma, params.n
    if H >= 0:
        raise InvalidReservation("H must be negative when gamma < 0")
    denom = n * (1.0 - g) + g
    raw = (
        (H / B_gamma(params) * (n - g) / (n * (1.0 - g))) ** ((n - g) / denom)
        * ((2.0 - g) / (1.0 - g)) ** (-g * (n - 1.0) / denom)
        * 2.0 ** (-n / denom)
    )
    x0 = max(1.0 - raw, 0.0)
    residual = 0.0
    if x0 > 0.0:
        h = 1e-6 * max(x0, 1.0 - x0)
        lo, hi = max(x0 - h, 0.0), min(x0 + h, 1.0)
        residual = abs((objective_ab(hi, 0.0, params) - objective_ab(lo, 0.0, params)) / (hi - lo))
    return {"x0": float(x0)}, residual


def _solve_general(config, H):
    """The scan, the golden-section steps and the first-order residual score
    thresholds on one ell table; the located x0 reports the objective at
    ell_const(x0)."""
    params = config.params
    table = ell_table(params)
    obj = lambda x0: alpha_objective(x0, params, table(np.atleast_1d(x0)))
    x0, _ = grid_then_golden_max(obj, np.linspace(0.0, 1.0, ALPHA_GRID), xtol=1e-10)
    x0 = float(x0)
    ell = ell_const(x0, params)
    unique = _uniqueness_conditions(params)
    h = 1e-5
    lo_r, hi_r = max(x0 - h, 0.0), min(x0 + h, 1.0)
    residual = abs((obj(hi_r) - obj(lo_r)) / (hi_r - lo_r)) if 0.0 < x0 < 1.0 else 0.0
    report = SolveReport(
        boundary={"x0": x0},
        principal_utility=float(alpha_objective(x0, params, ell)),
        foc_residual=float(residual),
        uniqueness=unique,
        route="general",
        ell=ell,
    )
    if not unique:
        report.warnings.append("uniqueness condition (monotone beta) not verified; grid maximizer returned")
    return report


# ---------------------------------------------------------------------------
# tariff construction
# ---------------------------------------------------------------------------

def build_tariff_const_h(config, report):
    """Emit the optimal tariff and its indirect utility.

    Canonical power/uniform scenarios produce the explicit polynomial
    segments; the general route samples the optimal indirect-utility surface
    on 2001 types and prices every consumption by its exact u-conjugate.
    """
    if report.route == "general":
        return _build_general(config, report)
    return _build_closed_form(config, report)


def _build_closed_form(config, report):
    """Polynomial tariff of the canonical routes: the one-component case
    [x0, 1] of the typed closed forms, served by the upper shape on both
    branches. On the served types p*(t, x) = H/T + N(t) (upper(x) - upper(x0))."""
    params = config.params
    g = params.gamma
    x0 = report.boundary["x0"]
    H = params.reservation.H
    nt = params.time_grid.size
    _, upper, _ = component_shapes(g)
    N = N_gamma_profile(params, x0, 0.0)
    L = L_gamma_profile(params, N)
    segments, c_top = selected_segments(params, upper, x0, H, N, L, np.zeros(nt), config.simplified_tariff)
    # the served types [x0, 1] consume between L upper(x0) and L upper(1)
    band = [L * upper(x0), L * upper(1.0)]
    tariff = Tariff(
        gamma=g,
        time_grid=params.time_grid,
        segments=segments,
        simplified=config.simplified_tariff,
        selected_range=[np.column_stack(band if g > 0 else band[::-1])],
        breakpoints={"c_top": c_top},
        meta={"x0": x0, "N": N, "L": L},
    )
    level = H / params.horizon
    Nt = N[:, None]

    def values_fn(x):
        return upper.values(Nt, x, x0, level)

    def slopes_fn(x):
        # the residential slope is infinite at x = 1
        with np.errstate(divide="ignore"):
            return upper.slope(Nt, x)

    branch = "industrial" if g > 0 else "residential"
    p_star = IndirectUtility.from_callables(
        params.time_grid, values_fn, slopes_fn, meta={"x0": x0, "branch": branch}
    )
    return tariff, p_star


def _build_general(config, report):
    """Sampled emission for non-canonical primitives or tabulated costs."""
    params = config.params
    g = params.gamma
    nt = params.time_grid.size
    # the binding reservation level, spread evenly over time: int s dt = H
    s = np.full(nt, params.reservation.H / params.horizon)
    x0, ell = report.boundary["x0"], report.ell
    # residential slopes are singular at x=1; stop the sample grid just short
    x_top = 1.0 if g > 0 else 1.0 - 1e-9
    xs = np.linspace(0.0, x_top, 2001)
    if x0 not in xs:
        xs = np.sort(np.append(xs, x0))
    if x0 >= 1.0 - 1e-9 or ell <= 0.0:
        flat = np.repeat(s[:, None], xs.size, axis=1)
        p_star = IndirectUtility.from_samples(params.time_grid, xs, flat, meta={"x0": x0, "branch": "general"})
        seg = TariffSegment(
            c_lo=np.zeros(nt), c_hi=np.full(nt, np.inf),
            p1=np.zeros(nt), p2=np.zeros(nt), p3=-s, label="selected",
        )
        tariff = Tariff(gamma=g, time_grid=params.time_grid, segments=[seg],
                        simplified=True, meta={"x0": x0, "route": "general"})
        return tariff, p_star
    Kc = eval_marginal_cost(capacity_A(ell, params), params)
    slopes = optimal_slopes(params.phi[:, None], upper_bracket(xs, params), params.f.prime(xs),
                            Kc[:, None], params.g.prime(xs), g)
    # integrate from x0 so the binding constraint lands exactly on s(t)
    i0 = int(np.searchsorted(xs, x0))
    prim = cumtrapz(slopes, xs)
    values = s[:, None] + prim - prim[:, i0][:, None]
    p_star = IndirectUtility.from_samples(params.time_grid, xs, values, meta={"x0": x0, "branch": "general"})
    return sampled_tariff(config, p_star.sample(), {"x0": x0, "route": "general"}), p_star


def sampled_tariff(config, samples, meta):
    """Fully sampled tariff: at every consumption, the exact u-conjugate of
    the sampled indirect utility ``samples``."""
    params = config.params
    nt = params.time_grid.size
    seg = ConjugateSegment(c_lo=np.zeros(nt), c_hi=np.full(nt, np.inf), phi=params.phi,
                           gx=params.g(samples.x_grid), values=samples.values, label="sampled")
    return Tariff(gamma=params.gamma, time_grid=params.time_grid, segments=[seg], meta=meta)
