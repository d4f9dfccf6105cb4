"""Solver for the constant-reservation problem.

Two routes. The canonical power/uniform setting admits explicit formulas:
a scalar root equation locates the participation threshold on the industrial
branch and a closed form (with a positive-part clamp) on the residential
branch, after which the optimal tariff is polynomial in consumption. The
general route maximizes the reduced one-dimensional objective by quadrature
plus golden-section refinement and emits a sampled tariff.
"""
from dataclasses import dataclass, field

import numpy as np

from .agent import IndirectUtility
from .errors import InvalidParams, InvalidReservation
from .model import eval_cost, eval_marginal_cost, g_K_inverse
from .numerics import bisect, cumtrapz, grid_then_golden_max, trapezoid
from .tariff import TabulatedSegment, Tariff, TariffSegment
from .uconvex import u_transform_indirect_to_price

CHI_BRACKET_EPS = 1e-12
ALPHA_GRID = 1024
LOCAL_MAX_TOL = 1e-6


@dataclass(eq=False)
class SolveReport:
    """Optimizer output for one scenario."""

    boundary: dict
    principal_utility: float
    foc_residual: float
    uniqueness: bool
    route: str
    local_maxima: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def lower_bracket(x, params):
    """g f + g' F, the screening weight on the low-type component."""
    return params.g(x) * params.f.pdf(x) + params.g.prime(x) * params.f.cdf(x)


def upper_bracket(x, params):
    """g f + g' F - g', the screening weight on the served interval."""
    return params.g(x) * params.f.pdf(x) + params.g.prime(x) * (params.f.cdf(x) - 1.0)


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
        return upper_bracket(x, params) / params.f.pdf(x) ** params.gamma


def ell_const(x0, params, nodes=4001):
    """ell(x0): integral of ([g f + g' F - g']^+ / f^gamma)^(1/(1-gamma)) over [x0, 1].

    Canonical power/uniform closed forms:
      gamma in (0,1): (1-gamma)/(2(2-gamma)) * (1 - ((2 x0 - 1)^+)^((2-gamma)/(1-gamma)))
      gamma < 0:      2^(1/(1-gamma)) (1-gamma)/(2-gamma) * (1 - x0)^((2-gamma)/(1-gamma))
    """
    gamma = params.gamma
    if params.is_canonical_uniform_power:
        if gamma > 0:
            q = (2.0 - gamma) / (1.0 - gamma)
            return (1.0 - gamma) / (2.0 * (2.0 - gamma)) * (1.0 - max(2.0 * x0 - 1.0, 0.0) ** q)
        q = (2.0 - gamma) / (1.0 - gamma)
        return 2.0 ** (1.0 / (1.0 - gamma)) * (1.0 - gamma) / (2.0 - gamma) * (1.0 - x0) ** q
    if x0 >= 1.0:
        return 0.0
    xs = np.linspace(x0, 1.0, nodes)
    integrand = (np.maximum(beta_fn(xs, params), 0.0)) ** (1.0 / (1.0 - gamma))
    return float(trapezoid(integrand, xs))


def capacity_A(t, x0, params, ell=None):
    """Aggregate consumption at the optimum for threshold x0.

    Power cost: A = (phi/k)^(1/(n-gamma)) ell^((1-gamma)/(n-gamma)); general
    cost goes through the increasing-map inverse.
    """
    gamma = params.gamma
    if ell is None:
        ell = ell_const(x0, params)
    if params.is_power_cost:
        phi, k = params.phi_at(t), params.k_at(t)
        return float((phi / k) ** (1.0 / (params.n - gamma)) * ell ** ((1.0 - gamma) / (params.n - gamma)))
    y = params.phi_at(t) ** (1.0 / (1.0 - gamma)) * ell
    return g_K_inverse(t, y, gamma, params)


def time_weight(params):
    """((phi^n / k^gamma))^(1/(n-gamma)) on the time grid (power cost only)."""
    return (params.phi ** params.n / params.k ** params.gamma) ** (1.0 / (params.n - params.gamma))


def B_gamma(params):
    """(1/gamma - 1/n) * int (phi^n / k^gamma)^(1/(n-gamma)) dt; positive on the
    industrial branch, negative on the residential one."""
    g, n = params.gamma, params.n
    return (1.0 / g - 1.0 / n) * params.time_integral(time_weight(params))


def A_gamma(params):
    g, n = params.gamma, params.n
    return B_gamma(params) * ((1.0 - g) / (2.0 * (2.0 - g))) ** (n * (1.0 - g) / (n - g))


def phi_objective(x0, params):
    """Reduced objective Phi(x0) = B ell^(n(1-gamma)/(n-gamma)) + (x0 - 1) H
    (canonical power/uniform setting)."""
    g, n = params.gamma, params.n
    H = params.reservation.H
    return B_gamma(params) * ell_const(x0, params) ** (n * (1.0 - g) / (n - g)) + (x0 - 1.0) * H


def chi(y0, params):
    """Root function for the industrial threshold: chi(y0*) = 0.

    chi(y0) = H - 2 n A_gamma (2-gamma)/(n-gamma) y0 (1 - y0^(2-gamma))^(-gamma(n-1)/(n-gamma)).
    Strictly decreasing from H > 0 to -inf, so the root is unique.
    """
    g, n = params.gamma, params.n
    H = params.reservation.H
    Ag = A_gamma(params)
    return H - 2.0 * n * Ag * (2.0 - g) / (n - g) * y0 * (1.0 - y0 ** (2.0 - g)) ** (-g * (n - 1.0) / (n - g))


def alpha_objective(x0, params, ell_nodes=2001):
    """General reduced objective: time integral of (1/gamma) A dK/dc(A) - K(A)
    plus the boundary term (F(x0) - 1) H."""
    ell = ell_const(x0, params, nodes=ell_nodes)
    t = params.time_grid
    A = np.array([capacity_A(ti, x0, params, ell=ell) for ti in t])
    vals = A * eval_marginal_cost(t, A, params) / params.gamma - eval_cost(t, A, params)
    H = params.reservation.H
    return params.time_integral(vals) + (float(params.f.cdf(x0)) - 1.0) * H


def _uniqueness_conditions(params):
    """Sufficient conditions under which the threshold is the unique maximizer."""
    xs = np.linspace(1e-9, 1.0 - 1e-9, 513)
    beta = beta_fn(xs, params)
    fvals = params.f.pdf(xs)
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

    if params.is_canonical_uniform_power and not config.force_general_route:
        if params.gamma > 0:
            return _solve_industrial(config, H)
        return _solve_residential(config, H)
    return _solve_general(config, H)


def _solve_industrial(config, H):
    params = config.params
    g = params.gamma
    if H < 0:
        raise InvalidReservation("H must be >= 0 when gamma in (0,1)")
    if H == 0.0:
        y0 = 0.0
        residual = 0.0
    else:
        f = lambda y: chi(y, params)
        y0 = bisect(f, CHI_BRACKET_EPS, 1.0 - CHI_BRACKET_EPS, xtol=1e-16)
        residual = abs(chi(y0, params))
    x0 = 0.5 * (y0 ** (1.0 - g) + 1.0)
    up = phi_objective(x0, params)
    return SolveReport(
        boundary={"x0": float(x0), "y0": float(y0)},
        principal_utility=float(up),
        foc_residual=float(residual),
        uniqueness=True,
        route="closed_form_industrial",
        diagnostics={"chi_at_root": float(chi(y0, params)) if H > 0 else 0.0},
    )


def _solve_residential(config, H):
    params = config.params
    g, n = params.gamma, params.n
    if H >= 0:
        raise InvalidReservation("H must be negative when gamma < 0")
    B = B_gamma(params)
    denom = n * (1.0 - g) + g
    raw = (
        (H / B * (n - g) / (n * (1.0 - g))) ** ((n - g) / denom)
        * ((2.0 - g) / (1.0 - g)) ** (-g * (n - 1.0) / denom)
        * 2.0 ** (-n / denom)
    )
    x0 = max(1.0 - raw, 0.0)
    clamped = x0 == 0.0
    if clamped:
        residual = 0.0
    else:
        h = 1e-6 * max(x0, 1.0 - x0)
        lo, hi = max(x0 - h, 0.0), min(x0 + h, 1.0)
        residual = abs((phi_objective(hi, params) - phi_objective(lo, params)) / (hi - lo))
    up = phi_objective(x0, params)
    report = SolveReport(
        boundary={"x0": float(x0)},
        principal_utility=float(up),
        foc_residual=float(residual),
        uniqueness=True,
        route="closed_form_residential",
        diagnostics={"clamped": clamped},
    )
    if clamped:
        report.warnings.append("corner solution x0*=0: every type is served")
    return report


def _solve_general(config, H):
    params = config.params
    obj = lambda x0: alpha_objective(x0, params)
    x0, v0, xs, vals = grid_then_golden_max(obj, 0.0, 1.0, ALPHA_GRID, xtol=1e-10)
    unique = _uniqueness_conditions(params)
    # competing local maxima: grid points beating the best within tolerance
    local = []
    if not unique:
        interior = (vals >= v0 - LOCAL_MAX_TOL)
        for j in np.flatnonzero(interior):
            if abs(xs[j] - x0) > 2.0 / ALPHA_GRID:
                local.append((float(xs[j]), float(vals[j])))
    h = 1e-5
    lo_r, hi_r = max(x0 - h, 0.0), min(x0 + h, 1.0)
    residual = abs((obj(hi_r) - obj(lo_r)) / (hi_r - lo_r)) if 0.0 < x0 < 1.0 else 0.0
    report = SolveReport(
        boundary={"x0": float(x0)},
        principal_utility=float(v0),
        foc_residual=float(residual),
        uniqueness=unique,
        route="general",
        local_maxima=local,
    )
    if not unique:
        report.warnings.append("uniqueness condition (monotone beta) not verified; grid maximizer returned")
    return report


# ---------------------------------------------------------------------------
# tariff construction
# ---------------------------------------------------------------------------

def _boundary_split(config, H):
    """Per-time allocation s(t) of the binding reservation level, int s dt = H."""
    params = config.params
    if config.boundary_split is None:
        return np.full(params.time_grid.size, H / params.horizon)
    return H * config.boundary_split


def M_profile(params, x0):
    """Nonlinear-part scale M(t) on the industrial branch."""
    g, n = params.gamma, params.n
    y0q = max(2.0 * x0 - 1.0, 0.0) ** ((2.0 - g) / (1.0 - g))
    e = g * (n - 1.0) / (n - g)
    return (
        (1.0 - g) / (2.0 * g)
        * (2.0 * (2.0 - g) / (1.0 - g)) ** e
        * time_weight(params)
        * (1.0 - y0q) ** (-e)
    )


def M_hat_profile(params, x0):
    """Linear-tariff scale on the residential branch (positive)."""
    g, n = params.gamma, params.n
    e = g * (n - 1.0) / (n - g)
    return (
        -(1.0 - g) / g
        * ((2.0 - g) / (1.0 - g)) ** e
        * (2.0 ** g * params.phi ** n / params.k ** g) ** (1.0 / (n - g))
        * (1.0 - x0) ** (-g * (2.0 - g) * (n - 1.0) / ((n - g) * (1.0 - g)))
    )


def build_tariff_const_h(config, report):
    """Emit the optimal tariff and its indirect utility.

    Canonical power/uniform scenarios produce the explicit polynomial
    segments; the general route samples the optimal indirect-utility surface
    and conjugates it numerically.
    """
    params = config.params
    H = params.reservation.H
    s = _boundary_split(config, H)
    if report.route == "closed_form_industrial":
        return _build_industrial(config, report, s)
    if report.route == "closed_form_residential":
        return _build_residential(config, report, s)
    return _build_general(config, report, s)


def _build_industrial(config, report, s):
    params = config.params
    g, n = params.gamma, params.n
    x0 = report.boundary["x0"]
    y0 = max(2.0 * x0 - 1.0, 0.0) ** (1.0 / (1.0 - g))
    M = M_profile(params, x0)
    phi = params.phi
    nt = params.time_grid.size

    c_hat = (2.0 * g * M / ((1.0 - g) * phi)) ** (1.0 / g)
    p2 = (phi / 2.0) * ((1.0 - g) * phi / (2.0 * g * M)) ** ((1.0 - g) / g)
    p3_sel = -s + M * y0
    selected = TariffSegment(
        c_lo=np.zeros(nt),
        c_hi=np.full(nt, np.inf) if config.simplified_tariff else c_hat,
        p1=phi / (2.0 * g),
        p2=p2,
        p3=p3_sel,
        label="selected",
    )
    segments = [selected]
    if not config.simplified_tariff:
        segments.append(TariffSegment(
            c_lo=c_hat,
            c_hi=np.full(nt, np.inf),
            p1=phi / g,
            p2=np.zeros(nt),
            p3=M * y0 - M - s,
            label="top",
        ))
    selected_range = [np.column_stack([c_hat * y0, c_hat])]
    tariff = Tariff(
        gamma=g,
        time_grid=params.time_grid,
        segments=segments,
        simplified=config.simplified_tariff,
        selected_range=selected_range,
        breakpoints={"c_hat": c_hat},
        meta={"x0": x0, "y0": y0, "M": M},
    )

    def values_fn(x):
        shape = np.maximum(2.0 * x - 1.0, 0.0) ** (1.0 / (1.0 - g))
        return s[:, None] + M[:, None] * (shape[None, :] - y0)

    def slopes_fn(x):
        shape = np.maximum(2.0 * x - 1.0, 0.0) ** (g / (1.0 - g))
        return M[:, None] * (2.0 / (1.0 - g)) * shape[None, :]

    p_star = IndirectUtility.from_callables(
        params.time_grid, values_fn, slopes_fn, kinks=(), meta={"x0": x0, "branch": "industrial"}
    )
    return tariff, p_star


def _build_residential(config, report, s):
    params = config.params
    g, n = params.gamma, params.n
    x0 = report.boundary["x0"]
    Mh = M_hat_profile(params, x0)
    phi = params.phi
    nt = params.time_grid.size
    e0 = (1.0 - x0) ** (1.0 / (1.0 - g))

    c_hat = (-g * Mh / (phi * (1.0 - g))) ** (1.0 / g)
    p2 = phi * (-(phi * (1.0 - g)) / (g * Mh)) ** ((1.0 - g) / g)
    p3_sel = -s - Mh * e0
    selected = TariffSegment(
        c_lo=np.zeros(nt),
        c_hi=np.full(nt, np.inf) if config.simplified_tariff else c_hat,
        p1=np.zeros(nt),
        p2=p2,
        p3=p3_sel,
        label="selected",
    )
    segments = [selected]
    if not config.simplified_tariff:
        segments.append(TariffSegment(
            c_lo=c_hat,
            c_hi=np.full(nt, np.inf),
            p1=phi / g,
            p2=np.zeros(nt),
            p3=p3_sel + Mh,
            label="top",
        ))
    selected_range = [np.column_stack([np.zeros(nt), c_hat * e0])]
    tariff = Tariff(
        gamma=g,
        time_grid=params.time_grid,
        segments=segments,
        simplified=config.simplified_tariff,
        selected_range=selected_range,
        breakpoints={"c_hat": c_hat},
        meta={"x0": x0, "M_hat": Mh},
    )

    def values_fn(x):
        shape = (1.0 - np.asarray(x)) ** (1.0 / (1.0 - g))
        return s[:, None] + Mh[:, None] * (e0 - shape[None, :])

    def slopes_fn(x):
        with np.errstate(divide="ignore"):
            shape = (1.0 - np.asarray(x)) ** (g / (1.0 - g))
        return Mh[:, None] / (1.0 - g) * shape[None, :]

    p_star = IndirectUtility.from_callables(
        params.time_grid, values_fn, slopes_fn, kinks=(), meta={"x0": x0, "branch": "residential"}
    )
    return tariff, p_star


def _build_general(config, report, s):
    """Sampled emission for non-canonical primitives or tabulated costs."""
    params = config.params
    g = params.gamma
    t = params.time_grid
    nt = t.size
    x0 = report.boundary["x0"]
    ell = ell_const(x0, params)
    # residential slopes are singular at x=1; stop the sample grid just short
    x_top = 1.0 if g > 0 else 1.0 - 1e-9
    xs = np.linspace(0.0, x_top, config.x_grid_size)
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
    A = np.array([capacity_A(ti, x0, params, ell=ell) for ti in t])
    Kc = eval_marginal_cost(t, A, params)
    slopes = optimal_slopes(params.phi[:, None], upper_bracket(xs, params), params.f.pdf(xs),
                            Kc[:, None], params.g.prime(xs), g)
    # integrate from x0 so the binding constraint lands exactly on s(t)
    i0 = int(np.searchsorted(xs, x0))
    prim = cumtrapz(slopes, xs)
    values = s[:, None] + prim - prim[:, i0][:, None]
    p_star = IndirectUtility.from_samples(params.time_grid, xs, values, meta={"x0": x0, "branch": "general"})
    price, _ = u_transform_indirect_to_price(
        p_star.sample(), params,
        c_grid=np.geomspace(config.c_min, config.c_max, config.c_grid_size) if g < 0
        else np.linspace(0.0, config.c_max, config.c_grid_size),
    )
    seg = TabulatedSegment(
        c_lo=np.full(nt, price.c_grid[0]),
        c_hi=np.full(nt, np.inf),
        c_knots=np.tile(price.c_grid, (nt, 1)),
        p_knots=price.values,
        label="sampled",
    )
    tariff = Tariff(
        gamma=g,
        time_grid=params.time_grid,
        segments=[seg],
        simplified=True,
        selected_range=None,
        meta={"x0": x0, "route": "general"},
    )
    return tariff, p_star
