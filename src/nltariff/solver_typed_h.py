"""Solver for strictly concave type-dependent reservation utilities.

Participation splits into at most a low-type and a high-type component. The
boundary pair is found by an exhaustive feasibility-filtered grid scan with
local zoom refinement, after which the indirect utility has explicit lower
and upper pieces joined by a bridge over the excluded middle interval. The
objective, the scales and the polynomial segments of the two pieces are the
closed forms of ``closed_form``, which also serve the constant reservation
as their one-component case. The bridge is the time-uniform chord of the
reservation over the middle, one row per unit time. Its checks (endpoint
levels, strictly below H inside, nondecreasing, convexly glued to the
pieces) are validated numerically, and reported whether or not they pass.
A valid bridge prices the band between the components by the planes of
its two end types; otherwise the tariff is sampled.
"""
from dataclasses import dataclass, field

import numpy as np

from .agent import IndirectUtility
from .closed_form import (L_gamma_profile, N_gamma_profile, component_shapes, ell_ab, objective_ab,
                          polynomial_segment, selected_segments, theta_term, time_weight)
from .errors import AssumptionViolation, InfeasibleSet, InvalidParams
from .model import Table, eval_marginal_cost
from .numerics import trapezoid
from .solver_const_h import capacity_A, lower_bracket, optimal_slopes, sampled_tariff, upper_bracket
from .tariff import Tariff, TariffSegment
# perfbench/tracing.py looks up _utility_surface in this module by name
from .uconvex import _utility_surface  # noqa: F401

GRID_SIZE = 256
ZOOM_ROUNDS = 7
MESH_ROWS = 128
DEGENERATE_TOL = 1e-12


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

def validate_assumptions(params):
    """Check the elasticity condition, monotone screening weights, and strict
    concavity of H. Raises AssumptionViolation naming the failing x-range.

    The monotonicity that the theory needs is of v_i(x)/gamma (that is what
    makes the optimal indirect utility convex on each component), which for
    the industrial branch coincides with v_i nondecreasing.
    """
    if params.reservation.kind != "concave":
        raise InvalidParams("reservation", "typed solver needs a concave reservation utility")
    gamma = params.gamma
    if isinstance(params.reservation.h, Table):
        # tabulated H: probe at its own nodes, where interpolation is exact
        xs = np.clip(params.reservation.h.x, 1e-6, 1.0 - 1e-9)
        xs = np.unique(xs)
    else:
        xs = np.linspace(1e-6, 1.0 - 1e-9, 513)
    g = params.g(xs)
    gp = params.g.prime(xs)
    H = params.reservation(xs)
    Hp = params.reservation.prime(xs)

    # elasticity condition g/g' <= H/H'
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = g / gp
        rhs = np.where(Hp > 0, H / Hp, np.inf * np.sign(H))
    bad = lhs > rhs + 1e-10 * np.maximum(1.0, np.abs(rhs))
    if np.any(bad):
        i = np.flatnonzero(bad)
        raise AssumptionViolation("elasticity (hg)", (xs[i[0]], xs[i[-1]]),
                                  "g/g' must not exceed H/H'")

    # screening weights: v_i / gamma is the optimal slope at phi = K_c = 1
    f = params.f.prime(xs)
    flags = {}
    for name, bracket in (("v1", lower_bracket), ("v2", upper_bracket)):
        with np.errstate(divide="ignore"):
            vv = optimal_slopes(1.0, bracket(xs, params), f, 1.0, gp, gamma)
        finite = np.isfinite(vv)
        dv = np.diff(vv[finite])
        scale = np.maximum(1.0, np.max(np.abs(vv[finite]))) if np.any(finite) else 1.0
        ok = bool(np.all(dv >= -1e-9 * scale))
        flags[f"{name}_monotone"] = ok
        if not ok:
            j = np.flatnonzero(dv < -1e-9 * scale)
            xf = xs[finite]
            raise AssumptionViolation(f"{name} monotonicity", (xf[j[0]], xf[j[-1] + 1]))

    dHp = np.diff(Hp)
    if np.any(dHp >= 0.0):
        j = np.flatnonzero(dHp >= 0.0)
        raise AssumptionViolation("strict concavity of H", (xs[j[0]], xs[j[-1] + 1]))
    flags["hg"] = True
    flags["H_strictly_concave"] = True
    return flags


# ---------------------------------------------------------------------------
# boundary certificates
# ---------------------------------------------------------------------------

def constraint_check_A2prime(a0, b0, params):
    """Boundary slope certificates and membership in the feasible pair set.

    Xi is the aggregate marginal indirect utility entering the high component
    at a0 and must dominate H'(a0); Psi is the one leaving the low component
    at b0 and must not exceed H'(b0). Degenerate corners (a0 = 1, b0 = 0) have
    no binding boundary, so their constraint is waived.

    With K = k c^n / n the slope at a boundary type is time_weight(t) ell^(-e)
    times its value at phi = K_c = 1, e = gamma (n-1)/(n-gamma), so each
    certificate is W ell^(-e) (type factor), W the trapezoid of time_weight.
    """
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    scalar = a0.ndim == 0
    a0, b0 = np.atleast_1d(a0), np.atleast_1d(b0)
    g, n = params.gamma, params.n
    W = params.time_integral(time_weight(params))
    # ell = 0 at the corner (1, 0) gives inf or nan, as the per-time formula does
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = W * ell_ab(a0, b0, params) ** (-g * (n - 1.0) / (n - g))
        Xi = scale * optimal_slopes(1.0, upper_bracket(a0, params), params.f.prime(a0), 1.0, params.g.prime(a0), g)
        Psi = scale * optimal_slopes(1.0, lower_bracket(b0, params), params.f.prime(b0), 1.0, params.g.prime(b0), g)

    Hpa = params.reservation.prime(a0)
    Hpb = params.reservation.prime(b0)
    a_degenerate = a0 >= 1.0 - DEGENERATE_TOL
    b_degenerate = b0 <= DEGENERATE_TOL
    ok_a = a_degenerate | (Xi >= Hpa - 1e-8)
    ok_b = b_degenerate | (Psi <= Hpb + 1e-8)
    feasible = ok_a & ok_b
    if scalar:
        return {"Xi": float(Xi[0]), "Psi": float(Psi[0]), "feasible": bool(feasible[0])}
    return {"Xi": Xi, "Psi": Psi, "feasible": feasible}


# ---------------------------------------------------------------------------
# boundary-pair search
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TypedHSolution:
    a0: float
    b0: float
    objective: float
    Xi: float
    Psi: float
    theta: float
    feasible: bool
    assumption_flags: dict
    N_gamma: np.ndarray
    L_gamma: np.ndarray
    levels: tuple                    # (H(a0), H(b0))
    bridge: "BridgeReport"
    warnings: list = field(default_factory=list)


def _evaluate_mesh(a_lin, b_lin, params):
    """The objective on the grid a_lin x b_lin, -inf where b0 > a0 or the
    pair is infeasible. The rows go MESH_ROWS at a time, and a block scores
    only the columns with b0 <= max(a0 in the block), picked by a mask, so
    the grids need not be sorted. The certificates broadcast the block's
    column of a0 against that row of b0, so each per-type factor runs once
    per grid value and block and only ell(a0, b0) and its certificate power
    once per cell; the objective runs on the feasible pairs only."""
    obj = np.full((a_lin.size, b_lin.size), -np.inf)
    for r in range(0, a_lin.size, MESH_ROWS):
        a_blk = a_lin[r:r + MESH_ROWS]
        cols = np.flatnonzero(b_lin <= a_blk.max() + 1e-15)
        A, B = a_blk[:, None], b_lin[cols]
        feasible = constraint_check_A2prime(A, B, params)["feasible"] & (B <= A + 1e-15)
        i, j = np.nonzero(feasible)
        obj[r + i, cols[j]] = objective_ab(a_blk[i], B[j], params)
    return obj


def _best_with_ties(a_lin, b_lin, obj, tol=1e-12):
    """(a0, b0, best) of the grid objective ``obj``: the pair within tol of
    the best, preferring a degenerate corner (a0 = 1 or b0 = 0), then
    smaller a0, then larger b0: a pair a hair inside a tied corner would
    serve a spurious sliver of types."""
    best = np.max(obj)
    i, j = np.nonzero(obj >= best - tol)
    a, b = a_lin[i], b_lin[j]
    corner = (a == 1.0) | (b == 0.0)
    if np.any(corner):
        a, b = a[corner], b[corner]
    k = np.lexsort((-b, a))[0]
    return float(a[k]), float(b[k]), best


def solve_a0_b0_star(config):
    """Search the feasible boundary set for the optimal participation pair.

    Exhaustive scan of the 256 x 256 grid, scored by ``_evaluate_mesh`` in
    row blocks on {b0 <= a0} filtered by the slope constraints, then seven
    33 x 33 zooms. The solution records the objective at the returned pair,
    the feasibility certificates, the reservation levels at the pair, the
    bridge over the excluded middle and whether the convex-glue condition
    b0* <= a0* - 1/2 holds (when it fails the relaxed solution is returned
    with a non-u-convexity warning).
    """
    params = config.params
    # the search and the emission use the closed forms of this setting only
    if not params.is_power_cost:
        raise InvalidParams("cost_table", "a concave reservation needs the power cost (give n, not cost_table)")
    if isinstance(params.g, Table):
        raise InvalidParams("g", "a concave reservation needs the canonical taste map")
    if isinstance(params.f, Table):
        raise InvalidParams("f", "a concave reservation needs uniform types")
    if config.force_general_route:
        raise InvalidParams("solver.force_general_route", "a concave reservation has no general route")
    flags = validate_assumptions(params)

    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    obj = _evaluate_mesh(grid, grid, params)
    if not np.any(np.isfinite(obj)):
        raise InfeasibleSet("no feasible boundary pair on the scan grid")
    a_star, b_star, best = _best_with_ties(grid, grid, obj)

    span = 2.0 / (GRID_SIZE - 1)
    for _ in range(ZOOM_ROUNDS):
        a_z = np.linspace(max(a_star - span, 0.0), min(a_star + span, 1.0), 33)
        b_z = np.linspace(max(b_star - span, 0.0), min(b_star + span, 1.0), 33)
        obj_z = _evaluate_mesh(a_z, b_z, params)
        if np.any(np.isfinite(obj_z)):
            a_new, b_new, best_z = _best_with_ties(a_z, b_z, obj_z)
            if best_z >= best - 1e-15:
                a_star, b_star, best = a_new, b_new, max(best, best_z)
        span /= 8.0

    chk = constraint_check_A2prime(a_star, b_star, params)
    theta = float(theta_term(a_star, b_star, params))
    N = N_gamma_profile(params, a_star, b_star)
    levels = _levels(params.reservation, a_star, b_star)
    sol = TypedHSolution(
        a0=a_star,
        b0=b_star,
        objective=float(objective_ab(a_star, b_star, params)),
        Xi=chk["Xi"],
        Psi=chk["Psi"],
        theta=theta,
        feasible=bool(chk["feasible"]),
        assumption_flags=dict(flags),
        N_gamma=N,
        L_gamma=L_gamma_profile(params, N),
        levels=levels,
        bridge=build_bridge(params, a_star, b_star, N, levels),
    )
    glue_ok = b_star <= a_star - 0.5 + 1e-9
    sol.assumption_flags["b0_le_a0_minus_half"] = bool(glue_ok)
    if not glue_ok:
        sol.warnings.append(
            "b0* > a0* - 1/2: no convex C1 glue exists, the emitted indirect utility is not u-convex "
            "(relaxed solution reported)"
        )
    return sol


def _levels(H, a0, b0):
    """(H(a0), H(b0)) as Python floats; an unbounded-below H(b0) at the
    corner b0 = 0 is taken just inside it."""
    Ha = float(H(np.asarray([a0]))[0])
    Hb = float(H(np.asarray([b0]))[0])
    if not np.isfinite(Hb):
        Hb = float(H(np.asarray([1e-12]))[0])
    return Ha, Hb


# ---------------------------------------------------------------------------
# bridge construction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BridgeReport:
    name: str
    x_knots: np.ndarray              # shape (m,)
    values: np.ndarray               # shape (m,), per unit time at every time node
    valid: bool
    checks: dict


def build_bridge(params, a0, b0, N, levels):
    """The bridge over the excluded middle, given the scales N and the
    reservation levels (H(a0), H(b0)): the time-uniform chord of H between
    the boundaries, dipped slightly at a degenerate end so the excluded side
    stays strictly below its reservation. It is validated and returned
    whether or not its checks pass.
    """
    if b0 >= a0:
        return BridgeReport(name="empty", x_knots=np.array([b0]), values=np.zeros(1),
                            valid=True, checks={"empty": True})
    lower, upper, _ = component_shapes(params.gamma)
    Ha, Hb = levels
    # endpoint targets: exact at live boundaries, dipped at degenerate ones
    dip = 1e-6 * (abs(Ha - Hb) + 1.0)
    left = Hb if b0 > 0 else Hb - dip
    right = Ha if a0 < 1.0 else Ha - dip
    xk = np.linspace(b0, a0, 33)
    values = (left + (right - left) * (xk - b0) / (a0 - b0)) / params.horizon
    # slopes of the closed-form pieces at their live boundaries
    boundary_slopes = (lower.slope(N, b0) if b0 > 0 else None, upper.slope(N, a0) if a0 < 1.0 else None)
    checks = _validate_bridge(params, xk, values, a0, b0, levels, boundary_slopes)
    return BridgeReport(name="chord", x_knots=xk, values=values, valid=all(checks.values()), checks=checks)


def _validate_bridge(params, xk, vals, a0, b0, levels, boundary_slopes):
    """Endpoint integrals, strict interior inferiority, monotonicity, and the
    per-time convexity of the glued surface, for the bridge row ``vals`` on
    the knots ``xk``, given the reservation levels (H(a0), H(b0)) and the
    per-time slopes (at b0, at a0) of the live pieces."""
    # the row holds at every time node
    integ = trapezoid(np.broadcast_to(vals[:, None], (vals.size, params.time_grid.size)), params.time_grid)
    checks = {}
    Ha, Hb = levels
    checks["left_endpoint"] = (abs(integ[0] - Hb) <= 1e-9 * max(1.0, abs(Hb))) if b0 > 0 else (integ[0] < Hb)
    checks["right_endpoint"] = (abs(integ[-1] - Ha) <= 1e-9 * max(1.0, abs(Ha))) if a0 < 1.0 else (integ[-1] < Ha)
    interior = (xk > b0 + 1e-12) & (xk < a0 - 1e-12)
    checks["interior_inferior"] = bool(np.all(integ[interior] < params.reservation(xk[interior])))
    slopes = np.diff(vals) / np.diff(xk)
    checks["monotone"] = bool(np.all(slopes >= -1e-12))
    checks["glued_convexity"] = bool(
        np.all(np.diff(slopes) >= -1e-9 * np.maximum(1.0, np.abs(slopes[:-1])))
        and (b0 <= 0 or np.all(slopes[0] >= boundary_slopes[0] - 1e-9))
        and (a0 >= 1.0 or np.all(slopes[-1] <= boundary_slopes[1] + 1e-9)))
    return checks


# ---------------------------------------------------------------------------
# tariff emission
# ---------------------------------------------------------------------------

def build_tariff_typed_h(config, solution):
    """Emit the piecewise tariff and the glued indirect utility.

    The coefficient profiles are the explicit ones of the canonical
    power/uniform setting, which ``solve_a0_b0_star`` requires. When the
    selected component is empty (a0 = 1 on the industrial branch, b0 = 0 on
    the residential one) or the bridge is invalid, the tariff is fully sampled.
    """
    params = config.params
    g = params.gamma
    a0, b0 = solution.a0, solution.b0
    N, L = solution.N_gamma, solution.L_gamma
    nt = params.time_grid.size
    bridge = solution.bridge
    p_star = _glued_indirect_utility(params, a0, b0, N, solution.levels, bridge)

    # (boundary, H at it, shape, live) of each component; the one that is not
    # the bottom component is the selected one
    lower, upper, bottom = component_shapes(g)
    Ha, Hb = solution.levels
    pieces = {"lower": (b0, Hb, lower, b0 > 0.0), "upper": (a0, Ha, upper, a0 < 1.0)}
    x_bot, H_bot, shape_bot, bottom_live = pieces[bottom]
    x_sel, H_sel, shape_sel, selected_live = pieces["upper" if bottom == "lower" else "lower"]
    if not (selected_live and bridge.valid):
        meta = {"a0": a0, "b0": b0, "bridge": bridge.name, "route": "sampled"}
        return sampled_tariff(config, p_star.sample(np.linspace(0.0, 1.0, 2001)), meta), p_star

    c_bot = L * shape_bot(x_bot) if bottom_live else np.zeros(nt)
    c_sel = L * shape_sel(x_sel)
    segs = []
    selected_range = []
    if bottom_live:
        segs.append(polynomial_segment(params, shape_bot, x_bot, H_bot, N, L, np.zeros(nt), c_bot,
                                       f"{bottom}_selected"))
        selected_range.append(np.column_stack([np.zeros(nt), c_bot]))
    labels = ("bridge_b0", "bridge_a0") if bottom == "lower" else ("bridge_a0", "bridge_b0")
    segs.extend(_bridge_planes(params, p_star, (x_bot, x_sel), c_bot, c_sel, labels))
    top_segs, c_top = selected_segments(params, shape_sel, x_sel, H_sel, N, L, c_sel, config.simplified_tariff)
    segs.extend(top_segs)
    selected_range.append(np.column_stack([c_sel, c_top]))

    tariff = Tariff(
        gamma=g,
        time_grid=params.time_grid,
        segments=segs,
        simplified=config.simplified_tariff,
        selected_range=selected_range,
        breakpoints={f"c_{bottom}_hi": c_bot, "c_bridge_hi": c_sel, "c_top": c_top},
        meta={"a0": a0, "b0": b0, "N": N, "L": L, "bridge": bridge.name},
    )
    return tariff, p_star


def _bridge_planes(params, p_star, ends, c_bot, c_sel, labels):
    """The u-conjugate of p* over the never-selected band [c_bot, c_sel]. On
    the chord p* is linear in x, so the conjugate is the larger of the planes
    phi g(x) u(c) - p*_t(x), affine in u(c) = c^gamma / gamma, of the chord's
    end types ``ends`` (bottom, selected). They cross where phi u(c) is the
    chord's slope in g, at c_sw; below it the bottom type's plane is larger.
    An empty bridge (equal ends) is one type: an infinite slope, c_sw = c_sel."""
    gamma, phi = params.gamma, params.phi
    g_end, p_end = params.g(np.array(ends)), p_star.values(np.array(ends))
    slope = (p_end[:, 1] - p_end[:, 0]) / (g_end[1] - g_end[0]) if ends[0] != ends[1] else np.inf
    with np.errstate(divide="ignore"):  # a chord flat to rounding: c_sw at 0 (gamma > 0) or past c_sel
        c_sw = np.clip(np.maximum(gamma * slope / phi, 0.0) ** (1.0 / gamma), c_bot, c_sel)
    # + 0.0: a zero taste gives +0.0 where phi 0 / gamma would give -0.0 for gamma < 0
    return [TariffSegment(c_lo=lo, c_hi=hi, p1=phi * g_end[k] / gamma + 0.0, p2=np.zeros(phi.size),
                          p3=-p_end[:, k], label=labels[k])
            for k, (lo, hi) in enumerate(((c_bot, c_sw), (c_sw, c_sel)))]


def _glued_indirect_utility(params, a0, b0, N, levels, bridge):
    """Closed-form lower/upper pieces with the bridge row interpolated
    between, the same at every time node, given the reservation levels
    (H(a0), H(b0))."""
    lower, upper, _ = component_shapes(params.gamma)
    T = params.horizon
    nt = params.time_grid.size
    Ha, Hb = levels
    bx, bv = bridge.x_knots, bridge.values
    Nt = N[:, None]

    def values_fn(x):
        x = np.asarray(x, dtype=float)
        out = np.empty((nt, x.size))
        low = x < b0
        # an empty bridge (a0 == b0) holds no type: the boundary type takes
        # the upper component's value, its reservation level
        up = (x > a0) | ((x == a0) & (b0 >= a0))
        mid = ~(low | up)
        if np.any(low):
            out[:, low] = lower.values(Nt, x[low], b0, Hb / T)
        if np.any(mid):
            out[:, mid] = np.interp(x[mid], bx, bv)
        if np.any(up):
            out[:, up] = upper.values(Nt, x[up], a0, Ha / T)
        return out

    def slopes_fn(x):
        # boundary types belong to their live component: the consumption of
        # the binding type comes from the component formula, not the bridge
        x = np.asarray(x, dtype=float)
        out = np.zeros((nt, x.size))
        low = (x <= b0) if b0 > 0 else np.zeros(x.shape, dtype=bool)
        up = (x >= a0) if a0 < 1.0 else np.zeros(x.shape, dtype=bool)
        mid = ~(low | up)
        if np.any(low):
            out[:, low] = lower.slope(Nt, x[low])
        if np.any(mid):
            bslopes = np.diff(bv) / np.diff(bx)
            j = np.clip(np.searchsorted(bx, x[mid], side="right") - 1, 0, bslopes.size - 1)
            out[:, mid] = bslopes[j]
        if np.any(up):
            # the residential slope is infinite at x = 1
            with np.errstate(divide="ignore"):
                out[:, up] = upper.slope(Nt, x[up])
        return out

    return IndirectUtility.from_callables(
        params.time_grid, values_fn, slopes_fn, meta={"a0": a0, "b0": b0, "branch": "typed"},
    )


def mu_zero_residual(solution, p_star, params):
    """Relative mismatch between the built slopes and the stationarity formula
    with zero multipliers, on interior nodes of each live component.

    The built surface is differentiated by central finite differences, so the
    check is independent of the closed-form slope callables. A NaN anywhere
    makes the residual NaN.
    """
    a0, b0 = solution.a0, solution.b0
    h = 1e-7
    interior_margin, nodes = 0.05, 200
    residuals = [0.0]
    segments = []
    if b0 > interior_margin:
        xs = np.linspace(b0 * interior_margin, b0 * (1.0 - interior_margin), nodes)
        segments.append((lower_bracket, xs))
    # a component narrower than its stencil has no interior node whose
    # difference stays inside [0, 1]
    if 1.0 - a0 >= h / interior_margin:
        lo = a0 + (1.0 - a0) * interior_margin
        hi = 1.0 - (1.0 - a0) * interior_margin
        segments.append((upper_bracket, np.linspace(lo, hi, nodes)))
    Kc = eval_marginal_cost(capacity_A(ell_ab(a0, b0, params), params), params)[:, None]
    for bracket, xs in segments:
        fd = (p_star.values(xs + h) - p_star.values(xs - h)) / (2.0 * h)
        formula = optimal_slopes(params.phi[:, None], bracket(xs, params), params.f.prime(xs), Kc,
                                 params.g.prime(xs), params.gamma)
        denom = np.maximum(np.abs(formula), 1e-12)
        residuals.append(np.max(np.abs(fd - formula) / denom))
    return float(np.max(residuals))
