"""Solver for strictly concave type-dependent reservation utilities.

Participation splits into at most a low-type and a high-type component. The
boundary pair is found by an exhaustive feasibility-filtered grid scan with
local zoom refinement, after which the indirect utility has explicit lower
and upper pieces joined by a bridge over the excluded middle interval. The
bridge is any continuous nondecreasing curve matching the reservation level
at the boundaries and staying strictly below it inside; candidates are
validated numerically rather than assumed.
"""
from dataclasses import dataclass, field

import numpy as np

from .agent import IndirectUtility
from .errors import AssumptionViolation, InfeasibleSet, InvalidParams
from .model import eval_cost, eval_marginal_cost
from .numerics import cumtrapz, trapezoid
from .solver_const_h import B_gamma, lower_bracket, optimal_slopes, time_weight, upper_bracket
from .tariff import TabulatedSegment, Tariff, TariffSegment
# perfbench/tracing.py looks up _utility_surface in this module by name
from .uconvex import _u_conjugate, _utility_surface, u_transform_indirect_to_price  # noqa: F401

GRID_SIZE = 256
ZOOM_ROUNDS = 7
FEAS_TOL = 1e-12
DEGENERATE_TOL = 1e-12


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

def validate_assumptions(params, probe_nodes=513):
    """Check the elasticity condition, monotone screening weights, and strict
    concavity of H. Raises AssumptionViolation naming the failing x-range.

    The monotonicity that the theory needs is of v_i(x)/gamma (that is what
    makes the optimal indirect utility convex on each component), which for
    the industrial branch coincides with v_i nondecreasing.
    """
    if params.reservation.kind != "concave":
        raise InvalidParams("reservation", "typed solver needs a concave reservation utility")
    gamma = params.gamma
    if getattr(params.reservation, "x", None) is not None:
        # tabulated H: probe at its own nodes, where interpolation is exact
        xs = np.clip(params.reservation.x, 1e-6, 1.0 - 1e-9)
        xs = np.unique(xs)
    else:
        xs = np.linspace(1e-6, 1.0 - 1e-9, probe_nodes)
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

    # screening weights
    e = gamma / (1.0 - gamma)
    f = params.f.pdf(xs)
    with np.errstate(divide="ignore"):
        v1 = gp * (np.maximum(lower_bracket(xs, params), 0.0) / f) ** e
        v2 = gp * (np.maximum(upper_bracket(xs, params), 0.0) / f) ** e
    flags = {}
    for name, v in (("v1", v1), ("v2", v2)):
        vv = v / gamma
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
# closed forms and quadrature pieces
# ---------------------------------------------------------------------------

def R_gamma(a0, b0, params):
    """Coverage polynomial: dimensionless, equals 2(2-gamma)/(1-gamma) ell
    under the canonical power/uniform setting."""
    g = params.gamma
    q = (2.0 - g) / (1.0 - g)
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    if g > 0:
        return 1.0 + (2.0 * b0) ** q - np.maximum(2.0 * a0 - 1.0, 0.0) ** q
    return 1.0 - np.maximum(1.0 - 2.0 * b0, 0.0) ** q + (2.0 - 2.0 * a0) ** q


class _EllTable:
    """Prefix integrals of the two screening integrands for O(1) ell lookups."""

    def __init__(self, params, nodes=8193):
        g = params.gamma
        hi = 1.0 if g > 0 else 1.0 - 1e-12
        xs = np.linspace(0.0, hi, nodes)
        e = 1.0 / (1.0 - g)
        fpow = params.f.pdf(xs) ** g
        low = (np.maximum(lower_bracket(xs, params), 0.0) / fpow) ** e
        up = (np.maximum(upper_bracket(xs, params), 0.0) / fpow) ** e
        self.xs = xs
        self.cum_low = cumtrapz(low, xs)
        self.cum_up = cumtrapz(up, xs)

    def ell(self, a0, b0):
        low = np.interp(b0, self.xs, self.cum_low)
        up = self.cum_up[-1] - np.interp(a0, self.xs, self.cum_up)
        return low + up


def ell_ab(a0, b0, params, table=None):
    """ell(a0, b0): low-component integral up to b0 plus high-component
    integral from a0; canonical power/uniform closed form when available."""
    if params.is_canonical_uniform_power:
        g = params.gamma
        return (1.0 - g) / (2.0 * (2.0 - g)) * R_gamma(a0, b0, params)
    if table is None:
        table = _EllTable(params)
    return table.ell(np.asarray(a0, dtype=float), np.asarray(b0, dtype=float))


def capacity_A_typed(t_index, ell, params):
    """Aggregate consumption for coverage ell, per time node (vectorized)."""
    g = params.gamma
    ell = np.asarray(ell, dtype=float)
    if params.is_power_cost:
        phi = params.phi[t_index]
        k = params.k[t_index]
        return (phi / k) ** (1.0 / (params.n - g)) * ell ** ((1.0 - g) / (params.n - g))
    # tabulated cost: invert g_K through a dense monotone table
    c, gk = params.cost_table.g_K_table(g)
    y = params.phi[t_index] ** (1.0 / (1.0 - g)) * ell
    return np.interp(y, gk, c)


def constraint_check_A2prime(a0, b0, params, ell_table=None):
    """Boundary slope certificates and membership in the feasible pair set.

    Xi is the aggregate marginal indirect utility entering the high component
    at a0 and must dominate H'(a0); Psi is the one leaving the low component
    at b0 and must not exceed H'(b0). Degenerate corners (a0 = 1, b0 = 0) have
    no binding boundary, so their constraint is waived.
    """
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    scalar = a0.ndim == 0
    a0, b0 = np.atleast_1d(a0), np.atleast_1d(b0)
    g = params.gamma
    ell = ell_ab(a0, b0, params, table=ell_table)
    nt = params.time_grid.size
    xi_t = np.empty((nt, a0.size))
    psi_t = np.empty((nt, a0.size))
    ba = upper_bracket(a0, params)
    bb = lower_bracket(b0, params)
    fa = params.f.pdf(a0)
    fb = params.f.pdf(b0)
    gpa = params.g.prime(a0)
    gpb = params.g.prime(b0)
    # one time row at a time: all rows at once would hold several
    # n_t x pairs temporaries
    for i in range(nt):
        A = capacity_A_typed(i, ell, params)
        Kc = eval_marginal_cost(params.time_grid[i], A, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi_t[i] = optimal_slopes(params.phi[i], ba, fa, Kc, gpa, g)
            psi_t[i] = optimal_slopes(params.phi[i], bb, fb, Kc, gpb, g)
    with np.errstate(invalid="ignore"):
        Xi = trapezoid(xi_t.T, params.time_grid)
        Psi = trapezoid(psi_t.T, params.time_grid)

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


def theta_term(a0, b0, params):
    """Boundary payoff theta = -F(b0) H(b0) + (F(a0) - 1) H(a0), with the
    degenerate ends contributing zero."""
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    Fa = params.f.cdf(a0)
    Fb = params.f.cdf(b0)
    with np.errstate(invalid="ignore", divide="ignore"):
        Ha = params.reservation(a0)
        Hb = params.reservation(b0)
        low = np.where(Fb > 0.0, -Fb * Hb, 0.0)
        up = np.where(Fa < 1.0, (Fa - 1.0) * Ha, 0.0)
    return low + up


def objective_ab(a0, b0, params, ell_table=None):
    """Reduced relaxed objective over boundary pairs (vectorized)."""
    g = params.gamma
    ell = np.asarray(ell_ab(a0, b0, params, table=ell_table), dtype=float)
    if params.is_power_cost:
        n = params.n
        core = B_gamma(params) * ell ** (n * (1.0 - g) / (n - g))
    else:
        t = params.time_grid.reshape((-1,) + (1,) * ell.ndim)
        A = np.array([capacity_A_typed(i, ell, params) for i in range(t.size)])
        vals = A * eval_marginal_cost(t, A, params) / g - eval_cost(t, A, params)
        core = trapezoid(np.moveaxis(vals, 0, -1), params.time_grid)
    return core + theta_term(a0, b0, params)


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
    N_gamma: np.ndarray | None = None
    L_gamma: np.ndarray | None = None
    bridge: object = None
    warnings: list = field(default_factory=list)
    route: str = "closed_form"


def _evaluate_mesh(a_flat, b_flat, params, ell_table):
    chk = constraint_check_A2prime(a_flat, b_flat, params, ell_table=ell_table)
    obj = objective_ab(a_flat, b_flat, params, ell_table=ell_table)
    obj = np.where(chk["feasible"], obj, -np.inf)
    return obj, chk


def _best_with_ties(a_flat, b_flat, obj, tol=1e-12):
    """Argmax with ties broken toward smaller a0, then larger b0."""
    best = np.max(obj)
    cand = np.flatnonzero(obj >= best - tol)
    order = np.lexsort((-b_flat[cand], a_flat[cand]))
    return cand[order[0]], best


def solve_a0_b0_star(config):
    """Search the feasible boundary set for the optimal participation pair.

    Exhaustive 256x256 scan over {b0 <= a0} filtered by the slope
    constraints, then local zoom refinement. The returned solution records
    the feasibility certificates and whether the convex-glue condition
    b0* <= a0* - 1/2 holds (when it fails the relaxed solution is returned
    with a non-u-convexity warning).
    """
    params = config.params
    flags = validate_assumptions(params)
    ell_table = None if params.is_canonical_uniform_power else _EllTable(params)

    a_lin = np.linspace(0.0, 1.0, GRID_SIZE)
    b_lin = np.linspace(0.0, 1.0, GRID_SIZE)
    A, B = np.meshgrid(a_lin, b_lin, indexing="ij")
    mask = B <= A + 1e-15
    a_flat, b_flat = A[mask], B[mask]
    obj, _ = _evaluate_mesh(a_flat, b_flat, params, ell_table)
    if not np.any(np.isfinite(obj)):
        corners = [(1.0, b) for b in (0.0, 0.25, 0.5)] + [(a, 0.0) for a in (0.5, 0.75, 1.0)]
        raise InfeasibleSet("no feasible boundary pair on the scan grid", corner_candidates=corners)
    idx, best = _best_with_ties(a_flat, b_flat, obj)
    a_star, b_star = float(a_flat[idx]), float(b_flat[idx])

    span = 2.0 / (GRID_SIZE - 1)
    for _ in range(ZOOM_ROUNDS):
        a_lo, a_hi = max(a_star - span, 0.0), min(a_star + span, 1.0)
        b_lo, b_hi = max(b_star - span, 0.0), min(b_star + span, 1.0)
        Az, Bz = np.meshgrid(np.linspace(a_lo, a_hi, 33), np.linspace(b_lo, b_hi, 33), indexing="ij")
        m = Bz <= Az + 1e-15
        af, bf = Az[m], Bz[m]
        obj_z, _ = _evaluate_mesh(af, bf, params, ell_table)
        if np.any(np.isfinite(obj_z)):
            idx, best_z = _best_with_ties(af, bf, obj_z)
            if best_z >= best - 1e-15:
                a_star, b_star, best = float(af[idx]), float(bf[idx]), max(best, best_z)
        span /= 8.0

    chk = constraint_check_A2prime(a_star, b_star, params, ell_table=ell_table)
    theta = float(theta_term(a_star, b_star, params))
    sol = TypedHSolution(
        a0=a_star,
        b0=b_star,
        objective=float(best),
        Xi=chk["Xi"],
        Psi=chk["Psi"],
        theta=theta,
        feasible=bool(chk["feasible"]),
        assumption_flags=dict(flags),
        route="closed_form" if params.is_canonical_uniform_power else "general",
    )
    glue_ok = b_star <= a_star - 0.5 + 1e-9
    sol.assumption_flags["b0_le_a0_minus_half"] = bool(glue_ok)
    if not glue_ok:
        sol.warnings.append(
            "b0* > a0* - 1/2: no convex C1 glue exists, the emitted indirect utility is not u-convex "
            "(relaxed solution reported)"
        )
    if params.is_canonical_uniform_power:
        sol.N_gamma = N_gamma_profile(params, a_star, b_star)
        sol.L_gamma = L_gamma_profile(params, sol.N_gamma)
    return sol


def N_gamma_profile(params, a0, b0):
    """Per-time scale of the x^(1/(1-gamma)) part of the indirect utility.

    Positive on the industrial branch, negative on the residential branch.
    """
    g, n = params.gamma, params.n
    e = g * (n - 1.0) / (n - g)
    R = float(R_gamma(a0, b0, params))
    return (
        2.0 ** (g / (1.0 - g)) * (1.0 - g) / g
        * (2.0 * (2.0 - g) / (1.0 - g)) ** e
        * time_weight(params)
        * R ** (-e)
    )


def L_gamma_profile(params, N):
    """Consumption scale L(t) = (gamma N / ((1-gamma) phi))^(1/gamma)."""
    g = params.gamma
    return (g * N / ((1.0 - g) * params.phi)) ** (1.0 / g)


# ---------------------------------------------------------------------------
# bridge construction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BridgeReport:
    name: str
    x_knots: np.ndarray              # shape (m,)
    values: np.ndarray               # shape (n_t, m)
    valid: bool
    checks: dict
    notes: list = field(default_factory=list)


def _piece_boundary_data(params, a0, b0, N):
    """Values and slopes of the closed-form pieces at the glue points."""
    g = params.gamma
    m = 1.0 / (1.0 - g)
    T = params.horizon
    H = params.reservation
    nt = params.time_grid.size
    out = {}
    if g > 0:
        slope_low = N * m * b0 ** (g * m) if b0 > 0 else np.zeros(nt)
        slope_up = N * m * max(a0 - 0.5, 0.0) ** (g * m) if a0 < 1.0 else np.full(nt, np.inf)
    else:
        slope_low = -N * m * (0.5 - min(b0, 0.5)) ** (m - 1.0) if b0 > 0 else np.zeros(nt)
        slope_up = -N * m * (1.0 - a0) ** (m - 1.0) if a0 < 1.0 else np.full(nt, np.inf)
    out["slope_low"] = np.asarray(slope_low, dtype=float)
    out["slope_up"] = np.asarray(slope_up, dtype=float)
    out["val_low"] = np.full(nt, float(H(np.asarray([b0]))[0]) / T) if b0 > 0 else None
    out["val_up"] = np.full(nt, float(H(np.asarray([a0]))[0]) / T) if a0 < 1.0 else None
    return out


def build_bridge(params, a0, b0, N=None, validate_convexity=True):
    """Construct and validate bridge candidates for the excluded middle.

    Candidates: the time-uniform chord of H between the boundaries (dipped
    slightly at a degenerate end so the excluded side stays strictly below
    its reservation), then a per-time two-slope bridge matching the boundary
    derivatives. The first candidate passing all checks is returned; if none
    passes, the best one is returned with its failure report.
    """
    if b0 >= a0:
        return BridgeReport(name="empty", x_knots=np.array([b0]), values=np.zeros((params.time_grid.size, 1)),
                            valid=True, checks={"empty": True})
    if N is None and params.is_canonical_uniform_power:
        N = N_gamma_profile(params, a0, b0)
    data = _piece_boundary_data(params, a0, b0, N) if N is not None else None
    H = params.reservation
    T = params.horizon
    nt = params.time_grid.size

    Hb = float(H(np.asarray([b0]))[0])
    if not np.isfinite(Hb):  # unbounded-below reservation at the corner
        Hb = float(H(np.asarray([1e-12]))[0])
    Ha = float(H(np.asarray([a0]))[0])
    candidates = []

    # endpoint targets: exact at live boundaries, dipped at degenerate ones
    dip = 1e-6 * (abs(Ha - Hb) + 1.0)
    left = Hb if b0 > 0 else Hb - dip
    right = Ha if a0 < 1.0 else Ha - dip

    xk = np.linspace(b0, a0, 33)
    chord_vals = left + (right - left) * (xk - b0) / (a0 - b0)
    candidates.append(BridgeReport(
        name="chord", x_knots=xk, values=np.tile(chord_vals / T, (nt, 1)),
        valid=False, checks={},
    ))

    if data is not None and b0 > 0 and a0 < 1.0:
        # two-slope candidate: leave b0 with the lower-piece slope, arrive at a0
        # with the upper-piece slope, meeting where the lines cross
        s1, s2 = data["slope_low"][:, None], data["slope_up"][:, None]
        if np.all(np.isfinite(s1) & np.isfinite(s2) & (s1 <= s2)):
            v1 = data["val_low"][:, None] + s1 * (xk - b0)
            v2 = data["val_up"][:, None] + s2 * (xk - a0)
            overshoot = (np.any(v2[:, 0] > data["val_low"] + 1e-12)
                         or np.any(v1[:, -1] > data["val_up"] + 1e-12))
            if not overshoot:
                candidates.append(BridgeReport(name="two_slope", x_knots=xk, values=np.maximum(v1, v2),
                                               valid=False, checks={}))

    best = None
    for cand in candidates:
        cand.checks = _validate_bridge(params, cand, a0, b0, data, validate_convexity)
        cand.valid = all(cand.checks.values())
        if cand.valid:
            return cand
        if best is None or sum(cand.checks.values()) > sum(best.checks.values()):
            best = cand
    best.notes.append("no candidate passed every check; best-scoring candidate returned")
    return best


def _validate_bridge(params, cand, a0, b0, data, validate_convexity):
    """Endpoint integrals, strict interior inferiority, monotonicity, and the
    per-time convexity of the glued surface."""
    H = params.reservation
    xk, vals = cand.x_knots, cand.values
    integ = np.array([float(trapezoid(vals[:, j], params.time_grid)) for j in range(xk.size)])
    checks = {}
    Hb = float(H(np.asarray([b0]))[0])
    if not np.isfinite(Hb):
        Hb = float(H(np.asarray([1e-12]))[0])
    Ha = float(H(np.asarray([a0]))[0])
    checks["left_endpoint"] = (abs(integ[0] - Hb) <= 1e-9 * max(1.0, abs(Hb))) if b0 > 0 else (integ[0] < Hb)
    checks["right_endpoint"] = (abs(integ[-1] - Ha) <= 1e-9 * max(1.0, abs(Ha))) if a0 < 1.0 else (integ[-1] < Ha)
    interior = (xk > b0 + 1e-12) & (xk < a0 - 1e-12)
    Hi = H(xk[interior])
    checks["interior_inferior"] = bool(np.all(integ[interior] < Hi - 0.0))
    slopes = np.diff(vals, axis=1) / np.diff(xk)
    checks["monotone"] = bool(np.all(slopes >= -1e-12))
    if validate_convexity and data is not None:
        ok = bool(np.all(np.diff(slopes, axis=1) >= -1e-9 * np.maximum(1.0, np.abs(slopes[:, :-1]))))
        if b0 > 0:
            ok = ok and bool(np.all(slopes[:, 0] >= data["slope_low"] - 1e-9))
        if a0 < 1.0:
            ok = ok and bool(np.all(slopes[:, -1] <= data["slope_up"] + 1e-9))
        checks["glued_convexity"] = ok
    return checks


# ---------------------------------------------------------------------------
# tariff emission
# ---------------------------------------------------------------------------

def build_tariff_typed_h(config, solution):
    """Emit the piecewise tariff and the glued indirect utility.

    Requires the canonical power/uniform setting (explicit coefficient
    profiles). When only the component opposite to the branch's polynomial
    pieces survives (a0 = 1 on the industrial branch, b0 = 0 on the
    residential one) the emission falls back to a fully sampled tariff.
    """
    params = config.params
    if not params.is_canonical_uniform_power:
        raise InvalidParams("params", "typed tariff emission needs the canonical power/uniform setting")
    g = params.gamma
    a0, b0 = solution.a0, solution.b0
    N = solution.N_gamma if solution.N_gamma is not None else N_gamma_profile(params, a0, b0)
    L = solution.L_gamma if solution.L_gamma is not None else L_gamma_profile(params, N)
    T = params.horizon
    H = params.reservation
    Ha = float(H(np.asarray([a0]))[0]) if a0 < 1.0 else None
    Hb = float(H(np.asarray([b0]))[0]) if b0 > 0 else None
    m = 1.0 / (1.0 - g)
    phi = params.phi
    nt = params.time_grid.size

    bridge = solution.bridge or build_bridge(params, a0, b0, N=N)
    solution.bridge = bridge

    p_star = _glued_indirect_utility(params, a0, b0, N, bridge)

    if (g > 0 and a0 >= 1.0) or (g < 0 and b0 <= 0.0):
        return _sampled_emission(config, p_star, {"a0": a0, "b0": b0, "bridge": bridge.name}), p_star

    selected_range = []
    if g > 0:
        c_low_hi = L * b0 ** m
        c_mid_hi = L * (a0 - 0.5) ** m
        c_top = L * 2.0 ** (-m)
        segs = []
        if b0 > 0:
            segs.append(TariffSegment(
                c_lo=np.zeros(nt), c_hi=c_low_hi,
                p1=np.zeros(nt), p2=phi * L ** (g - 1.0),
                p3=np.full(nt, -Hb / T) + N * b0 ** m,
                label="lower_selected",
            ))
            selected_range.append(np.column_stack([np.zeros(nt), c_low_hi]))
        segs.append(_bridge_segment(params, p_star, c_low_hi if b0 > 0 else np.zeros(nt), c_mid_hi))
        segs.append(TariffSegment(
            c_lo=c_mid_hi,
            c_hi=np.full(nt, np.inf) if config.simplified_tariff else c_top,
            p1=phi / (2.0 * g), p2=phi * L ** (g - 1.0),
            p3=N * (a0 - 0.5) ** m - Ha / T,
            label="selected",
        ))
        if not config.simplified_tariff:
            segs.append(TariffSegment(
                c_lo=c_top, c_hi=np.full(nt, np.inf),
                p1=phi / g, p2=np.zeros(nt),
                p3=-N * (2.0 ** (-m) - (a0 - 0.5) ** m) - Ha / T,
                label="top",
            ))
        selected_range.append(np.column_stack([c_mid_hi, c_top]))
        breakpoints = {"c_lower_hi": c_low_hi, "c_bridge_hi": c_mid_hi, "c_top": c_top}
    else:
        c_a_hi = L * (1.0 - a0) ** m if a0 < 1.0 else np.zeros(nt)
        c_mid_hi = L * (0.5 - min(b0, 0.5)) ** m
        c_top = L * 2.0 ** (-m)
        segs = []
        if a0 < 1.0:
            segs.append(TariffSegment(
                c_lo=np.zeros(nt), c_hi=c_a_hi,
                p1=np.zeros(nt), p2=phi * L ** (g - 1.0),
                p3=N * (1.0 - a0) ** m - Ha / T,
                label="upper_selected",
            ))
            selected_range.append(np.column_stack([np.zeros(nt), c_a_hi]))
        segs.append(_bridge_segment(params, p_star, c_a_hi, c_mid_hi))
        segs.append(TariffSegment(
            c_lo=c_mid_hi,
            c_hi=np.full(nt, np.inf) if config.simplified_tariff else c_top,
            p1=phi / (2.0 * g), p2=phi * L ** (g - 1.0),
            p3=N * (0.5 - min(b0, 0.5)) ** m - Hb / T,
            label="selected",
        ))
        if not config.simplified_tariff:
            segs.append(TariffSegment(
                c_lo=c_top, c_hi=np.full(nt, np.inf),
                p1=phi / g, p2=np.zeros(nt),
                p3=N * ((0.5 - min(b0, 0.5)) ** m - 2.0 ** (-m)) - Hb / T,
                label="top",
            ))
        selected_range.append(np.column_stack([c_mid_hi, c_top]))
        breakpoints = {"c_upper_hi": c_a_hi, "c_bridge_hi": c_mid_hi, "c_top": c_top}

    tariff = Tariff(
        gamma=g,
        time_grid=params.time_grid,
        segments=segs,
        simplified=config.simplified_tariff,
        selected_range=selected_range,
        breakpoints=breakpoints,
        meta={"a0": a0, "b0": b0, "N": N, "L": L, "bridge": bridge.name},
    )
    return tariff, p_star


def _sampled_emission(config, p_star, meta):
    """Fully sampled tariff for the degenerate single-component emissions."""
    params = config.params
    c_grid = (np.geomspace(config.c_min, config.c_max, config.c_grid_size)
              if params.gamma < 0 else np.linspace(0.0, config.c_max, config.c_grid_size))
    price, _ = u_transform_indirect_to_price(p_star.sample(np.linspace(0.0, 1.0, 2001)), params, c_grid=c_grid)
    nt = params.time_grid.size
    seg = TabulatedSegment(
        c_lo=np.full(nt, c_grid[0]), c_hi=np.full(nt, np.inf),
        c_knots=np.tile(c_grid, (nt, 1)), p_knots=price.values, label="sampled",
    )
    return Tariff(gamma=params.gamma, time_grid=params.time_grid, segments=[seg],
                  simplified=True, meta=dict(meta, route="sampled"))


def _bridge_segment(params, p_star, c_lo, c_hi):
    """Tabulated tariff piece over the never-selected consumption range,
    obtained by conjugating the glued indirect utility.

    The boundary types are inserted into the conjugation grid so junction
    prices coincide with the adjacent polynomial segments to float precision.
    """
    xg = np.linspace(0.0, 1.0, 1501)
    inserts = [p_star.meta.get("a0"), p_star.meta.get("b0")]
    xg = np.unique(np.concatenate([xg, [v for v in inserts if v is not None]]))
    lo = np.maximum(c_lo, 1e-9 if params.gamma < 0 else 0.0)
    hi = np.where(lo > 0, np.maximum(c_hi, lo * (1.0 + 1e-12)), np.maximum(c_hi, 1e-9))
    c_knots = np.linspace(lo, hi, 65, axis=1)
    p_knots, _ = _u_conjugate(params.phi, params.g(xg), c_knots ** params.gamma, params.gamma,
                              p_star.values(xg), over_x=True)
    return TabulatedSegment(c_lo=c_lo, c_hi=c_hi, c_knots=c_knots, p_knots=p_knots, label="bridge")


def _glued_indirect_utility(params, a0, b0, N, bridge):
    """Closed-form lower/upper pieces with the bridge interpolated between."""
    g = params.gamma
    m = 1.0 / (1.0 - g)
    T = params.horizon
    H = params.reservation
    nt = params.time_grid.size
    Ha = float(H(np.asarray([a0]))[0]) if a0 < 1.0 else None
    Hb = float(H(np.asarray([b0]))[0]) if b0 > 0 else None
    bx, bv = bridge.x_knots, bridge.values

    Nt = N[:, None]

    def values_fn(x):
        x = np.asarray(x, dtype=float)
        out = np.empty((nt, x.size))
        low = x < b0
        mid = (x >= b0) & (x <= a0)
        up = x > a0
        if np.any(low):
            if g > 0:
                out[:, low] = Hb / T - Nt * (b0 ** m - x[low] ** m)
            else:
                out[:, low] = Hb / T - Nt * ((0.5 - min(b0, 0.5)) ** m - (0.5 - np.minimum(x[low], 0.5)) ** m)
        if np.any(mid):
            # np.interp is one-dimensional: one call per time row
            out[:, mid] = [np.interp(x[mid], bx, row) for row in bv]
        if np.any(up):
            if g > 0:
                out[:, up] = Ha / T + Nt * ((x[up] - 0.5) ** m - (a0 - 0.5) ** m)
            else:
                out[:, up] = Ha / T + Nt * ((1.0 - x[up]) ** m - (1.0 - a0) ** m)
        return out

    def slopes_fn(x):
        # boundary types belong to their live component: the consumption of
        # the binding type comes from the component formula, not the bridge
        x = np.asarray(x, dtype=float)
        out = np.zeros((nt, x.size))
        low = (x <= b0) if b0 > 0 else np.zeros(x.shape, dtype=bool)
        up = (x >= a0) if a0 < 1.0 else np.zeros(x.shape, dtype=bool)
        mid = ~(low | up)
        bslopes = np.diff(bv, axis=1) / np.diff(bx) if bx.size > 1 else np.zeros((nt, 1))
        if np.any(low):
            if g > 0:
                out[:, low] = Nt * m * x[low] ** (g * m)
            else:
                xl = np.minimum(x[low], 0.5 - 1e-300)
                out[:, low] = -Nt * m * (0.5 - xl) ** (m - 1.0)
        if np.any(mid) and bx.size > 1:
            j = np.clip(np.searchsorted(bx, x[mid], side="right") - 1, 0, bslopes.shape[1] - 1)
            out[:, mid] = bslopes[:, j]
        if np.any(up):
            if g > 0:
                out[:, up] = Nt * m * (x[up] - 0.5) ** (g * m)
            else:
                with np.errstate(divide="ignore"):
                    out[:, up] = -Nt * m * (1.0 - x[up]) ** (m - 1.0)
        return out

    kinks = tuple(k for k in (b0, a0) if 0.0 < k < 1.0)
    return IndirectUtility.from_callables(
        params.time_grid, values_fn, slopes_fn, kinks=kinks,
        meta={"a0": a0, "b0": b0, "branch": "typed"},
    )


def mu_zero_residual(solution, p_star, params, interior_margin=0.05, nodes=200):
    """Relative mismatch between the built slopes and the stationarity formula
    with zero multipliers, on interior nodes of each live component.

    The built surface is differentiated by central finite differences, so the
    check is independent of the closed-form slope callables.
    """
    a0, b0 = solution.a0, solution.b0
    h = 1e-7
    worst = 0.0
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
    ell = float(ell_ab(a0, b0, params))
    t = params.time_grid
    A = np.array([capacity_A_typed(i, ell, params) for i in range(t.size)])
    Kc = eval_marginal_cost(t, A, params)[:, None]
    for bracket, xs in segments:
        fd = (p_star.values(xs + h) - p_star.values(xs - h)) / (2.0 * h)
        formula = optimal_slopes(params.phi[:, None], bracket(xs, params), params.f.pdf(xs), Kc,
                                 params.g.prime(xs), params.gamma)
        denom = np.maximum(np.abs(formula), 1e-12)
        worst = max(worst, float(np.max(np.abs(fd - formula) / denom)))
    return worst
