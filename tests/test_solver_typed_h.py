"""Typed-reservation solver: feasibility, boundary search, bridge, emission."""
import hashlib
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nltariff.agent import participation_set
from nltariff.cli import _typed_scan_audit, load_config
from nltariff.closed_form import (L_gamma_profile, N_gamma_profile, R_gamma, component_shapes, ell_ab,
                                  objective_ab, theta_term)
from nltariff.errors import AssumptionViolation
from nltariff.model import (
    ConcaveReservation,
    ConstantReservation,
    ScenarioConfig,
    Table,
    canonical_params,
    eval_marginal_cost,
)
from nltariff.numerics import trapezoid
from nltariff.solver_const_h import capacity_A, lower_bracket, optimal_slopes, upper_bracket
from nltariff.solver_typed_h import (
    DEGENERATE_TOL,
    GRID_SIZE,
    _best_with_ties,
    _evaluate_mesh,
    _levels,
    build_bridge,
    build_tariff_typed_h,
    constraint_check_A2prime,
    mu_zero_residual,
    solve_a0_b0_star,
    validate_assumptions,
)
from nltariff.tariff import TariffSegment
from nltariff.uconvex import _utility_surface, check_u_convexity
from tests.conftest import TYPED_A, TYPED_B, log_reservation, sqrt_reservation
from tests.property_harness import continuity_gaps, shape_report
from tests.referee import best_responses

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shifted_sqrt_params(offset=0.1):
    res = ConcaveReservation.from_callables(
        lambda x: np.sqrt(np.asarray(x, dtype=float)) + offset,
        lambda x: np.where(np.asarray(x) > 0, 0.5 / np.sqrt(np.maximum(x, 1e-300)), np.inf),
    )
    return canonical_params(0.5, reservation=res, time_nodes=3)


def residential_sqrt_params():
    res = ConcaveReservation.from_callables(
        lambda x: 0.5 * np.sqrt(np.asarray(x, dtype=float)) - 0.5,
        lambda x: np.where(np.asarray(x) > 0, 0.25 / np.sqrt(np.maximum(x, 1e-300)), np.inf),
    )
    return canonical_params(-1.0, reservation=res, time_nodes=3)


# -- assumptions ---------------------------------------------------------------

def test_assumptions_hold_for_sqrt_reservation():
    flags = validate_assumptions(shifted_sqrt_params())
    assert flags["hg"] and flags["v1_monotone"] and flags["v2_monotone"]


def test_assumptions_hold_for_residential_power_reservation():
    # H(x) = x^alpha - 1 is strictly concave for alpha < 1... use the branch
    # example: g = 1-x and H = x^alpha with alpha > 1 satisfies (hg); a
    # negative shift keeps the residential sign rule
    flags = validate_assumptions(residential_sqrt_params())
    assert flags["hg"]


def test_v_monotonicity_violation_detected():
    # g(x) = x^alpha with alpha < 1-gamma makes v1, v2 non-monotone
    xs = np.linspace(1e-6, 1.0, 2001)
    alpha = 0.2
    g = Table("g", xs, xs ** alpha, alpha * xs ** (alpha - 1.0))
    res = ConcaveReservation.from_callables(
        lambda x: np.sqrt(np.asarray(x, dtype=float)) + 0.3,
        lambda x: np.where(np.asarray(x) > 0, 0.5 / np.sqrt(np.maximum(x, 1e-300)), np.inf),
    )
    params = canonical_params(0.5, reservation=res, time_nodes=3)
    params = params.__class__(
        gamma=params.gamma, horizon=params.horizon, time_grid=params.time_grid,
        phi=params.phi, k=params.k, n=params.n, g=g, f=params.f, reservation=res,
    )
    with pytest.raises(AssumptionViolation):
        validate_assumptions(params)


def test_elasticity_violation_detected():
    # canonical g with gamma in (0,1) always satisfies (hg) (concave H >= 0
    # has H(x)/x nonincreasing), so the violation needs a flatter taste map:
    # g = sqrt(x) gives g/g' = 2x, while H = x^0.6 gives H/H' = x/0.6 < 2x
    xs = np.linspace(1e-6, 1.0, 4001)
    g = Table("g", xs, np.sqrt(xs), 0.5 / np.sqrt(xs))
    res = ConcaveReservation.from_callables(
        lambda x: np.maximum(np.asarray(x, dtype=float), 1e-300) ** 0.6,
        lambda x: 0.6 * np.maximum(np.asarray(x, dtype=float), 1e-300) ** (-0.4),
    )
    base = canonical_params(0.5, reservation=res, time_nodes=3)
    params = base.__class__(
        gamma=base.gamma, horizon=base.horizon, time_grid=base.time_grid,
        phi=base.phi, k=base.k, n=base.n, g=g, f=base.f, reservation=res,
    )
    with pytest.raises(AssumptionViolation) as err:
        validate_assumptions(params)
    assert "elasticity" in str(err.value)


def test_constant_reservation_rejected():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    with pytest.raises(Exception):
        validate_assumptions(params)


# -- coverage polynomial --------------------------------------------------------

def test_R_gamma_trivial_values():
    p_pos = shifted_sqrt_params()
    assert_allclose(R_gamma(1.0, 0.0, p_pos), 0.0, atol=1e-14)
    p_neg = canonical_params(-1.0, reservation=log_reservation(), time_nodes=3)
    assert_allclose(R_gamma(1.0, 0.5, p_neg), 1.0, atol=1e-14)


def test_R_gamma_symmetric_example_and_quadrature_oracle():
    p = shifted_sqrt_params()
    # exponent (2-gamma)/(1-gamma) = 3: R = 1 + 0.5^3 - 0.5^3 = 1
    assert_allclose(R_gamma(0.75, 0.25, p), 1.0, rtol=1e-14)
    assert_allclose(ell_ab(0.75, 0.25, p), 0.5 / 3.0, rtol=1e-14)
    # dense Riemann oracle of the two integrals
    xs = np.linspace(0.0, 0.25, 200_001)
    low = np.trapezoid((2.0 * xs) ** 2, xs)
    xs2 = np.linspace(0.75, 1.0, 200_001)
    up = np.trapezoid((2.0 * xs2 - 1.0) ** 2, xs2)
    assert_allclose(ell_ab(0.75, 0.25, p), low + up, rtol=1e-9)


# -- feasibility -----------------------------------------------------------------

def test_degenerate_lower_boundary_feasible_industrial():
    p = shifted_sqrt_params()
    chk = constraint_check_A2prime(0.8, 0.0, p)
    assert chk["Psi"] == pytest.approx(0.0, abs=1e-12)
    assert chk["feasible"]


def test_upper_boundary_below_half_infeasible_industrial():
    # Xi = 0 < H'(a0) for any increasing H, so a0 <= 1/2 cannot be optimal
    p = shifted_sqrt_params()
    chk = constraint_check_A2prime(0.45, 0.0, p)
    assert chk["Xi"] == pytest.approx(0.0, abs=1e-12)
    assert not chk["feasible"]


def test_certificates_match_fine_quadrature_oracle():
    p = shifted_sqrt_params(offset=0.2)
    a0, b0 = 0.8, 0.1
    chk = constraint_check_A2prime(a0, b0, p)
    # independent evaluation: Riemann coverage + direct formulas
    xs = np.linspace(0.0, b0, 400_001)
    low = np.trapezoid((2.0 * xs) ** 2, xs)
    xs2 = np.linspace(max(a0, 0.5), 1.0, 400_001)
    up = np.trapezoid((2.0 * xs2 - 1.0) ** 2, xs2)
    ell = low + up
    A = ell ** ((1.0 - 0.5) / (2.0 - 0.5))
    Kc = A  # n=2, k=1
    Xi = ((2.0 * a0 - 1.0) / Kc) ** (0.5 / 0.5) / 0.5
    Psi = ((2.0 * b0) / Kc) ** 1.0 / 0.5
    assert_allclose(chk["Xi"], Xi, atol=1e-8)
    assert_allclose(chk["Psi"], Psi, atol=1e-8)


def row_loop_certificates(a0, b0, params):
    """Xi and Psi one time row at a time, the reference for the factorized
    certificates: the slope at each node from capacity_A and
    eval_marginal_cost, then a trapezoid over time."""
    t = params.time_grid
    Kc = eval_marginal_cost(capacity_A(ell_ab(a0, b0, params), params), params)
    out = []
    for bracket, x in ((upper_bracket, a0), (lower_bracket, b0)):
        rows = np.empty((t.size, x.size))
        for i in range(t.size):
            with np.errstate(divide="ignore", invalid="ignore"):
                rows[i] = optimal_slopes(params.phi[i], bracket(x, params), params.f.prime(x), Kc[:, i],
                                         params.g.prime(x), params.gamma)
        with np.errstate(invalid="ignore"):
            out.append(trapezoid(rows.T, params.time_grid))
    return out


def varying_typed_params(branch, nodes):
    """Seeded random phi(t) and k(t) on one branch."""
    rng = np.random.default_rng(nodes)
    gamma, n, reservation = {"industrial": (0.5, 2.0, sqrt_reservation()),
                             "residential": (-1.0, 3.0, log_reservation())}[branch]
    return canonical_params(gamma, n=n, phi=rng.uniform(0.5, 2.0, nodes), k=rng.uniform(0.5, 2.0, nodes),
                            reservation=reservation, time_nodes=nodes)


def _pair_mesh(a_lin, b_lin):
    """The pairs of the grid a_lin x b_lin with b0 <= a0, flattened row by row."""
    A, B = np.meshgrid(a_lin, b_lin, indexing="ij")
    mask = B <= A + 1e-15
    return A[mask], B[mask]


def edge_values():
    """Types at and next to the corners and the zeros of the screening
    weights, where the certificates are 0, inf or nan."""
    ends = np.array([0.0, 1e-15, 1e-12, 1e-9, 1e-6])
    return np.concatenate([ends, 0.5 - ends, 0.5 + ends, 1.0 - ends])


def certificate_pairs():
    """The boundary scan's pairs plus the pairs of the edge values."""
    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    a_scan, b_scan = _pair_mesh(grid, grid)
    a_edge, b_edge = _pair_mesh(edge_values(), edge_values())
    return np.concatenate([a_scan, a_edge]), np.concatenate([b_scan, b_edge])


@pytest.mark.parametrize("nodes", [3, 33, 129])
@pytest.mark.parametrize("branch", ["industrial", "residential"])
def test_factorized_certificates_match_the_row_loop(branch, nodes):
    params = varying_typed_params(branch, nodes)
    a0, b0 = certificate_pairs()
    chk = constraint_check_A2prime(a0, b0, params)
    Xi, Psi = row_loop_certificates(a0, b0, params)
    # equal inf and nan positions, finite values within 1e-14 relative
    assert_allclose(chk["Xi"], Xi, rtol=1e-14, atol=0.0)
    assert_allclose(chk["Psi"], Psi, rtol=1e-14, atol=0.0)
    feasible = (((a0 >= 1.0 - DEGENERATE_TOL) | (Xi >= params.reservation.prime(a0) - 1e-8))
                & ((b0 <= DEGENERATE_TOL) | (Psi <= params.reservation.prime(b0) + 1e-8)))
    np.testing.assert_array_equal(chk["feasible"], feasible)


@pytest.mark.parametrize("nodes", [129, 1025])
def test_certificates_hold_no_time_by_pair_array(nodes):
    params = varying_typed_params("industrial", nodes)
    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    a0, b0 = _pair_mesh(grid, grid)
    tracemalloc.start()
    try:
        constraint_check_A2prime(a0, b0, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# -- boundary search ---------------------------------------------------------------

def flat_pair_objective(a_lin, b_lin, params):
    """The pair-by-pair scan: the pairs with b0 <= a0 flattened row by row,
    and the objective on each, -inf where the pair is infeasible."""
    af, bf = _pair_mesh(a_lin, b_lin)
    feasible = constraint_check_A2prime(af, bf, params)["feasible"]
    return af, bf, np.where(feasible, objective_ab(af, bf, params), -np.inf)


def zoom_window(a0, b0, span=2.0 / (GRID_SIZE - 1)):
    """The 33 x 33 zoom grids of solve_a0_b0_star around (a0, b0)."""
    return (np.linspace(max(a0 - span, 0.0), min(a0 + span, 1.0), 33),
            np.linspace(max(b0 - span, 0.0), min(b0 + span, 1.0), 33))


def mesh_grids():
    """The scan, audit and zoom grids, the edge values, and unsorted copies:
    the mesh may not assume sorted axes. Searching the sorted position of a
    block's last a0 among the b0 loses every feasible cell of the shuffled
    scan grid, and that of its largest a0 loses about a quarter of those of
    the audit grid against shuffled b0 (industrial branch)."""
    scan, audit = np.linspace(0.0, 1.0, GRID_SIZE), np.linspace(0.0, 1.0, 512)
    windows = [zoom_window(a0, b0) for a0, b0 in ((0.7, 0.2), (1.0, 0.3), (0.8, 0.0), (1.0, 0.0))]
    rng = np.random.default_rng(0)
    unsorted = [(rng.permutation(scan), rng.permutation(scan)), (scan[::-1], scan[::-1]),
                (audit, rng.permutation(audit))]
    return [(scan, scan), (audit, audit), *windows, (edge_values(), edge_values()), *unsorted]


@pytest.mark.parametrize("nodes", [3, 33, 129])
@pytest.mark.parametrize("branch", ["industrial", "residential"])
def test_grid_mesh_matches_the_flat_pair_form(branch, nodes):
    """The grid objective is bit for bit the pair-by-pair one on b0 <= a0
    and -inf on every cell above the diagonal."""
    params = varying_typed_params(branch, nodes)
    for a_lin, b_lin in mesh_grids():
        obj = _evaluate_mesh(a_lin, b_lin, params)
        assert obj.shape == (a_lin.size, b_lin.size)
        below = b_lin[None, :] <= a_lin[:, None] + 1e-15
        _, _, flat = flat_pair_objective(a_lin, b_lin, params)
        np.testing.assert_array_equal(obj[below].view(np.uint64), flat.view(np.uint64))
        assert np.all(obj[~below] == -np.inf)


@pytest.mark.parametrize("branch", ["industrial", "residential"])
def test_mesh_holds_no_pair_meshgrid(branch):
    """Scoring the 512 x 512 audit grid holds the objective plus at most
    2 MiB: certificates broadcast over the whole square (7.1 MB), or a
    full pair meshgrid, exceed it; one block of rows does not."""
    params = varying_typed_params(branch, 33)
    grid = np.linspace(0.0, 1.0, 512)
    tracemalloc.start()
    try:
        obj = _evaluate_mesh(grid, grid, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obj.shape == (512, 512)
    assert peak < obj.nbytes + 2 * 2**20


def tie_grid(cells):
    """An objective on a = (0.5, 0.7, 1.0) x b = (0.0, 0.2, 0.4), -inf
    outside the given {(i, j): value} cells."""
    obj = np.full((3, 3), -np.inf)
    for ij, v in cells.items():
        obj[ij] = v
    return np.array([0.5, 0.7, 1.0]), np.array([0.0, 0.2, 0.4]), obj


@pytest.mark.parametrize("cells, winner", [
    ({(1, 1): 1.0, (2, 2): 1.0 - 5e-13, (0, 1): 1.0 - 5e-13}, (1.0, 0.4)),
    ({(1, 1): 1.0, (0, 1): 1.0 - 5e-13, (0, 2): 1.0 - 2e-12}, (0.5, 0.2)),
    ({(1, 1): 1.0, (1, 2): 1.0 - 5e-13}, (0.7, 0.4)),
], ids=["corner-first", "smaller-a0", "larger-b0"])
def test_best_with_ties_prefers_corner_then_smaller_a0_then_larger_b0(cells, winner):
    a_lin, b_lin, obj = tie_grid(cells)
    assert _best_with_ties(a_lin, b_lin, obj) == (*winner, 1.0)
    # the rule reads pairs, not grid positions
    assert _best_with_ties(a_lin[::-1], b_lin[::-1], obj[::-1, ::-1]) == (*winner, 1.0)


@pytest.mark.parametrize("family", ["industrial_sqrt_h", "residential_log_h"])
def test_typed_scan_audit_matches_the_flat_argmax(family):
    params = load_config(CONFIG_DIR / f"{family}.json").params
    grid = np.linspace(0.0, 1.0, 512)
    af, bf, flat = flat_pair_objective(grid, grid, params)
    i = int(np.argmax(flat))
    audit = _typed_scan_audit(params)
    assert (audit["value"], audit["a0"], audit["b0"]) == (float(flat[i]), float(af[i]), float(bf[i]))


def test_sqrt_scenario_matches_dense_scan(typed_a_config):
    sol = solve_a0_b0_star(typed_a_config)
    assert sol.b0 == TYPED_A["b0"]
    assert abs(sol.a0 - TYPED_A["a0"]) < 1e-3
    assert_allclose(sol.objective, TYPED_A["value"], atol=1e-6)
    assert sol.feasible
    assert sol.Xi >= typed_a_config.params.reservation.prime(np.asarray([sol.a0]))[0] - 1e-8
    assert sol.assumption_flags["b0_le_a0_minus_half"]


def test_log_scenario_serves_low_types_only(typed_b_config):
    sol = solve_a0_b0_star(typed_b_config)
    assert sol.a0 == TYPED_B["a0"]
    assert abs(sol.b0 - TYPED_B["b0"]) < 1e-3
    assert_allclose(sol.objective, TYPED_B["value"], atol=1e-6)
    assert sol.Psi <= typed_b_config.params.reservation.prime(np.asarray([sol.b0]))[0] + 1e-8


def test_shifted_sqrt_scenario_against_fresh_dense_scan():
    """Solver vs a 2048-cell brute-force scan of the same filtered objective."""
    params = shifted_sqrt_params(offset=0.02)
    cfg = ScenarioConfig(params=params)
    sol = solve_a0_b0_star(cfg)
    a = np.linspace(0.0, 1.0, 2048)
    A, B = np.meshgrid(a, a, indexing="ij")
    m = B <= A
    chk = constraint_check_A2prime(A[m], B[m], params)
    vals = np.where(chk["feasible"], objective_ab(A[m], B[m], params), -np.inf)
    i = int(np.argmax(vals))
    assert abs(sol.a0 - A[m][i]) < 1e-3
    assert abs(sol.b0 - B[m][i]) < 1e-3
    assert sol.objective >= vals[i] - 1e-9


# -- bridge -----------------------------------------------------------------------

def test_empty_bridge_when_boundaries_touch():
    p = shifted_sqrt_params()
    rep = build_bridge(p, 0.6, 0.6, N_gamma_profile(p, 0.6, 0.6), _levels(p.reservation, 0.6, 0.6))
    assert rep.name == "empty" and rep.valid


def test_glued_surface_over_an_empty_bridge_evaluates():
    """Touching boundaries leave a one-knot bridge: the glued p* builds and
    evaluates, since a sampled piece takes its difference step only when
    its own slopes are asked for."""
    from nltariff.solver_typed_h import _glued_indirect_utility

    p = shifted_sqrt_params()
    N = N_gamma_profile(p, 0.6, 0.6)
    levels = _levels(p.reservation, 0.6, 0.6)
    p_star = _glued_indirect_utility(p, 0.6, 0.6, N, levels, build_bridge(p, 0.6, 0.6, N, levels))
    xs = np.concatenate([np.linspace(0.0, 1.0, 101), [0.6]])
    assert np.all(np.isfinite(p_star.values(xs)))
    assert np.all(np.isfinite(p_star.slopes(xs)))


def test_empty_bridge_leaves_the_boundary_type_at_its_reservation():
    """With a0 == b0 the boundary type belongs to the components, not to
    the one-knot bridge: p* there is H(0.6)/T, continuous from both sides."""
    from nltariff.solver_typed_h import _glued_indirect_utility

    p = shifted_sqrt_params()
    N = N_gamma_profile(p, 0.6, 0.6)
    levels = _levels(p.reservation, 0.6, 0.6)
    p_star = _glued_indirect_utility(p, 0.6, 0.6, N, levels, build_bridge(p, 0.6, 0.6, N, levels))
    vals = p_star.values(np.array([0.6 - 1e-12, 0.6, 0.6 + 1e-12]))
    np.testing.assert_allclose(vals[:, 1], levels[0] / p.horizon, rtol=1e-15)
    np.testing.assert_allclose(vals[:, [0, 2]], vals[:, [1, 1]], rtol=1e-9)


def test_empty_bridge_emits_the_boundary_type_plane():
    """With a0 == b0 both band planes are the boundary type's, on finite
    bounds: the band meets its neighbours at their junction prices, and the
    tariff prices every consumption finitely."""
    params = shifted_sqrt_params()
    tariff, _ = build_tariff_typed_h(ScenarioConfig(params=params), make_pair_solution(params, 0.6, 0.6))
    assert tariff.meta["bridge"] == "empty"
    labels = [seg.label for seg in tariff.segments]
    assert labels == ["lower_selected", "bridge_b0", "bridge_a0", "selected"]
    below, plane_b0, plane_a0, above = tariff.segments
    for plane in (plane_b0, plane_a0):
        assert np.all(np.isfinite(plane.c_lo)) and np.all(np.isfinite(plane.c_hi))
        np.testing.assert_array_equal(plane.p1, plane_b0.p1)
        np.testing.assert_array_equal(plane.p3, plane_b0.p3)
    rows = np.arange(params.time_grid.size)
    g = params.gamma
    for left, right, c in ((below, plane_b0, plane_b0.c_lo), (plane_a0, above, plane_a0.c_hi)):
        assert_allclose(left.price(rows, c, g), right.price(rows, c, g), rtol=1e-12, atol=1e-12)
    assert np.all(np.isfinite(tariff.sample(np.linspace(0.0, 4.0, 401))))


@pytest.mark.parametrize("family", ["industrial_sqrt_h", "residential_log_h"])
def test_loaded_typed_config_pickles(family):
    """A tabulated reservation is bound to module-level interpolation, so a
    loaded config survives a pickle round trip and solves the same."""
    config = load_config(CONFIG_DIR / f"{family}.json")
    back = pickle.loads(pickle.dumps(config))
    xs = np.linspace(0.0, 1.0, 257)
    res, res_back = config.params.reservation, back.params.reservation
    assert np.array_equal(res_back(xs), res(xs))
    assert np.array_equal(res_back.prime(xs), res.prime(xs))
    sol, sol_back = solve_a0_b0_star(config), solve_a0_b0_star(back)
    assert (sol_back.a0, sol_back.b0, sol_back.objective) == (sol.a0, sol.b0, sol.objective)


def test_chord_strictly_below_reservation(typed_b_solution, typed_b_config):
    sol, _, _ = typed_b_solution
    rep = sol.bridge
    assert rep.valid
    time_grid = typed_b_config.params.time_grid
    # the row is per unit time at every node: integrate it over time
    integ = np.trapezoid(np.tile(rep.values[1:-1, None], time_grid.size), time_grid)
    assert np.all(integ < typed_b_config.params.reservation(rep.x_knots[1:-1]))


def test_validate_bridge_accepts_a_convex_non_chord_row():
    """With b0 > 0 and a0 < 1 the row that leaves b0 with the lower piece's
    slope and reaches a0 with the upper piece's, a convex kink between, is a
    bridge: the checks accept a non-chord row."""
    params = shifted_sqrt_params(offset=0.1)
    from nltariff.solver_typed_h import _validate_bridge

    a0, b0 = 0.8, 0.1
    N = N_gamma_profile(params, a0, b0)
    lower, upper, _ = component_shapes(params.gamma)
    slope_low, slope_up = lower.slope(N, b0), upper.slope(N, a0)
    # phi = k = 1: the slopes are the same at every time node
    assert np.all(slope_low == slope_low[0]) and np.all(slope_up == slope_up[0])
    xk = np.linspace(b0, a0, 33)
    Hb = float(params.reservation(np.asarray([b0]))[0])
    Ha = float(params.reservation(np.asarray([a0]))[0])
    row = np.maximum(Hb / params.horizon + slope_low[0] * (xk - b0), Ha / params.horizon + slope_up[0] * (xk - a0))
    checks = _validate_bridge(params, xk, row, a0, b0, (Ha, Hb), (slope_low, slope_up))
    assert all(checks.values())


# -- emission ----------------------------------------------------------------------

def make_feasible_pair_solution(params, a0, b0):
    """TypedHSolution at a chosen feasible (not necessarily optimal) pair,
    for exercising the live-lower-component emission path."""
    assert constraint_check_A2prime(a0, b0, params)["feasible"]
    return make_pair_solution(params, a0, b0)


def make_pair_solution(params, a0, b0):
    """TypedHSolution at a chosen pair, feasible or not."""
    from nltariff.solver_typed_h import TypedHSolution

    chk = constraint_check_A2prime(a0, b0, params)
    N = N_gamma_profile(params, a0, b0)
    levels = _levels(params.reservation, a0, b0)
    return TypedHSolution(
        a0=a0, b0=b0, objective=float(objective_ab(a0, b0, params)),
        Xi=chk["Xi"], Psi=chk["Psi"], theta=float(theta_term(a0, b0, params)),
        feasible=bool(chk["feasible"]), assumption_flags={"b0_le_a0_minus_half": b0 <= a0 - 0.5},
        N_gamma=N, L_gamma=L_gamma_profile(params, N),
        levels=levels, bridge=build_bridge(params, a0, b0, N, levels),
    )


def test_lowest_segment_breakpoint_identity():
    """Industrial lower segment's upper bound is L(t) b0^(1/(1-gamma)).

    The canonical/uniform optimum always has b0* = 0 on this branch (the
    boundary-slope constraint plus concavity make the lower component
    unprofitable), so the identity is exercised at a feasible pair with a
    live lower component.
    """
    params = shifted_sqrt_params(offset=0.2)
    cfg = ScenarioConfig(params=params)
    sol = make_feasible_pair_solution(params, 0.8, 0.1)
    tariff, p_star = build_tariff_typed_h(cfg, sol)
    L = tariff.meta["L"]
    m = 1.0 / (1.0 - params.gamma)
    assert_allclose(tariff.breakpoints["c_lower_hi"], L * sol.b0 ** m, rtol=1e-12)
    assert continuity_gaps(tariff).max() <= 1e-9
    # both components participate, separated by the excluded middle
    part = participation_set(p_star, params)
    assert len(part.intervals) == 2
    assert abs(part.intervals[0][1] - sol.b0) <= 1e-6
    assert abs(part.intervals[1][0] - sol.a0) <= 1e-6


@pytest.mark.parametrize("family", ["industrial_sqrt_h", "residential_log_h"])
def test_reported_objective_is_the_objective_at_the_pair(family):
    """The zooms compare the best value of each tie band, which on the
    shipped configs lies 7.7e-13 to 9.5e-13 above the objective at the pair
    the search returns; the solution reports the objective at that pair."""
    params = load_config(CONFIG_DIR / f"{family}.json").params
    sol = solve_a0_b0_star(ScenarioConfig(params=params))
    assert sol.objective == float(objective_ab(sol.a0, sol.b0, params))


def test_emission_leaves_the_solution_unchanged():
    """The solve carries the bridge and the levels; emitting reads them and
    rebinds or mutates no field of the solution."""
    params = shifted_sqrt_params(offset=0.2)
    sol = make_feasible_pair_solution(params, 0.8, 0.1)
    fields = dict(vars(sol))
    frozen = pickle.dumps(sol)
    build_tariff_typed_h(ScenarioConfig(params=params), sol)
    assert vars(sol).keys() == fields.keys()
    assert all(vars(sol)[k] is v for k, v in fields.items())
    assert pickle.dumps(sol) == frozen


@pytest.mark.parametrize("family", ["industrial_sqrt_h", "residential_log_h"])
def test_typed_request_evaluates_levels_once_and_builds_one_bridge(family, tmp_path, monkeypatch):
    """One typed solve request evaluates H at its boundary pair once, builds
    one bridge and, on a valid bridge, conjugates nothing: every segment is
    polynomial."""
    from nltariff import cli, solver_typed_h

    calls = {"levels": 0, "bridge": 0, "conjugate": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver_typed_h, "_levels", counted("levels", solver_typed_h._levels))
    monkeypatch.setattr(solver_typed_h, "build_bridge", counted("bridge", solver_typed_h.build_bridge))
    monkeypatch.setattr(solver_typed_h, "sampled_tariff", counted("conjugate", solver_typed_h.sampled_tariff))
    report = cli.run_scenario(CONFIG_DIR / f"{family}.json", tmp_path)
    assert report["bridge"]["valid"]
    assert all(seg["p1_t0"] is not None for seg in report["tariff"]["segments"])
    assert calls == {"levels": 1, "bridge": 1, "conjugate": 0}


def test_emitted_tariff_continuous_and_shaped(typed_a_solution, typed_b_solution):
    for sol, tariff, _ in (typed_a_solution, typed_b_solution):
        assert continuity_gaps(tariff).max() <= 1e-9
        shape = shape_report(tariff)
        assert shape["nondecreasing"] and shape["concave"]


# case -> (params, a0, b0, segment labels of the simplified tariff). The
# bottom component serves the smallest tastes: [0, b0] on the industrial
# branch, [a0, 1] on the residential one. The band between the components is
# priced by the planes of its two end types, bottom first. The last three
# cases emit a fully sampled tariff: two have no selected component ([a0, 1]
# resp. [0, b0] empty), and on residential_invalid_bridge the chord does not
# glue convexly.
EMISSION_CASES = {
    "industrial_bottom_live": ("industrial_sqrt_h", 0.8, 0.1,
                               ["lower_selected", "bridge_b0", "bridge_a0", "selected"]),
    "industrial_bottom_dead": ("industrial_sqrt_h", 0.8, 0.0, ["bridge_b0", "bridge_a0", "selected"]),
    "residential_bottom_live": ("residential_log_h", 0.95, 0.3,
                                ["upper_selected", "bridge_a0", "bridge_b0", "selected"]),
    "residential_bottom_dead": ("residential_log_h", 1.0, 0.3, ["bridge_a0", "bridge_b0", "selected"]),
    "industrial_sampled": ("industrial_sqrt_h", 1.0, 0.005, ["sampled"]),
    "residential_sampled": ("residential_sqrt", 0.6, 0.0, ["sampled"]),
    "residential_invalid_bridge": ("residential_log_h", 0.9, 0.3, ["sampled"]),
}

# sha256 of tariff.sample(cs), p_star.values(xs) and p_star.slopes(xs)
PINNED_EMISSION_SHA256 = {
    ("industrial_bottom_dead", False): (
        "7c6308f1e1c20bf005486fe4da0e5f2009cee7766dcb258c700346b43fde4268",
        "efb58c20f977a25d38497f17833614fbeff68e2944b11a1132fb715eec6cc45a",
        "57c7ae5abb210bfb8069f0facd69e5eefe97cead1c8d5c5f7025cd9381d8c19c",
    ),
    ("industrial_bottom_dead", True): (
        "9f15ad623e0096f2d8840587799a29f5e6f43b93a923b4311e60982d5b23cd62",
        "efb58c20f977a25d38497f17833614fbeff68e2944b11a1132fb715eec6cc45a",
        "57c7ae5abb210bfb8069f0facd69e5eefe97cead1c8d5c5f7025cd9381d8c19c",
    ),
    ("industrial_bottom_live", False): (
        "f31859dc10e5c00d51c1a531fca238a6ddc725ac47c677130b7c788006a96710",
        "7718f5798e947d8c2505d06e13a4a1a751b78a8cf22941086e676b83bda89d42",
        "58897fe7ad5de9582dcf9baf8e29f1dc9ea802c225860d298eba947153e7dea7",
    ),
    ("industrial_bottom_live", True): (
        "a75fa935135352f76cf94e3a4c14950938e29997a03943c8415bb6e7d49c4d8e",
        "7718f5798e947d8c2505d06e13a4a1a751b78a8cf22941086e676b83bda89d42",
        "58897fe7ad5de9582dcf9baf8e29f1dc9ea802c225860d298eba947153e7dea7",
    ),
    ("industrial_sampled", True): (
        "5585e473996b50c6515d704ca1803c781c0182c30bdcbeb36dc415d477fca539",
        "367cb34b72d67115e92b811df25478a4ce8b3dae6f90b65f49f39ac1590e228d",
        "c52e4a4c39a10eaced13a5080a05ab93a7e188e0b039333d6e52f54a2ffd6bbe",
    ),
    ("residential_bottom_dead", False): (
        "1e9889926781d977574cfb4201414f3278916e387e939bc77bd90af3e48ecffc",
        "9c0451dbbc736687b09a8ace3b20c3acae87aeac105bd56f435611f916b1990c",
        "de2dab771e37cac6ec5407ba429bc13f9b05675a83346664b888995fdaa648ab",
    ),
    ("residential_bottom_dead", True): (
        "79034beba80bbd29d8d3caf2ea4310b82d28be59c88bff10e04bee4b300f1f61",
        "9c0451dbbc736687b09a8ace3b20c3acae87aeac105bd56f435611f916b1990c",
        "de2dab771e37cac6ec5407ba429bc13f9b05675a83346664b888995fdaa648ab",
    ),
    ("residential_bottom_live", False): (
        "644c8c70e7c66bad4fe7879f2648d42959ec6c72cbc443764ee486b9b53fdbfe",
        "8a5476c24e48574951ab3ba27935e8e82f044c097d8e0c028749c09ad361f24c",
        "2b0b22de546f5a392c793b8d1fb97b90a40e68da3bc56baae8c103b4187a0160",
    ),
    ("residential_bottom_live", True): (
        "628118cd896d254b97f644292209fc73a61edc5f90a002bd783c48b51688275f",
        "8a5476c24e48574951ab3ba27935e8e82f044c097d8e0c028749c09ad361f24c",
        "2b0b22de546f5a392c793b8d1fb97b90a40e68da3bc56baae8c103b4187a0160",
    ),
    ("residential_invalid_bridge", True): (
        "3156ec2091743a1010254ddc3a037130782f3bf43bfd352c506e76a96a48b827",
        "e4d3bed0773875ef332a150c1045e840cbcb9a0175c071c4e96b2355513ec078",
        "39ffa1488219eb9c22b9ade71809a8967181c88b0e5cf950c7c8d63d280b6afa",
    ),
    ("residential_sampled", True): (
        "43af0715b19f1547ee783bd19a54627ddaaa3950c841afd40000d5d763c6636c",
        "926dc50a78b6afbeb9693122936af559b489182f4c443bafb391e7ed9ef4269e",
        "fa89ab5010afebb9e0989046fc221cc36ab503d0f7bc15bec724c8ff0a0dd508",
    ),
}


def emit_case(case, simplified=True):
    """(params, tariff, p_star) emitted at the feasible pair of ``case``."""
    family, a0, b0, _ = EMISSION_CASES[case]
    params = residential_sqrt_params() if family == "residential_sqrt" else \
        load_config(CONFIG_DIR / f"{family}.json").params
    cfg = ScenarioConfig(params=params, simplified_tariff=simplified)
    return (params, *build_tariff_typed_h(cfg, make_feasible_pair_solution(params, a0, b0)))


@pytest.mark.parametrize("case, simplified", sorted(PINNED_EMISSION_SHA256))
def test_emission_is_pinned(case, simplified):
    """Every emission shape of both branches, at feasible pairs, is pinned
    bit for bit: a live or dead bottom component, the simplified and the full
    tariff, and the sampled emission of a single component or of a bridge
    that does not glue convexly."""
    labels = EMISSION_CASES[case][3]
    _, tariff, p_star = emit_case(case, simplified)
    full = not simplified and labels != ["sampled"]
    assert [s.label for s in tariff.segments] == labels + ["top"] * full
    cs = np.geomspace(1e-3, 10.0, 241)
    xs = np.linspace(0.0, 1.0, 201)
    digests = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                    for a in (tariff.sample(cs), p_star.values(xs), p_star.slopes(xs)))
    assert digests == PINNED_EMISSION_SHA256[case, simplified]


@pytest.mark.parametrize("case", [case for case, spec in EMISSION_CASES.items() if spec[3] == ["sampled"]])
def test_sampled_emission_is_the_dense_conjugate(case):
    """A sampled emission prices every consumption, off any grid, below
    1e-3 and past 1e3, at the dense maximum over its 2001 sampled types of
    u - p*, bit for bit."""
    params, tariff, p_star = emit_case(case)
    xg = np.linspace(0.0, 1.0, 2001)
    c = np.sort(np.concatenate([np.random.default_rng(11).uniform(1e-3, 3.0, 200), np.geomspace(1e-9, 1e5, 61)]))
    dense = _utility_surface(params, xg, c) - p_star.values(xg)[:, :, None]
    np.testing.assert_array_equal(tariff.sample(c), np.max(dense, axis=1))


@pytest.mark.parametrize("simplified", [True, False])
@pytest.mark.parametrize("case", [case for case, spec in EMISSION_CASES.items() if spec[3] != ["sampled"]])
def test_band_planes_meet_their_neighbours(case, simplified):
    """At c_bot, c_sw and c_sel each band plane prices like the segment next
    to it, within 1e-12 of max(1, |price|); the bottom plane of a dead
    bottom component starts the tariff at c = 0."""
    family, a0, b0, labels = EMISSION_CASES[case]
    params = load_config(CONFIG_DIR / f"{family}.json").params
    cfg = ScenarioConfig(params=params, simplified_tariff=simplified)
    tariff, _ = build_tariff_typed_h(cfg, make_feasible_pair_solution(params, a0, b0))
    rows = np.arange(params.time_grid.size)
    segs = tariff.segments
    band = [k for k, s in enumerate(segs) if s.label.startswith("bridge")]
    assert len(band) == 2 and all(isinstance(segs[k], TariffSegment) for k in band)
    assert band[0] > 0 or np.all(segs[0].c_lo == 0.0)
    for k in range(max(band[0] - 1, 0), band[1] + 1):
        left, right = segs[k], segs[k + 1]
        c = right.c_lo
        assert np.array_equal(left.c_hi, c)
        price_left, price_right = left.price(rows, c, params.gamma), right.price(rows, c, params.gamma)
        assert np.all(np.abs(price_left - price_right) <= 1e-12 * np.maximum(1.0, np.abs(price_left)))


@pytest.mark.parametrize("nodes", [3, 33])
@pytest.mark.parametrize("family", ["industrial_sqrt_h", "residential_log_h"])
def test_served_types_gain_nothing_by_deviating(family, nodes, tmp_path):
    """Against the emitted tariff no served type beats its p* at any time
    node by more than 1e-12 max(1, |p*|): in the band between the two
    components the price is the u-conjugate of the chord, the larger of its
    end types' planes, not a chord in c that can dip below it."""
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(dict(json.loads((CONFIG_DIR / f"{family}.json").read_text()), time_nodes=nodes)))
    config = load_config(path)
    params = config.params
    sol = solve_a0_b0_star(config)
    tariff, p_star = build_tariff_typed_h(config, sol)
    assert sol.bridge.valid
    xs = np.linspace(0.0, 1.0, 801)
    xs = xs[participation_set(p_star, params).contains(xs)]
    c_top = float(tariff.breakpoints["c_top"].max()) * 1.3
    cg = np.union1d(np.linspace(1e-6, c_top, 2001), np.geomspace(1e-6, c_top, 501))
    p = p_star.values(xs)
    achieved = np.vstack([best_responses(tariff, i, xs, cg, params, refine=True)[1] for i in range(nodes)])
    gain = float((achieved - p).max())
    assert gain <= 1e-12 * max(1.0, np.abs(p).max())


def test_degenerate_lower_collapses_structure(typed_a_solution):
    sol, tariff, _ = typed_a_solution
    assert sol.b0 == 0.0
    labels = [s.label for s in tariff.segments]
    assert "lower_selected" not in labels
    assert "selected" in labels


def test_round_trip_matches_on_participation_set(typed_a_solution, typed_a_config):
    """Each participating type's grid best response to the emitted tariff
    is worth its p*, up to twice the tariff's largest grid step."""
    sol, tariff, p_star = typed_a_solution
    params = typed_a_config.params
    c_top = float(tariff.breakpoints["c_top"].max()) * 1.3
    cg = np.linspace(0.0, c_top, 3001)
    xg = np.linspace(0, 1, 801)
    back = np.vstack([best_responses(tariff, i, xg, cg, params)[1] for i in range(params.time_grid.size)])
    part = participation_set(p_star, params)
    m = part.contains(xg)
    err = np.abs(back[:, m] - p_star.values(xg)[:, m]).max()
    bound = 2.0 * np.abs(np.diff(tariff.sample(cg), axis=1)).max()
    assert err <= bound + 1e-9


def test_participation_matches_boundaries(typed_a_solution, typed_b_solution,
                                          typed_a_config, typed_b_config):
    for (sol, _, p_star), cfg in ((typed_a_solution, typed_a_config),
                                  (typed_b_solution, typed_b_config)):
        part = participation_set(p_star, cfg.params)
        expected = []
        if sol.b0 > 0:
            expected.append((0.0, sol.b0))
        if sol.a0 < 1.0:
            expected.append((sol.a0, 1.0))
        assert len(part.intervals) == len(expected)
        for got, exp in zip(part.intervals, expected):
            assert abs(got[0] - exp[0]) <= 1e-6
            assert abs(got[1] - exp[1]) <= 1e-6


def test_p_star_convex_on_components(typed_a_solution, typed_b_solution):
    for sol, _, p_star in (typed_a_solution, typed_b_solution):
        segments = []
        if sol.b0 > 0:
            segments.append(np.linspace(0.0, sol.b0, 300))
        if sol.a0 < 1.0:
            segments.append(np.linspace(sol.a0, 1.0 - 1e-9, 300))
        for xs in segments:
            P = p_star.P_star(xs)
            slopes = np.diff(P) / np.diff(xs)
            assert np.all(np.diff(slopes) >= -1e-9 * np.maximum(1.0, np.abs(slopes[:-1])))


def test_mu_zero_residuals_small(typed_a_solution, typed_b_solution,
                                 typed_a_config, typed_b_config):
    for (sol, _, p_star), cfg in ((typed_a_solution, typed_a_config),
                                  (typed_b_solution, typed_b_config)):
        assert mu_zero_residual(sol, p_star, cfg.params) <= 1e-6


def test_mu_zero_residual_reports_nan(monkeypatch):
    """A NaN in the built surface makes the residual NaN: a running maximum
    started at 0.0 would drop it and report a perfect fit."""
    config = load_config(CONFIG_DIR / "industrial_sqrt_h.json")
    sol = solve_a0_b0_star(config)
    _, p_star = build_tariff_typed_h(config, sol)
    assert mu_zero_residual(sol, p_star, config.params) < 1e-8
    values = p_star.values

    def nan_above_a0(x):
        out = values(x)
        out[:, np.asarray(x) > sol.a0] = np.nan
        return out

    monkeypatch.setattr(p_star, "values", nan_above_a0)
    assert np.isnan(mu_zero_residual(sol, p_star, config.params))


def test_glued_surface_u_convex_under_gap_condition(typed_a_solution, typed_a_config):
    sol, _, p_star = typed_a_solution
    assert sol.assumption_flags["b0_le_a0_minus_half"]
    rep = check_u_convexity(p_star.sample(np.linspace(0, 1, 801)), typed_a_config.params)
    assert rep.is_u_convex


def test_non_convex_glue_flagged_when_gap_condition_fails():
    """With b0* > a0* - 1/2 the solver must warn that no convex glue exists."""
    from nltariff.solver_typed_h import _glued_indirect_utility

    params = shifted_sqrt_params(offset=0.1)
    a0, b0 = 0.7, 0.35  # violates the gap condition
    N = N_gamma_profile(params, a0, b0)
    levels = _levels(params.reservation, a0, b0)
    bridge = build_bridge(params, a0, b0, N, levels)
    assert not bridge.checks.get("glued_convexity", False)
    p_star = _glued_indirect_utility(params, a0, b0, N, levels, bridge)
    rep = check_u_convexity(p_star.sample(np.linspace(0, 1, 1601)), params)
    assert not rep.is_u_convex
