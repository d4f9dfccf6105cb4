"""Constant-reservation solver: closed forms against independent oracles."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nltariff.cli import load_config
from nltariff.errors import InvalidReservation
from nltariff.model import (
    ConstantReservation,
    ScenarioConfig,
    TypeDistribution,
    canonical_params,
)
from nltariff.solver_const_h import (
    ALPHA_GRID,
    B_gamma,
    alpha_objective,
    build_tariff_const_h,
    capacity_A,
    chi,
    ell_const,
    phi_objective,
    solve_x0_star,
)
from nltariff.uconvex import check_u_convexity
from tests.conftest import BENCH1, BENCH2
from tests.property_harness import continuity_gaps, shape_report


# -- ell ---------------------------------------------------------------------

def test_ell_vanishes_at_one():
    for gamma, H in [(0.5, 0.05), (-1.0, -0.1)]:
        p = canonical_params(gamma, reservation=ConstantReservation(H))
        assert ell_const(1.0, p) == pytest.approx(0.0, abs=1e-14)


def test_ell_closed_form_at_half():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    # (1-gamma) / (2 (2-gamma)) with the positive part vanishing at 1/2
    assert_allclose(ell_const(0.5, p), 0.5 / 3.0, rtol=1e-14)


def test_ell_quadrature_matches_riemann_oracle_for_linear_density():
    # f(x) = 2x: the integrand reduces to ((3x^2-1)^+)^2/(2x); the dense
    # Riemann value equals ln(3)/4 (frozen from a 4e6-node oracle)
    x = np.linspace(0.0, 1.0, 4001)
    dist = TypeDistribution.tabulated(x, 2.0 * x)
    p = canonical_params(0.5, reservation=ConstantReservation(0.05), f=dist)
    val = ell_const(0.0, p, nodes=400_001)
    assert_allclose(val, np.log(3.0) / 4.0, atol=1e-7)


# -- capacity -----------------------------------------------------------------

def test_capacity_zero_at_empty_market():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert capacity_A(0.0, 1.0, p) == 0.0


def test_capacity_closed_form_benchmark():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    # A = (1/6)^(1/3), and it must equal the aggregated optimal consumptions
    assert_allclose(capacity_A(0.0, 0.5, p), (1.0 / 6.0) ** (1.0 / 3.0), rtol=1e-12)
    cfg = ScenarioConfig(params=p)
    report = solve_x0_star(cfg)
    _, p_star = build_tariff_const_h(cfg, report)
    x0 = report.boundary["x0"]
    xs = np.linspace(x0, 1.0, 20001)
    slopes = p_star.slopes(xs)[0]
    cons = (p.gamma / (p.phi[0] * p.g.prime(xs)) * slopes) ** (1.0 / p.gamma)
    A_num = np.trapezoid(cons * p.f.pdf(xs), xs)
    assert_allclose(A_num, capacity_A(0.0, x0, p), rtol=1e-7)


# -- threshold solve -----------------------------------------------------------

def test_benchmark1_threshold_and_utility(bench1_config):
    report = solve_x0_star(bench1_config)
    assert abs(report.boundary["x0"] - BENCH1["x0"]) < 2e-7
    assert_allclose(report.principal_utility, BENCH1["U_P"], rtol=1e-9)
    assert abs(report.boundary["y0"] - BENCH1["y0"]) < 1e-7
    assert report.foc_residual <= 1e-10
    assert report.uniqueness
    assert 0.5 < report.boundary["x0"] < 1.0


def test_benchmark2_threshold_and_utility(bench2_config):
    report = solve_x0_star(bench2_config)
    assert_allclose(report.boundary["x0"], BENCH2["x0"], rtol=1e-12)
    assert_allclose(report.principal_utility, BENCH2["U_P"], rtol=1e-9)
    assert report.foc_residual <= 1e-8


def test_clamped_threshold_when_competition_vanishes():
    p = canonical_params(-1.0, reservation=ConstantReservation(-1e6))
    report = solve_x0_star(ScenarioConfig(params=p))
    assert report.boundary["x0"] == 0.0
    assert report.warnings  # corner flagged


def test_invalid_reservation_sign_raises():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    object.__setattr__(p.reservation, "H", -0.2)  # bypass constructor check
    with pytest.raises(InvalidReservation):
        solve_x0_star(ScenarioConfig(params=p))


def test_general_route_agrees_with_closed_form(bench1_config):
    closed = solve_x0_star(bench1_config)
    general_cfg = ScenarioConfig(params=bench1_config.params, force_general_route=True)
    general = solve_x0_star(general_cfg)
    assert abs(general.boundary["x0"] - closed.boundary["x0"]) < 5e-5
    assert_allclose(general.principal_utility, closed.principal_utility, rtol=1e-6)
    assert general.route == "general"


def test_general_route_agrees_residential(bench2_config):
    closed = solve_x0_star(bench2_config)
    general = solve_x0_star(ScenarioConfig(params=bench2_config.params, force_general_route=True))
    assert abs(general.boundary["x0"] - closed.boundary["x0"]) < 5e-5
    assert_allclose(general.principal_utility, closed.principal_utility, rtol=1e-6)


def test_global_maximum_audit(bench1_config, bench2_config):
    for cfg in (bench1_config, bench2_config):
        report = solve_x0_star(cfg)
        xs = np.linspace(0.0, 1.0, 10_000)
        vals = np.array([phi_objective(x, cfg.params) for x in xs])
        assert report.principal_utility >= vals.max() - 1e-10


# -- tariff -------------------------------------------------------------------

def test_full_tariff_continuous_and_shaped(bench1_config, bench2_config):
    for cfg in (bench1_config, bench2_config):
        full = ScenarioConfig(params=cfg.params, simplified_tariff=False)
        report = solve_x0_star(full)
        tariff, _ = build_tariff_const_h(full, report)
        assert len(tariff.segments) == 2
        assert continuity_gaps(tariff).max() <= 1e-9
        shape = shape_report(tariff)
        assert shape["nondecreasing"] and shape["concave"]


def test_tariff_slope_positive(bench1_solution, bench2_solution):
    for _, tariff, _ in (bench1_solution, bench2_solution):
        for i in range(tariff.time_grid.size):
            _, p2, _ = tariff.coefficients_at(i, label="selected")
            assert p2 > 0.0


def test_residential_fixed_charge_formula(bench2_solution, bench2_config):
    report, tariff, _ = bench2_solution
    params = bench2_config.params
    Mh = tariff.meta["M_hat"]
    x0 = report.boundary["x0"]
    H = params.reservation.H
    for i in range(params.time_grid.size):
        expect = -H / params.horizon - Mh[i] * (1.0 - x0) ** (1.0 / (1.0 - params.gamma))
        got = float(tariff.price(i, np.asarray([1e-12]))[0])
        assert_allclose(got, expect, rtol=1e-10)


def test_indirect_utility_binds_at_threshold(bench1_solution, bench2_solution):
    for report, _, p_star in (bench1_solution, bench2_solution):
        x0 = report.boundary["x0"]
        P = p_star.P_star(np.asarray([x0]))[0]
        H = 0.05 if p_star.meta["branch"] == "industrial" else -0.1
        assert_allclose(P, H, atol=1e-8)


def test_built_p_star_is_u_convex(bench1_solution, bench2_solution, bench1_config, bench2_config):
    for (report, tariff, p_star), cfg in ((bench1_solution, bench1_config),
                                          (bench2_solution, bench2_config)):
        c_top = float(tariff.breakpoints["c_hat"].max()) * 1.3
        c_grid = (np.linspace(0.0, c_top, 801) if cfg.params.gamma > 0
                  else np.geomspace(c_top * 1e-5, c_top, 801))
        rep = check_u_convexity(p_star.sample(np.linspace(0, 1, 801)), cfg.params, c_grid=c_grid)
        assert rep.is_u_convex


def test_informational_rent_nondecreasing(bench1_solution, bench2_solution):
    for report, _, p_star in (bench1_solution, bench2_solution):
        x0 = report.boundary["x0"]
        xs = np.linspace(x0, 1.0, 500)
        rent = p_star.P_star(xs)  # H constant: monotone rent iff monotone P*
        assert np.all(np.diff(rent) >= -1e-12)


def test_simplified_and_full_equilibria_match(bench1_config):
    """The replaced top region is never selected, so equilibrium outcomes
    are identical between the simplified and full tariffs."""
    from nltariff.evaluation import principal_utility

    report = solve_x0_star(bench1_config)
    simple_t, p_star = build_tariff_const_h(bench1_config, report)
    full_cfg = ScenarioConfig(params=bench1_config.params, simplified_tariff=False)
    full_t, _ = build_tariff_const_h(full_cfg, report)
    up_simple = principal_utility(simple_t, bench1_config.params, p_star=p_star)
    up_full = principal_utility(full_t, bench1_config.params, p_star=p_star)
    assert_allclose(up_simple, up_full, rtol=1e-12)
    # on the selected range the two price schedules coincide
    cs = np.linspace(0.0, float(simple_t.breakpoints["c_hat"][0]), 101)
    assert_allclose(simple_t.price(0, cs), full_t.price(0, cs), rtol=1e-12)


def test_chi_signs_bracket_the_root(bench1_config):
    params = bench1_config.params
    assert chi(1e-12, params) > 0.0
    assert chi(1.0 - 1e-9, params) < 0.0


def test_B_gamma_signs():
    p_pos = canonical_params(0.5, reservation=ConstantReservation(0.05))
    p_neg = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    assert B_gamma(p_pos) > 0.0
    assert B_gamma(p_neg) < 0.0
    assert_allclose(B_gamma(p_pos), 1.5, rtol=1e-12)
    assert_allclose(B_gamma(p_neg), -1.5, rtol=1e-12)


def test_uniqueness_flag_cleared_for_wavy_density():
    """Non-monotone density breaks the sufficient uniqueness condition; the
    solver still returns the grid-refined maximizer but says so."""
    xs = np.linspace(0.0, 1.0, 801)
    dens = 1.0 + 0.3 * np.sin(4.0 * np.pi * xs)
    dist = TypeDistribution.tabulated(xs, dens)
    p = canonical_params(0.5, reservation=ConstantReservation(0.05), f=dist, time_nodes=3)
    report = solve_x0_star(ScenarioConfig(params=p))
    assert report.route == "general"
    assert not report.uniqueness
    assert report.warnings
    # the returned point is still the best on a fresh audit grid
    audit = max(alpha_objective(x, p) for x in np.linspace(0.0, 1.0, 400))
    assert report.principal_utility >= audit - 1e-6


def test_general_route_with_tabulated_cost_matches_power(bench1_config):
    from nltariff.model import ModelParams, TabulatedCost, TasteMap, TypeDistribution

    closed = solve_x0_star(bench1_config)
    cs = np.geomspace(1e-8, 20.0, 6000)
    table = TabulatedCost.from_samples(cs, cs ** 2 / 2.0, cs)
    base = bench1_config.params
    tabbed = ModelParams(
        gamma=base.gamma, horizon=base.horizon, time_grid=base.time_grid,
        phi=base.phi, k=base.k, n=None, cost_table=table,
        g=base.g, f=base.f, reservation=base.reservation,
    )
    general = solve_x0_star(ScenarioConfig(params=tabbed))
    assert abs(general.boundary["x0"] - closed.boundary["x0"]) < 1e-3
    assert abs(general.principal_utility - closed.principal_utility) < 1e-4


ROOT = Path(__file__).resolve().parent.parent


def _coarse_mix_cost_table_params(tmp_path, power):
    """The cost-table request of the benchmark's seed-1 coarse_mix stream, or
    its twin with the family's power cost in place of the table."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = next(r.config for r in workloads.build("coarse_mix", ROOT, 1) if r.name.endswith("-cost_table"))
    if power:
        del doc["cost_table"]
        doc["n"] = json.loads((ROOT / "configs" / "residential_constant_h.json").read_text())["n"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return load_config(path).params


@pytest.mark.parametrize("power", [False, True], ids=["table", "power"])
def test_alpha_objective_on_the_grid_matches_the_per_threshold_loop(power, tmp_path):
    params = _coarse_mix_cost_table_params(tmp_path, power)
    assert params.is_power_cost == power
    xs = np.linspace(0.0, 1.0, ALPHA_GRID)
    grid = alpha_objective(xs, params)
    loop = np.array([alpha_objective(x, params) for x in xs])
    np.testing.assert_array_equal(grid.view(np.uint64), loop.view(np.uint64))
