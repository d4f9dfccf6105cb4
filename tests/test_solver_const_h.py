"""Constant-reservation solver: closed forms against independent oracles."""
import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nltariff.agent import participation_set
from nltariff.cli import load_config
from nltariff.closed_form import B_gamma
from nltariff import solver_const_h
from nltariff.errors import InvalidReservation
from nltariff.model import (
    ConstantReservation,
    ScenarioConfig,
    Table,
    canonical_params,
    g_K_inverse,
)
from nltariff.solver_const_h import (
    ALPHA_GRID,
    A_gamma,
    alpha_objective,
    beta_fn,
    build_tariff_const_h,
    capacity_A,
    chi,
    ell_const,
    solve_x0_star,
)
from nltariff.uconvex import _utility_surface, check_u_convexity
from tests.conftest import BENCH1, BENCH2, varying_profile_params
from tests.property_harness import continuity_gaps, shape_report
from tests.referee import best_responses


# -- reference: the paper's explicit constant-H formulas ------------------------
# The closed-form route emits the one-component case [x0, 1] of the typed
# closed forms. These are the explicit formulas of the paper it replaced,
# kept as an independent reference.

def phi_objective(x0, params):
    """Reduced objective Phi(x0) = B ell^(n(1-gamma)/(n-gamma)) + (x0 - 1) H."""
    g, n = params.gamma, params.n
    return B_gamma(params) * ell_const(x0, params) ** (n * (1.0 - g) / (n - g)) + (x0 - 1.0) * params.reservation.H


def M_profile(params, x0):
    """Nonlinear-part scale M(t) on the industrial branch."""
    g, n = params.gamma, params.n
    y0q = max(2.0 * x0 - 1.0, 0.0) ** ((2.0 - g) / (1.0 - g))
    e = g * (n - 1.0) / (n - g)
    w = (params.phi ** n / params.k ** g) ** (1.0 / (n - g))
    return (1.0 - g) / (2.0 * g) * (2.0 * (2.0 - g) / (1.0 - g)) ** e * w * (1.0 - y0q) ** (-e)


def M_hat_profile(params, x0):
    """Linear-tariff scale on the residential branch (positive)."""
    g, n = params.gamma, params.n
    e = g * (n - 1.0) / (n - g)
    return (-(1.0 - g) / g * ((2.0 - g) / (1.0 - g)) ** e
            * (2.0 ** g * params.phi ** n / params.k ** g) ** (1.0 / (n - g))
            * (1.0 - x0) ** (-g * (2.0 - g) * (n - 1.0) / ((n - g) * (1.0 - g))))


def reference_closed_form(params, x0, xs):
    """The explicit full tariff at threshold x0: rows (p1, p2, p3, c_lo, c_hi)
    per segment, the selected band, and p* with its slope on the types xs.
    p*(t, x) = s + K (u(x)^m - u(x0)^m) with u = (2x - 1)^+, K = M on the
    industrial branch and u = 1 - x, K = -M_hat on the residential one."""
    g, phi, nt = params.gamma, params.phi, params.time_grid.size
    m = 1.0 / (1.0 - g)
    s = np.full(nt, params.reservation.H / params.horizon)
    u = (lambda x: np.maximum(2.0 * x - 1.0, 0.0)) if g > 0 else (lambda x: 1.0 - x)
    q0 = u(x0) ** m
    if g > 0:
        K = M_profile(params, x0)
        dK = K * (2.0 / (1.0 - g))
        c_hat = (2.0 * g * K / ((1.0 - g) * phi)) ** (1.0 / g)
        p1 = phi / (2.0 * g)
        p2 = (phi / 2.0) * ((1.0 - g) * phi / (2.0 * g * K)) ** ((1.0 - g) / g)
        band = [c_hat * q0, c_hat]
    else:
        Mh = M_hat_profile(params, x0)
        K, dK = -Mh, Mh / (1.0 - g)
        c_hat = (-g * Mh / (phi * (1.0 - g))) ** (1.0 / g)
        p1 = np.zeros(nt)
        p2 = phi * (-(phi * (1.0 - g)) / (g * Mh)) ** ((1.0 - g) / g)
        band = [np.zeros(nt), c_hat * q0]
    segments = [(p1, p2, K * q0 - s, np.zeros(nt), c_hat),
                (phi / g, np.zeros(nt), K * q0 - K - s, c_hat, np.full(nt, np.inf))]
    values = s[:, None] + K[:, None] * (u(xs) ** m - q0)
    with np.errstate(divide="ignore"):
        slopes = dK[:, None] * u(xs) ** (g / (1.0 - g))
    return segments, np.column_stack(band), values, slopes


def _const_h_cases(count=200, seed=20261018):
    """Seeded canonical configs with time-varying phi and k, plus the corners
    industrial H = 0 (x0 = 1/2) and residential H = -1e6 (x0 clamped to 0)."""
    rng = np.random.default_rng(seed)
    cases = [canonical_params(0.5, reservation=ConstantReservation(0.0), time_nodes=3),
             canonical_params(-1.0, reservation=ConstantReservation(-1e6), time_nodes=3)]
    for i in range(count - len(cases)):
        industrial = i % 2 == 0
        gamma = rng.uniform(0.05, 0.95) if industrial else rng.uniform(-4.0, -0.1)
        nodes = (3, 9, 33)[i % 3]
        p = canonical_params(gamma, n=rng.uniform(1.2, 5.0), phi=rng.uniform(0.5, 1.5, nodes),
                             k=rng.uniform(0.5, 1.5, nodes), time_nodes=nodes)
        H = B_gamma(p) * (rng.uniform(0.01, 0.9) if industrial else rng.uniform(0.01, 2.0))
        cases.append(canonical_params(gamma, n=p.n, phi=p.phi, k=p.k, time_nodes=nodes,
                                      reservation=ConstantReservation(H)))
    return cases


def _assert_close(got, ref, what):
    got, ref = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(ref, dtype=float))
    with np.errstate(invalid="ignore"):
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    ok = (got == ref) | (err <= 1e-14)
    assert ok.all(), f"{what}: worst scaled difference {np.nanmax(np.where(ok, 0.0, err)):.3g}"


def test_closed_form_route_matches_the_explicit_formulas():
    """The one-component typed core reproduces the paper's explicit profit,
    full tariff and p* within 1e-14 max(1, |ref|)."""
    xs = np.linspace(0.0, 1.0, 201)
    for params in _const_h_cases():
        cfg = ScenarioConfig(params=params, simplified_tariff=False)
        report = solve_x0_star(cfg)
        x0 = report.boundary["x0"]
        _assert_close(report.principal_utility, phi_objective(x0, params), "principal utility")
        tariff, p_star = build_tariff_const_h(cfg, report)
        segments, band, values, slopes = reference_closed_form(params, x0, xs)
        assert len(tariff.segments) == len(segments)
        for seg, ref in zip(tariff.segments, segments):
            for name, r in zip(("p1", "p2", "p3", "c_lo", "c_hi"), ref):
                _assert_close(getattr(seg, name), r, f"{seg.label} {name}")
        # a zero coefficient is +0.0, so report.json never prints -0.0
        assert not np.signbit(tariff.segments[0].p1).any()
        _assert_close(tariff.selected_range[0], band, "selected range")
        _assert_close(p_star.values(xs), values, "p* values")
        _assert_close(p_star.slopes(xs), slopes, "p* slopes")


# -- ell ---------------------------------------------------------------------

def test_ell_vanishes_at_one():
    for gamma, H in [(0.5, 0.05), (-1.0, -0.1)]:
        p = canonical_params(gamma, reservation=ConstantReservation(H))
        assert ell_const(1.0, p) == pytest.approx(0.0, abs=1e-14)


def test_ell_closed_form_at_half():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    # (1-gamma) / (2 (2-gamma)) with the positive part vanishing at 1/2
    assert_allclose(ell_const(0.5, p), 0.5 / 3.0, rtol=1e-14)


def test_ell_quadrature_matches_riemann_oracle_for_linear_density(monkeypatch):
    # f(x) = 2x: the integrand reduces to ((3x^2-1)^+)^2/(2x); the dense
    # Riemann value equals ln(3)/4 (frozen from a 4e6-node oracle)
    x = np.linspace(0.0, 1.0, 4001)
    dist = Table.from_density(x, 2.0 * x)
    p = canonical_params(0.5, reservation=ConstantReservation(0.05), f=dist)
    monkeypatch.setattr(solver_const_h, "ELL_NODES", 400_001)
    val = ell_const(0.0, p)
    assert_allclose(val, np.log(3.0) / 4.0, atol=1e-7)


def quadrature_params(gamma, off):
    """A setting whose ell takes the quadrature: a tilted tabulated density,
    or uniform types with a tabulated cost."""
    if off == "f":
        x = np.linspace(0.0, 1.0, 257)
        return canonical_params(gamma, f=Table.from_density(x, 1.0 + 0.2 * (x - 0.5)))
    c = np.linspace(0.0, 20.0, 401)
    return dataclasses.replace(canonical_params(gamma), n=None,
                               cost_table=Table("cost_table", c, c ** 2 / 2, c))


def dense_ell(x0, params, nodes=200_001):
    """ell(x0) one threshold at a time, by the trapezoid on a grid of [x0, 1]
    graded toward x = 1: within about 5e-11 relative of the integral on
    both branches."""
    if x0 >= 1.0:
        return 0.0
    xs = x0 + (1.0 - x0) * (1.0 - np.linspace(1.0, 0.0, nodes) ** 2)
    return float(np.trapezoid(np.maximum(beta_fn(xs, params), 0.0) ** (1.0 / (1.0 - params.gamma)), xs))


@pytest.mark.parametrize("off", ["f", "cost_table"])
@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_ell_table_matches_a_dense_reference(gamma, off):
    """The shared table's trapezoid errs as O(h^2) with cells h <= 1e-4, so
    by at most 1e-8 relative (5e-9 measured). On the residential branch the
    integrand's square-root end at x = 1 spans a few graded cells when x0
    is within about 2% of 1, where the error stays below 1e-10 absolute
    (6e-11 measured). ell_const, the reported value, integrates [x0, 1] on
    a uniform grid: O(h^2) on the industrial branch, O(h^1.5) at the
    residential square-root end (1.1e-7 relative measured)."""
    p = quadrature_params(gamma, off)
    x0 = np.concatenate([np.linspace(0.0, 1.0, 21), [0.5 + 1e-15, 0.975, 1.0 - 1e-6, 1.0 - 1e-12]])
    ref = np.array([dense_ell(x, p) for x in x0])
    table = solver_const_h.ell_table(p)(x0)
    assert np.all(np.abs(table - ref) <= 1e-8 * ref + 1e-10)
    assert table[x0 == 1.0][0] == 0.0
    inner = x0 <= 0.9
    assert_allclose(ell_const(x0[inner], p), ref[inner], rtol=1e-8 if gamma > 0 else 2e-7)


@pytest.mark.parametrize("off", ["f", "cost_table"])
@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_general_solve_evaluates_the_integrand_on_a_bounded_budget(gamma, off, monkeypatch):
    """A general solve and its tariff build evaluate beta once for the ell
    table, once per threshold scored on it (1,024 scanned, about 40 in the
    golden search and the residual), once for the reported ell(x0) and once
    for the uniqueness check: under 45,000 points, where integrating ell
    afresh per threshold took over two million."""
    p = quadrature_params(gamma, off)
    points = []
    beta = solver_const_h.beta_fn
    monkeypatch.setattr(solver_const_h, "beta_fn", lambda x, params: points.append(np.size(x)) or beta(x, params))
    config = ScenarioConfig(params=p)
    report = solve_x0_star(config)
    build_tariff_const_h(config, report)
    assert report.route == "general"
    assert 2 * solver_const_h.ELL_NODES + ALPHA_GRID < sum(points) <= 45_000


# -- capacity -----------------------------------------------------------------

def test_capacity_zero_at_empty_market():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert np.all(capacity_A(ell_const(1.0, p), p) == 0.0)


def test_capacity_closed_form_benchmark():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    # A = (1/6)^(1/3), and it must equal the aggregated optimal consumptions
    assert_allclose(capacity_A(ell_const(0.5, p), p), (1.0 / 6.0) ** (1.0 / 3.0), rtol=1e-12)
    cfg = ScenarioConfig(params=p)
    report = solve_x0_star(cfg)
    _, p_star = build_tariff_const_h(cfg, report)
    x0 = report.boundary["x0"]
    xs = np.linspace(x0, 1.0, 20001)
    slopes = p_star.slopes(xs)[0]
    cons = (p.gamma / (p.phi[0] * p.g.prime(xs)) * slopes) ** (1.0 / p.gamma)
    A_num = np.trapezoid(cons * p.f.prime(xs), xs)
    assert_allclose(A_num, capacity_A(ell_const(x0, p), p)[0], rtol=1e-7)


@pytest.mark.parametrize("gamma", [0.5, -1.0])
@pytest.mark.parametrize("tabulated", [False, True], ids=["power", "tabulated"])
def test_capacity_on_time_varying_profiles_matches_node_by_node(gamma, tabulated):
    """capacity_A on a threshold grid equals, bit for bit, the capacity
    computed one time node at a time from that node's phi and k."""
    p = varying_profile_params(gamma, tabulated)
    ell = ell_const(np.linspace(0.0, 1.0, 12), p)
    ref = np.empty((ell.size, p.time_grid.size))
    for i in range(p.time_grid.size):
        # one-node slices keep the array pow of the kernel
        phi, k = p.phi[i:i + 1], p.k[i:i + 1]
        if tabulated:
            ref[:, i] = g_K_inverse(ell * phi ** (1.0 / (1.0 - gamma)), p)
        else:
            ref[:, i] = ell ** ((1.0 - gamma) / (p.n - gamma)) * (phi / k) ** (1.0 / (p.n - gamma))
    got = capacity_A(ell, p)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


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


@pytest.mark.parametrize("gamma", [0.5, 0.9])
@pytest.mark.parametrize("H", [1e-20, 1e-200])
def test_industrial_threshold_below_the_bracket_end_is_its_first_order_root(gamma, H):
    """Below chi's bracket end the root y0 is tiny and chi is linear in it,
    H = C y0 with C = 2 n A_gamma (2-gamma)/(n-gamma): x0 is the first-order
    root, however small y0 is."""
    p = canonical_params(gamma, reservation=ConstantReservation(H))
    assert chi(1e-12, p) < 0
    C = 2.0 * p.n * A_gamma(p) * (2.0 - gamma) / (p.n - gamma)
    x0 = solve_x0_star(ScenarioConfig(params=p)).boundary["x0"]
    assert abs(x0 - 0.5 * ((H / C) ** (1.0 - gamma) + 1.0)) <= 1e-15


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
    Mh = -tariff.meta["N"]
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
    for (_, _, p_star), cfg in ((bench1_solution, bench1_config),
                                (bench2_solution, bench2_config)):
        rep = check_u_convexity(p_star.sample(np.linspace(0, 1, 801)), cfg.params)
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
    from tests.referee import principal_utility

    report = solve_x0_star(bench1_config)
    simple_t, p_star = build_tariff_const_h(bench1_config, report)
    full_cfg = ScenarioConfig(params=bench1_config.params, simplified_tariff=False)
    full_t, _ = build_tariff_const_h(full_cfg, report)
    up_simple = principal_utility(simple_t, bench1_config.params, p_star=p_star)
    up_full = principal_utility(full_t, bench1_config.params, p_star=p_star)
    assert_allclose(up_simple, up_full, rtol=1e-12)
    # on the selected range the two price schedules coincide
    cs = np.linspace(0.0, float(simple_t.breakpoints["c_top"][0]), 101)
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


@pytest.mark.parametrize("solution", ["bench1_solution", "bench2_solution"])
def test_conjugate_segment_on_tiled_knots_is_the_price_transform(solution, request):
    """The forced general route's sampled tariff prices every consumption,
    off any grid, below 1e-4 and past 1e3, at the dense price transform of
    its p* (the maximum over the 2001 sampled types of u - p*) bit for bit,
    on both branches."""
    config = request.getfixturevalue(solution.replace("solution", "config"))
    config = dataclasses.replace(config, force_general_route=True)
    tariff, p_star = build_tariff_const_h(config, solve_x0_star(config))
    samples = p_star.sample()
    rng = np.random.default_rng(7)
    c = np.sort(np.concatenate([rng.uniform(1e-3, 3.0, 300), np.geomspace(1e-9, 1e5, 81)]))
    dense = _utility_surface(config.params, samples.x_grid, c) - samples.values[:, :, None]
    assert tariff.sample(c).tobytes() == np.max(dense, axis=1).tobytes()


def test_uniqueness_flag_cleared_for_wavy_density():
    """Non-monotone density breaks the sufficient uniqueness condition; the
    solver still returns the grid-refined maximizer but says so."""
    xs = np.linspace(0.0, 1.0, 801)
    dens = 1.0 + 0.3 * np.sin(4.0 * np.pi * xs)
    dist = Table.from_density(xs, dens)
    p = canonical_params(0.5, reservation=ConstantReservation(0.05), f=dist, time_nodes=3)
    report = solve_x0_star(ScenarioConfig(params=p))
    assert report.route == "general"
    assert not report.uniqueness
    assert report.warnings
    # the returned point is still the best on a fresh audit grid
    audit = max(alpha_objective(x, p) for x in np.linspace(0.0, 1.0, 400))
    assert report.principal_utility >= audit - 1e-6


def test_general_route_with_tabulated_cost_matches_power(bench1_config):
    from nltariff.model import ModelParams, Table

    closed = solve_x0_star(bench1_config)
    cs = np.geomspace(1e-8, 20.0, 6000)
    table = Table("cost_table", cs, cs ** 2 / 2.0, cs)
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


def _general_config(tmp_path, family, cost_table):
    """A shipped constant-H config on the forced general route at 3 nodes,
    or with its power cost c^n / n tabulated (which goes general anyway)."""
    doc = json.loads((ROOT / "configs" / f"{family}.json").read_text())
    if cost_table:
        n = doc.pop("n")
        c = np.linspace(0.0, 20.0, 401)
        doc["k"] = 1.0
        doc["cost_table"] = {"c": c.tolist(), "K": (c ** n / n).tolist(), "marginal": (c ** (n - 1.0)).tolist()}
    else:
        doc["solver"] = {"force_general_route": True}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(doc, time_nodes=3)))
    return load_config(path)


@pytest.mark.parametrize("family, cost_table", [("industrial_constant_h", False), ("residential_constant_h", False),
                                                ("residential_constant_h", True)],
                         ids=["industrial-forced", "residential-forced", "residential-cost_table"])
def test_general_route_types_gain_nothing_by_deviating(family, cost_table, tmp_path):
    """Each of 801 types best-responds to the sampled tariff on consumptions
    up to 1e4. No served type beats its p* at any time node by more than
    1e-12 max(1, |p*|), and no excluded type more than 1e-8 from an interval
    end beats H over the horizon. A tariff interpolated linearly in c
    between knots, and held flat above 1e3, let the top industrial types
    gain 0.349."""
    config = _general_config(tmp_path, family, cost_table)
    params = config.params
    report = solve_x0_star(config)
    assert report.route == "general"
    tariff, p_star = build_tariff_const_h(config, report)
    xs = np.linspace(0.0, 1.0, 801)
    cg = np.union1d(np.linspace(1e-6, 20.0, 2001), np.geomspace(1e-6, 1e4, 1001))
    achieved = np.vstack([best_responses(tariff, i, xs, cg, params, refine=True)[1]
                          for i in range(params.time_grid.size)])
    part = participation_set(p_star, params)
    served = part.contains(xs)
    p = p_star.values(xs)
    assert served.any()
    assert (achieved - p)[:, served].max() <= 1e-12 * max(1.0, np.abs(p).max())
    ends = np.array([end for interval in part.intervals for end in interval])
    far = ~served & (np.min(np.abs(xs[:, None] - ends[None, :]), axis=1) > 1e-8)
    assert far.any()
    assert np.all(np.trapezoid(achieved[:, far], params.time_grid, axis=0) <= params.reservation(xs[far]))
