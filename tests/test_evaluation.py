"""Principal-utility evaluation and the integrated-by-parts objective."""
import numpy as np
from numpy.testing import assert_allclose

from nltariff.agent import IndirectUtility, ParticipationSet, participation_set
from nltariff.model import ConstantReservation, ScenarioConfig, canonical_params
from nltariff.solver_const_h import build_tariff_const_h, sampled_tariff, solve_x0_star
from nltariff.tariff import Tariff, TariffSegment
from tests.referee import principal_utility, relaxed_objective


def test_empty_participation_earns_nothing():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    nt = params.time_grid.size
    seg = TariffSegment(c_lo=np.zeros(nt), c_hi=np.full(nt, np.inf),
                        p1=np.zeros(nt), p2=np.ones(nt), p3=np.full(nt, 10.0),
                        label="selected")
    tariff = Tariff(gamma=0.5, time_grid=params.time_grid, segments=[seg])
    p_star = IndirectUtility.from_callables(
        params.time_grid,
        lambda x: np.full((nt, np.asarray(x).size), -10.0),
        lambda x: np.zeros((nt, np.asarray(x).size)),
    )
    assert principal_utility(tariff, params, p_star=p_star) == 0.0


def test_quadrature_matches_closed_form_industrial(bench1_solution, bench1_config):
    report, tariff, p_star = bench1_solution
    up = principal_utility(tariff, bench1_config.params, p_star=p_star)
    assert abs(up - report.principal_utility) / report.principal_utility < 1e-4


def test_quadrature_matches_closed_form_residential(bench2_solution, bench2_config):
    report, tariff, p_star = bench2_solution
    up = principal_utility(tariff, bench2_config.params, p_star=p_star, type_nodes=1600)
    assert abs(up - report.principal_utility) / abs(report.principal_utility) < 1e-4


def test_grid_mode_agrees_with_closed_form_mode(bench1_solution, bench1_config):
    report, tariff, p_star = bench1_solution
    c_top = float(tariff.breakpoints["c_top"].max()) * 1.3
    grid = np.linspace(0.0, c_top, 1500)
    up_grid = principal_utility(tariff, bench1_config.params, p_star=p_star, c_grid=grid)
    assert abs(up_grid - report.principal_utility) / report.principal_utility < 1e-4


def test_doubling_cost_scale_strictly_decreases_profit():
    base = canonical_params(0.5, reservation=ConstantReservation(0.05), time_nodes=3)
    doubled = canonical_params(0.5, k=2.0, reservation=ConstantReservation(0.05), time_nodes=3)
    ups = []
    for params in (base, doubled):
        cfg = ScenarioConfig(params=params)
        report = solve_x0_star(cfg)
        tariff, p_star = build_tariff_const_h(cfg, report)
        ups.append(principal_utility(tariff, params, p_star=p_star))
    assert ups[1] < ups[0]


def test_flat_indirect_utility_keeps_only_boundary_term():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05), time_nodes=3)
    nt = params.time_grid.size
    x0 = 0.6
    p_star = IndirectUtility.from_callables(
        params.time_grid,
        lambda x: np.full((nt, np.asarray(x).size), 0.05 / params.horizon),
        lambda x: np.zeros((nt, np.asarray(x).size)),
    )
    boundary = ParticipationSet(intervals=((x0, 1.0),))
    val = relaxed_objective(p_star, boundary, params)
    assert_allclose(val, (x0 - 1.0) * 0.05, atol=1e-12)


def test_relaxed_objective_reproduces_reduced_value(bench1_solution, bench2_solution,
                                                    bench1_config, bench2_config):
    for (report, _, p_star), cfg in ((bench1_solution, bench1_config),
                                     (bench2_solution, bench2_config)):
        part = participation_set(p_star, cfg.params)
        val = relaxed_objective(p_star, part, cfg.params, type_nodes=3000)
        assert abs(val - report.principal_utility) / abs(report.principal_utility) < 1e-4


def test_relaxed_objective_consistent_with_priced_transform(bench1_solution, bench1_config):
    """Conjugate the optimal indirect utility into a price schedule and price
    it independently: both routes value the contract the same."""
    _, _, p_star = bench1_solution
    params = bench1_config.params
    conjugate = sampled_tariff(bench1_config, p_star.sample(np.linspace(0.0, 1.0, 3001)), {})
    up = principal_utility(conjugate, params, p_star=p_star)
    part = participation_set(p_star, params)
    rel = relaxed_objective(p_star, part, params)
    assert abs(up - rel) / abs(rel) < 5e-3


def test_profit_invariant_to_prices_outside_selected_range(bench1_solution, bench1_config):
    """Raising the tariff above the selected band changes nothing."""
    report, tariff, p_star = bench1_solution
    params = bench1_config.params
    nt = params.time_grid.size
    base = principal_utility(tariff, params, p_star=p_star)
    c_top = tariff.breakpoints["c_top"]
    sel = tariff.segments[0]
    bumped = Tariff(
        gamma=params.gamma, time_grid=params.time_grid,
        segments=[
            TariffSegment(c_lo=sel.c_lo, c_hi=c_top, p1=sel.p1, p2=sel.p2, p3=sel.p3,
                          label="selected"),
            TariffSegment(c_lo=c_top, c_hi=np.full(nt, np.inf), p1=sel.p1, p2=sel.p2,
                          p3=sel.p3 + 5.0, label="expensive top"),
        ],
        selected_range=tariff.selected_range,
    )
    up = principal_utility(bumped, params, p_star=p_star)
    assert_allclose(up, base, rtol=1e-12)


def test_first_order_perturbation_audit(bench1_solution, bench1_config):
    """No nondecreasing perturbation direction improves the objective."""
    report, _, p_star = bench1_solution
    params = bench1_config.params
    xg = np.linspace(0.0, 1.0, 2001)
    base_surface = p_star.values(xg)
    sampled = IndirectUtility.from_samples(params.time_grid, xg, base_surface)
    part = participation_set(p_star, params)
    base_val = relaxed_objective(sampled, part, params)
    rng = np.random.RandomState(42)
    eps = 1e-4
    for _ in range(20):
        knots = np.sort(np.concatenate([[0.0, 1.0], rng.rand(4)]))
        levels = np.cumsum(rng.rand(knots.size))
        q = np.interp(xg, knots, levels / levels.max())
        pert = IndirectUtility.from_samples(params.time_grid, xg,
                                            base_surface + eps * q[None, :])
        val = relaxed_objective(pert, part, params)
        assert val <= base_val + 1e-8
