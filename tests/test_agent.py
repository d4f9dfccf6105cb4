"""Consumer best responses and participation structure."""
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nltariff.agent import (
    IndirectUtility,
    ParticipationSet,
    best_response_grid,
    participation_set,
)
from nltariff.errors import DomainError
from nltariff.evaluation import consumption_from_slopes
from nltariff.model import ConstantReservation, canonical_params
from nltariff.tariff import Tariff, TariffSegment


def flat_slope_utility(params, slope):
    nt = params.time_grid.size
    return IndirectUtility.from_callables(
        params.time_grid,
        lambda x: np.tile(slope * np.asarray(x), (nt, 1)),
        lambda x: np.full((nt, np.asarray(x).size), slope),
    )


def envelope_consumption(p_star, xs, params):
    """c*(t_0, x) on the types xs from the envelope formula."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return consumption_from_slopes(p_star.slopes(xs), xs, params)[0]


def linear_tariff(params, p2, p3=0.0):
    nt = params.time_grid.size
    seg = TariffSegment(
        c_lo=np.zeros(nt), c_hi=np.full(nt, np.inf),
        p1=np.zeros(nt), p2=np.full(nt, p2), p3=np.full(nt, p3), label="selected",
    )
    return Tariff(gamma=params.gamma, time_grid=params.time_grid, segments=[seg])


def test_zero_marginal_rent_means_zero_consumption_industrial():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    p_star = flat_slope_utility(params, 0.0)
    assert envelope_consumption(p_star, 0.3, params)[0] == 0.0


def test_unit_slope_residential_example():
    params = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    p_star = flat_slope_utility(params, 1.0)
    # c* = ((-1 / -1) * 1)^(1/-1) = 1
    assert_allclose(envelope_consumption(p_star, 0.4, params), 1.0)


def test_zero_slope_residential_flags_nonparticipation():
    # consumption would diverge, so the type cannot be a participating one:
    # the kernel gives it consumption 0, as consumption.csv writes it
    params = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    p_star = flat_slope_utility(params, 0.0)
    assert envelope_consumption(p_star, 0.4, params)[0] == 0.0


def test_linear_tariff_analytic_best_response():
    # gamma=-1, phi=1, x=0: optimum c = (phi (1-x) / p2)^(1/(1-gamma)) = 0.5 for p2=4
    params = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    tariff = linear_tariff(params, p2=4.0)
    grid = np.geomspace(1e-4, 10.0, 4001)
    c_opt, _ = best_response_grid(tariff, 0, 0.0, grid, params)
    step = np.max(np.diff(grid[(grid > 0.4) & (grid < 0.6)]))
    assert abs(c_opt - 0.5) <= step
    c_ref, _ = best_response_grid(tariff, 0, 0.0, grid, params, refine=True)
    assert_allclose(c_ref, 0.5, atol=1e-9)


def test_free_power_maxes_out_grid():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    tariff = linear_tariff(params, p2=0.0)
    grid = np.linspace(0.0, 7.0, 500)
    c_opt, _ = best_response_grid(tariff, 0, 0.8, grid, params)
    assert c_opt == grid[-1]


def test_closed_form_vs_grid_at_benchmark(bench1_solution, bench1_config):
    report, tariff, p_star = bench1_solution
    params = bench1_config.params
    grid = np.linspace(0.0, float(tariff.breakpoints["c_top"].max()) * 1.3, 3001)
    c_cf = envelope_consumption(p_star, 0.9, params)[0]
    c_gr, value = best_response_grid(tariff, 0, 0.9, grid, params, refine=True)
    assert abs(c_cf - c_gr) <= np.diff(grid).max()
    # achieved value equals the indirect utility after refinement
    assert_allclose(value, p_star.values(np.asarray([0.9]))[0, 0], atol=1e-6)


def test_envelope_identity_on_participation_set(bench1_solution, bench1_config):
    report, tariff, p_star = bench1_solution
    params = bench1_config.params
    xs = np.linspace(report.boundary["x0"] + 1e-6, 1.0, 41)
    c = envelope_consumption(p_star, xs, params)
    u = params.g(xs) * params.phi[0] * c ** params.gamma / params.gamma
    assert np.all(np.abs(tariff.price(0, c) - (u - p_star.values(xs)[0])) <= 1e-8)


# -- participation ----------------------------------------------------------

def test_participation_empty_when_everyone_prefers_outside():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    nt = params.time_grid.size
    p_star = IndirectUtility.from_callables(
        params.time_grid,
        lambda x: np.full((nt, np.asarray(x).size), (0.05 - 1.0) / params.horizon),
        lambda x: np.zeros((nt, np.asarray(x).size)),
    )
    ps = participation_set(p_star, params)
    assert ps.empty


def test_participation_direct_crossing():
    params = canonical_params(0.5, reservation=ConstantReservation(0.5))
    nt = params.time_grid.size
    p_star = IndirectUtility.from_callables(
        params.time_grid,
        lambda x: np.tile(np.asarray(x, dtype=float) / params.horizon, (nt, 1)),
        lambda x: np.full((nt, np.asarray(x).size), 1.0 / params.horizon),
    )
    ps = participation_set(p_star, params)
    assert len(ps.intervals) == 1
    lo, hi = ps.intervals[0]
    assert_allclose(lo, 0.5, atol=1e-9)
    assert hi == 1.0


def test_participation_upward_closed_for_constant_reservation(bench2_solution, bench2_config):
    report, tariff, p_star = bench2_solution
    ps = participation_set(p_star, bench2_config.params)
    assert len(ps.intervals) == 1
    lo, hi = ps.intervals[0]
    xs = np.linspace(lo, 1.0, 57)
    assert np.all(ps.contains(xs))
    assert hi == 1.0


def test_participation_boundary_matches_threshold(bench1_solution, bench1_config):
    report, _, p_star = bench1_solution
    ps = participation_set(p_star, bench1_config.params)
    assert abs(ps.intervals[0][0] - report.boundary["x0"]) <= 1e-8


def test_typed_sqrt_reservation_single_upper_component(typed_a_solution, typed_a_config):
    sol, tariff, p_star = typed_a_solution
    ps = participation_set(p_star, typed_a_config.params)
    assert sol.b0 == 0.0
    assert len(ps.intervals) == 1
    assert_allclose(ps.intervals[0][0], sol.a0, atol=1e-6)
    assert ps.intervals[0][1] == 1.0


def test_ties_included_weakly():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    nt = params.time_grid.size
    p_star = IndirectUtility.from_callables(
        params.time_grid,
        lambda x: np.full((nt, np.asarray(x).size), 0.05 / params.horizon),
        lambda x: np.zeros((nt, np.asarray(x).size)),
    )
    ps = participation_set(p_star, params)  # P* == H everywhere
    assert ps.intervals == ((0.0, 1.0),)


def test_participation_runs_at_both_ends_and_between():
    """P* - H = 0.1 cos(6 pi x) participates on four runs of probe points, the
    first starting at 0 and the last ending at 1: each inner end is the root
    (2k + 1)/12 and the outer ends are the probe grid's own."""
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    nt = params.time_grid.size
    p_star = IndirectUtility.from_callables(
        params.time_grid,
        lambda x: np.tile((0.05 + 0.1 * np.cos(6.0 * np.pi * np.asarray(x))) / params.horizon, (nt, 1)),
        lambda x: np.zeros((nt, np.asarray(x).size)),
    )
    ps = participation_set(p_star, params)
    roots = np.arange(1, 12, 2) / 12.0
    assert_allclose(np.ravel(ps.intervals), np.concatenate([[0.0], roots, [1.0]]), rtol=0, atol=1e-9)
    assert ps.intervals[0][0] == 0.0 and ps.intervals[-1][1] == 1.0


def test_participation_set_rejects_overlapping_intervals():
    with pytest.raises(DomainError):
        ParticipationSet(intervals=((0.0, 0.6), (0.5, 1.0)))


KINK_REL_TOL = 1e-3  # one-sided slope jump (relative) that flags a kink


def slope_sides(p_star, x):
    """Left/right slopes of a sampled p* around x, one grid step wide."""
    h = float(np.min(np.diff(p_star.x_grid)))
    v0 = p_star.values(x)
    left = (v0 - p_star.values(np.maximum(x - h, p_star.x_grid[0]))) / h
    right = (p_star.values(np.minimum(x + h, p_star.x_grid[-1])) - v0) / h
    return left, right


def detect_kinks(p_star, x):
    """Types where one-sided slopes jump by more than the kink tolerance."""
    left, right = slope_sides(p_star, x)
    scale = np.maximum(np.abs(left), np.abs(right))
    jump = np.abs(right - left)
    return np.any(jump > KINK_REL_TOL * np.maximum(scale, 1e-12), axis=0)


def test_kink_detection_on_sampled_surface():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    x = np.linspace(0.0, 1.0, 801)
    vals = np.tile(np.maximum(x - 0.4, 0.0), (params.time_grid.size, 1))
    p_star = IndirectUtility.from_samples(params.time_grid, x, vals)
    probes = np.asarray([0.2, 0.4, 0.8])
    kinks = detect_kinks(p_star, probes)
    assert not kinks[0] and kinks[1] and not kinks[2]
    left, right = slope_sides(p_star, np.asarray([0.4]))
    assert right[0, 0] - left[0, 0] > 0.5  # subgradient interval is reported


def test_sampled_surface_pickles():
    """A sampled p* is bound to module-level functions, so it survives a
    pickle round trip and evaluates equal afterwards."""
    params = canonical_params(0.5, reservation=ConstantReservation(0.05))
    x = np.linspace(0.0, 1.0, 41)
    p_star = IndirectUtility.from_samples(params.time_grid, x, np.tile(x ** 2, (params.time_grid.size, 1)))
    back = pickle.loads(pickle.dumps(p_star))
    probes = np.linspace(0.0, 1.0, 97)
    assert np.array_equal(back.values(probes), p_star.values(probes))
    assert np.array_equal(back.slopes(probes), p_star.slopes(probes))
    assert np.array_equal(back.P_star(probes), p_star.P_star(probes))


def test_staple_consumption_positive_for_participants(bench2_solution, bench2_config):
    report, _, p_star = bench2_solution
    params = bench2_config.params
    xs = np.linspace(report.boundary["x0"] + 1e-9, 1.0 - 1e-9, 100)
    c = envelope_consumption(p_star, xs, params)
    assert np.all((c > 0.0) & np.isfinite(c))


def test_grid_value_never_exceeds_indirect_utility(bench1_solution, bench1_config):
    """A finite-grid maximum is bounded by the true supremum, which the
    emitted surface attains; refinement closes the gap from below."""
    report, tariff, p_star = bench1_solution
    params = bench1_config.params
    grid = np.linspace(0.0, float(tariff.breakpoints["c_top"].max()) * 1.3, 700)
    xs = np.linspace(0.0, 1.0, 120)
    exact = p_star.values(xs)[0]
    coarse_gap, refined_gap = 0.0, 0.0
    for j, x in enumerate(xs):
        _, v0 = best_response_grid(tariff, 0, float(x), grid, params)
        _, v1 = best_response_grid(tariff, 0, float(x), grid, params, refine=True)
        assert v0 <= exact[j] + 1e-12
        assert v1 <= exact[j] + 1e-12
        coarse_gap = max(coarse_gap, exact[j] - v0)
        refined_gap = max(refined_gap, exact[j] - v1)
    assert refined_gap <= coarse_gap
    assert refined_gap <= 1e-6
