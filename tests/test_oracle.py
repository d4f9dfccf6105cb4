"""Dual certification of the constant-reservation optimum."""
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nltariff import oracle
from nltariff.cli import load_config
from nltariff.model import (
    ConstantReservation,
    ScenarioConfig,
    Table,
    canonical_params,
    eval_cost,
    eval_marginal_cost,
)
from nltariff.oracle import oracle_relaxed_maximize_const_h
from nltariff.solver_const_h import alpha_objective, solve_x0_star
from nltariff.tariff import Tariff, TariffSegment
from tests.conftest import varying_profile_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FAMILIES = ("industrial_constant_h", "residential_constant_h")
# the largest relative gap of the dual over the optimum at the default 20,001
# nodes: the trapezoid of h f converges as O(h^2) on the industrial branch and
# as O(h^1.5) on the residential one, whose h f has a square-root end at x = 1
GAP_BOUND = {"industrial_constant_h": 1e-8, "residential_constant_h": 2e-7}
BELOW = -1e-12          # the dual bounds the optimum from above, to rounding


def test_two_type_toy_matches_exhaustive_enumeration():
    """Types on [0.6, 1] in two bins, each bin at one consumption per time
    node: every consumption pair that exhaustive enumeration tries is a
    feasible plan of the relaxed problem at x0 = 0.6, so by weak duality
    none beats the dual at x0 = 0.6, nor the oracle's maximum over x0. The
    best pair comes within 5% of the dual, which serves each type its own
    consumption."""
    params = canonical_params(0.5, reservation=ConstantReservation(0.01), time_nodes=2)
    x0 = 0.6
    weights, masses = [], []
    for lo, hi in [(x0, 0.8), (0.8, 1.0)]:
        x = np.linspace(lo, hi, 2001)
        weights.append(np.trapezoid(oracle._screening_weight(params, x) * params.g.prime(x), x))
        masses.append(np.trapezoid(params.f.prime(x), x))
    c = np.linspace(0.0, 4.0, 401)
    c1, c2 = (pair[..., None] for pair in np.meshgrid(c, c, indexing="ij"))
    flow = (weights[0] * c1 ** params.gamma + weights[1] * c2 ** params.gamma) * params.phi / params.gamma
    aggregate = np.broadcast_to(masses[0] * c1 + masses[1] * c2, flow.shape)
    profit = np.trapezoid(flow - eval_cost(aggregate, params), params.time_grid, axis=-1)
    best = float(profit.max()) + (float(params.f(x0)) - 1.0) * params.reservation.H

    nodes = np.linspace(x0, 1.0, 20001)
    J = np.array([np.trapezoid(oracle._coverage_density(params, nodes), nodes)])
    dual = float(oracle._dual_bound(params, np.array([x0]), J)[0])
    assert 0.95 * dual <= best <= dual
    assert best <= oracle_relaxed_maximize_const_h(params).value


def test_oracle_tracks_closed_form_quickly(bench1_config):
    report = solve_x0_star(bench1_config)
    res = oracle_relaxed_maximize_const_h(
        bench1_config.params, type_grid_size=100, x0_candidates=np.linspace(0.45, 0.75, 13))
    rel = abs(res.value - report.principal_utility) / report.principal_utility
    assert rel < 1e-2
    assert abs(res.x0 - report.boundary["x0"]) < 0.05


def test_unreachable_reservation_yields_empty_contract():
    """A marginal cost of 1 at zero output caps a type's surplus at
    max_c (2 sqrt(c) - c) = 1, far below the outside option 50: no threshold
    bounds above 0, and the empty contract wins."""
    c = np.linspace(0.0, 20.0, 401)
    params = replace(canonical_params(0.5, reservation=ConstantReservation(50.0), time_nodes=2), n=None,
                     cost_table=Table("cost_table", c, c + c ** 2 / 2.0, 1.0 + c))
    res = oracle_relaxed_maximize_const_h(params, type_grid_size=60, x0_candidates=np.linspace(0.0, 1.0, 11))
    assert res.value == 0.0
    assert res.x0 == 1.0


def test_high_reservation_serves_a_sliver_of_top_types():
    """With the power cost a small enough set of top types always gains more
    than its outside option, so the solver serves [0.999992, 1] against
    H = 50: the dual finds that sliver even on 60 nodes, because its shared
    grid is graded toward x = 1."""
    params = canonical_params(0.5, reservation=ConstantReservation(50.0), time_nodes=2)
    report = solve_x0_star(ScenarioConfig(params=params))
    res = oracle_relaxed_maximize_const_h(params, type_grid_size=60, x0_candidates=np.linspace(0.0, 1.0, 11))
    assert 1.0 - 1e-5 < res.x0 < 1.0
    assert abs(res.x0 - report.boundary["x0"]) <= 1e-7
    assert BELOW <= _gap(res, report.principal_utility) <= 1e-8


def test_oracle_never_exceeds_optimum_beyond_discretization(bench1_config):
    report = solve_x0_star(bench1_config)
    res = oracle_relaxed_maximize_const_h(
        bench1_config.params, type_grid_size=120, x0_candidates=np.linspace(0.5, 0.7, 9))
    assert res.value <= report.principal_utility + 1e-4 * max(1.0, report.principal_utility)


def test_oracle_converges_under_refinement(bench1_config):
    report = solve_x0_star(bench1_config)
    errors = []
    for nodes in (50, 100, 200):
        res = oracle_relaxed_maximize_const_h(
            bench1_config.params, type_grid_size=nodes, x0_candidates=np.linspace(0.5, 0.7, 9))
        errors.append(abs(res.value - report.principal_utility))
    assert errors[2] <= errors[0] + 1e-6
    assert errors[2] <= errors[1] + 1e-6


# -- the dual against the solver, route by route ---------------------------------

def _non_power_params(tmp_path, family, variant, config_dir=CONFIG_DIR):
    """A constant-H family on a tabulated cost, taste map, density, or taste
    map and density (``tabulated_g_f``), from ``config_dir`` (the shipped
    configs, at 3 time nodes)."""
    doc = json.loads((config_dir / f"{family}.json").read_text())
    x = np.linspace(0.0, 1.0, 257)
    sign = 1.0 if doc["gamma"] > 0 else -1.0
    if variant == "cost_table":
        n = doc.pop("n")
        c = np.linspace(0.0, 20.0, 401)
        doc["cost_table"] = {"c": c.tolist(), "K": (c ** n / n).tolist(), "marginal": (c ** (n - 1.0)).tolist()}
    if variant in ("tabulated_g", "tabulated_g_f"):
        g = (x if sign > 0 else 1.0 - x) + 0.1 * x * (1.0 - x)
        doc["g"] = {"form": "tabulated", "x": x.tolist(), "values": g.tolist(),
                    "derivative": (sign + 0.1 * (1.0 - 2.0 * x)).tolist()}
    if variant in ("tabulated_f", "tabulated_g_f"):
        doc["f"] = {"form": "tabulated", "x": x.tolist(), "density": (1.0 - 0.2 * sign * (x - 0.5)).tolist()}
    path = tmp_path / f"{family}-{variant}.json"
    path.write_text(json.dumps(doc))
    return load_config(path).params


def _profile_params(tmp_path, family, nodes, seed, variant=None):
    """A shipped constant-H family on seeded smooth phi(t), k(t) over
    ``nodes`` time nodes, optionally off the power path (as
    ``_non_power_params``)."""
    rng = np.random.default_rng([seed, nodes])
    t = np.linspace(0.0, 1.0, nodes)
    doc = json.loads((CONFIG_DIR / f"{family}.json").read_text())
    amp, shift = rng.uniform(0.05, 0.35, 2), rng.uniform(0.0, 2.0 * np.pi, 2)
    doc["time_nodes"] = nodes
    doc["phi"] = (1.0 + amp[0] * np.sin(2.0 * np.pi * t + shift[0])).tolist()
    doc["k"] = (rng.uniform(0.6, 1.6) * (1.0 + amp[1] * np.cos(2.0 * np.pi * t + shift[1]))).tolist()
    path = tmp_path / f"{family}-{nodes}-{seed}.json"
    path.write_text(json.dumps(doc))
    if variant is None:
        return load_config(path)
    return ScenarioConfig(params=_non_power_params(tmp_path, path.stem, variant, config_dir=tmp_path))


def _shipped(family, force_general=False):
    return replace(load_config(CONFIG_DIR / f"{family}.json"), force_general_route=force_general)


def _gap(res, primal):
    return (res.value - primal) / abs(primal)


@pytest.mark.parametrize("route", ["shipped", "forced_general", "profile-3", "profile-33", "profile-129"])
@pytest.mark.parametrize("family", FAMILIES)
def test_dual_bounds_the_exact_optimum_tightly(family, route, tmp_path):
    """On the power-cost, canonical routes the solver's profit is exact: the
    dual lies above it, by no more than its quadrature, at the solver's x0."""
    if route.startswith("profile"):
        config = _profile_params(tmp_path, family, int(route.split("-")[1]), seed=1)
    else:
        config = _shipped(family, force_general=route == "forced_general")
    report = solve_x0_star(config)
    res = oracle_relaxed_maximize_const_h(config.params)
    assert BELOW <= _gap(res, report.principal_utility) <= GAP_BOUND[family]
    assert abs(res.x0 - report.boundary["x0"]) <= 1e-7
    assert res.iterations == len(res.x0_values) > 41


@pytest.mark.parametrize("variant", ["cost_table", "tabulated_g", "tabulated_f"])
@pytest.mark.parametrize("family", FAMILIES)
def test_dual_bounds_the_optimum_off_the_power_path(family, variant, tmp_path):
    """Off the power/uniform path the solver reports its objective with
    ell(x0) integrated as the dual integrates its reported threshold's
    coverage, so the dual bounds the reported profit as tightly as on the
    exact routes, at the same threshold."""
    params = _non_power_params(tmp_path, family, variant)
    report = solve_x0_star(ScenarioConfig(params=params))
    res = oracle_relaxed_maximize_const_h(params)
    assert BELOW <= _gap(res, report.principal_utility) <= GAP_BOUND[family]
    assert abs(res.x0 - report.boundary["x0"]) <= 2e-7
    assert res.x0 < 1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_dual_flags_a_moved_boundary(family):
    """The solver's objective 1e-3 away from its x0 falls below the dual by
    far more than the dual's tolerance, so the bracket flags a wrong
    boundary."""
    config = _shipped(family)
    report = solve_x0_star(config)
    res = oracle_relaxed_maximize_const_h(config.params)
    x0 = report.boundary["x0"]
    for moved in (x0 - 1e-3, x0 + 1e-3):
        assert _gap(res, alpha_objective(moved, config.params)) > 100.0 * GAP_BOUND[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_gap_shrinks_under_refinement(family):
    config = _shipped(family)
    primal = solve_x0_star(config).principal_utility
    coarse, fine = (_gap(oracle_relaxed_maximize_const_h(config.params, type_grid_size=nodes), primal)
                    for nodes in (2001, 20001))
    assert coarse >= fine >= BELOW


# -- the dual's root and search against brute force ------------------------------

def _node_dual(params, J, A):
    """D_t at the marginal cost kappa = K'(A), written out from the
    derivation: (1-gamma)/gamma kappa C_t(kappa) + kappa A - K_t(A). ``J``
    and ``A`` broadcast, with time on the last axis."""
    gamma = params.gamma
    kappa = eval_marginal_cost(A, params)
    C = (params.phi / kappa) ** (1.0 / (1.0 - gamma)) * J
    return (1.0 - gamma) / gamma * kappa * C + kappa * A - eval_cost(A, params)


def _coverages(rng, size=16):
    return np.exp(rng.uniform(-4.0, 2.0, size))


def _assert_root_in_scan_cell(params, J, A, grid):
    """Each node's root A of A^(1-gamma) K'(A) = phi_t J^(1-gamma) lies in
    the cell of the scan ``grid`` where the residual changes sign."""
    a = grid[None, :, None]
    residual = a ** (1.0 - params.gamma) * eval_marginal_cost(a, params) - params.phi * J[:, None, None] ** (
        1.0 - params.gamma)
    cell = np.sum(residual < 0.0, axis=1)
    assert ((cell > 0) & (cell < grid.size)).all()
    assert (grid[cell - 1] <= A).all() and (A <= grid[np.minimum(cell, grid.size - 1)]).all()


@pytest.mark.parametrize("gamma", [0.5, 0.3, -1.0, -0.5, -2.5])
@pytest.mark.parametrize("size", [61, 200, 1500])
def test_slope_search_matches_full_scan(gamma, size):
    """Each node's dual slope kappa = K'(A) against a full scan of ``size``
    aggregates. On the power cost, where the root is closed-form, the scan's
    best D_t is a neighbour of the root and lies above D_t at the root (D_t
    is convex in kappa). On a cost table, whose K and K' are interpolated
    apart and so agree only to O(h^2), the bisected root sits in the scan
    cell where the first-order condition changes sign. On both, the
    threshold's bound is the time integral of D_t at the root."""
    rng = np.random.default_rng([size, int(100 * abs(gamma))])
    J = _coverages(rng)
    x0s = rng.uniform(0.0, 1.0, J.size)
    grid = np.geomspace(1e-4, 20.0, size)
    for params in (varying_profile_params(gamma, tabulated_cost=False),
                   varying_profile_params(gamma, tabulated_cost=True)):
        A = oracle._dual_aggregates(params, J)
        _assert_root_in_scan_cell(params, J, A, grid)
        at_root = _node_dual(params, J[:, None], A)
        if params.is_power_cost:
            scanned = _node_dual(params, J[:, None, None], grid[None, :, None])
            best = np.argmin(scanned, axis=1)
            assert ((best > 0) & (best < size - 1)).all()
            assert (grid[best - 1] <= A).all() and (A <= grid[best + 1]).all()
            lowest = scanned.min(axis=1)
            assert (at_root <= lowest + 1e-12 * np.abs(lowest)).all()
        outside = (params.f(x0s) - 1.0) * params.reservation.H
        np.testing.assert_allclose(oracle._dual_bound(params, x0s, J),
                                   np.trapezoid(at_root, params.time_grid) + outside, rtol=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 0.3, -1.0, -0.5, -2.5, 0.999, 1.0 - 1e-9, 1.0 - 1e-12])
@pytest.mark.parametrize("size", [61, 200, 1500])
def test_slope_search_from_a_seed_matches_full_scan(gamma, size, monkeypatch):
    """The cost table's root bisection, started from its default bracket and
    then from upper ends 2^-6 to 2^6 times the median root and at random: a
    starting bracket sets the cost of the bisection, never its answer beyond
    ROOT_TOL, and every root lies in the sign-change cell of a full scan of
    ``size`` aggregates. This holds as gamma nears 1, where C_t itself is
    out of floating-point range."""
    rng = np.random.default_rng([size, int(1e3 * abs(gamma))])
    params = varying_profile_params(gamma, tabulated_cost=True)
    J = _coverages(rng)
    grid = np.geomspace(1e-4, 20.0, size)
    A = oracle._dual_aggregates(params, J)
    _assert_root_in_scan_cell(params, J, A, grid)
    bisect = oracle.invert_increasing
    for start in [np.median(A) * 2.0 ** k for k in range(-6, 7)] + rng.uniform(1e-6, 20.0, 3).tolist():
        monkeypatch.setattr(oracle, "invert_increasing",
                            lambda f, y, hi0, xtol, start=start: bisect(f, y, hi0=start, xtol=xtol))
        seeded = oracle._dual_aggregates(params, J)
        assert np.abs(seeded - A).max() <= oracle.ROOT_TOL
        _assert_root_in_scan_cell(params, J, seeded, grid)


def _searched_bound(params, monkeypatch):
    """The oracle's result at the CLI's grid sizes, and the bound Phi that
    its search maximized."""
    captured = []
    search = oracle.grid_then_golden_max

    def capturing(f, xs):
        captured.append(f)
        return search(f, xs)

    monkeypatch.setattr(oracle, "grid_then_golden_max", capturing)
    res = oracle_relaxed_maximize_const_h(params)
    monkeypatch.setattr(oracle, "grid_then_golden_max", search)
    return res, captured[0]


def _assert_search_matches_full_scan(params, monkeypatch):
    """Phi at every threshold the search evaluated, again in one pass, is
    identical to what the search logged; a full scan of Phi on 4,001
    thresholds finds no higher value, and its best threshold is within one
    scan step of the oracle's x0."""
    res, bound = _searched_bound(params, monkeypatch)
    searched = np.array(res.x0_values)
    assert bound(searched[:, 0]).tolist() == searched[:, 1].tolist()
    scan = np.linspace(0.0, 1.0, 4001)
    vals = bound(scan)
    best = int(np.argmax(vals))
    assert searched[:, 1].max() >= vals[best] - 1e-12 * abs(vals[best])
    assert abs(res.x0 - scan[best]) <= scan[1] - scan[0]
    assert res.x0 < 1.0


@pytest.mark.parametrize("bench", ["bench1_config", "bench2_config"])
def test_oracle_result_identical_with_full_scan(bench, request, monkeypatch):
    _assert_search_matches_full_scan(request.getfixturevalue(bench).params, monkeypatch)


@pytest.mark.parametrize("variant", ["cost_table", "tabulated_g_f"])
@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_result_identical_with_full_scan_off_the_power_path(family, variant, tmp_path, monkeypatch):
    """The tabulated cost, taste map and density reach Phi through other
    code than the power/uniform configs: the search still finds the full
    scan's maximum."""
    _assert_search_matches_full_scan(_non_power_params(tmp_path, family, variant), monkeypatch)


@pytest.mark.parametrize("case", ["3-1", "3-2", "9-1", "3-1-cost_table", "3-1-tabulated_g_f"])
@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_result_identical_to_the_per_threshold_loop(family, case, tmp_path, monkeypatch):
    """The scan stage evaluates Phi on all its thresholds in one pass, with
    one root per threshold and node; a search that evaluates them one at a
    time gives the same result, bit for bit, on varying profiles and off
    the power path."""
    nodes, seed, *variant = case.split("-", 2)
    params = _profile_params(tmp_path, family, int(nodes), int(seed), *variant).params
    one_pass = oracle_relaxed_maximize_const_h(params)
    search = oracle.grid_then_golden_max

    def one_at_a_time(f, xs):
        return search(lambda x: np.array([f(v) for v in x.tolist()]) if np.ndim(x) else f(x), xs)

    monkeypatch.setattr(oracle, "grid_then_golden_max", one_at_a_time)
    looped = oracle_relaxed_maximize_const_h(params)
    assert one_pass.x0 < 1.0
    assert (one_pass.value, one_pass.x0, one_pass.iterations, one_pass.x0_values) == \
        (looped.value, looped.x0, looped.iterations, looped.x0_values)


def _oracle_bytes(config_path):
    """The oracle's result on a config at the CLI's grid sizes, as bytes."""
    res = oracle_relaxed_maximize_const_h(load_config(config_path).params)
    return pickle.dumps((res.value, res.x0, res.iterations, res.x0_values))


def test_oracle_state_does_not_leak_across_scenarios():
    """A, then B, then A again in one process: each result is bit for bit the
    result of a fresh process."""
    paths = [CONFIG_DIR / f"{family}.json" for family in FAMILIES]
    src = Path(oracle.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    code = "import sys; from test_oracle import _oracle_bytes; sys.stdout.buffer.write(_oracle_bytes(sys.argv[1]))"
    procs = [subprocess.Popen([sys.executable, "-c", code, str(path)], env=env, stdout=subprocess.PIPE)
             for path in paths]
    try:
        in_process = [_oracle_bytes(paths[i]) for i in (0, 1, 0)]
        fresh = [proc.communicate(timeout=300)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert [proc.returncode for proc in procs] == [0, 0]
    assert in_process == [fresh[0], fresh[1], fresh[0]]


# -- agent sweeps ---------------------------------------------------------------

def oracle_agent_sweep(tariff, params, x_nodes, c_nodes):
    """Pure grid-search best responses to ``tariff`` for a sweep of types.

    Returns (x, c_opt, value) arrays per time node; the audit table behind
    every closed-form consumption claim.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    c_nodes = np.asarray(c_nodes, dtype=float)
    nt = params.time_grid.size
    gamma = params.gamma
    gx = params.g(x_nodes)
    cpow = c_nodes ** gamma
    c_opt = np.empty((nt, x_nodes.size))
    value = np.empty((nt, x_nodes.size))
    for i in range(nt):
        prices = tariff.price(i, c_nodes)
        obj = gx[:, None] * params.phi[i] * cpow[None, :] / gamma - prices[None, :]
        arg = np.argmax(obj, axis=1)
        c_opt[i] = c_nodes[arg]
        value[i] = np.take_along_axis(obj, arg[:, None], axis=1)[:, 0]
    return x_nodes, c_opt, value


def test_sweep_reproduces_linear_tariff_optimum():
    params = canonical_params(-1.0, reservation=ConstantReservation(-0.1), time_nodes=2)
    nt = params.time_grid.size
    seg = TariffSegment(c_lo=np.zeros(nt), c_hi=np.full(nt, np.inf),
                        p1=np.zeros(nt), p2=np.full(nt, 4.0), p3=np.zeros(nt),
                        label="selected")
    tariff = Tariff(gamma=-1.0, time_grid=params.time_grid, segments=[seg])
    xs = np.asarray([0.0])
    cs = np.geomspace(1e-3, 5.0, 3000)
    _, c_opt, _ = oracle_agent_sweep(tariff, params, xs, cs)
    assert abs(c_opt[0, 0] - 0.5) < np.max(np.diff(cs))


def test_sweep_industrial_low_types_consume_nothing(bench1_solution, bench1_config):
    report, tariff, _ = bench1_solution
    xs = np.linspace(0.0, 0.5, 400)
    cs = np.linspace(0.0, float(tariff.breakpoints["c_top"].max()), 1000)
    _, c_opt, _ = oracle_agent_sweep(tariff, bench1_config.params, xs, cs)
    assert np.all(c_opt == 0.0)


def test_sweep_excluded_middle_stays_below_reservation(typed_b_solution, typed_b_config):
    sol, tariff, _ = typed_b_solution
    params = typed_b_config.params
    xs = np.linspace(sol.b0 + 1e-3, 0.999, 1000)
    c_top = float(tariff.breakpoints["c_top"].max()) * 1.2
    cs = np.geomspace(c_top * 1e-5, c_top, 1200)
    _, _, value = oracle_agent_sweep(tariff, params, xs, cs)
    total = np.trapezoid(value.T, params.time_grid)
    assert np.all(total < params.reservation(xs) + 1e-6)


def test_sweep_consumption_nondecreasing_on_served_range(bench1_solution, bench1_config):
    report, tariff, _ = bench1_solution
    xs = np.linspace(0.5, 1.0, 300)
    cs = np.linspace(0.0, float(tariff.breakpoints["c_top"].max()) * 1.1, 2000)
    _, c_opt, _ = oracle_agent_sweep(tariff, bench1_config.params, xs, cs)
    assert np.all(np.diff(c_opt[0]) >= 0.0)
