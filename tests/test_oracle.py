"""Brute-force certification of the constant-reservation optimum."""
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nltariff import cli, oracle
from nltariff.cli import load_config
from nltariff.errors import NonConvergence
from nltariff.model import ConstantReservation, canonical_params, eval_cost, eval_marginal_cost
from nltariff.oracle import (
    OracleResult,
    _breakpoints,
    _objective_given_slopes,
    _pointwise_best_slopes,
    _row_constants,
    _screening_weight,
    _slope_grid_for,
    oracle_relaxed_maximize_const_h,
)
from nltariff.solver_const_h import capacity_A, ell_const, optimal_slopes, solve_x0_star, upper_bracket
from nltariff.tariff import Tariff, TariffSegment
from tests.conftest import varying_profile_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_two_type_toy_matches_exhaustive_enumeration():
    """Two narrow type bins, one time slice: the fixed point must find the
    best slope pair that exhaustive enumeration finds."""
    params = canonical_params(0.5, reservation=ConstantReservation(0.01), time_nodes=2)
    # two thin bins around x=0.7 and x=0.9
    x_nodes = np.concatenate([np.linspace(0.69, 0.71, 9), np.linspace(0.89, 0.91, 9)])
    slope_grid = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 60)])

    from nltariff.oracle import _screening_weight, _solve_fixed_point
    value, slopes, agg, _ = _solve_fixed_point(params, x_nodes, slope_grid)
    w, fvals = _screening_weight(params, x_nodes), params.f.pdf(x_nodes)

    # enumeration over slope pairs (one slope per bin)
    best = -np.inf
    for s1 in slope_grid:
        for s2 in slope_grid:
            s = np.where(x_nodes < 0.8, s1, s2)
            svals = np.tile(s, (params.time_grid.size, 1))
            base = params.gamma / (params.phi[:, None] * params.g.prime(x_nodes)[None, :]) * svals
            cons = np.where(base > 0, base, 0.0) ** (1.0 / params.gamma)
            v, _ = _objective_given_slopes(params, x_nodes, svals, cons, w, fvals)
            best = max(best, v)
    assert value >= best - 1e-3 * max(1.0, abs(best))


def test_oracle_tracks_closed_form_quickly(bench1_config):
    report = solve_x0_star(bench1_config)
    res = oracle_relaxed_maximize_const_h(
        bench1_config.params, type_grid_size=100, slope_grid_size=500,
        x0_candidates=np.linspace(0.45, 0.75, 13))
    rel = abs(res.value - report.principal_utility) / report.principal_utility
    assert rel < 1e-2
    assert abs(res.x0 - report.boundary["x0"]) < 0.05


def test_unreachable_reservation_yields_empty_contract():
    params = canonical_params(0.5, reservation=ConstantReservation(50.0), time_nodes=2)
    res = oracle_relaxed_maximize_const_h(params, type_grid_size=60, slope_grid_size=200,
                                          x0_candidates=np.linspace(0.0, 1.0, 11))
    assert res.value == 0.0
    assert res.x0 == 1.0


def test_oracle_never_exceeds_optimum_beyond_discretization(bench1_config):
    report = solve_x0_star(bench1_config)
    res = oracle_relaxed_maximize_const_h(
        bench1_config.params, type_grid_size=120, slope_grid_size=600,
        x0_candidates=np.linspace(0.5, 0.7, 9))
    assert res.value <= report.principal_utility + 1e-4 * max(1.0, report.principal_utility)


def test_oracle_converges_under_refinement(bench1_config):
    report = solve_x0_star(bench1_config)
    errors = []
    for nodes, slopes in [(50, 250), (100, 500), (200, 1000)]:
        res = oracle_relaxed_maximize_const_h(
            bench1_config.params, type_grid_size=nodes, slope_grid_size=slopes,
            x0_candidates=np.linspace(0.5, 0.7, 9))
        errors.append(abs(res.value - report.principal_utility))
    assert errors[2] <= errors[0] + 1e-6
    assert errors[2] <= errors[1] + 1e-6


# -- the fixed point's cap ------------------------------------------------------

def _residential_fixed_point_case():
    """A residential threshold whose fixed point takes 19 rounds from a cold
    start and 10 from its own converged aggregate, neither within 3."""
    params = canonical_params(-1.0, reservation=ConstantReservation(-0.1), time_nodes=3)
    return params, np.linspace(0.6, 1.0 - 1e-9, 60), _slope_grid_for(params, 3.0, 300)


def test_fixed_point_still_moving_at_the_cap_raises(monkeypatch):
    params, x_nodes, grid = _residential_fixed_point_case()
    monkeypatch.setattr(oracle, "FIXED_POINT_CAP", 3)
    with pytest.raises(NonConvergence, match="after 3 rounds"):
        oracle._solve_fixed_point(params, x_nodes, grid)


def test_warm_start_at_a_converged_aggregate_returns_at_the_cap(monkeypatch):
    """Settled within 1e-3 but not yet stalled for 8 rounds: the cap returns
    the best round, which is the converged one."""
    params, x_nodes, grid = _residential_fixed_point_case()
    value, slopes, agg, iterations = oracle._solve_fixed_point(params, x_nodes, grid)
    assert iterations > 3
    assert oracle._solve_fixed_point(params, x_nodes, grid, warm_start=agg)[3] > 3
    monkeypatch.setattr(oracle, "FIXED_POINT_CAP", 3)
    capped = oracle._solve_fixed_point(params, x_nodes, grid, warm_start=agg)
    assert capped[3] == 3
    assert capped[0] == value
    assert np.array_equal(capped[1], slopes) and np.array_equal(capped[2], agg)


def test_cli_reports_a_fixed_point_at_its_cap_as_a_solver_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "FIXED_POINT_CAP", 1)
    out = tmp_path / "out"
    assert cli.main(["solve", str(CONFIG_DIR / "industrial_constant_h.json"), "--oracle", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver error: aggregate fixed point still moving")
    assert "Traceback" not in err
    assert not out.exists()


# -- the slope search against a full scan --------------------------------------

def _slope_tables(gamma, rows, slope_grid):
    """Consumption c(s) per (row, s), the mask of pairs whose gain is never
    finite, and w s: the full tables that the search does without."""
    a, w = rows
    base = a[:, None] * slope_grid[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        cons = np.where(base > 0, base, np.inf) ** (1.0 / gamma)
    if gamma > 0:
        cons = np.where(base > 0, cons, 0.0)
    ws = w[:, None] * slope_grid[None, :]
    return cons, ~np.isfinite(cons) | ~np.isfinite(ws), ws


def _dense_best_slopes(rows, slope_grid, gamma, kf, seed=None):
    """Reference for ``_pointwise_best_slopes``: np.argmax over every slope
    (``seed`` is ignored)."""
    cons, never, ws = _slope_tables(gamma, rows, slope_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        gain = ws - kf[:, None] * cons
    gain[never] = -np.inf
    arg = np.argmax(gain, axis=1)
    return slope_grid[arg], np.take_along_axis(cons, arg[:, None], axis=1)[:, 0]


def _peaked_rows(rng, gamma, slope_grid, size):
    """Rows (a, w, kf) whose gain is stationary at a random slope inside the grid."""
    p = 1.0 / gamma
    a = np.exp(rng.uniform(-3.0, 3.0, size))
    kf = np.exp(rng.uniform(-3.0, 3.0, size))
    inside = slope_grid[rng.integers(2, slope_grid.size - 2, size)] * np.exp(rng.uniform(-0.01, 0.01, size))
    return a, kf * p * a ** p * inside ** (p - 1.0), kf


def _random_rows(rng, gamma, slope_grid, size=96):
    """Peaked rows, then blocks of weights of either sign, w = 0, kf at the
    1e-12 floor of kappa times f in [0, 1], w = kf = 0 (every slope ties), and
    c(s) overflowing inside the grid, which makes a -inf prefix for gamma < 0
    and a -inf suffix for gamma > 0."""
    a, w, kf = _peaked_rows(rng, gamma, slope_grid, size)
    blocks = np.array_split(np.arange(size), 6)
    w[blocks[1]] = rng.normal(0.0, 1.0, blocks[1].size) * np.exp(rng.uniform(-5.0, 5.0, blocks[1].size))
    w[blocks[2]] = 0.0
    kf[blocks[3]] = 1e-12 * rng.uniform(0.0, 1.0, blocks[3].size)
    w[blocks[4]] = kf[blocks[4]] = 0.0
    a[blocks[5]] = 1e308 ** gamma / slope_grid[rng.integers(1, slope_grid.size, blocks[5].size)]
    return a, w, kf


def _assert_matches_full_scan(rows, slope_grid, gamma, kf):
    slopes, cons = _pointwise_best_slopes(rows, slope_grid, gamma, kf)
    ref_slopes, ref_cons = _dense_best_slopes(rows, slope_grid, gamma, kf)
    np.testing.assert_array_equal(slopes, ref_slopes)
    assert np.array_equal(cons.view(np.uint64), ref_cons.view(np.uint64))


@pytest.mark.parametrize("gamma", [0.5, 0.3, -1.0, -0.5, -2.5])
@pytest.mark.parametrize("size", [61, 200, 1500])
def test_slope_search_matches_full_scan(gamma, size):
    rng = np.random.default_rng([size, int(100 * abs(gamma))])
    if size == 61:
        slope_grid = np.geomspace(1e-3, 3.0, 60)
        if gamma > 0:
            slope_grid = np.concatenate([[0.0], slope_grid])
    else:
        slope_grid = _slope_grid_for(canonical_params(gamma), 3.0, size)
    a, w, kf = _random_rows(rng, gamma, slope_grid)
    _assert_matches_full_scan((a, w), slope_grid, gamma, kf)


def test_slope_search_window_absorbs_rounding_at_a_flat_peak():
    """With gamma = 1 - 1e-12 the gain at its peak is flat to a few ulp, so
    a breakpoint prediction can land one or two slopes away from the first
    maximum, and a neighbour can look higher by rounding alone. Such a peak
    never drops by the margin on both sides, so the row goes to the
    whole-row scan, which returns the first maximum as np.argmax does."""
    gamma = 1.0 - 1e-12
    rng = np.random.default_rng(7)
    slope_grid = _slope_grid_for(canonical_params(0.5), 3.0, 1500)
    a, w, kf = _peaked_rows(rng, gamma, slope_grid, 500)
    _assert_matches_full_scan((a, w), slope_grid, gamma, kf)


@pytest.mark.parametrize("bench", ["bench1_config", "bench2_config"])
def test_oracle_result_identical_with_full_scan(bench, request, monkeypatch):
    params = request.getfixturevalue(bench).params

    def run():
        return oracle_relaxed_maximize_const_h(params, type_grid_size=60, slope_grid_size=300,
                                               x0_candidates=np.linspace(0.0, 1.0, 11))

    fast = run()
    monkeypatch.setattr(oracle, "_pointwise_best_slopes", _dense_best_slopes)
    dense = run()
    assert (fast.value, fast.x0, fast.iterations, fast.x0_values) == \
        (dense.value, dense.x0, dense.iterations, dense.x0_values)
    for name in ("slopes", "x_nodes", "aggregate"):
        assert np.array_equal(getattr(fast, name), getattr(dense, name))



def _seed_test_grid(gamma, size):
    if size == 61:
        slope_grid = np.geomspace(1e-3, 3.0, 60)
        return np.concatenate([[0.0], slope_grid]) if gamma > 0 else slope_grid
    return _slope_grid_for(canonical_params(0.5 if gamma > 0 else -1.0), 3.0, size)


@pytest.mark.parametrize("gamma", [0.5, 0.3, -1.0, -0.5, -2.5, 0.999, 1.0 - 1e-9, 1.0 - 1e-12])
@pytest.mark.parametrize("size", [61, 200, 1500])
def test_slope_search_from_a_seed_matches_full_scan(gamma, size):
    """The breakpoint search, then the same search seeded with a predicted
    index 0..6 slopes off the first maximum, on either side, or at random,
    on the rows of the full-scan tests: a prediction sets the cost of the
    search, never its answer. At gamma = 1 - 1e-12 the peak is flat to a
    few ulp: a prediction there must not settle for a neighbour that is
    higher by rounding alone."""
    rng = np.random.default_rng([size, int(1e3 * abs(gamma))])
    slope_grid = _seed_test_grid(gamma, size)
    rows = [_peaked_rows(rng, gamma, slope_grid, 200)]
    if gamma < 0.9:     # the overflow block of _random_rows overflows a itself near gamma = 1
        rows.append(_random_rows(rng, gamma, slope_grid))
    a, w, kf = (np.concatenate(column) for column in zip(*rows))
    ref_slopes, ref_cons = _dense_best_slopes((a, w), slope_grid, gamma, kf)
    first = np.searchsorted(slope_grid, ref_slopes)
    seeds = [np.clip(first + offset, 0, size - 1) for offset in range(-6, 7)]
    seeds += [rng.integers(0, size, a.size) for _ in range(3)]
    # breakpoints at the half-integers and levels seed * kf predict the seed
    # (the rows with kf = 0 predict the last slope)
    halves = np.arange(size - 1) + 0.5
    for breaks in [None, _breakpoints((a, w), slope_grid, gamma)] + [(halves, seed * kf) for seed in seeds]:
        slopes, cons = _pointwise_best_slopes((a, w), slope_grid, gamma, kf, breaks)
        np.testing.assert_array_equal(slopes, ref_slopes)
        assert np.array_equal(cons.view(np.uint64), ref_cons.view(np.uint64))


def _count_scanned_rows(monkeypatch):
    """Count the rows the slope search solves and those it scans whole."""
    solved = {"all": 0, "scanned": 0}
    search, scan = oracle._pointwise_best_slopes, oracle._scanned_best_slopes

    def counting(key, fn):
        def wrapped(rows, *args):
            solved[key] += rows[0].size
            return fn(rows, *args)
        return wrapped

    monkeypatch.setattr(oracle, "_pointwise_best_slopes", counting("all", search))
    monkeypatch.setattr(oracle, "_scanned_best_slopes", counting("scanned", scan))
    return solved


@pytest.mark.parametrize("family", ["industrial_constant_h", "residential_constant_h"])
def test_breakpoint_search_rarely_scans_whole_rows(family, monkeypatch):
    """At the CLI's grid sizes the breakpoints settle the row solves: none
    took the whole-row scan when this was written, and at most 1% may."""
    params = load_config(CONFIG_DIR / f"{family}.json").params
    assert params.time_grid.size == 3
    solved = _count_scanned_rows(monkeypatch)
    oracle_relaxed_maximize_const_h(params)
    assert solved["all"] > 0
    assert solved["scanned"] <= 0.01 * solved["all"]


@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_peaks_at_the_grid_ends_take_no_scan(gamma, monkeypatch):
    """A row whose gain peaks at the first or the last slope has one
    neighbour outside the grid, which drops by +inf: the prediction is kept
    without the whole-row scan, and it is the full scan's answer."""
    slope_grid = _slope_grid_for(canonical_params(gamma), 3.0, 1500)
    rng = np.random.default_rng(11)
    p, half = 1.0 / gamma, 100
    a = np.exp(rng.uniform(-3.0, 3.0, 2 * half))
    kf = np.exp(rng.uniform(-3.0, 3.0, 2 * half))
    # the gain's stationary slope far below, then far above the grid
    stationary = np.repeat([slope_grid[1] * 1e-3, slope_grid[-1] * 1e3], half)
    w = kf * p * a ** p * stationary ** (p - 1.0)
    if gamma > 0:
        w[:half] *= -1.0      # no stationary slope at all: the gain falls from s = 0
    solved = _count_scanned_rows(monkeypatch)
    _assert_matches_full_scan((a, w), slope_grid, gamma, kf)
    slopes, _ = oracle._pointwise_best_slopes((a, w), slope_grid, gamma, kf)
    assert (slopes[:half] == slope_grid[0]).all() and (slopes[half:] == slope_grid[-1]).all()
    assert solved == {"all": 2 * half, "scanned": 0}


def test_flat_peaks_take_the_whole_row_scan(monkeypatch):
    """With gamma = 1 - 1e-12 the gain at its peak is flat to a few ulp, so
    no predicted peak clears the margin: those rows are scanned whole, and
    the scan still finds the full scan's first maximum."""
    gamma = 1.0 - 1e-12
    slope_grid = _slope_grid_for(canonical_params(0.5), 3.0, 1500)
    a, w, kf = _peaked_rows(np.random.default_rng(7), gamma, slope_grid, 500)
    solved = _count_scanned_rows(monkeypatch)
    _assert_matches_full_scan((a, w), slope_grid, gamma, kf)
    assert solved["scanned"] > 0.5 * solved["all"]


def _non_power_params(tmp_path, family, variant, config_dir=CONFIG_DIR):
    """A constant-H family on a tabulated cost, or with tabulated g and f,
    from ``config_dir`` (the shipped configs, at 3 time nodes)."""
    doc = json.loads((config_dir / f"{family}.json").read_text())
    if variant == "cost_table":
        n = doc.pop("n")
        c = np.linspace(0.0, 20.0, 401)
        doc["cost_table"] = {"c": c.tolist(), "K": (c ** n / n).tolist(), "marginal": (c ** (n - 1.0)).tolist()}
    else:
        x = np.linspace(0.0, 1.0, 257)
        sign = 1.0 if doc["gamma"] > 0 else -1.0
        g = (x if sign > 0 else 1.0 - x) + 0.1 * x * (1.0 - x)
        doc["g"] = {"form": "tabulated", "x": x.tolist(), "values": g.tolist(),
                    "derivative": (sign + 0.1 * (1.0 - 2.0 * x)).tolist()}
        doc["f"] = {"form": "tabulated", "x": x.tolist(), "density": (1.0 - 0.2 * sign * (x - 0.5)).tolist()}
    path = tmp_path / f"{family}-{variant}.json"
    path.write_text(json.dumps(doc))
    return load_config(path).params


@pytest.mark.parametrize("variant", ["cost_table", "tabulated_g_f"])
@pytest.mark.parametrize("family", ["industrial_constant_h", "residential_constant_h"])
def test_oracle_result_identical_with_full_scan_off_the_power_path(family, variant, tmp_path, monkeypatch):
    """The tabulated cost, taste map and density reach the rows through other
    code than the power/uniform configs: the result is still the full scan's."""
    params = _non_power_params(tmp_path, family, variant)

    def run():
        return oracle_relaxed_maximize_const_h(params, type_grid_size=60, slope_grid_size=300,
                                               x0_candidates=np.linspace(0.0, 1.0, 11))

    fast = run()
    monkeypatch.setattr(oracle, "_pointwise_best_slopes", _dense_best_slopes)
    dense = run()
    assert fast.x0 < 1.0      # a contract is offered, so the slopes matter
    assert (fast.value, fast.x0, fast.iterations, fast.x0_values) == \
        (dense.value, dense.x0, dense.iterations, dense.x0_values)
    for name in ("slopes", "x_nodes", "aggregate"):
        assert np.array_equal(getattr(fast, name), getattr(dense, name))


def _oracle_bytes(config_path):
    """The oracle's result on a config at the CLI's grid sizes, as bytes."""
    res = oracle_relaxed_maximize_const_h(load_config(config_path).params)
    return pickle.dumps((res.value, res.x0, res.iterations, res.x0_values,
                         res.slopes.tobytes(), res.x_nodes.tobytes(), res.aggregate.tobytes()))


def test_oracle_state_does_not_leak_across_scenarios():
    """A, then B, then A again in one process: each result is bit for bit the
    result of a fresh process. At the CLI's grid sizes an aggregate left over
    from B would move the first threshold's fixed point, and with it A's
    threshold values."""
    paths = [CONFIG_DIR / f"{family}.json" for family in ("industrial_constant_h", "residential_constant_h")]
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


# -- the loop before one-pass rounds and per-stage hints ------------------------

def _reference_slope_scale(params, x0):
    """The slope-grid hint as it was computed for one threshold at a time."""
    Kc = np.maximum(eval_marginal_cost(capacity_A(ell_const(x0, params), params), params), 1e-12)
    xs = np.linspace(min(x0 + 1e-6, 1.0), 1.0 - 1e-9, 64)
    with np.errstate(divide="ignore"):
        s = optimal_slopes(params.phi[:, None], upper_bracket(xs, params), params.f.pdf(xs), Kc[:, None],
                           params.g.prime(xs), params.gamma)
    s = s[np.isfinite(s)]
    return max(float(np.max(s, initial=0.0)), 1e-6)


def _reference_fixed_point(params, x_nodes, slope_grid, warm_start=None):
    """The fixed point as its rounds were written before they were made
    one-pass: a fresh slope search, np.stack and np.trapezoid every round.
    The search is the full scan, which the breakpoint search equals."""
    if warm_start is not None and np.all(np.isfinite(warm_start)) and np.any(warm_start > 0):
        aggregate = np.maximum(warm_start, 1e-9)
    else:
        aggregate = np.full(params.time_grid.size, 1e-3)
    w = _screening_weight(params, x_nodes)
    fvals = params.f.pdf(x_nodes)
    rows = _row_constants(params, x_nodes, w)
    shape = (params.time_grid.size, x_nodes.size)
    best = (-np.inf, None, None, 0)
    stall = 0
    for it in range(1, oracle.FIXED_POINT_CAP + 1):
        kappa = np.maximum(eval_marginal_cost(aggregate, params), 1e-12)
        kf = (kappa[:, None] * fvals[None, :]).ravel()
        slopes, cons = _dense_best_slopes(rows, slope_grid, params.gamma, kf)
        slopes, cons = slopes.reshape(shape), cons.reshape(shape)
        flow, agg_actual = np.trapezoid(np.stack([w[None, :] * slopes, cons * fvals[None, :]]), x_nodes, axis=-1)
        value = float(np.trapezoid(flow - eval_cost(agg_actual, params), params.time_grid, axis=-1))
        if best[1] is None or value > best[0] + 1e-12 * max(1.0, abs(best[0])):
            best = (value, slopes, agg_actual, it)
            stall = 0
        else:
            stall += 1
        step = np.max(np.abs(agg_actual - aggregate)) / max(1e-12, np.max(np.abs(aggregate)))
        aggregate = oracle.FIXED_POINT_DAMPING * aggregate + (1.0 - oracle.FIXED_POINT_DAMPING) * agg_actual
        if step < oracle.FIXED_POINT_TOL or stall >= 8:
            return best[0], best[1], best[2], it
    raise AssertionError("the reference fixed point reached its cap")


def _reference_oracle(params, type_grid_size, slope_grid_size, x0_candidates):
    """``oracle_relaxed_maximize_const_h`` as it evaluated one threshold at a
    time (``eval_x0``), each with its own slope-grid hint."""
    H = params.reservation.H
    best = OracleResult(value=0.0, x0=1.0, slopes=np.zeros((params.time_grid.size, 1)),
                        x_nodes=np.asarray([1.0]), aggregate=np.zeros(params.time_grid.size), iterations=0)
    evaluated = []
    warm_agg = None

    def eval_x0(x0):
        nonlocal warm_agg
        if x0 >= 1.0 - 1e-12:
            return 0.0, None
        x_top = 1.0 if params.gamma > 0 else 1.0 - 1e-9
        x_nodes = np.linspace(x0, x_top, type_grid_size)
        s_max = 10.0 * _reference_slope_scale(params, x0)
        grid = _slope_grid_for(params, s_max, slope_grid_size)
        value, slopes, agg, iters = _reference_fixed_point(params, x_nodes, grid, warm_start=warm_agg)
        warm_agg = agg
        value += (float(params.f.cdf(x0)) - 1.0) * H
        return value, (slopes, x_nodes, agg, iters)

    def visit(x0s):
        nonlocal best
        for x0 in x0s:
            v, payload = eval_x0(float(x0))
            evaluated.append((float(x0), v))
            if v > best.value and payload is not None:
                best = OracleResult(value=v, x0=float(x0), slopes=payload[0], x_nodes=payload[1],
                                    aggregate=payload[2], iterations=payload[3])

    visit(x0_candidates)
    span = float(x0_candidates[1] - x0_candidates[0])
    for _ in range(3):
        visit(np.linspace(max(best.x0 - span, 0.0), min(best.x0 + span, 1.0), 9))
        span /= 4.0
    best.x0_values = sorted(evaluated)
    return best


def _profile_params(tmp_path, family, nodes, seed, variant=None):
    """A shipped constant-H family on seeded smooth phi(t), k(t) over
    ``nodes`` time nodes, optionally on a tabulated cost or taste map and
    density (as ``_non_power_params``)."""
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
        return load_config(path).params
    return _non_power_params(tmp_path, path.stem, variant, config_dir=tmp_path)


@pytest.mark.parametrize("case", ["3-1", "3-2", "9-1", "3-1-cost_table", "3-1-tabulated_g_f"])
@pytest.mark.parametrize("family", ["industrial_constant_h", "residential_constant_h"])
def test_oracle_result_identical_to_the_per_threshold_loop(family, case, tmp_path):
    """The one-pass rounds, the per-stage slope-grid hint and the reuse of a
    round whose slopes repeat give the result of the loop they replaced, bit
    for bit, on varying profiles and off the power path."""
    nodes, seed, *variant = case.split("-", 2)
    params = _profile_params(tmp_path, family, int(nodes), int(seed), *variant)
    sizes = dict(type_grid_size=60, slope_grid_size=300, x0_candidates=np.linspace(0.0, 1.0, 11))
    fast = oracle_relaxed_maximize_const_h(params, **sizes)
    ref = _reference_oracle(params, **sizes)
    assert fast.x0 < 1.0
    assert (fast.value, fast.x0, fast.iterations, fast.x0_values) == \
        (ref.value, ref.x0, ref.iterations, ref.x0_values)
    for name in ("slopes", "x_nodes", "aggregate"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name))


def test_slope_scale_is_elementwise():
    """One call over a stage's thresholds gives each threshold's hint of a
    call of its own, in blocks and off the power path alike."""
    params = varying_profile_params(-1.0, tabulated_cost=True)
    x0s = np.concatenate([np.linspace(0.0, 1.0 - 1e-9, 37), [1.0 - 1e-9 - 1e-6]])
    hint = oracle._closed_form_slope_scale(params, x0s)
    assert hint.tolist() == [_reference_slope_scale(params, x0) for x0 in x0s.tolist()]
    assert oracle._closed_form_slope_scale(params, 0.3) == _reference_slope_scale(params, 0.3)


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
