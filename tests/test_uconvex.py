"""The u-conjugate of a sampled indirect utility, its hull kernel, and the
exact u-convexity check."""
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nltariff.cli import load_config
from nltariff.model import ConstantReservation, ScenarioConfig, Table, canonical_params
from nltariff.solver_const_h import build_tariff_const_h, solve_x0_star
from nltariff.solver_typed_h import build_tariff_typed_h, solve_a0_b0_star
from nltariff.tariff import ConjugateSegment, Tariff
from nltariff.uconvex import (
    GAP_TOL,
    ROW_BLOCK,
    SampledFunctionOfType,
    _u_conjugate,
    _u_conjugate_rows,
    _utility_surface,
    check_u_convexity,
)
from tests.referee import best_responses

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_params(gamma=0.5):
    H = 0.05 if gamma > 0 else -0.1
    return canonical_params(gamma, reservation=ConstantReservation(H), time_nodes=3)


def utility_surface(params, x, c):
    return params.g(x)[None, :, None] * params.phi[:, None, None] * (
        c[None, None, :] ** params.gamma) / params.gamma


def u_conjugate(params, x, values, c):
    """The u-conjugate of ``values`` on the type grid ``x`` at the
    consumptions ``c`` on every time node."""
    nt = params.time_grid.size
    return _u_conjugate(params.phi, params.g(x), np.tile(c ** params.gamma, (nt, 1)), params.gamma, values)


def conjugate_tariff(params, x, values):
    """The one-segment tariff that conjugates ``values`` on the types ``x``,
    checked against the dense maximum over those types on a grid."""
    nt = params.time_grid.size
    seg = ConjugateSegment(c_lo=np.zeros(nt), c_hi=np.full(nt, np.inf), phi=params.phi, gx=params.g(x),
                           values=values, label="sampled")
    tariff = Tariff(gamma=params.gamma, time_grid=params.time_grid, segments=[seg])
    c = np.linspace(0.0, 5.0, 301)
    dense = np.max(_utility_surface(params, x, c) - values[:, :, None], axis=1)
    np.testing.assert_array_equal(tariff.sample(c), dense)
    return tariff


def test_price_equal_to_top_type_utility_gives_zero_indirect_at_one():
    """The conjugate of the top type alone, at p* = 0, prices every
    consumption at that type's utility."""
    params = make_params(0.5)
    c = np.linspace(0.0, 5.0, 301)
    tariff = conjugate_tariff(params, np.array([1.0]), np.zeros((3, 1)))
    for i in range(3):
        _, value = best_responses(tariff, i, [1.0], c, params)
        assert_allclose(value, 0.0, atol=1e-12)


def test_constant_price_gives_corner_solution():
    """The conjugate of the type of zero taste alone, at p* = -kappa, is the
    constant price kappa."""
    params = make_params(0.5)
    c = np.linspace(0.0, 5.0, 301)
    kappa = 0.7
    x = np.linspace(0, 1, 51)
    tariff = conjugate_tariff(params, np.array([0.0]), np.full((3, 1), -kappa))
    assert np.all(tariff.sample(c) == kappa)
    expect = utility_surface(params, x, c[-1:])[:, :, 0] - kappa
    for i in range(3):
        cons, value = best_responses(tariff, i, x, c, params)
        # utility increasing in c: everyone maxes out the grid (x=0 is indifferent)
        assert np.all(cons[1:] == c[-1])
        assert_allclose(value, expect[i], rtol=1e-12)


def test_linear_indirect_utility_conjugates_to_positive_part():
    params = make_params(0.5)
    K0 = 0.4
    x = np.linspace(0.0, 1.0, 201)
    c = np.linspace(0.0, 3.0, 257)
    price = u_conjugate(params, x, np.tile(K0 * x, (3, 1)), c)
    expect = np.maximum(params.phi[:, None] * c[None, :] ** 0.5 / 0.5 - K0, 0.0)
    assert_allclose(price, expect, atol=1e-12)


def test_zero_indirect_utility_prices_at_top_type():
    params = make_params(0.5)
    x = np.linspace(0.0, 1.0, 101)
    c = np.linspace(0.0, 3.0, 100)
    price = u_conjugate(params, x, np.zeros((3, x.size)), c)
    expect = utility_surface(params, np.asarray([1.0]), c)[:, 0, :]
    assert_allclose(price, expect, rtol=1e-12)


@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_closed_form_round_trips_within_grid_resolution(gamma):
    """The types' grid best responses to the emitted tariff, and the
    u-conjugate of the sampled p*, reproduce the emitted closed forms up to
    a Lipschitz-scaled grid increment."""
    params = make_params(gamma)
    cfg = ScenarioConfig(params=params)
    report = solve_x0_star(cfg)
    tariff, p_star = build_tariff_const_h(cfg, report)
    c_top = float(tariff.breakpoints["c_top"].max()) * 1.2
    c = np.linspace(0.0, c_top, 512) if gamma > 0 else np.geomspace(c_top * 1e-5, c_top, 512)
    xg = np.linspace(0.0, 1.0, 601)

    # best responses: compare above the participation threshold
    ind = np.vstack([best_responses(tariff, i, xg, c, params)[1] for i in range(3)])
    mask = xg >= report.boundary["x0"]
    exact = p_star.values(xg)
    err = np.abs(ind[:, mask] - exact[:, mask]).max()
    bound = 2.0 * np.abs(np.diff(tariff.sample(c), axis=1)).max()
    assert err <= bound + 1e-9

    # u-conjugate: compare on the selected consumption band
    xs = np.linspace(0, 1, 2001)
    price = u_conjugate(params, xs, p_star.values(xs), c)
    bands = tariff.selected_range[0]
    sel = (c >= bands[:, 0].max()) & (c <= bands[:, 1].min())
    exact_price = np.vstack([tariff.price(i, c) for i in range(3)])
    err_p = np.abs(price[:, sel] - exact_price[:, sel]).max()
    bound_p = 2.0 * np.abs(np.diff(exact)).max() + 1e-6
    assert err_p <= bound_p


def test_convex_indirect_utility_passes_check():
    params = make_params(0.5)
    x = np.linspace(0.0, 1.0, 201)
    p_star = SampledFunctionOfType(x_grid=x, values=np.tile(x ** 2, (3, 1)))
    rep = check_u_convexity(p_star, params)
    assert rep.is_u_convex
    assert not rep.convexity_violations


def test_concave_indirect_utility_fails_check():
    params = make_params(0.5)
    x = np.linspace(0.0, 1.0, 201)
    p_star = SampledFunctionOfType(x_grid=x, values=np.tile(np.sqrt(x), (3, 1)))
    rep = check_u_convexity(p_star, params)
    assert not rep.is_u_convex
    assert rep.convexity_violations


def test_nonconvex_bridge_shape_reports_positive_gap():
    # a glue with b0 > a0 - 1/2 cannot be convex: gap must be detected
    params = make_params(0.5)
    x = np.linspace(0.0, 1.0, 401)
    a0, b0 = 0.62, 0.35  # violates b0 <= a0 - 1/2
    m = 2.0  # 1/(1-gamma)
    lower = 0.1 - 0.8 * (b0 ** m - np.minimum(x, b0) ** m)
    upper = 0.45 + 0.8 * (np.maximum(x - 0.5, 0.0) ** m - (a0 - 0.5) ** m)
    vals = np.where(x < b0, lower, np.nan)
    chord = lower[np.searchsorted(x, b0) - 1] + (x - b0) * (0.45 - 0.1) / (a0 - b0)
    vals = np.where((x >= b0) & (x <= a0), np.maximum(chord, lower[-1] * 0 + chord), vals)
    vals = np.where(x > a0, upper, vals)
    p_star = SampledFunctionOfType(x_grid=x, values=np.tile(vals, (3, 1)))
    rep = check_u_convexity(p_star, params)
    assert not rep.is_u_convex
    assert rep.max_biconjugation_gap > 1e-4


def grid_argmax_set(surface_1d, rel_tol=1e-12):
    """All indices attaining the grid maximum within a relative tolerance.

    The transform may be non-unique at kinks; no canonical selection is made.
    """
    m = np.max(surface_1d)
    return np.flatnonzero(surface_1d >= m - rel_tol * max(1.0, abs(m)))


def test_argmax_set_reports_all_ties_at_kinks():
    surface = np.array([0.0, 1.0, 1.0, 0.5, 1.0])
    ties = grid_argmax_set(surface)
    assert set(ties.tolist()) == {1, 2, 4}


def test_convex_surface_gap_is_rounding():
    """A convex nondecreasing surface has a biconjugation gap of rounding
    size on the canonical industrial branch: the check uses no grid."""
    params = make_params(0.5)
    x = np.linspace(0.0, 1.0, 401)
    p_star = SampledFunctionOfType(x_grid=x, values=np.tile(0.8 * x ** 2, (3, 1)))
    rep = check_u_convexity(p_star, params)
    assert rep.is_u_convex
    assert rep.max_biconjugation_gap <= 4 * np.finfo(float).eps * np.abs(p_star.values).max()


def tabulated_taste(gamma, values, derivative):
    """params of make_params with a 257-knot tabulated g."""
    xs = np.linspace(0.0, 1.0, 257)
    return dataclasses.replace(make_params(gamma), g=Table("g", xs, values(xs), derivative(xs), unit_span=True))


@pytest.mark.parametrize("form", ["canonical", "tabulated"])
@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_gap_matches_dense_biconjugation(gamma, form):
    """On random non-convex rows the exact gap, in total and at every
    violating sample, matches the dense biconjugation through a wide
    consumption grid, for increasing g (industrial) and
    decreasing g (residential). The dense biconjugate sees only the grid's
    supporting slopes phi u(c_k), so it lies below the exact one, by at most
    the missed slope times the range of g: the grid's relative slope
    spacing times the rows' largest slope, and on the residential branch
    the slopes below phi u(1e6) = -phi / 1e6 as well. The way back to the
    type grid is a dense maximum over that grid, taken in blocks of
    consumptions, so the reference does not use the hull."""
    params = make_params(gamma)
    if form == "tabulated":
        sign = np.sign(gamma)
        params = tabulated_taste(gamma, lambda x: (1 - sign) / 2 + sign * x + 0.1 * x * (1 - x),
                                 lambda x: sign + 0.1 * (1 - 2 * x))
    x = np.linspace(0.0, 1.0, 41)
    values = np.random.default_rng(41).normal(size=(3, x.size)).cumsum(axis=1) * 0.05
    p_star = SampledFunctionOfType(x_grid=x, values=values)
    rep = check_u_convexity(p_star, params)

    c = np.geomspace(1e-6, 1e6, 400_001)
    if gamma > 0:
        c = np.concatenate([[0.0], c])  # u(0) = 0 supplies the zero slope
    price = u_conjugate(params, x, values, c)
    back = np.full(values.shape, -np.inf)
    for lo in range(0, c.size, 10_000):
        block = slice(lo, lo + 10_000)
        surf = _utility_surface(params, x, c[block]) - price[:, None, block]
        back = np.maximum(back, surf.max(axis=2))
    dense = values - back
    gx = params.g(x)
    slope = np.abs(np.diff(values, axis=1) / np.diff(gx)).max()
    rho = (c[-1] / c[-2]) ** abs(gamma)
    tol = ((rho - 1) * slope + 1e-6 * params.phi.max()) * np.ptp(gx) + 1e-9
    assert abs(rep.max_biconjugation_gap - dense.max()) <= tol
    assert len(rep.convexity_violations) > x.size
    flagged = np.zeros(values.shape, dtype=bool)
    for i, xv, excess in rep.convexity_violations:
        j = np.searchsorted(x, xv)
        flagged[i, j] = True
        assert -tol <= excess - dense[i, j] <= 1e-9
    assert np.all(dense[~flagged] <= GAP_TOL * max(1.0, np.abs(values).max()) + tol)


@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_row_decreasing_in_oriented_g_is_flagged(gamma):
    """(x - 0.7)^2 is convex in s = sign(gamma) g(x) on both branches but
    decreasing below 0.7: the admissible slopes phi u(c) leave the row's
    minimum as the biconjugate there, 0.49 below p*(0)."""
    x = np.linspace(0.0, 1.0, 801)
    p_star = SampledFunctionOfType(x_grid=x, values=np.tile((x - 0.7) ** 2, (3, 1)))
    rep = check_u_convexity(p_star, make_params(gamma))
    assert not rep.is_u_convex
    assert_allclose(rep.max_biconjugation_gap, 0.49, rtol=1e-12)
    flagged = np.array([xv for _, xv, _ in rep.convexity_violations])
    assert flagged.max() < 0.7
    assert set(x[x <= 0.65].tolist()) <= set(flagged.tolist())


def test_convex_in_x_but_concave_in_g_is_flagged():
    """p* = 0.1 x on g = (x + x^2)/2 is linear in x but concave in s = g(x):
    the biconjugate is the chord 0.1 s, which lies 0.1 (x - x^2)/2 below,
    0.0125 at x = 1/2. The check before the exact hull also flagged it, but
    read a gap of 0.0975 off the default consumption grid."""
    params = tabulated_taste(0.5, lambda x: (x + x ** 2) / 2, lambda x: 0.5 + x)
    x = np.linspace(0.0, 1.0, 801)
    p_star = SampledFunctionOfType(x_grid=x, values=np.tile(0.1 * x, (3, 1)))
    rep = check_u_convexity(p_star, params)
    assert not rep.is_u_convex
    assert_allclose(rep.max_biconjugation_gap, 0.0125, rtol=1e-9)


# -- the hull conjugate against the dense surface --------------------------------

def assert_matches_dense(params, x, c, values, exact=False):
    """The u-conjugate equals the maxima over types of the dense
    (n_t, n_x, n_c) surface u - values: to 8 ulps, or bit for bit."""
    got = u_conjugate(params, x, values, c)
    ref = np.max(_utility_surface(params, x, c) - values[:, :, None], axis=1)
    if exact:
        np.testing.assert_array_equal(got, ref)
    tol = 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(got - ref) <= tol)


def kernel_grids(gamma):
    # increasing g with a linear c-grid through 0; decreasing g with a geomspace grid
    params = canonical_params(gamma, reservation=ConstantReservation(0.05 if gamma > 0 else -0.1),
                              phi=np.array([0.7, 1.0, 1.3]), time_nodes=3)
    c = np.linspace(0.0, 4.0, 173) if gamma > 0 else np.geomspace(1e-3, 4.0, 173)
    return params, np.linspace(0.0, 1.0, 97), c


@pytest.mark.parametrize("gamma", [0.5, -1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hull_conjugate_matches_dense_on_nonconvex_inputs(gamma, seed):
    params, x, c = kernel_grids(gamma)
    rng = np.random.default_rng(seed)
    assert_matches_dense(params, x, c, rng.normal(size=(3, x.size)))
    # smooth but non-convex rows: long runs of removed points between hull vertices
    assert_matches_dense(params, x, c, np.sin(6.0 * x)[None, :] + rng.normal(size=(3, 1)))


@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_hull_conjugate_matches_dense_on_exact_ties(gamma):
    """Where grid points tie exactly, the maxima are the dense ones bit for bit."""
    params, x, c = kernel_grids(gamma)
    assert_matches_dense(params, x, c, np.tile(0.4 * x - 0.1, (3, 1)), exact=True)
    assert_matches_dense(params, x, c, np.zeros((3, x.size)), exact=True)


@pytest.mark.parametrize("case", ["typed_a", "typed_b"])
def test_bridge_knots_equal_dense_reference(case, request):
    """Across the never-selected band the two end-type planes price every
    consumption at the dense maximum over the types, bit for bit."""
    sol, tariff, p_star = request.getfixturevalue(f"{case}_solution")
    params = request.getfixturevalue(f"{case}_config").params
    bridge = [s for s in tariff.segments if s.label.startswith("bridge")]
    assert [s.label for s in bridge] in (["bridge_b0", "bridge_a0"], ["bridge_a0", "bridge_b0"])
    xg = np.unique(np.concatenate([np.linspace(0.0, 1.0, 1501), [sol.a0, sol.b0]]))
    vals = p_star.values(xg)
    for i in range(params.time_grid.size):
        lo = max(bridge[0].c_lo[i], 1e-9 if params.gamma < 0 else 0.0)
        c = np.linspace(lo, bridge[1].c_hi[i], 65)
        dense = _utility_surface(params, xg, c)[i] - vals[i][:, None]
        np.testing.assert_array_equal(tariff.price(i, c), np.max(dense, axis=0))


def test_sampled_knots_equal_dense_reference(tmp_path):
    """The typed empty contract (industrial_sqrt_h at phi = 0.003) emits the
    sampled conjugate of its p* on 2001 types: at every time node, at
    consumptions off any grid and past 1e3, its prices are the dense maximum
    over those types, bit for bit."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(json.loads((CONFIG_DIR / "industrial_sqrt_h.json").read_text()), phi=0.003)))
    config = load_config(path)
    params = config.params
    sol = solve_a0_b0_star(config)
    assert (sol.a0, sol.b0) == (1.0, 0.0)
    tariff, p_star = build_tariff_typed_h(config, sol)
    [seg] = tariff.segments
    assert seg.label == "sampled"
    xg = np.linspace(0.0, 1.0, 2001)
    c = np.sort(np.concatenate([[0.0], np.random.default_rng(3).uniform(0.0, 2.0, 200), np.geomspace(1e-9, 1e5, 61)]))
    dense = _utility_surface(params, xg, c) - p_star.values(xg)[:, :, None]
    np.testing.assert_array_equal(tariff.sample(c), np.max(dense, axis=1))


@pytest.mark.parametrize("nodes", [[0.5], [0.2, 0.7]])
@pytest.mark.parametrize("g_form", ["canonical", "tabulated"])
def test_check_on_one_and_two_node_grids(nodes, g_form):
    """Too few nodes for a slope or a curvature: the check passes, and the
    biconjugation gap is rounding."""
    for gamma in (0.5, -1.0):
        params = make_params(gamma)
        if g_form == "tabulated":
            xs, sign = np.linspace(0.0, 1.0, 5), np.sign(gamma)
            params = dataclasses.replace(params, g=Table(
                "g", xs, (1.0 - sign) / 2 + sign * xs, np.full_like(xs, sign)))
        x = np.array(nodes)
        p_star = SampledFunctionOfType(x_grid=x, values=0.1 * np.arange(1.0, 4.0)[:, None] + 0.3 * x)
        rep = check_u_convexity(p_star, params)
        assert rep.is_u_convex
        assert rep.convexity_violations == []
        assert rep.max_biconjugation_gap <= 1e-9


# -- the hull kernel against its union1d form ------------------------------------

def lower_hull_reference(a, v):
    """The hull mask as first written: every sweep gathers neighbours through
    the link arrays and merges the next test list with ``np.union1d``."""
    nt, n = v.shape
    live = np.ones(nt * n, dtype=bool)
    flat = v.ravel()
    prv = np.arange(-1, nt * n - 1)
    nxt = np.arange(1, nt * n + 1)
    test = np.flatnonzero(np.tile((np.arange(n) > 0) & (np.arange(n) < n - 1), nt))
    while test.size:
        lo, hi = prv[test], nxt[test]
        a_lo = a[lo % n]
        v_lo = flat[lo]
        drop = test[(flat[test] - v_lo) * (a[hi % n] - a_lo) >= (flat[hi] - v_lo) * (a[test % n] - a_lo)]
        if not drop.size:
            break
        live[drop] = False
        linked = nxt[drop[:-1]] == drop[1:]
        left = prv[drop[np.concatenate([[True], ~linked])]]
        right = nxt[drop[np.concatenate([~linked, [True]])]]
        nxt[left] = right
        prv[right] = left
        test = np.union1d(left, right)
        test = test[(test % n > 0) & (test % n < n - 1)]
    return live.reshape(nt, n)


def hull_rows(rng, n):
    """Rows of the shapes that stress the sweeps; all but the first are exact
    on integer abscissae."""
    j = np.arange(n, dtype=float)
    return [
        rng.normal(size=n),
        np.cumsum(rng.integers(-1, 2, size=n)).astype(float),  # exact collinear runs
        rng.integers(0, 2, size=n).astype(float),               # exact ties
        np.concatenate([j[:-1] ** 2, [-1e6]]),                  # one point dropped per sweep
        (j - n // 2) ** 2,                                      # convex: nothing dropped
    ]


@pytest.mark.parametrize("n", [2, 3, 97, 1502])
@pytest.mark.parametrize("nt", [1, 3, 129])
def test_lower_hull_equals_reference(nt, n):
    from nltariff.uconvex import _lower_hull

    rng = np.random.default_rng(1000 * nt + n)
    for a in (np.arange(n, dtype=float), np.sort(rng.normal(size=n))):
        for shift in range(5):
            rows = hull_rows(rng, n)
            v = np.array([rows[(shift + i) % 5] for i in range(nt)])
            np.testing.assert_array_equal(_lower_hull(a, v), lower_hull_reference(a, v))


def test_lower_hull_temporaries_stay_linear():
    """Each sweep tests the live neighbours of the dropped runs once each.
    Tied rows put one live point between two runs, and without the merge's
    dedupe that point would be tested twice and the test list would grow
    from sweep to sweep; the mask is the same either way, but a 1502-point
    tied row then held about 40 MB."""
    from nltariff.uconvex import _lower_hull

    n = 1502
    v = np.random.default_rng(0).integers(0, 2, size=(1, n)).astype(float)
    tracemalloc.start()
    try:
        _lower_hull(np.arange(n, dtype=float), v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * v.size


# -- the hull conjugate's row layout against the dense surface -------------------

def test_hull_conjugate_row_layout_matches_dense():
    """Rows with different hull sizes share one call: a two-vertex row, an
    all-vertex row and a tied row, on type grids down to one point, both
    branches (gamma < 0 flips the decreasing g and c^gamma)."""
    for gamma in (0.5, -1.0):
        params, x, c = kernel_grids(gamma)
        gx = params.g(x)
        rows = np.array([-(gx - 0.5) ** 2, gx ** 2, np.round(np.sin(9.0 * x), 1)])
        assert_matches_dense(params, x, c, rows, exact=True)
        for m in (1, 2):
            values = np.arange(3.0 * m).reshape(3, m) % 2
            assert_matches_dense(params, x[-m:], c, values, exact=True)


@pytest.mark.parametrize("gamma", [0.5, -1.0])
def test_hull_conjugate_matches_dense_per_row_consumption_grid(gamma):
    """One consumption grid per time row, cpow of shape (n_t, 65): each row's
    maxima are the dense ones bit for bit."""
    params, x, _ = kernel_grids(gamma)
    rng = np.random.default_rng(5)
    c = np.sort(rng.uniform(0.01, 4.0, size=(3, 65)), axis=1)
    values = np.array([np.round(np.sin(6.0 * x), 1), x ** 2, rng.normal(size=x.size)])
    got = _u_conjugate(params.phi, params.g(x), c ** gamma, gamma, values)
    for i in range(3):
        dense = _utility_surface(params, x, c[i])[i] - values[i][:, None]
        np.testing.assert_array_equal(got[i], np.max(dense, axis=0))


# -- the hull conjugate in row blocks ---------------------------------------------

@pytest.mark.parametrize("gamma", [0.5, -1.0])
@pytest.mark.parametrize("nt", [1, ROW_BLOCK, ROW_BLOCK + 1, 129])
def test_row_blocks_match_one_pass_over_all_rows(nt, gamma):
    """Maxima bit for bit, on one consumption grid tiled over the rows and on
    per-row (n_t, 65) consumptions; rounded random walks give ties and
    concave pockets."""
    params, x, c = kernel_grids(gamma)
    rng = np.random.default_rng(nt)
    phi = rng.uniform(0.5, 1.5, nt)
    gx = params.g(x)
    knots = np.sort(rng.uniform(0.01, 4.0, size=(nt, 65)), axis=1) ** gamma
    values = np.round(rng.normal(size=(nt, x.size)).cumsum(axis=1), 1)
    for q in (np.tile(c ** gamma, (nt, 1)), knots):
        got = _u_conjugate(phi, gx, q, gamma, values)
        ref = _u_conjugate_rows(phi, gx, q, gamma, values)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_check_holds_one_block_of_conjugate_temporaries():
    """At 513 time nodes the check holds no full (n_t, n_x) array, only the
    hull and envelope temporaries of one ROW_BLOCK-row block, about 11
    block-sized arrays. The biconjugation through the consumption grid that
    it replaced held 8 full arrays besides its blocks."""
    nt = 513
    params = canonical_params(0.5, reservation=ConstantReservation(0.05), time_nodes=nt)
    x = np.linspace(0.0, 1.0, 801)
    values = np.linspace(0.3, 0.7, nt)[:, None] * np.maximum(x - 0.5, 0.0) ** 2
    p_star = SampledFunctionOfType(x_grid=x, values=values)
    tracemalloc.start()
    try:
        check_u_convexity(p_star, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * ROW_BLOCK * x.size * 8
