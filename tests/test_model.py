"""Market primitives: utilities, costs, the aggregate map and its inverse."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from nltariff import model
from nltariff.errors import ConvergenceError, DomainError, InvalidParams, InvalidReservation
from nltariff.model import (
    ConcaveReservation,
    ConstantReservation,
    ModelParams,
    Table,
    TasteMap,
    UniformTypes,
    canonical_params,
    eval_cost,
    eval_marginal_cost,
    eval_utility,
    g_K,
    g_K_inverse,
)
from tests.conftest import varying_profile_params

# both signs of gamma on both cost branches, power (False) and tabulated (True)
COST_BRANCHES = pytest.mark.parametrize("gamma, tabulated", [(0.5, False), (-1.0, False), (0.5, True), (-1.0, True)])


def test_eval_utility_industrial():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert_allclose(eval_utility(0.5, 1.0, p), 1.0)   # 0.5 * 1 * 1 / 0.5


def test_eval_utility_residential():
    p = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    assert_allclose(eval_utility(0.0, 1.0, p), -1.0)  # (1-0) * 1 * 1^-1 / -1


def test_eval_utility_zero_consumption_rejected_when_staple():
    p = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    with pytest.raises(DomainError):
        eval_utility(0.5, 0.0, p)


def test_eval_utility_zero_consumption_ok_industrial():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert np.all(eval_utility(0.5, 0.0, p) == 0.0)


@pytest.mark.parametrize("k, n, c, K_exp, Kc_exp", [
    (1.0, 2.0, 2.0, 2.0, 2.0),
    (2.0, 3.0, 1.0, 2.0 / 3.0, 2.0),
    (1.0, 2.0, 0.0, 0.0, 0.0),
])
def test_eval_cost_power(k, n, c, K_exp, Kc_exp):
    p = canonical_params(0.5, n=n, k=k, reservation=ConstantReservation(0.05))
    assert_allclose(eval_cost(c, p), K_exp)
    assert_allclose(eval_marginal_cost(c, p), Kc_exp)


def test_eval_cost_rejects_negative():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    with pytest.raises(DomainError):
        eval_cost(-1.0, p)


def test_g_K_inverse_power_closed_form():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert_allclose(g_K_inverse(1.0, p), 1.0)    # g_K(1) = 1 * 1^2 = 1
    assert np.all(g_K_inverse(0.0, p) == 0.0)


def test_g_K_inverse_example_residential():
    # c solving c (2 c^2)^(1/2) = 3, i.e. (3/sqrt(2))^(1/2); frozen from a
    # bisection oracle on the forward map
    p = canonical_params(-1.0, n=3.0, k=2.0, reservation=ConstantReservation(-0.1))
    c = g_K_inverse(3.0, p)
    assert_allclose(c, 1.4564753151219703, rtol=1e-12)
    assert_allclose(g_K(c, p), 3.0, rtol=1e-12)


def test_g_K_inverse_tabulated_cost_forward_check():
    cs = np.geomspace(1e-6, 50.0, 4000)
    table = Table("cost_table", cs, cs ** 2 / 2.0, cs)
    t = np.linspace(0.0, 1.0, 3)
    p = ModelParams(
        gamma=0.5, horizon=1.0, time_grid=t, phi=np.ones(3), k=np.ones(3),
        n=None, cost_table=table,
        g=TasteMap(gamma_sign=1),
        f=UniformTypes(),
        reservation=ConstantReservation(0.05),
    )
    for y in [0.03, 0.8, 5.0]:
        c = g_K_inverse(y, p, root_tol=1e-13)
        assert_allclose(g_K(c, p), y, atol=1e-8, rtol=1e-8)


def test_marginal_cost_strictly_increasing():
    p = canonical_params(0.5, n=1.7, reservation=ConstantReservation(0.05))
    cs = np.linspace(0.0, 10.0, 200)
    mc = eval_marginal_cost(cs[:, None], p)
    assert np.all(np.diff(mc, axis=0) > 0)


def test_g_K_roundtrip_log_grid():
    p = canonical_params(-0.5, n=2.5, k=1.3, reservation=ConstantReservation(-0.1))
    cs = np.geomspace(1e-3, 1e3, 61)
    ys = np.asarray(g_K(cs[:, None], p))
    back = np.array([g_K_inverse(y, p) for y in ys])
    assert_allclose(back, np.broadcast_to(cs[:, None], back.shape), rtol=1e-8)


def _tabulated_params(gamma, c, Kc):
    K = np.concatenate([[0.0], np.cumsum(0.5 * (Kc[1:] + Kc[:-1]) * np.diff(c))])
    t = np.linspace(0.0, 1.0, 3)
    return ModelParams(
        gamma=gamma, horizon=1.0, time_grid=t, phi=np.ones(3), k=np.ones(3),
        n=None, cost_table=Table("cost_table", c, K, Kc),
        g=TasteMap(gamma_sign=1 if gamma > 0 else -1),
        f=UniformTypes(),
        reservation=ConstantReservation(0.05 if gamma > 0 else -0.05),
    )


def _scalar_g_K_inverse(y, params, root_tol=1e-12):
    """The tabulated inversion one target at a time, as a scalar bracket
    expansion and bisection: the reference for the array kernel.

    g_K runs on a one-element array. numpy's scalar pow and its array pow
    differ in the last bit on about 0.1% of inputs, and above the top knot,
    where the bisection runs down to adjacent doubles, that alone moves the
    root by an ulp.
    """
    fwd = lambda c: g_K(np.array([c]), params)[0]
    if y == 0.0:
        return 0.0
    hi = max(params.cost_table.x[1], 1e-6)
    for _ in range(300):
        if fwd(hi) >= y:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"could not bracket target {y:.6g} by doubling")
    lo = 0.0
    flo, fhi = fwd(lo) - y, fwd(hi) - y
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fwd(mid) - y
        if fm == 0.0 or (hi - lo) < root_tol:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _inverse_cases(gamma, seed):
    """Random convex tables and the targets that exercise every exit of the
    inversion: y = 0, targets inside and far above the table (where the
    marginal cost is held flat and the bisection runs out of digits),
    targets that need many doublings, and exact hits of g_K at the first
    bracket end and at bisection midpoints."""
    rng = np.random.default_rng(seed)
    for first in (2.0 ** -rng.integers(1, 4), 1e-7, rng.uniform(0.01, 1.0)):
        m = int(rng.integers(4, 300))
        c = np.concatenate([[0.0, first], first + np.cumsum(rng.uniform(0.01, 1.0, m - 2))])
        Kc = np.cumsum(rng.uniform(0.0, 2.0, m))
        p = _tabulated_params(gamma, c, Kc)
        hi0 = max(c[1], 1e-6)
        top = float(g_K(c[-1:], p)[0])
        dyadic = hi0 * np.array([1.0, 2.0, 4.0, 0.5, 0.75, 0.625, 3.0, 5.5, 2.0 ** 20])
        ys = np.concatenate([
            [0.0, 0.0],
            rng.uniform(0.0, top, 25),
            top * np.array([1.0, 1.5, 1e3, 1e9, 1e15]),
            10.0 ** rng.uniform(-12, 12, 12),
            [1e-60, 1e-200],
            g_K(dyadic, p),
        ])
        yield p, ys


@pytest.mark.parametrize("root_tol", [1e-12, 2.0 ** -30, 0.0])
@pytest.mark.parametrize("gamma, seed", [(0.5, 3), (0.5, 11), (-1.0, 5), (-1.0, 17)])
def test_g_K_inverse_array_matches_scalar_bisection_bitwise(gamma, seed, root_tol):
    for p, ys in _inverse_cases(gamma, seed):
        got = g_K_inverse(ys, p, root_tol=root_tol)
        ref = np.array([_scalar_g_K_inverse(y, p, root_tol) for y in ys])
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        for y, r in zip(ys[::7], ref[::7]):
            c = g_K_inverse(float(y), p, root_tol=root_tol)
            assert type(c) is float and c == r


def test_g_K_inverse_keeps_the_shape_of_y():
    p = _tabulated_params(-1.0, np.linspace(0.0, 20.0, 401), np.linspace(0.0, 20.0, 401))
    ys = np.array([[0.0, 0.5, 2.0], [3.0, 0.0, 1e4]])
    got = g_K_inverse(ys, p)
    assert got.shape == ys.shape
    assert got[0, 0] == got[1, 1] == 0.0
    assert_allclose(g_K(got, p), ys, rtol=1e-10)


def assert_bitwise(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@COST_BRANCHES
def test_cost_kernels_follow_time_varying_profiles(gamma, tabulated):
    """K, dK/dc and g_K on an (m, n_t) grid equal, bit for bit, the same
    formulas evaluated one time node at a time with that node's k."""
    p = varying_profile_params(gamma, tabulated)
    c = np.random.default_rng(7).uniform(0.0, 5.0, (40, p.time_grid.size))
    K, Kc, G = np.empty_like(c), np.empty_like(c), np.empty_like(c)
    for i in range(c.shape[1]):
        ci = c[:, i].copy()
        if tabulated:
            K[:, i] = np.interp(ci, p.cost_table.x, p.cost_table.values)
            Kc[:, i] = np.interp(ci, p.cost_table.x, p.cost_table.derivative)
        else:
            K[:, i] = p.k[i] * ci ** p.n / p.n
            Kc[:, i] = p.k[i] * ci ** (p.n - 1.0)
        G[:, i] = ci * Kc[:, i] ** (1.0 / (1.0 - gamma))
    assert_bitwise(eval_cost(c, p), K)
    assert_bitwise(eval_marginal_cost(c, p), Kc)
    assert_bitwise(g_K(c, p), G)


@COST_BRANCHES
def test_g_K_inverse_round_trip_on_time_varying_profiles(gamma, tabulated):
    """g_K_inverse(g_K(c)) returns c, and equals, bit for bit, the inverse
    taken one time node at a time: the closed form with that node's k, or
    the scalar bisection of a tabulated cost."""
    p = varying_profile_params(gamma, tabulated)
    c = np.random.default_rng(8).uniform(0.01, 5.0, (40, p.time_grid.size))
    y = g_K(c, p)
    ref = np.empty_like(y)
    for i in range(y.shape[1]):
        if tabulated:
            ref[:, i] = [_scalar_g_K_inverse(v, p) for v in y[:, i]]
        else:
            # a one-node slice of k keeps the array pow of the kernel
            ref[:, i] = (y[:, i] / p.k[i:i + 1] ** (1.0 / (1.0 - gamma))) ** ((1.0 - gamma) / (p.n - gamma))
    back = g_K_inverse(y, p)
    assert_bitwise(back, ref)
    assert_allclose(back, c, rtol=1e-9)


@pytest.mark.parametrize("y", [np.nan, np.inf, -1.0, [0.5, np.nan]])
@pytest.mark.parametrize("tabulated", [False, True])
def test_g_K_inverse_refuses_y_outside_its_domain(y, tabulated, monkeypatch):
    """A NaN used to run 300 doublings before a ConvergenceError (tabulated
    cost) or come back as NaN (power cost)."""
    if tabulated:
        p = _tabulated_params(0.5, np.linspace(0.0, 20.0, 401), np.linspace(0.0, 20.0, 401))
    else:
        p = canonical_params(0.5, reservation=ConstantReservation(0.05))

    def forward_map_called(*args):
        raise AssertionError("g_K evaluated before the domain check")

    monkeypatch.setattr(model, "g_K", forward_map_called)
    with pytest.raises(DomainError):
        g_K_inverse(y, p)


# -- validation -----------------------------------------------------------

def test_gamma_zero_rejected():
    with pytest.raises(InvalidParams):
        canonical_params(0.0, reservation=ConstantReservation(0.05))


def test_gamma_above_one_rejected():
    with pytest.raises(InvalidParams):
        canonical_params(1.5, reservation=ConstantReservation(0.05))


def test_cost_exponent_must_exceed_one():
    with pytest.raises(InvalidParams):
        canonical_params(0.5, n=1.0, reservation=ConstantReservation(0.05))


def test_reservation_sign_rules():
    with pytest.raises(InvalidReservation):
        canonical_params(0.5, reservation=ConstantReservation(-0.05))
    with pytest.raises(InvalidReservation):
        canonical_params(-1.0, reservation=ConstantReservation(0.05))


@pytest.mark.parametrize("gamma, H", [(0.5, np.nan), (0.5, np.inf), (-1.0, np.nan), (-1.0, -np.inf)])
def test_constant_reservation_must_be_finite(gamma, H):
    with pytest.raises(InvalidReservation):
        canonical_params(gamma, reservation=ConstantReservation(H))


def test_negative_phi_rejected():
    with pytest.raises(InvalidParams):
        canonical_params(0.5, phi=np.array([1.0, -1.0, 1.0]), time_nodes=3,
                         reservation=ConstantReservation(0.05))


def test_tabulated_density_renormalized_and_validated():
    x = np.linspace(0.0, 1.0, 101)
    dens = 2.0 * x * 1.00005  # off by 5e-5: tolerated and renormalized
    dist = Table.from_density(x, dens)
    mass = np.trapezoid(dist.prime(x), x)
    assert_allclose(mass, 1.0, atol=1e-12)
    with pytest.raises(InvalidParams):
        Table.from_density(x, 2.0 * x * 1.01)  # off by 1e-2: rejected


@pytest.mark.parametrize("x", [[1.0, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.25, 0.5], [0.1, 0.5, 1.0], [0.0]],
                         ids=["decreasing", "repeated", "short-top", "short-bottom", "one-node"])
def test_tabulated_taste_map_refuses_a_grid_that_is_not_increasing_over_0_1(x):
    with pytest.raises(InvalidParams) as exc:
        Table("g", x, np.zeros(len(x)), np.ones(len(x)), unit_span=True)
    assert exc.value.field == "g"


def test_tabulated_taste_map_keeps_its_samples():
    x = np.linspace(0.0, 1.0, 5)
    g = Table("g", x, x ** 2, 2.0 * x, unit_span=True)
    assert isinstance(g, Table)
    assert_allclose(g(np.array([0.25, 0.6])), [0.0625, 0.375])
    assert_allclose(g.prime(np.array([0.25, 0.6])), [0.5, 1.2])


TABLE_BUILDS = {
    "cost_table": lambda x: Table("cost_table", x, [0.0, 0.1, np.nan, 0.3, 0.4], x),
    "reservation": lambda x: ConcaveReservation.from_table(x, [0.0, 0.5, 0.7, np.inf, 1.0],
                                                           [1.0, 0.8, 0.6, 0.4, 0.2]),
    "f": lambda x: Table.from_density(x, [1.0, 1.0, np.nan, 1.0, 1.0]),
    "g": lambda x: Table("g", x, x[:4], np.ones_like(x), unit_span=True),
}


@pytest.mark.parametrize("field", list(TABLE_BUILDS))
def test_table_built_in_python_refuses_bad_samples(field):
    """A table built through the Python API is checked as a config's is: a
    NaN cost, an infinite H, a NaN density, and 4 values on 5 knots each
    raise InvalidParams naming the field, not a NaN result or numpy's
    error on first use."""
    with pytest.raises(InvalidParams) as exc:
        TABLE_BUILDS[field](np.linspace(0.0, 1.0, 5))
    assert exc.value.field == field


def test_concave_reservation_needs_strict_concavity():
    x = np.linspace(0.0, 1.0, 51)
    with pytest.raises(InvalidReservation):
        canonical_params(
            0.5,
            reservation=ConcaveReservation.from_table(x, x, np.ones_like(x)),
        )


def test_concave_reservation_negative_interior_for_residential():
    res = ConcaveReservation.from_callables(
        lambda x: np.sqrt(np.asarray(x) + 0.01),
        lambda x: 0.5 / np.sqrt(np.asarray(x) + 0.01),
    )
    with pytest.raises(InvalidReservation):
        canonical_params(-1.0, reservation=res)


def test_utility_monotone_in_type_both_branches():
    # du/dx = g' phi c^gamma / gamma > 0 on both branches
    for gamma, H in [(0.5, 0.05), (-1.0, -0.1)]:
        p = canonical_params(gamma, reservation=ConstantReservation(H))
        xs = np.linspace(0.0, 1.0, 21)
        u = np.array([eval_utility(x, 0.7, p) for x in xs])
        assert np.all(np.diff(u, axis=0) > 0)
