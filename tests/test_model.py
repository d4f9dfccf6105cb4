"""Market primitives: utilities, costs, the aggregate map and its inverse."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from nltariff.errors import DomainError, InvalidParams, InvalidReservation
from nltariff.model import (
    ConcaveReservation,
    ConstantReservation,
    ModelParams,
    TabulatedCost,
    TasteMap,
    TypeDistribution,
    canonical_params,
    eval_cost,
    eval_marginal_cost,
    eval_utility,
    g_K,
    g_K_inverse,
)


def test_eval_utility_industrial():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert_allclose(eval_utility(0.0, 0.5, 1.0, p), 1.0)   # 0.5 * 1 * 1 / 0.5


def test_eval_utility_residential():
    p = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    assert_allclose(eval_utility(0.0, 0.0, 1.0, p), -1.0)  # (1-0) * 1 * 1^-1 / -1


def test_eval_utility_zero_consumption_rejected_when_staple():
    p = canonical_params(-1.0, reservation=ConstantReservation(-0.1))
    with pytest.raises(DomainError):
        eval_utility(0.0, 0.5, 0.0, p)


def test_eval_utility_zero_consumption_ok_industrial():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert eval_utility(0.0, 0.5, 0.0, p) == 0.0


@pytest.mark.parametrize("k, n, c, K_exp, Kc_exp", [
    (1.0, 2.0, 2.0, 2.0, 2.0),
    (2.0, 3.0, 1.0, 2.0 / 3.0, 2.0),
    (1.0, 2.0, 0.0, 0.0, 0.0),
])
def test_eval_cost_power(k, n, c, K_exp, Kc_exp):
    p = canonical_params(0.5, n=n, k=k, reservation=ConstantReservation(0.05))
    assert_allclose(eval_cost(0.0, c, p), K_exp)
    assert_allclose(eval_marginal_cost(0.0, c, p), Kc_exp)


def test_eval_cost_rejects_negative():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    with pytest.raises(DomainError):
        eval_cost(0.0, -1.0, p)


def test_g_K_inverse_power_closed_form():
    p = canonical_params(0.5, reservation=ConstantReservation(0.05))
    assert_allclose(g_K_inverse(0.0, 1.0, 0.5, p), 1.0)    # g_K(1) = 1 * 1^2 = 1
    assert g_K_inverse(0.0, 0.0, 0.5, p) == 0.0


def test_g_K_inverse_example_residential():
    # c solving c (2 c^2)^(1/2) = 3, i.e. (3/sqrt(2))^(1/2); frozen from a
    # bisection oracle on the forward map
    p = canonical_params(-1.0, n=3.0, k=2.0, reservation=ConstantReservation(-0.1))
    c = g_K_inverse(0.0, 3.0, -1.0, p)
    assert_allclose(c, 1.4564753151219703, rtol=1e-12)
    assert_allclose(g_K(0.0, c, p), 3.0, rtol=1e-12)


def test_g_K_inverse_tabulated_cost_forward_check():
    cs = np.geomspace(1e-6, 50.0, 4000)
    table = TabulatedCost.from_samples(cs, cs ** 2 / 2.0, cs)
    t = np.linspace(0.0, 1.0, 3)
    p = ModelParams(
        gamma=0.5, horizon=1.0, time_grid=t, phi=np.ones(3), k=np.ones(3),
        n=None, cost_table=table,
        g=TasteMap(form="canonical", gamma_sign=1),
        f=TypeDistribution.uniform(),
        reservation=ConstantReservation(0.05),
    )
    for y in [0.03, 0.8, 5.0]:
        c = g_K_inverse(0.0, y, 0.5, p, root_tol=1e-13)
        assert_allclose(g_K(0.0, c, p), y, atol=1e-8, rtol=1e-8)


def test_marginal_cost_strictly_increasing():
    p = canonical_params(0.5, n=1.7, reservation=ConstantReservation(0.05))
    cs = np.linspace(0.0, 10.0, 200)
    mc = eval_marginal_cost(0.0, cs, p)
    assert np.all(np.diff(mc) > 0)


def test_g_K_roundtrip_log_grid():
    p = canonical_params(-0.5, n=2.5, k=1.3, reservation=ConstantReservation(-0.1))
    cs = np.geomspace(1e-3, 1e3, 61)
    ys = np.asarray(g_K(0.0, cs, p))
    back = np.array([g_K_inverse(0.0, y, -0.5, p) for y in ys])
    assert_allclose(back, cs, rtol=1e-8)


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
    dist = TypeDistribution.tabulated(x, dens)
    mass = np.trapezoid(dist.pdf(x), x)
    assert_allclose(mass, 1.0, atol=1e-12)
    with pytest.raises(InvalidParams):
        TypeDistribution.tabulated(x, 2.0 * x * 1.01)  # off by 1e-2: rejected


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
        u = np.array([eval_utility(0.0, x, 0.7, p) for x in xs])
        assert np.all(np.diff(u) > 0)
