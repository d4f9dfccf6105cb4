import numpy as np
import pytest

from nltariff.model import (
    ConcaveReservation,
    ConstantReservation,
    ModelParams,
    ScenarioConfig,
    Table,
    TasteMap,
    UniformTypes,
    canonical_params,
)

# Frozen expected values, computed by independent brute force (dense grid
# maximization of the reduced objective with Riemann-sum coverage integrals,
# 20001-point boundary scans). See the test modules for the oracles
# themselves; these constants pin the benchmark scenarios.
BENCH1 = {  # gamma=0.5, n=2, phi=k=1, T=1, uniform f, H=0.05
    "x0": 0.582876751576,
    "U_P": 0.4320437578407023,
    "y0": 0.02747422380716011,
}
BENCH2 = {  # gamma=-1, n=2, phi=k=1, T=1, H=-0.1
    "x0": 0.9639437607423148,
    "U_P": 0.0018028119628842603,
}
TYPED_A = {  # gamma=0.5, H(x)=sqrt(x): only the high types sign
    "a0": 0.81635,
    "b0": 0.0,
    "value": 0.20797569673006738,
}
TYPED_B = {  # gamma=-1, H(x)=log(x): only the low types sign
    "a0": 1.0,
    "b0": 0.15455,
    "value": 0.1775542295205406,
}


def sqrt_reservation():
    return ConcaveReservation.from_callables(
        lambda x: np.sqrt(np.asarray(x, dtype=float)),
        lambda x: np.where(np.asarray(x) > 0, 0.5 / np.sqrt(np.maximum(x, 1e-300)), np.inf),
    )


def log_reservation():
    def h(x):
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(np.asarray(x, dtype=float), 1e-300))

    return ConcaveReservation.from_callables(
        h, lambda x: 1.0 / np.maximum(np.asarray(x, dtype=float), 1e-300)
    )


def varying_profile_params(gamma, tabulated_cost):
    """Canonical taste and uniform types with phi(t) and k(t) that vary over
    5 time nodes, and either the power cost n = 2.5 or a tabulated cost with
    marginal cost c/2 + c^2/10."""
    t = np.linspace(0.0, 1.0, 5)
    if tabulated_cost:
        c = np.linspace(0.0, 20.0, 401)
        cost = {"n": None, "cost_table": Table("cost_table", c, c ** 2 / 4.0 + c ** 3 / 30.0,
                                                                    c / 2.0 + c ** 2 / 10.0)}
    else:
        cost = {"n": 2.5}
    return ModelParams(
        gamma=gamma, horizon=1.0, time_grid=t,
        phi=np.array([0.7, 1.3, 0.9, 2.1, 1.1]), k=np.array([1.6, 0.6, 1.2, 0.8, 2.4]),
        g=TasteMap(gamma_sign=1 if gamma > 0 else -1),
        f=UniformTypes(),
        reservation=ConstantReservation(0.05 if gamma > 0 else -0.05),
        **cost,
    )


@pytest.fixture(scope="session")
def bench1_config():
    params = canonical_params(0.5, reservation=ConstantReservation(0.05), time_nodes=3)
    return ScenarioConfig(params=params)


@pytest.fixture(scope="session")
def bench2_config():
    params = canonical_params(-1.0, reservation=ConstantReservation(-0.1), time_nodes=3)
    return ScenarioConfig(params=params)


@pytest.fixture(scope="session")
def typed_a_config():
    params = canonical_params(0.5, reservation=sqrt_reservation(), time_nodes=3)
    return ScenarioConfig(params=params)


@pytest.fixture(scope="session")
def typed_b_config():
    params = canonical_params(-1.0, reservation=log_reservation(), time_nodes=3)
    return ScenarioConfig(params=params)


@pytest.fixture(scope="session")
def bench1_solution(bench1_config):
    from nltariff.solver_const_h import build_tariff_const_h, solve_x0_star

    report = solve_x0_star(bench1_config)
    tariff, p_star = build_tariff_const_h(bench1_config, report)
    return report, tariff, p_star


@pytest.fixture(scope="session")
def bench2_solution(bench2_config):
    from nltariff.solver_const_h import build_tariff_const_h, solve_x0_star

    report = solve_x0_star(bench2_config)
    tariff, p_star = build_tariff_const_h(bench2_config, report)
    return report, tariff, p_star


@pytest.fixture(scope="session")
def typed_a_solution(typed_a_config):
    from nltariff.solver_typed_h import build_tariff_typed_h, solve_a0_b0_star

    sol = solve_a0_b0_star(typed_a_config)
    tariff, p_star = build_tariff_typed_h(typed_a_config, sol)
    return sol, tariff, p_star


@pytest.fixture(scope="session")
def typed_b_solution(typed_b_config):
    from nltariff.solver_typed_h import build_tariff_typed_h, solve_a0_b0_star

    sol = solve_a0_b0_star(typed_b_config)
    tariff, p_star = build_tariff_typed_h(typed_b_config, sol)
    return sol, tariff, p_star
