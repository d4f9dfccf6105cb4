"""Lagrangian-dual certificate of the constant-reservation optimum.

Fix the threshold x0 and a time node t. By the envelope formula a type's
indirect utility has slope phi_t g' c^gamma / gamma at consumption c, so the
relaxed screening problem, in the served types' consumptions on [x0, 1], is

    max_c  int B c^gamma dx - K_t(int c f dx),   B = w phi_t g' / gamma,

with the screening weight w = (g f + g'(F - 1)) / g'. Each row term is
concave in c where gamma B > 0 and best left at c = 0 elsewhere, and the rows
share one coupling, the aggregate cost. Pricing the aggregate at a marginal
cost kappa separates them: by weak duality, for every kappa > 0

    D_t(kappa) = max_c int (B c^gamma - kappa c f) dx + K_t*(kappa)

bounds the node's optimum from above, and the best kappa attains it. The
best rows consume c* = (gamma B / (kappa f))^(1/(1-gamma)), that is
(phi_t / kappa)^(1/(1-gamma)) h with h = (max(w g', 0) / f)^(1/(1-gamma)).
So one time-free quadrature, J(x0) = int_{x0}^{1} h f dx, gives every node's
consumption C_t(kappa) = (phi_t / kappa)^(1/(1-gamma)) J, and the rows'
value is (1-gamma)/gamma kappa C_t. D_t is convex, with derivative
A(kappa) - C_t(kappa) for A the inverse marginal cost: its minimum is the
root of A^(1-gamma) K_t'(A) = phi_t J^(1-gamma), explicit for the power cost
and bisected for a cost table. At kappa = K_t'(A), K_t*(kappa) =
kappa A - K_t(A), and the threshold's bound is

    Phi(x0) = int_0^T D_t dt + (F(x0) - 1) H,   0 at x0 = 1 (no contract).

Any kappa gives a bound, so an inexact root only loosens it, and a search
that misses the maximum of Phi reads below the solver's profit: an alarm,
not a false pass. No threshold equation, tariff or indirect utility enters.

Phi is maximized on one quadrature that every threshold shares: a cumulative
trapezoid of h f on a grid over [0, 1] graded toward x = 1, where the served
set ends and the residential h f has a square-root end, plus the threshold's
partial cell. A scan of the candidates and a golden-section refinement
locate x0; the reported value is one trapezoid of h f on a grid of its own
over [x0, 1]. Phi is flat at its peak, so the shared grid costs no value.
"""
from dataclasses import dataclass, field

import numpy as np

from .model import eval_cost, eval_marginal_cost
from .numerics import grid_then_golden_max, invert_increasing, tail_integrals, trapezoid

ROOT_TOL = 1e-12    # bisection tolerance of a cost table's dual root


@dataclass(eq=False)
class OracleResult:
    value: float
    x0: float
    iterations: int               # thresholds the search evaluated
    x0_values: list = field(default_factory=list)


def _screening_weight(params, x_nodes):
    gp = params.g.prime(x_nodes)
    return (params.g(x_nodes) * params.f.prime(x_nodes) + gp * (params.f(x_nodes) - 1.0)) / gp


def _coverage_density(params, x_nodes):
    """h f on ``x_nodes``, h = (max(w g', 0) / f)^(1/(1-gamma))."""
    fx = params.f.prime(x_nodes)
    weight = np.maximum(_screening_weight(params, x_nodes) * params.g.prime(x_nodes), 0.0)
    return (weight / fx) ** (1.0 / (1.0 - params.gamma)) * fx


def _dual_aggregates(params, J):
    """The aggregate A at each node's dual minimum, where
    A^(1-gamma) K_t'(A) = phi_t J^(1-gamma); one row per coverage in the 1-D
    array ``J``, one column per time node."""
    gamma = params.gamma
    y = params.phi * J[:, None] ** (1.0 - gamma)
    if params.is_power_cost:
        return (y / params.k) ** (1.0 / (params.n - gamma))
    A = np.zeros(y.shape)
    pos = y > 0.0
    A[pos] = invert_increasing(lambda a: a ** (1.0 - gamma) * eval_marginal_cost(a, params), y[pos],
                               hi0=max(params.cost_table.x[1], 1e-6), xtol=ROOT_TOL)
    return A


def _dual_bound(params, x0s, J):
    """Phi at the 1-D array of thresholds ``x0s`` with coverages ``J``."""
    gamma = params.gamma
    A = _dual_aggregates(params, J)
    kappa = eval_marginal_cost(A, params)
    # no consumption where A = 0, and kappa = K'(0) may be 0 there
    with np.errstate(divide="ignore", invalid="ignore"):
        C = (params.phi / kappa) ** (1.0 / (1.0 - gamma)) * J[:, None]
        rows = np.where(A > 0.0, (1.0 - gamma) / gamma * kappa * C, 0.0)
    D = rows + kappa * A - eval_cost(A, params)
    out = trapezoid(D, params.time_grid) + (params.f(x0s) - 1.0) * params.reservation.H
    return np.where(x0s < 1.0, out, 0.0)


def oracle_relaxed_maximize_const_h(params, type_grid_size=20001, x0_candidates=None):
    """Maximize the dual bound Phi(x0) over thresholds.

    ``type_grid_size`` is the node count of both quadratures of h f: the
    shared grid over [0, 1] and the reported threshold's own grid.
    ``x0_candidates`` is the increasing scan grid (41 points on [0, 1] by
    default). Returns an OracleResult whose ``value`` bounds the optimum
    from above, up to quadrature, and is attained at ``x0``; x0 = 1 with
    value 0 is the empty contract, which wins when no threshold bounds
    above 0. ``x0_values`` lists every threshold the search evaluated with
    its bound on the shared grid.
    """
    if x0_candidates is None:
        x0_candidates = np.linspace(0.0, 1.0, 41)
    coverage = tail_integrals(lambda x: _coverage_density(params, x), type_grid_size)
    evaluated = []

    def bound(x0):
        x0s = np.atleast_1d(np.asarray(x0, dtype=float))
        vals = _dual_bound(params, x0s, coverage(x0s))
        evaluated.extend(zip(x0s.tolist(), vals.tolist()))
        return vals if np.ndim(x0) else float(vals[0])

    x0, value = grid_then_golden_max(bound, x0_candidates)
    x0 = float(x0)
    if x0 < 1.0:
        nodes = np.linspace(x0, 1.0, type_grid_size)
        J = np.array([trapezoid(_coverage_density(params, nodes), nodes)])
        value = float(_dual_bound(params, np.array([x0]), J)[0])
    if not value > 0.0:
        x0, value = 1.0, 0.0
    return OracleResult(value=value, x0=x0, iterations=len(evaluated), x0_values=sorted(evaluated))
