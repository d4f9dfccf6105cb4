"""Closed forms of the canonical power/uniform setting, shared by both solvers.

The served types form at most two components, [0, b0] and [a0, 1]. On each
the optimal indirect utility is a power of a shape u(x), and the tariff that
serves it is polynomial in consumption. A constant reservation is the case
with one component, [x0, 1]: a0 = x0 and b0 = 0, served by the upper shape
on both branches.
"""
from dataclasses import dataclass

import numpy as np

from .tariff import TariffSegment


def time_weight(params):
    """((phi^n / k^gamma))^(1/(n-gamma)) on the time grid (power cost only)."""
    return (params.phi ** params.n / params.k ** params.gamma) ** (1.0 / (params.n - params.gamma))


def B_gamma(params):
    """(1/gamma - 1/n) * int (phi^n / k^gamma)^(1/(n-gamma)) dt; positive on the
    industrial branch, negative on the residential one."""
    g, n = params.gamma, params.n
    return (1.0 / g - 1.0 / n) * params.time_integral(time_weight(params))


def R_gamma(a0, b0, params):
    """Coverage polynomial: dimensionless, equals 2(2-gamma)/(1-gamma) ell
    under the canonical power/uniform setting."""
    g = params.gamma
    q = (2.0 - g) / (1.0 - g)
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    if g > 0:
        return 1.0 + (2.0 * b0) ** q - np.maximum(2.0 * a0 - 1.0, 0.0) ** q
    return 1.0 - np.maximum(1.0 - 2.0 * b0, 0.0) ** q + (2.0 - 2.0 * a0) ** q


def ell_ab(a0, b0, params):
    """ell(a0, b0): low-component integral up to b0 plus high-component
    integral from a0, in closed form."""
    g = params.gamma
    return (1.0 - g) / (2.0 * (2.0 - g)) * R_gamma(a0, b0, params)


def theta_term(a0, b0, params):
    """Boundary payoff theta = -F(b0) H(b0) + (F(a0) - 1) H(a0), with the
    degenerate ends contributing zero."""
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    Fa = params.f.cdf(a0)
    Fb = params.f.cdf(b0)
    with np.errstate(invalid="ignore", divide="ignore"):
        Ha = params.reservation(a0)
        Hb = params.reservation(b0)
        low = np.where(Fb > 0.0, -Fb * Hb, 0.0)
        up = np.where(Fa < 1.0, (Fa - 1.0) * Ha, 0.0)
    return low + up


def objective_ab(a0, b0, params):
    """Reduced relaxed objective over boundary pairs (vectorized)."""
    g, n = params.gamma, params.n
    ell = np.asarray(ell_ab(a0, b0, params), dtype=float)
    core = B_gamma(params) * ell ** (n * (1.0 - g) / (n - g))
    return core + theta_term(a0, b0, params)


def N_gamma_profile(params, a0, b0):
    """Per-time scale of the x^(1/(1-gamma)) part of the indirect utility.

    Positive on the industrial branch, negative on the residential branch.
    """
    g, n = params.gamma, params.n
    e = g * (n - 1.0) / (n - g)
    with np.errstate(divide="ignore"):  # the empty contract, R = 0, gets an unused infinite scale
        R_power = np.float64(R_gamma(a0, b0, params)) ** (-e)
    return (
        2.0 ** (g / (1.0 - g)) * (1.0 - g) / g
        * (2.0 * (2.0 - g) / (1.0 - g)) ** e
        * time_weight(params)
        * R_power
    )


def L_gamma_profile(params, N):
    """Consumption scale L(t) = (gamma N / ((1-gamma) phi))^(1/gamma)."""
    g = params.gamma
    return (g * N / ((1.0 - g) * params.phi)) ** (1.0 / g)


# ---------------------------------------------------------------------------
# components and their tariff segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Shape:
    """u(x)^m, the x-dependence of one closed-form component of p*, with the
    x-derivative du m u(x)^e and the linear offset g(x) - u(x) of the taste."""

    u: object
    du: float
    m: float
    e: float
    offset: float

    def __call__(self, x):
        return self.u(x) ** self.m

    def slope(self, N, x):
        """N times the derivative, N broadcasting against u(x)."""
        return self.du * N * self.m * self.u(x) ** self.e

    def values(self, N, x, x_b, level):
        """p* = level + N (u(x)^m - u(x_b)^m) on the component whose binding
        type x_b holds the per-time reservation ``level``."""
        return level + N * (self(x) - self(x_b))


def component_shapes(gamma):
    """(lower, upper, bottom): the shapes of the components on [0, b0] and
    [a0, 1], and which of the two ("lower" or "upper") serves the smallest
    tastes. On [0, b0], p* = lower.values(N, x, b0, H(b0)/T); on [a0, 1],
    p* = upper.values(N, x, a0, H(a0)/T).

    The residential branch is the industrial one mirrored in the taste
    g(x) = 1 - x: its bottom component is [a0, 1] instead of [0, b0]. The
    industrial upper shape is 0 below x = 1/2, where the taste no longer
    pays for consumption.
    """
    m = 1.0 / (1.0 - gamma)
    if gamma > 0:
        e = gamma * m
        return (Shape(lambda x: x, 1.0, m, e, 0.0),
                Shape(lambda x: np.maximum(x - 0.5, 0.0), 1.0, m, e, 0.5), "lower")
    e = m - 1.0
    return (Shape(lambda x: 0.5 - np.minimum(x, 0.5), -1.0, m, e, 0.5),
            Shape(lambda x: 1.0 - x, -1.0, m, e, 0.0), "upper")


def polynomial_segment(params, shape, x_b, level, N, L, c_lo, c_hi, label):
    """The tariff piece p1 c^gamma + p2 c + p3 of the component whose binding
    type x_b holds the reservation ``level``: p1 = phi offset / gamma,
    p2 = phi L^(gamma-1), p3 = N shape(x_b) - level / T."""
    g, phi = params.gamma, params.phi
    # a zero offset gives +0.0, where phi 0 / gamma would give -0.0 for gamma < 0
    p1 = phi * shape.offset / g if shape.offset else np.zeros(phi.size)
    return TariffSegment(c_lo=c_lo, c_hi=c_hi, p1=p1, p2=phi * L ** (g - 1.0),
                         p3=N * shape(x_b) - level / params.horizon, label=label)


def selected_segments(params, shape, x_b, level, N, L, c_lo, simplified):
    """(segments, c_top): the polynomial segment bound at x_b, from c_lo up
    to c_top = L shape(x_ext), the consumption on it of the type x_ext of
    the largest taste g = 1; then, on a full tariff, the top segment linear
    in c^gamma. A simplified tariff extends the polynomial segment instead."""
    x_ext = 1.0 if params.gamma > 0 else 0.0
    s_ext = shape(x_ext)
    c_top = L * s_ext
    nt = params.time_grid.size
    segs = [polynomial_segment(params, shape, x_b, level, N, L, c_lo,
                               np.full(nt, np.inf) if simplified else c_top, "selected")]
    if not simplified:
        segs.append(TariffSegment(
            c_lo=c_top, c_hi=np.full(nt, np.inf),
            p1=params.phi / params.gamma, p2=np.zeros(nt),
            p3=N * (shape(x_b) - s_ext) - level / params.horizon,
            label="top",
        ))
    return segs, c_top
