"""Piecewise tariff schedules p(t,c) = p1(t) c^gamma + p2(t) c + p3(t).

A tariff is a per-time sequence of consumption segments with polynomial
coefficients, plus (for type-dependent reservations) one tabulated bridge
segment covering the consumption range that no participating agent selects.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParams
from .uconvex import SampledFunctionOfConsumption


@dataclass(frozen=True, eq=False)
class TariffSegment:
    """Polynomial segment valid on [c_lo(t), c_hi(t)] per time node."""

    c_lo: np.ndarray
    c_hi: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    label: str = ""

    def price(self, t_index, c, gamma):
        c = np.asarray(c, dtype=float)
        p1 = self.p1[t_index]
        out = self.p2[t_index] * c + self.p3[t_index]
        if p1 != 0.0:
            out = out + p1 * c ** gamma
        return out


@dataclass(frozen=True, eq=False)
class TabulatedSegment:
    """Bridge segment: linear interpolation through per-time knots."""

    c_lo: np.ndarray
    c_hi: np.ndarray
    c_knots: np.ndarray  # (n_t, m)
    p_knots: np.ndarray  # (n_t, m)
    label: str = "bridge"

    def price(self, t_index, c, gamma):
        return np.interp(np.asarray(c, dtype=float), self.c_knots[t_index], self.p_knots[t_index])


@dataclass(eq=False)
class Tariff:
    """Ordered consumption segments per time node.

    ``selected_range`` marks the consumptions actually chosen by participating
    agents; the tariff must be concave and nondecreasing there. ``simplified``
    tariffs replace the never-selected top region by extending the main
    segment, which leaves every equilibrium quantity unchanged.
    """

    gamma: float
    time_grid: np.ndarray
    segments: list
    simplified: bool = True
    selected_range: list | None = None  # list of (n_t, 2) arrays: [c_lo, c_hi] bands
    breakpoints: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.segments:
            raise InvalidParams("segments", "a tariff needs at least one segment")
        nt = self.time_grid.size
        for seg in self.segments:
            if seg.c_lo.shape != (nt,) or seg.c_hi.shape != (nt,):
                raise InvalidParams("segments", "segment ranges must match the time grid")

    # -- evaluation ----------------------------------------------------------
    def price(self, t_index, c):
        """Price at time node ``t_index`` for consumptions ``c`` (vectorized)."""
        c = np.asarray(c, dtype=float)
        if self.gamma < 0 and np.any(c < 0):
            raise DomainError("consumption must be positive when gamma < 0")
        out = np.full(c.shape, np.nan)
        filled = np.zeros(c.shape, dtype=bool)
        for seg in self.segments:
            lo, hi = seg.c_lo[t_index], seg.c_hi[t_index]
            mask = (~filled) & (c >= lo - 1e-15) & (c <= hi)
            if np.any(mask):
                out[mask] = seg.price(t_index, c[mask], self.gamma)
                filled |= mask
        if not np.all(filled):
            # extend the outermost segments rather than fail on roundoff gaps
            below = (~filled) & (c < self.segments[0].c_lo[t_index])
            out[below] = self.segments[0].price(t_index, c[below], self.gamma)
            above = (~filled) & ~below
            out[above] = self.segments[-1].price(t_index, c[above], self.gamma)
        return out

    def sample(self, c_grid):
        """Evaluate on a consumption grid at every time node."""
        vals = np.vstack([self.price(i, c_grid) for i in range(self.time_grid.size)])
        return SampledFunctionOfConsumption(c_grid=np.asarray(c_grid, dtype=float), values=vals)

    def coefficients_at(self, t_index, label="selected"):
        """(p1, p2, p3) of the polynomial segment with the given label."""
        for s in self.segments:
            if isinstance(s, TariffSegment) and s.label == label:
                return float(s.p1[t_index]), float(s.p2[t_index]), float(s.p3[t_index])
        raise InvalidParams("segments", f"tariff has no polynomial segment labelled {label!r}")
