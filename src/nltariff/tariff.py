"""Piecewise tariff schedules p(t,c) = p1(t) c^gamma + p2(t) c + p3(t).

A tariff is a per-time sequence of consumption segments with polynomial
coefficients, or one tabulated segment: the sampled u-conjugate of p* on
the general constant-H route and the typed fallbacks.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParams


@dataclass(frozen=True, eq=False)
class TariffSegment:
    """Polynomial segment valid on [c_lo(t), c_hi(t)] per time node."""

    c_lo: np.ndarray
    c_hi: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    label: str = ""

    def price(self, rows, c, gamma):
        """Prices at the consumptions ``c`` on the time nodes ``rows``, two
        1-d arrays of one length."""
        p1 = self.p1[rows]
        out = self.p2[rows] * c + self.p3[rows]
        live = p1 != 0.0
        out[live] += p1[live] * c[live] ** gamma
        return out


@dataclass(frozen=True, eq=False)
class TabulatedSegment:
    """Sampled segment: linear interpolation through per-time knots."""

    c_lo: np.ndarray
    c_hi: np.ndarray
    c_knots: np.ndarray  # (n_t, m)
    p_knots: np.ndarray  # (n_t, m)
    label: str = "bridge"

    def price(self, rows, c, gamma):
        """As ``TariffSegment.price``; ``rows`` is nondecreasing, and each
        row's run of consumptions is interpolated on that row's knots."""
        out = np.empty(c.shape)
        cuts = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), c.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            out[lo:hi] = np.interp(c[lo:hi], self.c_knots[rows[lo]], self.p_knots[rows[lo]])
        return out


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
        return self._fill(np.array([t_index]), c.ravel()).reshape(c.shape)

    def sample(self, c_grid):
        """Prices on a strictly increasing consumption grid at every time
        node, shape (n_t, n_c); a grid that is not strictly increasing or a
        price that is not finite raises DomainError."""
        c_grid = np.asarray(c_grid, dtype=float)
        vals = self._fill(np.arange(self.time_grid.size), c_grid)
        if np.any(np.diff(c_grid) <= 0):
            raise DomainError("sampled consumption grid must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise DomainError("sampled prices must be finite")
        return vals

    def _fill(self, rows, c):
        """Prices on the time nodes ``rows`` at the consumptions ``c``, shape
        (rows.size, c.size): each segment takes the points in its range that
        no earlier segment took, on all rows in one masked pass."""
        if self.gamma < 0 and np.any(c < 0):
            raise DomainError("consumption must be positive when gamma < 0")
        out = np.full((rows.size, c.size), np.nan)
        free = np.ones(out.shape, dtype=bool)
        for seg in self.segments:
            self._put(out, free, seg, (c >= seg.c_lo[rows, None] - 1e-15) & (c <= seg.c_hi[rows, None]), rows, c)
        if free.any():
            # extend the outermost segments rather than fail on roundoff gaps
            self._put(out, free, self.segments[0], c < self.segments[0].c_lo[rows, None], rows, c)
            self._put(out, free, self.segments[-1], True, rows, c)
        return out

    def _put(self, out, free, seg, within, rows, c):
        """Price the free points ``within`` by ``seg`` and mark them taken."""
        r, k = np.nonzero(free & within)
        if r.size:
            out[r, k] = seg.price(rows[r], c[k], self.gamma)
            free[r, k] = False

    def coefficients_at(self, t_index, label="selected"):
        """(p1, p2, p3) of the polynomial segment with the given label."""
        for s in self.segments:
            if isinstance(s, TariffSegment) and s.label == label:
                return float(s.p1[t_index]), float(s.p2[t_index]), float(s.p3[t_index])
        raise InvalidParams("segments", f"tariff has no polynomial segment labelled {label!r}")
