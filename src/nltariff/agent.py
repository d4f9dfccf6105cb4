"""Consumer side: best responses, indirect utility, participation.

The agent problem is pointwise in time, so a best response is a maximization
of u(t,x,c) - p(t,c) over consumption only. ``best_response_grid`` is the
formula-free oracle used to audit every closed-form consumption claim.
"""
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import bisect, golden_max, trapezoid
from .tariff import Tariff
from .uconvex import SampledFunctionOfConsumption, SampledFunctionOfType


def _interp_rows(x_grid, rows, x):
    """Each row of ``rows``, sampled on ``x_grid``, interpolated linearly at x."""
    out = np.empty((len(rows), x.size))
    # np.interp is one-dimensional: one call per time row
    for i, row in enumerate(rows):
        out[i] = np.interp(x, x_grid, row)
    return out


def _interp_row_slopes(x_grid, rows, x):
    """Central differences of the interpolated rows with half the smallest
    grid step, one-sided at the grid ends."""
    h = 0.5 * np.min(np.diff(x_grid))
    xl = np.maximum(x - h, x_grid[0])
    xr = np.minimum(x + h, x_grid[-1])
    return (_interp_rows(x_grid, rows, xr) - _interp_rows(x_grid, rows, xl)) / (xr - xl)


@dataclass(eq=False)
class IndirectUtility:
    """The surface p*(t,x) plus its time aggregate P*(x).

    ``values_fn`` and ``slopes_fn`` map an x-array to a (n_times, n_x)
    array; ``x_grid`` is the type grid of ``sample``. ``from_samples``
    builds both from values on a grid: linear interpolation per time row,
    slopes by finite differences. Module-level functions bound with
    ``partial`` keep a sampled surface picklable.
    """

    time_grid: np.ndarray
    x_grid: np.ndarray
    values_fn: object
    slopes_fn: object
    meta: dict = field(default_factory=dict)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_callables(time_grid, values_fn, slopes_fn, meta=None):
        return IndirectUtility(np.asarray(time_grid, dtype=float), np.linspace(0.0, 1.0, 1001),
                               values_fn, slopes_fn, meta or {})

    @staticmethod
    def from_samples(time_grid, x_grid, values, meta=None):
        x_grid = np.asarray(x_grid, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        return IndirectUtility(np.asarray(time_grid, dtype=float), x_grid,
                               partial(_interp_rows, x_grid, values),
                               partial(_interp_row_slopes, x_grid, values), meta or {})

    # -- evaluation -----------------------------------------------------------
    def values(self, x):
        """p*(t_i, x_j) as an (n_times, n_x) array."""
        return self.values_fn(np.atleast_1d(np.asarray(x, dtype=float)))

    def slopes(self, x):
        """dp*/dx at every time node."""
        return self.slopes_fn(np.atleast_1d(np.asarray(x, dtype=float)))

    def P_star(self, x):
        """Time aggregate int_0^T p*(t,x) dt."""
        vals = self.values(x)
        return trapezoid(vals.T, self.time_grid)

    def sample(self, x_grid=None):
        g = self.x_grid if x_grid is None else np.asarray(x_grid, dtype=float)
        return SampledFunctionOfType(x_grid=g, values=self.values(g))


@dataclass(frozen=True)
class ParticipationSet:
    """Finite union of disjoint closed type-intervals accepting the contract."""

    intervals: tuple

    def __post_init__(self):
        for (lo, hi) in self.intervals:
            if not (0.0 - 1e-12 <= lo <= hi <= 1.0 + 1e-12):
                raise DomainError(f"interval [{lo}, {hi}] outside [0,1]")
        for (a, b) in zip(self.intervals[:-1], self.intervals[1:]):
            if a[1] >= b[0]:
                raise DomainError("intervals must be disjoint and sorted")

    @property
    def empty(self):
        return len(self.intervals) == 0

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for (lo, hi) in self.intervals:
            out |= (x >= lo - 1e-12) & (x <= hi + 1e-12)
        return out


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def best_response_grid(p, i, x, c_grid, params, refine=False):
    """Grid-search best response at time node ``i``: maximize
    u(t_i,x,c) - p(t_i,c) over c_grid.

    Independent oracle for the closed-form consumption claims. With
    ``refine`` the argmax bracket is polished by golden-section on the
    continuous objective.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    if isinstance(p, Tariff):
        prices = p.price(i, c_grid)
        price_fn = lambda c: float(p.price(i, np.asarray([c]))[0])
    elif isinstance(p, SampledFunctionOfConsumption):
        prices = np.interp(c_grid, p.c_grid, p.values[i])
        price_fn = lambda c: float(np.interp(c, p.c_grid, p.values[i]))
    else:
        raise TypeError("p must be a Tariff or SampledFunctionOfConsumption")
    gamma = params.gamma
    gx = float(params.g(np.asarray([x]))[0])
    util = gx * params.phi[i] * c_grid ** gamma / gamma
    obj = util - prices
    j = int(np.argmax(obj))
    c_opt, value = float(c_grid[j]), float(obj[j])
    if refine:
        lo = c_grid[max(j - 1, 0)]
        hi = c_grid[min(j + 1, c_grid.size - 1)]
        if hi > lo:
            f = lambda c: gx * params.phi[i] * c ** gamma / gamma - price_fn(c) if c > 0 or gamma > 0 else -np.inf
            c_ref, v_ref = golden_max(f, max(lo, 1e-300 if gamma < 0 else lo), hi, xtol=1e-12)
            if v_ref > value:
                c_opt, value = float(c_ref), float(v_ref)
    return c_opt, value


# ---------------------------------------------------------------------------
# participation
# ---------------------------------------------------------------------------

def participation_set(p_star, params):
    """Types accepting the contract: {x : P*(x) >= H(x)} as closed intervals.

    Ties P* = H are included (weak inequality, with float-accumulation slack
    so exact mathematical ties survive the time quadrature). Interval
    endpoints interior to (0,1) are sharpened by bisection on P* - H.
    """
    x_probe = p_star.x_grid if p_star.x_grid.size >= 1001 else np.linspace(0.0, 1.0, 2001)
    res = params.reservation
    Pvals = p_star.P_star(x_probe)
    Hvals = res(x_probe)
    slack = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(Pvals), np.abs(Hvals)))
    gap = Pvals - Hvals
    mask = gap >= -slack

    f = lambda x: float(p_star.P_star(np.asarray([x]))[0] - res(np.asarray([x]))[0])

    def refine(lo, hi):
        # the sign change of P* - H inside [lo, hi]; a tie within the slack
        # leaves no sign change, and the end closer to a root is kept
        try:
            return bisect(f, lo, hi, xtol=1e-10)
        except ConvergenceError:
            return lo if abs(f(lo)) < abs(f(hi)) else hi

    # each run of participating probe points [i, j] starts where the mask
    # steps up and ends before it steps down
    steps = np.diff(mask.astype(np.int8), prepend=0, append=0)
    npts = x_probe.size
    intervals = []
    for i, j in zip(np.flatnonzero(steps > 0), np.flatnonzero(steps < 0) - 1):
        lo = x_probe[i] if i == 0 else refine(x_probe[i - 1], x_probe[i])
        hi = x_probe[j] if j == npts - 1 else refine(x_probe[j], x_probe[j + 1])
        intervals.append((float(lo), float(hi)))
    return ParticipationSet(intervals=tuple(intervals))
