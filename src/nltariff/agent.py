"""Consumer side: best responses, indirect utility, participation.

The agent problem is pointwise in time, so a best response is a maximization
of u(t,x,c) - p(t,c) over consumption only. ``best_response_grid`` is the
formula-free oracle used to audit every closed-form consumption claim.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import bisect, golden_max, trapezoid
from .tariff import Tariff
from .uconvex import SampledFunctionOfConsumption, SampledFunctionOfType

KINK_REL_TOL = 1e-3  # one-sided slope jump (relative) that flags a kink


@dataclass(eq=False)
class IndirectUtility:
    """The surface p*(t,x) plus its time aggregate P*(x).

    representation "closed_form": value/slope callables map an x-array to a
    (n_times, n_x) array exactly. "sampled": values live on x_grid and
    derivatives come from finite differences (central inside, one-sided at
    the boundary).
    """

    time_grid: np.ndarray
    representation: str  # "closed_form" | "sampled"
    x_grid: np.ndarray
    _values_fn: object = None
    _slopes_fn: object = None
    _sampled_values: np.ndarray | None = None
    kinks: tuple = ()
    meta: dict = field(default_factory=dict)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_callables(time_grid, values_fn, slopes_fn, kinks=(), x_grid=None, meta=None):
        if x_grid is None:
            x_grid = np.linspace(0.0, 1.0, 1001)
        return IndirectUtility(
            time_grid=np.asarray(time_grid, dtype=float),
            representation="closed_form",
            x_grid=np.asarray(x_grid, dtype=float),
            _values_fn=values_fn,
            _slopes_fn=slopes_fn,
            kinks=tuple(sorted(kinks)),
            meta=meta or {},
        )

    @staticmethod
    def from_samples(time_grid, x_grid, values, meta=None):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        return IndirectUtility(
            time_grid=np.asarray(time_grid, dtype=float),
            representation="sampled",
            x_grid=np.asarray(x_grid, dtype=float),
            _sampled_values=values,
            meta=meta or {},
        )

    # -- evaluation -----------------------------------------------------------
    def values(self, x):
        """p*(t_i, x_j) as an (n_times, n_x) array."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.representation == "closed_form":
            return self._values_fn(x)
        out = np.empty((self.time_grid.size, x.size))
        for i in range(self.time_grid.size):
            out[i] = np.interp(x, self.x_grid, self._sampled_values[i])
        return out

    def slopes(self, x):
        """dp*/dx at every time node; one-sided near sampled boundaries."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.representation == "closed_form":
            return self._slopes_fn(x)
        out = np.empty((self.time_grid.size, x.size))
        for i in range(self.time_grid.size):
            out[i] = self._fd_slope(self._sampled_values[i], x)
        return out

    def _fd_slope(self, row, x):
        g = self.x_grid
        h = 0.5 * np.min(np.diff(g))
        xl = np.maximum(x - h, g[0])
        xr = np.minimum(x + h, g[-1])
        return (np.interp(xr, g, row) - np.interp(xl, g, row)) / (xr - xl)

    def slope_sides(self, x):
        """Left/right slopes around x for kink reporting.

        Sampled surfaces use one grid step as the one-sided difference
        window; closed forms evaluate their slope callables just off x.
        """
        x = np.asarray(x, dtype=float)
        if self.representation == "closed_form":
            eps = 1e-7
            left = self.slopes(np.maximum(x - eps, 0.0))
            right = self.slopes(np.minimum(x + eps, 1.0))
            return left, right
        h = float(np.min(np.diff(self.x_grid)))
        v0 = self.values(x)
        left = (v0 - self.values(np.maximum(x - h, self.x_grid[0]))) / h
        right = (self.values(np.minimum(x + h, self.x_grid[-1])) - v0) / h
        return left, right

    def detect_kinks(self, x):
        """Types where one-sided slopes jump by more than the kink tolerance."""
        left, right = self.slope_sides(x)
        scale = np.maximum(np.abs(left), np.abs(right))
        jump = np.abs(right - left)
        return np.any(jump > KINK_REL_TOL * np.maximum(scale, 1e-12), axis=0)

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
    boundary: dict = field(default_factory=dict)

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

def _time_index(params, t):
    i = int(np.argmin(np.abs(params.time_grid - t)))
    return i


def best_response_closed_form(p_star, t, x, params):
    """Optimal consumption from the envelope formula.

    c*(t,x) = (gamma / (phi(t) g'(x)) * dp*/dx(t,x)) ** (1/gamma). A zero
    marginal indirect utility yields c* = 0 on the industrial branch and is a
    domain error on the residential branch (consumption would diverge, so the
    type cannot be a participating one).
    """
    i = _time_index(params, t)
    slope = float(p_star.slopes(np.asarray([x]))[i, 0])
    gamma = params.gamma
    base = gamma / (params.phi[i] * float(params.g.prime(np.asarray([x]))[0])) * slope
    if gamma > 0:
        if base <= 0.0:
            return 0.0
        return float(base ** (1.0 / gamma))
    if base <= 0.0:
        raise DomainError(
            f"zero marginal indirect utility at x={x:.6g} with gamma<0: non-participating type"
        )
    return float(base ** (1.0 / gamma))


def best_response_grid(p, t, x, c_grid, params, refine=False, refine_tol=1e-12):
    """Grid-search best response: maximize u(t,x,c) - p(t,c) over c_grid.

    Independent oracle for the closed-form consumption claims. With
    ``refine`` the argmax bracket is polished by golden-section on the
    continuous objective.
    """
    i = _time_index(params, t)
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
            c_ref, v_ref = golden_max(f, max(lo, 1e-300 if gamma < 0 else lo), hi, xtol=refine_tol)
            if v_ref > value:
                c_opt, value = float(c_ref), float(v_ref)
    return c_opt, value


# ---------------------------------------------------------------------------
# participation
# ---------------------------------------------------------------------------

def participation_set(p_star, params, x_probe=None, boundary_tol=1e-10):
    """Types accepting the contract: {x : P*(x) >= H(x)} as closed intervals.

    Ties P* = H are included (weak inequality, with float-accumulation slack
    so exact mathematical ties survive the time quadrature). Interval
    endpoints interior to (0,1) are sharpened by bisection on P* - H.
    """
    if x_probe is None:
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
            return bisect(f, lo, hi, xtol=boundary_tol)
        except ConvergenceError:
            return lo if abs(f(lo)) < abs(f(hi)) else hi

    intervals = []
    i = 0
    npts = x_probe.size
    while i < npts:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < npts and mask[j + 1]:
            j += 1
        lo = x_probe[i] if i == 0 else refine(x_probe[i - 1], x_probe[i])
        hi = x_probe[j] if j == npts - 1 else refine(x_probe[j], x_probe[j + 1])
        intervals.append((float(lo), float(hi)))
        i = j + 1

    boundary = {}
    if len(intervals) == 1 and abs(intervals[0][1] - 1.0) < 1e-9 and intervals[0][0] > 1e-12:
        boundary["x0"] = intervals[0][0]
    elif len(intervals) == 2:
        boundary["b0"] = intervals[0][1]
        boundary["a0"] = intervals[1][0]
    elif len(intervals) == 1 and intervals[0][0] <= 1e-12 and intervals[0][1] < 1.0 - 1e-9:
        boundary["b0"] = intervals[0][1]
        boundary["a0"] = 1.0
    return ParticipationSet(intervals=tuple(intervals), boundary=boundary)
