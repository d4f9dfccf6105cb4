"""Market primitives: utilities, costs, type distributions, reservation utilities.

Everything a scenario needs is collected in :class:`ModelParams`, in either a
canonical power form (CRRA utility, power production cost, uniform types) or a
general tabulated form. All objects are immutable after construction and all
operations are pure functions, so values can be shared freely across threads.
"""
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DomainError, InvalidParams, InvalidReservation
from .numerics import cumtrapz, invert_increasing, trapezoid

DENSITY_RENORM_TOL = 1e-4     # tabulated density may be off by this much before rejection


# ---------------------------------------------------------------------------
# tabulated primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Table:
    """A primitive sampled on strictly increasing knots ``x``: its ``values``
    and its ``derivative`` there, each read by linear interpolation and held
    at the end samples beyond the knots.

    Every tabulated primitive is one: the taste ``g``, the distribution
    ``F`` (its derivative the density), the outside option ``H`` and the
    cost ``K``. Construction refuses samples of different lengths, fewer
    than two knots, a sample that is not finite and knots that do not
    increase, naming ``field``, the config field they come from; with
    ``unit_span`` the knots must also run from 0 to 1.
    """

    field: str
    x: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    unit_span: InitVar[bool] = False

    def __post_init__(self, unit_span):
        x, values, derivative = (np.asarray(a, dtype=float) for a in (self.x, self.values, self.derivative))
        if x.ndim != 1 or x.size < 2 or values.shape != x.shape or derivative.shape != x.shape:
            raise InvalidParams(self.field, "x, values and derivative need one length of at least two samples")
        if not all(np.isfinite(a).all() for a in (x, values, derivative)):
            raise InvalidParams(self.field, "samples must be finite")
        if not np.all(np.diff(x) > 0):
            raise InvalidParams(self.field, "x grid must be strictly increasing")
        if unit_span and (abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12):
            raise InvalidParams(self.field, "x grid must span [0,1]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivative", derivative)

    @staticmethod
    def from_density(x, density):
        """The distribution ``F`` of a density sampled on knots spanning
        [0, 1], named ``f``: the density, renormalized to mass 1 (refused
        when off by more than ``DENSITY_RENORM_TOL``), is the derivative, and
        its cumulative trapezoid the values."""
        table = Table("f", x, density, density, unit_span=True)
        if np.any(table.derivative < 0):
            raise InvalidParams("f", "density must be nonnegative")
        mass = trapezoid(table.derivative, table.x)
        if abs(mass - 1.0) > DENSITY_RENORM_TOL:
            raise InvalidParams(
                "f", f"density mass {mass:.6g} differs from 1 by more than {DENSITY_RENORM_TOL}"
            )
        density = table.derivative / mass
        cdf = cumtrapz(density, table.x)
        cdf[-1] = 1.0
        return Table("f", table.x, cdf, density)

    def __call__(self, x):
        return np.interp(x, self.x, self.values)

    def prime(self, x):
        return np.interp(x, self.x, self.derivative)


# ---------------------------------------------------------------------------
# canonical taste map and type distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TasteMap:
    """The canonical type-taste map g with derivative g': g(x) = x on the
    industrial branch (gamma in (0,1), ``gamma_sign = 1``), g(x) = 1 - x on
    the residential one (gamma < 0, ``gamma_sign = -1``). A tabulated g is
    a :class:`Table`."""

    gamma_sign: int = 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x if self.gamma_sign > 0 else 1.0 - x

    def prime(self, x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if self.gamma_sign > 0 else -np.ones_like(x)


@dataclass(frozen=True)
class UniformTypes:
    """Uniform types on [0,1]: F(x) = x there, with density F' = 1. A
    tabulated distribution is a :class:`Table`."""

    def __call__(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def prime(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# reservation utility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantReservation:
    """Type-independent outside option H."""

    H: float

    kind = "constant"

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.H)

    def prime(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class ConcaveReservation:
    """Nondecreasing strictly concave outside option H(x) with derivative H'(x).

    ``h`` and ``h_prime`` map an x-array to H and H'. ``from_table`` makes
    ``h`` a :class:`Table` of at least three knots, named ``reservation``,
    and ``h_prime`` its derivative. Neither constructor checks the shape:
    that H' is nonnegative and strictly decreasing is checked when
    :class:`ModelParams` is built, on a 513-point probe, and the typed
    solver checks strict concavity again at a table's own knots.
    """

    h: object                 # callable x -> H(x)
    h_prime: object           # callable x -> H'(x)

    kind = "concave"

    @staticmethod
    def from_callables(h, h_prime):
        return ConcaveReservation(h=h, h_prime=h_prime)

    @staticmethod
    def from_table(x, values, derivative):
        table = Table("reservation", x, values, derivative)
        if table.x.size < 3:
            raise InvalidReservation("tabulated H needs at least 3 nodes")
        return ConcaveReservation(h=table, h_prime=table.prime)

    def __call__(self, x):
        return np.asarray(self.h(np.asarray(x, dtype=float)), dtype=float)

    def prime(self, x):
        return np.asarray(self.h_prime(np.asarray(x, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full market description.

    gamma      risk-curvature exponent, in (-inf, 0) or (0, 1)
    horizon    contract length T > 0
    time_grid  strictly increasing sample times, t_0 = 0 .. t_M = T
    phi        time-preference samples phi(t) > 0 on time_grid
    k          cost-scale samples k(t) > 0 on time_grid
    n          cost exponent (> 1) for K = k(t) c^n / n; None exactly when cost_table is given
    g          taste map: TasteMap or a Table
    f          type distribution F on [0,1], its derivative the density: UniformTypes or a Table
    reservation  ConstantReservation or ConcaveReservation
    cost_table   the cost K(c) as a Table of c, K and dK/dc, with no time dependence
    """

    gamma: float
    horizon: float
    time_grid: np.ndarray
    phi: np.ndarray
    k: np.ndarray
    n: float | None
    g: TasteMap | Table
    f: UniformTypes | Table
    reservation: object
    cost_table: Table | None = None

    def __post_init__(self):
        if not (self.gamma < 1.0) or self.gamma == 0.0:
            raise InvalidParams("gamma", f"need gamma in (-inf,0) or (0,1), got {self.gamma}")
        if not 0 < self.horizon < np.inf:
            raise InvalidParams("horizon", "T must be positive and finite")
        t = np.asarray(self.time_grid, dtype=float)
        if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
            raise InvalidParams("time_grid", "need strictly increasing grid with >= 2 nodes")
        if abs(t[0]) > 1e-12 or abs(t[-1] - self.horizon) > 1e-9:
            raise InvalidParams("time_grid", "grid must run from 0 to horizon")
        phi = np.asarray(self.phi, dtype=float)
        k = np.asarray(self.k, dtype=float)
        # NaN fails every comparison, so test for what must hold
        if phi.shape != t.shape or not np.all((phi > 0) & (phi < np.inf)):
            raise InvalidParams("phi", "phi must be finite and positive on every time node")
        if k.shape != t.shape or not np.all((k > 0) & (k < np.inf)):
            raise InvalidParams("k", "k must be finite and positive on every time node")
        if self.n is None:
            if self.cost_table is None:
                raise InvalidParams("n", "need a power exponent or a tabulated cost")
        elif self.cost_table is not None:
            raise InvalidParams("cost_table", "give either a power exponent n or a tabulated cost, not both")
        elif self.n <= 1.0:
            raise InvalidParams("n", f"cost exponent must exceed 1, got {self.n}")
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "k", k)
        if self.cost_table is not None:
            self._validate_cost()
        self._validate_g()
        self._validate_reservation()

    # -- validation pieces ---------------------------------------------------
    def _validate_cost(self):
        table = self.cost_table
        if table.x[0] < 0:
            raise InvalidParams("cost_table", "c samples must be nonnegative")
        if np.any(np.diff(table.values) < 0) or np.any(table.values < 0):
            raise InvalidParams("cost_table", "K samples must be nonnegative and nondecreasing")
        if np.any(np.diff(table.derivative) <= 0) or np.any(table.derivative < 0):
            raise InvalidParams("cost_table", "marginal cost samples must be strictly increasing (convexity)")

    def _validate_g(self):
        xs = np.linspace(0.0, 1.0, 257)
        # g' on the probe grid and the steps of g itself, a table's on its own knots
        knots = self.g.x if isinstance(self.g, Table) else xs
        steps = np.concatenate([self.g.prime(xs), np.diff(self.g(knots))])
        if self.gamma > 0 and not np.all(steps > 0):
            raise InvalidParams("g", "g must be increasing when gamma in (0,1)")
        if self.gamma < 0 and not np.all(steps < 0):
            raise InvalidParams("g", "g must be decreasing when gamma < 0")

    def _validate_reservation(self):
        res = self.reservation
        if res.kind == "constant":
            if not np.isfinite(res.H):
                raise InvalidReservation("constant H must be finite")
            if self.gamma > 0 and res.H < 0:
                raise InvalidReservation("constant H must be >= 0 when gamma in (0,1)")
            if self.gamma < 0 and res.H >= 0:
                raise InvalidReservation("constant H must be negative when gamma < 0")
            return
        # concave reservation: nondecreasing and strictly concave on a probe grid
        xs = np.linspace(1e-9, 1.0, 513)
        hp = res.prime(xs)
        if np.any(hp < -1e-12):
            raise InvalidReservation("H must be nondecreasing")
        dhp = np.diff(hp)
        if np.any(dhp >= 0.0):
            bad = int(np.argmax(dhp >= 0.0))
            raise InvalidReservation(
                f"H' must be strictly decreasing (strict concavity); fails near x={xs[bad]:.4g}"
            )
        hv = res(xs)
        if self.gamma > 0 and np.any(hv < -1e-12):
            raise InvalidReservation("H must be >= 0 when gamma in (0,1)")
        if self.gamma < 0 and np.any(hv[xs < 1.0 - 1e-9] >= 0.0):
            # H(1) = 0 is the admissible boundary case; the interior must be negative
            raise InvalidReservation("H must be negative on [0,1) when gamma < 0")

    # -- convenience ---------------------------------------------------------
    @property
    def is_power_cost(self):
        return self.n is not None

    @property
    def is_canonical_uniform_power(self):
        """True when the explicit closed forms apply."""
        return self.is_power_cost and not isinstance(self.g, Table) and not isinstance(self.f, Table)

    def time_integral(self, values_on_grid):
        return float(trapezoid(values_on_grid, self.time_grid))


def canonical_params(gamma, horizon=1.0, n=2.0, phi=1.0, k=1.0, reservation=None,
                     time_nodes=9, f=None):
    """Convenience builder for the canonical power/uniform setting."""
    t = np.linspace(0.0, horizon, time_nodes)
    phi_arr = np.full_like(t, float(phi)) if np.isscalar(phi) else np.asarray(phi, dtype=float)
    k_arr = np.full_like(t, float(k)) if np.isscalar(k) else np.asarray(k, dtype=float)
    if reservation is None:
        reservation = ConstantReservation(0.05 if gamma > 0 else -0.05)
    return ModelParams(
        gamma=gamma,
        horizon=horizon,
        time_grid=t,
        phi=phi_arr,
        k=k_arr,
        n=n,
        g=TasteMap(gamma_sign=1 if gamma > 0 else -1),
        f=f if f is not None else UniformTypes(),
        reservation=reservation,
    )


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """ModelParams plus the two switches a caller sets: ``simplified_tariff``
    (off with ``--full-tariff``) and ``force_general_route``."""

    params: ModelParams
    simplified_tariff: bool = True
    force_general_route: bool = False


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_utility(x, c, params):
    """Instantaneous consumer utility g(x) phi(t) c^gamma / gamma on every
    time node; time is the last axis of the result.

    For gamma < 0 consumption must be strictly positive (utility diverges to
    -inf at zero consumption); for gamma in (0,1) zero consumption is allowed
    and yields zero utility.
    """
    gamma = params.gamma
    c_arr = np.asarray(c, dtype=float)
    if gamma < 0 and np.any(c_arr <= 0):
        raise DomainError("consumption must be > 0 when gamma < 0")
    if gamma > 0 and np.any(c_arr < 0):
        raise DomainError("consumption must be >= 0")
    return params.g(x) * params.phi * c_arr ** gamma / gamma


def eval_cost(c_agg, params):
    """Aggregate production cost K(t, c); a power cost puts time on the last
    axis, so ``c_agg`` broadcasts against the time grid."""
    c = np.asarray(c_agg, dtype=float)
    if (c < 0).any():
        raise DomainError("aggregate consumption must be >= 0")
    if params.is_power_cost:
        return params.k * c ** params.n / params.n
    return params.cost_table(c)


def eval_marginal_cost(c_agg, params):
    """Marginal production cost dK/dc(t, c); strictly increasing in c.
    Broadcasts like :func:`eval_cost`."""
    c = np.asarray(c_agg, dtype=float)
    if (c < 0).any():
        raise DomainError("aggregate consumption must be >= 0")
    if params.is_power_cost:
        return params.k * c ** (params.n - 1.0)
    return params.cost_table.prime(c)


def g_K(c, params):
    """Auxiliary increasing map c * (dK/dc)^(1/(1-gamma)) whose inverse gives
    the optimal aggregate consumption."""
    c = np.asarray(c, dtype=float)
    return c * eval_marginal_cost(c, params) ** (1.0 / (1.0 - params.gamma))


def g_K_inverse(y, params, root_tol=1e-12):
    """Aggregate level c >= 0 with g_K(c) = y, elementwise in ``y``.

    Power cost admits the closed form c = (y / k(t)^(1/(1-gamma)))^((1-gamma)/(n-gamma)),
    with time on the last axis of ``y``. A tabulated cost has no time
    dependence; every y > 0 is inverted in one bracket-and-bisect, and a
    scalar ``y`` gives a float.
    """
    ys = np.asarray(y, dtype=float)
    # NaN fails every comparison, so test for what must hold
    if not np.all((ys >= 0.0) & (ys < np.inf)):
        raise DomainError("g_K inverse needs a finite y >= 0")
    gamma = params.gamma
    if params.is_power_cost:
        return (ys / params.k ** (1.0 / (1.0 - gamma))) ** ((1.0 - gamma) / (params.n - gamma))
    c = np.zeros(ys.shape)
    pos = ys > 0.0
    c[pos] = invert_increasing(lambda c: g_K(c, params), ys[pos],
                               hi0=max(params.cost_table.x[1], 1e-6), xtol=root_tol)
    return float(c) if ys.ndim == 0 else c
