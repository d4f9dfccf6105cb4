"""Market primitives: utilities, costs, type distributions, reservation utilities.

Everything a scenario needs is collected in :class:`ModelParams`, in either a
canonical power form (CRRA utility, power production cost, uniform types) or a
general tabulated form. All objects are immutable after construction and all
operations are pure functions, so values can be shared freely across threads.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidParams, InvalidReservation
from .numerics import bisect, cumtrapz, expand_bracket_increasing, trapezoid

DENSITY_MASS_TOL = 1e-8       # mass check after renormalization
DENSITY_RENORM_TOL = 1e-4     # tabulated density may be off by this much before rejection


# ---------------------------------------------------------------------------
# taste map g
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TasteMap:
    """Type-taste map g with derivative g'.

    Canonical form: g(x) = x for the industrial branch (gamma in (0,1)),
    g(x) = 1 - x for the residential branch (gamma < 0). A tabulated form
    carries explicit samples of g and g' on an x-grid.
    """

    form: str  # "canonical" | "tabulated"
    gamma_sign: int = 1
    x: np.ndarray | None = None
    values: np.ndarray | None = None
    derivative: np.ndarray | None = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "canonical":
            return x if self.gamma_sign > 0 else 1.0 - x
        return np.interp(x, self.x, self.values)

    def prime(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "canonical":
            return np.ones_like(x) if self.gamma_sign > 0 else -np.ones_like(x)
        return np.interp(x, self.x, self.derivative)


# ---------------------------------------------------------------------------
# type distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TypeDistribution:
    """Density f on [0,1] with CDF F; uniform or tabulated."""

    form: str  # "uniform" | "tabulated"
    x: np.ndarray | None = None
    density: np.ndarray | None = None
    _cdf: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def uniform():
        return TypeDistribution(form="uniform")

    @staticmethod
    def tabulated(x, density):
        x = np.asarray(x, dtype=float)
        density = np.asarray(density, dtype=float)
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
            raise InvalidParams("f_form", "x grid must be strictly increasing")
        if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
            raise InvalidParams("f_form", "x grid must span [0,1]")
        if np.any(density < 0):
            raise InvalidParams("f_form", "density must be nonnegative")
        mass = trapezoid(density, x)
        if abs(mass - 1.0) > DENSITY_RENORM_TOL:
            raise InvalidParams(
                "f_form", f"density mass {mass:.6g} differs from 1 by more than {DENSITY_RENORM_TOL}"
            )
        density = density / mass
        cdf = cumtrapz(density, x)
        cdf[-1] = 1.0
        return TypeDistribution(form="tabulated", x=x, density=density, _cdf=cdf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "uniform":
            return np.ones_like(x)
        return np.interp(x, self.x, self.density)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "uniform":
            return np.clip(x, 0.0, 1.0)
        return np.interp(x, self.x, self._cdf)


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

    Either closed-form callables or tabulated samples. Tabulated samples are
    interpolated linearly; H' samples must be strictly decreasing (strict
    concavity) and nonnegative.
    """

    h: object = None          # callable x -> H(x)
    h_prime: object = None    # callable x -> H'(x)
    x: np.ndarray | None = None
    values: np.ndarray | None = None
    derivative: np.ndarray | None = None

    kind = "concave"

    @staticmethod
    def from_callables(h, h_prime):
        return ConcaveReservation(h=h, h_prime=h_prime)

    @staticmethod
    def from_table(x, values, derivative):
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        derivative = np.asarray(derivative, dtype=float)
        if x.ndim != 1 or x.size < 3 or np.any(np.diff(x) <= 0):
            raise InvalidReservation("tabulated H needs a strictly increasing x grid (>= 3 nodes)")
        return ConcaveReservation(x=x, values=values, derivative=derivative)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.h is not None:
            return np.asarray(self.h(x), dtype=float)
        return np.interp(x, self.x, self.values)

    def prime(self, x):
        x = np.asarray(x, dtype=float)
        if self.h_prime is not None:
            return np.asarray(self.h_prime(x), dtype=float)
        return np.interp(x, self.x, self.derivative)


# ---------------------------------------------------------------------------
# production cost
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TabulatedCost:
    """General convex cost through (c, K, dK/dc) samples.

    Time dependence is not supported in tabulated form; the samples describe
    a single convex cost curve. Validation requires K increasing and marginal
    cost strictly increasing (monotone-convex).
    """

    c: np.ndarray
    K: np.ndarray
    Kc: np.ndarray
    _g_K_tables: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def from_samples(c, K, Kc):
        c = np.asarray(c, dtype=float)
        K = np.asarray(K, dtype=float)
        Kc = np.asarray(Kc, dtype=float)
        if np.any(np.diff(c) <= 0) or c[0] < 0:
            raise InvalidParams("cost_table", "c samples must be nonnegative and strictly increasing")
        if np.any(np.diff(K) < 0) or np.any(K < 0):
            raise InvalidParams("cost_table", "K samples must be nonnegative and nondecreasing")
        if np.any(np.diff(Kc) <= 0) or np.any(Kc < 0):
            raise InvalidParams("cost_table", "marginal cost samples must be strictly increasing (convexity)")
        return TabulatedCost(c=c, K=K, Kc=Kc)

    def cost(self, c):
        return np.interp(c, self.c, self.K)

    def marginal(self, c):
        return np.interp(c, self.c, self.Kc)

    def g_K_table(self, gamma):
        """Samples (c, c K'(c)^(1/(1-gamma))) of the increasing map g_K on a
        dense grid, for inverting it by interpolation; built once per gamma
        and kept on this cost."""
        if gamma not in self._g_K_tables:
            c = np.geomspace(1e-9, self.c[-1], 4097)
            self._g_K_tables[gamma] = (c, c * self.marginal(c) ** (1.0 / (1.0 - gamma)))
        return self._g_K_tables[gamma]


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
    n          cost exponent (> 1) for K = k(t) c^n / n; None with cost_table
    g          taste map
    f          type distribution on [0,1]
    reservation  ConstantReservation or ConcaveReservation
    """

    gamma: float
    horizon: float
    time_grid: np.ndarray
    phi: np.ndarray
    k: np.ndarray
    n: float | None
    g: TasteMap
    f: TypeDistribution
    reservation: object
    cost_table: TabulatedCost | None = None

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
        elif self.n <= 1.0:
            raise InvalidParams("n", f"cost exponent must exceed 1, got {self.n}")
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "k", k)
        self._validate_density()
        self._validate_g()
        self._validate_reservation()

    # -- validation pieces ---------------------------------------------------
    def _validate_density(self):
        # integrate on the distribution's own grid, where interpolation is exact
        xs = self.f.x if self.f.form == "tabulated" else np.linspace(0.0, 1.0, 2001)
        dens = self.f.pdf(xs)
        if np.any(dens < 0):
            raise InvalidParams("f_form", "density must be nonnegative")
        mass = trapezoid(dens, xs)
        if abs(mass - 1.0) > DENSITY_MASS_TOL:
            raise InvalidParams("f_form", f"density integrates to {mass:.8g}, not 1")

    def _validate_g(self):
        xs = np.linspace(0.0, 1.0, 257)
        gp = self.g.prime(xs)
        if self.gamma > 0 and np.any(gp <= 0):
            raise InvalidParams("g_form", "g must be increasing when gamma in (0,1)")
        if self.gamma < 0 and np.any(gp >= 0):
            raise InvalidParams("g_form", "g must be decreasing when gamma < 0")

    def _validate_reservation(self):
        res = self.reservation
        if res.kind == "constant":
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
        return self.is_power_cost and self.g.form == "canonical" and self.f.form == "uniform"

    def phi_at(self, t):
        return np.interp(t, self.time_grid, self.phi)

    def k_at(self, t):
        return np.interp(t, self.time_grid, self.k)

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
        g=TasteMap(form="canonical", gamma_sign=1 if gamma > 0 else -1),
        f=f if f is not None else TypeDistribution.uniform(),
        reservation=reservation,
    )


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Solver tolerances and output selections wrapped around ModelParams."""

    params: ModelParams
    x_grid_size: int = 2001
    c_grid_size: int = 513
    c_min: float = 1e-4
    c_max: float = 1e3
    simplified_tariff: bool = True
    force_general_route: bool = False
    boundary_split: np.ndarray | None = None  # optional weights w(t), int w dt = 1
    tariff_samples: int = 200
    type_samples: int = 201

    def __post_init__(self):
        for name in ("x_grid_size", "c_grid_size"):
            if getattr(self, name) < 16:
                raise InvalidParams(name, "grid sizes must be at least 16")
        if self.c_min <= 0 or self.c_max <= self.c_min:
            raise InvalidParams("c_grid", "need 0 < c_min < c_max")
        if self.boundary_split is not None:
            w = np.asarray(self.boundary_split, dtype=float)
            if w.shape != self.params.time_grid.shape or np.any(w < 0):
                raise InvalidParams("boundary_split", "weights must be nonnegative on the time grid")
            if abs(self.params.time_integral(w) - 1.0) > 1e-10:
                raise InvalidParams("boundary_split", "weights must integrate to 1 over [0,T]")
            object.__setattr__(self, "boundary_split", w)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_utility(t, x, c, params):
    """Instantaneous consumer utility g(x) phi(t) c^gamma / gamma.

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
    phi = params.phi_at(t)
    return params.g(x) * phi * c_arr ** gamma / gamma


def eval_cost(t, c_agg, params):
    """Aggregate production cost K(t, c)."""
    c = np.asarray(c_agg, dtype=float)
    if np.any(c < 0):
        raise DomainError("aggregate consumption must be >= 0")
    if params.is_power_cost:
        return params.k_at(t) * c ** params.n / params.n
    return params.cost_table.cost(c)


def eval_marginal_cost(t, c_agg, params):
    """Marginal production cost dK/dc(t, c); strictly increasing in c."""
    c = np.asarray(c_agg, dtype=float)
    if np.any(c < 0):
        raise DomainError("aggregate consumption must be >= 0")
    if params.is_power_cost:
        return params.k_at(t) * c ** (params.n - 1.0)
    return params.cost_table.marginal(c)


def g_K(t, c, params):
    """Auxiliary increasing map c * (dK/dc)^(1/(1-gamma)) whose inverse gives
    the optimal aggregate consumption."""
    c = np.asarray(c, dtype=float)
    return c * eval_marginal_cost(t, c, params) ** (1.0 / (1.0 - params.gamma))


def g_K_inverse(t, y, gamma, params, root_tol=1e-12):
    """Aggregate level c >= 0 with g_K(c) = y.

    Power cost admits the closed form c = (y / k(t)^(1/(1-gamma)))^((1-gamma)/(n-gamma));
    a tabulated cost is inverted by bisection after bracket expansion.
    """
    if y < 0:
        raise DomainError("g_K inverse needs y >= 0")
    if y == 0.0:
        return 0.0
    if params.is_power_cost:
        k = params.k_at(t)
        return float((y / k ** (1.0 / (1.0 - gamma))) ** ((1.0 - gamma) / (params.n - gamma)))
    fwd = lambda c: float(g_K(t, c, params))
    try:
        hi = expand_bracket_increasing(fwd, y, hi0=max(params.cost_table.c[1], 1e-6))
    except ConvergenceError as exc:
        raise ConvergenceError(f"g_K bracket expansion failed for y={y:.6g}") from exc
    return bisect(lambda c: fwd(c) - y, 0.0, hi, xtol=root_tol)
