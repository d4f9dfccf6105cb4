"""Randomized invariant harness shared by the property and acceptance suites.

Draws market parameters satisfying the documented preconditions
(gamma in (-3,-0.1) or (0.1,0.9), n in (1.1,4), reservation sign matched to
the branch) and checks every module's invariants on each draw. Oracle-level
invariants run on a smaller budgeted subset of draws because each one costs
several brute-force maximizations.
"""
import numpy as np

from nltariff.agent import consumption_from_slopes, participation_set
from nltariff.closed_form import B_gamma
from nltariff.model import (
    ConcaveReservation,
    ConstantReservation,
    ScenarioConfig,
    canonical_params,
    eval_marginal_cost,
    eval_utility,
    g_K,
    g_K_inverse,
)
from nltariff.solver_const_h import build_tariff_const_h, solve_x0_star
from nltariff.solver_typed_h import build_tariff_typed_h, solve_a0_b0_star, validate_assumptions
from nltariff.uconvex import check_u_convexity


# -- tariff diagnostics --------------------------------------------------------

def continuity_gaps(tariff):
    """Largest junction mismatch across adjacent segments, per time node.

    Collapsed segments (c_hi <= c_lo) are skipped; the remaining segments
    must agree at shared breakpoints within 1e-9.
    """
    nt = tariff.time_grid.size
    gaps = np.zeros(nt)
    for i in range(nt):
        live = [s for s in tariff.segments if s.c_hi[i] > s.c_lo[i] + 1e-15]
        for a, b in zip(live[:-1], live[1:]):
            cj = a.c_hi[i]
            if not np.isfinite(cj) or (tariff.gamma < 0 and cj <= 0):
                continue
            ca = np.asarray([cj])
            ia = np.full(1, i)
            gap = float(abs(a.price(ia, ca, tariff.gamma)[0] - b.price(ia, ca, tariff.gamma)[0]))
            gaps[i] = max(gaps[i], gap)
    return gaps


def shape_report(tariff, samples=256):
    """Monotonicity and concavity of p(t,.) on every selected band."""
    assert tariff.selected_range is not None, "tariff carries no selected range"
    worst_slope, worst_curv = np.inf, -np.inf
    for band in tariff.selected_range:
        for i in range(tariff.time_grid.size):
            lo, hi = band[i]
            if not np.isfinite(hi) or hi <= lo:
                continue
            lo = max(lo, 1e-9 * hi) if tariff.gamma < 0 else lo
            cs = np.linspace(lo, hi, samples)
            ps = tariff.price(i, cs)
            sl = np.diff(ps) / np.diff(cs)
            worst_slope = min(worst_slope, float(np.min(sl)))
            worst_curv = max(worst_curv, float(np.max(np.diff(sl))))
    scale = max(1.0, abs(worst_slope))
    return {
        "min_slope": worst_slope,
        "max_convex_kink": worst_curv,
        "nondecreasing": worst_slope >= -1e-9 * scale,
        "concave": worst_curv <= 1e-9 * scale,
    }


def draw_gamma(rng):
    if rng.rand() < 0.5:
        return float(rng.uniform(0.1, 0.9))
    return float(rng.uniform(-3.0, -0.1))


def draw_const_params(rng):
    gamma = draw_gamma(rng)
    n = float(rng.uniform(1.1, 4.0))
    phi = rng.uniform(0.5, 2.0, size=3)
    k = rng.uniform(0.5, 2.0, size=3)
    H = float(rng.uniform(0.005, 0.5))
    if gamma < 0:
        H = -H
    return canonical_params(gamma, n=n, phi=phi, k=k, time_nodes=3,
                            reservation=ConstantReservation(H))


def vectorized_phi(params, xs):
    """Closed-form reduced objective on an audit grid (independent of the
    solver's scalar path)."""
    g, n = params.gamma, params.n
    H = params.reservation.H
    q = (2.0 - g) / (1.0 - g)
    if g > 0:
        ell = (1.0 - g) / (2.0 * (2.0 - g)) * (1.0 - np.maximum(2.0 * xs - 1.0, 0.0) ** q)
    else:
        ell = 2.0 ** (1.0 / (1.0 - g)) * (1.0 - g) / (2.0 - g) * (1.0 - xs) ** q
    return B_gamma(params) * ell ** (n * (1.0 - g) / (n - g)) + (xs - 1.0) * H


def check_model_invariants(params):
    cs = np.geomspace(1e-3, 1e3, 31)
    mc = np.asarray(eval_marginal_cost(cs[:, None], params))
    assert np.all(np.diff(mc, axis=0) > 0), "marginal cost must be strictly increasing"

    ys = np.asarray(g_K(cs[:, None], params))
    back = np.array([g_K_inverse(y, params) for y in ys])
    assert np.max(np.abs(back - cs[:, None]) / cs[:, None]) < 1e-8, "g_K inverse round trip"

    grid = np.linspace(0.2, 3.0, 41)
    u = np.asarray(eval_utility(0.6, grid[:, None], params))
    d1 = np.diff(u, axis=0)
    d2 = np.diff(d1, axis=0)
    assert np.all(d1 > -1e-10), "utility increasing in consumption"
    assert np.all(d2 < 1e-10), "utility concave in consumption"

    xs = np.linspace(0.0, 1.0, 17)
    ux = np.array([eval_utility(float(x), 0.7, params) for x in xs])
    assert np.all(np.diff(ux, axis=0) > 0), "utility increasing in type on both branches"


def check_const_solver_invariants(params):
    cfg = ScenarioConfig(params=params)
    report = solve_x0_star(cfg)
    x0 = report.boundary["x0"]
    measured = {"foc_residual": report.foc_residual}
    if params.gamma > 0:
        assert 0.5 < x0 < 1.0, "industrial threshold lies in (1/2, 1)"
        assert report.foc_residual <= 1e-10
    elif x0 > 0.0:
        assert report.foc_residual <= 1e-8

    xs = np.linspace(0.0, 1.0, 10_000)
    audit = vectorized_phi(params, xs)
    assert report.principal_utility >= audit.max() - 1e-10, "global maximum audit"

    tariff, p_star = build_tariff_const_h(cfg, report)
    assert continuity_gaps(tariff).max() <= 1e-9
    shape = shape_report(tariff)
    assert shape["nondecreasing"] and shape["concave"]

    H = params.reservation.H
    assert abs(p_star.P_star(np.asarray([x0]))[0] - H) <= 1e-8, "binding reservation"

    xr = np.linspace(x0, 1.0, 200)
    rent = p_star.P_star(xr) - H
    assert np.all(np.diff(rent) >= -1e-12), "informational rent nondecreasing"
    assert rent.min() >= -1e-10

    sample = p_star.sample(np.linspace(0.0, 1.0, 241))
    slopes = np.diff(sample.values, axis=1)
    assert np.all(np.diff(slopes, axis=1) >= -1e-9 * np.maximum(1.0, np.abs(slopes[:, :-1]))), \
        "emitted indirect utility convex"
    conv = check_u_convexity(sample, params)
    assert conv.is_u_convex, "emitted indirect utility passes the u-convexity check"

    # envelope identity at a few random participating types
    if x0 < 1.0 - 1e-6:
        xs = np.linspace(x0 + 1e-6, 1.0 - 1e-6, 5)
        for x, c in zip(xs, consumption_from_slopes(p_star.slopes(xs), xs, params)[0]):
            if c <= 0:
                continue
            u = float(eval_utility(float(x), c, params)[0])
            lhs = float(tariff.price(0, np.asarray([c]))[0])
            rhs = u - p_star.values(np.asarray([x]))[0, 0]
            assert abs(lhs - rhs) <= 1e-8, "envelope identity"
    return measured


def draw_typed_params(rng):
    gamma = draw_gamma(rng)
    n = float(rng.uniform(1.1, 4.0))
    if gamma > 0:
        h0 = float(rng.uniform(0.0, 0.1))
        h1 = float(rng.uniform(0.2, 1.0))
        alpha = float(rng.uniform(0.3, 0.9))
        res = ConcaveReservation.from_callables(
            lambda x, h0=h0, h1=h1, a=alpha: h0 + h1 * np.maximum(np.asarray(x, float), 0.0) ** a,
            lambda x, h1=h1, a=alpha: h1 * a * np.maximum(np.asarray(x, float), 1e-300) ** (a - 1.0),
        )
    else:
        c = float(rng.uniform(0.2, 2.0))

        def h(x, c=c):
            with np.errstate(divide="ignore"):
                return c * np.log(np.maximum(np.asarray(x, dtype=float), 1e-300))

        res = ConcaveReservation.from_callables(
            h, lambda x, c=c: c / np.maximum(np.asarray(x, dtype=float), 1e-300))
    return canonical_params(gamma, n=n, time_nodes=3, reservation=res)


def check_typed_invariants(params):
    cfg = ScenarioConfig(params=params)
    flags = validate_assumptions(params)
    sol = solve_a0_b0_star(cfg)
    Hp = params.reservation.prime
    if sol.a0 < 1.0 - 1e-12:
        assert sol.Xi >= float(Hp(np.asarray([sol.a0]))[0]) - 1e-8, "Xi certificate at optimum"
    if sol.b0 > 1e-12:
        assert sol.Psi <= float(Hp(np.asarray([sol.b0]))[0]) + 1e-8, "Psi certificate at optimum"

    _, p_star = build_tariff_typed_h(cfg, sol)
    part = participation_set(p_star, params)
    expected = int(sol.b0 > 1e-9) + int(sol.a0 < 1.0 - 1e-9)
    assert len(part.intervals) == expected, "participation components match boundaries"
    for (lo, hi) in part.intervals:
        if lo <= 1e-9:
            assert abs(hi - sol.b0) <= 1e-6
        else:
            assert abs(lo - sol.a0) <= 1e-6

    for lo, hi in part.intervals:
        xs = np.linspace(lo, min(hi, 1.0 - 1e-9), 150)
        P = p_star.P_star(xs)
        sl = np.diff(P) / np.diff(xs)
        assert np.all(np.diff(sl) >= -1e-9 * np.maximum(1.0, np.abs(sl[:-1]))), \
            "aggregate indirect utility convex on components"

    glue_ok = sol.assumption_flags["b0_le_a0_minus_half"]
    sample = p_star.sample(np.linspace(0.0, 1.0, 321))
    conv = check_u_convexity(sample, params)
    if glue_ok:
        assert conv.is_u_convex, "convex glue certified u-convex"
    else:
        assert sol.warnings, "failed gap condition must be flagged"
    return sol


def run_const_suite(n_draws=100, seed=20240917):
    rng = np.random.RandomState(seed)
    results = []
    for _ in range(n_draws):
        params = draw_const_params(rng)
        check_model_invariants(params)
        results.append(check_const_solver_invariants(params))
    return results


def run_typed_suite(n_draws=25, seed=77):
    rng = np.random.RandomState(seed)
    done = 0
    attempts = 0
    sols = []
    while done < n_draws and attempts < n_draws * 4:
        attempts += 1
        params = draw_typed_params(rng)
        try:
            validate_assumptions(params)
        except Exception:
            continue  # draw outside the assumption set: precondition not met
        sols.append(check_typed_invariants(params))
        done += 1
    assert done == n_draws, f"only {done} typed draws satisfied the preconditions"
    return sols


def run_oracle_suite(n_draws=3, seed=5):
    """Budgeted oracle invariants: upper-bound audit and refinement trend."""
    from nltariff.oracle import oracle_relaxed_maximize_const_h

    rng = np.random.RandomState(seed)
    out = []
    for _ in range(n_draws):
        params = draw_const_params(rng)
        cfg = ScenarioConfig(params=params)
        report = solve_x0_star(cfg)
        lo = max(report.boundary["x0"] - 0.1, 0.0)
        hi = min(report.boundary["x0"] + 0.1, 1.0)
        cands = np.linspace(lo, hi, 7)
        errors = []
        for nodes in (60, 120):
            res = oracle_relaxed_maximize_const_h(params, type_grid_size=nodes, x0_candidates=cands)
            scale = max(abs(report.principal_utility), 1e-3)
            assert res.value <= report.principal_utility + 1e-3 * scale, \
                "oracle bounded by the optimum up to discretization"
            errors.append(abs(res.value - report.principal_utility))
        out.append(errors)
        assert errors[1] <= errors[0] + 1e-6, "oracle refinement does not diverge"
    return out
