"""Output checks that compute their references without calling ``nltariff``.

Every reference is recomputed from the benchmark's own config with numpy:
the utility ``g(x) phi(t) c^gamma / gamma``, the type density, the
outside option, the production cost and the paper's reduced objective. Each
check returns a list of failure messages; an empty list means it passed.
"""
import csv
import json
from pathlib import Path

import numpy as np

# Individual rationality: P*(x) and H(x) are written with 12 significant
# digits and the program sharpens interval ends to 1e-10 in x.
IR_TOL = 1e-8
# Types this close to a reported participation-interval end are not judged.
X_TOL = 1e-8
# Incentive compatibility: a deviation may gain this share of max(1, |p*|).
IC_TOL = 5e-3
# A price may fall by this share of the price scale between tariff samples.
MONOTONE_TOL = 1e-9
# Oracle agreement, relative to the solver's principal utility.
ORACLE_TOL = 1e-3
# Profit re-pricing: the mismatch may be this multiple of the quadrature
# error estimate |Q_h - Q_2h|, plus a share of the payment scale. The
# general route reports a reduced objective integrated on its own 2001-node
# grid, which leaves about 1e-4 of the payment scale; the closed forms are
# exact up to rounding.
PROFIT_ERR_FACTOR = 4.0
PROFIT_REL_FLOOR = 1e-5
PROFIT_REL_FLOOR_GENERAL = 1e-3
# Reduced objective: slack for linear interpolation of the cumulative
# screening integral on PHI_NODES nodes.
PHI_NODES = 20001
PHI_TOL = 1e-8
# Sweep monotonicity: U_P may rise by this share of its scale.
SWEEP_TOL = 1e-9


class Primitives:
    """The market of one config, evaluated independently of the program."""

    def __init__(self, doc):
        self.gamma = float(doc["gamma"])
        horizon = float(doc.get("horizon", 1.0))
        self.t = np.linspace(0.0, horizon, int(doc.get("time_nodes", 9)))
        self.phi = self._profile(doc.get("phi", 1.0))
        self.k = self._profile(doc.get("k", 1.0))
        self.n = float(doc["n"]) if "n" in doc else None
        self.cost_table = doc.get("cost_table")
        g = doc.get("g", {"form": "canonical"})
        f = doc.get("f", {"form": "uniform"})
        self.g_table = None if g.get("form", "canonical") == "canonical" else g
        self.f_table = None
        if f.get("form", "uniform") != "uniform":
            fx, fd = np.asarray(f["x"], float), np.asarray(f["density"], float)
            self.f_table = (fx, fd / _trapz(fd, fx))
        self.res = doc["reservation"]

    def _profile(self, raw):
        return np.full(self.t.shape, float(raw)) if np.isscalar(raw) else np.asarray(raw, float)

    @property
    def canonical(self):
        return self.n is not None and self.g_table is None and self.f_table is None

    def g(self, x):
        if self.g_table is None:
            return x if self.gamma > 0 else 1.0 - x
        return np.interp(x, self.g_table["x"], self.g_table["values"])

    def pdf(self, x):
        if self.f_table is None:
            return np.ones_like(x)
        return np.interp(x, self.f_table[0], self.f_table[1])

    def H(self, x):
        if self.res["form"] == "constant":
            return np.full_like(x, float(self.res["value"]))
        return np.interp(x, self.res["x"], self.res["values"])

    def utility(self, i, x, c):
        """g(x) phi_i c^gamma / gamma on an (x, c) grid; zero where g(x) = 0."""
        gx = np.broadcast_to(self.g(x), np.broadcast(x, c).shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = gx * self.phi[i] * np.power(c, self.gamma) / self.gamma
        return np.where(gx > 0, u, 0.0)

    def cost(self, i, A):
        if self.n is not None:
            return self.k[i] * A ** self.n / self.n
        return float(np.interp(A, self.cost_table["c"], self.cost_table["K"]))


def _trapz(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def read_csv(path):
    """Columns of a CSV file as arrays: floats, or strings for a label column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = list(zip(*body)) if body else [()] * len(header)
    out = {}
    for h, col in zip(header, cols):
        try:
            out[h] = np.asarray([float(v) if v != "" else np.nan for v in col])
        except ValueError:   # a label column, such as the sweep parameter
            out[h] = np.asarray(col)
    return out


def load_solve_outputs(out_dir):
    out = Path(out_dir)
    return {
        "report": json.loads((out / "report.json").read_text()),
        "tariff": read_csv(out / "tariff.csv"),
        "indirect": read_csv(out / "indirect_utility.csv"),
        "consumption": read_csv(out / "consumption.csv"),
    }


# ---------------------------------------------------------------------------
# solve outputs
# ---------------------------------------------------------------------------

def _interval_ends(out):
    return np.asarray([v for iv in out["report"]["participation"] for v in iv], dtype=float)


def check_individual_rationality(prim, out):
    """participates <=> P*(x) >= H(x), with H recomputed from the config.

    Types within X_TOL of a reported interval end are not judged: there the
    indicator flips, and the program sharpens ends only to 1e-10.
    """
    ind = out["indirect"]
    x, P, part = ind["x"], ind["P_star"], ind["participates"] > 0.5
    H = prim.H(x)
    tol = IR_TOL * np.maximum(1.0, np.abs(H))
    ends = _interval_ends(out)
    at_end = np.any(np.abs(x[:, None] - ends[None, :]) <= X_TOL, axis=1) if ends.size else False
    bad = ((part & (P < H - tol)) | (~part & (P > H + tol))) & ~at_end
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        return [f"IR: x={x[j]:.6g} participates={int(part[j])} but P*={P[j]:.12g}, H={H[j]:.12g}"]
    return []


def _per_time(table, column, nt):
    return table[column].reshape(nt, -1)


def check_incentive_compatibility(prim, out, c_max):
    """Each participating type's c* is a best response to the sampled tariff,
    to within one step of the tariff's consumption grid.

    Two conditions per type and time node, with V(c) = u(t, x, c) - p(t, c)
    on the tariff samples: no sample beats the indirect utility p*(t, x) the
    type reports by more than IC_TOL, and c* lies within one grid step of a
    sample whose payoff is within IC_TOL of the best. Samples above the
    config's c_max are left out: a tabulated tariff is only defined up to it.
    """
    nt = prim.t.size
    cs_all = _per_time(out["tariff"], "c", nt)
    ps_all = _per_time(out["tariff"], "price", nt)
    xs = _per_time(out["consumption"], "x", nt)[0]
    cstar = _per_time(out["consumption"], "c_star", nt)
    pstar = _per_time(out["consumption"], "p_star", nt)
    part = out["indirect"]["participates"] > 0.5
    if not np.array_equal(xs, out["indirect"]["x"]):
        return ["IC: consumption.csv and indirect_utility.csv sample different types"]
    for i in range(nt):
        keep = cs_all[i] <= c_max
        cs, ps = cs_all[i][keep], ps_all[i][keep]
        step = float(np.max(np.diff(cs)))
        V = prim.utility(i, xs[part][:, None], cs[None, :]) - ps[None, :]
        best = np.max(V, axis=1)
        tol = IC_TOL * np.maximum(1.0, np.abs(pstar[i, part]))
        gain = best - pstar[i, part]
        if np.any(gain > tol):
            j = int(np.argmax(gain - tol))
            return [f"IC: t={prim.t[i]:.6g} x={xs[part][j]:.6g} gains {gain[j]:.3g} over p*={pstar[i, part][j]:.10g} "
                    f"at c={cs[int(np.argmax(V[j]))]:.6g}"]
        near = V >= best[:, None] - tol[:, None]
        dist = np.abs(cstar[i, part][:, None] - cs[None, :])
        miss = ~np.any(near & (dist <= step * (1.0 + 1e-9)), axis=1)
        if np.any(miss):
            j = int(np.flatnonzero(miss)[0])
            return [f"IC: t={prim.t[i]:.6g} x={xs[part][j]:.6g} c*={cstar[i, part][j]:.6g} "
                    f"but the tariff's best response is {cs[int(np.argmax(V[j]))]:.6g} (step {step:.3g})"]
    return []


def check_tariff_nondecreasing(prim, out):
    nt = prim.t.size
    ps = _per_time(out["tariff"], "price", nt)
    scale = np.maximum(1.0, np.max(np.abs(ps), axis=1, keepdims=True))
    drop = np.diff(ps, axis=1) < -MONOTONE_TOL * scale
    if np.any(drop):
        i, j = (int(v[0]) for v in np.nonzero(drop))
        return [f"tariff: price falls at t={prim.t[i]:.6g} between samples {j} and {j + 1}"]
    return []


def _interval_integral(xs, vals, lo, hi, stride, q=1.0):
    """Integral of vals over [lo, hi] from every ``stride``-th sample inside.

    vals is taken linear in w = (1 - x)^(1/q) between samples and integrated
    exactly in x; the end values are extrapolated linearly in w. With q = 1
    this is the trapezoid rule. On a residential served set that ends at
    x = 1 the closed-form p*, c* and payments are linear in (1 - x)^(1/(1-gamma)),
    so q = 1 - gamma removes the error of the square-root end.
    """
    inside = np.flatnonzero((xs >= lo - 1e-12) & (xs <= hi + 1e-12))
    # anchor the subsampling at the interval's last sample, where a
    # residential served set ends at x = 1
    inside = inside[::-1][::stride][::-1]
    if inside.size == 0:
        return np.zeros(vals.shape[0])
    if inside.size == 1:
        return vals[:, inside[0]] * (hi - lo)
    xg = np.concatenate([[lo], xs[inside], [hi]])
    w = (1.0 - xg) ** (1.0 / q)
    vi = vals[:, inside]
    left = vi[:, 0] + (vi[:, 1] - vi[:, 0]) * (w[0] - w[1]) / (w[2] - w[1])
    right = vi[:, -1] + (vi[:, -1] - vi[:, -2]) * (w[-1] - w[-2]) / (w[-2] - w[-3])
    vg = np.concatenate([left[:, None], vi, right[:, None]], axis=1)
    dw = np.diff(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(dw != 0.0, np.diff(vg, axis=1) / dw, 0.0)
    alpha = vg[:, :-1] - beta * w[:-1]
    panels = alpha * np.diff(xg) + beta * q / (q + 1.0) * (w[:-1] ** (q + 1.0) - w[1:] ** (q + 1.0))
    return np.sum(panels, axis=1)


def repriced_profit(prim, out, stride=1):
    """Revenue minus the cost of aggregate demand, from consumption.csv.

    A participating type pays u(t, x, c*) - p*(t, x): its utility at the
    consumption it chose minus the indirect utility it keeps. Type integrals
    run over the reported participation intervals.
    """
    nt = prim.t.size
    xs = _per_time(out["consumption"], "x", nt)[0]
    cstar = _per_time(out["consumption"], "c_star", nt)
    pstar = _per_time(out["consumption"], "p_star", nt)
    f = prim.pdf(xs)
    pay = np.vstack([prim.utility(i, xs, cstar[i]) for i in range(nt)]) - pstar
    revenue = np.zeros(nt)
    demand = np.zeros(nt)
    for lo, hi in out["report"]["participation"]:
        # a served set that reaches x = 1 (the general route stops 1e-9 short)
        q = 1.0 - prim.gamma if prim.gamma < 0 and hi >= 1.0 - X_TOL else 1.0
        revenue += _interval_integral(xs, pay * f, lo, hi, stride, q)
        demand += _interval_integral(xs, cstar * f, lo, hi, stride, q)
    cost = np.array([prim.cost(i, demand[i]) for i in range(nt)])
    return _trapz(revenue - cost, prim.t), _trapz(np.abs(revenue), prim.t)


def check_profit(prim, out):
    """Re-priced profit matches principal_utility within the quadrature error."""
    reported = float(out["report"]["principal_utility"])
    fine, scale = repriced_profit(prim, out, stride=1)
    coarse, _ = repriced_profit(prim, out, stride=2)
    floor = PROFIT_REL_FLOOR_GENERAL if out["report"]["route"] == "general" else PROFIT_REL_FLOOR
    tol = PROFIT_ERR_FACTOR * abs(fine - coarse) + floor * max(scale, abs(reported))
    if not abs(fine - reported) <= tol:
        return [f"profit: re-priced {fine:.10g} vs principal_utility {reported:.10g} "
                f"(|diff| {abs(fine - reported):.3g} > tol {tol:.3g})"]
    return []


class ReducedObjective:
    """Phi(x0) = B ell(x0)^(n(1-gamma)/(n-gamma)) + (x0 - 1) H for canonical
    power/uniform constant-H scenarios, with ell by cumulative trapezoid."""

    def __init__(self, prim):
        g = prim.gamma
        self.xs = np.linspace(0.0, 1.0, PHI_NODES)
        xs = self.xs
        weight = 2.0 * xs - 1.0 if g > 0 else 2.0 * (1.0 - xs)   # g f + g'(F - 1)
        integrand = np.maximum(weight, 0.0) ** (1.0 / (1.0 - g))
        seg = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(xs)
        self.tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])   # ell(x) on xs
        self.prim = prim

    def __call__(self, x0, H, k_scale=1.0):
        p, n, g = self.prim, self.prim.n, self.prim.gamma
        k = p.k * k_scale
        B = (1.0 / g - 1.0 / n) * _trapz((p.phi ** n / k ** g) ** (1.0 / (n - g)), p.t)
        ell = np.interp(x0, self.xs, self.tail)
        return B * ell ** (n * (1.0 - g) / (n - g)) + (x0 - 1.0) * H

    def check(self, x0, H, k_scale=1.0, label=""):
        at_x0 = float(self(np.asarray(x0), H, k_scale))
        grid = self(self.xs, H, k_scale)
        best = float(np.max(grid))
        if at_x0 < best - PHI_TOL * max(1.0, abs(best)):
            xb = float(self.xs[int(np.argmax(grid))])
            return [f"maximizer{label}: Phi(x0={x0:.10g})={at_x0:.12g} < Phi({xb:.6g})={best:.12g}"]
        return []


def check_oracle(out):
    rep = out["report"]
    if "oracle" not in rep:
        return ["oracle: report.json has no oracle block"]
    up = float(rep["principal_utility"])
    gap = abs(float(rep["oracle"]["value"]) - up) / max(1e-12, abs(up))
    if not gap < ORACLE_TOL:
        return [f"oracle: relative gap {gap:.3g} >= {ORACLE_TOL}"]
    return []


def _c_max(doc):
    return float(doc.get("solver", {}).get("c_max", 1e3))


def check_solve(req, out_dir):
    prim = Primitives(req.config)
    try:
        out = load_solve_outputs(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs unreadable: {exc}"]
    failures = (check_individual_rationality(prim, out)
                + check_incentive_compatibility(prim, out, _c_max(req.config))
                + check_tariff_nondecreasing(prim, out)
                + check_profit(prim, out))
    if req.kind == "const" and prim.canonical:
        failures += ReducedObjective(prim).check(out["report"]["boundary"]["x0"], float(prim.res["value"]))
    if req.oracle:
        failures += check_oracle(out)
    return failures


# ---------------------------------------------------------------------------
# sweep outputs
# ---------------------------------------------------------------------------

def check_sweep(req, out_dir):
    """U_P nonincreasing in the outside-option level and in k; canonical
    constant-H rows also maximize the reduced objective."""
    prim = Primitives(req.config)
    try:
        rows = read_csv(Path(out_dir) / "sweep.csv")
    except (OSError, ValueError) as exc:
        return [f"outputs unreadable: {exc}"]
    values, up = rows["value"], rows["U_P"]
    expected = len(req.argv[req.argv.index("--values") + 1].split(","))
    if values.size != expected:
        return [f"sweep: {values.size} rows for {expected} values"]
    if req.sweep == "H_scale":
        level = prim.H(np.asarray([0.5]))[0]   # the outside option's sign sets the direction
        order = values * np.sign(level)
    else:
        order = values
    up_sorted = up[np.argsort(order)]
    scale = np.maximum(1.0, np.abs(up_sorted[:-1]))
    rise = np.diff(up_sorted) > SWEEP_TOL * scale
    failures = []
    if np.any(rise):
        failures.append(f"sweep {req.sweep}: U_P rises with the {'outside option' if req.sweep == 'H_scale' else 'cost'}"
                        f" ({up_sorted.tolist()})")
    if req.kind == "const" and prim.canonical:
        phi = ReducedObjective(prim)
        H = float(prim.res["value"])
        for v, x0 in zip(values, rows["x0"]):
            if req.sweep == "H_scale":
                failures += phi.check(x0, H * v, label=f" at H_scale={v:g}")
            else:
                failures += phi.check(x0, H, k_scale=v, label=f" at k_scale={v:g}")
    return failures


def check_request(req, out_dir):
    return check_sweep(req, out_dir) if req.sweep else check_solve(req, out_dir)
