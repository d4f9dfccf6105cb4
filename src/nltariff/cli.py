"""Scenario runner: config ingestion, solving, sweeps, machine-readable output.

Configs are plain JSON with explicit numeric arrays (no expression parsing).
Outputs are deterministic: report.json plus fixed-column CSV tables suitable
for golden-file testing, ordered by value and free of timestamps.
"""
import argparse
import json
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import evaluation, oracle, solver_typed_h
from .agent import participation_set
from .errors import AssumptionViolation, ConfigError, InvalidParams, NLTariffError
from .model import (
    ConcaveReservation,
    ConstantReservation,
    ModelParams,
    ScenarioConfig,
    TabulatedCost,
    TasteMap,
    TypeDistribution,
)
from .solver_const_h import build_tariff_const_h, solve_x0_star
from .solver_typed_h import build_tariff_typed_h, mu_zero_residual, solve_a0_b0_star
from .tariff import TariffSegment
from .uconvex import C_MAX, check_u_convexity

SCHEMA_VERSION = 1
# every key load_config reads; any other key is refused
CONFIG_KEYS = ("gamma", "horizon", "time_grid", "time_nodes", "n", "cost_table",
               "phi", "k", "g", "f", "reservation", "solver")
SOLVER_KEYS = ("force_general_route",)
TYPE_SAMPLES = 201   # rows of indirect_utility.csv, types per time node of consumption.csv

EXIT_SOLVER = 1
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _require(doc, key, kind=None):
    if key not in doc:
        raise ConfigError(key, "missing")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(key, f"expected {kind}, got {type(val).__name__}")
    return val


def _number(doc, key, default=None, field=None):
    """A finite number; ``default`` when the key is absent, required without one."""
    if default is not None and key not in doc:
        return float(default)
    val = _require(doc, key)
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not np.isfinite(val):
        raise ConfigError(field or key, f"expected a finite number, got {val!r}")
    return float(val)


def _count(doc, key, default, minimum):
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise ConfigError(key, f"expected an integer >= {minimum}, got {val!r}")
    return val


def _flag(doc, key, default):
    val = doc.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(key, f"expected true or false, got {val!r}")
    return val


def _known(block, keys, prefix=""):
    """Refuse the first key of ``block`` that is not in ``keys``."""
    for key in block:
        if key not in keys:
            raise ConfigError(prefix + key, "unknown key")


def _block(doc, key, default):
    val = doc.get(key, default)
    if not isinstance(val, dict):
        raise ConfigError(key, f"expected an object, got {type(val).__name__}")
    return val


def _floats(val, field):
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"expected numbers ({exc})") from None


def _samples(block, field, *keys):
    """The arrays ``block[key]`` of a tabulated input: one length, each with
    at least two samples, all finite."""
    arrays = []
    for key in keys:
        if key not in block:
            raise ConfigError(field, f"tabulated form needs {key!r}")
        arr = _floats(block[key], field)
        if arr.ndim != 1 or arr.size < 2 or not np.all(np.isfinite(arr)):
            raise ConfigError(field, f"{key!r} needs a list of at least two finite numbers")
        arrays.append(arr)
    if len({arr.size for arr in arrays}) > 1:
        raise ConfigError(field, f"{', '.join(keys)} differ in length")
    return arrays


def _time_profile(doc, key, time_grid):
    raw = doc.get(key, 1.0)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return np.full(time_grid.shape, float(raw))
    arr = _floats(raw, key)
    if arr.shape != time_grid.shape:
        raise ConfigError(key, f"shape {arr.shape} does not match the time grid ({time_grid.size} nodes)")
    return arr


def _taste_map(doc, gamma):
    block = _block(doc, "g", {"form": "canonical"})
    form = block.get("form", "canonical")
    if form == "canonical":
        return TasteMap(form="canonical", gamma_sign=1 if gamma > 0 else -1)
    if form == "tabulated":
        x, values, derivative = _samples(block, "g", "x", "values", "derivative")
        return TasteMap.tabulated(x, values, derivative)
    raise ConfigError("g", f"unknown form {form!r}")


def _type_distribution(doc):
    block = _block(doc, "f", {"form": "uniform"})
    form = block.get("form", "uniform")
    if form == "uniform":
        return TypeDistribution.uniform()
    if form == "tabulated":
        return TypeDistribution.tabulated(*_samples(block, "f", "x", "density"))
    raise ConfigError("f", f"unknown form {form!r}")


def _reservation(doc):
    block = _require(doc, "reservation", dict)
    form = block.get("form")
    if form == "constant":
        return ConstantReservation(_number(block, "value", field="reservation"))
    if form == "concave":
        return ConcaveReservation.from_table(*_samples(block, "reservation", "x", "values", "derivative"))
    raise ConfigError("reservation", f"unknown form {form!r} (constant | concave)")


def load_config(path):
    """Parse and validate a scenario configuration file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("<file>", str(exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError("<file>", "expected a JSON object")
    _known(doc, CONFIG_KEYS)
    solver = _block(doc, "solver", {})
    _known(solver, SOLVER_KEYS, "solver.")
    gamma = _number(doc, "gamma")
    horizon = _number(doc, "horizon", 1.0)
    if "time_grid" in doc:
        time_grid = _floats(doc["time_grid"], "time_grid")
        if "time_nodes" in doc:
            raise ConfigError("time_nodes", "give time_grid or time_nodes, not both")
    else:
        time_grid = np.linspace(0.0, horizon, _count(doc, "time_nodes", 9, minimum=2))
    cost_table = None
    if "cost_table" in doc:
        c, K, marginal = _samples(_block(doc, "cost_table", {}), "cost_table", "c", "K", "marginal")
        cost_table = TabulatedCost.from_samples(c, K, marginal)
    params = ModelParams(
        gamma=gamma,
        horizon=horizon,
        time_grid=time_grid,
        phi=_time_profile(doc, "phi", time_grid),
        k=_time_profile(doc, "k", time_grid),
        n=_number(doc, "n") if "n" in doc else None,
        g=_taste_map(doc, gamma),
        f=_type_distribution(doc),
        reservation=_reservation(doc),
        cost_table=cost_table,
    )
    return ScenarioConfig(params=params, force_general_route=_flag(solver, "force_general_route", False))


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

def _solve(config):
    params = config.params
    if params.reservation.kind == "constant":
        report = solve_x0_star(config)
        tariff, p_star = build_tariff_const_h(config, report)
        boundary = {"x0": report.boundary["x0"]}
        extras = {
            "foc_residual": report.foc_residual,
            "uniqueness": report.uniqueness,
            "route": report.route,
            "principal_utility": report.principal_utility,
            "warnings": list(report.warnings),
        }
    else:
        sol = solve_a0_b0_star(config)
        tariff, p_star = build_tariff_typed_h(config, sol)
        boundary = {"a0": sol.a0, "b0": sol.b0}
        extras = {
            "foc_residual": mu_zero_residual(sol, p_star, params),
            "uniqueness": True,
            "route": "closed_form",
            "principal_utility": sol.objective,
            "warnings": list(sol.warnings),
            "certificates": {"Xi": sol.Xi, "Psi": sol.Psi, "theta": sol.theta},
            "assumption_flags": sol.assumption_flags,
            "bridge": {
                "name": sol.bridge.name, "valid": sol.bridge.valid,
                "checks": {k: bool(v) for k, v in sol.bridge.checks.items()},
            },
        }
    return tariff, p_star, boundary, extras


def run_scenario(config_path, out_dir, run_oracle=False, full_tariff=False):
    """Solve one scenario and write report.json plus the data tables."""
    config = load_config(config_path)
    if full_tariff:
        config = replace(config, simplified_tariff=False)
    params = config.params
    tariff, p_star, boundary, extras = _solve(config)

    part = participation_set(p_star, params)
    conv = check_u_convexity(p_star.sample(np.linspace(0.0, 1.0, 801)), params)

    report = {
        "schema_version": SCHEMA_VERSION,
        "branch": "industrial" if params.gamma > 0 else "residential",
        "reservation": params.reservation.kind,
        "boundary": boundary,
        "participation": [[lo, hi] for lo, hi in part.intervals],
        "u_convexity": {
            "is_u_convex": bool(conv.is_u_convex),
            "max_biconjugation_gap": conv.max_biconjugation_gap,
            "violations": len(conv.convexity_violations),
        },
        "tariff": {
            "simplified": tariff.simplified,
            "segments": [
                {
                    "label": s.label,
                    "p1_t0": float(s.p1[0]) if isinstance(s, TariffSegment) else None,
                    "p2_t0": float(s.p2[0]) if isinstance(s, TariffSegment) else None,
                    "p3_t0": float(s.p3[0]) if isinstance(s, TariffSegment) else None,
                    "c_lo_t0": float(s.c_lo[0]),
                    "c_hi_t0": float(s.c_hi[0]) if np.isfinite(s.c_hi[0]) else None,
                }
                for s in tariff.segments
            ],
        },
        **extras,
    }

    if run_oracle:
        if params.reservation.kind == "constant":
            res = oracle.oracle_relaxed_maximize_const_h(params)
            gap = abs(res.value - extras["principal_utility"]) / max(1e-12, abs(extras["principal_utility"]))
            report["oracle"] = {"value": res.value, "x0": res.x0,
                                "relative_gap": gap, "iterations": res.iterations}
        else:
            dense = _typed_scan_audit(params)
            report["oracle"] = dense

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_json_safe(report), indent=2, sort_keys=True, allow_nan=False)
    (out / "report.json").write_text(text + "\n")
    _write_tariff_csv(out / "tariff.csv", tariff)
    _write_type_csvs(out, p_star, part, params)
    return report


def _json_safe(doc):
    """``doc`` with every non-finite number replaced by None, so that it
    dumps as strict JSON: a non-finite or waived certificate reads null."""
    if isinstance(doc, dict):
        return {key: _json_safe(val) for key, val in doc.items()}
    if isinstance(doc, list):
        return [_json_safe(val) for val in doc]
    return None if isinstance(doc, float) and not np.isfinite(doc) else doc


def _typed_scan_audit(params):
    a = np.linspace(0.0, 1.0, 512)
    vals = solver_typed_h._evaluate_mesh(a, a, params)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    return {"value": float(vals[i, j]), "a0": float(a[i]), "b0": float(a[j]), "grid": a.size}


def _selected_c_samples(tariff):
    """200 consumptions up to 1.25 times the top of the selected range, or of
    the default consumption grid of a sampled tariff."""
    if tariff.selected_range:
        tops = [np.max(band[:, 1][np.isfinite(band[:, 1])], initial=0.0) for band in tariff.selected_range]
        c_top = max(tops)
    else:
        c_top = C_MAX
    if not np.isfinite(c_top) or c_top <= 0:
        c_top = 1.0
    return np.linspace(0.0 if tariff.gamma > 0 else c_top * 1e-4, c_top * 1.25, 200)


def _write_table(path, header, fmt, *columns):
    """Write ``header`` and one line ``fmt % row`` per row of the equal-length ``columns``.

    The body is one ``%`` operation over the flattened rows. Lines end in
    ``\\r\\n`` and nothing is quoted, as the csv module writes these tables:
    they hold only ``%.12g`` numbers (digits, ``.``, ``e``, ``+``, ``-``,
    ``nan``, ``inf``), 0/1 flags, empty fields and sweep parameter names.
    """
    line = fmt + "\r\n"
    body = (line * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def _grid_text(values, each=1):
    """The ``%.12g`` text of a grid, formatted once, each entry repeated ``each`` times."""
    texts = ["%.12g" % v for v in np.asarray(values).tolist()]
    return [text for text in texts for _ in range(each)]


def _write_tariff_csv(path, tariff):
    cs = _selected_c_samples(tariff)
    prices = tariff.sample(cs).values
    _write_table(path, ["schema_version", "t", "c", "price"], f"{SCHEMA_VERSION},%s,%s,%.12g",
                 _grid_text(tariff.time_grid, cs.size),
                 _grid_text(cs) * tariff.time_grid.size, prices.ravel().tolist())


def _write_type_csvs(out, p_star, part, params):
    """indirect_utility.csv (P*, H and participation per type) and
    consumption.csv (c* and p* per time node and type) on one type grid;
    non-participating types consume 0."""
    xs = np.linspace(0.0, 1.0, TYPE_SAMPLES)
    member = part.contains(xs)
    _write_table(out / "indirect_utility.csv", ["schema_version", "x", "P_star", "H", "participates"],
                 f"{SCHEMA_VERSION},%.12g,%.12g,%.12g,%d",
                 xs.tolist(), p_star.P_star(xs).tolist(), params.reservation(xs).tolist(), member.tolist())
    cons = evaluation.consumption_from_slopes(p_star.slopes(xs), xs, params)
    cons = np.where(np.isfinite(cons), cons, 0.0)
    cons[:, ~member] = 0.0
    _write_table(out / "consumption.csv", ["schema_version", "t", "x", "c_star", "p_star"],
                 f"{SCHEMA_VERSION},%s,%s,%.12g,%.12g",
                 _grid_text(params.time_grid, xs.size),
                 _grid_text(xs) * params.time_grid.size, cons.ravel().tolist(),
                 p_star.values(xs).ravel().tolist())


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _scaled_config(config, param, value):
    params = config.params
    if param == "H_scale":
        res = params.reservation
        if res.kind == "constant":
            new_res = ConstantReservation(res.H * value)
        else:
            new_res = ConcaveReservation.from_table(res.x, value * res.values, value * res.derivative)
        new_params = replace(params, reservation=new_res)
    elif param == "k_scale":
        if params.cost_table is not None:
            raise ConfigError("param", "k_scale needs a power cost: a tabulated cost ignores k")
        new_params = replace(params, k=params.k * value)
    else:
        raise ConfigError("param", f"unknown sweep parameter {param!r} (H_scale | k_scale)")
    return replace(config, params=new_params)


def run_sweep(config_path, param, values, out_dir, full_tariff=False):
    """Re-solve the scenario for each sweep value and emit one CSV row each."""
    values = _floats(values, "values")
    if values.size < 2 or not np.all(np.isfinite(values)):
        raise ConfigError("values", f"a sweep needs at least two finite numbers, got {values.tolist()}")
    base = load_config(config_path)
    if full_tariff:
        base = replace(base, simplified_tariff=False)
    rows = []
    for v in sorted(values.tolist()):
        cfg = _scaled_config(base, param, v)
        tariff, _, boundary, extras = _solve(cfg)
        try:
            p1, p2, p3 = tariff.coefficients_at(0, label="selected")
        except InvalidParams:  # fully sampled emission carries no polynomial part
            p1 = p2 = p3 = ""
        rows.append({
            "param": param,
            "value": v,
            "x0": boundary.get("x0", ""),
            "a0": boundary.get("a0", ""),
            "b0": boundary.get("b0", ""),
            "p1": p1, "p2": p2, "p3": p3,
            "U_P": extras["principal_utility"],
        })
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    optional = ("x0", "a0", "b0", "p1", "p2", "p3", "U_P")
    _write_table(out / "sweep.csv", ["schema_version", "param", "value", *optional],
                 f"{SCHEMA_VERSION},%s,%.12g" + ",%s" * len(optional),
                 [r["param"] for r in rows], [r["value"] for r in rows],
                 *([_fmt(r[k]) for r in rows] for k in optional))
    return rows


def _fmt(v):
    return "" if v == "" else "%.12g" % float(v)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="nltariff", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one scenario and write report files")
    solve.add_argument("config", help="scenario configuration (JSON)")
    solve.add_argument("--out", default="out", help="output directory")
    solve.add_argument("--oracle", action="store_true", help="also run the independent audit")
    solve.add_argument("--full-tariff", action="store_true", help="disable simplified emission")

    sweep = sub.add_parser("sweep", help="comparative-statics sweep")
    sweep.add_argument("config")
    sweep.add_argument("--param", required=True, choices=["H_scale", "k_scale"])
    sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    sweep.add_argument("--out", default="out")
    sweep.add_argument("--full-tariff", action="store_true")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            run_scenario(args.config, args.out, run_oracle=args.oracle, full_tariff=args.full_tariff)
        else:
            values = [v for v in args.values.split(",") if v.strip()]
            run_sweep(args.config, args.param, values, args.out, full_tariff=args.full_tariff)
    except (ConfigError, InvalidParams) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except NLTariffError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ArithmeticError as exc:  # a float overflow of valid inputs
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return 0


if __name__ == "__main__":
    sys.exit(main())
