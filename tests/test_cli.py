"""Scenario runner: config validation, report files, sweeps, exit codes."""
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from nltariff.cli import (
    CONFIG_KEYS,
    SOLVER_KEYS,
    _fmt,
    _grid_text,
    _write_grid_table,
    _write_table,
    build_parser,
    load_config,
    main,
    run_scenario,
    run_sweep,
)
from nltariff.oracle import OracleResult
from nltariff.uconvex import GAP_TOL

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


BASE_DOC = {
    "gamma": 0.5, "horizon": 1.0, "n": 2.0, "time_nodes": 3,
    "phi": 1.0, "k": 1.0,
    "g": {"form": "canonical"}, "f": {"form": "uniform"},
    "reservation": {"form": "constant", "value": 0.05},
}


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE_DOC))
    assert cfg.params.gamma == 0.5
    assert cfg.params.time_grid.size == 3


def test_solve_writes_all_files(tmp_path):
    out = tmp_path / "out"
    report = run_scenario(CONFIG_DIR / "industrial_constant_h.json", out)
    for name in ("report.json", "tariff.csv", "indirect_utility.csv", "consumption.csv"):
        assert (out / name).exists()
    assert report["branch"] == "industrial"
    assert 0.5 < report["boundary"]["x0"] < 1.0
    assert report["u_convexity"]["is_u_convex"]
    rows = read_csv(out / "indirect_utility.csv")
    assert set(rows[0]) == {"schema_version", "x", "P_star", "H", "participates"}
    # the participation flag flips exactly once, from 0 to 1
    flags = [int(r["participates"]) for r in rows]
    assert flags == sorted(flags)


def test_residential_crossing_shape(tmp_path):
    out = tmp_path / "out"
    run_scenario(CONFIG_DIR / "residential_constant_h.json", out)
    rows = read_csv(out / "indirect_utility.csv")
    gap = [float(r["P_star"]) - float(r["H"]) for r in rows]
    signs = [g >= 0 for g in gap]
    # single crossing of P* through H
    assert sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b) == 1
    cons = read_csv(out / "consumption.csv")
    outside = [r for r in cons if r["x"] == rows[0]["x"]]
    assert all(float(r["c_star"]) == 0.0 for r in outside)  # excluded types consume nothing


def test_typed_sqrt_scenario_upper_component_only(tmp_path):
    out = tmp_path / "out"
    report = run_scenario(CONFIG_DIR / "industrial_sqrt_h.json", out)
    assert report["boundary"]["b0"] == 0.0
    assert 0.5 < report["boundary"]["a0"] < 1.0
    assert len(report["participation"]) == 1
    assert report["bridge"]["valid"]


def test_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(CONFIG_DIR / "industrial_constant_h.json", out1)
    run_scenario(CONFIG_DIR / "industrial_constant_h.json", out2)
    for name in ("report.json", "tariff.csv", "indirect_utility.csv", "consumption.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_parser_is_built_once_and_flags_do_not_leak(tmp_path):
    """main reuses one parser; --oracle and --full-tariff of one call are
    gone from the next."""
    cfg = str(write_config(tmp_path, BASE_DOC))
    assert build_parser() is build_parser()
    assert main(["solve", cfg, "--oracle", "--full-tariff", "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", cfg, "--out", str(tmp_path / "b")]) == 0
    first = json.loads((tmp_path / "a" / "report.json").read_text())
    second = json.loads((tmp_path / "b" / "report.json").read_text())
    assert "oracle" in first and not first["tariff"]["simplified"]
    assert "oracle" not in second and second["tariff"]["simplified"]


# values whose text is easy to get wrong: signed zero, non-finite values,
# the largest and smallest doubles, and a sum that is not exactly 0.3
AWKWARD_VALUES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e16, 1e-5,
                  0.1 + 0.2, 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize("rows", [len(AWKWARD_VALUES), 1])
def test_write_table_keeps_the_csv_module_bytes(tmp_path, rows):
    """One formatted pass writes what csv.writer wrote with the f-strings."""
    values = AWKWARD_VALUES[:rows]
    reverse = values[::-1]
    flags = [v > 0 for v in values]
    optional = ["" if i % 2 else v for i, v in enumerate(values)]
    header = ["schema_version", "x", "a", "b", "flag", "opt"]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for x, a, b, flag, opt in zip(values, values, reverse, flags, optional):
            w.writerow([1, f"{x:.12g}", f"{a:.12g}", f"{b:.12g}", int(flag),
                        "" if opt == "" else f"{float(opt):.12g}"])
    got = tmp_path / "got.csv"
    _write_table(got, header, "1,%s,%.12g,%.12g,%d,%s", _grid_text(values), values, reverse,
                 np.asarray(flags).tolist(), [_fmt(opt) for opt in optional])
    assert got.read_bytes() == ref.read_bytes()

    # the grid-table writer, with the values as grid texts, on a 1-node time
    # grid and on a 1-node inner grid: one row per (t, x), time-major
    header = ["schema_version", "t", "x", "a", "b"]
    for t_grid, x_grid in ((values[:1], values), (values, values[:1])):
        a = np.resize(values, (len(t_grid), len(x_grid)))
        b = np.resize(reverse, a.shape)
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i, t in enumerate(t_grid):
                for j, x in enumerate(x_grid):
                    w.writerow([1, f"{t:.12g}", f"{x:.12g}", f"{a[i, j]:.12g}", f"{b[i, j]:.12g}"])
        _write_grid_table(got, header, "%.12g,%.12g", np.asarray(t_grid), np.asarray(x_grid), a, b)
        assert got.read_bytes() == ref.read_bytes()


def test_malformed_gamma_exits_2(tmp_path, capsys):
    doc = dict(BASE_DOC, gamma=0.0)
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_missing_reservation_exits_2(tmp_path, capsys):
    doc = {k: v for k, v in BASE_DOC.items() if k != "reservation"}
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "reservation" in capsys.readouterr().err


def test_assumption_violation_exits_3(tmp_path, capsys):
    # residential g = 1 - x with H = -1 + 0.1 sqrt(x): g/g' = x - 1 exceeds
    # H/H' = 2x - 20 sqrt(x) away from x = 0, so the elasticity condition fails
    xs = np.linspace(1e-6, 1.0, 2001)
    doc = dict(
        BASE_DOC, gamma=-1.0,
        reservation={"form": "concave", "x": xs.tolist(),
                     "values": (-1.0 + 0.1 * np.sqrt(xs)).tolist(),
                     "derivative": (0.05 / np.sqrt(xs)).tolist()},
    )
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "elasticity" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["1.0", "abc,1", "nan,1.0", "inf,1.0", "1.0,-inf"])
def test_sweep_needs_two_values(tmp_path, values):
    """Fewer than two values, or a value that is not a finite number, is a
    config error: no traceback, and no row for an undefined outside option."""
    code = main(["sweep", str(CONFIG_DIR / "industrial_constant_h.json"),
                 "--param", "H_scale", "--values", values, "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_h_sweep_monotone_columns(tmp_path):
    rows = run_sweep(CONFIG_DIR / "residential_constant_h.json", "H_scale",
                     [0.5, 0.75, 1.0, 1.25, 1.5], tmp_path / "o")
    # H = -0.1 * scale: sort by the actual reservation level
    rows = sorted(rows, key=lambda r: -0.1 * r["value"])
    H = [-0.1 * r["value"] for r in rows]
    assert all(h2 > h1 for h1, h2 in zip(H, H[1:]))
    U = [r["U_P"] for r in rows]
    x0 = [r["x0"] for r in rows]
    p3 = [abs(r["p3"]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(U, U[1:]))        # U_P nonincreasing in H
    assert all(b >= a - 1e-10 for a, b in zip(x0, x0[1:]))      # threshold nondecreasing
    assert all(b <= a + 1e-10 for a, b in zip(p3, p3[1:]))      # fixed charge shrinks
    csv_rows = read_csv(tmp_path / "o" / "sweep.csv")
    assert [r["param"] for r in csv_rows] == ["H_scale"] * 5


def test_k_sweep_monotone_columns(tmp_path):
    rows = run_sweep(CONFIG_DIR / "residential_constant_h.json", "k_scale",
                     [1e-6, 0.5, 1.0, 1.5, 2.0], tmp_path / "o")
    rows = sorted(rows, key=lambda r: r["value"])
    U = [r["U_P"] for r in rows]
    p2 = [r["p2"] for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(U, U[1:]))        # U_P nonincreasing in k
    assert all(b >= a - 1e-10 for a, b in zip(p2, p2[1:]))      # volumetric part grows
    # k -> 0: the tariff collapses toward a pure fixed charge
    assert rows[0]["p2"] < 1e-4
    assert abs(rows[0]["p3"]) > 100 * rows[0]["p2"]


def test_oracle_flag_appends_audit(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE_DOC)
    import nltariff.cli as cli_mod
    import nltariff.oracle as oracle_mod

    # shrink the audit so the test stays quick; the full-size run is covered
    # by the acceptance suite
    orig = oracle_mod.oracle_relaxed_maximize_const_h

    def small_oracle(params, **kw):
        return orig(params, type_grid_size=60, x0_candidates=np.linspace(0.5, 0.7, 5))

    cli_mod.oracle.oracle_relaxed_maximize_const_h = small_oracle
    try:
        report = run_scenario(path, out, run_oracle=True)
    finally:
        cli_mod.oracle.oracle_relaxed_maximize_const_h = orig
    assert "oracle" in report
    assert report["oracle"]["relative_gap"] < 0.05


def test_full_tariff_flag_emits_top_segment(tmp_path):
    out = tmp_path / "out"
    report = run_scenario(CONFIG_DIR / "industrial_constant_h.json", out, full_tariff=True)
    labels = [s["label"] for s in report["tariff"]["segments"]]
    assert labels == ["selected", "top"]
    assert not report["tariff"]["simplified"]


def test_typed_oracle_flag_runs_dense_scan(tmp_path):
    out = tmp_path / "out"
    report = run_scenario(CONFIG_DIR / "industrial_sqrt_h.json", out, run_oracle=True)
    audit = report["oracle"]
    assert abs(audit["a0"] - report["boundary"]["a0"]) < 5e-3
    assert audit["value"] <= report["principal_utility"] + 1e-9


def test_typed_sweep_emits_boundary_columns(tmp_path):
    rows = run_sweep(CONFIG_DIR / "industrial_sqrt_h.json", "H_scale", [0.9, 1.0], tmp_path / "o")
    assert all(r["x0"] == "" for r in rows)
    assert all(0.5 < r["a0"] < 1.0 for r in rows)
    # stronger outside options shrink the served set and the profit
    assert rows[0]["U_P"] >= rows[1]["U_P"] - 1e-10
    assert rows[0]["a0"] <= rows[1]["a0"] + 1e-10


def test_typed_solve_returns_the_upper_corner_it_ties_with(tmp_path):
    """At a high cost level pairs a hair below a0 = 1 tie with the edge
    a0 = 1; the edge wins, so no sliver of types next to x = 1 is served."""
    doc = json.loads((CONFIG_DIR / "residential_log_h.json").read_text())
    doc["k"] = 2.0
    report = run_scenario(write_config(tmp_path, doc), tmp_path / "o")
    assert report["boundary"]["a0"] == 1.0
    assert len(report["participation"]) == 1


@pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["plain", "oracle"])
def test_typed_empty_contract_is_solved(tmp_path, flags):
    """At a taste scale this low no type is worth serving: the scan returns
    the corner (a0, b0) = (1, 0), whose coverage R is 0, and the request
    writes the empty contract on the sampled tariff route."""
    doc = dict(json.loads((CONFIG_DIR / "industrial_sqrt_h.json").read_text()), phi=0.003)
    out = tmp_path / "o"
    assert main(["solve", str(write_config(tmp_path, doc)), "--out", str(out)] + flags) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["boundary"] == {"a0": 1.0, "b0": 0.0}
    assert report["participation"] == []
    assert report["principal_utility"] == 0.0
    assert [s["label"] for s in report["tariff"]["segments"]] == ["sampled"]
    assert report.get("oracle", {"value": 0.0})["value"] == 0.0


@pytest.mark.parametrize("phi, route", [(1.0, "closed_form"), (0.003, "sampled")], ids=["shipped", "empty"])
def test_typed_route_names_the_emission(tmp_path, phi, route):
    """A typed report's route is the one its tariff was emitted on: the
    empty contract falls back to the fully sampled tariff."""
    doc = dict(json.loads((CONFIG_DIR / "industrial_sqrt_h.json").read_text()), phi=phi)
    report = run_scenario(write_config(tmp_path, doc), tmp_path / "o")
    assert report["route"] == route


def test_oracle_gap_is_signed(tmp_path, monkeypatch):
    """A profit above the dual bound, which only a solver or quadrature
    fault can produce, reads as a negative relative gap."""
    import nltariff.cli as cli_mod

    monkeypatch.setattr(cli_mod.oracle, "oracle_relaxed_maximize_const_h",
                        lambda params: OracleResult(value=0.0, x0=1.0, iterations=1))
    report = run_scenario(write_config(tmp_path, BASE_DOC), tmp_path / "o", run_oracle=True)
    assert report["principal_utility"] > 0.0
    assert report["oracle"]["relative_gap"] == -1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family, gamma", [
    ("industrial_constant_h", 0.9995),
    ("industrial_sqrt_h", 0.9995),
])
def test_overflowing_valid_config_is_a_solver_error(tmp_path, capsys, family, gamma):
    """A valid config whose numbers overflow (2^(gamma/(1-gamma)) past the
    float range) exits 1, not 2, and leaves no report that looks complete."""
    doc = dict(json.loads((CONFIG_DIR / f"{family}.json").read_text()), gamma=gamma)
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("solver error:")
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_sampled_tariff_that_overflows_is_a_solver_error(tmp_path, capsys):
    """At gamma = -400 the general route's sampled conjugate takes c^gamma
    past the float range at the consumptions of tariff.csv: the tariff
    samples to a non-finite price, the request exits 1 and leaves no
    report."""
    doc = dict(json.loads((CONFIG_DIR / "residential_constant_h.json").read_text()), gamma=-400.0,
               solver={"force_general_route": True})
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("solver error:")
    assert not (tmp_path / "o" / "report.json").exists()


def test_a_steep_residential_typed_request_solves(tmp_path):
    """residential_log_h at gamma = -40 used to exit 1: the sampled bridge
    conjugate put a knot at c = 1e-9, where c^gamma overflows. The band's two
    end planes price it exactly, so the request solves, u-convex, without a
    warning."""
    doc = dict(json.loads((CONFIG_DIR / "residential_log_h.json").read_text()), gamma=-40.0)
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["bridge"]["valid"] and report["u_convexity"]["is_u_convex"]
    assert report["warnings"] == []
    assert [s["label"] for s in report["tariff"]["segments"]] == ["bridge_a0", "bridge_b0", "selected"]


def test_a_report_that_is_not_u_convex_warns(tmp_path):
    """A varying phi on industrial_sqrt_h leaves a glued p* that fails the
    u-convexity check; the report says so in its warnings. The chord does
    not glue convexly, so the band is not the two end planes: the tariff is
    the sampled conjugate."""
    doc = dict(json.loads((CONFIG_DIR / "industrial_sqrt_h.json").read_text()),
               time_nodes=5, phi=[1.0, 1.6, 1.0, 0.4, 1.0])
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert not report["u_convexity"]["is_u_convex"]
    assert any("not u-convex" in w for w in report["warnings"]), report["warnings"]
    assert report["route"] == "sampled"
    assert report["bridge"]["valid"] is False


def test_industrial_threshold_below_the_bracket_end_is_solved(tmp_path):
    """H = 1e-13 puts the root of chi below 1e-12, where chi(0) = H > 0:
    the closed form still finds it, just above x0 = 1/2."""
    doc = json.loads((CONFIG_DIR / "industrial_constant_h.json").read_text())
    doc["reservation"]["value"] = 1e-13
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["route"] == "closed_form_industrial"
    assert 0.5 < report["boundary"]["x0"] < 0.5 + 1e-6
    assert report["foc_residual"] <= 1e-12


def test_typed_sweep_returns_the_lower_corner_it_ties_with(tmp_path):
    rows = run_sweep(CONFIG_DIR / "industrial_sqrt_h.json", "H_scale", [20.0, 50.0], tmp_path / "o")
    assert [r["b0"] for r in rows] == [0.0, 0.0]


def test_h_sweep_scales_a_tabulated_reservation(tmp_path):
    """H_scale on a tabulated H scales its table, so the assumption probe sees
    the same elasticity ratio H/H' at every value."""
    code = main(["sweep", str(CONFIG_DIR / "residential_log_h.json"), "--param", "H_scale",
                 "--values", "0.5,0.75,1.0,1.25,1.5", "--out", str(tmp_path / "o")])
    assert code == 0
    rows = read_csv(tmp_path / "o" / "sweep.csv")
    assert [float(r["value"]) for r in rows] == [0.5, 0.75, 1.0, 1.25, 1.5]
    report = run_scenario(CONFIG_DIR / "residential_log_h.json", tmp_path / "solve")
    assert float(rows[2]["U_P"]) == float(f"{report['principal_utility']:.12g}")


# the oracle block of `solve --oracle` on the shipped constant-H configs: the
# dual bound at its located threshold, and the number of thresholds the
# search evaluated
PINNED_ORACLE = {
    "industrial_constant_h": {"value": "0.43204375806081385", "x0": "0.5828767556971948",
                              "relative_gap": "5.095172434996132e-10", "iterations": "86"},
    "residential_constant_h": {"value": "0.001802812227518002", "x0": "0.9639437597612113",
                               "relative_gap": "1.467894309934583e-07", "iterations": "86"},
}


@pytest.mark.parametrize("family", sorted(PINNED_ORACLE))
def test_oracle_block_is_pinned(tmp_path, family):
    out = tmp_path / "o"
    assert main(["solve", str(CONFIG_DIR / f"{family}.json"), "--oracle", "--out", str(out)]) == 0
    block = json.loads((out / "report.json").read_text())["oracle"]
    assert {k: repr(v) for k, v in block.items()} == PINNED_ORACLE[family]


# full-precision numbers of `solve`, computed before the optimal-slope
# formula had one kernel: on the shipped configs, where phi = k = 1 makes
# scalar and vector powers agree trivially, and with the time-varying
# profiles below (on the general route too), where a power moved from a
# scalar to an array can change the last bit. The constant-H closed-form rows
# are those of the typed core's one-component case, within 1e-14 relative of
# the explicit formulas (the residential foc_residual is a difference
# quotient of rounding noise).
VARYING_PROFILES = {"phi": [0.8, 1.3, 1.1], "k": [1.2, 0.7, 1.0]}
PINNED_REPORTS = {
    ("industrial_constant_h", "shipped"):
        "[{'x0': 0.5828767577825177}, 0.4320437578406801, 0.0, None, "
        "[[1.0, 0.27474227922168387, -0.02499999999999997, 0.0, None]]]",
    ("industrial_constant_h", "varying"):
        "[{'x0': 0.5739204499845432}, 0.5487489610019279, 2.7755575615628914e-17, None, "
        "[[0.8, 0.2517125008437637, -0.03610673263797202, 0.0, None]]]",
    ("industrial_sqrt_h", "shipped"):
        "[{'a0': 0.8163774383207211, 'b0': 0.0}, 0.20797584969632682, 9.505129122047765e-10, "
        "{'Psi': 0.0, 'Xi': 2.5347896642686987, 'theta': -0.16590945606823232}, "
        "[[0.0, 0.0, 1.903535243986058e-06, 0.0, 0.3062316300444656], "
        "[1.6327548766414421, 0.0, -0.9035352439860582, 0.3062316300444656, 1.6062896605208554], "
        "[1.0, 0.24962815872298247, -0.5025601136544724, 1.6062896605208554, None]]]",
    ("industrial_sqrt_h", "varying"):
        "[{'a0': 0.7788566692100408, 'b0': 0.0}, 0.3079762646151686, 1.2314841853727676e-09, "
        "{'Psi': 0.0, 'Xi': 2.7160287470606317, 'theta': -0.1951652308652846}, "
        "[[0.0, 0.0, 1.8825282235196663e-06, 0.0, 0.5015381893166584], "
        "[1.2461706707360654, 0.0, -0.8825282235196664, 0.5015381893166584, 0.8899334453395238], "
        "[0.8, 0.23647882472036313, -0.6720778082864323, 0.8899334453395238, None]]]",
    ("residential_constant_h", "shipped"):
        "[{'x0': 0.9639437607423148}, 0.0018028119628842598, 0.0, None, "
        "[[0.0, 0.017334031858765864, 0.05000000000000002, 0.0, None]]]",
    ("residential_constant_h", "varying"):
        "[{'x0': 0.9647940442438017}, 0.0017602977878099172, 2.2475308154946991e-13, None, "
        "[[0.0, 0.017742689895560743, 0.0552912230376519, 0.0, None]]]",
    ("residential_constant_h", "general"):
        "[{'x0': 0.9647940445795213}, 0.0017602977878099163, 9.535774947487907e-10, None, "
        "[[None, None, None, 0.0, None]]]",
    ("residential_log_h", "shipped"):
        "[{'a0': 1.0, 'b0': 0.15551556041875486}, 0.17756414699155407, 2.3877450298050883e-09, "
        "{'Psi': 0.6295797256285325, 'Xi': None, 'theta': 0.2894289353654624}, "
        "[[0.0, 0.0, 2.861093093109446e-06, 0.0, 0.45375792374613355], "
        "[-0.8444844395812452, 0.0, 1.8610930931034848, 0.45375792374613355, 1.5883611865068614], "
        "[-0.5, 0.13654351465980133, 1.4273322551937666, 1.5883611865068614, None]]]",
    ("residential_log_h", "varying"):
        "[{'a0': 1.0, 'b0': 0.15178945867987062}, 0.17492026468815186, 2.266549032641468e-09, "
        "{'Psi': 0.6366464847406164, 'Xi': None, 'theta': 0.2861793785529341}, "
        "[[0.0, 0.0, 2.8853705720255363e-06, 0.0, 0.3599130492293035], "
        "[-0.6785684330561036, 0.0, 1.8853705721192182, 0.3599130492293035, 1.4052993851695268], "
        "[-0.4, 0.1410568524646576, 1.4889163560341543, 1.4052993851695268, None]]]",
}


@pytest.mark.parametrize("family, profile", sorted(PINNED_REPORTS))
def test_report_numbers_are_pinned(tmp_path, family, profile):
    doc = json.loads((CONFIG_DIR / f"{family}.json").read_text())
    if profile != "shipped":
        doc.update(VARYING_PROFILES)
    if profile == "general":
        doc["solver"] = {"force_general_route": True}
    out = tmp_path / "o"
    assert main(["solve", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    segments = [[s[k] for k in ("p1_t0", "p2_t0", "p3_t0", "c_lo_t0", "c_hi_t0")]
                for s in report["tariff"]["segments"]]
    pinned = [report["boundary"], report["principal_utility"], report["foc_residual"],
              report.get("certificates"), segments]
    assert repr(pinned) == PINNED_REPORTS[(family, profile)]


def test_k_sweep_rejects_a_tabulated_cost(tmp_path, capsys):
    """A tabulated cost ignores k, so a k_scale sweep would repeat one row."""
    c = np.linspace(0.0, 20.0, 401)
    doc = {k: v for k, v in BASE_DOC.items() if k != "n"}
    doc["cost_table"] = {"c": c.tolist(), "K": (c ** 2 / 2).tolist(), "marginal": c.tolist()}
    code = main(["sweep", str(write_config(tmp_path, doc)), "--param", "k_scale",
                 "--values", "0.5,1,2", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "k_scale" in capsys.readouterr().err


def test_nan_phi_is_rejected_at_ingestion(tmp_path, capsys):
    code = main(["solve", str(write_config(tmp_path, dict(BASE_DOC, phi=float("nan")))),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error: phi:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


TABLE = {"form": "tabulated", "x": [0.0, 0.5, 1.0], "values": [0.0, 0.5, 1.0], "derivative": [1.0, 1.0, 1.0]}
COSTS = {"c": [0.0, 1.0, 2.0], "K": [0.0, 0.5, 2.0], "marginal": [0.0, 1.0, 2.0]}
# (name, fields replaced in BASE_DOC, the field the error must name)
BAD_CONFIGS = [
    # wrong types
    ("gamma-str", {"gamma": "a"}, "gamma"),
    ("horizon-null", {"horizon": None}, "horizon"),
    ("time_nodes-float", {"time_nodes": 2.5}, "time_nodes"),
    ("time_grid-str", {"time_grid": "abc"}, "time_grid"),
    ("phi-strings", {"phi": ["a", "b", "c"]}, "phi"),
    ("k-object", {"k": {}}, "k"),
    ("n-list", {"n": [2.0]}, "n"),
    ("g-str", {"g": "canonical"}, "g"),
    ("f-int", {"f": 3}, "f"),
    ("reservation-str", {"reservation": {"form": "constant", "value": "low"}}, "reservation"),
    ("solver-str", {"solver": "fast"}, "solver"),
    ("solver-flag-str", {"solver": {"force_general_route": "false"}}, "force_general_route"),
    # empty or mismatched arrays
    ("phi-empty", {"phi": []}, "phi"),
    ("g-mismatch", {"g": dict(TABLE, x=[0.0, 1.0])}, "g"),
    ("f-mismatch", {"f": {"form": "tabulated", "x": [0.0, 1.0], "density": [1.0, 1.0, 1.0]}}, "f"),
    ("cost-empty", {"cost_table": {"c": [], "K": [], "marginal": []}}, "cost_table"),
    ("cost-mismatch", {"cost_table": dict(COSTS, c=[0.0, 1.0])}, "cost_table"),
    ("cost-and-n", {"cost_table": COSTS}, "cost_table"),
    # non-finite numbers
    ("phi-inf", {"phi": [1.0, float("inf"), 1.0]}, "phi"),
    ("k-nan", {"k": float("nan")}, "k"),
    ("horizon-inf", {"horizon": float("inf")}, "horizon"),
    ("reservation-inf", {"reservation": {"form": "constant", "value": float("inf")}}, "reservation"),
    ("g-nan", {"g": dict(TABLE, values=[0.0, float("nan"), 1.0])}, "g"),
    # values against the branch: g' > 0 but g decreasing on the industrial branch
    ("g-values-decreasing", {"g": dict(TABLE, values=[1.0, 0.5, 0.0])}, "g"),
    # too few time nodes
    ("time_nodes-1", {"time_nodes": 1}, "time_nodes"),
    ("time_nodes-0", {"time_nodes": 0}, "time_nodes"),
    ("time_nodes-negative", {"time_nodes": -3}, "time_nodes"),
    # a node count next to an explicit grid, which would otherwise be ignored
    ("time_grid-and-time_nodes", {"time_grid": [0.0, 0.25, 1.0], "time_nodes": 9}, "time_nodes"),
    # keys the loader does not read, which would otherwise be ignored
    ("time_node", {"time_node": 129}, "'time_node'"),
    ("solver.c_grid_size", {"solver": {"c_grid_size": 129}}, "'solver.c_grid_size'"),
    ("solver.root_tol", {"solver": {"root_tol": 1e-12}}, "'solver.root_tol'"),
    ("solver.simplified_tariff", {"solver": {"simplified_tariff": False}}, "'solver.simplified_tariff'"),
    ("outputs", {"outputs": {"type_samples": 11}}, "'outputs'"),
    ("reservation.valu", {"reservation": {"form": "constant", "value": 0.05, "valu": 1.0}}, "'reservation.valu'"),
    ("reservation.scale", {"reservation": {"form": "constant", "value": 0.05, "scale": 2.0}}, "'reservation.scale'"),
    ("g.values", {"g": {"form": "canonical", "values": [0.0, 1.0]}}, "'g.values'"),
    ("f.density", {"f": {"form": "uniform", "density": [1.0, 1.0]}}, "'f.density'"),
    ("g.density", {"g": dict(TABLE, density=[1.0, 1.0, 1.0])}, "'g.density'"),
    ("cost_table.form", {"cost_table": dict(COSTS, form="tabulated")}, "'cost_table.form'"),
]


@pytest.mark.parametrize("fields, named", [case[1:] for case in BAD_CONFIGS],
                         ids=[case[0] for case in BAD_CONFIGS])
def test_config_fuzz_exits_2(tmp_path, capsys, fields, named):
    doc = dict(BASE_DOC, **fields)
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "o").exists()


def _residential_taste_table(x):
    """The residential canonical taste g = 1 - x, tabulated on the nodes x."""
    x = np.asarray(x, dtype=float)
    return {"form": "tabulated", "x": x.tolist(), "values": (1.0 - x).tolist(), "derivative": [-1.0] * x.size}


@pytest.mark.parametrize("x", [np.linspace(1.0, 0.0, 257), np.linspace(0.0, 0.5, 129), [0.0, 0.5, 0.5, 1.0]],
                         ids=["decreasing", "half", "repeated"])
def test_tabulated_taste_map_needs_an_increasing_grid_over_the_unit_interval(tmp_path, capsys, x):
    """np.interp reads a table only on an increasing grid and holds its end
    values outside it: a table listed from x = 1 down to 0 used to solve to
    x0 = 0.99988 (0.96394 in increasing order), and one on [0, 0.5] to a
    wrong x0, both with exit 0."""
    doc = json.loads((CONFIG_DIR / "residential_constant_h.json").read_text())
    doc["g"] = _residential_taste_table(x)
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: g: x grid must")
    assert not (tmp_path / "o").exists()


def test_tabulated_taste_map_in_increasing_order_solves(tmp_path):
    doc = json.loads((CONFIG_DIR / "residential_constant_h.json").read_text())
    doc["g"] = _residential_taste_table(np.linspace(0.0, 1.0, 257))
    assert main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["route"] == "general"
    assert abs(report["boundary"]["x0"] - 0.96394) < 1e-5


@pytest.mark.parametrize("nodes", [3, 129])
def test_tabulated_taste_map_certifies_u_convexity(tmp_path, nodes):
    """industrial_constant_h with g = x + 0.1 x (1 - x) on 257 knots: p* is
    convex and nondecreasing in g(x), so it is u-convex. The check through
    the 513-point consumption grid read a gap of 0.1326 here and reported
    the contract as not u-convex, at 3, 33 and 129 nodes."""
    doc = json.loads((CONFIG_DIR / "industrial_constant_h.json").read_text())
    x = np.linspace(0.0, 1.0, 257)
    doc["g"] = {"form": "tabulated", "x": x.tolist(), "values": (x + 0.1 * x * (1.0 - x)).tolist(),
                "derivative": (1.0 + 0.1 * (1.0 - 2.0 * x)).tolist()}
    doc["time_nodes"] = nodes
    assert main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")]) == 0
    conv = json.loads((tmp_path / "o" / "report.json").read_text())["u_convexity"]
    assert conv["is_u_convex"]
    assert conv["violations"] == 0
    assert conv["max_biconjugation_gap"] <= GAP_TOL


def test_tabulated_taste_values_must_run_in_the_branch_direction(tmp_path, capsys):
    """The table of the test above with values x, which increase against
    g' = -1, used to solve to x0 = 0.999875 with exit 0."""
    doc = json.loads((CONFIG_DIR / "residential_constant_h.json").read_text())
    x = np.linspace(0.0, 1.0, 257)
    doc["g"] = dict(_residential_taste_table(x), values=x.tolist())
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: g: g must be decreasing")
    assert not (tmp_path / "o").exists()


def test_readme_schema_names_the_keys_the_loader_accepts():
    """The config schema in README.md lists, at the top level and under
    "solver", exactly the keys load_config reads and does not refuse."""
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    schema = readme.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    top = re.findall(r'^  "(\w+)":', schema, flags=re.MULTILINE)
    solver = re.findall(r'"(\w+)":', re.search(r'"solver": \{([^}]*)\}', schema).group(1))
    assert sorted(top) == sorted(CONFIG_KEYS)
    assert sorted(solver) == sorted(SOLVER_KEYS)


@pytest.mark.parametrize("fields, named", [
    ({"g": TABLE}, "g"),
    ({"f": {"form": "tabulated", "x": [0.0, 1.0], "density": [1.0, 1.0]}}, "f"),
    ({"n": None, "cost_table": COSTS}, "cost_table"),
    ({"solver": {"force_general_route": True}}, "solver.force_general_route"),
], ids=["g", "f", "cost_table", "force_general_route"])
def test_typed_input_outside_the_closed_form_setting_exits_2(tmp_path, capsys, monkeypatch, fields, named):
    """A concave reservation is solved in closed form only: any other cost,
    taste map or type distribution, or a request for the general route, is
    refused before the assumption checks and the pair scan run."""
    from nltariff import solver_typed_h

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran past the setting check")

    monkeypatch.setattr(solver_typed_h, "validate_assumptions", must_not_run)
    monkeypatch.setattr(solver_typed_h, "_evaluate_mesh", must_not_run)
    doc = dict(json.loads((CONFIG_DIR / "industrial_sqrt_h.json").read_text()), **fields)
    doc = {k: v for k, v in doc.items() if v is not None}
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {named}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
