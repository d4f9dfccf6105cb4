"""Scenario runner: config validation, report files, sweeps, exit codes."""
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from nltariff.cli import load_config, main, run_scenario, run_sweep

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
    # flat taste map g = sqrt(x) with H = x^0.6 violates the elasticity condition
    xs = np.linspace(1e-6, 1.0, 2001)
    doc = dict(
        BASE_DOC,
        g={"form": "tabulated", "x": xs.tolist(), "values": np.sqrt(xs).tolist(),
           "derivative": (0.5 / np.sqrt(xs)).tolist()},
        reservation={"form": "concave", "x": xs.tolist(),
                     "values": (xs ** 0.6).tolist(),
                     "derivative": (0.6 * xs ** (-0.4)).tolist()},
    )
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "elasticity" in capsys.readouterr().err


def test_sweep_needs_two_values(tmp_path):
    code = main(["sweep", str(CONFIG_DIR / "industrial_constant_h.json"),
                 "--param", "H_scale", "--values", "1.0", "--out", str(tmp_path / "o")])
    assert code == 2


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
    doc = dict(BASE_DOC, solver={"c_grid_size": 129})
    path = write_config(tmp_path, doc)
    import nltariff.cli as cli_mod
    import nltariff.oracle as oracle_mod

    # shrink the audit so the test stays quick; the full-size run is covered
    # by the acceptance suite
    orig = oracle_mod.oracle_relaxed_maximize_const_h

    def small_oracle(params, **kw):
        return orig(params, type_grid_size=60, slope_grid_size=220,
                    x0_candidates=np.linspace(0.5, 0.7, 5))

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


# the oracle block of `solve --oracle` on the shipped constant-H configs, as
# computed by the full scan over the slope grid before the bisection search
PINNED_ORACLE = {
    "industrial_constant_h": {"value": "0.4320420714361879", "x0": "0.5828125000000001",
                              "relative_gap": "3.90331873039383e-06", "iterations": "12"},
    "residential_constant_h": {"value": "0.0018030376985333555", "x0": "0.9640625",
                               "relative_gap": "0.00012521308585865728", "iterations": "15"},
}


@pytest.mark.parametrize("family", sorted(PINNED_ORACLE))
def test_oracle_block_is_pinned(tmp_path, family):
    out = tmp_path / "o"
    assert main(["solve", str(CONFIG_DIR / f"{family}.json"), "--oracle", "--out", str(out)]) == 0
    block = json.loads((out / "report.json").read_text())["oracle"]
    assert {k: repr(v) for k, v in block.items()} == PINNED_ORACLE[family]


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
    # non-finite numbers
    ("phi-inf", {"phi": [1.0, float("inf"), 1.0]}, "phi"),
    ("k-nan", {"k": float("nan")}, "k"),
    ("horizon-inf", {"horizon": float("inf")}, "horizon"),
    ("reservation-inf", {"reservation": {"form": "constant", "value": float("inf")}}, "reservation"),
    ("g-nan", {"g": dict(TABLE, values=[0.0, float("nan"), 1.0])}, "g"),
    # too few time nodes
    ("time_nodes-1", {"time_nodes": 1}, "time_nodes"),
    ("time_nodes-0", {"time_nodes": 0}, "time_nodes"),
    ("time_nodes-negative", {"time_nodes": -3}, "time_nodes"),
]


@pytest.mark.parametrize("fields, named", [case[1:] for case in BAD_CONFIGS],
                         ids=[case[0] for case in BAD_CONFIGS])
def test_config_fuzz_exits_2(tmp_path, capsys, fields, named):
    doc = dict(BASE_DOC, **fields)
    code = main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error:") and named in err
