"""Self-tests of the benchmark: every output check rejects a corrupted
output, every workload runs at smoke size, and a directory without the
nltariff sources makes the runner fail.

    python -m pytest perfbench
"""
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nltariff import cli  # noqa: E402

from perfbench import bench, checks, workloads  # noqa: E402


def _request(family, nodes=3, oracle=False, sweep=None, seed=7):
    """A seeded request of one family, as the workloads build it."""
    rng = np.random.default_rng(seed)
    doc = workloads._scenario(workloads._load_family(ROOT, family), rng, nodes)
    if sweep:
        return workloads._sweep(f"sweep-{family}", doc, sweep)
    return workloads._solve(f"solve-{family}", doc, oracle=oracle)


def _run(req, tmp_path):
    workloads.write_configs([req], tmp_path / "configs")
    out = tmp_path / "out"
    assert cli.main(req.argv + ["--out", str(out)]) == 0
    return out


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_report(out, edit):
    path = out / "report.json"
    rep = json.loads(path.read_text())
    edit(rep)
    path.write_text(json.dumps(rep))


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Pristine outputs of a constant-H and a typed solve, the typed one
    with its oracle."""
    outs = {}
    for family, oracle in (("industrial_constant_h", False), ("residential_log_h", True)):
        req = _request(family, oracle=oracle)
        tmp = tmp_path_factory.mktemp(family)
        outs[family] = (req, _run(req, tmp))
    return outs


def _copy(solved, family, tmp_path):
    req, out = solved[family]
    dest = tmp_path / "copy"
    shutil.copytree(out, dest)
    return req, dest


@pytest.mark.parametrize("family", ["industrial_constant_h", "residential_log_h"])
def test_pristine_outputs_pass(solved, family):
    req, out = solved[family]
    assert checks.check_request(req, out) == []


def test_lowered_tariff_price_is_rejected(solved, tmp_path):
    req, out = _copy(solved, "industrial_constant_h", tmp_path)

    def lower(header, rows):
        col = header.index("price")
        row = rows[len(rows) // 6]          # inside the first time node's samples
        row[col] = repr(float(row[col]) - 0.5)
    _edit_csv(out / "tariff.csv", lower)
    prim, outputs = checks.Primitives(req.config), checks.load_solve_outputs(out)
    assert checks.check_tariff_nondecreasing(prim, outputs)
    assert checks.check_incentive_compatibility(prim, outputs, checks._c_max(req.config))


def test_moved_consumption_is_rejected(solved, tmp_path):
    req, out = _copy(solved, "industrial_constant_h", tmp_path)

    def move(header, rows):
        col = header.index("c_star")
        row = rows[190]                      # a served type at t = 0
        row[col] = repr(1.5 * float(row[col]))
    _edit_csv(out / "consumption.csv", move)
    prim, outputs = checks.Primitives(req.config), checks.load_solve_outputs(out)
    assert checks.check_incentive_compatibility(prim, outputs, checks._c_max(req.config))


def test_flipped_participation_is_rejected(solved, tmp_path):
    req, out = _copy(solved, "residential_log_h", tmp_path)

    def flip(header, rows):
        rows[10][header.index("participates")] = "0"   # x = 0.05, deep in [0, b0]
    _edit_csv(out / "indirect_utility.csv", flip)
    assert checks.check_individual_rationality(checks.Primitives(req.config), checks.load_solve_outputs(out))


@pytest.mark.parametrize("family", ["industrial_constant_h", "residential_log_h"])
def test_nudged_principal_utility_is_rejected(solved, tmp_path, family):
    req, out = _copy(solved, family, tmp_path)

    def nudge(rep):
        rep["principal_utility"] *= 1.01
    _edit_report(out, nudge)
    assert checks.check_profit(checks.Primitives(req.config), checks.load_solve_outputs(out))


def test_moved_threshold_is_rejected(solved, tmp_path):
    req, out = _copy(solved, "industrial_constant_h", tmp_path)

    def move(rep):
        rep["boundary"]["x0"] += 0.01
    _edit_report(out, move)
    assert any(f.startswith("maximizer") for f in checks.check_solve(req, out))


def test_oracle_disagreement_is_rejected(solved, tmp_path):
    req, out = _copy(solved, "residential_log_h", tmp_path)

    def nudge(rep):
        rep["oracle"]["value"] *= 1.01
    _edit_report(out, nudge)
    assert checks.check_oracle(checks.load_solve_outputs(out))


@pytest.mark.parametrize("family,param", [("industrial_constant_h", "H_scale"),
                                          ("residential_constant_h", "H_scale"),
                                          ("industrial_sqrt_h", "k_scale")])
def test_sweep_checks(tmp_path, family, param):
    req = _request(family, sweep=param)
    out = _run(req, tmp_path)
    assert checks.check_sweep(req, out) == []

    def swap(header, rows):
        col = header.index("U_P")
        rows[0][col], rows[-1][col] = rows[-1][col], rows[0][col]
    _edit_csv(out / "sweep.csv", swap)
    assert any(f.startswith("sweep") for f in checks.check_sweep(req, out))


def test_moved_sweep_threshold_is_rejected(tmp_path):
    req = _request("residential_constant_h", sweep="k_scale")
    out = _run(req, tmp_path)

    def move(header, rows):
        col = header.index("x0")
        rows[2][col] = repr(float(rows[2][col]) - 0.01)
    _edit_csv(out / "sweep.csv", move)
    assert any(f.startswith("maximizer") for f in checks.check_sweep(req, out))


def _benchmark_doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(workload):
    result = bench.run(workload, seed=3, seconds=0, trace=0, root=ROOT, smoke=True)
    assert result["correct"] and result["attempted"] >= 1
    # the H_scale sweep on residential_log_h is the one known failure
    assert result["failed"] == (1 if workload == "coarse_mix" else 0)
    names = {m["name"] for m in _benchmark_doc()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer():
    result = bench.run("coarse_mix", seed=3, seconds=0, trace=1, root=ROOT, smoke=True)
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_doc()["per_layer"]}
    assert result["metrics"]["solver_typed_h.pairs_checked"]["value"] > 0
    assert result["metrics"]["uconvex.check_s"]["value"] > 0


def test_same_seed_same_requests():
    a = workloads.build("coarse_mix", ROOT, 11)
    b = workloads.build("coarse_mix", ROOT, 11)
    c = workloads.build("coarse_mix", ROOT, 12)
    assert [r.config for r in a] == [r.config for r in b]
    assert [r.config for r in a] != [r.config for r in c]


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coarse_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

