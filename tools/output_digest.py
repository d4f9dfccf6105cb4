"""Digest of every output file written by a fixed set of nltariff requests.

Usage: python tools/output_digest.py SRC_DIR [--seeds 1,2,...] > digest.txt

SRC_DIR is the root of a checkout; its ``src/nltariff`` and ``perfbench``
are imported. The requests are the four shipped configs solved plain,
with ``--oracle`` and with ``--full-tariff``, their ``H_scale`` and
``k_scale`` sweeps, the two constant-H configs solved on the forced
general route (``solver.force_general_route``), ``industrial_sqrt_h`` at
``phi = 0.003`` (the typed empty contract) solved plain and with
``--oracle``, the ``cost_table``, ``tabulated_g`` and ``tabulated_f``
variants of ``industrial_constant_h`` (built as the benchmark builds them)
solved plain and with ``--oracle``, the ``cost_table`` variants of both
constant-H configs with a reservation that leaves the general route's
contract empty (``industrial_constant_h`` at ``H = 50``,
``residential_constant_h`` at ``H = -1e-4``) solved plain, and the
requests of the ``coarse_mix``, ``fine_grid`` and ``oracle_audit``
benchmark workloads for each of the given seeds (default 1: 70 requests in
all).
Requests of a seed other than 1 are named ``workload@seed-...``, so the
default digest reads as it always has. Each output file gets one line
``request/file exit_code n_warnings sha256`` (a request that wrote nothing
gets one line with ``-`` as its file and hash), so two checkouts give
byte-identical outputs exactly when ``diff`` of their digests is empty,
up to the warning counts.
"""
import argparse
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

SWEEP_VALUES = "0.5,0.75,1.0,1.25,1.5"
FAMILIES = ("industrial_constant_h", "industrial_sqrt_h", "residential_constant_h", "residential_log_h")
DEFAULT_SEED = 1


def _requests(root, workloads, seeds, scratch):
    """(name, argv without --out) of every request, configs written to scratch."""
    reqs = []
    for fam in FAMILIES:
        cfg = str(root / "configs" / f"{fam}.json")
        for variant, flags in (("plain", []), ("oracle", ["--oracle"]), ("full", ["--full-tariff"])):
            reqs.append((f"shipped-{fam}-{variant}", ["solve", cfg] + flags))
        for param in ("H_scale", "k_scale"):
            argv = ["sweep", cfg, "--param", param, "--values", SWEEP_VALUES]
            reqs.append((f"shipped-{fam}-{param}", argv))
    (scratch / "configs").mkdir(parents=True, exist_ok=True)
    for fam in ("industrial_constant_h", "residential_constant_h"):
        doc = json.loads((root / "configs" / f"{fam}.json").read_text())
        cfg = scratch / "configs" / f"{fam}-forced.json"
        cfg.write_text(json.dumps(dict(doc, solver={"force_general_route": True})))
        reqs.append((f"shipped-{fam}-forced", ["solve", str(cfg)]))
    # a taste scale this low leaves the typed contract empty: (a0, b0) = (1, 0)
    doc = json.loads((root / "configs" / "industrial_sqrt_h.json").read_text())
    cfg = scratch / "configs" / "industrial_sqrt_h-empty.json"
    cfg.write_text(json.dumps(dict(doc, phi=0.003)))
    for variant, flags in (("plain", []), ("oracle", ["--oracle"])):
        reqs.append((f"shipped-industrial_sqrt_h-empty-{variant}", ["solve", str(cfg)] + flags))
    # the industrial general route on each tabulated input, which coarse_mix leaves out
    for label, tabulate in (("cost_table", workloads._cost_table), ("tabulated_g", workloads._tabulated_g),
                            ("tabulated_f", workloads._tabulated_f)):
        doc = json.loads((root / "configs" / "industrial_constant_h.json").read_text())
        tabulate(doc)
        cfg = scratch / "configs" / f"industrial_constant_h-{label}.json"
        cfg.write_text(json.dumps(doc))
        for variant, flags in (("plain", []), ("oracle", ["--oracle"])):
            reqs.append((f"shipped-industrial_constant_h-{label}-{variant}", ["solve", str(cfg)] + flags))
    # a reservation out of reach leaves the general route's contract empty
    for fam, value in (("industrial_constant_h", 50.0), ("residential_constant_h", -1e-4)):
        doc = json.loads((root / "configs" / f"{fam}.json").read_text())
        workloads._cost_table(doc)
        doc["reservation"]["value"] = value
        cfg = scratch / "configs" / f"{fam}-cost_table-empty.json"
        cfg.write_text(json.dumps(doc))
        reqs.append((f"shipped-{fam}-cost_table-empty", ["solve", str(cfg)]))
    for seed in seeds:
        for name in workloads.WORKLOADS:
            label = name if seed == DEFAULT_SEED else f"{name}@{seed}"
            stream = workloads.build(name, root, seed)
            workloads.write_configs(stream, scratch / "configs" / label)
            reqs.extend((f"{label}-{i:02d}-{req.name}", list(req.argv)) for i, req in enumerate(stream))
    return reqs


def digest_lines(root, cli, workloads, seeds, scratch):
    """The digest's lines, request by request: each request runs through
    ``cli.main`` and writes under ``scratch/out/<request name>``, where its
    files stay."""
    for name, request in _requests(root, workloads, seeds, scratch):
        out = scratch / "out" / name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(request + ["--out", str(out)])
        files = sorted(out.iterdir()) if out.is_dir() else []
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            yield f"{name}/{path.name} {code} {len(caught)} {digest}"
        if not files:
            yield f"{name}/- {code} {len(caught)} -"


def _seed_list(text):
    return [int(seed) for seed in text.split(",")]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_dir", help="root of the checkout to digest")
    ap.add_argument("--seeds", type=_seed_list, default=[DEFAULT_SEED],
                    help="comma-separated workload seeds (default 1)")
    args = ap.parse_args(argv)
    root = Path(args.src_dir).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from nltariff import cli
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_lines(root, cli, workloads, args.seeds, Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
