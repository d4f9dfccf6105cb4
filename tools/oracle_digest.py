"""Digest of every field of the constant-H oracle's result on a fixed set of configs.

Usage: python tools/oracle_digest.py SRC_DIR [--seeds 1,2,...] > digest.txt

SRC_DIR is the root of a checkout; its ``src/nltariff`` and ``perfbench``
are imported. The configs are the shipped constant-H configs, then for each
seed: the constant-H configs of the ``oracle_audit`` workload, each
constant-H family on seeded 9- and 33-node profiles, and its cost-table,
tabulated-g and tabulated-f variants at 3 nodes (default seed 1: 14
configs). ``oracle_relaxed_maximize_const_h`` runs at the CLI's grid sizes,
and each config gets one line

    name value x0 iterations x0_values slopes x_nodes aggregate

with the sha256 of each field (scalars and lists by their pickle, arrays
by their dtype, shape and bytes), so two checkouts' oracles are bitwise
equal exactly when ``diff`` of their digests is empty.
"""
import argparse
import hashlib
import json
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

FAMILIES = ("industrial_constant_h", "residential_constant_h")
VARIANTS = ("cost_table", "tabulated_g", "tabulated_f")
DEFAULT_SEED = 1


def _configs(root, workloads, seeds):
    """(name, config document) of every config."""
    docs = [(f"shipped-{fam}", json.loads((root / "configs" / f"{fam}.json").read_text())) for fam in FAMILIES]
    for seed in seeds:
        docs += [(f"oracle_audit@{seed}-{i:02d}-{req.name}", req.config)
                 for i, req in enumerate(workloads.build("oracle_audit", root, seed)) if req.kind == "const"]
        rng = np.random.default_rng([seed, 19])
        for fam in FAMILIES:
            base = json.loads((root / "configs" / f"{fam}.json").read_text())
            for nodes in (9, 33):
                docs.append((f"profile@{seed}-{fam}-{nodes}", workloads._scenario(base, rng, nodes)))
            for variant in VARIANTS:
                doc = workloads._scenario(base, rng, 3)
                getattr(workloads, f"_{variant}")(doc)
                docs.append((f"{variant}@{seed}-{fam}", doc))
    return docs


def _digest(value):
    if isinstance(value, np.ndarray):
        data = pickle.dumps((value.dtype.str, value.shape, np.ascontiguousarray(value).tobytes()))
    else:
        data = pickle.dumps(value)
    return hashlib.sha256(data).hexdigest()


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
    from nltariff.cli import load_config
    from nltariff.oracle import oracle_relaxed_maximize_const_h
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _configs(root, workloads, args.seeds):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            res = oracle_relaxed_maximize_const_h(load_config(path).params)
            fields = (res.value, res.x0, res.iterations, res.x0_values, res.slopes, res.x_nodes, res.aggregate)
            print(name, *(_digest(value) for value in fields))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
