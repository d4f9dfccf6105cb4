"""Digest of every output file written by a fixed set of nltariff requests.

Usage: python tools/output_digest.py SRC_DIR > digest.txt

SRC_DIR is the root of a checkout; its ``src/nltariff`` and ``perfbench``
are imported. The 58 requests are the four shipped configs solved plain,
with ``--oracle`` and with ``--full-tariff``, their ``H_scale`` and
``k_scale`` sweeps, and the seed-1 requests of the ``coarse_mix``,
``fine_grid`` and ``oracle_audit`` benchmark workloads. Each output file gets
one line ``request/file exit_code n_warnings sha256`` (a request that wrote
nothing gets one line with ``-`` as its file and hash), so two checkouts
give byte-identical outputs exactly when ``diff`` of their digests is
empty, up to the warning counts.
"""
import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

SWEEP_VALUES = "0.5,0.75,1.0,1.25,1.5"
FAMILIES = ("industrial_constant_h", "industrial_sqrt_h", "residential_constant_h", "residential_log_h")
WORKLOAD_SEED = 1


def _requests(root, workloads, scratch):
    """(name, argv without --out) of every request, configs written to scratch."""
    reqs = []
    for fam in FAMILIES:
        cfg = str(root / "configs" / f"{fam}.json")
        for variant, flags in (("plain", []), ("oracle", ["--oracle"]), ("full", ["--full-tariff"])):
            reqs.append((f"shipped-{fam}-{variant}", ["solve", cfg] + flags))
        for param in ("H_scale", "k_scale"):
            argv = ["sweep", cfg, "--param", param, "--values", SWEEP_VALUES]
            reqs.append((f"shipped-{fam}-{param}", argv))
    for name in workloads.WORKLOADS:
        stream = workloads.build(name, root, WORKLOAD_SEED)
        workloads.write_configs(stream, scratch / "configs" / name)
        reqs.extend((f"{name}-{i:02d}-{req.name}", list(req.argv)) for i, req in enumerate(stream))
    return reqs


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from nltariff import cli
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for name, args in _requests(root, workloads, scratch):
            out = scratch / "out" / name
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(args + ["--out", str(out)])
            files = sorted(out.iterdir()) if out.is_dir() else []
            for path in files:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{name}/{path.name} {code} {len(caught)} {digest}")
            if not files:
                print(f"{name}/- {code} {len(caught)} -")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
