"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload coarse_mix --seed 1 --seconds 30 --trace 0

Prints the result as one JSON object on the last line of standard output.
Exits with code 2 when the checkout holds no nltariff sources.
"""
import argparse
import json
import os
import sys
from pathlib import Path

# numpy's thread pools are held to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import FAMILIES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    required = ["src/nltariff/cli.py"] + [f"configs/{f}.json" for f in FAMILIES]
    missing = [p for p in required if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a nltariff checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import bench

    result = bench.run(args.workload, args.seed, args.seconds, args.trace, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
