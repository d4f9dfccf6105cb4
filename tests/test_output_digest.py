"""The seed-1 output digest, pinned: every file that the requests of
``tools/output_digest.py`` write keeps its bytes.

A change that moves outputs on purpose regenerates the pinned file in the
same commit, from the root of the checkout:

    { python -c 'import numpy; print("# numpy", numpy.__version__)'
      python tools/output_digest.py .; } > tests/output_digest_seed1.txt

Like the byte pins of ``test_cli.py``, the digest holds for the numpy
version named in its header line.
"""
import importlib.util
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nltariff.cli import main
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("output_digest_seed1.txt")


def test_output_digest_is_pinned():
    header, *pinned = PINNED.read_text().splitlines()
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), str(ROOT)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    digest = run.stdout.splitlines()
    if digest == pinned:
        return
    differs = [i for i, (new, old) in enumerate(zip(digest, pinned)) if new != old]
    where = differs[0] if differs else min(len(digest), len(pinned))
    old = pinned[where] if where < len(pinned) else "(none)"
    new = digest[where] if where < len(digest) else "(none)"
    request = (new if old == "(none)" else old).split("/", 1)[0]
    message = (f"the outputs moved: request {request!r} is the first that differs "
               f"(line {where + 2} of {PINNED.name}: pinned {old!r}, now {new!r}; "
               f"{len(pinned)} lines pinned, {len(digest)} now). "
               f"tools/output_moves.py OLD NEW shows what moved between two checkouts")
    pinned_numpy = header.rsplit(" ", 1)[-1]
    if pinned_numpy != np.__version__:
        message = f"numpy is {np.__version__} here but the digest was pinned under numpy {pinned_numpy}; " + message
    pytest.fail(message)


def test_every_digest_report_is_strict_json(tmp_path):
    """report.json is strict JSON on every request of the digest: a
    non-finite number is written as null, never as NaN or Infinity."""
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    reports = 0
    for name, request in digest._requests(ROOT, workloads, [digest.DEFAULT_SEED], tmp_path):
        out = tmp_path / "out" / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            main(request + ["--out", str(out)])
        if (out / "report.json").exists():
            json.loads((out / "report.json").read_text(), parse_constant=refuse)
            reports += 1
    assert reports == 44
