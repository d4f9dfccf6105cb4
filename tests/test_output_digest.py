"""The seed-1 output digest, pinned: every file that the requests of
``tools/output_digest.py`` write keeps its bytes.

A change that moves outputs on purpose regenerates the pinned file in the
same commit, from the root of the checkout:

    { python -c 'import numpy; print("# numpy", numpy.__version__)'
      python tools/output_digest.py .; } > tests/output_digest_seed1.txt

Like the byte pins of ``test_cli.py``, the digest holds for the numpy
version named in its header line.
"""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
