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
import sys
from pathlib import Path

import numpy as np
import pytest

from nltariff import cli
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("output_digest_seed1.txt")


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """One in-process pass over the digest's requests, through the function
    the tool prints: the digest lines and the folder the requests wrote."""
    scratch = tmp_path_factory.mktemp("digest")
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return list(tool.digest_lines(ROOT, cli, workloads, [tool.DEFAULT_SEED], scratch)), scratch


def test_every_digest_report_is_strict_json(digest_run):
    """report.json is strict JSON on every request of the digest: a
    non-finite number is written as null, never as NaN or Infinity."""
    _, scratch = digest_run

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    reports = sorted((scratch / "out").glob("*/report.json"))
    for path in reports:
        json.loads(path.read_text(), parse_constant=refuse)
    assert len(reports) == 52


def test_output_digest_is_pinned(digest_run):
    """The digest lines equal the pinned ones."""
    digest, _ = digest_run
    header, *pinned = PINNED.read_text().splitlines()
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


def test_output_moves_records_a_raising_request(tmp_path, monkeypatch):
    """A request that raises is recorded as its outcome, so the comparison
    of a checkout that crashes on it with one that does not still runs."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_moves", ROOT / "tools" / "output_moves.py")
    moves = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(moves)

    def stub_main(argv):
        return 1 / 0 if argv[0] == "boom" else 0

    stubs = [("ok", ["ok"]), ("boom", ["boom"])]
    monkeypatch.setattr(moves, "_requests", lambda root, workloads, seeds, scratch: stubs)
    monkeypatch.setattr(cli, "main", stub_main)
    old, new = tmp_path / "old", tmp_path / "new"
    new.mkdir()
    moves._run(ROOT, new, [1])
    assert json.loads((new / moves.CODES).read_text()) == {"ok": 0, "boom": "raised: ZeroDivisionError"}
    old.mkdir()
    (old / moves.CODES).write_text(json.dumps({"ok": 0, "boom": 0}))
    assert moves.compare(old, new)[3] == ["boom: exit code 0 -> raised: ZeroDivisionError"]
