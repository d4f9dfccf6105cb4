"""Largest move of each output quantity between two checkouts.

Usage: python tools/output_moves.py OLD_CHECKOUT NEW_CHECKOUT [--seeds 1,2,...]

Runs the request set of ``output_digest.py`` (same seeds, same default)
once per checkout, each in its own process that imports that checkout's
``src/nltariff`` and ``perfbench``, and compares the files they write.

A quantity is a report.json key path, list positions dropped
(``report.json:tariff.segments.p1_t0``), or a CSV column
(``tariff.csv:price``). For every quantity that moved, one line gives how
many values moved, the largest relative move |new - old| / max(|old|, |new|)
with the request where it occurs, and the largest absolute move. Text that
changed, values that appear on one side only and changed exit codes (a
request that raised reads ``raised: <exception type>``) are listed after
the table. The first line counts the output files whose bytes differ,
which are the lines ``output_digest.py`` would show as changed.
"""
import argparse
import csv
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from output_digest import DEFAULT_SEED, _requests, _seed_list

CODES = "exit_codes.json"


def _run(root, out, seeds):
    """Write the outputs of every request of the checkout ``root`` under
    ``out``, one directory per request, and their outcomes to CODES: the
    exit code, or ``"raised: <exception type>"`` for a request that raised,
    so that a checkout that crashes on a request can still be compared."""
    sys.path[:0] = [str(root / "src"), str(root)]
    from nltariff import cli
    from perfbench import workloads

    codes = {}
    for name, request in _requests(root, workloads, seeds, out / "_scratch"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                codes[name] = cli.main(request + ["--out", str(out / name)])
            except Exception as exc:
                codes[name] = f"raised: {type(exc).__name__}"
    (out / CODES).write_text(json.dumps(codes))


def _leaves(doc, full="", quantity=""):
    """(full path, quantity, value) of every leaf of a JSON document; the
    quantity is the full path without its list positions."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _leaves(val, f"{full}.{key}", f"{quantity}.{key}" if quantity else key)
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield from _leaves(val, f"{full}[{i}]", quantity)
    else:
        yield full, quantity, doc


def _cells(path):
    """{(row, column): (quantity, text)} of one output file."""
    if path.suffix == ".json":
        return {full: (f"{path.name}:{q}", v) for full, q, v in _leaves(json.loads(path.read_text()))}
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return {(i, col): (f"{path.name}:{col}", cell)
            for i, row in enumerate(rows[1:]) for col, cell in zip(header, row)}


def _number(value):
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _move(old, new):
    """(relative, absolute) move between two numbers; None when equal."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return None
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf, math.inf
    diff = abs(new - old)
    return diff / max(abs(old), abs(new)), diff


def compare(old_dir, new_dir):
    """(files differing, files in all, {quantity: [count, rel, request, abs]},
    [other differences])."""
    moves, other = {}, []
    old_codes = json.loads((old_dir / CODES).read_text())
    new_codes = json.loads((new_dir / CODES).read_text())
    differing = total = 0
    for request in sorted(set(old_codes) | set(new_codes)):
        if old_codes.get(request) != new_codes.get(request):
            other.append(f"{request}: exit code {old_codes.get(request)} -> {new_codes.get(request)}")
        names = set()
        for side in (old_dir, new_dir):
            if (side / request).is_dir():
                names.update(p.name for p in (side / request).iterdir())
        for name in sorted(names):
            total += 1
            old_path, new_path = old_dir / request / name, new_dir / request / name
            if not (old_path.exists() and new_path.exists()):
                differing += 1
                other.append(f"{request}/{name}: only in {'new' if new_path.exists() else 'old'}")
                continue
            if old_path.read_bytes() == new_path.read_bytes():
                continue
            differing += 1
            old_cells, new_cells = _cells(old_path), _cells(new_path)
            for key in sorted(set(old_cells) | set(new_cells), key=str):
                if key not in old_cells or key not in new_cells:
                    quantity = (old_cells.get(key) or new_cells.get(key))[0]
                    other.append(f"{request}/{name}: {quantity} at {key} only in "
                                 f"{'new' if key in new_cells else 'old'}")
                    continue
                quantity, old_val = old_cells[key]
                new_val = new_cells[key][1]
                a, b = _number(old_val), _number(new_val)
                if a is None or b is None:
                    if old_val != new_val:
                        other.append(f"{request}/{name}: {quantity} {old_val!r} -> {new_val!r}")
                    continue
                move = _move(a, b)
                if move is None:
                    continue
                entry = moves.setdefault(quantity, [0, 0.0, "", 0.0])
                entry[0] += 1
                if move[0] > entry[1] or not entry[2]:
                    entry[1], entry[2] = move[0], request
                entry[3] = max(entry[3], move[1])
    return differing, total, moves, other


def main(argv):
    if argv[:1] == ["--run"]:
        _run(Path(argv[1]), Path(argv[2]), _seed_list(argv[3]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="root of the checkout before the change")
    ap.add_argument("new", help="root of the checkout after the change")
    ap.add_argument("--seeds", type=_seed_list, default=[DEFAULT_SEED],
                    help="comma-separated workload seeds (default 1)")
    args = ap.parse_args(argv)
    seeds = ",".join(map(str, args.seeds))
    roots = (args.old, args.new)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "old", Path(tmp) / "new"]
        logs = [Path(tmp) / "old.err", Path(tmp) / "new.err"]
        procs = []
        for root, out, log in zip(roots, outs, logs):
            with log.open("w") as fh:
                procs.append(subprocess.Popen([sys.executable, __file__, "--run", str(Path(root).resolve()),
                                               str(out), seeds], stdout=subprocess.DEVNULL, stderr=fh))
        codes = [proc.wait() for proc in procs]
        for root, code, log in zip(roots, codes, logs):
            if code != 0:
                print(f"the requests of {root} failed:\n{log.read_text()[-4000:]}", file=sys.stderr)
                return 1
        differing, total, moves, other = compare(*outs)
    print(f"{differing} of {total} output files differ")
    if moves:
        width = max(len(q) for q in moves)
        print(f"{'quantity':<{width}}  {'moved':>6}  {'max_rel':>9}  {'max_abs':>9}  request of max_rel")
        for quantity, (count, rel, request, absolute) in sorted(moves.items()):
            print(f"{quantity:<{width}}  {count:>6}  {rel:9.2e}  {absolute:9.2e}  {request}")
    for line in other:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
