"""Incentive-compatibility probe of the emitted tariffs.

Usage: python tools/ic_probe.py SRC_DIR [--seeds 1,2,...] [--match TEXT] [--typed] [--coarse]
       python tools/ic_probe.py SRC_DIR --config FILE [--time-nodes N] [--coarse]

SRC_DIR is the root of a checkout; its ``src/nltariff``, ``perfbench`` and
``tests/referee.py`` are imported. Without ``--config`` the requests are
the solve requests of the ``output_digest.py`` set (same seeds, same
default), ``--oracle`` dropped and repeats skipped; ``--match`` keeps the
names that contain TEXT and ``--typed`` the concave reservations.

Each request is solved in process. At every time node each of 801 types
picks its best response to the emitted tariff (``referee.best_responses``,
golden-polished) on ``linspace(1e-6, 20, 20001)`` joined with
``geomspace(1e-6, 20, 4001)`` (8001 and 2001 points with ``--coarse``),
and the values are integrated over time by the trapezoid. One line per
request gives:
- ``served_gain``: the largest value minus ``P*(x)`` over the served types;
- ``excluded_excess``: the largest value minus ``H(x)`` over the excluded
  types more than 1e-8 from every participation interval end (``-`` when
  there are none);
- ``p_scale``: ``max(1, max |p*|)`` over the types and time nodes, the
  scale of a relative gate on ``served_gain``.

A request that the loader or the solver refuses prints its error instead.
"""
import argparse
import json
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from output_digest import DEFAULT_SEED, _requests, _seed_list

TYPES = 801
C_MAX = 20.0
GRIDS = {False: (20001, 4001), True: (8001, 2001)}
END_MARGIN = 1e-8
TYPE_CHUNK = 64


def probe(config, cli, referee, coarse=False):
    """(served_gain, excluded_excess or None, p_scale) of the tariff that
    ``cli._solve`` emits for ``config``."""
    from nltariff.agent import participation_set
    from nltariff.numerics import trapezoid

    params = config.params
    tariff, p_star, _, _ = cli._solve(config)
    n_lin, n_geo = GRIDS[coarse]
    c_grid = np.union1d(np.linspace(1e-6, C_MAX, n_lin), np.geomspace(1e-6, C_MAX, n_geo))
    xs = np.linspace(0.0, 1.0, TYPES)
    values = np.empty((params.time_grid.size, TYPES))
    for i in range(params.time_grid.size):
        for lo in range(0, TYPES, TYPE_CHUNK):
            chunk = xs[lo:lo + TYPE_CHUNK]
            values[i, lo:lo + TYPE_CHUNK] = referee.best_responses(tariff, i, chunk, c_grid, params, refine=True)[1]
    achieved = trapezoid(values.T, params.time_grid)

    part = participation_set(p_star, params)
    served = part.contains(xs)
    p_vals = p_star.values(xs)
    p_scale = max(1.0, float(np.max(np.abs(p_vals[np.isfinite(p_vals)]))))
    gain = achieved - p_star.P_star(xs)
    served_gain = float(np.max(gain[served])) if served.any() else float("-inf")
    ends = np.array([end for interval in part.intervals for end in interval])
    far = ~served
    if ends.size:
        far &= np.min(np.abs(xs[:, None] - ends[None, :]), axis=1) > END_MARGIN
    excess = achieved[far] - params.reservation(xs[far])
    excluded = float(np.max(excess)) if excess.size else None
    return served_gain, excluded, p_scale


def _solve_requests(root, seeds, scratch, match, typed, cli, workloads):
    """(name, config, full_tariff) of every distinct solve request."""
    seen = set()
    for name, argv in _requests(root, workloads, seeds, scratch):
        if argv[0] != "solve" or (match and match not in name):
            continue
        flags = tuple(sorted(set(argv[2:]) - {"--oracle"}))
        if (argv[1], flags) in seen:
            continue
        seen.add((argv[1], flags))
        try:
            config = cli.load_config(argv[1])
        except Exception as exc:
            yield name, exc, False
            continue
        if typed and config.params.reservation.kind == "constant":
            continue
        yield name, config, "--full-tariff" in flags


def _line(name, result):
    if isinstance(result, Exception):
        return f"{name} error: {type(result).__name__}: {result}"
    served, excluded, scale = result
    excluded_text = "-" if excluded is None else f"{excluded:.3e}"
    return f"{name} served_gain={served:.3e} excluded_excess={excluded_text} p_scale={scale:.6g}"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_dir", help="root of the checkout to probe")
    ap.add_argument("--seeds", type=_seed_list, default=[DEFAULT_SEED],
                    help="comma-separated workload seeds (default 1)")
    ap.add_argument("--match", default="", help="keep the requests whose name contains this text")
    ap.add_argument("--typed", action="store_true", help="keep the concave-reservation requests only")
    ap.add_argument("--config", help="probe this config file instead of the request set")
    ap.add_argument("--time-nodes", type=int, help="with --config: override its time_nodes")
    ap.add_argument("--coarse", action="store_true", help="8001 + 2001 consumption points")
    args = ap.parse_args(argv)
    root = Path(args.src_dir).resolve()
    sys.path[:0] = [str(root / "src"), str(root), str(root / "tests")]
    import referee
    from nltariff import cli
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.config:
            path = Path(args.config)
            if args.time_nodes:
                path = Path(tmp) / path.name
                path.write_text(json.dumps(dict(json.loads(Path(args.config).read_text()),
                                                time_nodes=args.time_nodes)))
            requests = [(f"{Path(args.config).stem}@{args.time_nodes or 'config'}",
                         cli.load_config(path), False)]
        else:
            requests = _solve_requests(root, args.seeds, Path(tmp), args.match, args.typed, cli, workloads)
        for name, config, full in requests:
            if isinstance(config, Exception):
                print(_line(name, config), flush=True)
                continue
            try:
                result = probe(replace(config, simplified_tariff=False) if full else config, cli, referee,
                               args.coarse)
            except Exception as exc:
                result = exc
            print(_line(name, result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
