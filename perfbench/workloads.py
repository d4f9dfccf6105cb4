"""Request streams of the three workloads, generated from a seed.

Every request is a ``nltariff`` CLI call on a JSON config written by the
benchmark. The configs start from the four shipped families in
``configs/``; the seed sets the time profiles ``phi(t)`` and ``k(t)`` and
the outside-option scale of each request. The same seed gives the same
configs, and every round of a run repeats the same request list.
"""
import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = (
    "industrial_constant_h",
    "industrial_sqrt_h",
    "residential_constant_h",
    "residential_log_h",
)
SWEEP_VALUES = "0.5,0.75,1.0,1.25,1.5"


@dataclass
class Request:
    """One CLI call: ``argv`` without ``--out``, plus what the checks need."""

    name: str
    kind: str               # "const" | "typed": the outside option of the config
    argv: list
    config: dict            # the generated config, as written to disk
    sweep: str | None = None
    oracle: bool = False
    expect_exit: int = 0    # nonzero for a request that fails by a known fault


def _load_family(root, family):
    return json.loads((Path(root) / "configs" / f"{family}.json").read_text())


def _profiles(rng, nodes):
    """Smooth positive phi(t), k(t) on a uniform grid over [0, 1]."""
    t = np.linspace(0.0, 1.0, nodes)
    a_phi, a_k = rng.uniform(0.05, 0.35, size=2)
    s_phi, s_k = rng.uniform(0.0, 2.0 * np.pi, size=2)
    k_level = float(np.exp(rng.uniform(np.log(0.6), np.log(1.6))))
    phi = 1.0 + a_phi * np.sin(2.0 * np.pi * t + s_phi)
    k = k_level * (1.0 + a_k * np.cos(2.0 * np.pi * t + s_k))
    return phi.tolist(), k.tolist()


def _scenario(base, rng, nodes):
    """The family config with seeded profiles and a seeded outside-option scale."""
    doc = copy.deepcopy(base)
    doc["time_nodes"] = nodes
    doc["phi"], doc["k"] = _profiles(rng, nodes)
    scale = float(rng.uniform(0.8, 1.25))
    res = doc["reservation"]
    if res["form"] == "constant":
        res["value"] = res["value"] * scale
    else:
        # a positive scale keeps the table concave, monotone and the
        # elasticity ratio H/H' unchanged, so the typed assumptions still hold
        res["values"] = [v * scale for v in res["values"]]
        res["derivative"] = [d * scale for d in res["derivative"]]
    return doc


def _cost_table(doc):
    """The family's power cost c^n / n, tabulated; a tabulated cost has no
    time dependence, so k(t) drops out."""
    n = doc.pop("n")
    c = np.linspace(0.0, 20.0, 401)
    doc["k"] = 1.0
    doc["cost_table"] = {"c": c.tolist(), "K": (c ** n / n).tolist(), "marginal": (c ** (n - 1.0)).tolist()}


def _tabulated_g(doc):
    """A smooth non-canonical taste map with the branch's monotonicity."""
    x = np.linspace(0.0, 1.0, 257)
    bump = 0.1 * x * (1.0 - x)
    if doc["gamma"] > 0:
        g, gp = x + bump, 1.0 + 0.1 * (1.0 - 2.0 * x)
    else:
        g, gp = 1.0 - x + bump, -1.0 + 0.1 * (1.0 - 2.0 * x)
    doc["g"] = {"form": "tabulated", "x": x.tolist(), "values": g.tolist(), "derivative": gp.tolist()}


def _tabulated_f(doc):
    """A linear density tilted toward the served end of the market."""
    x = np.linspace(0.0, 1.0, 257)
    tilt = -0.2 if doc["gamma"] > 0 else 0.2
    doc["f"] = {"form": "tabulated", "x": x.tolist(), "density": (1.0 + tilt * (x - 0.5)).tolist()}


def _force_general(doc):
    doc["solver"] = {"force_general_route": True}


def _kind(doc):
    return "const" if doc["reservation"]["form"] == "constant" else "typed"


def _solve(name, doc, oracle=False):
    argv = ["solve", None] + (["--oracle"] if oracle else [])
    return Request(name=name, kind=_kind(doc), argv=argv, config=doc, oracle=oracle)


def _sweep(name, doc, param, expect_exit=0):
    argv = ["sweep", None, "--param", param, "--values", SWEEP_VALUES]
    return Request(name=name, kind=_kind(doc), argv=argv, config=doc, sweep=param, expect_exit=expect_exit)


def coarse_mix(root, rng, smoke=False):
    """Many small requests: per-call overheads dominate."""
    base = {f: _load_family(root, f) for f in FAMILIES}
    reqs = []
    for nodes in ((3,) if smoke else (3, 9, 33)):
        for fam in FAMILIES:
            reqs.append(_solve(f"solve-{fam}-{nodes}", _scenario(base[fam], rng, nodes)))
    # the general route on residential_constant_h only: on the industrial
    # branch its sampled tariff lets the top type gain about 1% of its
    # utility by deviating, on every seed tried (see README.md)
    fam = "residential_constant_h"
    for variant, edit in (("cost_table", _cost_table), ("tabulated_g", _tabulated_g),
                          ("tabulated_f", _tabulated_f), ("forced", _force_general)):
        doc = _scenario(base[fam], rng, 3)
        edit(doc)
        reqs.append(_solve(f"general-{fam}-{variant}", doc))
    for fam in FAMILIES:
        for param in ("H_scale", "k_scale"):
            if fam == "residential_log_h" and param == "H_scale":
                # fails on every value: cli._scaled_config wraps the table in
                # callables and the assumption probe then sees a false
                # elasticity violation; kept on the shipped config, so the
                # failing input does not depend on the seed
                reqs.append(_sweep(f"sweep-{fam}-{param}", copy.deepcopy(base[fam]), param, expect_exit=3))
                continue
            reqs.append(_sweep(f"sweep-{fam}-{param}", _scenario(base[fam], rng, 3), param))
    return reqs


def _copies(root, rng, nodes, prefix, per_family, oracle=False):
    """Each family ``per_family[kind]`` times, every copy with its own seeded
    profiles; short requests get more copies, so that both request medians
    rest on a similar number of samples per run."""
    reqs = []
    for fam in FAMILIES:
        base = _load_family(root, fam)
        for j in range(per_family[_kind(base)]):
            doc = _scenario(base, rng, nodes)
            reqs.append(_solve(f"{prefix}-{fam}-{nodes}-{j}", doc, oracle=oracle))
    return reqs


def fine_grid(root, rng, smoke=False):
    """The four families on a dense time grid: utility surfaces dominate.
    A constant-H solve takes about 0.35 s and a typed one about 2.1 s."""
    return _copies(root, rng, 9 if smoke else 129, "solve", {"const": 2, "typed": 1})


def oracle_audit(root, rng, smoke=False):
    """``solve --oracle`` at 3 time nodes: the brute-force audits dominate.
    A constant-H request takes about 2.7 s and a typed one about 30 ms."""
    return _copies(root, rng, 3, "oracle", {"const": 1, "typed": 3}, oracle=True)


BUILDERS = {"coarse_mix": coarse_mix, "fine_grid": fine_grid, "oracle_audit": oracle_audit}
WORKLOADS = tuple(BUILDERS)


def build(workload, root, seed, smoke=False):
    """The request list of one workload for one seed."""
    return BUILDERS[workload](root, np.random.default_rng(seed), smoke=smoke)


def write_configs(requests, directory):
    """Write each config once and fill the config path into its argv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, req in enumerate(requests):
        path = directory / f"{i:02d}-{req.name}.json"
        path.write_text(json.dumps(req.config))
        req.argv[1] = str(path)
