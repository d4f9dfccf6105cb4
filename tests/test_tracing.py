"""The benchmark tracer's patch targets exist under the names it looks up.

perfbench/tracing.py wraps module attributes of nltariff by name. A refactor
that deletes or moves one of them (an import that looks unused, say) breaks
the benchmark's per-layer metrics; this test notices it, and that the typed
pair count stays comparable across changes to how the mesh is scored.
"""
import importlib.util
from pathlib import Path

import pytest

from nltariff.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
CONFIG_DIR = ROOT / "configs"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


@pytest.mark.parametrize("flags, pairs", [([], 256 + 7 * 33 + 1), (["--oracle"], 256 + 7 * 33 + 1 + 512)],
                         ids=["solve", "oracle"])
def test_tracer_counts_every_typed_scan_row(tmp_path, flags, pairs):
    """pairs_checked counts the a0 values the certificates see: the 256-row
    scan, seven 33-row zooms, the solution's own check and, with --oracle,
    the 512-row audit, however the mesh splits its rows."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["solve", str(CONFIG_DIR / "industrial_sqrt_h.json"), "--out", str(tmp_path)] + flags) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["solver_typed_h.pairs_checked"] == pairs
