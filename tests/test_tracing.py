"""The benchmark tracer's patch targets exist under the names it looks up.

perfbench/tracing.py wraps module attributes of nltariff by name. A refactor
that deletes or moves one of them (an import that looks unused, say) breaks
the benchmark's per-layer metrics; this test notices it.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
