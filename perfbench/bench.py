"""Closed-loop runner: one client sends a workload's requests through
``nltariff.cli.main(argv)`` in this process, in whole rounds, until the run
time is used up, and checks every request's outputs.

End-to-end metrics are measured untraced. A traced run installs the
``tracing.Tracer`` wrappers and reports per-layer metrics instead.
"""
import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from nltariff import cli

from . import checks, tracing, workloads

# set-up time is sampled by starting a fresh interpreter every SETUP_EVERY_S
# seconds of the run, between requests, so that the samples spread over the
# run like the request timings; a run too short for SETUP_MIN_SAMPLES tops
# them up at its end
SETUP_EVERY_S = 2.5
SETUP_MIN_SAMPLES = 5
MIN_ROUNDS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "const_h_request_s_p50": "s",
    "typed_h_request_s_p50": "s",
    "peak_rss_mb": "MB",
}


class SetupSampler:
    """Wall time to start a fresh interpreter and import nltariff.cli."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
        self.times = []
        # the first start writes the bytecode caches of a fresh checkout
        self._start()
        self.last = time.perf_counter()

    def _start(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nltariff.cli"], env=self.env, cwd=self.root,
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def maybe_sample(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.times.append(self._start())
            self.last = time.perf_counter()

    def median(self, min_samples=SETUP_MIN_SAMPLES):
        while len(self.times) < min_samples:
            self.times.append(self._start())
        return statistics.median(self.times)


class RunLog:
    """Per-request timings and the outcome counts of one run."""

    def __init__(self, requests):
        self.requests = requests
        self.times = [[] for _ in requests]      # successful requests only
        self.round_walls = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, i, rc, seconds, failures, stderr):
        req = self.requests[i]
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            if rc != req.expect_exit:
                print(f"{req.name}: exit {rc}: {stderr.strip()}", file=sys.stderr)
        elif failures:
            self.failed += 1
            self.correct = False
            print(f"{req.name}: " + "; ".join(failures), file=sys.stderr)
        else:
            self.times[i].append(seconds)

    def p50(self, kind):
        """Median over the workload's requests of this kind of each request's
        median time across rounds."""
        per_request = [statistics.median(t) for req, t in zip(self.requests, self.times)
                       if req.kind == kind and t]
        return statistics.median(per_request)


def _call(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed request, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = -1
    return rc, err.getvalue()


def run_rounds(requests, seconds, work, tracer=None, min_rounds=MIN_ROUNDS, between=None):
    """Send whole rounds of the request list until ``seconds`` have passed
    and at least ``min_rounds`` rounds are done. Every request writes to a
    directory of its own that does not exist yet; they are all removed when
    the run ends, so no deletion runs while requests are timed. ``between``
    is called after each request, outside its timing."""
    log = RunLog(requests)
    deadline = time.perf_counter() + seconds
    r = 0
    while r < min_rounds or time.perf_counter() < deadline:
        round_dir = Path(work) / f"round-{r:03d}"
        wall = 0.0
        for i, req in enumerate(requests):
            out = round_dir / f"{i:02d}-{req.name}"
            if tracer is not None:
                tracer.request = r * len(requests) + i
            t0 = time.perf_counter()
            rc, stderr = _call(req.argv + ["--out", str(out)])
            seconds_taken = time.perf_counter() - t0
            wall += seconds_taken
            failures = checks.check_request(req, out) if rc == 0 else []
            log.record(i, rc, seconds_taken, failures, stderr)
            if between is not None:
                between()
        log.round_walls.append(wall)
        r += 1
    return log


def run(workload, seed, seconds, trace, root, smoke=False):
    """One benchmark run; returns the result object printed as JSON."""
    root = Path(root)
    work = root / ".perfbench_runs" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        requests = workloads.build(workload, root, seed, smoke=smoke)
        workloads.write_configs(requests, work / "configs")
        min_rounds = 1 if smoke else MIN_ROUNDS
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                log = run_rounds(requests, seconds, work, tracer=tracer, min_rounds=min_rounds)
            finally:
                tracer.uninstall()
            tracer.write(work.parent / f"trace-{workload}-seed{seed}.jsonl")
            rounds = len(log.round_walls)
            # the traced wall time, against an untraced run's wall_s, is the tracing overhead
            print(f"traced wall_s {statistics.median(log.round_walls):.6f} over {rounds} rounds")
            values = tracer.layer_metrics(rounds)
            units = tracing.UNITS
        else:
            setup = SetupSampler(root)
            log = run_rounds(requests, seconds, work, min_rounds=min_rounds, between=setup.maybe_sample)
            values = {
                "setup_s": setup.median(),
                "wall_s": statistics.median(log.round_walls),
                "const_h_request_s_p50": log.p50("const"),
                "typed_h_request_s_p50": log.p50("typed"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": log.correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
