"""Shared machinery of the benchmark: pinned configuration, the timed
closed loop, latency summaries, set-up timing in fresh processes and
peak-RSS readings.

Nothing here knows a workload; each workload module supplies inputs,
one round of operations and its checks (see ``run.py``).
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment knobs that override ``RuntimeConfig`` inside the program
#: (CI's forced-mode legs set them). They are removed from this process
#: and from every child it starts, so they cannot change what is
#: measured.
ENV_KNOBS = ("REPRO_BATCH_SIZE", "REPRO_PARALLELISM",
             "REPRO_DEFAULT_BACKEND", "REPRO_COST_PLANNING",
             "REPRO_PARALLEL_MIN_ROWS")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def pin_environment() -> None:
    """Drop every ``REPRO_*`` override from this process's environment."""
    for name in ENV_KNOBS:
        os.environ.pop(name, None)


def child_environment() -> dict:
    """The environment for child processes: pinned, with the program's
    sources and the benchmark's modules importable."""
    env = {key: value for key, value in os.environ.items()
           if key not in ENV_KNOBS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def pinned_config():
    """The one configuration every runtime and connection is built with.

    Every field the measured paths read is spelled out, so a changed
    library default shows up as a diff here rather than as a silent
    change in what is measured.
    """
    from repro import RuntimeConfig

    return RuntimeConfig(
        optimize=True, pushdown=True, cost=True,
        plan_cache_capacity=256, statement_cache_capacity=256,
        metadata_cache_capacity=1024, batch_size=1024, parallelism=0,
        parallel_min_rows=5_000, format="delimited",
        metadata_latency=0.0, default_timeout=None,
        max_concurrent_queries=32, max_inflight_rows=1_000_000)


def effective_config(runtime=None) -> dict:
    """What the runtime actually resolved (after any environment
    override), for printing next to the results."""
    config = pinned_config()
    shown = {
        "plan_cache_capacity": config.plan_cache_capacity,
        "statement_cache_capacity": config.statement_cache_capacity,
        "format": config.format,
    }
    if runtime is not None:
        shown.update(batch_size=runtime.batch_size,
                     parallelism=runtime.parallelism,
                     parallel_min_rows=runtime.parallel_min_rows,
                     cost=runtime.cost, optimize=runtime.optimize,
                     pushdown=runtime.pushdown)
    shown["env_overrides"] = sorted(
        name for name in ENV_KNOBS if name in os.environ)
    return shown


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

class Recorder:
    """Per-operation samples of one timed phase."""

    def __init__(self) -> None:
        self.read_seconds: list[float] = []
        self.write_seconds: list[float] = []
        #: Transaction control (``begin``/``commit``/``rollback``):
        #: program time, though not a statement of its own.
        self.control_seconds: list[float] = []
        self.rows = 0
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.rounds = 0
        #: Full (generation-2) garbage collections during the phase.
        self.full_collections = 0

    def read(self, seconds: float, rows: int) -> None:
        self.read_seconds.append(seconds)
        self.rows += rows

    def write(self, seconds: float) -> None:
        self.write_seconds.append(seconds)

    def control(self, seconds: float) -> None:
        self.control_seconds.append(seconds)

    @property
    def statements(self) -> int:
        return len(self.read_seconds) + len(self.write_seconds)

    @property
    def busy_seconds(self) -> float:
        return (sum(self.read_seconds) + sum(self.write_seconds)
                + sum(self.control_seconds))


def timed_phase(run_round, seconds: float, recorder: Recorder) -> Recorder:
    """Run whole rounds until *seconds* have passed (a closed loop: one
    client, the next statement starts when the previous one returned).
    Full garbage collections are counted: on the cold workloads each
    one makes a read slow enough to be a tail sample."""
    def count_full(phase, info):
        if phase == "start" and info["generation"] == 2:
            recorder.full_collections += 1

    gc.callbacks.append(count_full)
    started = time.perf_counter()
    deadline = started + seconds
    try:
        while True:
            run_round(recorder)
            recorder.rounds += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        gc.callbacks.remove(count_full)
    recorder.elapsed = time.perf_counter() - started
    return recorder


def latency_summary(samples: list[float]) -> dict:
    """Median and tail (ms) of *samples* (seconds). The tail is the
    highest percentile with at least ten samples beyond it: the
    11th-largest sample. With fewer than 40 samples (smoke runs only)
    it falls back to the maximum."""
    ordered = sorted(samples)
    beyond = 10 if len(ordered) >= 40 else 0
    tail = ordered[len(ordered) - 1 - beyond]
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": tail * 1e3,
        "samples": len(ordered),
        "tail_percentile": 100.0 * (1 - beyond / len(ordered)),
    }


def end_to_end(recorder: Recorder, setup_s: float,
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced phase.

    Throughputs divide by the time spent inside the program (statements,
    execute through the last fetch, and transaction control), so the
    benchmark's own bookkeeping between calls never counts as program
    time.
    """
    reads = latency_summary(recorder.read_seconds)
    busy = recorder.busy_seconds
    return {
        "setup_s": (setup_s, "s"),
        "p50_ms": (reads["p50_ms"], "ms"),
        "tail_ms": (reads["tail_ms"], "ms"),
        "stmts_per_s": (recorder.statements / busy, "1/s"),
        "rows_per_s": (recorder.rows / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Set-up in fresh processes, memory
# ---------------------------------------------------------------------------

def time_child_setup(workload: str, timeout: float = 60.0) -> float:
    """Wall time from spawning ``setup_child.py`` until it reports
    ready: interpreter start, importing the program, building the
    runtime over its source, connecting and listing the catalogue."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "setup_child.py"), workload],
        cwd=str(ROOT), env=child_environment(), stdout=subprocess.PIPE,
        text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.close()
        if child.wait(timeout) != 0 or line.strip() != "ready":
            raise RuntimeError(
                f"set-up child for {workload} failed: {line!r}")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return elapsed


def median_setup(measure, repeats: int = SETUP_REPEATS) -> float:
    return statistics.median(measure() for _ in range(repeats))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
