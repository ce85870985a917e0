"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this (fresh) process, driven by a single
closed-loop client on one connection. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` splits the run into an untraced half
and a traced half and reports the per-layer metrics plus the tracing
overhead. Human-readable lines come first; the last line of standard
output is one JSON object. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from harness import SRC

WORKLOADS = ("adhoc_cold", "report_warm", "mixed_rw", "remote_warm")


def make_workload(name: str, seed: int, smoke: bool = False):
    if name == "adhoc_cold":
        from adhoc_cold import AdhocCold as factory
    elif name == "report_warm":
        from report_warm import ReportWarm as factory
    elif name == "mixed_rw":
        from mixed_rw import MixedReadWrite as factory
    else:
        from remote_warm import RemoteWarm as factory
    return factory(seed, smoke)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round per phase and one set-up: a "
                             "quick end-to-end self-test")
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run one workload; returns the result document."""
    from harness import (Recorder, end_to_end, median_setup,
                         pin_environment, timed_phase)
    from layers import LayerTrace

    pin_environment()
    workload = make_workload(args.workload, args.seed, args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    setup_s = None
    if not args.trace:
        setup_s = (workload.setup_once() if args.smoke
                   else median_setup(workload.setup_once))
    workload.start()
    try:
        warm = Recorder()
        workload.warm(warm)
        config = workload.effective_config()
        if args.trace:
            untraced = timed_phase(workload.run_round, seconds / 2,
                                   Recorder())
            before = workload.counters()
            trace = LayerTrace()
            workload.install_trace(trace)
            try:
                measured = timed_phase(workload.run_round, seconds / 2,
                                       Recorder())
            finally:
                workload.remove_trace(trace)
            after = workload.counters()
            metrics = workload.layer_metrics(trace, measured, before,
                                             after)
            metrics.update(workload.write_latency(untraced))
            metrics["trace.overhead_pct"] = 100.0 * (
                measured.busy_seconds / measured.statements
                / (untraced.busy_seconds / untraced.statements) - 1.0)
            phases = (untraced, measured)
        else:
            measured = timed_phase(workload.run_round, seconds,
                                   Recorder())
            metrics = end_to_end(measured, setup_s, workload.peak_rss_mb())
            phases = (measured,)
        problems = workload.check()
        if warm.failed:
            problems.append(f"{warm.failed} warm-up statements failed")
    finally:
        workload.stop()
    return {
        "workload": workload,
        "config": config,
        "phases": phases,
        "metrics": metrics,
        "problems": problems,
    }


def report(args, outcome: dict) -> str:
    """Print the human-readable lines; return the final JSON line."""
    from base import PER_LAYER_UNITS
    from harness import latency_summary

    workload = outcome["workload"]
    phases = outcome["phases"]
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print("config " + json.dumps(outcome["config"], sort_keys=True))
    for label, phase in zip(("untraced", "traced") if args.trace
                            else ("measured",), phases):
        reads = latency_summary(phase.read_seconds)
        control = (f", {len(phase.control_seconds)} transaction "
                   f"control calls" if phase.control_seconds else "")
        print(f"{label}: {phase.rounds} rounds, {phase.statements} "
              f"statements ({len(phase.read_seconds)} reads, "
              f"{len(phase.write_seconds)} writes{control}), "
              f"{phase.rows} rows in {phase.elapsed:.2f}s; tail_ms is "
              f"p{reads['tail_percentile']:.2f} of {reads['samples']} "
              f"read samples; {phase.full_collections} full garbage "
              f"collections")
        if not args.trace:
            for name, value in workload.write_latency(phase).items():
                print(f"  {name} {value:.4f} ms")
    metrics = {}
    for name, value in outcome["metrics"].items():
        if isinstance(value, tuple):
            value, unit = value
        else:
            unit = PER_LAYER_UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} {value:.6g} {unit}")
    for problem in outcome["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    for failure in workload.failures[:20]:
        print(f"OPERATION FAILED: {failure}")
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(f"attempted {attempted} failed {failed}")
    return json.dumps({
        "correct": not outcome["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing "
              f"(no {SRC / 'repro'}); run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops the server process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    outcome = run(args)
    print(report(args, outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
