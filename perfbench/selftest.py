"""Self-tests for the benchmark: ``python3 perfbench/selftest.py``.

1. Checkers: every checker must reject an answer corrupted on purpose
   (a dropped row, an order broken on the sort key, a wrong DML
   rowcount, a cell whose type changed over the wire) and accept what
   SQL allows (tied rows in another order, ``1.50`` for ``1.5``).
   The corruptions are applied to real results of each workload.
2. Smoke: every workload runs one round per phase in a fresh process,
   untraced and traced, and must print exactly the metrics
   ``BENCHMARK.json`` names, with 0 failed operations.

Exits non-zero on the first failed test.
"""

from __future__ import annotations

import json
import subprocess
import sys
from decimal import Decimal

from harness import HERE, ROOT, SRC, pin_environment
from run import WORKLOADS


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_checkers() -> None:
    from checks import compare_rowcount, compare_rows, compare_types

    rows = [(1, "a", Decimal("1.50")), (2, "b", None), (2, "c", None)]
    expect(not compare_rows(rows, rows), "identical rows rejected")
    expect(not compare_rows([(1, "a", 1.5)] + rows[1:], rows),
           "1.5 and Decimal('1.50') must compare equal")
    expect(compare_rows(rows[:-1], rows), "dropped row accepted")
    order = ((0, True),)
    tied = [rows[0], rows[2], rows[1]]
    expect(not compare_rows(tied, rows, order),
           "ties in another order must be accepted")
    broken = [rows[1], rows[0], rows[2]]
    expect(compare_rows(broken, rows, order),
           "order broken on the sort key accepted")
    nulls_last = [(1,), (2,), (None,)]
    expect(not compare_rows(nulls_last, nulls_last, order),
           "NULLs sorted last must be accepted")
    expect(compare_rowcount(0, 1), "wrong rowcount accepted")
    expect(compare_types([(1, 1.5)], [(1, Decimal("1.5"))]),
           "Decimal turned float accepted")


def _first_ordered(results):
    """A stored ORDER BY result with at least two distinct sort keys."""
    for key, (rows, _digest, order) in results.items():
        keys = {row[order[0][0]] for row in rows} - {None} if order \
            else ()
        if len(keys) > 1:
            return key, rows, order
    raise SystemExit("selftest FAILED: no ordered result to corrupt")


def test_adhoc_and_report_corruption() -> None:
    from adhoc_cold import AdhocCold
    from harness import Recorder
    from report_warm import ReportWarm

    for factory, rounds in ((AdhocCold, 40), (ReportWarm, 1)):
        workload = factory(seed=7, smoke=True)
        workload.start()
        try:
            recorder = Recorder()
            for _ in range(rounds):
                workload.run_round(recorder)
            expect(not workload.check(),
                   f"{workload.name}: clean run rejected")
            key, rows, order = _first_ordered(workload.results)
            stored = workload.results[key]
            workload.results[key] = (rows[:-1],) + stored[1:]
            expect(workload.check(), f"{workload.name}: dropped row "
                                     f"accepted")
            workload.results[key] = (rows[::-1],) + stored[1:]
            expect(workload.check(), f"{workload.name}: reversed order "
                                     f"accepted")
            workload.results[key] = stored
            workload.problems.clear()
            workload.keep(key, rows[1:], order)
            expect(workload.problems, f"{workload.name}: a repeat that "
                                      f"lost a row was accepted")
        finally:
            workload.stop()


class _OffByOne:
    """A cursor whose DML rowcount is one too high."""

    def __init__(self, cursor) -> None:
        self._cursor = cursor

    def __getattr__(self, name):
        value = getattr(self._cursor, name)
        return value + 1 if name == "rowcount" else value


def test_mixed_corruption() -> None:
    from harness import Recorder
    from mixed_rw import MixedReadWrite

    workload = MixedReadWrite(seed=7, smoke=True)
    workload.start()
    try:
        workload.run_round(Recorder())
        expect(not workload.check(), "mixed_rw: clean run rejected")
        honest = workload.cursor
        workload.cursor = _OffByOne(honest)
        workload.run_round(Recorder())
        workload.cursor = honest
        expect(any("rowcount" in p for p in workload.check()),
               "mixed_rw: wrong DML rowcount accepted")
        workload.problems.clear()
        index = next(i for i, read in enumerate(workload.reads)
                     if read[4])
        key, sql, params, state, rows, order = workload.reads[index]
        workload.reads[index] = (key, sql, params, state, rows[:-1], order)
        expect(workload.check(), "mixed_rw: dropped row accepted")
    finally:
        workload.stop()


def test_remote_corruption() -> None:
    from harness import Recorder
    from remote_warm import RemoteWarm

    workload = RemoteWarm(seed=7, smoke=True)
    workload.start()
    try:
        workload.run_round(Recorder())
        expect(not workload.check(), "remote_warm: clean run rejected")
        index = next(i for i, run in enumerate(workload.runs)
                     if len(run[2]) > 1 and run[2][1][3] is not None)
        sql, params, rows, order = workload.runs[index]
        changed = list(rows)
        row = changed[1]
        changed[1] = row[:3] + (float(row[3]),)
        workload.runs[index] = (sql, params, changed, order)
        expect(workload.check(), "remote_warm: Decimal turned float "
                                 "accepted")
        workload.runs[index] = (sql, params, rows[:-1], order)
        expect(workload.check(), "remote_warm: dropped row accepted")
    finally:
        workload.stop()


def test_smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=300)
            expect(out.returncode == 0,
                   f"{workload} trace {trace} exited {out.returncode}: "
                   f"{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: {out.stdout[-2000:]}")
            expect(set(result["metrics"]) == names[trace],
                   f"{workload} trace {trace}: metrics "
                   f"{sorted(set(result['metrics']) ^ names[trace])} "
                   f"differ from BENCHMARK.json")
            print(f"smoke {workload} trace {trace}: ok", flush=True)


def main() -> int:
    sys.path.insert(0, str(SRC))
    pin_environment()
    for test in (test_checkers, test_adhoc_and_report_corruption,
                 test_mixed_corruption, test_remote_corruption,
                 test_smoke):
        test()
        print(f"{test.__name__}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
