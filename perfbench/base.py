"""What every workload shares: timed statements, the result store that
the checks read, and per-layer metrics that default to zero where a
workload does not run a layer."""

from __future__ import annotations

import time

from checks import fingerprint
from harness import Recorder, latency_summary, time_child_setup

#: Every per-layer metric, with its unit, in the order printed.
PER_LAYER_UNITS = {
    "translator.stage1_ms": "ms",
    "translator.stage2_ms": "ms",
    "translator.stage3_ms": "ms",
    "translator.xquery_chars": "chars",
    "xquery.parse_ms": "ms",
    "xquery.compile_ms": "ms",
    "xquery.execute_ms": "ms",
    "xquery.vector_plans": "count",
    "xquery.tuple_plans": "count",
    "engine.plan_cache_hits": "count",
    "engine.plan_cache_misses": "count",
    "engine.plan_cache_evictions": "count",
    "driver.statement_cache_hits": "count",
    "sources.rows_scanned_per_row": "1/row",
    "dml.parse_ms": "ms",
    "dml.plan_ms": "ms",
    "dml.apply_ms": "ms",
    "txn.control_ms": "ms",
    "dml.write_p50_ms": "ms",
    "dml.write_tail_ms": "ms",
    "driver.decode_ms": "ms",
    "driver.other_ms": "ms",
    "remote.wire_ms": "ms",
    "remote.roundtrips_per_stmt": "1/stmt",
    "remote.bytes_per_row": "B/row",
    "remote.protocol_ms": "ms",
    "catalog.metadata_fetches": "count",
    "python.gc_ms": "ms",
    "python.gc_full_collections": "count",
    "trace.overhead_pct": "%",
}

_clock = time.perf_counter


class Workload:
    """One workload: inputs from a seed, set-up, whole rounds of
    statements on one connection, and checks made apart from the
    program."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        #: key -> (rows of the first execution, its fingerprint, order
        #: keys); repeated executions are compared by fingerprint.
        self.results: dict = {}
        self.problems: list[str] = []
        self.failures: list[str] = []

    # -- hooks ---------------------------------------------------------------

    def setup_once(self) -> float:
        """Seconds for one program set-up from a cold process (embedded
        workloads: ``setup_child.py``)."""
        return time_child_setup(self.name)

    def start(self) -> None:
        raise NotImplementedError

    def warm(self, recorder: Recorder) -> None:
        """Untimed round(s) run before measuring: warm workloads fill
        their caches here."""

    def run_round(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def stop(self) -> None:
        pass

    def effective_config(self) -> dict:
        raise NotImplementedError

    def install_trace(self, trace) -> None:
        trace.install()

    def remove_trace(self, trace) -> None:
        trace.remove()

    def counters(self) -> dict:
        """The program's own counters, read from ``Connection.stats()``,
        as a flat dict of the values the per-layer metrics use."""
        return self.counters_from(self.connection.stats())

    @staticmethod
    def counters_from(stats: dict) -> dict:
        runtime = stats["runtime"]["counters"]
        return {
            "plan_cache.hits": stats["plan_cache"]["hits"],
            "plan_cache.misses": stats["plan_cache"]["misses"],
            "plan_cache.evictions": stats["plan_cache"]["evictions"],
            "statement_cache.hits": stats["statement_cache"]["hits"],
            "metadata.fetches": stats["counters"]["metadata.fetches"],
            "sources.rows_scanned": runtime["sources.rows_scanned"],
        }

    # -- statements ----------------------------------------------------------

    def read(self, recorder: Recorder, cursor, key, sql: str,
             params=(), order_keys=(), keep: bool = True):
        """One timed read, ``execute`` through ``fetchall``; with *keep*
        the result goes to the store under *key*."""
        recorder.attempted += 1
        started = _clock()
        try:
            cursor.execute(sql, params)
            rows = cursor.fetchall()
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            recorder.failed += 1
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        recorder.read(_clock() - started, len(rows))
        if keep:
            self.keep(key, rows, order_keys)
        return rows

    def write(self, recorder: Recorder, cursor, key, sql: str, params=()):
        """One timed DML statement; returns its rowcount (None if it
        failed)."""
        recorder.attempted += 1
        started = _clock()
        try:
            cursor.execute(sql, params)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            recorder.failed += 1
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        recorder.write(_clock() - started)
        return cursor.rowcount

    def control(self, recorder: Recorder, key, call) -> None:
        """One timed transaction-control call (``connection.begin``,
        ``commit`` or ``rollback``)."""
        recorder.attempted += 1
        started = _clock()
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            recorder.failed += 1
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        recorder.control(_clock() - started)

    def keep(self, key, rows, order_keys=()) -> None:
        digest = fingerprint(rows, order_keys)
        first = self.results.get(key)
        if first is None:
            self.results[key] = (rows, digest, order_keys)
        elif first[1] != digest:
            self.problems.append(
                f"{key}: a repeated execution returned a different "
                f"result ({digest[0]} rows vs {first[1][0]})")

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, trace, recorder: Recorder, before: dict,
                      after: dict) -> dict:
        """Per-layer metrics of a traced phase (per statement where the
        unit is ms). *before*/*after* are :meth:`counters` snapshots
        around the phase."""
        reads = max(len(recorder.read_seconds), 1)
        writes = len(recorder.write_seconds)
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        translations = trace.counts.get("translator.translations", 0)
        read_layers = {
            "translator.stage1_ms": trace.ms("translator.stage1"),
            "translator.stage2_ms": trace.ms("translator.stage2"),
            "translator.stage3_ms": trace.ms("translator.stage3"),
            "xquery.parse_ms": trace.ms("xquery.parse"),
            "xquery.compile_ms": trace.ms("xquery.compile"),
            "xquery.execute_ms": trace.execute_ms(),
            "driver.decode_ms": trace.decode_ms(),
        }
        for name, total in read_layers.items():
            metrics[name] = total / reads
        metrics["driver.other_ms"] = (
            sum(recorder.read_seconds) * 1e3 / reads
            - sum(metrics[name] for name in read_layers))
        metrics["translator.xquery_chars"] = (
            trace.counts.get("translator.xquery_chars", 0)
            / translations if translations else 0.0)
        metrics["xquery.vector_plans"] = trace.counts.get(
            "xquery.vector_plans", 0)
        metrics["xquery.tuple_plans"] = trace.counts.get(
            "xquery.tuple_plans", 0)
        if writes:
            parse = trace.ms("dml.parse") / writes
            plan = trace.ms("dml.plan") / writes
            metrics["dml.parse_ms"] = parse
            metrics["dml.plan_ms"] = plan
            metrics["dml.apply_ms"] = (
                sum(recorder.write_seconds) * 1e3 / writes - parse - plan)
        if recorder.control_seconds:
            metrics["txn.control_ms"] = (
                sum(recorder.control_seconds) * 1e3
                / len(recorder.control_seconds))
        metrics.update(self.gc_metrics(trace, recorder))
        metrics.update(self.counter_metrics(recorder, before, after))
        return metrics

    @staticmethod
    def gc_metrics(trace, recorder: Recorder) -> dict:
        return {
            "python.gc_ms":
                trace.ms("python.gc") / max(recorder.statements, 1),
            "python.gc_full_collections":
                trace.counts.get("python.gc_full_collections", 0),
        }

    @staticmethod
    def counter_metrics(recorder: Recorder, before: dict,
                        after: dict) -> dict:
        def delta(name):
            return after[name] - before[name]

        return {
            "engine.plan_cache_hits": delta("plan_cache.hits"),
            "engine.plan_cache_misses": delta("plan_cache.misses"),
            "engine.plan_cache_evictions": delta("plan_cache.evictions"),
            "driver.statement_cache_hits": delta("statement_cache.hits"),
            "sources.rows_scanned_per_row":
                delta("sources.rows_scanned") / max(recorder.rows, 1),
            "catalog.metadata_fetches": after["metadata.fetches"],
        }

    @staticmethod
    def write_latency(recorder: Recorder) -> dict:
        """Write-latency metrics of an untraced phase (only workloads
        that write have them)."""
        if not recorder.write_seconds:
            return {}
        summary = latency_summary(recorder.write_seconds)
        return {"dml.write_p50_ms": summary["p50_ms"],
                "dml.write_tail_ms": summary["tail_ms"]}
