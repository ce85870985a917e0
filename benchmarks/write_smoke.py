"""Write-path smoke harness: a mixed 80/20 read-write workload with
correctness and plan-cache gates (the EXPERIMENTS.md E20/E22 numbers).

Drives the embedded PEP 249 driver on both writable backends with a
seeded stream of statements — 80% reads, 20% DML, with periodic
explicit transactions that roll back — and asserts, per backend:

* every rollback restores the pre-transaction reads, and on the
  memory backend restores every table's version token *exactly*;
* final row counts match an independently-maintained oracle;
* writes do not cost the reads their cached plans: the mix's reads hit
  the plan cache at least ``MIN_HIT_RATE`` of the time, and their mean
  latency stays within ``MAX_READ_SLOWDOWN`` of a read-only pass over
  the same statements. That pass replays each mix read right after it,
  on the same data with no write in between, so the ratio isolates
  what the writes cost the reads (the table grows over the run, which
  a separate pass over the initial data would mistake for write cost).

Reports read/write throughput, the plan-cache hit rate and the read
latency against the read-only pass per backend. Exit status is non-zero
on any failed gate — this is the CI leg for the write path.

Usage::

    python benchmarks/write_smoke.py [--statements N] [--seed N]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.driver import connect  # noqa: E402
from repro.workloads import build_runtime  # noqa: E402

REGIONS = ("APAC", "EMEA", "AMER", "LATAM")
READ = "SELECT COUNT(*), MAX(CUSTOMERID) FROM CUSTOMERS WHERE REGION = ?"

#: Plan-cache hits per mix read, at least.
MIN_HIT_RATE = 0.90
#: Mix reads' mean latency over the read-only pass's, at most.
MAX_READ_SLOWDOWN = 1.5


def plan_lookups(runtime) -> tuple[int, int]:
    stats = runtime.plan_cache.stats()
    return stats["hits"], stats["misses"]


def timed_read(cur, region: str) -> float:
    started = time.perf_counter()
    cur.execute(READ, [region])
    cur.fetchall()
    return time.perf_counter() - started


def run_backend(backend: str, statements: int, seed: int) -> dict:
    rng = random.Random(("write-smoke", seed).__repr__())
    runtime = build_runtime(backend=backend)
    conn = connect(runtime)
    cur = conn.cursor()
    source = runtime._default_source

    def tokens():
        return {t: source.version(t) for t in source.tables()}

    cur.execute("SELECT COUNT(*) FROM CUSTOMERS")
    live = cur.fetchall()[0][0]  # the oracle: expected CUSTOMERS rows
    # Compile the mix read up front: its cold compile is no write's
    # doing, and the read-only replays below never pay it.
    cur.execute(READ, [REGIONS[0]])
    cur.fetchall()
    next_id = 10_000
    reads = writes = rollbacks = 0
    read_seconds = read_only_seconds = write_seconds = 0.0
    hits = misses = 0

    for step in range(statements):
        if rng.random() < 0.8:
            region = rng.choice(REGIONS)
            hits_before, misses_before = plan_lookups(runtime)
            read_seconds += timed_read(cur, region)
            hits_after, misses_after = plan_lookups(runtime)
            hits += hits_after - hits_before
            misses += misses_after - misses_before
            read_only_seconds += timed_read(cur, region)
            reads += 1
            continue
        if rng.random() < 0.2:
            # An explicit transaction that rolls back: reads (and on
            # memory, version tokens) must come back exactly.
            before_tokens = tokens()
            conn.begin()
            cur.execute("DELETE FROM CUSTOMERS WHERE CUSTOMERID >= ?",
                        [10_000])
            cur.execute("SELECT COUNT(*) FROM CUSTOMERS")
            cur.fetchall()
            conn.rollback()
            rollbacks += 1
            cur.execute("SELECT COUNT(*) FROM CUSTOMERS")
            restored = cur.fetchall()[0][0]
            if restored != live:
                raise SystemExit(
                    f"FAIL[{backend}]: rollback did not restore reads "
                    f"({restored} rows, expected {live}) at step {step}")
            if backend == "memory" and tokens() != before_tokens:
                raise SystemExit(
                    f"FAIL[{backend}]: rollback did not restore "
                    f"version tokens at step {step}")
            continue
        started = time.perf_counter()
        roll = rng.random()
        if roll < 0.6 or live < 5:
            cur.execute(
                "INSERT INTO CUSTOMERS (CUSTOMERID, CUSTOMERNAME, "
                "REGION, CREDITLIMIT) VALUES (?, ?, ?, ?)",
                [next_id, f"W{next_id}", rng.choice(REGIONS),
                 rng.randint(1, 999)])
            live += 1
            next_id += 1
        elif roll < 0.85:
            cur.execute(
                "UPDATE CUSTOMERS SET CREDITLIMIT = CREDITLIMIT + 1 "
                "WHERE CUSTOMERID = ?",
                [rng.randrange(10_000, next_id) if next_id > 10_000
                 else 23])
        else:
            cur.execute(
                "DELETE FROM CUSTOMERS WHERE CUSTOMERID = ?",
                [rng.randrange(10_000, next_id) if next_id > 10_000
                 else -1])
            live -= cur.rowcount
        write_seconds += time.perf_counter() - started
        writes += 1

    cur.execute("SELECT COUNT(*) FROM CUSTOMERS")
    final = cur.fetchall()[0][0]
    conn.close()
    if final != live:
        raise SystemExit(
            f"FAIL[{backend}]: final count {final} != oracle {live}")
    hit_rate = hits / (hits + misses)
    if hit_rate < MIN_HIT_RATE:
        raise SystemExit(
            f"FAIL[{backend}]: plan-cache hit rate {hit_rate:.1%} over "
            f"{hits + misses} mix reads is below {MIN_HIT_RATE:.0%}")
    read_mean = read_seconds / reads
    read_only_mean = read_only_seconds / reads
    slowdown = read_mean / read_only_mean
    if slowdown > MAX_READ_SLOWDOWN:
        raise SystemExit(
            f"FAIL[{backend}]: mix reads average {read_mean * 1e3:.3f} ms, "
            f"{slowdown:.2f}x the read-only pass's "
            f"{read_only_mean * 1e3:.3f} ms (bound {MAX_READ_SLOWDOWN}x)")
    return {
        "reads": reads, "writes": writes, "rollbacks": rollbacks,
        "read_qps": reads / read_seconds if read_seconds else 0.0,
        "write_qps": writes / write_seconds if write_seconds else 0.0,
        "hit_rate": hit_rate, "read_ms": read_mean * 1e3,
        "read_only_ms": read_only_mean * 1e3, "slowdown": slowdown,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--statements", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for backend in ("memory", "sqlite"):
        report = run_backend(backend, args.statements, args.seed)
        print(f"{backend:7s}: {report['reads']} reads "
              f"({report['read_qps']:.0f}/s), "
              f"{report['writes']} writes "
              f"({report['write_qps']:.0f}/s), "
              f"{report['rollbacks']} rollbacks; plan-cache hits "
              f"{report['hit_rate']:.1%}, reads {report['read_ms']:.3f} ms "
              f"vs read-only {report['read_only_ms']:.3f} ms "
              f"({report['slowdown']:.2f}x) — tokens + oracle + plan "
              f"cache OK")
    print("PASS")


if __name__ == "__main__":
    main()
