"""``adhoc_cold``: the paper's ad-hoc case (§3.2). Distinct generated
SELECTs over the demo application, cycled in a pool larger than the
256-entry statement and plan caches, so every execution misses both
and pays translate, XQuery parse and compile. Execution over the
6–7-row demo tables does almost nothing."""

from __future__ import annotations

from base import Workload
from checks import compare_rows
from harness import peak_rss_mb

#: Distinct statements per run. Cycling more than the caches hold in
#: LRU order makes every lookup a miss. The pool is larger than a 20-s
#: run executes, so a run's figures average over as many different
#: statements as it runs: over seeds 1-20, rows per statement spread
#: 6% between seeds with a pool of 600 and 3% with 2000.
POOL_SIZE = 2000
#: Statements per round.
ROUND = 8
#: Untimed statements run first: more than the caches hold.
WARM_STATEMENTS = 300


class AdhocCold(Workload):
    name = "adhoc_cold"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from repro.workloads import generate_query

        pool: list[str] = []
        seen: set[str] = set()
        draw = seed * 1_000_003
        while len(pool) < POOL_SIZE:
            sql = generate_query(draw)
            draw += 1
            if sql not in seen:
                seen.add(sql)
                pool.append(sql)
        self.pool = pool
        self.position = 0

    def start(self) -> None:
        from setup_child import open_connection

        self.runtime, self.connection = open_connection(self.name)
        self.cursor = self.connection.cursor()

    def effective_config(self) -> dict:
        from harness import effective_config

        return effective_config(self.runtime)

    def warm(self, recorder) -> None:
        """Fill both caches with other statements first, so the timed
        phase starts in the steady state it keeps: full caches evicting
        on every miss, and the heap the cached plans hold."""
        if self.smoke:
            return
        for _ in range(WARM_STATEMENTS // ROUND):
            self.run_round(recorder)

    def run_round(self, recorder) -> None:
        pool = self.pool
        for _ in range(ROUND):
            index = self.position % len(pool)
            self.position += 1
            sql = pool[index]
            order = ((0, True),) if sql.endswith(" ORDER BY 1") else ()
            self.read(recorder, self.cursor, index, sql, (), order)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def check(self) -> list[str]:
        """Each distinct statement's first result against the reference
        SQL executor over a separately built copy of the demo data."""
        from repro.engine import SQLExecutor, TableProvider
        from repro.sql import parse_statement
        from repro.workloads import build_storage

        oracle = SQLExecutor(TableProvider(build_storage()))
        problems = list(self.problems)
        for index, (rows, _digest, order) in sorted(self.results.items()):
            sql = self.pool[index]
            expected = oracle.execute(parse_statement(sql)).rows
            problems += compare_rows(rows, expected, order, label=sql)
        return problems

    def stop(self) -> None:
        self.connection.close()
