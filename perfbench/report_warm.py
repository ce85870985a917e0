"""``report_warm``: a fixed set of reporting statements over the scaled
FACTS/DETAILS tables (10k and 20k rows, in memory), repeated so every
execution hits both caches. Translation does no work here; execution,
delimited encode and driver decode do it all. Expected answers are
recomputed in Python from the data formula."""

from __future__ import annotations

from collections import defaultdict

import scaled
from base import Workload
from checks import compare_rows
from harness import peak_rss_mb


def _filtered(facts, details):
    return [row for row in facts if row[3] is not None and row[3] > 90]


def _by_region(facts, details):
    groups = defaultdict(list)
    for row in facts:
        groups[row[2]].append(row[3])
    return [(region, len(amounts),
             sum(a for a in amounts if a is not None))
            for region, amounts in groups.items()]


def _joined(facts, details):
    return [(detail[1], facts[detail[1]][1], detail[2], detail[3])
            for detail in details if detail[1] < 2000]


def _top_amounts(facts, details):
    rows = [(row[0], row[1], row[3]) for row in facts
            if row[3] is not None]
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:100]


def _west_recent(facts, details):
    return [(row[0], row[1]) for row in facts
            if row[2] == "WEST" and row[0] < 5000]


def _by_name(facts, details):
    groups = defaultdict(list)
    for row in facts:
        if row[0] >= 5_000:
            groups[row[1]].append(row[3])
    return [(name, len(amounts),
             min(a for a in amounts if a is not None),
             max(a for a in amounts if a is not None))
            for name, amounts in groups.items()]


def _scan(facts, details):
    return list(facts)


#: (key, SQL, ORDER BY keys as (column, ascending), expected answer).
#: An odd number of statements with equal counts per round puts the
#: median inside one statement's cluster rather than between two.
#: GROUP BY stays on single tables: a GROUP BY over a join takes ~0.45 s
#: here, a third of it cyclic GC, and as the slowest statement it set
#: tail_ms with a run-to-run spread of 13–23% (see CHANGES.md).
STATEMENTS = (
    ("filter",
     "SELECT ID, NAME, REGION, AMOUNT FROM FACTS WHERE AMOUNT > 90",
     (), _filtered),
    ("group_region",
     "SELECT REGION, COUNT(*), SUM(AMOUNT) FROM FACTS GROUP BY REGION",
     (), _by_region),
    ("hash_join",
     "SELECT F.ID, F.NAME, D.QTY, D.SHIPDATE FROM FACTS F INNER JOIN "
     "DETAILS D ON F.ID = D.FACTID WHERE F.ID < 2000",
     (), _joined),
    ("top_n",
     "SELECT ID, NAME, AMOUNT FROM FACTS WHERE AMOUNT IS NOT NULL "
     "ORDER BY AMOUNT DESC, ID LIMIT 100",
     ((2, False), (0, True)), _top_amounts),
    ("filter_order",
     "SELECT ID, NAME FROM FACTS WHERE REGION = 'WEST' AND ID < 5000 "
     "ORDER BY ID DESC",
     ((0, False),), _west_recent),
    ("group_name",
     "SELECT NAME, COUNT(*), MIN(AMOUNT), MAX(AMOUNT) FROM FACTS "
     "WHERE ID >= 5000 GROUP BY NAME ORDER BY NAME",
     ((0, True),), _by_name),
    ("scan", "SELECT * FROM FACTS", (), _scan),
)


class ReportWarm(Workload):
    name = "report_warm"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # The statements and data are fixed; the seed only rotates the
        # order they run in within a round.
        shift = seed % len(STATEMENTS)
        self.statements = STATEMENTS[shift:] + STATEMENTS[:shift]

    def start(self) -> None:
        from setup_child import open_connection

        self.runtime, self.connection = open_connection(self.name)
        self.cursor = self.connection.cursor()

    def effective_config(self) -> dict:
        from harness import effective_config

        return effective_config(self.runtime)

    def warm(self, recorder) -> None:
        self.run_round(recorder)

    def run_round(self, recorder) -> None:
        for key, sql, order, _expected in self.statements:
            self.read(recorder, self.cursor, key, sql, (), order)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def check(self) -> list[str]:
        facts = scaled.facts(scaled.REPORT_ROWS)
        details = scaled.details(scaled.REPORT_ROWS)
        problems = list(self.problems)
        for key, sql, order, expected in self.statements:
            rows = self.results[key][0]
            problems += compare_rows(rows, expected(facts, details), order,
                                     label=key)
        return problems

    def stop(self) -> None:
        self.connection.close()
