"""The plan cache's invalidation contract: a cached plan carries the
statistics it was costed with (its *basis*) and is re-planned only when
one of its own tables drifts by ``STATS_DRIFT_FACTOR`` — never because
some write happened somewhere.

Each case warms one read, applies a write (or a transaction), re-runs
the read, and checks the plan cache's counters: a surviving plan is a
hit, a drifted one is a miss that also counts as a replan.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.engine.dsp import stats_drifted
from repro.sources.spi import ColumnStats, TableStatistics
from repro.sources.sqlite import SQLiteSource
from repro.sql.types import SQLType

BACKENDS = ("memory", "sqlite")
READ_T = "SELECT ID, GRP FROM T WHERE GRP = 'g1'"
READ_T_IDS = "SELECT ID FROM T WHERE ID > 2"
READ_U = "SELECT ID FROM U WHERE ID > 1"


@pytest.fixture(autouse=True)
def _cost_planning_on(monkeypatch):
    # Plans only carry a basis when the cost planner reads statistics;
    # the forced cost-off CI leg must not turn these into no-ops.
    monkeypatch.delenv("REPRO_COST_PLANNING", raising=False)


def make_storage(rows: int = 8) -> Storage:
    storage = Storage()
    storage.create_table("T", [("ID", SQLType("INTEGER")),
                               ("GRP", SQLType("VARCHAR"))]) \
        .insert_many([(i, f"g{i}") for i in range(1, rows + 1)])
    storage.create_table("U", [("ID", SQLType("INTEGER"))]) \
        .insert_many([(i,) for i in range(1, 5)])
    return storage


def make_runtime(backend: str, storage: Storage | None = None):
    storage = make_storage() if storage is None else storage
    source = (SQLiteSource.from_storage(storage, name="sqlite")
              if backend == "sqlite" else storage)
    application = Application("BasisApp")
    import_tables(application, "Data", source)
    return DSPRuntime(application, source, config=RuntimeConfig())


class Rig:
    def __init__(self, backend: str, storage: Storage | None = None):
        self.runtime = make_runtime(backend, storage)
        self.connection = connect(self.runtime)
        self.cursor = self.connection.cursor()

    def run(self, sql: str, params=()):
        self.cursor.execute(sql, params)
        if self.cursor.description is not None:
            return self.cursor.fetchall()
        return self.cursor.rowcount

    def counters(self) -> dict:
        stats = self.runtime.plan_cache.stats()
        return {key: stats[key] for key in ("hits", "misses", "replans")}

    def close(self) -> None:
        self.connection.close()


@pytest.fixture(params=BACKENDS)
def rig(request):
    rig = Rig(request.param)
    yield rig
    rig.close()


def assert_survives(rig: Rig, sql: str, write) -> tuple:
    """The plan for *sql* outlives *write*; returns the rows before and
    after it."""
    rows_before = rig.run(sql)
    before = rig.counters()
    write()
    rows = rig.run(sql)
    after = rig.counters()
    assert after == {**before, "hits": before["hits"] + 1}, (before, after)
    return rows_before, rows


def assert_replans(rig: Rig, sql: str, write) -> None:
    """*write* drifts a basis table of *sql*'s plan: one replan."""
    rig.run(sql)
    before = rig.counters()
    write()
    rig.run(sql)
    after = rig.counters()
    assert after == {"hits": before["hits"],
                     "misses": before["misses"] + 1,
                     "replans": before["replans"] + 1}, (before, after)
    # The re-planned entry is current again: the next run hits.
    rig.run(sql)
    assert rig.counters()["hits"] == after["hits"] + 1


class TestPlansSurviveWrites:
    def test_zero_row_write(self, rig):
        def write():
            assert rig.run("UPDATE T SET GRP = 'x' WHERE ID = -1") == 0

        before, after = assert_survives(rig, READ_T, write)
        assert before == after

    def test_write_to_a_table_the_plan_does_not_scan(self, rig):
        def write():
            for i in range(100, 120):
                rig.run("INSERT INTO U VALUES (?)", (i,))

        assert_survives(rig, READ_T, write)

    def test_committed_insert_delete_pair(self, rig):
        def write():
            rig.connection.begin()
            rig.run("INSERT INTO T VALUES (100, 'g1')")
            rig.run("DELETE FROM T WHERE ID = 100")
            rig.connection.commit()

        before, after = assert_survives(rig, READ_T, write)
        assert before == after

    def test_rollback(self, rig):
        def write():
            rig.connection.begin()
            for i in range(100, 120):
                rig.run("INSERT INTO T VALUES (?, 'g1')", (i,))
            rig.connection.rollback()

        before, after = assert_survives(rig, READ_T, write)
        assert before == after

    def test_growth_below_the_drift_factor(self, rig):
        def write():
            for i in range(100, 107):  # 8 -> 15 rows: under 2x
                rig.run("INSERT INTO T VALUES (?, ?)", (i, f"g{i}"))

        assert_survives(rig, READ_T, write)


class TestPlansReplanOnDrift:
    def test_row_count_doubles(self, rig):
        def write():
            for i in range(100, 108):  # 8 -> 16 rows
                rig.run("INSERT INTO T VALUES (?, 'g1')", (i,))

        assert_replans(rig, READ_T, write)

    def test_ndv_halves(self, rig):
        def write():
            # GRP: 8 distinct values -> 4, row count unchanged.
            assert rig.run("UPDATE T SET GRP = 'g1' WHERE ID <= 5") == 5

        assert_replans(rig, READ_T, write)

    def test_only_the_drifted_tables_plans_replan(self, rig):
        rig.run(READ_U)

        def write():
            for i in range(100, 108):
                rig.run("INSERT INTO T VALUES (?, 'g1')", (i,))

        assert_replans(rig, READ_T, write)
        before = rig.counters()
        rig.run(READ_U)
        assert rig.counters() == {**before, "hits": before["hits"] + 1}

    def test_replans_surface_in_connection_stats(self, rig):
        rig.run(READ_T)
        for i in range(100, 108):
            rig.run("INSERT INTO T VALUES (?, 'g1')", (i,))
        rig.run(READ_T)
        stats = rig.connection.stats()
        assert stats["plan_cache"]["replans"] == 1
        assert stats["runtime"]["counters"]["plan_cache.replans"] == 1


class TestOutOfBandWrites:
    def test_insert_into_storage_compiles_once(self):
        """A compile that itself refreshes statistics (the token moved
        under the cache) stores a plan the very next lookup accepts."""
        storage = make_storage()
        rig = Rig("memory", storage)
        try:
            rig.run(READ_T_IDS)  # caches T's statistics
            storage.table("T").insert(50, "g1")
            before = rig.counters()
            first = rig.run(READ_T)
            second = rig.run(READ_T)
            after = rig.counters()
            assert first == second
            assert after["misses"] == before["misses"] + 1
            assert after["hits"] == before["hits"] + 1
            assert after["replans"] == 0
        finally:
            rig.close()


class TestRegistration:
    def test_register_source_clears_the_plan_cache(self):
        rig = Rig("memory")
        try:
            rig.run(READ_T)
            assert len(rig.runtime.plan_cache) == 1
            rig.runtime.register_source(
                SQLiteSource.from_storage(make_storage(), name="extra"))
            assert len(rig.runtime.plan_cache) == 0
        finally:
            rig.close()


class TestDriftRule:
    @staticmethod
    def stats(rows: int, ndv: int = 1) -> TableStatistics:
        return TableStatistics(row_count=rows,
                               columns={"C": ColumnStats(ndv=ndv)})

    @pytest.mark.parametrize("before,after,drifted", [
        (8, 8, False), (8, 15, False), (8, 16, True), (8, 4, True),
        (8, 5, False), (0, 1, False), (0, 2, True), (1, 0, False),
        (2, 0, True),
    ])
    def test_row_count(self, before, after, drifted):
        assert stats_drifted(self.stats(before), self.stats(after)) \
            is drifted

    @pytest.mark.parametrize("before,after,drifted", [
        (6, 3, True), (6, 4, False), (3, 6, True), (0, 1, False),
    ])
    def test_ndv(self, before, after, drifted):
        assert stats_drifted(self.stats(10, before),
                             self.stats(10, after)) is drifted

    def test_missing_statistics_or_column_is_drift(self):
        basis = self.stats(10, 3)
        assert stats_drifted(basis, None)
        assert stats_drifted(basis, TableStatistics(row_count=10))
