"""Unit tests for the connection-level TransactionManager.

Driven against fakes so the demarcation protocol — lock windows,
enlistment order, fan-out, counter bookkeeping — is pinned without a
real runtime in the loop. End-to-end transaction behavior lives in
tests/driver/test_transactions.py.
"""

import threading

import pytest

from repro.engine.dml import MutationPlan
from repro.engine.txn import TransactionManager
from repro.errors import NotSupportedError, ProgrammingError
from repro.sources.spi import DataSource, MutationResult


class FakeSource(DataSource):
    """Records the write/txn calls the manager makes, in order."""

    def __init__(self, name="fake"):
        super().__init__(name)
        self.calls = []
        self.fail_next_apply = False

    def tables(self):
        return ["T"]

    def columns(self, table):
        return []

    def version(self, table):
        return 0

    def scan(self, table, request=None, context=None):
        raise NotImplementedError

    def supports_write(self, table):
        return True

    def apply_mutations(self, mutations, expected_version=None):
        self.calls.append(("apply", expected_version))
        if self.fail_next_apply:
            self.fail_next_apply = False
            raise NotSupportedError("boom")
        return MutationResult(rowcount=2, lastrowid=7)

    def begin_txn(self):
        self.calls.append(("begin_txn",))

    def commit_txn(self):
        self.calls.append(("commit_txn",))

    def rollback_txn(self):
        self.calls.append(("rollback_txn",))


class FakeRuntime:
    def __init__(self):
        self.write_lock = threading.RLock()


def plan_for(source, version=0):
    return MutationPlan(source=source, table="T", version=version,
                        mutations=(), rowcount=2)


@pytest.fixture
def rig():
    runtime = FakeRuntime()
    return runtime, FakeSource(), TransactionManager(runtime)


class TestDemarcation:
    def test_begin_twice_raises(self, rig):
        _runtime, _source, manager = rig
        manager.begin()
        with pytest.raises(ProgrammingError, match="already in progress"):
            manager.begin()

    def test_commit_without_transaction_is_a_noop(self, rig):
        _runtime, _source, manager = rig
        manager.commit()
        assert manager.stats()["committed"] == 0

    def test_rollback_without_transaction_is_a_noop(self, rig):
        _runtime, _source, manager = rig
        manager.rollback()
        assert manager.stats()["rolled_back"] == 0

    def test_close_rolls_back_open_transaction(self, rig):
        runtime, source, manager = rig
        manager.begin()
        manager.run(lambda: plan_for(source))
        manager.close()
        assert ("rollback_txn",) in source.calls
        assert not manager.in_transaction


class TestAutocommit:
    def test_statement_applies_and_notes_the_write(self, rig):
        runtime, source, manager = rig
        result = manager.run(lambda: plan_for(source, version=41))
        assert result.rowcount == 2
        assert source.calls == [("apply", 41)]
        stats = manager.stats()
        assert stats["autocommits"] == 1
        assert stats["statements"] == 1
        assert stats["rows_written"] == 2
        # No transaction machinery for a lone autocommit statement.
        assert ("begin_txn",) not in source.calls

    def test_lock_released_after_statement(self, rig):
        runtime, source, manager = rig
        manager.run(lambda: plan_for(source))
        # Re-acquirable from another thread == it was released.
        acquired = []

        def probe():
            got = runtime.write_lock.acquire(timeout=1)
            if got:
                runtime.write_lock.release()
            acquired.append(got)

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert acquired == [True]


class TestExplicitTransaction:
    def test_source_enlisted_once_commit_fans_out(self, rig):
        runtime, source, manager = rig
        manager.begin()
        manager.run(lambda: plan_for(source))
        manager.run(lambda: plan_for(source))
        assert source.calls.count(("begin_txn",)) == 1
        manager.commit()
        assert source.calls[-1] == ("commit_txn",)
        assert not manager.in_transaction

    def test_enlistment_in_first_write_order(self, rig):
        runtime, _source, manager = rig
        first, second = FakeSource("first"), FakeSource("second")
        order = []
        first.commit_txn = lambda: order.append("first")
        second.commit_txn = lambda: order.append("second")
        manager.begin()
        manager.run(lambda: plan_for(first))
        manager.run(lambda: plan_for(second))
        manager.run(lambda: plan_for(first))
        manager.commit()
        assert order == ["first", "second"]

    def test_rollback_fans_out_and_notes_the_write(self, rig):
        runtime, source, manager = rig
        manager.begin()
        manager.run(lambda: plan_for(source))
        manager.rollback()
        assert source.calls[-1] == ("rollback_txn",)
        assert manager.stats()["rolled_back"] == 1

    def test_empty_transaction_touches_no_source(self, rig):
        _runtime, source, manager = rig
        manager.begin()
        manager.commit()
        assert source.calls == []
        assert manager.stats()["committed"] == 1

    def test_lock_held_across_statements_released_on_commit(self, rig):
        runtime, source, manager = rig
        manager.begin()
        manager.run(lambda: plan_for(source))

        def try_acquire():
            got = runtime.write_lock.acquire(timeout=0.05)
            if got:
                runtime.write_lock.release()
            return got

        results = []
        thread = threading.Thread(
            target=lambda: results.append(try_acquire()))
        thread.start()
        thread.join()
        assert results == [False]  # held by the open transaction
        manager.commit()
        thread = threading.Thread(
            target=lambda: results.append(try_acquire()))
        thread.start()
        thread.join()
        assert results == [False, True]


class TestBatches:
    def test_autocommit_batch_is_one_implicit_transaction(self, rig):
        runtime, source, manager = rig
        results = manager.run_batch([lambda: plan_for(source)] * 3)
        assert [r.rowcount for r in results] == [2, 2, 2]
        assert source.calls.count(("begin_txn",)) == 1
        assert source.calls[-1] == ("commit_txn",)
        stats = manager.stats()
        assert stats["statements"] == 3
        assert stats["autocommits"] == 1

    def test_failing_batch_rolls_back_whole_batch(self, rig):
        runtime, source, manager = rig
        factories = [lambda: plan_for(source)] * 3

        def arm_and_plan():
            source.fail_next_apply = True
            return plan_for(source)

        with pytest.raises(NotSupportedError):
            manager.run_batch(
                [lambda: plan_for(source), arm_and_plan] + factories)
        assert source.calls[-1] == ("rollback_txn",)
        assert not manager.in_transaction

    def test_batch_inside_transaction_just_accumulates(self, rig):
        runtime, source, manager = rig
        manager.begin()
        manager.run_batch([lambda: plan_for(source)] * 2)
        assert source.calls.count(("begin_txn",)) == 1
        assert ("commit_txn",) not in source.calls
        assert manager.in_transaction
        manager.rollback()


class TestStats:
    def test_stats_shape(self, rig):
        _runtime, source, manager = rig
        manager.begin()
        manager.run(lambda: plan_for(source))
        snapshot = manager.stats()
        assert snapshot == {
            "active": True,
            "begun": 1,
            "committed": 0,
            "rolled_back": 0,
            "autocommits": 0,
            "statements": 1,
            "rows_written": 2,
        }
        manager.rollback()
        assert manager.stats()["active"] is False
        assert manager.stats()["rolled_back"] == 1
