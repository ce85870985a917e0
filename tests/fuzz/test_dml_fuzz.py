"""The generative DML differential battery (PR 9's write-path harness).

Each case derives a schema, data, and a DML *script* — interleaved
INSERT/UPDATE/DELETE, read checkpoints, and begin/commit/rollback
points — from one integer seed, then replays the script on two legs
and demands identical per-statement outcomes: same rowcount, same
error class, same checkpoint rows, same final state. ``lastrowid`` is
deliberately outside the differential (backend-defined).

Legs:

* **memory vs SQLite** — the same script through the engine's two
  writable backends (copy-on-write swap vs SAVEPOINT atomicity);
* **embedded vs remote** — the same script over the wire through a
  live ``repro.server``, proving the protocol-v2 transaction verbs
  demarcate exactly like in-process calls.

The memory leg additionally asserts the version-token contract: every
rollback restores each table's token to its pre-transaction value, so
cached plans and statistics keyed on tokens become valid again.

Every leg also asserts the plan cache's invalidation contract. Each
runtime carries a ``BYSTANDER`` table no script touches. At the end of
a script, every plan that was cached before it and scans no table the
script wrote (the bystander's among them) must still be the very same
cached object — writes elsewhere never cost a plan its compile.

``REPRO_DML_FUZZ_SCRIPTS`` scales the battery (default 10 local
scripts + 4 remote scripts, ≥ 10 DML statements each — comfortably
past the 40-statement corpus floor the acceptance criteria name).
"""

from __future__ import annotations

import os
import re

import pytest

from repro.driver import Error, connect
from repro.server.core import TenantConfig, serve_in_thread
from repro.sql.types import SQLType

from .dmlgen import MutationFuzzer
from .harness import build_runtime, build_storage, typed
from .sqlgen import generate_schema

SCRIPTS = int(os.environ.get("REPRO_DML_FUZZ_SCRIPTS", "10"))
REMOTE_SCRIPTS = max(2, SCRIPTS // 3)
SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

_corpus = {"dml": 0}

BYSTANDER = "BYSTANDER"
BYSTANDER_READ = f"SELECT K, V FROM {BYSTANDER} WHERE V = 'v1' ORDER BY K"
_WRITE_TARGET = re.compile(r"(?:INSERT INTO|UPDATE|DELETE FROM) (\w+)")


def build_leg(schema, backend: str):
    """A runtime over *schema* plus a bystander table no script writes."""
    storage = build_storage(schema)
    storage.create_table(BYSTANDER, [("K", SQLType("INTEGER")),
                                     ("V", SQLType("VARCHAR"))]) \
        .insert_many([(i, f"v{i % 3}") for i in range(12)])
    return build_runtime(storage, backend, 0)


def written_tables(ops) -> set:
    return {_WRITE_TARGET.match(op[1]).group(1)
            for op in ops if op[0] == "dml"}


def _unwritten_plans(runtime, written: set) -> dict:
    """Cached plans none of whose statistics-basis tables is in
    *written* (plans without a basis never re-plan)."""
    return {key: plan for key, plan in runtime.plan_cache.copy().items()
            if not {local for (_uri, local), _stats in plan.stats_basis}
            & written}


def run_checked_leg(connection, runtime, ops, schema=None) -> list:
    """:func:`run_script_leg` bracketed by the plan-cache contract:
    *runtime* (the engine serving *connection*) must end the script
    still holding every unwritten plan it held before it."""
    written = written_tables(ops)
    cursor = connection.cursor()
    cursor.execute(BYSTANDER_READ)
    cursor.fetchall()
    before = _unwritten_plans(runtime, written)
    assert before, "the bystander read left no cached plan"
    outcomes = run_script_leg(connection, ops, schema=schema)
    misses = runtime.plan_cache.stats()["misses"]
    cursor.execute(BYSTANDER_READ)
    outcomes.append(("bystander", typed(cursor.fetchall())))
    cursor.close()
    assert runtime.plan_cache.stats()["misses"] == misses, \
        "the bystander read recompiled after writes to other tables"
    after = runtime.plan_cache.copy()
    for key, plan in before.items():
        assert after.get(key) is plan, (
            f"plan re-planned or dropped though the script wrote none "
            f"of its tables ({sorted(written)}): {key[0][:120]!r}")
    return outcomes


def _tokens(connection, schema) -> dict:
    source = connection._runtime._default_source
    return {table.name: source.version(table.name) for table in schema}


def run_script_leg(connection, ops, schema=None) -> list:
    """Replay *ops* on one connection, returning comparable outcomes.

    When *schema* is given (the embedded memory leg), every rollback
    additionally asserts the version-token restore contract.
    """
    outcomes = []
    pre_txn_tokens = None
    cursor = connection.cursor()
    for op in ops:
        if op[0] == "begin":
            if schema is not None:
                pre_txn_tokens = _tokens(connection, schema)
            connection.begin()
            outcomes.append(("begin",))
        elif op[0] in ("commit", "rollback"):
            getattr(connection, op[0])()
            if op[0] == "rollback" and schema is not None:
                assert _tokens(connection, schema) == pre_txn_tokens, \
                    "rollback must restore every table's version token"
            pre_txn_tokens = None
            outcomes.append((op[0],))
        elif op[0] == "dml":
            try:
                cursor.execute(op[1], op[2])
                outcomes.append(("ok", cursor.rowcount))
            except Error as exc:
                outcomes.append(("error", type(exc).__name__))
        else:  # read checkpoint
            try:
                cursor.execute(op[1])
                rows = cursor.fetchall()
                outcomes.append(("rows", typed(rows), cursor.rowcount))
            except Error as exc:
                outcomes.append(("error", type(exc).__name__))
    cursor.close()
    return outcomes


def assert_outcomes_agree(ops, a_name, a, b_name, b) -> None:
    assert len(a) == len(b)
    for op, left, right in zip(ops + [("bystander",)], a, b):
        assert left == right, (
            f"{a_name} {left!r} vs {b_name} {right!r} for op {op!r}")


def _script_for(case: int):
    schema_seed = SEED_BASE + case
    schema = generate_schema(schema_seed)
    fuzzer = MutationFuzzer(SEED_BASE * 1_000_003 + case, schema)
    ops = fuzzer.script(min_dml=10)
    _corpus["dml"] += sum(op[0] == "dml" for op in ops)
    return schema, ops


@pytest.mark.parametrize("case", range(SCRIPTS))
def test_dml_memory_vs_sqlite(case):
    schema, ops = _script_for(case)
    memory = connect(build_leg(schema, "memory"))
    sqlite = connect(build_leg(schema, "sqlite"))
    try:
        a = run_checked_leg(memory, memory._runtime, ops, schema=schema)
        b = run_checked_leg(sqlite, sqlite._runtime, ops)
        assert_outcomes_agree(ops, "memory", a, "sqlite", b)
    finally:
        memory.close()
        sqlite.close()


@pytest.mark.parametrize("case", range(REMOTE_SCRIPTS))
def test_dml_embedded_vs_remote(case):
    schema, ops = _script_for(1000 + case)
    embedded = connect(build_leg(schema, "memory"))
    server_runtime = build_leg(schema, "memory")
    tenant = TenantConfig(name="FuzzApp", runtime=server_runtime,
                          token="fuzz")
    with serve_in_thread(tenant) as handle:
        remote = connect(handle.dsn("FuzzApp", token="fuzz"))
        try:
            a = run_checked_leg(embedded, embedded._runtime, ops,
                                schema=schema)
            b = run_checked_leg(remote, server_runtime, ops)
            assert_outcomes_agree(ops, "embedded", a, "remote", b)
        finally:
            remote.close()
            embedded.close()


def test_rowcount_fetch_pattern_matrix():
    """Embedded and remote cursors must report the same ``rowcount``
    after *identical fetch sequences*, whatever the paging pattern —
    the regression surface behind the protocol's eager-exhaustion
    reporting."""
    schema = generate_schema(SEED_BASE + 7)
    table = max(schema, key=lambda t: len(t.rows))
    sql = (f"SELECT * FROM {table.name} ORDER BY "
           + ", ".join(c.name for c in table.columns))

    embedded = connect(build_runtime(schema, "memory", 0))
    server_runtime = build_runtime(schema, "memory", 0)
    tenant = TenantConfig(name="FuzzApp", runtime=server_runtime,
                          token="fuzz")
    n = len(table.rows)
    with serve_in_thread(tenant) as handle:
        remote = connect(handle.dsn("FuzzApp", token="fuzz"))
        try:
            for label, sizes in (
                    ("fetchall", None),
                    ("fetchone-loop", "ones"),
                    ("fetchmany-3", 3),
                    ("fetchmany-exact", max(1, n)),
                    ("iterate", "iter"),
            ):
                counts = {}
                for name, conn in (("embedded", embedded),
                                   ("remote", remote)):
                    cur = conn.cursor()
                    cur.execute(sql)
                    if sizes is None:
                        rows = cur.fetchall()
                    elif sizes == "ones":
                        rows = []
                        while True:
                            row = cur.fetchone()
                            if row is None:
                                break
                            rows.append(row)
                    elif sizes == "iter":
                        rows = list(cur)
                    else:
                        rows = []
                        while True:
                            chunk = cur.fetchmany(sizes)
                            if not chunk:
                                break
                            rows.extend(chunk)
                    counts[name] = (len(rows), cur.rowcount)
                    cur.close()
                assert counts["embedded"] == counts["remote"], (
                    f"{label}: {counts!r}")
                assert counts["embedded"] == (n, n), (
                    f"{label}: {counts!r}")
        finally:
            remote.close()
            embedded.close()


def test_zz_dml_corpus_size():
    """The acceptance criteria demand a ≥ 40-statement DML corpus; the
    scripts above must clear that floor even at the default scale.
    (Named zz so it runs after the cases.)"""
    assert _corpus["dml"] >= 40, _corpus
