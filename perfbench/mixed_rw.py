"""``mixed_rw``: an 80/20 read/write mix on one connection over the demo
tables in the SQLite backend.

Reads are the C1–C5 complexity classes plus parameterized point
lookups; writes are UPDATE by key (one of them matching no row), INSERT
and DELETE. Most writes autocommit; one per round runs in a committed
explicit transaction and one in a transaction that rolls back, with a
read inside it. Every write bumps the runtime-wide statistics epoch
that keys the plan cache, so reads here recompile; the fix for that
should move ``p50_ms`` on this workload and nothing on ``report_warm``.

An independent Python model of the tables follows every write. The
checks compare each DML rowcount with the model, each read with the
reference SQL executor run over the model's state at that moment
(including the uncommitted state inside the transaction, and the
restored state after the rollback), and the final table contents.
"""

from __future__ import annotations

import datetime
import random
from decimal import Decimal

from base import Workload
from checks import compare_rowcount, compare_rows
from harness import peak_rss_mb

READS = (
    ("C1", "SELECT * FROM CUSTOMERS", ()),
    ("C2", "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS "
           "WHERE REGION = 'WEST' AND CREDITLIMIT > 500", ()),
    ("C3", "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C "
           "INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID "
           "WHERE P.PAYMENT > 50 ORDER BY P.PAYMENT DESC", ((1, False),)),
    ("C4", "SELECT C.REGION, COUNT(*), SUM(P.PAYMENT) FROM CUSTOMERS C "
           "INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID "
           "GROUP BY C.REGION HAVING COUNT(*) > 1 ORDER BY 2 DESC",
     ((1, False),)),
    ("C5", "SELECT INFO.NAME, INFO.TOTAL FROM "
           "(SELECT C.CUSTOMERNAME NAME, SUM(P.PAYMENT) TOTAL "
           "FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P "
           "ON C.CUSTOMERID = P.CUSTID GROUP BY C.CUSTOMERNAME) AS INFO "
           "WHERE INFO.TOTAL > (SELECT AVG(PAYMENT) FROM PAYMENTS) "
           "OR INFO.NAME IN (SELECT CUSTOMERNAME FROM CUSTOMERS "
           "WHERE REGION = 'WEST') ORDER BY INFO.NAME", ((0, True),)),
    ("customer", "SELECT CUSTOMERID, CUSTOMERNAME, REGION, CREDITLIMIT "
                 "FROM CUSTOMERS WHERE CUSTOMERID = ?", None),
)
ORDER_LOOKUP = "SELECT ORDERID, STATUS, AMOUNT FROM ORDERS WHERE ORDERID = ?"

SET_CREDIT = "UPDATE CUSTOMERS SET CREDITLIMIT = ? WHERE CUSTOMERID = ?"
SET_STATUS_NOWHERE = "UPDATE ORDERS SET STATUS = ? WHERE ORDERID = -1"
ADD_PAYMENT = "INSERT INTO PAYMENTS VALUES (?, ?, ?, ?)"
DROP_PAYMENT = "DELETE FROM PAYMENTS WHERE PAYMENTID = ?"
SET_AMOUNT = "UPDATE ORDERS SET AMOUNT = ? WHERE ORDERID = ?"

#: Reads between consecutive writes. Four distinct statements follow
#: each write, so no read repeats within one statistics epoch.
READS_PER_WRITE = 4


class Model:
    """The tables as immutable row tuples; every write makes a new
    state, so a read's expected answer is computed against exactly the
    state it ran on."""

    def __init__(self, storage) -> None:
        self.columns = {name: storage.table(name).columns
                        for name in storage.table_names()}
        self.state = {name: tuple(storage.table(name).rows)
                      for name in storage.table_names()}

    def update(self, table: str, key_column: int, key, column: int,
               value) -> int:
        rows = self.state[table]
        changed = [row[:column] + (value,) + row[column + 1:]
                   if row[key_column] == key else row for row in rows]
        count = sum(1 for row in rows if row[key_column] == key)
        self.state = {**self.state, table: tuple(changed)}
        return count

    def insert(self, table: str, row: tuple) -> int:
        self.state = {**self.state, table: self.state[table] + (row,)}
        return 1

    def delete(self, table: str, key_column: int, key) -> int:
        rows = self.state[table]
        kept = tuple(row for row in rows if row[key_column] != key)
        self.state = {**self.state, table: kept}
        return len(rows) - len(kept)

    def storage(self, state):
        from repro.engine import Storage

        storage = Storage()
        for name, rows in state.items():
            storage.create_table(name, self.columns[name]).insert_many(rows)
        return storage


class MixedReadWrite(Workload):
    name = "mixed_rw"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from repro.workloads import build_storage

        self.rng = random.Random(seed)
        self.model = Model(build_storage())
        self.customers = [row[0] for row in self.model.state["CUSTOMERS"]]
        self.orders = [row[0] for row in self.model.state["ORDERS"]]
        self.next_payment = 10_000
        self.next_read = 0
        #: (key, sql, params, model state, rows, order keys) per read.
        self.reads: list[tuple] = []

    def start(self) -> None:
        from setup_child import open_connection

        self.runtime, self.connection = open_connection(self.name)
        self.cursor = self.connection.cursor()

    def effective_config(self) -> dict:
        from harness import effective_config

        shown = effective_config(self.runtime)
        shown["backend"] = "sqlite"
        return shown

    # -- operations ------------------------------------------------------------

    def _read(self, recorder, key, sql, params=(), order=()) -> None:
        rows = self.read(recorder, self.cursor, key, sql, params,
                         keep=False)
        if rows is not None:
            self.reads.append((key, sql, params, self.model.state, rows,
                               order))

    def _reads(self, recorder, count: int) -> None:
        for _ in range(count):
            key, sql, order = READS[self.next_read % len(READS)]
            self.next_read += 1
            params = ()
            if order is None:
                params, order = (self.rng.choice(self.customers),), ()
            self._read(recorder, key, sql, params, order)

    def _write(self, recorder, key, sql, params, expected: int) -> None:
        rowcount = self.write(recorder, self.cursor, key, sql, params)
        if rowcount is not None:
            self.problems += compare_rowcount(rowcount, expected,
                                              label=f"{key} {params}")

    def run_round(self, recorder) -> None:
        rng, model = self.rng, self.model
        self._reads(recorder, READS_PER_WRITE)
        credit = Decimal(rng.randint(10_000, 500_000)) / 100
        customer = rng.choice(self.customers)
        self._write(recorder, "set_credit", SET_CREDIT, (credit, customer),
                    model.update("CUSTOMERS", 0, customer, 3, credit))

        self._reads(recorder, READS_PER_WRITE)
        self._write(recorder, "set_status_nowhere", SET_STATUS_NOWHERE,
                    (rng.choice(("OPEN", "SHIPPED")),), 0)

        self._reads(recorder, READS_PER_WRITE)
        payment = (self.next_payment, rng.choice(self.customers),
                   Decimal(rng.randint(100, 90_000)) / 100,
                   self._date(rng))
        self.next_payment += 1
        self._write(recorder, "add_payment", ADD_PAYMENT, payment,
                    model.insert("PAYMENTS", payment))

        self._reads(recorder, READS_PER_WRITE)
        connection = self.connection
        self.control(recorder, "begin", connection.begin)
        self._write(recorder, "drop_payment", DROP_PAYMENT, (payment[0],),
                    model.delete("PAYMENTS", 0, payment[0]))
        self.control(recorder, "commit", connection.commit)

        self._reads(recorder, READS_PER_WRITE - 1)
        order = rng.choice(self.orders)
        saved = model.state
        self.control(recorder, "begin", connection.begin)
        amount = Decimal(rng.randint(100, 90_000)) / 100
        self._write(recorder, "set_amount", SET_AMOUNT, (amount, order),
                    model.update("ORDERS", 0, order, 2, amount))
        self._read(recorder, "order_in_txn", ORDER_LOOKUP, (order,))
        self.control(recorder, "rollback", connection.rollback)
        model.state = saved
        self._read(recorder, "order_after_rollback", ORDER_LOOKUP,
                   (order,))

    @staticmethod
    def _date(rng):
        return datetime.date(2005, 1, 1) + datetime.timedelta(
            days=rng.randint(0, 364))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    # -- checks ----------------------------------------------------------------

    def check(self) -> list[str]:
        from repro.engine import SQLExecutor, TableProvider
        from repro.sql import parse_statement

        problems = list(self.problems)
        providers: dict[int, TableProvider] = {}
        expected_cache: dict = {}
        statements: dict[str, object] = {}
        for key, sql, params, state, rows, order in self.reads:
            cache_key = (sql, params, id(state))
            expected = expected_cache.get(cache_key)
            if expected is None:
                provider = providers.get(id(state))
                if provider is None:
                    provider = TableProvider(self.model.storage(state))
                    providers[id(state)] = provider
                statement = statements.get(sql)
                if statement is None:
                    statement = statements[sql] = parse_statement(sql)
                expected = SQLExecutor(provider, parameters=params) \
                    .execute(statement).rows
                expected_cache[cache_key] = expected
            problems += compare_rows(rows, expected, order,
                                     label=f"{key} {params}")
        # Final contents, read back through the driver.
        for table, rows in self.model.state.items():
            self.cursor.execute(f"SELECT * FROM {table}")
            problems += compare_rows(self.cursor.fetchall(), list(rows),
                                     label=f"final {table}")
        return problems

    def stop(self) -> None:
        self.connection.close()
