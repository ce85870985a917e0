"""``remote_warm``: warm reads through ``repro+tcp://``. The server runs
in its own process (``python -m repro.server`` over the scaled FACTS
table, 20k rows); the client is this process. Reads are parameterized
one-row lookups and ordered range pages of 300 and 3000 rows fetched
500 rows per round trip, so the wire and the delimited → row →
tagged-JSON → row codec chain carry the cost. Expected rows and their
cell types come from the data formula."""

from __future__ import annotations

import os
import random
import secrets
import signal
import socket
import subprocess
import sys
import time

import scaled
from base import Workload
from checks import compare_rows, compare_types
from harness import ROOT, child_environment, peak_rss_mb

LOOKUP = "SELECT ID, NAME, REGION, AMOUNT FROM FACTS WHERE ID = ?"
PAGE = ("SELECT ID, NAME, REGION, AMOUNT FROM FACTS "
        "WHERE ID >= ? AND ID < ? ORDER BY ID")
PAGE_ORDER = ((0, True),)
#: Rows per fetch round trip.
FETCH_ROWS = 500
#: Lookups per page statement in a round; the median falls among the
#: lookups and the tail among the 3000-row pages.
LOOKUPS_PER_PAGE = 4
PAGE_SIZES = (300, 3000)


class Server:
    """One ``python -m repro.server`` child process."""

    def __init__(self) -> None:
        self.token = secrets.token_hex(8)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--host", "127.0.0.1",
             "--port", "0", "--token", self.token,
             "--app", "scaled:server_runtime"],
            cwd=str(ROOT), env=child_environment(),
            stdout=subprocess.PIPE, text=True)
        try:
            line = self.process.stdout.readline()
            if " on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        """Poll the public ``health`` verb until the server answers."""
        from repro.server.protocol import recv_frame, send_frame

        deadline = time.monotonic() + timeout
        while True:
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=5) as sock:
                    send_frame(sock, {"op": "health", "id": 1})
                    if recv_frame(sock).get("ok"):
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    @property
    def dsn(self) -> str:
        return (f"repro+tcp://127.0.0.1:{self.port}/BenchApp/Bench"
                f"?token={self.token}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()


class RemoteWarm(Workload):
    name = "remote_warm"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # Client and server share one CPU (the server inherits this
        # process's affinity). Left to the scheduler, the pair ran on one
        # CPU in some runs and on two in others, and cross-CPU wake-ups
        # moved the lookup median between about 1.7 and 4.8 ms.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.rng = random.Random(seed)
        self.server = None
        self.connection = None
        self.runs: list[tuple] = []  # (sql, params, rows, order keys)
        self.embedded = None
        self.twin_seconds = 0.0
        self.protocol_seconds = 0.0
        self.wire_bytes = 0

    # -- set-up ------------------------------------------------------------------

    def _open(self):
        """Start a server until it answers ``health``, connect, and list
        the catalogue."""
        from harness import pinned_config
        from repro import connect
        from setup_child import list_catalogue

        server = Server()
        try:
            connection = connect(server.dsn, config=pinned_config())
            list_catalogue(connection)
        except BaseException:
            server.stop()
            raise
        return server, connection

    def setup_once(self) -> float:
        started = time.perf_counter()
        server, connection = self._open()
        elapsed = time.perf_counter() - started
        connection.close()
        server.stop()
        return elapsed

    def start(self) -> None:
        self.server, self.connection = self._open()
        self.cursor = self.connection.cursor()
        self.cursor.arraysize = FETCH_ROWS

    def effective_config(self) -> dict:
        from harness import effective_config

        shown = effective_config()
        shown.update(transport="repro+tcp", fetch_rows=FETCH_ROWS,
                     server_rows=scaled.REMOTE_ROWS)
        return shown

    def stop(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.server is not None:
            self.server.stop()

    # -- statements ----------------------------------------------------------

    def _statements(self):
        rng = self.rng
        for size in PAGE_SIZES:
            for _ in range(LOOKUPS_PER_PAGE):
                yield LOOKUP, (rng.randrange(scaled.REMOTE_ROWS),), ()
            low = rng.randrange(scaled.REMOTE_ROWS - size)
            yield PAGE, (low, low + size), PAGE_ORDER

    def warm(self, recorder) -> None:
        self.run_round(recorder)

    def run_round(self, recorder) -> None:
        for sql, params, order in self._statements():
            rows = self.fetch(recorder, sql, params)
            if rows is not None:
                self.runs.append((sql, params, rows, order))
                if self.embedded is not None:
                    self._traced_extras(sql, params, rows)

    def fetch(self, recorder, sql, params):
        """One timed remote read: execute, then ``fetchmany`` pages
        until the result is drained."""
        recorder.attempted += 1
        cursor = self.cursor
        started = time.perf_counter()
        try:
            cursor.execute(sql, params)
            rows = []
            while True:
                page = cursor.fetchmany(FETCH_ROWS)
                if not page:
                    break
                rows.extend(page)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            recorder.failed += 1
            self.failures.append(f"{sql} {params}: "
                                 f"{type(exc).__name__}: {exc}")
            return None
        recorder.read(time.perf_counter() - started, len(rows))
        return rows

    def peak_rss_mb(self) -> float:
        """The server process hosts the engine."""
        return self.server.peak_rss_mb()

    # -- checks ----------------------------------------------------------------

    def check(self) -> list[str]:
        problems = list(self.problems)
        for sql, params, rows, order in self.runs:
            low = params[0]
            high = low + 1 if len(params) == 1 else params[1]
            expected = [scaled.fact(row_id) for row_id in range(low, high)]
            label = f"{sql} {params}"
            problems += compare_rows(rows, expected, order, label=label)
            problems += compare_types(rows, expected, label=label)
        return problems

    # -- traced run ----------------------------------------------------------

    def counters(self) -> dict:
        """Server-side counters from the session's stats document, and
        the client's own wire counters."""
        stats = self.connection.stats()
        counters = self.counters_from(stats)
        counters["wire.roundtrips"] = \
            stats["client"]["counters"]["wire.roundtrips"]
        return counters

    def layer_metrics(self, trace, recorder, before, after) -> dict:
        """Remote metrics only: the server's layers run in another
        process, so the in-process layer timers see nothing of them."""
        from base import PER_LAYER_UNITS

        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        metrics.update(self.counter_metrics(recorder, before, after))
        statements = max(recorder.statements, 1)
        # The stats request itself is one round trip.
        metrics["remote.roundtrips_per_stmt"] = (
            after["wire.roundtrips"] - before["wire.roundtrips"] - 1) \
            / statements
        metrics["remote.wire_ms"] = (
            recorder.busy_seconds - self.twin_seconds) * 1e3 / statements
        metrics["remote.protocol_ms"] = \
            self.protocol_seconds * 1e3 / statements
        metrics["remote.bytes_per_row"] = \
            self.wire_bytes / max(recorder.rows, 1)
        metrics.update(self.gc_metrics(trace, recorder))
        return metrics

    def install_trace(self, trace) -> None:
        """Before the traced phase: an embedded twin of the server's
        runtime (for ``remote.wire_ms``) and byte counting on the
        client's frames. Only garbage collection is timed in-process."""
        from repro import connect
        from repro.driver import remote
        from repro.server.protocol import pack_frame
        from harness import pinned_config

        runtime = scaled.build_runtime(scaled.REMOTE_ROWS)
        self.embedded = connect(runtime, config=pinned_config())
        self.embedded_cursor = self.embedded.cursor()
        for sql, params in ((LOOKUP, (0,)), (PAGE, (0, PAGE_SIZES[0]))):
            self.embedded_cursor.execute(sql, params)
            self.embedded_cursor.fetchall()
        send, receive = remote.send_frame, remote.recv_frame
        workload = self

        def counted_send(sock, message):
            sent = send(sock, message)
            workload.wire_bytes += sent
            return sent

        def counted_receive(sock, *args):
            reply = receive(sock, *args)
            workload.wire_bytes += len(pack_frame(reply))
            return reply

        self._saved_frames = (send, receive)
        remote.send_frame, remote.recv_frame = counted_send, counted_receive
        trace.install(layers=False)

    def remove_trace(self, trace) -> None:
        from repro.driver import remote

        trace.remove()
        remote.send_frame, remote.recv_frame = self._saved_frames
        self.embedded.close()
        self.embedded = None

    def _traced_extras(self, sql, params, rows) -> None:
        """The same statement embedded (for the wire share), and the
        protocol codec run over its rows from this process."""
        from repro.server.protocol import (decode_row, encode_row,
                                           pack_frame, unpack_payload)

        cursor = self.embedded_cursor
        started = time.perf_counter()
        cursor.execute(sql, params)
        cursor.fetchall()
        self.twin_seconds += time.perf_counter() - started
        started = time.perf_counter()
        frame = pack_frame({"rows": [encode_row(row) for row in rows]})
        [decode_row(wire) for wire in unpack_payload(frame[4:])["rows"]]
        self.protocol_seconds += time.perf_counter() - started
