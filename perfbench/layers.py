"""Per-layer timing for the traced run, from the benchmark's own code.

``LayerTrace.install()`` wraps the public entry points of each layer at
the place where the driver calls them, and ``remove()`` puts the
originals back; the program itself carries no tracing for this. Every
wrapper adds the time spent inside the call to one bucket:

=====================  ==================================================
bucket                 wrapped call
=====================  ==================================================
``translator.stage1``  ``SQLToXQueryTranslator.stage1`` (SQL parse)
``translator.stage2``  ``SQLToXQueryTranslator.stage2`` (bind, metadata)
``translator.stage3``  ``SQLToXQueryTranslator.stage3`` (XQuery text)
``xquery.parse``       ``parse_xquery`` as called by ``DSPRuntime.prepare``
``xquery.compile``     ``compile_module`` as called by ``prepare``
``xquery.execute``     draining ``CompiledQuery.stream_chunks`` and
                       ``CompiledQuery.evaluate``
``driver.decode``      ``iter_decode_delimited`` / ``decode_delimited``
                       minus the executor time pulled from inside them
``dml.parse``          ``parse_mutation`` as called by the driver
``dml.plan``           ``plan_mutation`` as called by the driver
=====================  ==================================================

Cyclic garbage collection is timed through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

_clock = time.perf_counter


class LayerTrace:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    # -- wrappers ------------------------------------------------------------

    def _timed(self, bucket: str, function, after=None):
        seconds = self.seconds

        def wrapper(*args, **kwargs):
            started = _clock()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds[bucket] += _clock() - started
            if after is not None:
                after(result)
            return result
        return wrapper

    def _timed_iter(self, bucket: str, iterator):
        """Charge the time spent producing each item of *iterator*;
        closing this generator closes *iterator*, as the driver expects
        of the stream it releases."""
        seconds = self.seconds
        try:
            while True:
                started = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    seconds[bucket] += _clock() - started
                    return
                seconds[bucket] += _clock() - started
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _timed_stream(self, bucket: str, function):
        trace = self

        def wrapper(*args, **kwargs):
            started = _clock()
            iterator = iter(function(*args, **kwargs))
            trace.seconds[bucket] += _clock() - started
            return trace._timed_iter(bucket, iterator)
        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _count_xquery(self, result) -> None:
        self.counts["translator.xquery_chars"] += len(result.xquery)
        self.counts["translator.translations"] += 1

    def _count_plan(self, plan) -> None:
        self.counts["xquery.vector_plans" if plan.batched
                    else "xquery.tuple_plans"] += 1

    # -- lifecycle -------------------------------------------------------------

    def install(self, layers: bool = True) -> None:
        """Start timing; with *layers* False only garbage collection is
        timed (for a client whose engine runs in another process)."""
        gc.callbacks.append(self._on_gc)
        if not layers:
            return
        from repro.driver import dbapi
        from repro.engine import dsp
        from repro.translator.translator import SQLToXQueryTranslator
        from repro.xquery.compile import CompiledQuery

        translator = SQLToXQueryTranslator
        self._patch(translator, "stage1", self._timed(
            "translator.stage1", translator.stage1))
        self._patch(translator, "stage2", self._timed(
            "translator.stage2", translator.stage2))
        self._patch(translator, "stage3", self._timed(
            "translator.stage3", translator.stage3, self._count_xquery))
        self._patch(dsp, "parse_xquery", self._timed(
            "xquery.parse", dsp.parse_xquery))
        self._patch(dsp, "compile_module", self._timed(
            "xquery.compile", dsp.compile_module))
        runtime = dsp.DSPRuntime
        self._patch(runtime, "prepare", self._timed(
            "engine.prepare", runtime.prepare, self._count_plan))
        self._patch(CompiledQuery, "stream_chunks", self._timed_stream(
            "xquery.execute_stream", CompiledQuery.stream_chunks))
        self._patch(CompiledQuery, "evaluate", self._timed(
            "xquery.execute_eval", CompiledQuery.evaluate))
        self._patch(dbapi, "iter_decode_delimited", self._timed_stream(
            "driver.decode_total", dbapi.iter_decode_delimited))
        self._patch(dbapi, "decode_delimited", self._timed(
            "driver.decode_total", dbapi.decode_delimited))
        self._patch(dbapi, "parse_mutation", self._timed(
            "dml.parse", dbapi.parse_mutation))
        self._patch(dbapi, "plan_mutation", self._timed(
            "dml.plan", dbapi.plan_mutation))

    def remove(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
            return
        self.seconds["python.gc"] += _clock() - self._gc_started
        if info.get("generation") == 2:
            self.counts["python.gc_full_collections"] += 1

    def ms(self, bucket: str) -> float:
        return self.seconds.get(bucket, 0.0) * 1e3

    def execute_ms(self) -> float:
        return self.ms("xquery.execute_stream") + \
            self.ms("xquery.execute_eval")

    def decode_ms(self) -> float:
        """Decoder time less the executor time pulled from inside it
        (the streaming decoder drives the executor's chunk generator)."""
        return self.ms("driver.decode_total") - \
            self.ms("xquery.execute_stream")
