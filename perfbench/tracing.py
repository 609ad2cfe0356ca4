"""Span tracer for the traced benchmark run.

Wraps public functions of each layer of ``repro`` from outside the
package (nothing under ``src/`` is edited) and records one span per
call: name, start, end, parent span and the benchmark op it belongs to.
Spans stay in memory and are written out by :meth:`Tracer.dump` when
the run ends.  Self time is a span's duration minus the part covered by
its child spans, so the self times of one op's spans sum to its wall.

Wrappers are installed per traced op and removed afterwards, so
untraced ops run the unwrapped code.  Pool workers are forkserver
children and never see the wrappers; their work is reported through
``JobRecord`` by the runner wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Technique spans whose self time and call count are split by the
#: nearest enclosing caller: the profiler's epoch loop or the document
#: round trip in persistence.
SPLIT_SPANS = (
    "core.snapshot.take",
    "core.builder.build",
    "core.estimator.breakdown",
    "core.analyzer.analyze",
    "core.materializer.ingest",
)

PROFILER_RUN = "core.profiler.run"
FROM_DOCUMENT = "core.persistence.from_document"
OP_SPAN = "bench.op"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder plus per-name aggregates."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index, op_id)`` per finished span.
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # Open frames: [name, start, child_time, index, context].
        self._stack: List[list] = []
        self._op = -1
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def push(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        if name in (PROFILER_RUN, FROM_DOCUMENT):
            context = "profiler" if name == PROFILER_RUN else "persistence"
        else:
            context = parent[4] if parent is not None else "other"
        # Reserve the span's slot so children can name it as parent.
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        frame = [name, time.perf_counter(), 0.0, index, context]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> float:
        end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, index, context = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = (name, start, end,
                             parent[3] if parent is not None else -1, self._op)
        key = f"{name}.{context}" if name in SPLIT_SPANS else name
        self.self_s[key] += duration - child
        self.calls[key] += 1
        return duration

    def op(self, op_id: int, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` as benchmark op ``op_id`` with wrappers installed."""
        self._op = op_id
        self.install()
        try:
            frame = self.push(OP_SPAN)
            try:
                out = fn()
            finally:
                wall = self.pop(frame)
        finally:
            self.uninstall()
        return out, wall

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn: Callable,
              before: Optional[Callable[[tuple], Any]] = None,
              after: Optional[Callable[[tuple, Any, Any], None]] = None
              ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``after(args, out, state)`` once the call returned.
        ``after`` is the tracer's own counting, so it runs in a
        bookkeeping span that keeps it out of every layer's self time.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            frame = tracer.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if after is not None:
                frame = tracer.push(BOOKKEEPING)
                try:
                    after(args, out, state)
                finally:
                    tracer.pop(frame)
            return out

        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module: Any, attr: str, wrapper: Any) -> None:
        """Rebind a module function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def install(self) -> None:
        from repro.core import persistence, profiler
        from repro.core.analyzer import PFAnalyzer
        from repro.core.builder import PFBuilder
        from repro.core.estimator import PFEstimator
        from repro.core.materializer import PFMaterializer
        from repro.core.snapshot import SnapshotTaker
        from repro.exec import hashing, runner
        from repro.exec.cache import ResultCache
        from repro.exec.pool import WorkerPool
        from repro.sim.machine import Machine

        counts = self.counts

        def events_before(args) -> int:
            return args[0].engine.events_executed

        def events_after(args, _out, before: int) -> None:
            counts["sim.engine.events"] += \
                args[0].engine.events_executed - before

        def profiled(args, result, _state) -> None:
            counts["core.profiler.epochs"] += result.num_epochs
            counts["sim.mem_ops"] += sum(
                app.workload.num_ops for app in args[0].spec.apps)

        def cache_read(_args, result, _state) -> None:
            counts["exec.cache.hits" if result is not None
                   else "exec.cache.misses"] += 1

        def pool_closed(args, _out, _state) -> None:
            counts["exec.pool.spawned"] += args[0].spawned
            counts["exec.pool.spawn_failures"] += args[0].spawn_failures

        def campaign_done(_args, campaign, _state) -> None:
            for record in campaign.jobs:
                counts["exec.runner.job_wall_s"] += record.wall_time
                counts["exec.runner.retries"] += max(0, record.attempts - 1)
                if record.status == "ok":
                    counts["exec.runner.events_executed"] += \
                        record.events_executed

        def document_sized(_args, document, _state) -> None:
            counts["core.persistence.document_bytes"] += len(
                json.dumps(document))

        self._patch(Machine, "__init__",
                    self._span("sim.machine.build", Machine.__init__))
        self._patch(Machine, "run",
                    self._span("sim.machine.run", Machine.run,
                               events_before, events_after))
        self._patch(profiler.PathFinder, "run",
                    self._span(PROFILER_RUN, profiler.PathFinder.run,
                               after=profiled))
        for owner, attr, name in (
            (SnapshotTaker, "take", "core.snapshot.take"),
            (PFBuilder, "build", "core.builder.build"),
            (PFEstimator, "breakdown", "core.estimator.breakdown"),
            (PFAnalyzer, "analyze", "core.analyzer.analyze"),
            (PFMaterializer, "ingest", "core.materializer.ingest"),
            (ResultCache, "put", "exec.cache.put"),
            (WorkerPool, "dispatch", "exec.pool.dispatch"),
            (WorkerPool, "poll", "exec.pool.wait"),
        ):
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        self._patch(ResultCache, "get",
                    self._span("exec.cache.get", ResultCache.get,
                               after=cache_read))
        self._patch(WorkerPool, "close",
                    self._span("exec.pool.close", WorkerPool.close,
                               after=pool_closed))
        self._patch_function(
            persistence, "result_to_document",
            self._span("core.persistence.to_document",
                       persistence.result_to_document, after=document_sized))
        self._patch_function(
            persistence, "result_from_document",
            self._span(FROM_DOCUMENT, persistence.result_from_document))
        self._patch_function(hashing, "job_key",
                             self._span("exec.hashing.job_key",
                                        hashing.job_key))
        self._patch_function(
            runner, "run_campaign",
            self._span("exec.runner.run_campaign", runner.run_campaign,
                       after=campaign_done))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write every span plus the aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
        }
        path.write_text(json.dumps(document))
