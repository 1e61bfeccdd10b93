"""In-memory span recorder for the benchmark's traced runs.

A traced run replaces each layer's public function at the place where
its caller looks it up (for example ``repro.core.strategy.
bind_application``, because ``strategy`` imports the name directly)
with a wrapper that records one span per call: layer name, start, end,
the enclosing span on the same thread and the operation the span
belongs to.  Spans stay in memory; :meth:`Recorder.layer_table` folds
them into count, total and self time per layer, and
:meth:`Recorder.chrome_trace` writes them as a Chrome/Perfetto trace.

Timed (untraced) rounds run with every wrapper removed.
"""

from __future__ import annotations

import importlib
import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> places its public function is looked up, as
#: ("module", "attribute") or ("module", "Class.method")
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "preflight": (("repro.analysis.engine", "preflight_check"),),
    "binding": (("repro.core.strategy", "bind_application"),),
    "binding_aware": (
        ("repro.core.strategy", "build_binding_aware_graph"),
        ("repro.exact.search", "build_binding_aware_graph"),
    ),
    "scheduling": (
        ("repro.core.strategy", "build_static_order_schedules"),
        ("repro.exact.search", "build_static_order_schedules"),
    ),
    "slices": (("repro.core.strategy", "allocate_time_slices"),),
    "engine": (
        ("repro.core.slices", "constrained_throughput"),
        ("repro.exact.search", "constrained_throughput"),
    ),
    "exact_bounds": (("repro.exact.search", "partial_throughput_bound"),),
    "verify": (
        ("repro.verify.allocation", "certify_allocation"),
        ("repro.service.service", "certify_allocation"),
    ),
    "submit": (("repro.service.service", "AllocationService.submit"),),
    "canonical": (("repro.service.service", "canonicalise_request"),),
    "journal_write": (("repro.service.journal", "JobJournal.write"),),
    "cache_lookup": (("repro.service.cache", "ResultCache.lookup"),),
    "cache_store": (("repro.service.cache", "ResultCache.store"),),
    "sandbox": (("repro.service.service", "run_sandboxed"),),
}

#: layer -> name of its call-count metric (default ``<layer>_calls``)
COUNT_NAMES = {"journal_write": "journal_writes"}

#: name of the root span the benchmark opens around each operation
OPERATION = "op"


@dataclass
class Span:
    name: str
    span_id: int
    parent: Optional[int]
    op: str
    thread: int
    start: float
    end: float = 0.0


class Recorder:
    """Collects spans from every thread while layer wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.states_explored = 0
        self.queue_waits: List[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        #: service job id -> the operation that submitted it
        self._job_ops: Dict[str, str] = {}
        #: job id -> perf instant its submit returned / its first layer call
        self._submitted: Dict[str, float] = {}
        self._first_call: Dict[str, float] = {}

    # -- operation scope ---------------------------------------------
    def set_op(self, op: Optional[str]) -> None:
        """Tag later spans of the calling thread with operation ``op``."""
        self._local.op = op

    def current_op(self) -> str:
        return getattr(self._local, "op", None) or "-"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            name=name,
            span_id=span_id,
            parent=stack[-1].span_id if stack else None,
            op=self.current_op(),
            thread=threading.get_ident(),
            start=perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- wrappers ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function at its callers' lookup places."""
        for layer, places in LAYERS.items():
            for module_name, attribute in places:
                owner: Any = importlib.import_module(module_name)
                *classes, name = attribute.split(".")
                for class_name in classes:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[name]
                setattr(owner, name, self._wrap(layer, original))
                self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, layer: str, function: Callable) -> Callable:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if layer == "journal_write":
                recorder._enter_job(args[1])
            span = recorder.open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            if layer == "engine":
                with recorder._lock:
                    recorder.states_explored += result.states_explored
            elif layer == "submit":
                recorder._job_mark(result, submitted=span.end)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- service job bookkeeping -------------------------------------
    def _enter_job(self, record: Dict[str, Any]) -> None:
        """Carry the submitting operation over to the worker thread.

        ``submit`` journals the new job, ``queued``, on the client's
        thread before any worker can see it; a worker's first layer
        call for a job is the journal write that marks it ``running``,
        which starts the job's scope on that thread and ends its queue
        wait.
        """
        if record.get("state") == "queued" and record.get("attempts") == 0:
            with self._lock:
                self._job_ops[record["id"]] = self.current_op()
        elif record.get("state") == "running":
            with self._lock:
                op = self._job_ops.get(record["id"], record["id"])
            self.set_op(op)
            self._job_mark(record["id"], first_call=perf_counter())

    def _job_mark(
        self,
        job: str,
        submitted: Optional[float] = None,
        first_call: Optional[float] = None,
    ) -> None:
        with self._lock:
            if submitted is not None:
                self._submitted[job] = submitted
            if first_call is not None:
                self._first_call.setdefault(job, first_call)
            if job in self._submitted and job in self._first_call:
                # submit can return after the worker picked the job up;
                # that job did not wait at all
                self.queue_waits.append(
                    max(
                        0.0,
                        self._first_call.pop(job) - self._submitted.pop(job),
                    )
                )

    # -- reports -----------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover.  Children run nested inside their parent on its
        thread, except for a service job: the layer calls a worker
        thread makes for it are children of the client's operation span,
        matched by the operation identifier.  Children of one span do
        not overlap, except where a worker picks a job up before its
        ``submit`` span has ended (then self time is slightly low).
        """
        operations = {
            span.op: span.span_id
            for span in self.spans
            if span.name == OPERATION
        }
        child_time: Dict[int, float] = {}
        for span in self.spans:
            parent = span.parent
            if parent is None and span.name != OPERATION:
                parent = operations.get(span.op)
            if parent is not None:
                child_time[parent] = (
                    child_time.get(parent, 0.0) + span.end - span.start
                )
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span.span_id, 0.0)
        return table

    def chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome/Perfetto complete events."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span.start for span in self.spans)
        events = [
            {
                "name": span.name,
                "cat": "layer",
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": span.thread,
                "args": {
                    "id": span.span_id,
                    "parent": span.parent,
                    "op": span.op,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
