"""Hierarchical span tracing for the design flow.

A *span* is one timed region of the flow -- a flow stage, a chip build
phase, an experiment run, a cache lookup -- with a name, wall-clock
start/duration, a parent (spans nest), and free-form attributes (block
name, bonding style, fold mode, cache hit/miss).  Spans are recorded by
a :class:`Tracer`; the module-level default tracer is what the flow
code writes to, so instrumentation needs no plumbing::

    from repro.obs import trace

    with trace.span("flow.place", block="ccx") as sp:
        ...                      # timed work
        sp.set(n_vias=4)         # attach results as attributes

Design rules:

* ``span()`` **always** times -- ``Span.duration_ms`` is valid even
  when the tracer is disabled, so callers (``stage_times_ms`` /
  ``phase_times_ms`` views) never need to special-case tracing.
* Only *recording* is gated by ``Tracer.enabled`` (and by the
  ``REPRO_TRACE=0`` environment variable for whole-process off).
* Start times are epoch seconds (``time.time``), durations come from
  ``time.perf_counter`` -- epoch starts let traces from different
  worker processes merge into one coherent timeline.
* Spans are identified by ``(worker, span_id)``: ids are unique within
  one process, the worker pid disambiguates across a pool.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: spans one tracer records at most, so unbounded sweeps cannot exhaust
#: memory
MAX_SPANS = 200_000
#: the innermost open span of the current execution context
_CURRENT: contextvars.ContextVar[Optional["Span"]] = \
    contextvars.ContextVar("repro_obs_current_span", default=None)


@dataclass
class Span:
    """One timed, named, attributed region of the flow."""

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    #: epoch seconds at open (merge-friendly across processes)
    start_s: float
    #: wall-clock length; written when the ``with`` block exits
    duration_ms: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: recording process pid; disambiguates ids across pool workers
    worker: int = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (one trace-file line, sans the type tag)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
            "worker": self.worker,
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Span":
        """Rebuild a span from its :meth:`to_dict` form."""
        return Span(name=d["name"], span_id=d["span_id"],
                    parent_id=d.get("parent_id"), depth=d.get("depth", 0),
                    start_s=d.get("start_s", 0.0),
                    duration_ms=d.get("duration_ms", 0.0),
                    attrs=dict(d.get("attrs", {})),
                    worker=d.get("worker", 0))


class Tracer:
    """Collects finished spans, hierarchically, in open order.

    Args:
        enabled: record spans (timing happens regardless).

    Recording stops at :data:`MAX_SPANS`; beyond it spans are timed but
    dropped (``dropped`` counts them).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.dropped = 0
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self.spans)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the current context and time its body."""
        parent = _CURRENT.get()
        sp = Span(name=name, span_id=next(self._ids),
                  parent_id=parent.span_id if parent is not None else None,
                  depth=parent.depth + 1 if parent is not None else 0,
                  start_s=time.time(), attrs=dict(attrs),
                  worker=os.getpid())
        record = self.enabled
        if record:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(sp)
            else:
                self.dropped += 1
        token = _CURRENT.set(sp)
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.duration_ms = (time.perf_counter() - t0) * 1e3
            _CURRENT.reset(token)

    def drain(self) -> List[Span]:
        """Return the recorded spans and clear the buffer."""
        spans, self.spans = self.spans, []
        return spans

    def clear(self) -> None:
        """Drop every recorded span and the drop counter."""
        self.spans = []
        self.dropped = 0


#: the process-wide default tracer; ``REPRO_TRACE=0`` starts it disabled
_TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "1") != "0")


def get_tracer() -> Tracer:
    """The current process-wide tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _TRACER
    old, _TRACER = _TRACER, tracer
    return old


def span(name: str, **attrs: Any):
    """Open a span on the process-wide tracer (the usual entry point)."""
    return _TRACER.span(name, **attrs)


def current_span() -> Optional[Span]:
    """The innermost open span of this execution context, if any."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` as the process-wide tracer."""
    old = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(old)


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily stop the process-wide tracer from recording."""
    tracer = get_tracer()
    was = tracer.enabled
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = was
