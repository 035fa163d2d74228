"""Fault-injection hooks: where an active plan actually bites.

The flow calls two tiny hooks:

* :func:`fault_point` at stage boundaries (``generate`` / ``place`` /
  ``optimize`` / ``detailed_route`` / ``power``) and at the engine's
  per-attempt ``task`` boundary -- fires ``raise`` / ``hang`` /
  ``slow`` / ``crash`` specs;
* :func:`corrupt_point` just before the design cache reads a disk
  entry -- a matching ``corrupt`` spec overwrites the entry with
  seeded garbage (or truncates it), proving the cache's
  corruption-tolerant load path end to end.

With no active plan both hooks reduce to one ``None`` check, so the
production path is inert: zero ``faults.*`` metric increments, zero
spans, byte-identical outputs.  A plan activates either through the
``REPRO_FAULTS`` environment variable (parsed lazily, once per
process) or programmatically via :func:`install` /
:func:`installed`.  Engine workers do not read it: each is forked from
a fork server whose environment is that of its own start, so the
supervisor ships its resolved plan with every task.

Hooks fire *once* per (spec, task, attempt): a ``stage=*`` raise
kills the first stage it meets and stays quiet afterwards, and a
retried attempt re-matches from scratch -- which is what makes
``attempt=1`` faults recoverable and ``attempt=0`` faults permanent.
Every injection is recorded in a process-local log
(:func:`injection_log`), as a ``fault.injected`` span and as
``faults.injected`` (plus per-kind) counters; pool workers ship those
back to the parent with the rest of their observability payload.
"""

from __future__ import annotations

import contextvars
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..obs import trace
from ..obs.metrics import metrics
from .plan import FaultPlan, FaultSpec


class InjectedFault(RuntimeError):
    """An injected ``raise`` fault (deliberate, deterministic)."""


class InjectedHang(RuntimeError):
    """A cooperative hang that ran past the task deadline.

    Raised only when the hook's context carries a deadline (the serial
    engine sets one); in a pool worker the hang simply sleeps and the
    supervisor kills the process from outside.
    """


class InjectedCrash(RuntimeError):
    """An injected hard crash.

    A supervised worker that sees this exits immediately without
    sending anything back -- the realistic crashed-worker signature
    (detected by exit code, replaced by the supervisor).  The serial
    engine degrades it to a plain task failure.
    """


@dataclass(frozen=True)
class FaultContext:
    """Coordinates of the currently running task attempt."""

    task: str = ""
    attempt: int = 1
    #: ``time.monotonic()`` deadline for cooperative hang faults
    deadline: Optional[float] = None


_DEFAULT_CTX = FaultContext()
_CTX: contextvars.ContextVar[FaultContext] = \
    contextvars.ContextVar("repro_fault_ctx", default=_DEFAULT_CTX)

#: sentinel: the environment has not been consulted yet
_UNSET = object()
_ACTIVE: Any = _UNSET
#: (spec index, task, attempt) triples that already fired
_FIRED: set = set()
#: every injection this process performed, in order
_LOG: List[Dict[str, Any]] = []


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan, if any.

    On first call (per process) the ``REPRO_FAULTS`` environment
    variable is parsed; afterwards the cached result (or whatever
    :func:`install` put in place) is returned.
    """
    global _ACTIVE
    if _ACTIVE is _UNSET:
        text = os.environ.get("REPRO_FAULTS", "").strip()
        _ACTIVE = FaultPlan.parse(text) if text else None
    return _ACTIVE


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Activate ``plan`` (``None`` deactivates); returns the previous
    plan.  Resets the fire-once bookkeeping and the injection log."""
    global _ACTIVE
    previous = _ACTIVE if _ACTIVE is not _UNSET else None
    _ACTIVE = plan
    _FIRED.clear()
    _LOG.clear()
    return previous


def clear() -> None:
    """Deactivate fault injection (the environment is not re-read)."""
    install(None)


def reset() -> None:
    """Forget everything, including the cached environment parse (the
    next :func:`active_plan` call re-reads ``REPRO_FAULTS``)."""
    global _ACTIVE
    _ACTIVE = _UNSET
    _FIRED.clear()
    _LOG.clear()


@contextmanager
def installed(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Temporarily activate ``plan`` (restores the previous one)."""
    previous = install(plan)
    try:
        yield plan
    finally:
        install(previous)


def injection_log() -> List[Dict[str, Any]]:
    """The injections this process performed (oldest first)."""
    return list(_LOG)


@contextmanager
def task_context(task: str, attempt: int = 1,
                 deadline: Optional[float] = None) -> Iterator[FaultContext]:
    """Scope the (task, attempt, deadline) coordinates for the hooks."""
    ctx = FaultContext(task=task, attempt=attempt, deadline=deadline)
    token = _CTX.set(ctx)
    try:
        yield ctx
    finally:
        _CTX.reset(token)


def current_context() -> FaultContext:
    """The innermost task context (a default, empty one outside any)."""
    return _CTX.get()


def _record(spec: FaultSpec, index: int, ctx: FaultContext,
            stage: str) -> None:
    entry = {"kind": spec.kind, "spec": index, "task": ctx.task,
             "stage": stage, "attempt": ctx.attempt}
    _LOG.append(entry)
    metrics().counter("faults.injected").inc()
    metrics().counter(f"faults.injected.{spec.kind}").inc()
    with trace.span("fault.injected", kind=spec.kind, task=ctx.task,
                    stage=stage, attempt=ctx.attempt, spec=index):
        pass


def _hang(seconds: float, deadline: Optional[float]) -> None:
    end = time.monotonic() + seconds
    while True:
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            raise InjectedHang(
                f"injected hang exceeded the task deadline "
                f"({seconds:g}s hang)")
        if now >= end:
            return
        step = end - now
        if deadline is not None:
            step = min(step, deadline - now)
        time.sleep(min(0.02, max(step, 0.0)))


def fault_point(stage: str) -> None:
    """Stage-boundary hook: fire matching raise/hang/slow specs.

    A no-op (one ``None`` check) when no plan is active.

    Raises:
        InjectedFault: for a matching ``raise`` spec.
        InjectedHang: for a ``hang`` spec once the context deadline
            passes (cooperative timeout; serial engine only).
    """
    plan = active_plan()
    if plan is None:
        return
    ctx = current_context()
    for index, spec in plan.match(ctx.task, stage, ctx.attempt):
        if spec.kind == "corrupt":
            continue  # corrupt specs fire at corrupt_point only
        key = (index, ctx.task, ctx.attempt)
        if key in _FIRED:
            continue
        _FIRED.add(key)
        _record(spec, index, ctx, stage)
        if spec.kind == "raise":
            raise InjectedFault(
                f"injected fault at {ctx.task or '<task>'}/{stage} "
                f"(attempt {ctx.attempt})")
        if spec.kind == "crash":
            raise InjectedCrash(
                f"injected crash at {ctx.task or '<task>'}/{stage} "
                f"(attempt {ctx.attempt})")
        if spec.kind == "slow":
            time.sleep(spec.seconds)
        elif spec.kind == "hang":
            _hang(spec.seconds, ctx.deadline)


def corrupt_point(path: Union[str, Path]) -> bool:
    """Cache-load hook: a matching ``corrupt`` spec garbles ``path``.

    Called with the entry's path just before the cache reads it; the
    stage name the specs match against is ``cache.load``.  Half the
    time (seeded by the plan) the file is truncated mid-byte, half the
    time it is overwritten with garbage -- both must be swallowed by
    the loader's corruption tolerance.  Returns whether a corruption
    was performed.  A no-op when no plan is active or the file does
    not exist (a cold entry cannot be corrupted).
    """
    plan = active_plan()
    if plan is None:
        return False
    ctx = current_context()
    corrupted = False
    for index, spec in plan.match(ctx.task, "cache.load", ctx.attempt):
        if spec.kind != "corrupt":
            continue
        key = (index, ctx.task, ctx.attempt)
        if key in _FIRED:
            continue
        p = Path(path)
        if not p.exists():
            continue  # nothing to corrupt yet; keep the spec armed
        _FIRED.add(key)
        _record(spec, index, ctx, "cache.load")
        rng = random.Random(
            f"repro-corrupt:{plan.seed}:{index}:{ctx.task}:{ctx.attempt}")
        try:
            if rng.random() < 0.5:
                size = p.stat().st_size
                with open(p, "r+b") as f:
                    f.truncate(max(1, size // 2))
            else:
                garbage = bytes(rng.randrange(256) for _ in range(64))
                with open(p, "wb") as f:
                    f.write(garbage)
            corrupted = True
        except OSError:
            pass
    return corrupted
