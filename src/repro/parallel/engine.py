"""Resilient process-pool experiment engine.

The paper's artifacts are eleven independent tables/figures; the
design-space explorer walks an independent grid of chip configurations.
Both are embarrassingly parallel, so this module fans them out across
``multiprocessing`` workers -- and, because folding/bonding sweeps are
exactly the long, restartable batch workloads where one bad task must
not poison the run, it supervises those workers instead of trusting
them:

* every task runs in its own fresh worker process with worker-local
  state (a fresh :class:`~repro.tech.process.ProcessNode` and
  :class:`~repro.core.cache.DesignCache`; pointing all workers at one
  shared ``cache_dir`` makes warm reruns near-free -- disk writes are
  atomic, so concurrent workers share the directory safely);
* result collection is timeout-aware: the supervisor multiplexes over
  worker pipes with bounded waits, so a *crashed* worker is detected
  by its exit code and a *hung* worker is killed at the per-task
  ``timeout_s`` deadline -- neither can block :func:`run_sweep`
  forever (the old ``pool.map`` collection could);
* failed attempts are retried up to ``retries`` times with exponential
  backoff plus deterministic jitter (seeded per task/attempt, so a
  rerun schedules identically), and a killed or crashed worker is
  replaced by a fresh process for the next attempt;
* degradation is graceful: tasks that exhaust their attempts land in
  the :class:`BenchReport` with ``status`` / ``attempts`` / ``error``
  set instead of raising -- partial results are first-class
  (:meth:`BenchReport.completed` vs :attr:`BenchReport.all_passed`);
* tasks carry an explicit ``(experiment id, scale, seed)`` triple, so
  scheduling order cannot influence the numbers: a parallel run is
  byte-identical (after key-sorted serialization) to the serial run;
* observability survives the pool: each worker ships back its recorded
  spans, its metrics *delta* and its cache stats; the parent merges
  everything into one coherent timeline, and every retry, timeout and
  crash is recorded as ``tasks.retried`` / ``tasks.timed_out`` /
  ``tasks.crashed`` counters plus zero-length marker spans.

Three entry points share one attempt path.  :func:`run_sweep` runs a
:class:`~repro.service.schema.SweepRequest` into a
:class:`BenchReport`; :func:`run_sweep_point` runs one point (the
service broker's runner); :func:`explore_points` evaluates design-space
grid points.  A point runs in-process at ``parallel`` <= 1 and in a
supervised worker above; either way every failed attempt ends in
:func:`_failed_attempt`, which records its retry or its give-up.

Deterministic chaos testing plugs in through :mod:`repro.faults`: a
:class:`~repro.faults.plan.FaultPlan` (from ``REPRO_FAULTS`` or passed
as ``fault_plan=``) is shipped to every worker, and the same seeded
plan replays the identical fault sequence -- ``python -m repro chaos``
drives exactly this path.  With no plan active the fault hooks are
inert and the engine behaves (and serializes) exactly as before.

The start method is ``forkserver``: the first launch starts
multiprocessing's fork server, which imports this module once, and
every task is a fork of that server.  The server has done nothing but
import, so no state the supervising process accumulated reaches a task,
which keeps runs reproducible no matter what the parent did before --
and a task no longer pays the program's imports.  Supervised runs
therefore need a POSIX platform; the in-process path runs everywhere.
A forked worker inherits the environment of the server's start, not of
the current run, so the supervisor ships its fault plan and its
tracer's ``enabled`` flag with every task.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import (Any, Callable, ContextManager, Dict, Iterable, List,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from ..analysis.experiments import REGISTRY, result_to_dict, run_experiment
from ..core.cache import DesignCache
from ..faults import inject as faults
from ..faults.plan import FaultPlan
from ..obs import export, trace
from ..obs.metrics import metrics
from ..service.schema import PointSpec, SweepRequest
from ..tech.process import make_process

#: multiprocessing start method of every supervised worker
MP_CONTEXT = "forkserver"
# set at import, so the fork server imports the engine whichever code
# in this process starts it first
multiprocessing.set_forkserver_preload(["repro.parallel.engine"])
#: base delay before a task's second attempt
BACKOFF_S = 0.25
#: exponential growth of the retry delay per attempt
BACKOFF_FACTOR = 2.0
#: fractional random spread added to each retry delay
JITTER = 0.25
#: how long a killed worker may take to die before ``terminate``
#: escalates to ``kill``
TERM_GRACE_S = 2.0


#: the additive CacheStats fields (``hit_rate`` is derived, recomputed
#: after aggregation)
_CACHE_FIELDS = ("hits", "disk_hits", "misses", "stores", "evictions",
                 "corrupt_drops")


def _aggregate_cache(stats: Iterable[Dict[str, float]]
                     ) -> Dict[str, float]:
    """Add cache-stat dicts up into one stats dict."""
    total: Dict[str, float] = {k: 0 for k in _CACHE_FIELDS}
    for d in stats:
        for k in _CACHE_FIELDS:
            total[k] += d.get(k, 0)
    lookups = total["hits"] + total["disk_hits"] + total["misses"]
    total["hit_rate"] = ((total["hits"] + total["disk_hits"]) / lookups
                         if lookups else 0.0)
    return total


class EngineError(RuntimeError):
    """Unrecoverable engine failure: a design-space grid point failed."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for one engine run.

    Attributes:
        timeout_s: per-task wall-clock budget per attempt; a worker
            still running at the deadline is killed and the attempt
            counts as a timeout.  ``None`` disables the deadline
            (crashed workers are still detected -- collection never
            blocks forever on a dead process).
        retries: extra attempts after the first (``0`` = fail fast).

    Retry delays grow from :data:`BACKOFF_S` by :data:`BACKOFF_FACTOR`
    per attempt plus up to :data:`JITTER` of random spread.
    """

    timeout_s: Optional[float] = None
    retries: int = 0

    @property
    def max_attempts(self) -> int:
        return max(1, self.retries + 1)

    def backoff_delay(self, task_key: str, attempt: int,
                      seed: int = 0) -> float:
        """Delay before retrying ``task_key`` after failed ``attempt``.

        Exponential in the attempt number with deterministic jitter
        (string-seeded :class:`random.Random` is stable across
        processes), so the same run replays the same schedule.
        """
        base = BACKOFF_S * (BACKOFF_FACTOR ** (attempt - 1))
        rng = random.Random(f"repro-backoff:{seed}:{task_key}:{attempt}")
        return base * (1.0 + JITTER * rng.random())


@dataclass
class ExperimentRun:
    """One experiment's outcome plus its wall-clock cost.

    ``status`` is ``"ok"`` (result present), ``"failed"`` (raised on
    every attempt) or ``"timeout"`` (killed at the deadline on every
    attempt); ``attempts`` counts how many attempts ran, and ``error``
    carries the final attempt's failure message.  ``wall_s`` is the
    successful attempt's run time when ``status`` is ``"ok"``, else the
    time all attempts took together (backoff waits excluded).
    """

    experiment_id: str
    wall_s: float
    all_passed: bool
    result: Dict[str, Any]
    status: str = "ok"
    attempts: int = 1
    error: Optional[str] = None


@dataclass
class BenchReport:
    """The full bench run: per-experiment results and timings.

    Partial results are first-class: a task that exhausted its retries
    appears with ``status != "ok"`` and an empty ``result`` instead of
    poisoning the run.  :meth:`completed` says whether every task
    produced a result; :attr:`all_passed` additionally requires every
    shape check to pass.
    """

    runs: List[ExperimentRun]
    total_wall_s: float
    parallel: int
    scale: float
    seed: int
    #: aggregated across the whole run -- serial *and* parallel (worker
    #: stats are summed back; ``None`` only for empty runs)
    cache_stats: Optional[Dict[str, float]] = None
    #: per-task cache stats, request order (parallel runs)
    worker_cache_stats: List[Dict[str, float]] = field(default_factory=list)
    #: every span recorded during the run (dict form; workers merged in)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: metrics snapshot of the run (this run's delta, workers merged in)
    metrics: Optional[Dict[str, Any]] = None

    @property
    def all_passed(self) -> bool:
        return all(r.all_passed for r in self.runs)

    def completed(self) -> bool:
        """Did every task produce a result (shape checks aside)?"""
        return all(r.status == "ok" for r in self.runs)

    def failed_runs(self) -> List[ExperimentRun]:
        """The runs that exhausted their attempts (failed or timed
        out)."""
        return [r for r in self.runs if r.status != "ok"]

    def results_dict(self) -> Dict[str, Any]:
        """Experiment id -> serialized result (timings excluded, so the
        bytes are comparable across serial/parallel and cold/warm).
        Only completed runs serialize: a degraded run's dict is the
        uninjected dict minus the failed ids, nothing else moves."""
        return {r.experiment_id: r.result for r in self.runs
                if r.status == "ok"}

    def results_json(self, indent: int = 2) -> str:
        return json.dumps(self.results_dict(), sort_keys=True,
                          indent=indent)

    def timing_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "parallel": self.parallel,
            "scale": self.scale,
            "seed": self.seed,
            "total_wall_s": self.total_wall_s,
            "experiments": {r.experiment_id: r.wall_s for r in self.runs},
        }
        if self.cache_stats is not None:
            out["cache"] = self.cache_stats
        degraded = {
            r.experiment_id: {
                "status": r.status, "attempts": r.attempts,
                **({"error": r.error} if r.error else {})}
            for r in self.runs if r.status != "ok" or r.attempts > 1}
        if degraded:
            out["resilience"] = degraded
        return out

    def timing_json(self, indent: int = 2) -> str:
        return json.dumps(self.timing_dict(), sort_keys=True,
                          indent=indent)

    def summary(self) -> str:
        lines = [f"{'experiment':10s} {'checks':>6s} {'wall':>8s}"]
        for r in self.runs:
            if r.status == "ok":
                mark = "PASS" if r.all_passed else "FAIL"
            else:
                mark = "TIME" if r.status == "timeout" else "ERR"
            note = f" (x{r.attempts})" if r.attempts > 1 else ""
            lines.append(f"{r.experiment_id:10s} {mark:>6s} "
                         f"{r.wall_s:7.2f}s{note}")
        mode = (f"{self.parallel} workers" if self.parallel > 1
                else "serial")
        lines.append(f"{'total':10s} {'':6s} {self.total_wall_s:7.2f}s "
                     f"({mode})")
        if self.cache_stats is not None:
            cs = self.cache_stats
            lines.append(f"cache: {cs['hits']:.0f} memory hits, "
                         f"{cs['disk_hits']:.0f} disk hits, "
                         f"{cs['misses']:.0f} misses "
                         f"({cs['hit_rate']:.0%} hit rate)")
        failed = self.failed_runs()
        if failed:
            lines.append(
                f"degraded: {len(failed)} of {len(self.runs)} "
                f"experiments without a result "
                f"({', '.join(r.experiment_id for r in failed)})")
        return "\n".join(lines)

    def write_trace(self, path: Union[str, Path],
                    meta: Optional[Dict[str, Any]] = None) -> Path:
        """Write this run's merged trace (spans + metrics) as JSONL."""
        header: Dict[str, Any] = {
            "parallel": self.parallel,
            "scale": self.scale,
            "seed": self.seed,
            "total_wall_s": self.total_wall_s,
            "experiments": [r.experiment_id for r in self.runs],
        }
        header.update(meta or {})
        return export.write_trace(path, self.spans, metrics=self.metrics,
                                  meta=header)


# ---------------------------------------------------------------------------
# Tasks and their worker bodies
# ---------------------------------------------------------------------------

class _Task(NamedTuple):
    """One unit of engine work."""

    #: the id fault specs match and the task's spans carry
    label: str
    #: seeds the task's backoff jitter
    seed: int
    #: what the worker body runs
    args: Any


def _point_task(point: PointSpec) -> _Task:
    return _Task(point.experiment_id, point.seed, point)


def _run_one(point: PointSpec, process, cache) -> ExperimentRun:
    """Worker body: run one experiment."""
    t0 = time.perf_counter()
    result = run_experiment(point.experiment_id,
                            point.to_options(process, cache))
    return ExperimentRun(experiment_id=point.experiment_id,
                         wall_s=time.perf_counter() - t0,
                         all_passed=result.all_passed,
                         result=result_to_dict(result))


def _run_point(task: Tuple[str, bool, float, int], process, cache):
    """Worker body: evaluate one design-space grid point."""
    from ..core.explore import evaluate_point
    style, dual_vth, scale, seed = task
    return evaluate_point(process, style, dual_vth, scale=scale,
                          seed=seed, cache=cache)


#: a worker body: ``body(task.args, process, cache)``
_Body = Callable[[Any, Any, DesignCache], Any]
#: a persistent design-cache directory (``None``: memory only)
_CacheDir = Optional[Union[str, Path]]


# ---------------------------------------------------------------------------
# The attempt path, shared by the in-process loop and the supervisor
# ---------------------------------------------------------------------------

@dataclass
class _Outcome:
    """One task's attempts so far; its final state once finished."""

    status: str = "ok"               # "ok" | "failed" | "timeout"
    value: Any = None                # ExperimentRun or DesignPoint
    attempts: int = 0
    error: Optional[str] = None
    #: time the attempts took together, backoff waits excluded
    wall_s: float = 0.0
    #: every observability payload the task's workers shipped, in
    #: attempt order -- a failed-then-retried attempt's injected
    #: faults still aggregate in the parent
    payloads: List[Dict] = field(default_factory=list)


def _record_timeout(task: _Task, attempt: int,
                    res: ResilienceConfig) -> None:
    """Count and mark an attempt cut at its deadline."""
    metrics().counter("tasks.timed_out").inc()
    with trace.span("task.timeout", task=task.label, attempt=attempt,
                    timeout_s=res.timeout_s):
        pass


def _failed_attempt(task: _Task, o: _Outcome, status: str, error: str,
                    res: ResilienceConfig) -> Optional[float]:
    """Record that attempt ``o.attempts`` of ``task`` failed.

    While attempts remain, the failure is a retry (``tasks.retried``,
    a ``task.retry`` span) and the backoff delay before the next
    attempt is returned; after the last one the task gives up
    (``tasks.failed``, a ``task.gave_up`` span) and ``None`` is
    returned.
    """
    o.status, o.error = status, error
    if o.attempts < res.max_attempts:
        metrics().counter("tasks.retried").inc()
        delay = res.backoff_delay(task.label, o.attempts, task.seed)
        with trace.span("task.retry", task=task.label, attempt=o.attempts,
                        reason=status, backoff_s=round(delay, 4)):
            pass
        return delay
    metrics().counter("tasks.failed").inc()
    with trace.span("task.gave_up", task=task.label, attempt=o.attempts,
                    reason=status):
        pass
    return None


def _attempt_in_process(body: _Body, task: _Task, process, cache,
                        res: ResilienceConfig) -> _Outcome:
    """Run ``task`` in this process until an attempt succeeds or it
    gives up.

    Timeouts are cooperative here: the deadline is handed to the fault
    hooks, so an injected hang raises
    :class:`~repro.faults.inject.InjectedHang` once the budget is
    spent (a genuinely slow healthy stage cannot be preempted without
    a worker process -- use ``parallel`` for hard kills).
    """
    o = _Outcome()
    while True:
        o.attempts += 1
        t0 = time.perf_counter()
        deadline = (time.monotonic() + res.timeout_s
                    if res.timeout_s else None)
        try:
            with faults.task_context(task.label, o.attempts, deadline):
                faults.fault_point("task")
                o.value = body(task.args, process, cache)
            status, error = "ok", ""
        except faults.InjectedHang as exc:
            _record_timeout(task, o.attempts, res)
            status, error = "timeout", str(exc)
        except Exception as exc:
            status, error = "failed", f"{type(exc).__name__}: {exc}"
        o.wall_s += time.perf_counter() - t0
        if status == "ok":
            o.status, o.error = "ok", None
            return o
        delay = _failed_attempt(task, o, status, error, res)
        if delay is None:
            return o
        time.sleep(delay)


def _obs_payload(n_spans: int, metrics_before: Dict,
                 cache: DesignCache) -> Dict[str, Any]:
    """This worker's observability since it started: its spans, its
    metrics delta and its cache stats (the cache was built empty)."""
    tracer = trace.get_tracer()
    return {
        "cache": cache.stats.as_dict(),
        "spans": [sp.to_dict() for sp in tracer.spans[n_spans:]],
        "metrics": metrics().diff(metrics_before),
    }


def _child_main(conn, body: _Body, task: _Task, attempt: int,
                cache_dir: _CacheDir, plan: Optional[FaultPlan],
                trace_enabled: bool) -> None:
    """Entry point of one supervised worker process (forked from the
    fork server): one attempt of ``task``.

    The worker records spans exactly when the supervisor's tracer does
    (``trace_enabled``): its own tracer was built when the server
    imported the engine, under that moment's ``REPRO_TRACE``.

    Sends exactly one message back: ``("ok", value, payload)`` or
    ``("failed", message, payload)`` -- the payload carries the worker's
    spans, metrics delta and cache stats since this function's first
    line either way, so injected faults (the ``task`` stage's included)
    still aggregate in the parent.  Crashes and hangs send nothing; the
    supervisor detects those from the outside.

    After the message the worker ends with ``os._exit(0)``, as
    multiprocessing's own fork start does: freeing the interpreter's
    heap (every design the task built or loaded) would only delay the
    supervisor's ``join`` and with it the next task's launch.  Its
    disk-cache writes are complete files by then.
    """
    trace.get_tracer().enabled = trace_enabled
    n_spans = len(trace.get_tracer().spans)
    metrics_before = metrics().snapshot()
    cache = DesignCache(cache_dir=cache_dir)
    try:
        # the supervisor's resolved plan is authoritative -- installing
        # None too keeps a control run inert even when the child
        # inherited a REPRO_FAULTS environment variable
        faults.install(plan)
        process = make_process()
        with faults.task_context(task.label, attempt):
            faults.fault_point("task")
            msg: Tuple[str, Any] = ("ok", body(task.args, process, cache))
    except faults.InjectedCrash:
        # die without a word: the supervisor must detect this from the
        # exit code alone and replace the worker
        conn.close()
        os._exit(3)
    except Exception as exc:
        msg = ("failed", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(msg + (_obs_payload(n_spans, metrics_before, cache),))
    except Exception:
        pass
    finally:
        conn.close()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


@dataclass
class _Live:
    """One in-flight worker process."""

    proc: Any
    conn: Any
    deadline: Optional[float]
    t0: float


def _stop_worker(lv: _Live) -> None:
    """Kill one worker process, escalating terminate -> kill."""
    try:
        lv.proc.terminate()
        lv.proc.join(TERM_GRACE_S)
        if lv.proc.is_alive():
            lv.proc.kill()
            lv.proc.join(TERM_GRACE_S)
    except Exception:
        pass
    try:
        lv.conn.close()
    except Exception:
        pass


def _supervise(body: _Body, tasks: Sequence[_Task], parallel: int,
               cache_dir: _CacheDir, res: ResilienceConfig
               ) -> Tuple[List[_Outcome], List[Dict[str, Any]],
                          List[Dict[str, float]]]:
    """Run every task in its own worker process, resiliently.

    The scheduler keeps at most ``parallel`` workers alive, collects
    results by multiplexing over their pipes with bounded waits, kills
    workers that outlive the per-task deadline, detects crashed
    workers by exit code, and reschedules failed attempts (with
    backoff) until ``res.max_attempts`` is exhausted.  Every worker
    runs ``body`` under the active fault plan.  Never raises for
    task-level failures and never blocks on a dead worker.

    Returns one :class:`_Outcome` per task, in task order, after
    folding the workers' payloads into this process (:func:`_fold`):
    their spans and each task's cache stats come back alongside.
    """
    ctx = multiprocessing.get_context(MP_CONTEXT)
    plan = faults.active_plan()
    trace_enabled = trace.get_tracer().enabled
    outs = [_Outcome() for _ in tasks]
    unfinished = len(tasks)
    max_workers = max(1, min(parallel, len(tasks)))
    #: (not_before monotonic, index) of every attempt awaiting launch
    pending: List[Tuple[float, int]] = [(0.0, i) for i in range(len(tasks))]
    live: Dict[int, _Live] = {}
    try:
        while unfinished:
            now = time.monotonic()
            # launch every ready pending task while capacity remains
            pending.sort()
            while pending and pending[0][0] <= now and \
                    len(live) < max_workers:
                _, index = pending.pop(0)
                task, o = tasks[index], outs[index]
                o.attempts += 1
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, body, task, o.attempts, cache_dir,
                          plan, trace_enabled))
                # a process's first launch also starts the fork server
                with trace.span("task.launch", task=task.label,
                                attempt=o.attempts):
                    proc.start()
                child_conn.close()
                # the clock starts once this worker runs, so a launch
                # that started the server shortens no later deadline
                t0 = time.monotonic()
                deadline = (t0 + res.timeout_s
                            if res.timeout_s else None)
                live[index] = _Live(proc=proc, conn=parent_conn,
                                    deadline=deadline, t0=t0)
            if not live:
                # nothing running: sleep toward the earliest backoff
                wake = min(p[0] for p in pending)
                time.sleep(min(max(wake - time.monotonic(), 0.0), 0.05))
                continue
            # bounded multiplexed wait: readable pipes, next deadline,
            # or the next pending launch -- whichever comes first
            wait_s = 0.05
            deadlines = [lv.deadline for lv in live.values()
                         if lv.deadline is not None]
            if deadlines:
                wait_s = min(wait_s,
                             max(min(deadlines) - time.monotonic(), 0.0))
            mp_connection.wait([lv.conn for lv in live.values()],
                               timeout=wait_s)
            now = time.monotonic()
            for index in list(live):
                lv = live[index]
                task, o = tasks[index], outs[index]
                msg = None
                readable = lv.conn.poll(0)
                if not readable and not lv.proc.is_alive():
                    # died between sends? give the pipe one last look
                    readable = lv.conn.poll(0.05)
                if readable:
                    try:
                        msg = lv.conn.recv()
                    except (EOFError, OSError):
                        msg = None
                if msg is not None:
                    del live[index]
                    lv.proc.join(TERM_GRACE_S)
                    if lv.proc.is_alive():
                        _stop_worker(lv)
                    else:
                        lv.conn.close()
                    status, value, payload = msg
                    o.payloads.append(payload)
                    error = "" if status == "ok" else value
                elif not lv.proc.is_alive():
                    del live[index]
                    lv.conn.close()
                    metrics().counter("tasks.crashed").inc()
                    with trace.span("task.crash", task=task.label,
                                    attempt=o.attempts,
                                    exitcode=lv.proc.exitcode):
                        pass
                    status = "failed"
                    error = (f"worker crashed (exit code "
                             f"{lv.proc.exitcode})")
                elif lv.deadline is not None and now >= lv.deadline:
                    del live[index]
                    _stop_worker(lv)
                    _record_timeout(task, o.attempts, res)
                    status = "timeout"
                    error = f"timed out after {res.timeout_s:g}s"
                else:
                    continue
                o.wall_s += now - lv.t0
                if status == "ok":
                    o.status, o.value, o.error = "ok", value, None
                    unfinished -= 1
                    continue
                delay = _failed_attempt(task, o, status, error, res)
                if delay is None:
                    unfinished -= 1
                else:
                    pending.append((time.monotonic() + delay, index))
    finally:
        for lv in live.values():
            _stop_worker(lv)
    spans, cache_stats = _fold(outs)
    return outs, spans, cache_stats


def _fold(outs: Sequence[_Outcome]
          ) -> Tuple[List[Dict[str, Any]], List[Dict[str, float]]]:
    """Fold every worker payload into this process, task by task: each
    metrics delta merges into the registry (so a caller's diff covers
    the workers).  Returns the workers' spans and each task's cache
    stats, summed over its attempts."""
    spans: List[Dict[str, Any]] = []
    cache_stats: List[Dict[str, float]] = []
    for o in outs:
        for p in o.payloads:
            metrics().merge_snapshot(p["metrics"])
            spans.extend(p["spans"])
        cache_stats.append(_aggregate_cache(p["cache"]
                                            for p in o.payloads))
    return spans, cache_stats


def _installed(plan: Optional[FaultPlan]) -> ContextManager:
    """Activate ``plan`` for one run; ``None`` keeps the ambient plan
    (``REPRO_FAULTS`` or a prior :func:`repro.faults.install`)."""
    return faults.installed(plan) if plan is not None else nullcontext()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _experiment_run(point: PointSpec, o: _Outcome) -> ExperimentRun:
    """The :class:`ExperimentRun` of one finished experiment task: the
    body's run on success, a result-less degraded run otherwise."""
    if o.status == "ok":
        run = o.value
        run.attempts = o.attempts
        return run
    return ExperimentRun(experiment_id=point.experiment_id,
                         wall_s=o.wall_s, all_passed=False, result={},
                         status=o.status, attempts=o.attempts,
                         error=o.error)


def run_sweep(request: SweepRequest,
              parallel: int = 0,
              cache_dir: Optional[str] = None,
              process=None,
              fault_plan: Optional[FaultPlan] = None) -> BenchReport:
    """Run one :class:`~repro.service.schema.SweepRequest`.

    The CLI, the service broker and library callers all build a frozen
    :class:`SweepRequest` and hand it here, instead of re-threading
    flag soup into engine kwargs; the request's ``timeout_s`` /
    ``retries`` are the run's :class:`ResilienceConfig`.

    Args:
        request: the points, in output order (use
            :meth:`SweepRequest.from_ids` for a uniform sweep).
        parallel: worker count; ``0``/``1`` -- or a one-point request
            -- runs the points one after the other in-process through
            :func:`run_sweep_point`, anything higher runs each in its
            own supervised worker.
        cache_dir: optional persistent design-cache directory, shared
            by all workers.
        process: technology node for the in-process path (workers
            always build their own).
        fault_plan: chaos plan to activate for this run (shipped to
            every worker).  Defaults to the ambient plan
            (``REPRO_FAULTS`` or a prior :func:`repro.faults.install`).

    Returns:
        A :class:`BenchReport`; ``results_json()`` is byte-identical
        across serial and parallel runs of the same request.  Tasks
        that exhaust their attempts degrade into ``status``-marked
        runs instead of raising -- the report always comes back.

    Raises:
        ValueError: when the request is empty, names unknown ids,
            repeats a point, sets impossible resilience knobs, or
            repeats an experiment id (the report's ``results_dict()``
            is id-keyed; overlapping sweeps belong on the service
            broker, which coalesces by content hash).
    """
    request.validate(known=REGISTRY)
    dupes = sorted(eid for eid, n
                   in Counter(request.experiment_ids()).items() if n > 1)
    if dupes:
        raise ValueError(
            f"duplicate experiment ids in one batch: "
            f"{', '.join(dupes)}; results are keyed by id -- submit "
            f"each id once (concurrent identical sweeps coalesce on "
            f"the service broker instead)")
    res = ResilienceConfig(timeout_s=request.timeout_s,
                           retries=request.retries)
    points = request.points
    scale, seed = points[0].scale, points[0].seed
    workers = parallel if parallel > 1 and len(points) > 1 else 1
    tracer = trace.get_tracer()
    n_spans = len(tracer.spans)
    metrics_before = metrics().snapshot()
    t0 = time.perf_counter()
    worker_spans: List[Dict[str, Any]] = []
    worker_stats: List[Dict[str, float]] = []
    with _installed(fault_plan), \
            trace.span("bench", parallel=workers, scale=scale, seed=seed,
                       n_experiments=len(points)):
        if workers > 1:
            outcomes, worker_spans, worker_stats = _supervise(
                _run_one, [_point_task(p) for p in points], workers,
                cache_dir, res)
            runs = [_experiment_run(p, o)
                    for p, o in zip(points, outcomes)]
            cache_stats = _aggregate_cache(worker_stats)
        else:
            proc = process if process is not None else make_process()
            cache = DesignCache(cache_dir=cache_dir)
            runs = [run_sweep_point(p, process=proc, cache=cache,
                                    resilience=res) for p in points]
            cache_stats = cache.stats.as_dict()
    spans = [sp.to_dict() for sp in tracer.spans[n_spans:]] + worker_spans
    return BenchReport(runs=runs,
                       total_wall_s=time.perf_counter() - t0,
                       parallel=workers, scale=scale, seed=seed,
                       cache_stats=cache_stats,
                       worker_cache_stats=worker_stats,
                       spans=spans,
                       metrics=metrics().diff(metrics_before))


def run_sweep_point(point: PointSpec, parallel: int = 0, process=None,
                    cache: Optional[DesignCache] = None,
                    resilience: Optional[ResilienceConfig] = None
                    ) -> ExperimentRun:
    """Run one sweep point with retries, under the active fault plan.

    At ``parallel`` <= 1 the point runs in this process against
    ``process`` and ``cache`` (built fresh when omitted; a caller-owned
    pair amortizes across calls): no worker start, cooperative
    timeouts.  Above, it runs in one supervised worker forked from the
    fork server, with hard-kill timeouts, crash detection and
    retry-with-replacement; the worker builds its own process node and
    a design cache over ``cache``'s ``cache_dir``, and its metrics fold
    into this process.  This is how the service broker runs every
    point, with its own ``parallel``.  Never raises for task-level
    failures; the returned :class:`ExperimentRun` carries ``status`` /
    ``error``.
    """
    res = resilience if resilience is not None else ResilienceConfig()
    task = _point_task(point)
    if parallel > 1:
        [o], _, _ = _supervise(
            _run_one, [task], 1,
            cache.cache_dir if cache is not None else None, res)
    else:
        o = _attempt_in_process(
            _run_one, task,
            process if process is not None else make_process(),
            cache if cache is not None else DesignCache(), res)
    return _experiment_run(point, o)


def explore_points(process, grid: Sequence[Tuple[str, bool]],
                   scale: float = 0.7, seed: int = 1, parallel: int = 0,
                   cache_dir: Optional[str] = None) -> List:
    """Evaluate design-space grid points under the active fault plan.

    Returns :class:`~repro.core.explore.DesignPoint` objects in grid
    order.  At ``parallel`` <= 1, or for one point, each point runs in
    this process against ``process`` and one design cache over
    ``cache_dir``, as :func:`run_sweep` runs its points; above, each
    runs in its own supervised worker (which builds its own process
    node), and the numbers are the same.  A point whose attempt fails
    raises :class:`EngineError` naming it, once every point has run.

    Duplicate grid entries coalesce: the same ``(style, dual_vth)``
    listed twice is computed once and its result fills every matching
    slot (results are deterministic per task triple, so replication is
    exact -- and never silently overwrites a differing value).
    """
    res = ResilienceConfig()
    # coalesce duplicate grid points: one task per unique point
    tasks: Dict[Tuple[str, bool], _Task] = {}
    for style, dual_vth in grid:
        tasks.setdefault((style, dual_vth), _Task(
            f"{style}/{'dvt' if dual_vth else 'rvt'}", seed,
            (style, dual_vth, scale, seed)))
    if parallel > 1 and len(tasks) > 1:
        outcomes, _, _ = _supervise(_run_point, list(tasks.values()),
                                    parallel, cache_dir, res)
    else:
        cache = DesignCache(cache_dir=cache_dir)
        outcomes = [_attempt_in_process(_run_point, task, process, cache,
                                        res)
                    for task in tasks.values()]
    by_point = dict(zip(tasks, outcomes))
    failures = [(tasks[key].label, o) for key, o in by_point.items()
                if o.status != "ok"]
    if failures:
        detail = "; ".join(
            f"{label}: {o.status} after {o.attempts} attempt(s) "
            f"({o.error})" for label, o in failures)
        raise EngineError(f"{len(failures)} of {len(tasks)} grid "
                          f"points failed: {detail}")
    return [by_point[(style, dual_vth)].value
            for style, dual_vth in grid]
