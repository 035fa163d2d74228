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
  ``timeout_s`` deadline -- neither can block :func:`run_experiments`
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
* observability survives the pool: each task ships back its recorded
  spans, its metrics *delta* and its cache-stat delta; the parent
  merges everything into one coherent timeline, and every retry,
  timeout and crash is recorded as ``tasks.retried`` /
  ``tasks.timed_out`` / ``tasks.crashed`` counters plus zero-length
  marker spans.

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
therefore need a POSIX platform; the serial path runs everywhere.  A
forked worker inherits the environment of the server's start, not of
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
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import (REGISTRY, ExperimentOptions,
                                    result_to_dict, run_experiment)
from ..core.cache import DesignCache
from ..faults import inject as faults
from ..faults.plan import FaultPlan
from ..obs import export, trace
from ..obs.metrics import metrics
from ..service.schema import PointSpec, SweepRequest
from ..tech.process import make_process

#: worker-local state built once per worker process
_WORKER: Dict[str, Any] = {}

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


def _init_worker(cache_dir: Optional[str]) -> None:
    _WORKER["process"] = make_process()
    _WORKER["cache"] = DesignCache(cache_dir=cache_dir)


#: the additive CacheStats fields (``hit_rate`` is derived, recomputed
#: after aggregation)
_CACHE_FIELDS = ("hits", "disk_hits", "misses", "stores", "evictions",
                 "corrupt_drops")


def _cache_delta(after: Dict[str, float],
                 before: Dict[str, float]) -> Dict[str, float]:
    """One task's contribution to a worker's cumulative cache stats."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in _CACHE_FIELDS}


def _aggregate_cache(deltas: Iterable[Dict[str, float]]
                     ) -> Dict[str, float]:
    """Fold per-task cache-stat deltas into one stats dict."""
    total: Dict[str, float] = {k: 0 for k in _CACHE_FIELDS}
    for d in deltas:
        for k in _CACHE_FIELDS:
            total[k] += d.get(k, 0)
    lookups = total["hits"] + total["disk_hits"] + total["misses"]
    total["hit_rate"] = ((total["hits"] + total["disk_hits"]) / lookups
                         if lookups else 0.0)
    return total


class EngineError(RuntimeError):
    """Unrecoverable engine failure (exploration tasks exhausted their
    retries and the caller did not opt into partial results)."""


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
    carries the final attempt's failure message.
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
    #: deltas are summed back; ``None`` only for empty runs)
    cache_stats: Optional[Dict[str, float]] = None
    #: per-task cache-stat deltas, request order (parallel runs)
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


def _run_one(task: Tuple[str, float, int]) -> ExperimentRun:
    """Worker body: run one experiment against worker-local state."""
    experiment_id, scale, seed = task
    t0 = time.perf_counter()
    result = run_experiment(experiment_id, ExperimentOptions(
        process=_WORKER["process"], scale=scale, seed=seed,
        cache=_WORKER["cache"]))
    return ExperimentRun(experiment_id=experiment_id,
                         wall_s=time.perf_counter() - t0,
                         all_passed=result.all_passed,
                         result=result_to_dict(result))


def _run_point(task: Tuple[str, bool, float, int]):
    """Worker body: evaluate one design-space grid point."""
    from ..core.explore import evaluate_point
    style, dual_vth, scale, seed = task
    return evaluate_point(_WORKER["process"], style, dual_vth,
                          scale=scale, seed=seed,
                          cache=_WORKER["cache"])


def _task_label(kind: str, task: Tuple) -> str:
    """The task id fault specs and backoff jitter key on."""
    if kind == "experiment":
        return task[0]
    style, dual_vth = task[0], task[1]
    return f"{style}/{'dvt' if dual_vth else 'rvt'}"


def _obs_payload(n_spans: int, metrics_before: Dict,
                 cache_before: Dict[str, float]) -> Dict[str, Any]:
    """This worker's observability delta since the given snapshots."""
    tracer = trace.get_tracer()
    cache = _WORKER.get("cache")
    after = cache.stats.as_dict() if cache is not None else dict(
        cache_before)
    return {
        "cache": _cache_delta(after, cache_before),
        "spans": [sp.to_dict() for sp in tracer.spans[n_spans:]],
        "metrics": metrics().diff(metrics_before),
    }


def _child_main(conn, kind: str, index: int, task: Tuple, attempt: int,
                cache_dir: Optional[str], plan: Optional[FaultPlan],
                trace_enabled: bool) -> None:
    """Entry point of one supervised worker process (forked from the
    fork server).

    The worker records spans exactly when the supervisor's tracer does
    (``trace_enabled``): its own tracer was built when the server
    imported the engine, under that moment's ``REPRO_TRACE``.

    Sends exactly one message back: ``("ok", index, value, payload)``
    or ``("error", index, message, payload)`` -- the payload carries
    the worker's spans/metrics/cache deltas since this function's
    first line either way, so injected faults (the ``task`` stage's
    included) still aggregate in the parent.  Crashes and hangs send
    nothing; the supervisor detects those from the outside.

    After the message the worker ends with ``os._exit(0)``, as
    multiprocessing's own fork start does: freeing the interpreter's
    heap (every design the task built or loaded) would only delay the
    supervisor's ``join`` and with it the next task's launch.  Its
    disk-cache writes are complete files by then.
    """
    trace.get_tracer().enabled = trace_enabled
    n_spans = len(trace.get_tracer().spans)
    metrics_before = metrics().snapshot()
    cache_before = {k: 0.0 for k in _CACHE_FIELDS}
    try:
        # the supervisor's resolved plan is authoritative -- installing
        # None too keeps a control run inert even when the child
        # inherited a REPRO_FAULTS environment variable
        faults.install(plan)
        _init_worker(cache_dir)
        with faults.task_context(_task_label(kind, task), attempt):
            faults.fault_point("task")
            value = (_run_one(task) if kind == "experiment"
                     else _run_point(task))
        msg = ("ok", index, value,
               _obs_payload(n_spans, metrics_before, cache_before))
    except faults.InjectedCrash:
        # die without a word: the supervisor must detect this from the
        # exit code alone and replace the worker
        conn.close()
        os._exit(3)
    except Exception as exc:
        msg = ("error", index, f"{type(exc).__name__}: {exc}",
               _obs_payload(n_spans, metrics_before, cache_before))
    try:
        conn.send(msg)
    except Exception:
        pass
    finally:
        conn.close()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


@dataclass
class _Outcome:
    """Final state of one supervised task."""

    status: str                      # "ok" | "failed" | "timeout"
    value: Any = None                # ExperimentRun or DesignPoint
    #: every observability delta the task's attempts shipped, in
    #: attempt order -- a failed-then-retried attempt's injected
    #: faults still aggregate in the parent
    payloads: List[Dict] = field(default_factory=list)
    attempts: int = 1
    error: Optional[str] = None
    wall_s: float = 0.0


def _outcome_run(experiment_id: str, o: _Outcome) -> ExperimentRun:
    """The :class:`ExperimentRun` one supervised experiment task
    reports: the worker's run on success, a result-less degraded run
    otherwise."""
    if o.status == "ok":
        run = o.value
        run.attempts = o.attempts
        return run
    return ExperimentRun(experiment_id=experiment_id, wall_s=o.wall_s,
                         all_passed=False, result={}, status=o.status,
                         attempts=o.attempts, error=o.error)


@dataclass
class _Live:
    """One in-flight worker process."""

    proc: Any
    conn: Any
    attempt: int
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


def _supervise(kind: str, tasks: Sequence[Tuple], parallel: int,
               cache_dir: Optional[str], res: ResilienceConfig,
               seed: int,
               plan: Optional[FaultPlan]) -> Dict[int, _Outcome]:
    """Run every task in its own worker process, resiliently.

    The scheduler keeps at most ``parallel`` workers alive, collects
    results by multiplexing over their pipes with bounded waits, kills
    workers that outlive the per-task deadline, detects crashed
    workers by exit code, and reschedules failed attempts (with
    backoff) until ``res.max_attempts`` is exhausted.  Always returns
    one :class:`_Outcome` per task; never raises for task-level
    failures and never blocks on a dead worker.
    """
    ctx = multiprocessing.get_context(MP_CONTEXT)
    trace_enabled = trace.get_tracer().enabled
    n = len(tasks)
    max_workers = max(1, min(parallel, n))
    #: (not_before monotonic, index, attempt)
    pending: List[Tuple[float, int, int]] = [(0.0, i, 1)
                                             for i in range(n)]
    live: Dict[int, _Live] = {}
    out: Dict[int, _Outcome] = {}
    #: wall-clock accumulated by earlier (failed) attempts, per task
    spent: Dict[int, float] = {}
    #: observability payloads shipped by earlier attempts, per task
    shipped: Dict[int, List[Dict]] = {}

    def finish_failure(index: int, attempt: int, status: str,
                       error: str, elapsed: float,
                       payload: Optional[Dict]) -> None:
        """Retry a failed attempt or record the final outcome."""
        label = _task_label(kind, tasks[index])
        spent[index] = spent.get(index, 0.0) + elapsed
        if payload is not None:
            shipped.setdefault(index, []).append(payload)
        if attempt < res.max_attempts:
            metrics().counter("tasks.retried").inc()
            delay = res.backoff_delay(label, attempt, seed)
            with trace.span("task.retry", task=label, attempt=attempt,
                            reason=status, backoff_s=round(delay, 4)):
                pass
            pending.append((time.monotonic() + delay, index,
                            attempt + 1))
        else:
            metrics().counter("tasks.failed").inc()
            with trace.span("task.gave_up", task=label, attempt=attempt,
                            reason=status):
                pass
            out[index] = _Outcome(status=status,
                                  payloads=shipped.get(index, []),
                                  attempts=attempt, error=error,
                                  wall_s=spent[index])

    try:
        while len(out) < n:
            now = time.monotonic()
            # launch every ready pending task while capacity remains
            pending.sort()
            while pending and pending[0][0] <= now and \
                    len(live) < max_workers:
                _, index, attempt = pending.pop(0)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, kind, index, tasks[index], attempt,
                          cache_dir, plan, trace_enabled))
                # a process's first launch also starts the fork server
                with trace.span("task.launch",
                                task=_task_label(kind, tasks[index]),
                                attempt=attempt):
                    proc.start()
                child_conn.close()
                # the clock starts once this worker runs, so a launch
                # that started the server shortens no later deadline
                t0 = time.monotonic()
                deadline = (t0 + res.timeout_s
                            if res.timeout_s else None)
                live[index] = _Live(proc=proc, conn=parent_conn,
                                    attempt=attempt, deadline=deadline,
                                    t0=t0)
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
                    status, _, value, payload = msg
                    elapsed = now - lv.t0
                    if status == "ok":
                        if payload is not None:
                            shipped.setdefault(index, []).append(payload)
                        out[index] = _Outcome(
                            status="ok", value=value,
                            payloads=shipped.get(index, []),
                            attempts=lv.attempt,
                            wall_s=spent.get(index, 0.0) + elapsed)
                    else:
                        finish_failure(index, lv.attempt, "failed",
                                       value, elapsed, payload)
                elif not lv.proc.is_alive():
                    del live[index]
                    lv.conn.close()
                    metrics().counter("tasks.crashed").inc()
                    with trace.span(
                            "task.crash",
                            task=_task_label(kind, tasks[index]),
                            attempt=lv.attempt,
                            exitcode=lv.proc.exitcode):
                        pass
                    finish_failure(
                        index, lv.attempt, "failed",
                        f"worker crashed (exit code "
                        f"{lv.proc.exitcode})", now - lv.t0, None)
                elif lv.deadline is not None and now >= lv.deadline:
                    del live[index]
                    _stop_worker(lv)
                    metrics().counter("tasks.timed_out").inc()
                    with trace.span(
                            "task.timeout",
                            task=_task_label(kind, tasks[index]),
                            attempt=lv.attempt,
                            timeout_s=res.timeout_s):
                        pass
                    finish_failure(
                        index, lv.attempt, "timeout",
                        f"timed out after {res.timeout_s:g}s",
                        now - lv.t0, None)
    finally:
        for lv in live.values():
            _stop_worker(lv)
    return out


def run_experiments(ids: Optional[Iterable[str]] = None,
                    parallel: int = 0,
                    scale: float = 1.0,
                    seed: int = 1,
                    cache_dir: Optional[str] = None,
                    process=None,
                    timeout_s: Optional[float] = None,
                    retries: int = 0,
                    fault_plan: Optional[FaultPlan] = None
                    ) -> BenchReport:
    """Run a set of registered experiments, serially or supervised.

    Args:
        ids: experiment ids (default: the whole registry, in registry
            order -- the output order is always the request order, not
            completion order).
        parallel: worker count; ``0``/``1`` runs serially in-process.
        scale: model-scale multiplier for every experiment.
        seed: generation/placement seed for every experiment.
        cache_dir: optional persistent design-cache directory, shared
            by all workers.
        process: technology node for the serial path (workers always
            build their own).
        timeout_s: per-task wall-clock budget per attempt (parallel
            workers are killed at the deadline; the serial path
            enforces it cooperatively against injected hangs).
        retries: extra attempts for failed/timed-out tasks.
        fault_plan: chaos plan to activate for this run (shipped to
            every worker; the serial path installs it for the run's
            duration).  Defaults to the ambient plan (``REPRO_FAULTS``
            or a prior :func:`repro.faults.install`).

    Returns:
        A :class:`BenchReport`; ``results_json()`` is byte-identical
        across serial and parallel runs of the same request.  Tasks
        that exhaust their attempts degrade into ``status``-marked
        runs instead of raising -- the report always comes back.

    Raises:
        ValueError: on unknown experiment ids, or on the same id
            submitted twice in one batch (the report keys results by
            id, so duplicates used to silently overwrite each other).
    """
    request = SweepRequest.from_ids(ids, scale=scale, seed=seed,
                                    timeout_s=timeout_s, retries=retries)
    return run_sweep(request, parallel=parallel, cache_dir=cache_dir,
                     process=process, fault_plan=fault_plan)


def run_sweep(request: SweepRequest,
              parallel: int = 0,
              cache_dir: Optional[str] = None,
              process=None,
              fault_plan: Optional[FaultPlan] = None) -> BenchReport:
    """Run one :class:`~repro.service.schema.SweepRequest`.

    The schema-first twin of :func:`run_experiments` -- the CLI, the
    service broker and library callers all build a frozen
    :class:`SweepRequest` and hand it here, instead of re-threading
    flag soup into engine kwargs.  The request's ``timeout_s`` /
    ``retries`` are the run's :class:`ResilienceConfig`.

    Raises:
        ValueError: when the request is empty, names unknown ids,
            repeats a point, or repeats an experiment id (the report's
            ``results_dict()`` is id-keyed; overlapping sweeps belong
            on the service broker, which coalesces by content hash).
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
    plan = fault_plan if fault_plan is not None else faults.active_plan()
    tasks = [(p.experiment_id, p.scale, p.seed) for p in request.points]
    ids = request.experiment_ids()
    scale, seed = request.points[0].scale, request.points[0].seed
    tracer = trace.get_tracer()
    n_spans = len(tracer.spans)
    metrics_before = metrics().snapshot()
    t0 = time.perf_counter()
    worker_stats: List[Dict[str, float]] = []
    if parallel > 1 and len(ids) > 1:
        with trace.span("bench", parallel=parallel, scale=scale,
                        seed=seed, n_experiments=len(ids)):
            outcomes = _supervise("experiment", tasks, parallel,
                                  cache_dir, res, seed, plan)
        runs = []
        payloads = []
        for i, (eid, _, _) in enumerate(tasks):
            o = outcomes[i]
            runs.append(_outcome_run(eid, o))
            if o.payloads:
                payloads.extend(o.payloads)
                worker_stats.append(_aggregate_cache(
                    [p["cache"] for p in o.payloads]))
            else:
                worker_stats.append(
                    {k: 0.0 for k in _CACHE_FIELDS})
        cache_stats = _aggregate_cache(worker_stats)
        # fold worker metric deltas into the parent registry so the
        # run's diff below covers the whole pool
        for p in payloads:
            metrics().merge_snapshot(p["metrics"])
        worker_spans = [d for p in payloads for d in p["spans"]]
    else:
        proc = process if process is not None else make_process()
        cache = DesignCache(cache_dir=cache_dir)
        runs = []
        with ExitStack() as stack:
            if fault_plan is not None:
                stack.enter_context(faults.installed(fault_plan))
            with trace.span("bench", parallel=1, scale=scale, seed=seed,
                            n_experiments=len(ids)):
                for eid, s, sd in tasks:
                    runs.append(_run_serial_task(
                        eid, s, sd, proc, cache, res, seed))
        cache_stats = cache.stats.as_dict()
        worker_spans = []
    spans = [sp.to_dict() for sp in tracer.spans[n_spans:]] + worker_spans
    return BenchReport(runs=runs,
                       total_wall_s=time.perf_counter() - t0,
                       parallel=max(parallel, 1) if len(ids) > 1 else 1,
                       scale=scale, seed=seed,
                       cache_stats=cache_stats,
                       worker_cache_stats=worker_stats,
                       spans=spans,
                       metrics=metrics().diff(metrics_before))


def _run_serial_task(eid: str, scale: float, sd: int, proc, cache,
                     res: ResilienceConfig,
                     run_seed: int) -> ExperimentRun:
    """One experiment, in-process, with the retry/backoff loop.

    Timeouts are cooperative here: the deadline is handed to the fault
    hooks, so an injected hang raises
    :class:`~repro.faults.inject.InjectedHang` once the budget is
    spent (a genuinely slow healthy stage cannot be preempted without
    a worker process -- use ``parallel`` for hard kills).
    """
    t_task = time.perf_counter()
    status, error, result = "failed", None, None
    attempt = 0
    for attempt in range(1, res.max_attempts + 1):
        deadline = (time.monotonic() + res.timeout_s
                    if res.timeout_s else None)
        try:
            with faults.task_context(eid, attempt, deadline):
                faults.fault_point("task")
                result = run_experiment(eid, ExperimentOptions(
                    process=proc, scale=scale, seed=sd, cache=cache))
            status = "ok"
            break
        except faults.InjectedHang as exc:
            status, error, result = "timeout", str(exc), None
            metrics().counter("tasks.timed_out").inc()
            with trace.span("task.timeout", task=eid, attempt=attempt,
                            timeout_s=res.timeout_s):
                pass
        except Exception as exc:
            status, error, result = \
                "failed", f"{type(exc).__name__}: {exc}", None
        if attempt < res.max_attempts:
            metrics().counter("tasks.retried").inc()
            delay = res.backoff_delay(eid, attempt, run_seed)
            with trace.span("task.retry", task=eid, attempt=attempt,
                            reason=status, backoff_s=round(delay, 4)):
                pass
            time.sleep(delay)
    if status != "ok":
        metrics().counter("tasks.failed").inc()
        with trace.span("task.gave_up", task=eid, attempt=attempt,
                        reason=status):
            pass
        return ExperimentRun(experiment_id=eid,
                             wall_s=time.perf_counter() - t_task,
                             all_passed=False, result={}, status=status,
                             attempts=attempt, error=error)
    return ExperimentRun(experiment_id=eid,
                         wall_s=time.perf_counter() - t_task,
                         all_passed=result.all_passed,
                         result=result_to_dict(result),
                         attempts=attempt)


# ---------------------------------------------------------------------------
# Single-point entry points (the service broker's point runners)
# ---------------------------------------------------------------------------

def run_serial_experiment(point: PointSpec, process=None, cache=None,
                          resilience: Optional[ResilienceConfig] = None
                          ) -> ExperimentRun:
    """Run one sweep point in-process, with the retry/backoff loop.

    The cooperative twin of :func:`run_supervised_experiment`: no
    worker process is started, so timeouts only preempt injected
    hangs, but a caller-owned ``process``/``cache`` pair amortizes
    across calls -- this is how the broker runs points at
    ``parallel`` <= 1, and is also handy for tests.  Never raises for task-level failures; the
    returned :class:`ExperimentRun` carries ``status`` / ``error``.
    """
    res = resilience if resilience is not None else ResilienceConfig()
    proc = process if process is not None else make_process()
    if cache is None:
        cache = DesignCache()
    return _run_serial_task(point.experiment_id, point.scale,
                            point.seed, proc, cache, res, point.seed)


def run_supervised_experiment(point: PointSpec,
                              cache_dir: Optional[str] = None,
                              resilience: Optional[ResilienceConfig]
                              = None,
                              fault_plan: Optional[FaultPlan] = None
                              ) -> ExperimentRun:
    """Run one sweep point under the full worker supervisor.

    The point gets its own worker process, forked from the fork
    server, with hard-kill timeouts, crash detection and
    retry-with-replacement -- exactly one task through
    :func:`_supervise`.  This is how the broker runs
    points at ``parallel`` > 1: it survives anything the point does,
    including a worker segfault.
    """
    res = resilience if resilience is not None else ResilienceConfig()
    plan = fault_plan if fault_plan is not None else faults.active_plan()
    task = (point.experiment_id, point.scale, point.seed)
    o = _supervise("experiment", [task], 1, cache_dir, res,
                   point.seed, plan)[0]
    for p in o.payloads:
        metrics().merge_snapshot(p["metrics"])
    return _outcome_run(point.experiment_id, o)


# ---------------------------------------------------------------------------
# Design-space exploration fan-out
# ---------------------------------------------------------------------------

def explore_points(grid: Sequence[Tuple[str, bool]],
                   scale: float = 0.7,
                   seed: int = 1,
                   parallel: int = 2,
                   cache_dir: Optional[str] = None,
                   timeout_s: Optional[float] = None,
                   retries: int = 0,
                   fault_plan: Optional[FaultPlan] = None,
                   allow_partial: bool = False) -> List:
    """Evaluate design-space grid points across supervised workers.

    Returns :class:`~repro.core.explore.DesignPoint` objects in grid
    order (identical to the serial explorer's output for the same
    seed).  Runs under the same resilient supervisor as
    :func:`run_experiments`; a point that exhausts its attempts raises
    :class:`EngineError` unless ``allow_partial`` is set, in which
    case its slot holds ``None``.

    Duplicate grid entries coalesce: the same ``(style, dual_vth)``
    listed twice is computed once and its result fills every matching
    slot (results are deterministic per task triple, so replication is
    exact -- and never silently overwrites a differing value).
    """
    res = ResilienceConfig(timeout_s=timeout_s, retries=retries)
    plan = fault_plan if fault_plan is not None else faults.active_plan()
    all_tasks = [(style, dual_vth, scale, seed)
                 for style, dual_vth in grid]
    # coalesce duplicate grid points: compute each unique task once
    first_slot: Dict[Tuple, int] = {}
    tasks: List[Tuple] = []
    slot_of: List[int] = []
    for task in all_tasks:
        if task not in first_slot:
            first_slot[task] = len(tasks)
            tasks.append(task)
        slot_of.append(first_slot[task])
    outcomes = _supervise("point", tasks, max(parallel, 1), cache_dir,
                          res, seed, plan)
    # fold worker metric deltas in, so parallel exploration counts work
    for o in outcomes.values():
        for p in o.payloads:
            metrics().merge_snapshot(p["metrics"])
    failures = [(i, o) for i, o in sorted(outcomes.items())
                if o.status != "ok"]
    if failures and not allow_partial:
        detail = "; ".join(
            f"{_task_label('point', tasks[i])}: {o.status} "
            f"after {o.attempts} attempt(s) ({o.error})"
            for i, o in failures)
        raise EngineError(f"{len(failures)} of {len(tasks)} grid "
                          f"points failed: {detail}")
    return [outcomes[slot_of[i]].value for i in range(len(all_tasks))]
