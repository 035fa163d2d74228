"""Asyncio experiment broker: sweeps as a streaming network service.

``python -m repro serve`` runs one of these.  Clients submit
:class:`~repro.service.schema.SweepRequest` batches over a
newline-delimited-JSON TCP (or unix-socket) connection and results
stream back *as each point completes* -- completion order, not request
order; the request-order batch view stays available through
:func:`repro.parallel.run_sweep`.

The broker is a front end over the engine, not a second executor.
Fresh points wait in one FIFO queue and at most ``parallel`` of them
run at once, each through the engine's point runner
(:func:`~repro.parallel.engine.run_sweep_point`) with the broker's
``parallel`` -- the same meaning as for ``run_sweep`` and ``bench
--parallel``: ``parallel`` <= 1 runs points one at a time in-process
against a broker-owned design cache (no worker start, cooperative
timeouts), ``parallel`` > 1 runs each point in its own supervised
worker process over the same cache directory (hard timeouts, crash
replacement).  Retries, backoff, timeouts and the ``tasks.*`` metrics
live only in the engine.

Two layers keep repeated work free:

* **result store** -- finished points persist in a shared
  :class:`~repro.service.store.ResultStore` tier (memory + optional
  ``cache_dir`` disk), consulted before dispatch;
* **request coalescing** -- identical in-flight points (same content
  hash) attach to the one running job and fan out on completion:
  N concurrent clients sweeping the same grid cost one execution per
  unique point (``service.coalesced`` counts the saved runs).

Failure contract: a client disconnect only unsubscribes that client
-- in-flight jobs finish for their other subscribers (or the store),
and a queued job nobody waits for any more is dropped unexecuted
(``service.dropped``).  Chaos testing reuses :mod:`repro.faults`: a
broker started with a fault plan installs it for its lifetime, so the
engine's ``task`` and flow-stage hooks fire inside every point, and
the engine's retries must absorb them -- ``python -m repro chaos
--serve`` asserts exactly this.

Everything observable goes through :mod:`repro.obs` under ``service.*``
names (see the generated ``repro.obs.names`` registry).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..analysis.experiments import REGISTRY
from ..core.cache import DesignCache
from ..faults import inject as faults
from ..faults.plan import FaultPlan
from ..obs import trace
from ..obs.metrics import metrics
from ..parallel.engine import (ExperimentRun, ResilienceConfig,
                               run_sweep_point)
from ..tech.process import make_process
from .schema import (SCHEMA_VERSION, PointResult, PointSpec, SchemaError,
                     SweepRequest, check_resilience, decode_line,
                     encode_line)
from .store import ResultStore

#: wire-line size limit (result JSON is big; the asyncio default of
#: 64 KiB would truncate it)
MAX_LINE_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """One broker's knobs.

    Attributes:
        host / port: TCP listen address; port ``0`` binds an ephemeral
            port (read it back from :attr:`Broker.port`).
        socket_path: listen on a unix socket instead of TCP.
        parallel: points run at once, as ``bench --parallel``:
            ``0``/``1`` runs them one at a time in-process, ``N > 1``
            runs up to N at a time, each in its own supervised worker
            process.
        cache_dir: shared persistent tier -- the design cache of every
            point *and* the broker's result store live under it.
        timeout_s / retries: default resilience for points whose
            request does not set its own; held to the same rule as a
            request's (:class:`~repro.service.schema.SchemaError`
            otherwise).
    """

    host: str = "127.0.0.1"
    port: int = 0
    socket_path: Optional[str] = None
    parallel: int = 2
    cache_dir: Optional[str] = None
    timeout_s: Optional[float] = None
    retries: int = 0

    def __post_init__(self) -> None:
        check_resilience(self.timeout_s, self.retries)


class _Job:
    """One unique in-flight point plus everyone waiting on it."""

    __slots__ = ("key", "spec", "resilience", "subscribers")

    def __init__(self, key: str, spec: PointSpec,
                 resilience: ResilienceConfig):
        self.key = key
        self.spec = spec
        self.resilience = resilience
        #: (session, request_id, point index) per waiting client
        self.subscribers: List[Tuple["_Session", int, int]] = []


class _Session:
    """One client connection's broker-side state."""

    def __init__(self, sid: int, writer: asyncio.StreamWriter):
        self.sid = sid
        self.writer = writer
        self.alive = True
        #: request id -> points still owed to this client
        self.remaining: Dict[int, int] = {}
        self.cancelled: set = set()


class Broker:
    """The service: sessions in, engine runs out, everything observable.

    All broker state is mutated only on the event-loop thread; the
    executor threads do nothing but run the engine on one point.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.config = config or ServiceConfig()
        self._plan = fault_plan
        self._prev_plan: Optional[FaultPlan] = None
        self._process = make_process()
        self._store = ResultStore(cache_dir=self.config.cache_dir)
        self._limit = max(1, self.config.parallel)
        self._run_point = partial(
            run_sweep_point, parallel=self.config.parallel,
            process=self._process,
            cache=DesignCache(cache_dir=self.config.cache_dir))
        self._pool = ThreadPoolExecutor(max_workers=self._limit,
                                        thread_name_prefix="repro-point")
        self._jobs: Dict[str, _Job] = {}
        #: fresh jobs waiting for a free slot, oldest first
        self._queue: Deque[_Job] = deque()
        #: the (at most ``parallel``) jobs executing right now
        self._active: Set[asyncio.Task] = set()
        self._sessions: Dict[int, _Session] = {}
        self._request_ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._accepting = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.port: Optional[int] = None
        self.endpoint: Optional[str] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener."""
        if self._plan is not None:
            self._prev_plan = faults.active_plan()
            faults.install(self._plan)
        self._accepting = True
        self._stop_event = asyncio.Event()
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self.config.socket_path,
                limit=MAX_LINE_BYTES)
            self.endpoint = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.config.host,
                port=self.config.port, limit=MAX_LINE_BYTES)
            self.port = self._server.sockets[0].getsockname()[1]
            self.endpoint = f"{self.config.host}:{self.port}"

    async def stop(self) -> None:
        """Close the listener, abandon queued and running points, drop
        the sessions."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._queue.clear()
        for task in self._active:
            task.cancel()
        await asyncio.gather(*self._active, return_exceptions=True)
        self._pool.shutdown(wait=False, cancel_futures=True)
        for session in list(self._sessions.values()):
            self._drop_session(session, expected=True)
        if self._plan is not None:
            faults.install(self._prev_plan)

    async def wait_stopped(self) -> None:
        """Block until a client's ``shutdown`` message (or a signal
        handler) sets the stop event."""
        assert self._stop_event is not None
        await self._stop_event.wait()

    def request_stop(self) -> None:
        """Thread-safe-only-from-the-loop stop trigger."""
        if self._stop_event is not None:
            self._stop_event.set()

    # -- connection handling ---------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        session = _Session(next(self._session_ids), writer)
        self._sessions[session.sid] = session
        try:
            while self._accepting:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line overran MAX_LINE_BYTES: cannot resync safely
                    await self._send(session, {
                        "type": "error",
                        "error": "wire line too long"})
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = decode_line(line)
                except SchemaError as exc:
                    await self._send(session,
                                     {"type": "error", "error": str(exc)})
                    continue
                if not await self._dispatch(session, msg):
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            self._drop_session(session)

    async def _dispatch(self, session: _Session,
                        msg: Dict[str, Any]) -> bool:
        """Handle one client message; False ends the session."""
        mtype = msg.get("type")
        if mtype == "submit":
            await self._handle_submit(session, msg)
        elif mtype == "cancel":
            await self._handle_cancel(session, msg)
        elif mtype == "ping":
            await self._send(session, {"type": "pong",
                                       "schema_version": SCHEMA_VERSION})
        elif mtype == "stats":
            await self._send(session, self._stats_payload())
        elif mtype == "shutdown":
            await self._send(session, {"type": "bye"})
            self.request_stop()
            return False
        else:
            await self._send(session, {
                "type": "error",
                "error": f"unknown message type {mtype!r}"})
        return session.alive

    async def _handle_submit(self, session: _Session,
                             msg: Dict[str, Any]) -> None:
        try:
            request = SweepRequest.from_wire(msg.get("request") or {})
            request.validate(known=REGISTRY)
        except SchemaError as exc:
            await self._send(session, {"type": "error",
                                       "error": str(exc)})
            return
        rid = next(self._request_ids)
        metrics().counter("service.requests").inc()
        session.remaining[rid] = len(request.points)
        await self._send(session, {
            "type": "accepted", "request_id": rid,
            "n_points": len(request.points),
            "schema_version": SCHEMA_VERSION})
        timeout_s = (request.timeout_s if request.timeout_s is not None
                     else self.config.timeout_s)
        res = ResilienceConfig(
            timeout_s=timeout_s,
            retries=request.retries or self.config.retries)
        with trace.span("service.request", request_id=rid,
                        n_points=len(request.points)):
            for index, spec in enumerate(request.points):
                if not session.alive:
                    break
                metrics().counter("service.points").inc()
                await self._admit(session, rid, index, spec, res)

    async def _admit(self, session: _Session, rid: int, index: int,
                     spec: PointSpec, res: ResilienceConfig) -> None:
        """Route one point: store hit, coalesce, or enqueue fresh."""
        key = spec.key(self._process)
        hit = self._store.get(key)
        if hit is not None:
            metrics().counter("service.result_hits").inc()
            await self._deliver(session, rid, index,
                                hit.with_source("cache"))
            return
        job = self._jobs.get(key)
        if job is not None:
            metrics().counter("service.coalesced").inc()
            job.subscribers.append((session, rid, index))
            return
        job = _Job(key=key, spec=spec, resilience=res)
        job.subscribers.append((session, rid, index))
        self._jobs[key] = job
        self._queue.append(job)
        self._pump()

    async def _handle_cancel(self, session: _Session,
                             msg: Dict[str, Any]) -> None:
        rid = msg.get("request_id")
        if rid in session.remaining:
            session.cancelled.add(rid)
            session.remaining.pop(rid, None)
            for job in self._jobs.values():
                job.subscribers = [
                    s for s in job.subscribers
                    if not (s[0] is session and s[1] == rid)]
            metrics().counter("service.cancelled").inc()
        await self._send(session,
                         {"type": "cancelled", "request_id": rid})

    # -- scheduling ------------------------------------------------------

    def _pump(self) -> None:
        """Start queued jobs, oldest first, while fewer than
        ``parallel`` run; a job every subscriber abandoned while it
        waited is dropped unexecuted."""
        while (self._accepting and self._queue
               and len(self._active) < self._limit):
            job = self._queue.popleft()
            if not job.subscribers:
                self._jobs.pop(job.key, None)
                metrics().counter("service.dropped").inc()
                continue
            self._active.add(asyncio.ensure_future(self._execute(job)))

    async def _execute(self, job: _Job) -> None:
        """Run one job through the engine, then fan its result out."""
        loop = asyncio.get_running_loop()
        try:
            with trace.span("service.point", key=job.key[:12],
                            experiment=job.spec.experiment_id):
                run = await loop.run_in_executor(
                    self._pool, partial(self._run_point, job.spec,
                                        resilience=job.resilience))
            metrics().counter("service.computed").inc()
            await self._complete(job, run)
        finally:
            self._active.discard(asyncio.current_task())
            self._pump()

    # -- result fan-out --------------------------------------------------

    async def _complete(self, job: _Job, run: ExperimentRun) -> None:
        self._jobs.pop(job.key, None)
        result = PointResult.from_run(run, job.spec, job.key)
        if run.status == "ok":
            self._store.put(result)
        else:
            metrics().counter("service.failed").inc()
        for session, rid, index in list(job.subscribers):
            await self._deliver(session, rid, index, result)

    async def _deliver(self, session: _Session, rid: int, index: int,
                       result: PointResult) -> None:
        if not session.alive or rid in session.cancelled:
            return
        await self._send(session, {
            "type": "result", "request_id": rid, "index": index,
            "result": result.to_wire()})
        if not session.alive or rid not in session.remaining:
            return
        session.remaining[rid] -= 1
        if session.remaining[rid] <= 0:
            session.remaining.pop(rid, None)
            await self._send(session,
                             {"type": "done", "request_id": rid})

    async def _send(self, session: _Session,
                    obj: Dict[str, Any]) -> None:
        if not session.alive:
            return
        try:
            session.writer.write(encode_line(obj))
            await session.writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            self._drop_session(session)

    def _drop_session(self, session: _Session,
                      expected: bool = False) -> None:
        """Unsubscribe a dead client everywhere; running points
        finish regardless."""
        if not session.alive:
            return
        session.alive = False
        owed = sum(session.remaining.values())
        for job in self._jobs.values():
            job.subscribers = [s for s in job.subscribers
                               if s[0] is not session]
        session.remaining.clear()
        if owed and not expected:
            metrics().counter("service.disconnects").inc()
        self._sessions.pop(session.sid, None)
        try:
            session.writer.close()
        except Exception:
            pass

    # -- introspection ---------------------------------------------------

    def _stats_payload(self) -> Dict[str, Any]:
        counters = metrics().snapshot()["counters"]
        return {
            "type": "stats",
            "schema_version": SCHEMA_VERSION,
            "parallel": self.config.parallel,
            "counters": {k: v for k, v in counters.items()
                         if k.startswith(("service.", "tasks."))},
            "jobs_in_flight": len(self._jobs),
            "store_entries": len(self._store),
            "sessions": len(self._sessions),
        }


# ---------------------------------------------------------------------------
# Entry points: blocking serve (the CLI) and background serve (tests,
# load benches)
# ---------------------------------------------------------------------------

async def _serve_until_stopped(config: Optional[ServiceConfig],
                               fault_plan: Optional[FaultPlan],
                               verbose: bool) -> None:
    broker = Broker(config, fault_plan)
    await broker.start()
    if verbose:
        print(f"repro service listening on {broker.endpoint} "
              f"(parallel {broker.config.parallel})")
    try:
        await broker.wait_stopped()
    finally:
        await broker.stop()


def serve(config: Optional[ServiceConfig] = None,
          fault_plan: Optional[FaultPlan] = None,
          verbose: bool = True) -> None:
    """Run a broker in the foreground until shutdown/interrupt."""
    asyncio.run(_serve_until_stopped(config, fault_plan, verbose))


class BrokerHandle:
    """A broker running on its own thread's event loop."""

    def __init__(self, broker: Broker, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.broker = broker
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> Optional[int]:
        return self.broker.port

    @property
    def endpoint(self) -> Optional[str]:
        return self.broker.endpoint

    def stop(self, timeout: float = 30.0) -> None:
        if self.loop.is_running():
            self.loop.call_soon_threadsafe(self.broker.request_stop)
        self.thread.join(timeout)

    def __enter__(self) -> "BrokerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _background_main(config: Optional[ServiceConfig],
                     fault_plan: Optional[FaultPlan],
                     ready: threading.Event, slot: Dict) -> None:
    """Thread body of :func:`serve_background` (module-level so the
    thread target is importable and closure-free)."""
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    broker = Broker(config, fault_plan)
    try:
        loop.run_until_complete(broker.start())
    except BaseException as exc:  # startup failure must unblock ready
        slot["error"] = exc
        ready.set()
        loop.close()
        return
    slot["broker"] = broker
    slot["loop"] = loop
    ready.set()
    try:
        loop.run_until_complete(broker.wait_stopped())
    finally:
        loop.run_until_complete(broker.stop())
        loop.close()


def serve_background(config: Optional[ServiceConfig] = None,
                     fault_plan: Optional[FaultPlan] = None,
                     start_timeout: float = 30.0) -> BrokerHandle:
    """Start a broker on a daemon thread; returns once it listens.

    The workhorse of the tests and ``benchmarks/serve_load.py`` --
    bind ``port=0`` and read the ephemeral port off the handle.
    """
    ready = threading.Event()
    slot: Dict = {}
    thread = threading.Thread(target=_background_main,
                              args=(config, fault_plan, ready, slot),
                              daemon=True, name="repro-broker")
    thread.start()
    if not ready.wait(start_timeout):
        raise RuntimeError("broker did not start in time")
    if "error" in slot:
        raise RuntimeError(f"broker failed to start: {slot['error']}")
    return BrokerHandle(slot["broker"], slot["loop"], thread)
