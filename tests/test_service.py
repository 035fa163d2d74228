"""End-to-end tests for the experiment service broker.

The broker runs in-process (:func:`serve_background`) and, unless a
test says otherwise, at ``parallel=0``: one point at a time inside
this interpreter, so test stub experiments registered here execute in
it -- which lets the tests hold submitted work open on a
:class:`threading.Event` and assert scheduling behaviour (coalescing,
queueing, disconnects) deterministically instead of by timing.  The
supervised ``parallel > 1`` path starts real worker processes, so its
test runs a real experiment.
"""

import contextlib
import os
import shutil
import tempfile
import threading
import time

import pytest

from repro.analysis import experiments as expmod
from repro.faults.plan import FaultPlan
from repro.obs.metrics import metrics
from repro.parallel import run_sweep_point
from repro.service import (Client, ServiceConfig, ServiceError,
                           serve_background)
from repro.service.schema import PointResult, PointSpec, SweepRequest
from repro.tech import make_process

STUB_IDS = ("svc_fast", "svc_gated")

#: gate the ``svc_gated`` stub blocks on until a test opens it
_GATE = threading.Event()
#: set by ``svc_gated`` on entry: the point is genuinely executing
_STARTED = threading.Event()
#: (experiment_id, scale, seed) per stub execution -- the ground truth
#: for "exactly one execution per unique point"
_CALLS = []
_CALLS_LOCK = threading.Lock()


def _stub_result(eid, opts):
    with _CALLS_LOCK:
        _CALLS.append((eid, opts.scale, opts.seed))
    return expmod.ExperimentResult(
        experiment_id=eid, description="service stub",
        table=f"{eid} scale={opts.scale} seed={opts.seed}",
        checks=[expmod.ShapeCheck("stub", True, str(opts.seed), "n/a")])


@pytest.fixture(scope="module")
def stub_experiments():
    """Two throwaway experiments registered for this module only."""

    @expmod.experiment("svc_fast", "service stub: returns immediately")
    def _fast(opts):
        return _stub_result("svc_fast", opts)

    @expmod.experiment("svc_gated", "service stub: waits on the gate")
    def _gated(opts):
        _STARTED.set()
        assert _GATE.wait(30.0), "test gate never opened"
        return _stub_result("svc_gated", opts)

    yield STUB_IDS
    for eid in STUB_IDS:
        expmod.REGISTRY.pop(eid, None)


@pytest.fixture()
def gate():
    _GATE.clear()
    _STARTED.clear()
    del _CALLS[:]
    yield _GATE
    _GATE.set()  # unblock any straggling executor thread


def _counters():
    return dict(metrics().snapshot()["counters"])


def _delta(before, name):
    return _counters().get(name, 0) - before.get(name, 0)


def _config(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("parallel", 0)
    return ServiceConfig(**kw)


@contextlib.contextmanager
def _serve(transport="tcp", fault_plan=None, **kw):
    """A background broker; yields the :class:`Client` kwargs that
    reach it over ``transport`` (``"tcp"`` or ``"unix"``)."""
    if transport == "tcp":
        with serve_background(_config(**kw), fault_plan) as handle:
            yield {"port": handle.port}
        return
    # AF_UNIX paths cap near 107 bytes and pytest's tmp_path can exceed
    # that, so the socket goes in a short private temp dir
    tmp = tempfile.mkdtemp(prefix="repro-svc-")
    path = os.path.join(tmp, "broker.sock")
    try:
        with serve_background(_config(socket_path=path, **kw),
                              fault_plan) as handle:
            assert handle.endpoint == path
            yield {"socket_path": path}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _poll(predicate, timeout=15.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    pytest.fail(f"timed out waiting for {what}")


class TestProtocolBasics:
    def test_ping_and_stats(self, stub_experiments):
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                pong = client.ping()
                assert pong["type"] == "pong"
                stats = client.stats()
        assert stats["type"] == "stats"
        assert stats["parallel"] == 0
        assert stats["sessions"] == 1

    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_round_trip_over_each_listener(self, stub_experiments,
                                           transport):
        with _serve(transport) as endpoint:
            with Client(timeout=30.0, **endpoint) as client:
                assert client.ping()["type"] == "pong"
                results = client.collect(SweepRequest(
                    points=(PointSpec("svc_fast", 1.0, 1),)))
        assert [r.ok for r in results] == [True]
        assert results[0].result["table"] == "svc_fast scale=1.0 seed=1"

    def test_unknown_experiment_id_is_rejected(self, stub_experiments):
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                bad = SweepRequest(points=(PointSpec("nope", 1.0, 1),))
                with pytest.raises(ServiceError,
                                   match="unknown experiment ids"):
                    client.collect(bad)
                # the connection survives a rejected submit
                good = SweepRequest(points=(PointSpec("svc_fast",
                                                      1.0, 11),))
                results = client.collect(good)
        assert len(results) == 1 and results[0].ok

    def test_impossible_resilience_is_rejected(self, stub_experiments):
        """A negative timeout is refused at the edge with an ``error``
        reply; no point of the request runs."""
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                bad = SweepRequest(points=(PointSpec("svc_fast", 1.0, 21),),
                                   timeout_s=-1.0)
                with pytest.raises(ServiceError, match="timeout_s"):
                    client.collect(bad)
        assert ("svc_fast", 1.0, 21) not in _CALLS

    def test_result_carries_the_experiment_payload(self,
                                                   stub_experiments):
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                req = SweepRequest(points=(PointSpec("svc_fast",
                                                     0.5, 21),))
                res = client.collect(req)[0]
        assert res.status == "ok" and res.all_passed
        assert res.source == "computed"
        assert res.result["table"] == "svc_fast scale=0.5 seed=21"
        assert res.point == PointSpec("svc_fast", 0.5, 21)


class TestCoalescing:
    def test_overlapping_clients_cost_one_execution(self,
                                                    stub_experiments,
                                                    gate):
        """N clients sweeping the same point -> exactly one run."""
        before = _counters()
        req = SweepRequest(points=(PointSpec("svc_gated", 1.0, 101),))
        with serve_background(_config()) as handle:
            results = [None, None, None]

            def drive(i):
                with Client(port=handle.port, timeout=30.0) as client:
                    results[i] = client.collect(req)

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            # the job is gated open: wait until the two late clients
            # have attached to it, then let it run
            _poll(lambda: _delta(before, "service.coalesced") >= 2,
                  what="both late submissions to coalesce")
            gate.set()
            for t in threads:
                t.join(30.0)

        assert [eid for eid, _, _ in _CALLS] == ["svc_gated"]
        assert _delta(before, "service.computed") == 1
        assert _delta(before, "service.coalesced") == 2
        canon = {res[0].canonical_json() for res in results}
        assert len(canon) == 1  # every client saw identical bytes

    def test_repeat_sweep_is_served_from_the_store(self,
                                                   stub_experiments,
                                                   gate):
        before = _counters()
        req = SweepRequest(points=(PointSpec("svc_fast", 1.0, 111),))
        gate.set()
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                first = client.collect(req)[0]
                second = client.collect(req)[0]
        assert first.source == "computed"
        assert second.source == "cache"
        assert second.canonical_json() == first.canonical_json()
        assert _delta(before, "service.computed") == 1
        assert _delta(before, "service.result_hits") == 1


class TestScheduling:
    def test_stream_order_is_completion_order(self, stub_experiments,
                                              gate):
        """One in-process worker: a store hit at index 1 streams before
        the point ahead of it, which is still computing."""
        stored = PointSpec("svc_fast", 1.0, 201)
        order = []
        with _serve() as endpoint:
            with Client(timeout=30.0, **endpoint) as client:
                client.collect(SweepRequest(points=(stored,)))
                rid = client.submit(SweepRequest(points=(
                    PointSpec("svc_gated", 1.0, 201), stored)))
                for index, _ in client.stream(rid):
                    order.append(index)
                    gate.set()  # the hit is out: let index 0 finish
        assert order == [1, 0]  # completion order, not request order

    def test_cancel_terminates_the_stream(self, stub_experiments,
                                          gate):
        before = _counters()
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                req = SweepRequest(points=(PointSpec("svc_gated",
                                                     1.0, 221),))
                rid = client.submit(req)
                client.cancel(rid)
                got = list(client.stream(rid))
        gate.set()
        assert got == []
        assert _delta(before, "service.cancelled") == 1


class TestFailureContract:
    def test_disconnect_mid_stream_does_not_poison_the_pool(
            self, stub_experiments, gate):
        before = _counters()
        with serve_background(_config()) as handle:
            victim = Client(port=handle.port, timeout=30.0)
            victim.connect()
            rid = victim.submit(SweepRequest(
                points=(PointSpec("svc_gated", 1.0, 301),)))
            assert rid >= 1
            # wait until the only worker is blocked inside the gated
            # point, then vanish without reading a single result
            assert _STARTED.wait(15.0), "gated point never started"
            victim.close()
            _poll(lambda: _delta(before, "service.disconnects") == 1,
                  what="the broker to notice the disconnect")
            gate.set()
            _poll(lambda: _delta(before, "service.computed") == 1,
                  what="the orphaned point to finish")
            # the same worker must still serve a fresh client
            with Client(port=handle.port, timeout=30.0) as client:
                res = client.collect(SweepRequest(
                    points=(PointSpec("svc_fast", 1.0, 302),)))[0]
        assert res.ok

    def test_queued_job_of_a_vanished_client_is_dropped(
            self, stub_experiments, gate):
        before = _counters()
        with _serve() as endpoint:
            with Client(timeout=30.0, **endpoint) as holder:
                held = holder.submit(SweepRequest(
                    points=(PointSpec("svc_gated", 1.0, 311),)))
                assert _STARTED.wait(15.0), "gated point never started"
                # the only worker is busy, so this point queues behind
                # it -- and its one client leaves before it starts
                victim = Client(timeout=30.0, **endpoint)
                victim.submit(SweepRequest(
                    points=(PointSpec("svc_fast", 1.0, 312),)))
                victim.close()
                _poll(lambda: _delta(before, "service.disconnects") == 1,
                      what="the broker to notice the disconnect")
                gate.set()
                assert [r.ok for _, r in holder.stream(held)] == [True]
                _poll(lambda: _delta(before, "service.dropped") == 1,
                      what="the abandoned job to be dropped")
        assert ("svc_fast", 1.0, 312) not in _CALLS
        assert _delta(before, "service.computed") == 1


class TestSupervisedExecution:
    def test_crashed_workers_retry_to_the_serial_bytes(self):
        """``parallel > 1`` runs each point in a supervised worker: the
        engine replaces a worker that crashed on the first attempt, and
        the retried result is the in-process result, byte for byte."""
        plan = FaultPlan.parse("crash task=table1 stage=task attempt=1")
        points = (PointSpec("table1", 0.3, 1), PointSpec("table1", 0.3, 2))
        before = _counters()
        with _serve(parallel=2, retries=1, fault_plan=plan) as endpoint:
            with Client(timeout=120.0, **endpoint) as client:
                results = client.collect(SweepRequest(points=points))
        assert [(r.status, r.attempts) for r in results] == [("ok", 2)] * 2
        assert _delta(before, "tasks.crashed") == 2
        process = make_process()
        for point, result in zip(points, results):
            run = run_sweep_point(point, process=process)
            want = PointResult.from_run(run, point, point.key(process))
            assert result.canonical_json() == want.canonical_json()
