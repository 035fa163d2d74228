"""End-to-end tests for the experiment service broker.

The broker runs in-process (:func:`serve_background`) with ``inline``
shards, so test stub experiments registered here execute inside this
interpreter -- which lets the tests hold submitted work open on a
:class:`threading.Event` and assert scheduling behaviour (coalescing,
stealing, disconnects, chaos) deterministically instead of by timing.
"""

import threading
import time

import pytest

from repro.analysis import experiments as expmod
from repro.faults.plan import FaultPlan
from repro.obs.metrics import metrics
from repro.service import (Client, ServiceConfig, ServiceError,
                           serve_background)
from repro.service.schema import PointSpec, SweepRequest

STUB_IDS = ("svc_fast", "svc_slow", "svc_gated")

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
    """Three throwaway experiments registered for this module only."""

    @expmod.experiment("svc_fast", "service stub: returns immediately")
    def _fast(opts):
        return _stub_result("svc_fast", opts)

    @expmod.experiment("svc_slow", "service stub: sleeps 0.4 s")
    def _slow(opts):
        time.sleep(0.4)
        return _stub_result("svc_slow", opts)

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
    _GATE.set()  # unblock any straggling shard thread


def _counters():
    return dict(metrics().snapshot()["counters"])


def _delta(before, name):
    return _counters().get(name, 0) - before.get(name, 0)


def _config(**kw):
    kw.setdefault("port", 0)
    kw.setdefault("shards", 2)
    kw.setdefault("shard_mode", "inline")
    return ServiceConfig(**kw)


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
        assert [s["alive"] for s in stats["shards"]] == [True, True]
        assert stats["sessions"] == 1

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
    def test_stream_order_is_completion_order(self, stub_experiments):
        req = SweepRequest(points=(
            PointSpec("svc_slow", 1.0, 201),   # shard 0, ~0.4 s
            PointSpec("svc_fast", 1.0, 201),   # shard 1, immediate
        ))
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                rid = client.submit(req)
                order = [index for index, _ in client.stream(rid)]
        assert order == [1, 0]  # fast point first, not request order

    def test_idle_shard_steals_queued_work(self, stub_experiments):
        before = _counters()
        req = SweepRequest(points=(
            PointSpec("svc_slow", 1.0, 211),  # occupies shard 0
            PointSpec("svc_fast", 1.0, 211),  # shard 1, done instantly
            PointSpec("svc_fast", 1.0, 212),  # queued on shard 0,
        ))                                    # stolen by idle shard 1
        with serve_background(_config()) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                results = client.collect(req)
        assert all(r.ok for r in results)
        assert _delta(before, "service.steals") >= 1
        assert _delta(before, "service.computed") == 3

    def test_cancel_terminates_the_stream(self, stub_experiments,
                                          gate):
        before = _counters()
        with serve_background(_config(shards=1)) as handle:
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
        with serve_background(_config(shards=1)) as handle:
            victim = Client(port=handle.port, timeout=30.0)
            victim.connect()
            rid = victim.submit(SweepRequest(
                points=(PointSpec("svc_gated", 1.0, 301),)))
            assert rid >= 1
            # wait until the only shard is blocked inside the gated
            # point, then vanish without reading a single result
            assert _STARTED.wait(15.0), "gated point never started"
            victim.close()
            _poll(lambda: _delta(before, "service.disconnects") == 1,
                  what="the broker to notice the disconnect")
            gate.set()
            _poll(lambda: _delta(before, "service.computed") == 1,
                  what="the orphaned point to finish")
            # the same shard must still serve a fresh client
            with Client(port=handle.port, timeout=30.0) as client:
                res = client.collect(SweepRequest(
                    points=(PointSpec("svc_fast", 1.0, 302),)))[0]
                stats = client.stats()
        assert res.ok
        assert [s["alive"] for s in stats["shards"]] == [True]
        assert _delta(before, "service.shard_deaths") == 0

    def test_killed_shard_drains_through_survivors(self,
                                                   stub_experiments):
        """Chaos contract: a fault-killed shard's queue is stolen."""
        plan = FaultPlan.parse("raise task=shard-0 stage=service.shard",
                               seed=1)
        before = _counters()
        req = SweepRequest(points=(
            PointSpec("svc_fast", 1.0, 311),
            PointSpec("svc_fast", 1.0, 312),
            PointSpec("svc_fast", 1.0, 313),
        ))
        with serve_background(_config(), fault_plan=plan) as handle:
            with Client(port=handle.port, timeout=30.0) as client:
                results = client.collect(req)
                stats = client.stats()
        assert all(r.ok for r in results)
        assert len(results) == len(req.points)
        assert _delta(before, "service.shard_deaths") == 1
        alive = {s["index"]: s["alive"] for s in stats["shards"]}
        assert alive == {0: False, 1: True}
