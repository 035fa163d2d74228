"""Chaos tests for the ECO engine's fault seams.

Mirrors the ``tests/test_engine_resilience.py`` matrix at the new
``eco`` fault point (hit once per closure round and once by the flow's
``flow.eco`` stage): recoverable faults retry to byte-equality,
unrecoverable faults degrade to a failed run recorded in the report,
hangs are cut at the cooperative deadline -- and a fault mid-closure
never leaks a partially mutated design into the base it derives from.
"""

import time
from dataclasses import replace

import pytest

from repro import faults
from repro.core.flow import FlowConfig, run_block_flow
from repro.eco import EcoConfig, derive_design
from repro.faults import FaultPlan, InjectedFault
from repro.parallel.engine import run_sweep
from repro.service.schema import SweepRequest

IDS = ["eco", "table4"]
SCALE = 0.3


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference for byte-equality checks."""
    return run_sweep(SweepRequest.from_ids(IDS, scale=SCALE))


def _chaos_counters(report):
    counters = (report.metrics or {}).get("counters", {})
    return {k: v for k, v in counters.items()
            if k.startswith(("faults.", "tasks."))}


class TestEcoFaultMatrix:
    def test_recoverable_eco_fault_retries_to_byte_equality(
            self, baseline):
        plan = FaultPlan.parse("raise task=eco stage=eco attempt=1")
        report = run_sweep(SweepRequest.from_ids(IDS, scale=SCALE, retries=1),
                           fault_plan=plan)
        assert report.completed()
        by_id = {r.experiment_id: r for r in report.runs}
        assert by_id["eco"].attempts == 2
        assert by_id["table4"].attempts == 1
        assert report.results_json() == baseline.results_json()
        counters = _chaos_counters(report)
        assert counters["faults.injected"] == 1.0
        assert counters["tasks.retried"] == 1.0
        assert "tasks.failed" not in counters

    def test_unrecoverable_eco_fault_degrades_to_partial(
            self, baseline):
        plan = FaultPlan.parse("raise task=eco stage=eco attempt=0")
        report = run_sweep(SweepRequest.from_ids(IDS, scale=SCALE, retries=1),
                           fault_plan=plan)
        assert not report.completed()
        assert not report.all_passed
        by_id = {r.experiment_id: r for r in report.runs}
        assert by_id["eco"].status == "failed"
        assert by_id["eco"].attempts == 2
        assert "InjectedFault" in by_id["eco"].error
        assert by_id["eco"].result == {}
        assert by_id["table4"].status == "ok"
        # the surviving results are the uninjected ones, bit for bit
        want = dict(baseline.results_dict())
        del want["eco"]
        assert report.results_dict() == want
        counters = _chaos_counters(report)
        assert counters["tasks.failed"] == 1.0
        assert "degraded: 1 of 2" in report.summary()

    def test_eco_hang_is_cut_at_the_cooperative_deadline(
            self, baseline):
        plan = FaultPlan.parse(
            "hang task=eco stage=eco attempt=1 seconds=60")
        t0 = time.monotonic()
        report = run_sweep(SweepRequest.from_ids(IDS, scale=SCALE,
                                                 timeout_s=5.0, retries=1),
                           fault_plan=plan)
        assert time.monotonic() - t0 < 60
        assert report.completed()
        assert {r.experiment_id: r.attempts
                for r in report.runs} == {"eco": 2, "table4": 1}
        counters = _chaos_counters(report)
        assert counters["tasks.timed_out"] == 1.0
        assert counters["tasks.retried"] == 1.0
        assert report.results_json() == baseline.results_json()

    def test_fault_free_reruns_are_byte_identical(self, baseline):
        again = run_sweep(SweepRequest.from_ids(IDS, scale=SCALE))
        assert again.results_json() == baseline.results_json()
        assert _chaos_counters(again) == {}


class TestNoPartialMutationLeaks:
    def test_fault_mid_closure_leaves_the_base_design_intact(
            self, process):
        """A raise inside ``close_timing`` aborts the derivation --
        the base design it was cloned from must not have moved."""
        base = run_block_flow(
            "l2t", FlowConfig(scale=0.12, seed=7, io_budget_ps=60.0),
            process)
        masters = {i: inst.master.name
                   for i, inst in base.netlist.instances.items()}
        routing = [(nid, r.length_um, r.wire_cap_ff)
                   for nid, r in base.routing.nets.items()]
        wns = base.sta.wns_ps
        neighbor = replace(base.config, io_budget_ps=90.0,
                           dual_vth=True, eco=EcoConfig())
        with faults.installed(
                FaultPlan.parse("raise task=* stage=eco attempt=0")):
            with pytest.raises(InjectedFault):
                derive_design(base, neighbor, process)
        assert {i: inst.master.name
                for i, inst in base.netlist.instances.items()} == masters
        assert [(nid, r.length_um, r.wire_cap_ff)
                for nid, r in base.routing.nets.items()] == routing
        assert base.sta.wns_ps == wns
