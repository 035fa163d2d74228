"""Chaos tests for the resilient experiment engine.

The matrix: fault kind (raise / hang / slow / crash / corrupt) x
execution mode (serial / supervised workers) x attempt number
(recoverable ``attempt=1`` vs unrecoverable ``attempt=0``).  Plus the
regression the engine was hardened for in the first place: a hung or
crashed worker must never block result collection forever.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.obs import trace
from repro.parallel.engine import (MP_CONTEXT, EngineError, _child_main,
                                   explore_points, run_experiments)

IDS = ["fig6", "table4"]
SCALE = 0.5


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference for byte-equality checks."""
    return run_experiments(ids=IDS, scale=SCALE)


def _chaos_counters(report):
    counters = (report.metrics or {}).get("counters", {})
    return {k: v for k, v in counters.items()
            if k.startswith(("faults.", "tasks."))}


# ---------------------------------------------------------------------------
# Serial fault matrix
# ---------------------------------------------------------------------------

class TestSerialFaults:
    @pytest.mark.parametrize("kind", ["raise", "crash"])
    def test_recoverable_fault_retries_to_byte_equality(self, kind,
                                                        baseline):
        plan = FaultPlan.parse(f"{kind} task=fig6 stage=task attempt=1")
        report = run_experiments(ids=IDS, scale=SCALE, retries=1,
                                 fault_plan=plan)
        assert report.completed()
        by_id = {r.experiment_id: r for r in report.runs}
        assert by_id["fig6"].attempts == 2
        assert by_id["table4"].attempts == 1
        assert report.results_json() == baseline.results_json()
        counters = _chaos_counters(report)
        assert counters["faults.injected"] == 1.0
        assert counters["tasks.retried"] == 1.0
        assert "tasks.failed" not in counters

    def test_slow_fault_changes_nothing_but_time(self, baseline):
        plan = FaultPlan.parse(
            "slow task=* stage=optimize attempt=1 seconds=0.01")
        report = run_experiments(ids=IDS, scale=SCALE, fault_plan=plan)
        assert report.completed()
        assert all(r.attempts == 1 for r in report.runs)
        assert report.results_json() == baseline.results_json()
        assert _chaos_counters(report)["faults.injected"] >= 1.0

    def test_hang_is_cut_at_the_cooperative_deadline(self, baseline):
        plan = FaultPlan.parse(
            "hang task=fig6 stage=place attempt=1 seconds=60")
        t0 = time.monotonic()
        report = run_experiments(ids=IDS, scale=SCALE, timeout_s=1.0,
                                 retries=1, fault_plan=plan)
        assert time.monotonic() - t0 < 30
        assert report.completed()
        assert {r.experiment_id: r.attempts
                for r in report.runs} == {"fig6": 2, "table4": 1}
        counters = _chaos_counters(report)
        assert counters["tasks.timed_out"] == 1.0
        assert counters["tasks.retried"] == 1.0
        assert report.results_json() == baseline.results_json()

    def test_unrecoverable_fault_degrades_to_partial(self, baseline):
        plan = FaultPlan.parse("raise task=fig6 stage=task attempt=0")
        report = run_experiments(ids=IDS, scale=SCALE, retries=2,
                                 fault_plan=plan)
        assert not report.completed()
        assert not report.all_passed
        by_id = {r.experiment_id: r for r in report.runs}
        assert by_id["fig6"].status == "failed"
        assert by_id["fig6"].attempts == 3
        assert "InjectedFault" in by_id["fig6"].error
        assert by_id["fig6"].result == {}
        assert by_id["table4"].status == "ok"
        # the surviving results are the uninjected results, bit for bit
        want = dict(baseline.results_dict())
        del want["fig6"]
        assert report.results_dict() == want
        counters = _chaos_counters(report)
        assert counters["faults.injected"] == 3.0
        assert counters["tasks.retried"] == 2.0
        assert counters["tasks.failed"] == 1.0
        assert "degraded: 1 of 2" in report.summary()
        assert report.timing_dict()["resilience"]["fig6"]["attempts"] == 3

    def test_deterministic_replay_of_a_seeded_plan(self):
        plan = FaultPlan.seeded(9, tasks=IDS)
        reports = [run_experiments(ids=IDS, scale=SCALE, retries=1,
                                   fault_plan=plan) for _ in range(2)]
        a, b = reports
        assert a.results_json() == b.results_json()
        assert [(r.experiment_id, r.status, r.attempts, r.error)
                for r in a.runs] == \
               [(r.experiment_id, r.status, r.attempts, r.error)
                for r in b.runs]
        assert _chaos_counters(a) == _chaos_counters(b)

    def test_fault_free_reruns_are_byte_identical(self, baseline):
        again = run_experiments(ids=IDS, scale=SCALE)
        assert again.results_json() == baseline.results_json()
        assert _chaos_counters(again) == {}


# ---------------------------------------------------------------------------
# Supervised workers
# ---------------------------------------------------------------------------

class TestParallelResilience:
    def test_hung_worker_never_blocks_collection(self, baseline):
        """Satellite regression: the old pool's unbounded ``.get()``
        would wait on this worker forever; the supervisor must kill it
        at the deadline and recover on the retry."""
        plan = FaultPlan.parse(
            "hang task=fig6 stage=place attempt=1 seconds=300")
        t0 = time.monotonic()
        report = run_experiments(ids=IDS, scale=SCALE, parallel=2,
                                 timeout_s=8, retries=1,
                                 fault_plan=plan)
        wall = time.monotonic() - t0
        assert wall < 120, f"collection blocked for {wall:.0f}s"
        assert report.completed()
        assert {r.experiment_id: r.attempts
                for r in report.runs} == {"fig6": 2, "table4": 1}
        counters = _chaos_counters(report)
        assert counters["tasks.timed_out"] == 1.0
        assert counters["tasks.retried"] == 1.0
        assert report.results_json() == baseline.results_json()

    def test_crashed_worker_is_replaced(self, baseline):
        plan = FaultPlan.parse("crash task=fig6 stage=task attempt=1")
        report = run_experiments(ids=IDS, scale=SCALE, parallel=2,
                                 retries=1, fault_plan=plan)
        assert report.completed()
        assert {r.experiment_id: r.attempts
                for r in report.runs} == {"fig6": 2, "table4": 1}
        counters = _chaos_counters(report)
        assert counters["tasks.crashed"] == 1.0
        assert counters["tasks.retried"] == 1.0
        assert report.results_json() == baseline.results_json()

    def test_combined_hang_crash_corruption_plan(self, tmp_path,
                                                 baseline):
        """The acceptance scenario: a plan that hangs one task forever,
        crashes another on every attempt, and corrupts cache entries --
        the parallel run must come back within the timeout budget with
        partial results, and the same plan must replay identically."""
        plan = FaultPlan.parse(
            "hang task=fig6 stage=place attempt=0 seconds=300; "
            "crash task=table4 stage=task attempt=0; "
            "corrupt task=* stage=cache.load attempt=1", seed=4)

        def chaos_run():
            t0 = time.monotonic()
            report = run_experiments(
                ids=IDS, scale=SCALE, parallel=2,
                cache_dir=str(tmp_path / "cache"),
                timeout_s=5, retries=1, fault_plan=plan)
            return report, time.monotonic() - t0

        first, wall = chaos_run()
        # budget: 2 attempts x 5s deadline for the hang, plus overhead
        assert wall < 120, f"run took {wall:.0f}s"
        by_id = {r.experiment_id: r for r in first.runs}
        assert by_id["fig6"].status == "timeout"
        assert by_id["table4"].status == "failed"
        assert "crashed" in by_id["table4"].error
        assert all(r.attempts == 2 for r in first.runs)
        assert first.results_dict() == {}
        assert not first.completed()

        replay, _ = chaos_run()
        assert [(r.experiment_id, r.status, r.attempts)
                for r in replay.runs] == \
               [(r.experiment_id, r.status, r.attempts)
                for r in first.runs]

    def test_unrecoverable_crash_yields_partial_results(self, baseline):
        plan = FaultPlan.parse("crash task=fig6 stage=task attempt=0")
        report = run_experiments(ids=IDS, scale=SCALE, parallel=2,
                                 retries=1, fault_plan=plan)
        by_id = {r.experiment_id: r for r in report.runs}
        assert by_id["fig6"].status == "failed"
        assert "crashed" in by_id["fig6"].error
        assert by_id["table4"].status == "ok"
        want = dict(baseline.results_dict())
        del want["fig6"]
        assert report.results_dict() == want
        assert _chaos_counters(report)["tasks.crashed"] == 2.0


    def test_failed_attempt_is_no_crash(self, baseline):
        """A worker whose task raised reports the error and exits
        cleanly: the supervisor retries it as failed, not crashed.
        Each attempt's worker start, the retry's included, is one
        ``task.launch`` span."""
        plan = FaultPlan.parse("raise task=fig6 stage=task attempt=1")
        with trace.use_tracer(trace.Tracer()):
            report = run_experiments(ids=IDS, scale=SCALE, parallel=2,
                                     retries=1, fault_plan=plan)
        assert report.completed()
        counters = _chaos_counters(report)
        assert counters["tasks.retried"] == 1.0
        assert "tasks.crashed" not in counters
        assert report.results_json() == baseline.results_json()
        launches = sorted((sp["attrs"]["task"], sp["attrs"]["attempt"])
                          for sp in report.spans
                          if sp["name"] == "task.launch")
        assert launches == [("fig6", 1), ("fig6", 2), ("table4", 1)]

    def test_a_slow_first_launch_shortens_no_deadline(self, baseline,
                                                      monkeypatch):
        """Each worker's deadline runs from the end of its own
        ``Process.start()``.  A first launch that outlasts
        ``timeout_s``, as one that also starts the fork server can on a
        loaded machine, must time out neither that task nor the one
        launched after it in the same scheduling pass."""
        timeout_s = 3.0
        process_cls = multiprocessing.get_context(MP_CONTEXT).Process
        real_start = process_cls.start
        delays = [timeout_s + 0.5]

        def slow_first_start(proc):
            if delays:
                time.sleep(delays.pop())
            real_start(proc)

        monkeypatch.setattr(process_cls, "start", slow_first_start)
        report = run_experiments(ids=IDS, scale=SCALE, parallel=2,
                                 timeout_s=timeout_s)
        assert not delays
        assert [run.status for run in report.runs] == ["ok", "ok"]
        assert report.results_json() == baseline.results_json()

    def test_a_dead_fork_server_is_replaced(self):
        """A fork server killed between two runs costs the next run a
        server start and nothing else: same bytes, no crashed task."""
        from multiprocessing import forkserver
        first = run_experiments(ids=IDS, scale=SCALE, parallel=2)
        pid = forkserver._forkserver._forkserver_pid
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        # wait for its death but leave it unreaped: noticing it is the
        # next launch's job
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        second = run_experiments(ids=IDS, scale=SCALE, parallel=2)
        assert forkserver._forkserver._forkserver_pid not in (None, pid)
        assert second.completed()
        assert second.results_json() == first.results_json()
        assert "tasks.crashed" not in _chaos_counters(second)


def _one_worker(plan):
    """Run one supervised worker on table1: its message (None when it
    sent none) and its exit code."""
    ctx = multiprocessing.get_context(MP_CONTEXT)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main,
                       args=(child_conn, "experiment", 0,
                             ("table1", 0.3, 1), 1, None, plan, True))
    proc.start()
    child_conn.close()
    msg = None
    try:
        if parent_conn.poll(60):
            msg = parent_conn.recv()
    except EOFError:
        pass
    finally:
        parent_conn.close()
        proc.join(60)
    return msg, proc.exitcode


@pytest.mark.parametrize("fault, status", [
    (None, "ok"),
    ("raise task=table1 stage=task attempt=1", "error"),
])
def test_worker_exits_with_code_0_once_it_reported(fault, status):
    msg, exitcode = _one_worker(FaultPlan.parse(fault) if fault else None)
    assert msg is not None and msg[0] == status
    if status == "ok":
        assert msg[2].experiment_id == "table1"
    assert exitcode == 0


def test_crash_fault_still_reads_as_a_crash():
    msg, exitcode = _one_worker(
        FaultPlan.parse("crash task=table1 stage=task attempt=1"))
    assert msg is None
    assert exitcode == 3


@pytest.mark.parametrize("parallel", [0, 2])
def test_task_stage_fault_record_reaches_the_report(parallel, baseline):
    """A fault at the engine's ``task`` stage, on an attempt that then
    succeeds, is recorded the same serial and supervised: the worker's
    payload covers everything since it started, not only the flow."""
    plan = FaultPlan.parse(
        "slow task=fig6 stage=task attempt=1 seconds=0.01")
    report = run_experiments(ids=IDS, scale=SCALE, parallel=parallel,
                             fault_plan=plan)
    assert report.completed()
    assert _chaos_counters(report)["faults.injected"] == 1.0
    assert "fault.injected" in {sp["name"] for sp in report.spans}
    assert report.results_json() == baseline.results_json()


# ---------------------------------------------------------------------------
# Cache corruption under the engine
# ---------------------------------------------------------------------------

class TestCacheChaos:
    def test_corruption_mid_suite_recomputes_and_heals(self, tmp_path,
                                                       baseline):
        cache_dir = str(tmp_path / "cache")
        warm = run_experiments(ids=IDS, scale=SCALE,
                               cache_dir=cache_dir)
        assert warm.cache_stats["stores"] > 0
        assert warm.results_json() == baseline.results_json()

        plan = FaultPlan.parse("corrupt task=* stage=cache.load attempt=1")
        chaos = run_experiments(ids=IDS, scale=SCALE,
                                cache_dir=cache_dir, fault_plan=plan)
        # the garbled entries were dropped, recomputed and re-stored;
        # the numbers never moved
        assert chaos.cache_stats["corrupt_drops"] >= 1
        assert chaos.completed()
        assert chaos.results_json() == baseline.results_json()
        counters = (chaos.metrics or {}).get("counters", {})
        assert counters["cache.corrupt_drops"] >= 1.0
        assert counters["faults.injected.corrupt"] >= 1.0

        # the atomic rewrite healed the disk tier: a fault-free rerun
        # disk-hits and stays byte-identical
        healed = run_experiments(ids=IDS, scale=SCALE,
                                 cache_dir=cache_dir)
        assert healed.cache_stats["disk_hits"] > 0
        assert healed.cache_stats["corrupt_drops"] == 0
        assert healed.results_json() == baseline.results_json()


# ---------------------------------------------------------------------------
# Exploration fan-out
# ---------------------------------------------------------------------------

class TestExploreResilience:
    GRID = [("2d", False), ("2d", True)]

    def test_partial_exploration_opt_in(self, tmp_path):
        plan = FaultPlan.parse("crash task=2d/rvt stage=task attempt=0")
        cache_dir = str(tmp_path / "cache")
        points = explore_points(self.GRID, scale=0.5, parallel=2,
                                cache_dir=cache_dir, retries=1,
                                fault_plan=plan, allow_partial=True)
        assert points[0] is None
        assert points[1] is not None

        with pytest.raises(EngineError, match="2d/rvt"):
            explore_points(self.GRID, scale=0.5, parallel=2,
                           cache_dir=cache_dir, retries=0,
                           fault_plan=plan)
