"""Tests for the process-pool experiment engine."""

import json

import pytest

from repro.analysis.experiments import REGISTRY
from repro.core.explore import explore_design_space
from repro.parallel.engine import (explore_points, run_experiments,
                                   run_serial_experiment, run_sweep)
from repro.service.schema import PointSpec, SweepRequest


def test_unknown_id_raises():
    with pytest.raises(ValueError, match="unknown experiment ids"):
        run_experiments(ids=["table1", "nope"], scale=0.5)


def test_duplicate_ids_rejected():
    """The same id twice in one batch is an error, never a silent
    overwrite of the id-keyed report."""
    with pytest.raises(ValueError, match="duplicate"):
        run_experiments(ids=["table1", "table1"], scale=0.5)


def test_run_sweep_rejects_repeated_id_even_across_seeds():
    req = SweepRequest(points=(PointSpec("table1", 0.5, 1),
                               PointSpec("table1", 0.5, 2)))
    with pytest.raises(ValueError, match="duplicate experiment ids"):
        run_sweep(req)


def test_run_sweep_accepts_a_custom_request(process):
    req = SweepRequest(points=(PointSpec("table1", 0.5, 1),))
    report = run_sweep(req, process=process)
    assert [r.experiment_id for r in report.runs] == ["table1"]
    assert report.scale == 0.5


def test_run_serial_experiment_single_point(process):
    run = run_serial_experiment(PointSpec("table1", 0.5, 1),
                                process=process)
    assert run.status == "ok"
    assert run.experiment_id == "table1"
    assert run.result["experiment_id"] == "table1"
    assert run.attempts == 1


def test_default_ids_cover_registry():
    """Requesting nothing means the whole registry, in registry order."""
    tasks = list(REGISTRY)
    assert len(tasks) >= 11
    with pytest.raises(ValueError):
        run_experiments(ids=["definitely-not-registered"])
    # cheap smoke on one real id instead of the full registry
    report = run_experiments(ids=["table1"], scale=0.5)
    assert [r.experiment_id for r in report.runs] == ["table1"]


def test_serial_report_shape(process):
    report = run_experiments(ids=["table1", "table4"], scale=0.5,
                             process=process)
    assert [r.experiment_id for r in report.runs] == \
        ["table1", "table4"]
    assert report.parallel == 1
    assert report.scale == 0.5
    assert report.seed == 1
    assert all(r.wall_s >= 0 for r in report.runs)
    assert report.total_wall_s >= max(r.wall_s for r in report.runs)
    assert report.cache_stats is not None
    assert "hit_rate" in report.cache_stats
    # table4's shape check fails at half scale: propagation matters
    assert report.all_passed == all(r.all_passed for r in report.runs)
    summary = report.summary()
    assert "table1" in summary and "serial" in summary


def test_results_json_is_key_sorted_and_parseable(process):
    report = run_experiments(ids=["table1"], scale=0.5, process=process)
    payload = json.loads(report.results_json())
    assert set(payload) == {"table1"}
    assert set(payload["table1"]) >= {"experiment_id", "description",
                                      "all_passed", "checks"}
    # key-sorted serialization: re-dumping sorted is a fixed point
    assert report.results_json() == json.dumps(payload, sort_keys=True,
                                               indent=2)


def test_timing_json_round_trips(process):
    report = run_experiments(ids=["table1"], scale=0.5, process=process)
    timing = json.loads(report.timing_json())
    assert timing["parallel"] == 1
    assert timing["scale"] == 0.5
    assert set(timing["experiments"]) == {"table1"}
    assert timing["total_wall_s"] >= 0
    assert "cache" in timing


@pytest.mark.slow
def test_parallel_pool_matches_serial_and_reports_workers(process,
                                                          tmp_path):
    ids = ["table1", "table4"]
    serial = run_experiments(ids=ids, scale=0.5, process=process)
    par = run_experiments(ids=ids, scale=0.5, parallel=2,
                          cache_dir=tmp_path)
    assert par.parallel == 2
    assert [r.experiment_id for r in par.runs] == ids
    assert par.results_json() == serial.results_json()
    # per-worker cache stats aggregate back to the parent: hit rates
    # are real numbers under --parallel N, not None
    assert par.cache_stats is not None
    assert par.cache_stats["hit_rate"] >= 0.0
    assert len(par.worker_cache_stats) == len(ids)
    assert par.cache_stats["misses"] == \
        sum(d["misses"] for d in par.worker_cache_stats)
    lookups = (par.cache_stats["hits"] + par.cache_stats["disk_hits"]
               + par.cache_stats["misses"])
    assert lookups == (serial.cache_stats["hits"]
                       + serial.cache_stats["disk_hits"]
                       + serial.cache_stats["misses"])
    assert "2 workers" in par.summary()
    # worker spans merged into one timeline, keyed by worker pid
    workers = {d["worker"] for d in par.spans}
    assert len(workers) >= 2  # parent (bench span) + >=1 pool worker
    assert {d["name"] for d in par.spans} >= {"bench", "experiment"}


@pytest.mark.slow
def test_explore_parallel_matches_serial(process, tmp_path):
    grid = [("2d", False), ("fold_f2f", True)]
    serial = explore_design_space(process, grid=grid, scale=0.4)
    par = explore_design_space(process, grid=grid, scale=0.4,
                               parallel=2, cache_dir=tmp_path)
    assert par.points == serial.points
    assert par.pareto == serial.pareto


@pytest.mark.slow
def test_explore_duplicate_grid_points_coalesce(tmp_path):
    """A repeated (style, dual_vth) entry is computed once and fills
    every matching slot -- not recomputed, not overwritten."""
    grid = [("2d", False), ("2d", False)]
    points = explore_points(grid, scale=0.35, parallel=2,
                            cache_dir=tmp_path)
    assert len(points) == 2
    assert points[0] is points[1]  # one execution, replicated
