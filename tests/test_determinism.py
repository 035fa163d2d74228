"""Determinism guarantees: same request, same bytes.

The parallel engine and the persistent cache are only trustworthy if
equality is testable at the byte level, so every experiment result is
serialized with key-sorted JSON (timings excluded) and compared across
fresh runs, seeds, serial/parallel execution and cold/warm caches.
"""

import pytest

from repro.analysis.experiments import (ExperimentOptions, experiment_json,
                                        run_experiment)
from repro.core.cache import DesignCache
from repro.parallel.engine import run_sweep
from repro.service.schema import SweepRequest


def test_same_seed_same_bytes(process):
    """Two fresh runs of one experiment serialize identically."""
    opts = ExperimentOptions(process=process, scale=0.5, seed=1)
    a = run_experiment("table4", opts)
    b = run_experiment("table4", opts)
    assert experiment_json(a) == experiment_json(b)


def test_different_seed_different_bytes(process):
    a = run_experiment("table4", ExperimentOptions(process=process,
                                                   scale=0.5, seed=1))
    b = run_experiment("table4", ExperimentOptions(process=process,
                                                   scale=0.5, seed=7))
    assert experiment_json(a) != experiment_json(b)


def test_cached_run_matches_uncached(process, tmp_path):
    """The cache may change *when* work happens, never the numbers."""
    plain = run_experiment("table4", ExperimentOptions(process=process,
                                                       scale=0.5))
    cached = run_experiment("table4", ExperimentOptions(
        process=process, scale=0.5, cache=DesignCache(cache_dir=tmp_path)))
    warm = run_experiment("table4", ExperimentOptions(
        process=process, scale=0.5, cache=DesignCache(cache_dir=tmp_path)))
    assert experiment_json(cached) == experiment_json(plain)
    assert experiment_json(warm) == experiment_json(plain)


def test_bench_serial_rerun_byte_equal(process):
    ids = ["table1", "table4"]
    a = run_sweep(SweepRequest.from_ids(ids, scale=0.5),
                  process=process)
    b = run_sweep(SweepRequest.from_ids(ids, scale=0.5),
                  process=process)
    assert a.results_json() == b.results_json()


@pytest.mark.slow
def test_bench_serial_vs_parallel_byte_equal(process, tmp_path):
    """Fanning across forked workers must not change a single byte."""
    ids = ["table1", "table4"]
    serial = run_sweep(SweepRequest.from_ids(ids, scale=0.5),
                       process=process)
    par = run_sweep(SweepRequest.from_ids(ids, scale=0.5),
                    parallel=2, cache_dir=tmp_path)
    assert serial.results_json() == par.results_json()
    # the warm parallel rerun hits the shared disk cache and still
    # produces the same bytes
    warm = run_sweep(SweepRequest.from_ids(ids, scale=0.5),
                     parallel=2, cache_dir=tmp_path)
    assert warm.results_json() == serial.results_json()


def test_timing_excluded_from_results_json(process):
    report = run_sweep(SweepRequest.from_ids(["table1"], scale=0.5),
                       process=process)
    assert "wall_s" not in report.results_json()
    assert "stage_times_ms" not in report.results_json()
    assert report.timing_dict()["experiments"]["table1"] >= 0.0
