"""Benchmark fixtures: shared process node and result artifacts.

Each benchmark regenerates one paper table/figure through the experiment
registry, times it with pytest-benchmark, asserts the paper's shape
claims, and writes the rendered table (plus the check list) into
``benchmarks/results/<experiment>.txt`` for EXPERIMENTS.md.

Set ``REPRO_BENCH_CACHE_DIR`` to a directory to run the benchmarks
against a persistent design cache: the first session pays full price and
later sessions measure the warm path (cache hits never change the
numbers -- see ``tests/test_determinism.py``).
"""

import os
import pathlib

import pytest

from repro.analysis.experiments import ExperimentOptions, run_experiment
from repro.core.cache import DesignCache
from repro.tech import make_process

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def process():
    return make_process()


#: session cache shared by every benchmark (filled by the autouse
#: fixture below; persistent when REPRO_BENCH_CACHE_DIR is set)
_CACHE = None


@pytest.fixture(scope="session", autouse=True)
def design_cache():
    """Session-wide design cache, persistent when the env var is set."""
    global _CACHE
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR") or None
    _CACHE = DesignCache(cache_dir=cache_dir)
    yield _CACHE
    if cache_dir:
        stats = _CACHE.stats
        print(f"\n[design cache] {stats.hits} memory hits, "
              f"{stats.disk_hits} disk hits, {stats.misses} misses "
              f"({stats.hit_rate:.0%} hit rate) in {cache_dir}")
    _CACHE = None


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(result) -> None:
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(result.summary() + "\n")

    return _save


def run_and_check(benchmark, save_result, process, experiment_id,
                  scale=1.0, cache=None):
    """Common benchmark body: run, save, assert the shape claims."""
    if cache is None:
        cache = _CACHE
    opts = ExperimentOptions(process=process, scale=scale, cache=cache)
    result = benchmark.pedantic(lambda: run_experiment(experiment_id, opts),
                                rounds=1, iterations=1)
    save_result(result)
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "shape checks failed: " + "; ".join(
        f"{c.name} (measured {c.measured}, paper {c.paper})"
        for c in failed)
    return result
