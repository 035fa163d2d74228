"""Tests for the block-design cache."""

import pytest

import repro.core.cache as cache_module
import repro.core.flow as flow_module
from repro.analysis.experiments import (REGISTRY, Experiment,
                                        ExperimentOptions, ExperimentResult,
                                        run_experiment)
from repro.core.cache import DesignCache, block_design, design_key, run_scope
from repro.core.flow import FlowConfig
from repro.core.fullchip import ChipConfig, build_chip


def test_hit_returns_same_object(process):
    cache = DesignCache()
    cfg = FlowConfig(scale=0.4)
    a = cache.get_or_run("ncu", cfg, process)
    b = cache.get_or_run("ncu", cfg, process)
    assert a is b
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_different_configs_miss(process):
    cache = DesignCache()
    cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    cache.get_or_run("ncu", FlowConfig(scale=0.4, dual_vth=True),
                     process)
    assert cache.stats.misses == 2


def test_clear(process):
    cache = DesignCache()
    cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.misses == 0


def test_eviction_cap(process, monkeypatch):
    monkeypatch.setattr(cache_module, "MAX_ENTRIES", 1)
    cache = DesignCache()
    cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    cache.get_or_run("ccu", FlowConfig(scale=0.4), process)
    assert len(cache) == 1


def test_chip_sweep_reuses_blocks(process):
    cache = DesignCache()
    with run_scope(cache):
        build_chip(ChipConfig(style="core_cache", scale=0.3), process)
        first_misses = cache.stats.misses
        # same seed + scale: unfolded blocks with equal budgets recur
        build_chip(ChipConfig(style="core_core", scale=0.3), process)
    assert cache.stats.hits > 0
    assert cache.stats.misses < 2 * first_misses


def test_table5_chips_share_unfolded_blocks(process, monkeypatch):
    """table5's three chips in one scope: every distinct request runs
    once, and the fold_f2f chip's unfolded blocks reuse the core_cache
    chip's designs (they are spelled F2B, like them)."""
    keys = {}
    with run_scope() as cache:
        run = cache.get_or_run
        for style in ("2d", "core_cache", "fold_f2f"):
            seen = keys[style] = set()

            def recording(block, config, proc, seen=seen):
                seen.add(design_key(block, config, proc))
                return run(block, config, proc)

            monkeypatch.setattr(cache, "get_or_run", recording)
            build_chip(ChipConfig(style=style, dual_vth=True, scale=0.3),
                       process)
    assert cache.stats.misses == len(set().union(*keys.values()))
    assert keys["fold_f2f"] & keys["core_cache"]


# ---- the run scope -----------------------------------------------------


def test_scope_join_and_bind_rules(process, monkeypatch):
    # every cache miss runs a stub flow that returns a fresh object
    calls = []

    def flow(block, config, proc):
        calls.append((block, config))
        return object()

    monkeypatch.setattr(cache_module, "run_block_flow", flow)
    cfg = FlowConfig(scale=0.4)
    outer, inner = DesignCache(), DesignCache()
    with run_scope(outer) as bound:
        assert bound is outer
        memo = flow_module._MEMO.get()
        assert memo is not None
        with run_scope() as joined:
            assert joined is outer
            a = block_design("ncu", cfg, process)
        with run_scope(inner) as rebound:
            assert rebound is inner
            assert flow_module._MEMO.get() is memo
            b = block_design("ncu", cfg, process)
        assert block_design("ncu", cfg, process) is a
    assert a is not b
    assert (outer.stats.misses, outer.stats.hits) == (1, 1)
    assert inner.stats.misses == 1
    # outside any scope each request gets a cache that dies with it
    assert block_design("ncu", cfg, process) is not \
        block_design("ncu", cfg, process)
    assert len(calls) == 4


@pytest.mark.parametrize("raises", [False, True])
def test_nothing_stays_bound_after_a_run(process, monkeypatch, raises):
    seen = []

    def runner(opts):
        seen.append((cache_module._RUN_CACHE.get(),
                     flow_module._MEMO.get()))
        if raises:
            raise RuntimeError("runner failed")
        return ExperimentResult("probe", "", "", [])

    monkeypatch.setitem(REGISTRY, "probe",
                        Experiment(id="probe", description="", fn=runner))
    for _ in range(2):
        if raises:
            with pytest.raises(RuntimeError, match="runner failed"):
                run_experiment("probe", ExperimentOptions(process=process))
        else:
            run_experiment("probe", ExperimentOptions(process=process))
        assert cache_module._RUN_CACHE.get() is None
        assert flow_module._MEMO.get() is None
    (cache_a, memo_a), (cache_b, memo_b) = seen
    assert None not in (cache_a, memo_a, cache_b, memo_b)
    assert cache_a is not cache_b and memo_a is not memo_b


def test_run_uses_the_options_cache(process, monkeypatch):
    """A run goes through the cache its options carry, and runs each
    distinct design once: misses equal the run's distinct keys."""
    cache = DesignCache()
    keys = []
    run = cache.get_or_run

    def recording(block, config, proc):
        keys.append(design_key(block, config, proc))
        return run(block, config, proc)

    monkeypatch.setattr(cache, "get_or_run", recording)
    opts = ExperimentOptions(process=process, scale=0.2, seed=1,
                             cache=cache)
    run_experiment("table2", opts)
    # table2's three chips share their unfolded blocks
    assert cache.stats.misses == len(set(keys)) < len(keys)
    misses = cache.stats.misses
    run_experiment("table2", opts)
    assert cache.stats.misses == misses
