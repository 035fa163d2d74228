"""Tests for the block-design cache."""

import pytest

import repro.core.cache as cache_module
from repro.core.cache import DesignCache, design_key
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
    build_chip(ChipConfig(style="core_cache", scale=0.3), process,
               cache=cache)
    first_misses = cache.stats.misses
    # same seed + scale: unfolded blocks with equal budgets recur
    build_chip(ChipConfig(style="core_core", scale=0.3), process,
               cache=cache)
    assert cache.stats.hits > 0
    assert cache.stats.misses < 2 * first_misses


def test_table5_chips_share_unfolded_blocks(process, monkeypatch):
    """table5's three chips through one cache: every distinct request
    runs once, and the fold_f2f chip's unfolded blocks reuse the
    core_cache chip's designs (they are spelled F2B, like them)."""
    cache = DesignCache()
    run = cache.get_or_run
    keys = {}

    for style in ("2d", "core_cache", "fold_f2f"):
        seen = keys[style] = set()

        def recording(block, config, proc, seen=seen):
            seen.add(design_key(block, config, proc))
            return run(block, config, proc)

        monkeypatch.setattr(cache, "get_or_run", recording)
        build_chip(ChipConfig(style=style, dual_vth=True, scale=0.3),
                   process, cache=cache)
    assert cache.stats.misses == len(set().union(*keys.values()))
    assert keys["fold_f2f"] & keys["core_cache"]
