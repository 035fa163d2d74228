"""Tests for the persistent disk tier of the design cache."""

import dataclasses
import pickle

import pytest

from repro.core.cache import (CODE_VERSION, CacheStats, DesignCache,
                              design_key, process_fingerprint)
from repro.core.flow import FlowConfig
from repro.core.folding import FoldSpec


def _disk_entries(cache_dir):
    """Entries in a persistent tier: one ``<key>.pkl`` file each."""
    return len(list(cache_dir.glob("*.pkl")))


def test_cold_then_warm_disk_parity(process, tmp_path):
    """A fresh cache over the same directory serves the stored design."""
    cfg = FlowConfig(scale=0.4)
    cold = DesignCache(cache_dir=tmp_path)
    a = cold.get_or_run("ncu", cfg, process)
    assert cold.stats.misses == 1
    assert cold.stats.stores == 1
    assert _disk_entries(tmp_path) == 1

    warm = DesignCache(cache_dir=tmp_path)
    b = warm.get_or_run("ncu", cfg, process)
    assert warm.stats.disk_hits == 1
    assert warm.stats.misses == 0
    assert b.power.total_uw == a.power.total_uw
    assert b.footprint_um2 == a.footprint_um2
    assert b.sta.wns_ps == a.sta.wns_ps


def test_disk_hit_promotes_to_memory(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    DesignCache(cache_dir=tmp_path).get_or_run("ncu", cfg, process)
    warm = DesignCache(cache_dir=tmp_path)
    first = warm.get_or_run("ncu", cfg, process)
    second = warm.get_or_run("ncu", cfg, process)
    assert first is second
    assert warm.stats.disk_hits == 1
    assert warm.stats.hits == 1


def test_corrupted_entry_falls_back_to_recompute(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    cold = DesignCache(cache_dir=tmp_path)
    good = cold.get_or_run("ncu", cfg, process)
    key = design_key("ncu", cfg, process)
    path = tmp_path / f"{key}.pkl"
    path.write_bytes(b"not a pickle at all")

    warm = DesignCache(cache_dir=tmp_path)
    redone = warm.get_or_run("ncu", cfg, process)
    assert warm.stats.corrupt_drops == 1
    assert warm.stats.misses == 1
    assert warm.stats.disk_hits == 0
    assert redone.power.total_uw == good.power.total_uw
    # the recompute re-stored a healthy entry
    assert _disk_entries(tmp_path) == 1


def test_wrong_type_pickle_counts_as_corrupt(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    key = design_key("ncu", cfg, process)
    (tmp_path / f"{key}.pkl").write_bytes(
        pickle.dumps({"not": "a BlockDesign"}))
    cache = DesignCache(cache_dir=tmp_path)
    cache.get_or_run("ncu", cfg, process)
    assert cache.stats.corrupt_drops == 1
    assert cache.stats.misses == 1


def test_clear_keeps_the_disk_tier(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    cache = DesignCache(cache_dir=tmp_path)
    cache.get_or_run("ncu", cfg, process)
    cache.clear()
    assert len(cache) == 0
    assert _disk_entries(tmp_path) == 1
    cache.get_or_run("ncu", cfg, process)
    assert cache.stats.disk_hits == 1


def test_unwritable_cache_dir_degrades_to_memory(process, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the cache dir should go")
    cache = DesignCache(cache_dir=blocker / "sub")
    design = cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    assert design.power.total_uw > 0
    assert cache.stats.misses == 1
    assert not list(tmp_path.rglob("*.pkl"))


@pytest.mark.parametrize("error", [OSError, RuntimeError])
def test_write_that_raises_midway_leaves_no_file(process, tmp_path,
                                                 monkeypatch, error):
    """A store that fails after writing part of the entry leaves neither
    the entry nor its temp file; an ``OSError`` degrades the cache to
    memory-only, anything else propagates."""
    def torn_dump(obj, f, protocol=None):
        f.write(b"partial")
        raise error("write failed")

    monkeypatch.setattr(pickle, "dump", torn_dump)
    cache = DesignCache(cache_dir=tmp_path)
    cfg = FlowConfig(scale=0.4)
    if error is OSError:
        assert cache.get_or_run("ncu", cfg, process).power.total_uw > 0
        assert len(cache) == 1
    else:
        with pytest.raises(RuntimeError, match="write failed"):
            cache.get_or_run("ncu", cfg, process)
    assert cache.stats.stores == 0
    assert not list(tmp_path.iterdir())


# ---- cache-key coverage ------------------------------------------------


def test_key_includes_process_node(process):
    """Regression: two process nodes must never share cache entries."""
    cfg = FlowConfig(scale=0.4)
    other = dataclasses.replace(process, vdd=process.vdd * 0.9)
    assert design_key("ncu", cfg, process) != \
        design_key("ncu", cfg, other)


def test_key_includes_fold_spec(process):
    base = FlowConfig(scale=0.4)
    keys = {
        design_key("ncu", base, process),
        design_key("ncu", dataclasses.replace(
            base, fold=FoldSpec(mode="mincut")), process),
        design_key("ncu", dataclasses.replace(
            base, fold=FoldSpec(mode="interleave")), process),
        design_key("ncu", dataclasses.replace(
            base, fold=FoldSpec(mode="interleave", interleave_period=3)),
            process),
    }
    assert len(keys) == 4


def test_key_includes_every_flow_config_field(process):
    """Any FlowConfig field change must change the key."""
    base = FlowConfig(scale=0.4, fold=FoldSpec(mode="mincut"))
    seen = {design_key("ncu", base, process)}
    for name, value in [("seed", 2), ("scale", 0.41),
                        ("bonding", "F2F"), ("dual_vth", True)]:
        key = design_key("ncu", dataclasses.replace(
            base, **{name: value}), process)
        assert key not in seen, f"field {name} not hashed"
        seen.add(key)


def test_key_includes_block_name_and_version(process, monkeypatch):
    cfg = FlowConfig(scale=0.4)
    assert design_key("ncu", cfg, process) != \
        design_key("ccu", cfg, process)
    before = design_key("ncu", cfg, process)
    monkeypatch.setattr("repro.core.cache.CODE_VERSION",
                        CODE_VERSION + ".test")
    assert design_key("ncu", cfg, process) != before


def test_process_fingerprint_covers_3d_vias(process):
    fp = process_fingerprint(process)
    assert set(fp) >= {"name", "vdd", "clock_freq_ghz", "tsv",
                       "f2f_via", "n_metal_layers"}
    assert fp["tsv"]["style"] != fp["f2f_via"]["style"]


def test_cache_stats_hit_rate_counts_both_tiers():
    stats = CacheStats(hits=2, disk_hits=1, misses=1)
    assert stats.hit_rate == pytest.approx(0.75)
    d = stats.as_dict()
    assert d["hit_rate"] == pytest.approx(0.75)
    assert d["disk_hits"] == 1
    assert CacheStats().hit_rate == 0.0
