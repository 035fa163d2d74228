"""Tests for full-chip assembly internals."""

import pytest

from repro.core.fullchip import (_bundle_wire_stats, _estimate_dims,
                                 _fold_for, ChipConfig)
from repro.designgen.t2 import t2_instances
from repro.tech.process import CPU_CLOCK


class TestEstimateDims:
    def test_all_instances_estimated(self, process):
        dims = _estimate_dims(process, ChipConfig(style="2d"))
        assert set(dims) == {n for n, _ in t2_instances()}
        for w, h in dims.values():
            assert w > 0 and h > 0

    def test_folded_estimates_smaller(self, process):
        flat = _estimate_dims(process, ChipConfig(style="2d"))
        folded = _estimate_dims(process, ChipConfig(style="fold_f2f"))
        assert folded["spc0"][0] < flat["spc0"][0]
        # unfolded control blocks keep their size
        assert folded["ncu"][0] == pytest.approx(flat["ncu"][0])

    def test_scale_shrinks_estimates(self, process):
        full = _estimate_dims(process, ChipConfig(style="2d", scale=1.0))
        half = _estimate_dims(process, ChipConfig(style="2d", scale=0.5))
        assert half["spc0"][0] < full["spc0"][0]


class TestBundleWireStats:
    def test_longer_wire_slower_and_more_repeaters(self, process):
        r1, d1 = _bundle_wire_stats(process, 500.0, CPU_CLOCK, False)
        r2, d2 = _bundle_wire_stats(process, 3000.0, CPU_CLOCK, False)
        assert d2 > d1
        assert r2 > r1

    def test_crossing_adds_tsv_delay(self, process):
        _, flat = _bundle_wire_stats(process, 1000.0, CPU_CLOCK, False)
        _, cross = _bundle_wire_stats(process, 1000.0, CPU_CLOCK, True)
        assert cross > flat

    def test_short_wire_no_repeaters(self, process):
        reps, _ = _bundle_wire_stats(process, 100.0, CPU_CLOCK, False)
        assert reps == 0


class TestFoldFor:
    def test_2d_never_folds(self):
        cfg = ChipConfig(style="2d")
        assert _fold_for(cfg, "spc") is None

    def test_folded_style_folds_listed_types(self):
        cfg = ChipConfig(style="fold_f2f")
        assert _fold_for(cfg, "spc") is not None
        assert _fold_for(cfg, "ncu") is None

    def test_budget_floor_applied(self, process):
        from repro.core.fullchip import build_chip
        base = build_chip(ChipConfig(style="2d", scale=0.3), process)
        floored = build_chip(
            ChipConfig(style="2d", scale=0.3,
                       budget_floor_ps=(("ncu", 400.0),)), process)
        assert floored.block_designs["ncu"].config.io_budget_ps >= 400.0
        assert base.block_designs["ncu"].config.io_budget_ps < 400.0
