"""Tests for the power-delivery IR-drop analysis."""

import numpy as np
import pytest

from repro.analysis import irdrop
from repro.analysis.irdrop import TILES, analyze_chip_ir_drop, solve_ir_drop
from repro.place.grid import Rect


def uniform(n, total_uw):
    return np.full((n, n), total_uw / (n * n))


@pytest.fixture()
def outline():
    return Rect(0, 0, 3000, 3000)


class TestSolve:
    def test_no_power_no_drop(self, outline):
        r = solve_ir_drop(outline, {0: np.zeros((TILES, TILES))})
        assert r.max_drop_v == pytest.approx(0.0, abs=1e-12)

    def test_drop_scales_with_power(self, outline):
        lo = solve_ir_drop(outline, {0: uniform(TILES, 5e5)})
        hi = solve_ir_drop(outline, {0: uniform(TILES, 1e6)})
        assert hi.max_drop_v == pytest.approx(2 * lo.max_drop_v,
                                              rel=1e-6)

    def test_center_droops_most(self, outline):
        r = solve_ir_drop(outline, {0: uniform(TILES, 1e6)})
        m = r.drop_v[0]
        n = TILES
        assert m[n // 2, n // 2] > m[0, 0]

    def test_far_tier_droops_more(self, outline):
        n = TILES
        maps = {0: uniform(n, 5e5), 1: uniform(n, 5e5)}
        r = solve_ir_drop(outline, maps)
        assert r.tier_max(1) > r.tier_max(0)

    def test_more_power_tsvs_help(self, outline, monkeypatch):
        n = TILES
        maps = {0: uniform(n, 5e5), 1: uniform(n, 5e5)}
        monkeypatch.setattr(irdrop, "POWER_TSVS_PER_TILE", 1)
        sparse = solve_ir_drop(outline, maps)
        monkeypatch.setattr(irdrop, "POWER_TSVS_PER_TILE", 16)
        dense = solve_ir_drop(outline, maps)
        assert dense.tier_max(1) < sparse.tier_max(1)

    def test_stacking_worsens_drop_at_equal_power(self):
        n = TILES
        flat = solve_ir_drop(Rect(0, 0, 3000, 3000),
                             {0: uniform(n, 1e6)})
        stacked = solve_ir_drop(Rect(0, 0, 2121, 2121),
                                {0: uniform(n, 5e5),
                                 1: uniform(n, 5e5)})
        assert stacked.max_drop_v > flat.max_drop_v

    def test_rejects_three_tiers(self, outline):
        n = TILES
        with pytest.raises(ValueError):
            solve_ir_drop(outline, {0: uniform(n, 1), 1: uniform(n, 1),
                                    2: uniform(n, 1)})

    def test_rejects_bad_shape(self, outline):
        with pytest.raises(ValueError):
            solve_ir_drop(outline, {0: np.zeros((4, 4))})


def test_chip_ir_drop(process):
    from repro.core.fullchip import ChipConfig, build_chip
    chip2d = build_chip(ChipConfig(style="2d", scale=0.4), process)
    chip3d = build_chip(ChipConfig(style="core_cache", scale=0.4),
                        process)
    r2 = analyze_chip_ir_drop(chip2d)
    r3 = analyze_chip_ir_drop(chip3d)
    assert r2.max_drop_v > 0
    assert len(r3.drop_v) == 2
    # the far tier pays the TSV hop
    assert r3.tier_max(1) >= r3.tier_max(0)
