"""Tests for the power-delivery IR-drop analysis."""

import numpy as np
import pytest

from repro.analysis.irdrop import (PdnConfig, analyze_chip_ir_drop,
                                   solve_ir_drop)
from repro.place.grid import Rect


def uniform(n, total_uw):
    return np.full((n, n), total_uw / (n * n))


@pytest.fixture()
def outline():
    return Rect(0, 0, 3000, 3000)


class TestSolve:
    def test_no_power_no_drop(self, outline):
        cfg = PdnConfig()
        r = solve_ir_drop(outline, {0: np.zeros((cfg.tiles, cfg.tiles))},
                          config=cfg)
        assert r.max_drop_v == pytest.approx(0.0, abs=1e-12)

    def test_drop_scales_with_power(self, outline):
        cfg = PdnConfig()
        lo = solve_ir_drop(outline, {0: uniform(cfg.tiles, 5e5)},
                           config=cfg)
        hi = solve_ir_drop(outline, {0: uniform(cfg.tiles, 1e6)},
                           config=cfg)
        assert hi.max_drop_v == pytest.approx(2 * lo.max_drop_v,
                                              rel=1e-6)

    def test_center_droops_most(self, outline):
        cfg = PdnConfig()
        r = solve_ir_drop(outline, {0: uniform(cfg.tiles, 1e6)},
                          config=cfg)
        m = r.drop_v[0]
        n = cfg.tiles
        assert m[n // 2, n // 2] > m[0, 0]

    def test_far_tier_droops_more(self, outline):
        cfg = PdnConfig()
        n = cfg.tiles
        maps = {0: uniform(n, 5e5), 1: uniform(n, 5e5)}
        r = solve_ir_drop(outline, maps, config=cfg)
        assert r.tier_max(1) > r.tier_max(0)

    def test_more_power_tsvs_help(self, outline):
        n = 16
        maps = {0: uniform(n, 5e5), 1: uniform(n, 5e5)}
        sparse = solve_ir_drop(outline, maps,
                               config=PdnConfig(power_tsvs_per_tile=1))
        dense = solve_ir_drop(outline, maps,
                              config=PdnConfig(power_tsvs_per_tile=16))
        assert dense.tier_max(1) < sparse.tier_max(1)

    def test_stacking_worsens_drop_at_equal_power(self):
        cfg = PdnConfig()
        n = cfg.tiles
        flat = solve_ir_drop(Rect(0, 0, 3000, 3000),
                             {0: uniform(n, 1e6)}, config=cfg)
        stacked = solve_ir_drop(Rect(0, 0, 2121, 2121),
                                {0: uniform(n, 5e5),
                                 1: uniform(n, 5e5)}, config=cfg)
        assert stacked.max_drop_v > flat.max_drop_v

    def test_rejects_three_tiers(self, outline):
        n = PdnConfig().tiles
        with pytest.raises(ValueError):
            solve_ir_drop(outline, {0: uniform(n, 1), 1: uniform(n, 1),
                                    2: uniform(n, 1)})

    def test_rejects_bad_shape(self, outline):
        with pytest.raises(ValueError):
            solve_ir_drop(outline, {0: np.zeros((4, 4))},
                          config=PdnConfig(tiles=16))


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
