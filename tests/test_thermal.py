"""Tests for the compact thermal model (paper future-work extension)."""

import numpy as np
import pytest

from repro.place.grid import Rect
from repro.thermal import analyze_chip_thermal, solve_stack
from repro.thermal.model import AMBIENT_C, TILES


@pytest.fixture()
def outline():
    return Rect(0, 0, 3200, 3200)


def uniform_map(n, total_uw):
    return np.full((n, n), total_uw / (n * n))


class TestSolveStack:
    def test_zero_power_is_ambient(self, outline):
        r = solve_stack(outline, {0: np.zeros((TILES, TILES))})
        assert r.max_c == pytest.approx(AMBIENT_C, abs=1e-6)

    def test_temperature_rises_with_power(self, outline):
        lo = solve_stack(outline, {0: uniform_map(TILES, 5e5)})
        hi = solve_stack(outline, {0: uniform_map(TILES, 1e6)})
        assert hi.max_c > lo.max_c > AMBIENT_C

    def test_linearity_in_power(self, outline):
        a = solve_stack(outline, {0: uniform_map(TILES, 5e5)})
        b = solve_stack(outline, {0: uniform_map(TILES, 1e6)})
        rise_a = a.avg_c - AMBIENT_C
        rise_b = b.avg_c - AMBIENT_C
        assert rise_b == pytest.approx(2 * rise_a, rel=1e-6)

    def test_hotspot_hotter_than_uniform(self, outline):
        n = TILES
        uniform = solve_stack(outline, {0: uniform_map(n, 1e6)})
        spot = np.zeros((n, n))
        spot[n // 2, n // 2] = 1e6
        focused = solve_stack(outline, {0: spot})
        assert focused.max_c > uniform.max_c

    def test_far_tier_runs_hotter(self, outline):
        n = TILES
        maps = {0: uniform_map(n, 5e5), 1: uniform_map(n, 5e5)}
        r = solve_stack(outline, maps)
        assert r.tier_max(1) > r.tier_max(0)

    def test_stacking_same_power_is_hotter(self):
        n = TILES
        flat = solve_stack(Rect(0, 0, 3200, 3200),
                           {0: uniform_map(n, 1e6)})
        half = Rect(0, 0, 3200 / 2 ** 0.5, 3200 / 2 ** 0.5)
        stacked = solve_stack(half, {0: uniform_map(n, 5e5),
                                     1: uniform_map(n, 5e5)})
        assert stacked.max_c > flat.max_c

    def test_via_farm_cools_far_tier(self, outline):
        n = TILES
        maps = {0: uniform_map(n, 5e5), 1: uniform_map(n, 5e5)}
        bare = solve_stack(outline, maps, via_area_um2=0.0)
        farm = solve_stack(outline, maps, via_area_um2=5e5)
        assert farm.tier_max(1) < bare.tier_max(1)

    def test_rejects_three_tiers(self, outline):
        n = TILES
        with pytest.raises(ValueError):
            solve_stack(outline, {0: uniform_map(n, 1),
                                  1: uniform_map(n, 1),
                                  2: uniform_map(n, 1)})

    def test_rejects_bad_shape(self, outline):
        with pytest.raises(ValueError):
            solve_stack(outline, {0: np.zeros((3, 3))})


class TestChipThermal:
    @pytest.fixture(scope="class")
    def chips(self, process):
        from repro.core.fullchip import ChipConfig, build_chip
        return {
            style: build_chip(ChipConfig(style=style, scale=0.4), process)
            for style in ("2d", "core_cache")
        }

    def test_2d_single_tier(self, chips):
        r = analyze_chip_thermal(chips["2d"])
        assert list(r.temperature_c) == [0]
        assert r.max_c > AMBIENT_C

    def test_3d_runs_hotter_than_2d(self, chips):
        r2 = analyze_chip_thermal(chips["2d"])
        r3 = analyze_chip_thermal(chips["core_cache"])
        assert len(r3.temperature_c) == 2
        assert r3.max_c > r2.max_c

    def test_power_conservation_in_maps(self, chips):
        from repro.thermal import chip_power_maps
        chip = chips["core_cache"]
        _, maps, _ = chip_power_maps(chip)
        total = sum(m.sum() for m in maps.values())
        assert total == pytest.approx(chip.power.total_uw, rel=0.02)
