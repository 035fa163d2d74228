"""Tests for whitespace-aware spreading."""

import numpy as np
import pytest

from repro.place.grid import DensityGrid, Rect
from repro.place.spreading import _nearest_free, _supply_in, spread


@pytest.fixture()
def grid():
    return DensityGrid(Rect(0, 0, 100, 100), target_bins=100,
                       utilization=1.0)


def test_supply_in_full_region(grid):
    assert _supply_in(grid, grid.region) == pytest.approx(10000, rel=0.01)


def test_supply_in_half_region(grid):
    assert _supply_in(grid, Rect(0, 0, 50, 100)) == pytest.approx(
        5000, rel=0.02)


def test_supply_in_respects_holes(grid):
    grid.add_obstruction(Rect(0, 0, 50, 100))
    assert _supply_in(grid, Rect(0, 0, 50, 100)) == pytest.approx(
        0.0, abs=50.0)


def test_spread_relieves_pileup(grid):
    rng = np.random.default_rng(0)
    n = 400
    xs = np.full(n, 50.0) + rng.normal(0, 0.5, n)
    ys = np.full(n, 50.0) + rng.normal(0, 0.5, n)
    areas = np.full(n, 20.0)  # total 8000 of 10000 supply
    before = grid.overflow(xs, ys, areas)
    sx, sy = spread(grid, xs, ys, areas)
    after = grid.overflow(sx, sy, areas)
    assert after < before / 3


def test_spread_keeps_cells_inside(grid):
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 100, 200)
    ys = rng.uniform(0, 100, 200)
    areas = np.full(200, 10.0)
    sx, sy = spread(grid, xs, ys, areas)
    assert (sx >= 0).all() and (sx <= 100).all()
    assert (sy >= 0).all() and (sy <= 100).all()


def test_spread_avoids_macro_holes(grid):
    hole = Rect(40, 40, 60, 60)
    grid.add_obstruction(hole)
    rng = np.random.default_rng(2)
    n = 300
    xs = np.full(n, 50.0) + rng.normal(0, 2.0, n)
    ys = np.full(n, 50.0) + rng.normal(0, 2.0, n)
    areas = np.full(n, 15.0)
    sx, sy = spread(grid, xs, ys, areas)
    inside = sum(1 for x, y in zip(sx, sy)
                 if hole.contains(x, y))
    assert inside < 0.05 * n


def test_spread_preserves_relative_order_roughly(grid):
    xs = np.linspace(45, 55, 100)
    ys = np.full(100, 50.0)
    areas = np.full(100, 30.0)
    sx, sy = spread(grid, xs, ys, areas)
    # left half should stay mostly left of the right half
    assert np.median(sx[:50]) < np.median(sx[50:])


def test_spread_empty_input(grid):
    sx, sy = spread(grid, np.array([]), np.array([]), np.array([]))
    assert len(sx) == 0


def test_nearest_free_escapes_hole(grid):
    grid.add_obstruction(Rect(40, 40, 60, 60))
    x, y = _nearest_free(grid, 50.0, 50.0)
    assert not grid.in_obstruction(x, y)
