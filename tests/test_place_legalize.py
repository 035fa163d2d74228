"""Tests for the Tetris legalizer."""

import numpy as np
import pytest

from repro.netlist.core import Netlist
from repro.place import placer2d
from repro.place.grid import Rect
from repro.place.legalize import (build_rows, check_overlaps,
                                  legalize_cells)
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.tech.cells import CELL_HEIGHT_UM, make_28nm_library
from tests.conftest import fresh_block, place_legalized


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


def make_cells(lib, n, outline, seed=0):
    rng = np.random.default_rng(seed)
    nl = Netlist("lg")
    cells = []
    for i in range(n):
        c = nl.add_instance(f"c{i}", lib.master("INV_X2"),
                            x=float(rng.uniform(outline.x0, outline.x1)),
                            y=float(rng.uniform(outline.y0, outline.y1)))
        cells.append(c)
    return cells


class TestBuildRows:
    def test_row_count(self):
        outline = Rect(0, 0, 100, 10 * CELL_HEIGHT_UM)
        rows = build_rows(outline, [])
        assert len(rows) == 10
        assert all(r.x0 == 0 and r.x1 == 100 for r in rows)

    def test_obstruction_splits_rows(self):
        outline = Rect(0, 0, 100, 4 * CELL_HEIGHT_UM)
        hole = Rect(40, 0, 60, 4 * CELL_HEIGHT_UM)
        rows = build_rows(outline, [hole])
        assert len(rows) == 8  # two segments per row
        for seg in rows:
            assert seg.x1 <= 40 or seg.x0 >= 60

    def test_obstruction_at_edge(self):
        outline = Rect(0, 0, 100, 2 * CELL_HEIGHT_UM)
        rows = build_rows(outline, [Rect(0, 0, 30, 2 * CELL_HEIGHT_UM)])
        assert all(seg.x0 >= 30 for seg in rows)


class TestLegalize:
    def test_no_overlaps_after(self, lib):
        outline = Rect(0, 0, 400, 40 * CELL_HEIGHT_UM)
        cells = make_cells(lib, 300, outline)
        res = legalize_cells(cells, outline)
        assert res.failed == 0
        assert check_overlaps(cells) == 0

    def test_cells_avoid_obstructions(self, lib):
        outline = Rect(0, 0, 400, 40 * CELL_HEIGHT_UM)
        hole = Rect(100, 0, 300, 40 * CELL_HEIGHT_UM)
        cells = make_cells(lib, 150, outline)
        res = legalize_cells(cells, outline, [hole])
        assert res.failed == 0
        for c in cells:
            assert not (100 < c.x < 300 - c.width_um), c.x

    def test_displacement_reasonable(self, lib):
        outline = Rect(0, 0, 600, 50 * CELL_HEIGHT_UM)
        cells = make_cells(lib, 200, outline)
        res = legalize_cells(cells, outline)
        assert res.avg_displacement_um < 0.3 * outline.width

    def test_overfull_core_reports_failures(self, lib):
        outline = Rect(0, 0, 40, 2 * CELL_HEIGHT_UM)
        cells = make_cells(lib, 100, outline)
        res = legalize_cells(cells, outline)
        assert res.failed > 0
        assert res.placed + res.failed == 100

    def test_rows_are_on_pitch(self, lib):
        outline = Rect(0, 0, 400, 20 * CELL_HEIGHT_UM)
        cells = make_cells(lib, 100, outline)
        legalize_cells(cells, outline)
        for c in cells:
            offset = (c.y - CELL_HEIGHT_UM / 2) / CELL_HEIGHT_UM
            assert abs(offset - round(offset)) < 1e-6

    def test_empty_input(self, lib):
        res = legalize_cells([], Rect(0, 0, 100, 100))
        assert res.placed == 0 and res.failed == 0


class TestPlacerIntegration:
    def test_full_legalize_flag(self, library, monkeypatch):
        monkeypatch.setattr(placer2d, "UTILIZATION", 0.45)
        gb = fresh_block("ncu", library, seed=12)
        place_legalized(gb.netlist, seed=12)
        movable = [c for c in gb.netlist.cells if not c.fixed]
        assert check_overlaps(movable) == 0

    def test_legalized_placement_keeps_structure(self, library,
                                                 monkeypatch):
        from repro.place.placer2d import hpwl
        loose = fresh_block("ncu", library, seed=13)
        place_block_2d(loose.netlist, PlacementConfig(seed=13))
        wl_loose = hpwl(loose.netlist)
        monkeypatch.setattr(placer2d, "UTILIZATION", 0.45)
        tight = fresh_block("ncu", library, seed=13)
        place_legalized(tight.netlist, seed=13)
        wl_tight = hpwl(tight.netlist)
        assert wl_tight < 2.0 * wl_loose
