"""Tests for the mixed-size 2D placer."""

import pytest

from repro.place import placer2d
from repro.place.placer2d import (PlacementConfig, compute_outline, hpwl,
                                  place_block_2d, place_macros)
from tests.conftest import fresh_block


@pytest.fixture()
def placed_l2t(library):
    gb = fresh_block("l2t", library, seed=3)
    result = place_block_2d(gb.netlist, PlacementConfig(seed=3))
    return gb, result


def test_outline_area_covers_content(library):
    gb = fresh_block("l2t", library)
    nl = gb.netlist
    outline = compute_outline(nl)
    assert outline.area > nl.total_cell_area() + nl.total_macro_area()


def test_outline_respects_utilization(library, monkeypatch):
    gb = fresh_block("ncu", library)
    monkeypatch.setattr(placer2d, "UTILIZATION", 0.9)
    tight = compute_outline(gb.netlist)
    monkeypatch.setattr(placer2d, "UTILIZATION", 0.5)
    loose = compute_outline(gb.netlist)
    assert loose.area > tight.area


def test_outline_reserved_area(library, monkeypatch):
    gb = fresh_block("ncu", library)
    base = compute_outline(gb.netlist)
    monkeypatch.setattr(placer2d, "RESERVED_AREA_UM2", 5000.0)
    grown = compute_outline(gb.netlist)
    assert grown.area == pytest.approx(base.area + 5000.0, rel=0.01)


def test_macros_inside_outline_and_disjoint(placed_l2t):
    gb, result = placed_l2t
    rects = result.grid.obstructions
    assert len(rects) == len(gb.netlist.macros)
    for r in rects:
        assert r.x0 >= result.outline.x0 - 1e-6
        assert r.x1 <= result.outline.x1 + 1e-6
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            assert not a.overlaps(b)


def test_macros_are_fixed(placed_l2t):
    gb, _ = placed_l2t
    assert all(m.fixed for m in gb.netlist.macros)


def test_ports_on_boundary(placed_l2t):
    gb, result = placed_l2t
    o = result.outline
    for p in gb.netlist.ports.values():
        on_edge = (abs(p.x - o.x0) < 1e-6 or abs(p.x - o.x1) < 1e-6 or
                   abs(p.y - o.y0) < 1e-6 or abs(p.y - o.y1) < 1e-6)
        assert on_edge, p.name


def test_cells_inside_outline(placed_l2t):
    gb, result = placed_l2t
    o = result.outline
    for c in gb.netlist.cells:
        assert o.x0 - 1e-6 <= c.x <= o.x1 + 1e-6
        assert o.y0 - 1e-6 <= c.y <= o.y1 + 1e-6


def test_cells_snapped_to_rows(placed_l2t):
    from repro.tech.cells import CELL_HEIGHT_UM
    gb, result = placed_l2t
    row0 = result.outline.y0 + CELL_HEIGHT_UM / 2
    for c in gb.netlist.cells[:50]:
        if c.fixed:
            continue
        offset = (c.y - row0) / CELL_HEIGHT_UM
        assert abs(offset - round(offset)) < 1e-6 or \
            c.y in (result.outline.y0, result.outline.y1)


def test_placement_beats_random_hpwl(library):
    import numpy as np
    gb = fresh_block("ccx", library, seed=4)
    nl = gb.netlist
    result = place_block_2d(nl, PlacementConfig(seed=4))
    placed = hpwl(nl)
    rng = np.random.default_rng(0)
    o = result.outline
    for c in nl.cells:
        if not c.fixed:
            c.x = rng.uniform(o.x0, o.x1)
            c.y = rng.uniform(o.y0, o.y1)
    random_wl = hpwl(nl)
    assert placed < 0.75 * random_wl


def test_placement_deterministic(library):
    a = fresh_block("ncu", library, seed=9)
    place_block_2d(a.netlist, PlacementConfig(seed=9))
    b = fresh_block("ncu", library, seed=9)
    place_block_2d(b.netlist, PlacementConfig(seed=9))
    assert hpwl(a.netlist) == pytest.approx(hpwl(b.netlist))


def test_overflow_is_moderate(placed_l2t):
    _, result = placed_l2t
    assert result.overflow < 0.25


def test_empty_macro_block_place_macros(library):
    gb = fresh_block("ncu", library)
    outline = compute_outline(gb.netlist)
    assert place_macros(gb.netlist, outline) == []
