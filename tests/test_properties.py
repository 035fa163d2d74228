"""Property-based tests (hypothesis) for core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan.seqpair import FPBlock, pack
from repro.place.grid import DensityGrid, Rect
from repro.place.regions import region_bisect
from repro.route.steiner import hpwl_length, steiner_length, trunk_tree
from repro.tech.interconnect3d import (katti_tsv_capacitance,
                                       katti_tsv_resistance)

coords = st.floats(min_value=-1000.0, max_value=1000.0,
                   allow_nan=False, allow_infinity=False)
pins_strategy = st.lists(st.tuples(coords, coords), min_size=2,
                         max_size=15)


class TestSteinerProperties:
    @given(pins_strategy)
    def test_tree_bounded_below_by_hpwl(self, pins):
        assert steiner_length(pins) >= hpwl_length(pins) - 1e-6

    @given(pins_strategy)
    def test_tree_bounded_above_by_double_star(self, pins):
        n = len(pins)
        cx = sum(p[0] for p in pins) / n
        cy = sum(p[1] for p in pins) / n
        star2 = 2 * sum(abs(p[0] - cx) + abs(p[1] - cy) for p in pins)
        assert steiner_length(pins) <= star2 + hpwl_length(pins) + 1e-6

    @given(pins_strategy)
    def test_translation_invariant(self, pins):
        moved = [(x + 37.5, y - 11.25) for x, y in pins]
        assert steiner_length(moved) == pytest.approx(
            steiner_length(pins), abs=1e-6)

    @given(pins_strategy)
    def test_path_length_at_least_manhattan(self, pins):
        tree = trunk_tree(pins)
        a, b = pins[0], pins[-1]
        manhattan = abs(a[0] - b[0]) + abs(a[1] - b[1])
        assert tree.path_length(a, b) >= manhattan - 1e-6

    @given(pins_strategy, st.tuples(coords, coords))
    def test_adding_pin_never_shortens(self, pins, extra):
        assert steiner_length(pins + [extra]) >= \
            steiner_length(pins) - 1e-6


class TestRectProperties:
    rects = st.tuples(coords, coords,
                      st.floats(min_value=0.1, max_value=500.0),
                      st.floats(min_value=0.1, max_value=500.0))

    @given(rects, st.tuples(coords, coords))
    def test_clamp_lands_inside(self, r, pt):
        rect = Rect(r[0], r[1], r[0] + r[2], r[1] + r[3])
        x, y = rect.clamp(*pt)
        assert rect.contains(x, y)

    @given(rects, rects)
    def test_overlap_symmetric(self, a, b):
        ra = Rect(a[0], a[1], a[0] + a[2], a[1] + a[3])
        rb = Rect(b[0], b[1], b[0] + b[2], b[1] + b[3])
        assert ra.overlaps(rb) == rb.overlaps(ra)


class TestGridProperties:
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=20.0)), min_size=1,
        max_size=60))
    def test_demand_conserved(self, cells):
        grid = DensityGrid(Rect(0, 0, 100, 100), target_bins=64)
        xs = np.array([c[0] for c in cells])
        ys = np.array([c[1] for c in cells])
        areas = np.array([c[2] for c in cells])
        demand = grid.demand_map(xs, ys, areas)
        assert demand.sum() == pytest.approx(areas.sum())

    @given(st.lists(st.tuples(
        st.floats(min_value=5, max_value=95),
        st.floats(min_value=5, max_value=95),
        st.floats(min_value=1, max_value=40),
        st.floats(min_value=1, max_value=40)), min_size=0, max_size=8))
    def test_supply_never_negative(self, obstructions):
        grid = DensityGrid(Rect(0, 0, 100, 100), target_bins=64)
        for x, y, w, h in obstructions:
            grid.add_obstruction(Rect(x, y, x + w, y + h))
        assert grid.supply.min() >= 0.0


class TestSequencePairProperties:
    @given(st.lists(st.tuples(
        st.floats(min_value=1, max_value=50),
        st.floats(min_value=1, max_value=50)), min_size=1, max_size=9),
        st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_pack_valid_for_any_permutation(self, dims, rnd):
        blocks = [FPBlock(f"b{i}", w, h) for i, (w, h) in enumerate(dims)]
        n = len(blocks)
        p1 = list(range(n))
        p2 = list(range(n))
        rnd.shuffle(p1)
        rnd.shuffle(p2)
        res = pack(blocks, p1, p2)
        # area covers all blocks, no block outside the bounding box
        assert res.area + 1e-6 >= sum(b.area for b in blocks)
        for x, y, w, h in res.positions.values():
            assert x >= -1e-9 and y >= -1e-9
            assert x + w <= res.width + 1e-6
            assert y + h <= res.height + 1e-6
        # pairwise disjoint
        items = list(res.positions.values())
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                assert (a[0] + a[2] <= b[0] + 1e-6 or
                        b[0] + b[2] <= a[0] + 1e-6 or
                        a[1] + a[3] <= b[1] + 1e-6 or
                        b[1] + b[3] <= a[1] + 1e-6)


class TestRegionBisectProperties:
    items_strategy = st.lists(st.tuples(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=500.0)),
        min_size=1, max_size=12)

    @given(items_strategy)
    def test_rects_tile_outline(self, raw):
        outline = Rect(0, 0, 500, 500)
        items = [(f"r{i}", a, x, y) for i, (a, x, y) in enumerate(raw)]
        rects = region_bisect(outline, items)
        assert set(rects) == {k for k, *_ in items}
        total = sum(r.area for r in rects.values())
        assert total == pytest.approx(outline.area, rel=1e-6)
        for r in rects.values():
            assert r.x0 >= -1e-9 and r.y0 >= -1e-9
            assert r.x1 <= outline.x1 + 1e-6
            assert r.y1 <= outline.y1 + 1e-6

    @given(items_strategy)
    def test_rect_areas_proportional(self, raw):
        outline = Rect(0, 0, 500, 500)
        items = [(f"r{i}", a, x, y) for i, (a, x, y) in enumerate(raw)]
        total_demand = sum(a for _, a, *_ in items)
        rects = region_bisect(outline, items)
        for name, demand, *_ in items:
            expected = outline.area * demand / total_demand
            assert rects[name].area == pytest.approx(expected, rel=1e-6)


class TestKattiProperties:
    @given(st.floats(min_value=0.5, max_value=20.0),
           st.floats(min_value=5.0, max_value=200.0))
    def test_resistance_positive_and_monotone(self, d, h):
        r = katti_tsv_resistance(d, h)
        assert r > 0
        assert katti_tsv_resistance(d, h * 2) > r
        assert katti_tsv_resistance(d * 2, h) < r

    @given(st.floats(min_value=0.5, max_value=20.0),
           st.floats(min_value=5.0, max_value=200.0))
    def test_capacitance_scales_with_height(self, d, h):
        c = katti_tsv_capacitance(d, h)
        assert c > 0
        assert katti_tsv_capacitance(d, h * 2) == pytest.approx(2 * c,
                                                                rel=1e-9)


class TestNetlistEditProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2),
                    min_size=1, max_size=30), st.randoms(
        use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_random_edit_sequences_stay_valid(self, ops, rnd):
        from repro.netlist.core import INPUT, Netlist, PinRef
        from repro.tech.cells import make_28nm_library
        lib = make_28nm_library()
        nl = Netlist("fuzz")
        inv = lib.master("INV_X1")
        nl.add_port("in", INPUT)
        first = nl.add_instance("seed", inv)
        nl.add_net("n0", PinRef(port="in"), [PinRef(inst=first.id, pin=0)])
        drivers = [first.id]
        for k, op in enumerate(ops):
            if op == 0:  # extend: new cell driven by random driver
                inst = nl.add_instance(f"c{k}", inv)
                src = rnd.choice(drivers)
                net = nl.output_net_of(src)
                if net is None:
                    net = nl.add_net(f"n{k}", PinRef(inst=src),
                                     [PinRef(inst=inst.id, pin=0)])
                else:
                    nl.add_sink(net.id, PinRef(inst=inst.id, pin=0))
                drivers.append(inst.id)
            elif op == 1:  # resize a random instance
                iid = rnd.choice(drivers)
                m = nl.instances[iid].master
                nl.replace_master(iid, lib.variant(m, drive=4))
            else:  # rewire a net through a fresh buffer
                iid = rnd.choice(drivers)
                net = nl.output_net_of(iid)
                if net is not None and net.sinks:
                    buf = nl.add_instance(f"b{k}", lib.buffer())
                    nl.add_net(f"bn{k}", net.driver,
                               [PinRef(inst=buf.id, pin=0)])
                    nl.rewire_driver(net.id, PinRef(inst=buf.id))
                    drivers.append(buf.id)
        problems = [p for p in nl.validate() if "no sinks" not in p]
        assert problems == []
