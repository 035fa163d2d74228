"""Parity/QoR harness: batched placement kernels vs the scalar oracle.

The vectorized kernels in ``repro.place`` are gated by this suite: the
legacy per-pin/per-cell loops live on in :mod:`tests.oracles.place_scalar`,
and every case here runs a fresh block through both and compares the
outcomes.  Whole-flow cases swap the oracle in with
``monkeypatch.setattr`` on every name the flow calls.

Tolerance policy (see docs/placement.md): the quadratic assembly is
bit-identical by construction, but the O(1) prefix-sum supply queries
reorder float additions, so a spreading bisection split can flip at ULP
level.  QoR comparisons therefore use a 2% HPWL band rather than exact
coordinates; structural invariants (overlap-freedom, die assignment,
determinism) are exact.
"""

import sys

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.names import (CTR_PLACE_CELLS_LEGALIZED,
                             CTR_PLACE_QP_SOLVES, CTR_PLACE_SPREAD_CALLS)
from repro.place import (PlacementConfig, check_overlaps, fm_bipartition,
                         fold_place_3d, hpwl, legalize, place_block_2d,
                         placer2d, spreading)
from repro.place.legalize import overlapping_pairs
from repro.place.quadratic import QuadraticPlacer
from tests.conftest import fresh_block
from tests.oracles import place_scalar as oracle

#: HPWL may drift this much between the two paths (ULP-level split flips)
HPWL_TOL = 1.02


def use_oracle(monkeypatch):
    """Route every placement kernel the flow calls through the oracle.

    Rebinds each kernel in every loaded ``repro`` module that imported
    it by name, plus the quadratic solver's per-axis method.
    """
    monkeypatch.setattr(QuadraticPlacer, "_solve_axis", oracle.solve_axis)
    swap = {id(spreading.spread): oracle.spread,
            id(placer2d.snap_to_rows): oracle.snap_to_rows,
            id(legalize.legalize_cells): oracle.legalize_cells,
            id(legalize.overlapping_pairs): oracle.overlapping_pairs}
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro."):
            continue
        for name, value in list(vars(mod).items()):
            if id(value) in swap:
                monkeypatch.setattr(mod, name, swap[id(value)])


def place_both(library, name, seed, monkeypatch, **cfg):
    """Place one block twice (vectorized, then oracle) from scratch."""
    vec = fresh_block(name, library, seed=seed)
    place_block_2d(vec.netlist, PlacementConfig(seed=seed, **cfg))
    with monkeypatch.context() as mp:
        use_oracle(mp)
        ref = fresh_block(name, library, seed=seed)
        place_block_2d(ref.netlist, PlacementConfig(seed=seed, **cfg))
    return vec.netlist, ref.netlist


class TestGlobalPlaceParity:
    @pytest.mark.parametrize("name,seed", [("ncu", 1), ("l2t", 1)])
    def test_hpwl_within_band(self, library, monkeypatch, name, seed):
        vec, ref = place_both(library, name, seed, monkeypatch)
        wl_vec, wl_ref = hpwl(vec), hpwl(ref)
        assert wl_vec <= HPWL_TOL * wl_ref
        assert wl_ref <= HPWL_TOL * wl_vec

    def test_legalized_hpwl_within_band(self, library, monkeypatch):
        vec, ref = place_both(library, "ncu", 2, monkeypatch,
                              full_legalize=True, utilization=0.45)
        wl_vec, wl_ref = hpwl(vec), hpwl(ref)
        assert wl_vec <= HPWL_TOL * wl_ref
        assert wl_ref <= HPWL_TOL * wl_vec

    def test_oracle_swap_reaches_every_kernel(self, monkeypatch):
        with monkeypatch.context() as mp:
            use_oracle(mp)
            assert placer2d.spread is oracle.spread
            assert placer2d.snap_to_rows is oracle.snap_to_rows
            assert legalize.legalize_cells is oracle.legalize_cells
            assert sys.modules["repro.place.placer3d"].spread is \
                oracle.spread
        assert placer2d.spread is spreading.spread

    def test_kernel_counters_on_spc(self, library):
        # every batched kernel reports its work on the largest block
        reg = MetricsRegistry()
        with use_registry(reg):
            gb = fresh_block("spc", library, seed=1)
            place_block_2d(gb.netlist,
                           PlacementConfig(seed=1, full_legalize=True))
        counters = reg.snapshot()["counters"]
        assert counters.get(CTR_PLACE_QP_SOLVES, 0) > 0
        assert counters.get(CTR_PLACE_SPREAD_CALLS, 0) > 0
        assert counters.get(CTR_PLACE_CELLS_LEGALIZED, 0) > 0


class TestLegalizeParity:
    def test_vectorized_legalization_overlap_free(self, library):
        gb = fresh_block("ncu", library, seed=3)
        place_block_2d(gb.netlist,
                       PlacementConfig(seed=3, full_legalize=True,
                                       utilization=0.45))
        movable = [c for c in gb.netlist.cells if not c.fixed]
        assert check_overlaps(movable) == 0

    def test_pair_set_unchanged_on_golden_block(self, library):
        # the global sweep fixes the adjacent-only scan's wide-cell
        # blindness; on a legalized (overlap-free) block both report
        # the same -- empty -- pair set
        gb = fresh_block("ncu", library, seed=4)
        place_block_2d(gb.netlist,
                       PlacementConfig(seed=4, full_legalize=True,
                                       utilization=0.45))
        movable = [c for c in gb.netlist.cells if not c.fixed]
        vec_pairs = overlapping_pairs(movable)
        ref_pairs = oracle.overlapping_pairs(movable)
        key = lambda p: tuple(sorted((p[0].id, p[1].id)))  # noqa: E731
        assert {key(p) for p in vec_pairs} == {key(p) for p in ref_pairs}
        assert vec_pairs == []


class TestFold3DParity:
    def test_identical_die_assignment(self, library, monkeypatch,
                                      process):
        def fold_dies():
            gb = fresh_block("ccx", library, seed=1)
            part = fm_bipartition(gb.netlist, seed=0)
            fold_place_3d(gb.netlist, process, part.assignment, "F2B",
                          PlacementConfig(seed=1), mode="fold")
            return {i.id: i.die for i in gb.netlist.instances.values()}

        vec = fold_dies()
        with monkeypatch.context() as mp:
            use_oracle(mp)
            ref = fold_dies()
        assert vec == ref


class TestBistratalMode:
    def run(self, library, process, bonding="F2B"):
        gb = fresh_block("ccx", library, seed=1)
        part = fm_bipartition(gb.netlist, seed=0)
        res = fold_place_3d(gb.netlist, process, part.assignment,
                            bonding, PlacementConfig(seed=1),
                            mode="bistratal")
        return res, gb.netlist

    def test_valid_balanced_assignment(self, library, process):
        res, nl = self.run(library, process)
        area = {0: 0.0, 1: 0.0}
        for inst in nl.instances.values():
            assert inst.die in (0, 1)
            area[inst.die] += inst.area_um2
        balance = max(area.values()) / (area[0] + area[1])
        assert balance <= 0.55
        assert res.hpwl_um > 0

    def test_deterministic(self, library, process):
        _, nl1 = self.run(library, process)
        _, nl2 = self.run(library, process)
        d1 = {i.id: i.die for i in nl1.instances.values()}
        d2 = {i.id: i.die for i in nl2.instances.values()}
        assert d1 == d2

    def test_f2f_admits_more_crossings(self, library, process):
        # F2F bond points cost no silicon, so the z objective's weaker
        # via penalty should tolerate at least as many crossings
        res_f2b, _ = self.run(library, process, "F2B")
        res_f2f, _ = self.run(library, process, "F2F")
        assert len(res_f2f.vias) >= len(res_f2b.vias)

    def test_unknown_mode_rejected(self, library, process):
        gb = fresh_block("ncu", library, seed=1)
        part = fm_bipartition(gb.netlist, seed=0)
        with pytest.raises(ValueError, match="mode"):
            fold_place_3d(gb.netlist, process, part.assignment, "F2B",
                          PlacementConfig(seed=1), mode="stacked")
