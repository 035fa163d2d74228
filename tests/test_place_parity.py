"""Parity/QoR harness: batched placement kernels vs the scalar oracle.

The vectorized kernels in ``repro.place`` are gated by this suite: the
legacy per-pin/per-cell loops live on in :mod:`tests.oracles.place_scalar`,
and every case here runs a fresh block through both and compares the
outcomes.  Whole-flow cases swap the oracle in with
``monkeypatch.setattr`` on every name the flow calls.

Tolerance policy (see docs/placement.md): the quadratic assembly is
bit-identical by construction (:class:`TestAssemblyParity`), but the
library factors it in SuperLU's symmetric mode while the oracle keeps
``spsolve``, so coordinates differ at about 1e-10 um; and the O(1)
prefix-sum supply queries reorder float additions, so a spreading
bisection split can flip at ULP level.  QoR comparisons therefore use a
2% HPWL band rather than exact coordinates; structural invariants
(overlap-freedom, die assignment, determinism) are exact.
"""

import sys

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.names import (CTR_PLACE_CELLS_LEGALIZED,
                             CTR_PLACE_QP_SOLVES, CTR_PLACE_SPREAD_CALLS)
from repro.place import (PlacementConfig, check_overlaps, fm_bipartition,
                         fold_place_3d, hpwl, legalize, place_block_2d,
                         placer2d, spreading)
from repro.place.legalize import overlapping_pairs
from repro.place.quadratic import QuadraticPlacer
from tests.conftest import fresh_block, place_legalized, qp_calls
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


def place_2d(netlist, seed):
    return place_block_2d(netlist, PlacementConfig(seed=seed))


def place_both(library, name, seed, monkeypatch, place=place_2d):
    """Place one block twice (vectorized, then oracle) from scratch
    with ``place(netlist, seed)``."""
    vec = fresh_block(name, library, seed=seed)
    place(vec.netlist, seed)
    with monkeypatch.context() as mp:
        use_oracle(mp)
        ref = fresh_block(name, library, seed=seed)
        place(ref.netlist, seed)
    return vec.netlist, ref.netlist


class TestGlobalPlaceParity:
    @pytest.mark.parametrize("name,seed", [("ncu", 1), ("l2t", 1)])
    def test_hpwl_within_band(self, library, monkeypatch, name, seed):
        vec, ref = place_both(library, name, seed, monkeypatch)
        wl_vec, wl_ref = hpwl(vec), hpwl(ref)
        assert wl_vec <= HPWL_TOL * wl_ref
        assert wl_ref <= HPWL_TOL * wl_vec

    def test_legalized_hpwl_within_band(self, library, monkeypatch):
        monkeypatch.setattr(placer2d, "UTILIZATION", 0.45)
        vec, ref = place_both(library, "ncu", 2, monkeypatch,
                              place_legalized)
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
            place_legalized(gb.netlist, seed=1)
        counters = reg.snapshot()["counters"]
        assert counters.get(CTR_PLACE_QP_SOLVES, 0) > 0
        assert counters.get(CTR_PLACE_SPREAD_CALLS, 0) > 0
        assert counters.get(CTR_PLACE_CELLS_LEGALIZED, 0) > 0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: exact, with no float tolerance."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestAssemblyParity:
    """The batched B2B assembly builds the oracle's system bit for bit.

    With a solver that differs from the oracle's, the HPWL band alone
    would let an assembly regression through; this pins the assembly
    on every system the 2D placer builds for a real block: both axes,
    unanchored and anchored."""

    @pytest.mark.parametrize("name", ["ncu", "l2t", "spc"])
    def test_system_equals_the_oracle_and_its_transpose(self, library,
                                                        name):
        calls = qp_calls(name, library)
        assert {(axis, anchors is not None)
                for _, _, axis, anchors in calls} == {
            (0, False), (1, False), (0, True), (1, True)}
        for placer, coords, axis, anchors in calls:
            mat, rhs = placer._assemble_axis(coords, axis, anchors)
            ref, ref_rhs = oracle.assemble_axis(placer, coords, axis,
                                                anchors)
            for part in ("indptr", "indices", "data"):
                assert same_bits(getattr(mat, part), getattr(ref, part))
            assert same_bits(rhs, ref_rhs)
            # exactly symmetric: the factorization's diagonal pivots
            # rest on it
            assert mat.has_canonical_format
            trans = mat.T.tocsr()
            trans.sort_indices()
            for part in ("indptr", "indices", "data"):
                assert same_bits(getattr(trans, part), getattr(mat, part))


class TestLegalizeParity:
    def test_vectorized_legalization_overlap_free(self, library,
                                                  monkeypatch):
        monkeypatch.setattr(placer2d, "UTILIZATION", 0.45)
        gb = fresh_block("ncu", library, seed=3)
        place_legalized(gb.netlist, seed=3)
        movable = [c for c in gb.netlist.cells if not c.fixed]
        assert check_overlaps(movable) == 0

    def test_pair_set_unchanged_on_golden_block(self, library,
                                                monkeypatch):
        # the global sweep fixes the adjacent-only scan's wide-cell
        # blindness; on a legalized (overlap-free) block both report
        # the same -- empty -- pair set
        monkeypatch.setattr(placer2d, "UTILIZATION", 0.45)
        gb = fresh_block("ncu", library, seed=4)
        place_legalized(gb.netlist, seed=4)
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
                          PlacementConfig(seed=1))
            return {i.id: i.die for i in gb.netlist.instances.values()}

        vec = fold_dies()
        with monkeypatch.context() as mp:
            use_oracle(mp)
            ref = fold_dies()
        assert vec == ref

