"""Shared fixtures for the test suite."""

import pytest

from repro.core.folding import FoldSpec, make_partition
from repro.designgen import block_type_by_name, generate_block
from repro.place import legalize
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.place.placer3d import fold_place_3d
from repro.place.quadratic import QuadraticPlacer
from repro.route.estimate import RouteContext
from repro.route.route3d import place_f2f_vias
from repro.tech import make_process


@pytest.fixture(scope="session")
def process():
    """One process node for the whole session (immutable technology)."""
    return make_process()


@pytest.fixture(scope="session")
def library(process):
    return process.library


def fresh_block(name: str, library, seed: int = 1, scale: float = 1.0):
    """A newly generated block (never share: flows mutate netlists)."""
    return generate_block(block_type_by_name(name), library, seed=seed,
                          scale=scale)


def place_legalized(netlist, seed: int):
    """2D-place ``netlist``, then Tetris-legalize its cells around the
    placed macros: an overlap-free placement.  The legalizer is looked
    up on its module at call time, so a test that swaps in the oracle
    legalizer reaches this call too."""
    result = place_block_2d(netlist, PlacementConfig(seed=seed))
    legalize.legalize_cells([c for c in netlist.cells if not c.fixed],
                            result.outline, result.grid.obstructions)
    return result


def qp_calls(name: str, library, seed: int = 1):
    """Every B2B axis solve the 2D placer makes on a fresh block.

    One ``(placer, coords, axis, anchors)`` per ``_solve_axis`` call, in
    call order: the unanchored reweighting rounds, then the anchored
    spreading solves, each on both axes.  Feed them to
    ``placer._assemble_axis`` for the systems the flow factors.
    """
    calls = []
    real = QuadraticPlacer._solve_axis

    def record(placer, coords, axis, anchors):
        calls.append((placer, coords.copy(), axis, anchors))
        return real(placer, coords, axis, anchors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuadraticPlacer, "_solve_axis", record)
        place_block_2d(fresh_block(name, library, seed=seed).netlist,
                       PlacementConfig(seed=seed))
    return calls


def folded_ctx(gb, process, bonding: str, seed: int) -> RouteContext:
    """Fold-place ``gb`` (min-cut) and build the flow's route context:
    all nine metals, the bonding style's via, F2F sites from the F2F
    via placer and F2B sites from the fold's legalized TSVs."""
    fold = fold_place_3d(gb.netlist, process,
                         make_partition(gb, FoldSpec("mincut")), bonding,
                         PlacementConfig(seed=seed))
    if bonding == "F2F":
        sites = dict(place_f2f_vias(gb.netlist, fold.outline,
                                    process).sites)
    else:
        sites = {v.net_id: (v.x, v.y) for v in fold.vias}
    assert sites
    return RouteContext(stack=process.metal_stack, max_metal=9,
                        via=process.via_for(bonding), via_sites=sites,
                        long_wire_um=process.long_wire_um)


@pytest.fixture()
def small_block(library):
    """A small, fast block for flow-level tests."""
    return fresh_block("ncu", library)


@pytest.fixture()
def ccx_block(library):
    return fresh_block("ccx", library)
