"""Shared fixtures for the test suite."""

import pytest

from repro.core.folding import FoldSpec, make_partition
from repro.designgen import block_type_by_name, generate_block
from repro.place.placer2d import PlacementConfig
from repro.place.placer3d import fold_place_3d
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
