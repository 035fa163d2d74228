"""Tests for the two-tier fold placer."""

import pytest

from repro.place.partition import fm_bipartition, partition_by_clusters
from repro.place.placer2d import PlacementConfig, place_block_2d
from repro.place.placer3d import (clock_crossings, crossing_nets,
                                  fold_place_3d)
from tests.conftest import fresh_block


@pytest.fixture()
def folded_l2t(process, library):
    gb = fresh_block("l2t", library, seed=2)
    part = fm_bipartition(gb.netlist, seed=0)
    res = fold_place_3d(gb.netlist, process, part.assignment, "F2B",
                        PlacementConfig(seed=2))
    return gb, res


def test_die_assignment_applied(folded_l2t):
    gb, res = folded_l2t
    dies = {i.die for i in gb.netlist.instances.values()}
    assert dies == {0, 1}


def test_one_via_per_crossing_net(folded_l2t):
    gb, res = folded_l2t
    crossing = crossing_nets(gb.netlist)
    assert len(res.vias) == len(crossing)
    via_nets = {v.net_id for v in res.vias}
    assert via_nets == {n.id for n in crossing}


def test_vias_inside_outline(folded_l2t):
    gb, res = folded_l2t
    for v in res.vias:
        assert res.outline.contains(v.x, v.y)


def test_f2b_vias_avoid_macros(folded_l2t):
    gb, res = folded_l2t
    keepouts = [r for die in (0, 1) for r in res.grids[die].obstructions]
    for v in res.vias:
        for k in keepouts:
            assert not k.contains(v.x, v.y), (v, k)


def test_f2b_vias_respect_pitch(folded_l2t, process):
    gb, res = folded_l2t
    pitch = process.tsv.pitch_um
    sites = [(v.x, v.y) for v in res.vias]
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= pitch * 0.99


def test_f2f_vias_may_sit_over_macros(process, library):
    gb = fresh_block("l2d", library, seed=2)
    clusters = gb.clusters_of_regions(("subbank2", "subbank3"))
    res = fold_place_3d(gb.netlist, process,
                        partition_by_clusters(gb.netlist, clusters),
                        "F2F", PlacementConfig(seed=2))
    assert res.tsv_area_um2 == 0.0
    # at least the legalizer imposed no macro keepouts: displacement tiny
    assert all(v.displacement_um < 4 * process.f2f_via.pitch_um
               for v in res.vias)


def test_f2b_reserves_tsv_area(process, library):
    gb = fresh_block("l2t", library, seed=4)
    part = fm_bipartition(gb.netlist, seed=0)
    f2b = fold_place_3d(gb.netlist, process, part.assignment, "F2B",
                        PlacementConfig(seed=4))
    gb2 = fresh_block("l2t", library, seed=4)
    part2 = fm_bipartition(gb2.netlist, seed=0)
    f2f = fold_place_3d(gb2.netlist, process, part2.assignment, "F2F",
                        PlacementConfig(seed=4))
    assert f2b.tsv_area_um2 > 0
    assert f2b.footprint_um2 > f2f.footprint_um2


def test_folded_footprint_much_smaller_than_2d(process, library):
    gb2d = fresh_block("l2t", library, seed=5)
    r2d = place_block_2d(gb2d.netlist, PlacementConfig(seed=5))
    gb3d = fresh_block("l2t", library, seed=5)
    part = fm_bipartition(gb3d.netlist, seed=0)
    r3d = fold_place_3d(gb3d.netlist, process, part.assignment, "F2B",
                        PlacementConfig(seed=5))
    ratio = r3d.footprint_um2 / r2d.footprint_um2
    assert 0.45 < ratio < 0.75


def test_ports_get_die_of_majority(folded_l2t):
    gb, _ = folded_l2t
    nl = gb.netlist
    for name, port in list(nl.ports.items())[:40]:
        votes = {0: 0, 1: 0}
        for net in nl.nets_of_port(name):
            for ref in net.endpoints():
                if not ref.is_port:
                    votes[nl.instances[ref.inst].die] += 1
        if votes[0] != votes[1]:
            assert port.die == (0 if votes[0] > votes[1] else 1)


def test_ccx_natural_fold_has_four_connections(process, library):
    gb = fresh_block("ccx", library, seed=1)
    cpx = gb.clusters_of_regions(("cpx",))
    res = fold_place_3d(gb.netlist, process,
                        partition_by_clusters(gb.netlist, cpx), "F2B",
                        PlacementConfig(seed=1))
    # 3 test bridges cross; the clock adds its crossing during CTS
    assert res.n_vias == 3
    assert clock_crossings(gb.netlist) == 0  # per-half clock ports
