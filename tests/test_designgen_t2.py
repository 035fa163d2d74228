"""Tests for the T2 design model and block generation."""

import pytest

from repro.designgen.generate import generate_block
from repro.designgen.t2 import (SPC_FOLDED_FUBS, SPC_FUBS,
                                block_type_by_name, scaled_logic,
                                t2_block_types, t2_bundles, t2_instances)
from repro.tech.cells import make_28nm_library
from repro.tech.process import CPU_CLOCK, IO_CLOCK


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


def test_forty_six_instances():
    assert len(t2_instances()) == 46


def test_instance_multiplicities():
    counts = {}
    for _, t in t2_instances():
        counts[t] = counts.get(t, 0) + 1
    assert counts["spc"] == 8
    assert counts["l2d"] == 8
    assert counts["l2t"] == 8
    assert counts["l2b"] == 8
    assert counts["ccx"] == 1
    assert counts["mcu"] == 3


def test_block_type_lookup():
    assert block_type_by_name("ccx").count == 1
    with pytest.raises(KeyError):
        block_type_by_name("gpu")


def test_spc_has_fourteen_fubs():
    assert len(SPC_FUBS) == 14
    assert abs(sum(f.fraction for f in SPC_FUBS) - 1.0) < 1e-9
    assert set(SPC_FOLDED_FUBS) <= {f.name for f in SPC_FUBS}
    assert len(SPC_FOLDED_FUBS) == 6


def test_clock_domains():
    io_blocks = {"rtx", "mac", "tds", "rdp"}
    for bt in t2_block_types():
        expected = IO_CLOCK if bt.name in io_blocks else CPU_CLOCK
        assert bt.logic.clock_domain == expected, bt.name


def test_l2d_is_memory_dominated():
    bt = block_type_by_name("l2d")
    macro_area = sum(m.area_um2 * c for m, c in bt.logic.macros)
    cell_area = bt.logic.n_cells * 110.0
    assert macro_area > cell_area


def test_ccx_regions_and_bridges():
    bt = block_type_by_name("ccx")
    names = [n for n, _ in bt.regions]
    assert names == ["pcx", "cpx"]
    assert bt.cross_region_nets == 3  # + clock = the paper's 4 TSVs


def test_only_spc_gets_nine_metals():
    for bt in t2_block_types():
        if bt.name == "spc":
            assert bt.max_metal == 9
        else:
            assert bt.max_metal == 7


def test_bundles_reference_real_instances():
    instances = {name for name, _ in t2_instances()}
    for b in t2_bundles():
        assert b.a in instances, b
        assert b.b in instances, b
        assert b.n_wires > 0


def test_niu_bundles_on_io_clock():
    for b in t2_bundles():
        if {"rtx", "mac", "tds", "rdp"} & {b.a, b.b} and \
                b.a != "dmu" and b.b != "dmu":
            assert b.clock_domain == IO_CLOCK, b


def test_every_instance_connected():
    touched = set()
    for b in t2_bundles():
        touched.add(b.a)
        touched.add(b.b)
    assert {name for name, _ in t2_instances()} == touched


def test_scaled_logic_scales_counts():
    spec = block_type_by_name("spc").logic
    half = scaled_logic(spec, 0.5)
    assert half.n_cells == pytest.approx(spec.n_cells * 0.5, abs=1)
    assert half.n_inputs == pytest.approx(spec.n_inputs * 0.5, abs=1)
    assert half.macros[0][1] >= 1


def test_scaled_logic_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaled_logic(block_type_by_name("ccx").logic, 0.0)


class TestGenerateBlock:
    def test_regions_cover_all_clusters(self, lib):
        gb = generate_block(block_type_by_name("spc"), lib, seed=2)
        covered = set()
        for lo, hi in gb.regions.values():
            covered.update(range(lo, hi))
        clusters = {i.cluster for i in gb.netlist.instances.values()}
        assert clusters <= covered

    def test_regions_disjoint(self, lib):
        gb = generate_block(block_type_by_name("spc"), lib, seed=2)
        seen = set()
        for lo, hi in gb.regions.values():
            span = set(range(lo, hi))
            assert not (span & seen)
            seen |= span

    def test_region_of_cluster(self, lib):
        gb = generate_block(block_type_by_name("l2d"), lib, seed=2)
        lo, hi = gb.regions["subbank1"]
        assert gb.region_of_cluster(lo) == "subbank1"
        assert gb.region_of_cluster(10 ** 9) is None

    def test_ccx_halves_nearly_disconnected(self, lib):
        gb = generate_block(block_type_by_name("ccx"), lib, seed=2)
        nl = gb.netlist
        pcx = gb.clusters_of_regions(("pcx",))
        cross = 0
        for net in nl.nets.values():
            if net.is_clock:
                continue
            sides = {nl.instances[r.inst].cluster in pcx
                     for r in net.endpoints() if not r.is_port}
            if len(sides) > 1:
                cross += 1
        bt = block_type_by_name("ccx")
        assert cross == bt.cross_region_nets

    def test_generated_block_validates(self, lib):
        for name in ("ccx", "l2t", "mcu"):
            gb = generate_block(block_type_by_name(name), lib, seed=5)
            assert gb.netlist.validate() == []

    def test_scale_parameter(self, lib):
        full = generate_block(block_type_by_name("l2t"), lib, seed=1,
                              scale=1.0)
        half = generate_block(block_type_by_name("l2t"), lib, seed=1,
                              scale=0.5)
        assert half.netlist.num_cells < 0.6 * full.netlist.num_cells
