"""Tests for the netlist data model."""

import dataclasses
import pickle

import pytest

from repro.netlist.core import INPUT, OUTPUT, Netlist, PinRef
from repro.tech.cells import make_28nm_library
from repro.tech.macros import sram_macro


@pytest.fixture()
def lib():
    return make_28nm_library()


@pytest.fixture()
def simple(lib):
    """in -> inv1 -> inv2 -> out, plus a flop hanging off inv1."""
    nl = Netlist("simple")
    inv = lib.master("INV_X1")
    dff = lib.master("DFF_X1")
    i1 = nl.add_instance("inv1", inv)
    i2 = nl.add_instance("inv2", inv)
    ff = nl.add_instance("ff", dff)
    nl.add_port("in", INPUT)
    nl.add_port("out", OUTPUT)
    nl.add_port("clk", INPUT)
    nl.add_net("n_in", PinRef(port="in"), [PinRef(inst=i1.id, pin=0)])
    nl.add_net("n_mid", PinRef(inst=i1.id),
               [PinRef(inst=i2.id, pin=0), PinRef(inst=ff.id, pin=0)])
    nl.add_net("n_out", PinRef(inst=i2.id), [PinRef(port="out")])
    nl.add_net("clk", PinRef(port="clk"), [PinRef(inst=ff.id, pin=1)],
               is_clock=True)
    return nl, i1, i2, ff


def test_validate_clean(simple):
    nl, *_ = simple
    assert nl.validate() == []


def test_counts(simple):
    nl, *_ = simple
    assert nl.num_cells == 3
    assert nl.num_buffers == 2  # the two inverters count as repeaters
    assert len(nl.nets) == 4
    assert len(nl.ports) == 3


def test_nets_of_instance(simple):
    nl, i1, i2, ff = simple
    names = {n.name for n in nl.nets_of(i1.id)}
    assert names == {"n_in", "n_mid"}
    assert {n.name for n in nl.nets_of(ff.id)} == {"n_mid", "clk"}


def test_output_net_of(simple):
    nl, i1, i2, ff = simple
    assert nl.output_net_of(i1.id).name == "n_mid"
    assert nl.output_net_of(ff.id) is None  # flop Q unused here


def test_endpoint_position_and_cap(simple):
    nl, i1, *_ = simple
    i1.x, i1.y, i1.die = 10.0, 20.0, 1
    assert nl.endpoint_position(PinRef(inst=i1.id)) == (10.0, 20.0, 1)
    p = nl.ports["in"]
    p.x = 5.0
    assert nl.endpoint_position(PinRef(port="in"))[0] == 5.0
    assert nl.endpoint_cap_ff(PinRef(inst=i1.id, pin=0)) == \
        i1.master.input_cap_ff
    assert nl.endpoint_cap_ff(PinRef(port="out")) > 0


def test_3d_net_detection(simple):
    nl, i1, i2, ff = simple
    net = nl.output_net_of(i1.id)
    assert not nl.is_3d_net(net)
    i2.die = 1
    assert nl.is_3d_net(net)
    # n_mid crosses (i1 on die 0, i2 on die 1) and n_out crosses too
    # (i2 on die 1, the "out" port on die 0)
    assert nl.count_3d_nets() == 2
    nl.ports["out"].die = 1
    assert nl.count_3d_nets() == 1


def test_rewire_driver(simple, lib):
    nl, i1, i2, ff = simple
    buf = nl.add_instance("buf", lib.master("BUF_X4"))
    net = nl.output_net_of(i2.id)
    nl.rewire_driver(net.id, PinRef(inst=buf.id))
    assert net.driver.inst == buf.id
    assert net in nl.nets_of(buf.id)
    assert net not in nl.nets_of(i2.id)


def test_add_remove_sink(simple, lib):
    nl, i1, i2, ff = simple
    extra = nl.add_instance("extra", lib.master("INV_X1"))
    net = nl.output_net_of(i1.id)
    ref = PinRef(inst=extra.id, pin=0)
    nl.add_sink(net.id, ref)
    assert net.degree == 4
    assert net in nl.nets_of(extra.id)
    nl.remove_sink(net.id, ref)
    assert net.degree == 3
    assert net not in nl.nets_of(extra.id)


def test_remove_missing_sink_raises(simple):
    nl, i1, *_ = simple
    net = nl.output_net_of(i1.id)
    with pytest.raises(ValueError):
        nl.remove_sink(net.id, PinRef(inst=999, pin=0))


def test_remove_net_and_instance(simple):
    nl, i1, i2, ff = simple
    net = nl.output_net_of(i2.id)
    nl.remove_net(net.id)
    assert net.id not in nl.nets
    # i2 still connected through n_mid
    with pytest.raises(ValueError):
        nl.remove_instance(i2.id)
    mid = nl.output_net_of(i1.id)
    nl.remove_sink(mid.id, PinRef(inst=i2.id, pin=0))
    nl.remove_instance(i2.id)
    assert i2.id not in nl.instances


def test_duplicate_port_rejected(simple):
    nl, *_ = simple
    with pytest.raises(ValueError):
        nl.add_port("in", INPUT)


def test_bad_port_direction_rejected(lib):
    nl = Netlist("x")
    with pytest.raises(ValueError):
        nl.add_port("p", "inout")


def test_validate_catches_direction_misuse(lib):
    nl = Netlist("bad")
    inv = nl.add_instance("i", lib.master("INV_X1"))
    nl.add_port("o", OUTPUT)
    # an output port may not drive a net
    nl.add_net("n", PinRef(port="o"), [PinRef(inst=inv.id, pin=0)])
    problems = nl.validate()
    assert any("non-input port" in p for p in problems)


def test_validate_catches_sinkless_net(lib):
    nl = Netlist("bad2")
    inv = nl.add_instance("i", lib.master("INV_X1"))
    nl.add_net("n", PinRef(inst=inv.id), [])
    assert any("no sinks" in p for p in nl.validate())


def test_macro_instance_properties(lib):
    nl = Netlist("m")
    m = nl.add_instance("ram", sram_macro(4))
    assert m.is_macro
    assert not m.is_sequential
    assert m.width_um == pytest.approx(m.master.width_um)
    assert m.area_um2 > 1000


def test_cell_width_from_area(lib):
    from repro.tech.cells import CELL_HEIGHT_UM
    nl = Netlist("w")
    c = nl.add_instance("c", lib.master("NAND2_X4"))
    assert c.width_um == pytest.approx(c.area_um2 / CELL_HEIGHT_UM)
    assert c.height_um == CELL_HEIGHT_UM


def _records(netlist):
    return [*netlist.instances.values(), *netlist.ports.values(),
            *netlist.nets.values(),
            *(ref for net in netlist.nets.values()
              for ref in net.endpoints())]


@pytest.mark.parametrize("copy", [
    Netlist.clone,
    lambda nl: pickle.loads(pickle.dumps(nl, pickle.HIGHEST_PROTOCOL)),
], ids=["clone", "pickle"])
def test_copies_carry_every_field(simple, copy):
    """Every field of every record reaches the copy, in its place: the
    clone and the pickled form both build records positionally."""
    nl, *_ = simple
    nested = {"driver", "sinks"}  # a net's PinRefs, checked as records
    originals = _records(nl)
    for k, rec in enumerate(originals):
        for f in dataclasses.fields(rec):
            if f.name not in nested:
                setattr(rec, f.name, (k, f.name))
    copies = _records(copy(nl))
    assert len(copies) == len(originals)
    for rec, dup in zip(originals, copies):
        assert type(dup) is type(rec) and dup is not rec
        for f in dataclasses.fields(rec):
            if f.name not in nested:
                assert getattr(dup, f.name) == getattr(rec, f.name)


class TestClone:
    def test_clone_matches_original(self, simple):
        nl, i1, i2, ff = simple
        i1.x, i1.die = 12.5, 1
        copy = nl.clone()
        assert copy.num_cells == nl.num_cells
        assert len(copy.nets) == len(nl.nets)
        assert copy.instances[i1.id].x == 12.5
        assert copy.instances[i1.id].die == 1
        assert copy.validate() == []

    def test_clone_is_independent(self, simple, lib):
        nl, i1, i2, ff = simple
        copy = nl.clone()
        copy.replace_master(i1.id, lib.master("INV_X8"))
        copy.instances[i2.id].x = 999.0
        extra = copy.add_instance("extra", lib.master("BUF_X2"))
        assert nl.instances[i1.id].master.drive == 1
        assert nl.instances[i2.id].x != 999.0
        assert extra.id not in nl.instances

    def test_clone_shares_masters(self, simple):
        nl, i1, *_ = simple
        copy = nl.clone()
        assert copy.instances[i1.id].master is nl.instances[i1.id].master

    def test_clone_then_edit_keeps_indexes_consistent(self, simple, lib):
        nl, i1, i2, ff = simple
        copy = nl.clone()
        net = copy.output_net_of(i1.id)
        buf = copy.add_instance("b", lib.master("BUF_X2"))
        copy.rewire_driver(net.id, PinRef(inst=buf.id))
        assert net in copy.nets_of(buf.id)
        # the original still has i1 as the driver
        assert nl.output_net_of(i1.id) is not None
