"""Tests for the Verilog / DEF exporters."""

import re

import pytest

from repro.netlist.io import write_def, write_verilog
from repro.place.placer2d import PlacementConfig, place_block_2d
from tests.conftest import fresh_block


@pytest.fixture(scope="module")
def placed(library):
    gb = fresh_block("ncu", library, seed=6)
    result = place_block_2d(gb.netlist, PlacementConfig(seed=6))
    return gb, result


class TestVerilog:
    def test_module_header_and_footer(self, placed):
        gb, _ = placed
        text = write_verilog(gb.netlist)
        assert text.startswith("module ncu (")
        assert text.rstrip().endswith("endmodule")

    def test_all_ports_declared(self, placed):
        gb, _ = placed
        text = write_verilog(gb.netlist)
        for name, port in gb.netlist.ports.items():
            kind = "input" if port.direction == "in" else "output"
            assert f"{kind} {name};" in text, name

    def test_all_instances_emitted(self, placed):
        gb, _ = placed
        text = write_verilog(gb.netlist)
        for inst in list(gb.netlist.instances.values())[:40]:
            assert re.search(
                rf"^\s+{re.escape(inst.master.name)} "
                rf"{re.escape(inst.name)} \(", text, re.M), inst.name

    def test_flop_pins_named(self, placed):
        gb, _ = placed
        text = write_verilog(gb.netlist)
        assert ".D(" in text and ".CK(" in text and ".Q(" in text

    def test_every_connection_named(self, placed):
        gb, _ = placed
        text = write_verilog(gb.netlist)
        # no dangling pin syntax
        assert ".()" not in text
        assert "(, " not in text

    def test_macro_pins(self, library):
        gb = fresh_block("l2t", library, seed=6)
        text = write_verilog(gb.netlist)
        assert ".Q0(" in text
        assert re.search(r"\.D\d+\(", text)


class TestDef:
    def test_structure(self, placed):
        gb, result = placed
        text = write_def(gb.netlist, result.outline)
        assert "VERSION 5.8 ;" in text
        assert "DIEAREA" in text
        assert f"COMPONENTS {len(gb.netlist.instances)} ;" in text
        assert f"PINS {len(gb.netlist.ports)} ;" in text
        assert f"NETS {len(gb.netlist.nets)} ;" in text
        assert text.rstrip().endswith("END DESIGN")

    def test_coordinates_in_dbu(self, placed):
        gb, result = placed
        text = write_def(gb.netlist, result.outline, units_per_um=1000)
        inst = next(iter(gb.netlist.instances.values()))
        expected = f"( {int(round(inst.x * 1000))} " \
                   f"{int(round(inst.y * 1000))} )"
        assert expected in text

    def test_fixed_macros_marked(self, library):
        gb = fresh_block("l2t", library, seed=6)
        result = place_block_2d(gb.netlist, PlacementConfig(seed=6))
        text = write_def(gb.netlist, result.outline)
        assert "+ FIXED (" in text
        assert "+ PLACED (" in text

    def test_net_endpoints_listed(self, placed):
        gb, result = placed
        text = write_def(gb.netlist, result.outline)
        some_net = next(iter(gb.netlist.nets.values()))
        line = next(l for l in text.splitlines()
                    if l.strip().startswith(f"- {some_net.name} "))
        assert line.count("(") == some_net.degree
