"""Tests for gate sizing and dual-Vth assignment."""

import pytest

from repro.netlist.core import INPUT, Netlist, PinRef
from repro.opt import sizing
from repro.opt.dualvth import (hvt_fraction, plan_hvt_swaps,
                               restore_rvt_on_violations)
from repro.opt.sizing import apply_moves, fix_timing, plan_downsizes
from repro.route.estimate import route_block
from repro.tech.cells import VTH_HVT, VTH_RVT
from repro.tech.process import CPU_CLOCK, make_process
from repro.timing.incremental import IncrementalSTA
from repro.timing.sta import TimingConfig, run_sta


@pytest.fixture(scope="module")
def proc():
    return make_process()


@pytest.fixture(scope="module")
def lib(proc):
    return proc.library


def pipeline(lib, n_stages, spacing=50.0, drive=2):
    nl = Netlist("pipe")
    dff = lib.master("DFF_X1")
    inv = lib.master(f"INV_X{drive}")
    prev = nl.add_instance("ff0", dff, x=0, y=0)
    for i in range(n_stages):
        c = nl.add_instance(f"i{i}", inv, x=(i + 1) * spacing, y=0)
        nl.add_net(f"n{i}", PinRef(inst=prev.id),
                   [PinRef(inst=c.id, pin=0)])
        prev = c
    ff1 = nl.add_instance("ff1", dff, x=(n_stages + 1) * spacing, y=0)
    nl.add_net("nD", PinRef(inst=prev.id), [PinRef(inst=ff1.id, pin=0)])
    nl.add_port("clk", INPUT)
    nl.add_net("clk", PinRef(port="clk"),
               [PinRef(inst=nl.instances[0].id, pin=1),
                PinRef(inst=ff1.id, pin=1)], is_clock=True)
    return nl


def analyze(nl, proc):
    routing = route_block(nl, proc.metal_stack)
    sta = run_sta(nl, routing, proc, TimingConfig(CPU_CLOCK))
    return routing, sta


def live_view(nl, proc):
    """A live timing view of the freshly routed netlist."""
    return IncrementalSTA(nl, route_block(nl, proc.metal_stack), proc,
                          TimingConfig(CPU_CLOCK))


class TestFixTiming:
    def test_upsizes_violating_cells(self, proc, lib):
        nl = pipeline(lib, n_stages=30, spacing=120.0, drive=1)
        _, sta = analyze(nl, proc)
        assert sta.wns_ps < 0
        moves = fix_timing(nl, sta, lib)
        assert moves > 0
        drives = {c.master.drive for c in nl.cells if not c.is_sequential}
        assert max(drives) > 1

    def test_improves_wns(self, proc, lib):
        nl = pipeline(lib, n_stages=30, spacing=120.0, drive=1)
        _, sta = analyze(nl, proc)
        before = sta.wns_ps
        for _ in range(3):
            moves = fix_timing(nl, sta, lib)
            _, sta = analyze(nl, proc)
            if not moves:
                break
        assert sta.wns_ps > before

    def test_no_moves_when_met(self, proc, lib):
        nl = pipeline(lib, n_stages=2)
        _, sta = analyze(nl, proc)
        assert sta.wns_ps > 0
        assert fix_timing(nl, sta, lib) == 0


class TestRecoverPower:
    def test_downsizes_slack_rich_cells(self, proc, lib):
        nl = pipeline(lib, n_stages=3, drive=8)
        moves = apply_moves(nl, plan_downsizes(nl, live_view(nl, proc),
                                               lib))
        assert moves > 0
        drives = [c.master.drive for c in nl.cells if not c.is_sequential]
        assert min(drives) < 8

    def test_keeps_timing_met(self, proc, lib):
        nl = pipeline(lib, n_stages=6, drive=8)
        view = live_view(nl, proc)
        for _ in range(4):
            if not view.swap_masters(plan_downsizes(nl, view, lib)):
                break
        _, sta = analyze(nl, proc)
        assert sta.wns_ps >= 0

    def test_margin_limits_moves(self, proc, lib, monkeypatch):
        nl = pipeline(lib, n_stages=3, drive=2)
        monkeypatch.setattr(sizing, "DOWNSIZE_MARGIN_PS", 10000.0)
        assert plan_downsizes(nl, live_view(nl, proc), lib) == []


class TestDualVth:
    def test_swaps_when_slack_allows(self, proc, lib):
        nl = pipeline(lib, n_stages=3)
        moves = apply_moves(nl, plan_hvt_swaps(nl, live_view(nl, proc),
                                               lib))
        assert moves > 0
        assert hvt_fraction(nl) > 0.5

    def test_no_swap_without_slack(self, proc, lib):
        nl = pipeline(lib, n_stages=30, spacing=150.0, drive=1)
        view = live_view(nl, proc)
        sta = view.to_result()
        assert sta.wns_ps < 0
        # critical cells (negative slack) must stay RVT
        apply_moves(nl, plan_hvt_swaps(nl, view, lib))
        for c in nl.cells:
            if sta.slack.get(c.id, 1e9) < 0:
                assert c.master.vth == VTH_RVT

    def test_restore_reverts_violators(self, proc, lib):
        nl = pipeline(lib, n_stages=10, spacing=100.0)
        routing, sta = analyze(nl, proc)
        # force-swap everything, even illegally
        for c in nl.cells:
            if not c.is_sequential:
                nl.replace_master(c.id, lib.variant(c.master,
                                                    vth=VTH_HVT))
        routing, sta = analyze(nl, proc)
        if sta.wns_ps < 0:
            reverted = restore_rvt_on_violations(nl, sta, lib)
            assert reverted > 0

    def test_timing_met_after_swaps(self, proc, lib):
        nl = pipeline(lib, n_stages=4)
        apply_moves(nl, plan_hvt_swaps(nl, live_view(nl, proc), lib))
        _, sta = analyze(nl, proc)
        assert sta.wns_ps >= 0

    def test_hvt_fraction_empty(self, lib):
        assert hvt_fraction(Netlist("e")) == 0.0
