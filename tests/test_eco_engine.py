"""ECO-engine regressions: reroute scope, counters, the flow stage,
scenario derivation.

The headline regression (ISSUE 9): buffer insertion used to trigger a
full block reroute and a from-scratch STA.  These tests pin the new
behavior through the *generated* observability name registry --
``opt.full_reroutes`` stays flat while ``route.nets_reextracted``
advances -- at every level: the ECO session, the optimizer's surgery
path, and the flow's ``eco`` stage.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis.export_json import block_to_dict
from repro.core import flow as core_flow
from repro.core.flow import FlowConfig, run_block_flow
from repro.designgen import block_type_by_name, generate_block
from repro.eco import (BufferInsert, Displace, EcoConfig, EcoSession,
                       derive_design)
from repro.eco import driver as eco_driver
from repro.obs.metrics import metrics
from repro.obs.names import (CTR_ECO_DERIVED_DESIGNS,
                             CTR_ECO_LEGALIZE_FAILURES,
                             CTR_ECO_MOVES_APPLIED, CTR_OPT_FULL_REROUTES,
                             CTR_ROUTE_NETS_REEXTRACTED,
                             CTR_ROUTE_NETS_REROUTED)
from repro.opt.buffering import plan_net_buffering
from repro.opt.flow import optimize_block
from repro.place import PlacementConfig, place_block_2d
from repro.place.legalize import macro_rects_of
from repro.route.estimate import RouteContext
from repro.timing import TimingConfig
from tests.oracles.eco_full import use_oracle


@pytest.fixture(scope="module")
def base(process):
    return run_block_flow(
        "l2t", FlowConfig(scale=0.12, seed=7, io_budget_ps=60.0),
        process)


def _bufferable_nets(session, process, drive=4):
    return [nid for nid, routed in session.routing.nets.items()
            if not session.netlist.nets[nid].is_clock and
            plan_net_buffering(session.netlist, routed,
                               process.library, drive) is not None]


class TestBufferInsertionStaysIncremental:
    """Satellite regression: a buffer insert re-extracts only the
    touched nets on l2t -- the full-reroute counter must not move."""

    def test_session_buffer_insert_never_full_reroutes(self, base,
                                                       process):
        session = EcoSession.from_design(base, process)
        # the optimizer already buffered every long net, so stretch one
        # net far past the long-wire threshold to create fresh demand
        inst = next(c for c in session.netlist.cells
                    if not c.is_macro and not c.fixed)
        session.apply([Displace(inst_id=inst.id, x=inst.x + 400.0,
                                y=inst.y)])
        nets = _bufferable_nets(session, process)
        assert nets, "stretch produced no bufferable net"

        m = metrics()
        full_before = m.counter(CTR_OPT_FULL_REROUTES).value
        extracted_before = m.counter(CTR_ROUTE_NETS_REEXTRACTED).value
        report = session.apply([BufferInsert(net_id=nets[0])])

        assert report.buffers_added > 0
        assert m.counter(CTR_OPT_FULL_REROUTES).value == full_before
        assert m.counter(CTR_ROUTE_NETS_REEXTRACTED).value > \
            extracted_before
        assert session.stats["sta_full_rebuilds"] == 0

    def test_optimizer_buffering_pays_one_initial_route_only(
            self, process):
        gb = generate_block(block_type_by_name("l2t"), process.library,
                            seed=1)
        place_block_2d(gb.netlist, PlacementConfig(seed=1))
        ctx = RouteContext(stack=process.metal_stack)
        m = metrics()
        full_before = m.counter(CTR_OPT_FULL_REROUTES).value
        extracted_before = m.counter(CTR_ROUTE_NETS_REEXTRACTED).value
        result = optimize_block(
            gb.netlist, process, TimingConfig("cpu_clk"), ctx,
            dual_vth=True)
        assert result.buffers_added > 0
        # exactly the initial route: buffer surgery patches per net now
        assert m.counter(CTR_OPT_FULL_REROUTES).value - full_before == 1
        assert m.counter(CTR_ROUTE_NETS_REEXTRACTED).value > \
            extracted_before


class TestLegalizationAroundMacros:
    """Inserted buffers are legalized on their own die, around that
    die's macros; a buffer the legalizer cannot place is counted."""

    @pytest.fixture(scope="class")
    def l2d(self, process):
        return run_block_flow(
            "l2d", FlowConfig(scale=0.3, seed=7, io_budget_ps=60.0),
            process)

    def _buffer_after_stretch(self, base, process, name):
        """Displace ``name`` to (5, 5), buffer the one net that now
        needs it; returns the session and the new buffers."""
        session = EcoSession.from_design(base, process)
        inst = next(c for c in session.netlist.cells if c.name == name)
        session.apply([Displace(inst_id=inst.id, x=5.0, y=5.0)])
        nets = _bufferable_nets(session, process)
        assert len(nets) == 1
        before = set(session.netlist.instances)
        report = session.apply([BufferInsert(net_id=nets[0])])
        new = [inst for iid, inst in session.netlist.instances.items()
               if iid not in before]
        assert report.buffers_added == len(new) > 0
        return session, new

    @staticmethod
    def _inside_macros(session, cells):
        macros = macro_rects_of(session.netlist)
        return [c.name for c in cells
                if any(r.x0 < c.x < r.x1 and r.y0 < c.y < r.y1
                       for r in macros.get(c.die, ()))]

    def test_buffers_land_outside_macros(self, l2d, process):
        session, new = self._buffer_after_stretch(l2d, process, "u_0")
        assert len(new) == 2
        assert self._inside_macros(session, new) == []
        assert "legalize_failures" not in session.stats

    def test_unplaceable_buffer_is_counted(self, l2d, process):
        m = metrics()
        before = m.counter(CTR_ECO_LEGALIZE_FAILURES).value
        session, new = self._buffer_after_stretch(l2d, process, "u_11")
        # the one buffer found no free row slot: it keeps its planned
        # position, inside a macro, and the failure is on record
        assert len(self._inside_macros(session, new)) == 1
        assert session.stats["legalize_failures"] == 1
        assert m.counter(CTR_ECO_LEGALIZE_FAILURES).value - before == 1


class TestFlowEcoStage:
    def test_flow_eco_stage_is_bit_exact_vs_full_recompute(
            self, process, monkeypatch):
        cfg = FlowConfig(scale=0.12, seed=7, io_budget_ps=30.0,
                         eco=EcoConfig(target_wns_ps=305.0))
        inc = run_block_flow("l2t", cfg, process)
        with monkeypatch.context() as mp:
            oracles = use_oracle(mp, core_flow)
            full = run_block_flow("l2t", cfg, process)
        assert len(oracles) == 1
        assert oracles[0].stats["full_reroutes"] > 0
        assert inc.eco_report is not None
        assert inc.eco_report.status == "met"
        assert inc.eco_report.moves_applied > 0
        assert inc.eco_report.status == full.eco_report.status
        assert json.dumps(block_to_dict(inc), sort_keys=True) == \
            json.dumps(block_to_dict(full), sort_keys=True)
        assert inc.eco_report.session_stats["sta_full_rebuilds"] == 0

    def test_flow_rejects_eco_with_detailed_route(self, process):
        cfg = FlowConfig(scale=0.12, seed=7, detailed_route=True,
                         eco=EcoConfig())
        with pytest.raises(ValueError, match="detailed_route"):
            run_block_flow("l2t", cfg, process)


class TestScenarioDerivation:
    def test_l2t_neighbor_matches_full_recompute_and_reuses_routing(
            self, process, monkeypatch):
        """l2t at scale 1: io budget 60 -> 90 ps plus dual-Vth, derived
        incrementally and on the full-recompute oracle."""
        config = FlowConfig(scale=1.0, seed=1, io_budget_ps=60.0)
        neighbor = replace(config, io_budget_ps=90.0, dual_vth=True,
                           eco=EcoConfig())
        m = metrics()
        # nets_rerouted advances in the base flow's buffer surgery; the
        # derivations themselves re-route (next to) nothing
        counters = (CTR_ECO_DERIVED_DESIGNS, CTR_ECO_MOVES_APPLIED,
                    CTR_ROUTE_NETS_REROUTED)
        before = {name: m.counter(name).value for name in counters}
        base = run_block_flow("l2t", config, process)
        derived, rep_inc = derive_design(base, neighbor, process)
        with monkeypatch.context() as mp:
            oracles = use_oracle(mp, eco_driver)
            full, rep_full = derive_design(base, neighbor, process)
        assert len(oracles) == 1
        assert json.dumps(block_to_dict(derived), sort_keys=True) == \
            json.dumps(block_to_dict(full), sort_keys=True)
        inc_rr = rep_inc.session_stats["nets_rerouted"]
        full_rr = rep_full.session_stats["nets_rerouted"]
        assert full_rr > 0
        assert 1.0 - inc_rr / full_rr >= 0.9
        assert rep_inc.session_stats["sta_full_rebuilds"] == 0
        for name in counters:
            assert m.counter(name).value > before[name], name
