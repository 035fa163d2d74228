"""Legacy per-net / per-node timing loops (parity oracle).

The library's analysis path is the levelized array timing graph in
:mod:`repro.timing.graph` fed by the batched net extractor in
:mod:`repro.route.estimate`.  This module preserves the original
scalar (per-net dict / ``deque`` walk) engines so the parity harness
(``tests/test_sta_parity.py``) can call both and compare them
bit for bit: :func:`run_sta`, :func:`run_hold_analysis`,
:func:`io_path_delays`, :func:`derate_routing` and :func:`route_block`
mirror the same-named library functions.

The loops are kept verbatim from the pre-vectorization modules with
two deliberate, documented changes (see ``docs/timing.md``):

* the backward pass sorts by ``(-arrival, instance id)`` instead of
  leaving equal-arrival ordering to set iteration order (the array
  path emits the same order, and propagated *values* cannot depend on
  the tie-break because every cell delay is positive);
* :func:`derate_routing` emits derated nets through
  ``dataclasses.replace`` so via-independent fields added to
  :class:`~repro.route.estimate.RoutedNet` (``driver_key`` today) are
  carried instead of silently dropped -- the same single code path the
  batch extractor and ``RoutedNet.copy`` use.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.cts.tree import CTSResult
from repro.netlist.core import Netlist, PinRef
from repro.route.block_router import BlockRouter, _class_for
from repro.route.estimate import RoutingResult, route_net
from repro.tech.process import ProcessNode
from repro.timing.load import net_loads_driver
from repro.timing.si import SiConfig, SiReport, coupling_factor
from repro.timing.sta import (HOLD_PS, MACRO_SETUP_PS, SETUP_PS, STAResult,
                              TimingConfig)


def _is_terminal_sink(netlist: Netlist, ref: PinRef) -> bool:
    """True if a sink endpoint captures a path (flop D / macro in / port)."""
    if ref.is_port:
        return True
    inst = netlist.instances[ref.inst]
    return inst.is_macro or inst.is_sequential


# ---------------------------------------------------------------------------
# setup STA: forward arrival / backward required (original run_sta)
# ---------------------------------------------------------------------------

def run_sta(netlist: Netlist, routing: RoutingResult, process: ProcessNode,
            config: TimingConfig) -> STAResult:
    """The original per-node Kahn/dict STA walk (parity reference)."""
    period = process.clock_period_ps(config.clock_domain)

    # adjacency: driver instance -> [(sink inst, wire_delay)] for comb sinks
    succ: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    pred_count: Dict[int, int] = defaultdict(int)
    # terminal fanout: driver inst -> [(required_time_at_sink, wire_delay)]
    term_req: Dict[int, List[float]] = defaultdict(list)
    # source arrivals per instance (flop/macro launch); comb start at -inf
    port_fanout: Dict[str, List[Tuple[Optional[int], float, float]]] = \
        defaultdict(list)

    insts = netlist.instances

    # precompute every instance's driven load once (hot path); the
    # which-nets-load-a-driver rule is shared with the incremental STA
    # and the sizing engines via repro.timing.load
    _loads: Dict[int, float] = defaultdict(float)
    for net in netlist.nets.values():
        if not net_loads_driver(netlist, net):
            continue
        routed = routing.nets.get(net.id)
        if routed is not None:
            _loads[net.driver.inst] += routed.total_cap_ff

    def load_of(inst_id: int) -> float:
        return _loads[inst_id]

    for net in netlist.nets.values():
        if net.is_clock:
            continue
        routed = routing.nets.get(net.id)
        if routed is None:
            continue
        wire_delay = {s.ref.key(): routed.sink_wire_delay_ps(s)
                      for s in routed.sinks}
        drv = net.driver
        for sink in net.sinks:
            wd = wire_delay.get(sink.key(), 0.0)
            if _is_terminal_sink(netlist, sink):
                if sink.is_port:
                    if netlist.ports[sink.port].false_path:
                        continue
                    req = period - config.io_delay(sink.port)
                elif insts[sink.inst].is_macro:
                    req = period - MACRO_SETUP_PS
                else:
                    req = period - SETUP_PS
                if drv.is_port:
                    port_fanout[drv.port].append((None, wd, req))
                else:
                    term_req[drv.inst].append(req - wd)
            else:
                if drv.is_port:
                    port_fanout[drv.port].append((sink.inst, wd, 0.0))
                else:
                    succ[drv.inst].append((sink.inst, wd))
                    pred_count[sink.inst] += 1

    arrival: Dict[int, float] = {}
    ready = deque()
    launch_arrival: Dict[int, float] = {}

    for inst in insts.values():
        if inst.is_macro:
            launch_arrival[inst.id] = inst.master.intrinsic_delay_ps
        elif inst.is_sequential:
            launch_arrival[inst.id] = inst.master.delay_ps(load_of(inst.id))

    # input-port arrivals feed their comb sinks as extra preds handled now
    extra_arrival: Dict[int, float] = defaultdict(lambda: float("-inf"))
    for pname, fans in port_fanout.items():
        a0 = config.io_delay(pname)
        for sink_inst, wd, _req in fans:
            if sink_inst is not None:
                extra_arrival[sink_inst] = max(extra_arrival[sink_inst],
                                               a0 + wd)

    # Kahn topological propagation over combinational nodes
    comb_in: Dict[int, float] = defaultdict(lambda: float("-inf"))
    for iid, a in extra_arrival.items():
        comb_in[iid] = a
    for inst in insts.values():
        if inst.is_macro or inst.is_sequential:
            arrival[inst.id] = launch_arrival[inst.id]
            ready.append(inst.id)
        elif pred_count[inst.id] == 0:
            base = comb_in[inst.id]
            if base == float("-inf"):
                base = 0.0  # undriven comb cell (dangling input rescue)
            arrival[inst.id] = base + inst.master.delay_ps(load_of(inst.id))
            ready.append(inst.id)

    remaining = dict(pred_count)
    processed = set()
    while ready:
        iid = ready.popleft()
        if iid in processed:
            continue
        processed.add(iid)
        a = arrival[iid]
        for sink, wd in succ[iid]:
            comb_in[sink] = max(comb_in[sink], a + wd)
            remaining[sink] -= 1
            if remaining[sink] == 0:
                inst = insts[sink]
                arrival[sink] = comb_in[sink] + \
                    inst.master.delay_ps(load_of(sink))
                ready.append(sink)

    # any leftover (cycle safety): assign using current comb_in
    for inst in insts.values():
        if inst.id not in arrival:
            base = comb_in[inst.id]
            if base == float("-inf"):
                base = 0.0
            arrival[inst.id] = base + (
                inst.master.intrinsic_delay_ps if inst.is_macro
                else inst.master.delay_ps(load_of(inst.id)))

    # ---- backward pass ---------------------------------------------------
    required: Dict[int, float] = {}
    order = sorted(processed | set(arrival),
                   key=lambda i: (-arrival[i], i))
    INF = float("inf")
    req_map: Dict[int, float] = defaultdict(lambda: INF)
    for iid, reqs in term_req.items():
        req_map[iid] = min([req_map[iid]] + reqs)
    # propagate requirements backward in reverse topological (by arrival)
    for iid in order:
        r = req_map[iid]
        inst = insts[iid]
        for sink, wd in succ[iid]:
            sink_inst = insts[sink]
            r_sink = req_map[sink]
            if r_sink < INF:
                r = min(r, r_sink - sink_inst.master.delay_ps(
                    load_of(sink)) - wd)
        req_map[iid] = r
        required[iid] = r

    slack: Dict[int, float] = {}
    wns = INF
    tns = 0.0
    for iid, a in arrival.items():
        r = required.get(iid, INF)
        if r >= INF:
            continue
        s = r - a
        slack[iid] = s
        if s < wns:
            wns = s
        if s < 0:
            tns += s
    if wns == INF:
        wns = 0.0
    return STAResult(period_ps=period, arrival=arrival, required=required,
                     slack=slack, wns_ps=wns, tns_ps=tns)


# ---------------------------------------------------------------------------
# hold: min-delay propagation (original run_hold_analysis)
# ---------------------------------------------------------------------------

def run_hold_analysis(netlist: Netlist, routing: RoutingResult,
                      process: ProcessNode, config: TimingConfig,
                      cts: Optional[CTSResult] = None,
                      hold_ps: float = HOLD_PS):
    """The original per-net min-arrival hold walk (parity reference)."""
    from repro.timing.hold import HoldResult

    skew = cts.skew_ps if cts is not None else 0.0
    requirement = hold_ps + skew

    insts = netlist.instances
    loads: Dict[int, float] = defaultdict(float)
    for net in netlist.nets.values():
        if net.is_clock or net.driver.is_port:
            continue
        if net.driver.pin != 0 and not insts[net.driver.inst].is_macro:
            continue
        routed = routing.nets.get(net.id)
        if routed is not None:
            loads[net.driver.inst] += routed.total_cap_ff

    succ: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    pred_count: Dict[int, int] = defaultdict(int)
    captures: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        routed = routing.nets.get(net.id)
        if routed is None or net.driver.is_port:
            continue
        for s in routed.sinks:
            if s.ref.is_port:
                continue
            sink = insts[s.ref.inst]
            wd = routed.sink_wire_delay_ps(s)
            if sink.is_macro or sink.is_sequential:
                captures[net.driver.inst].append((s.ref.inst, wd))
            else:
                succ[net.driver.inst].append((s.ref.inst, wd))
                pred_count[s.ref.inst] += 1

    INF = float("inf")
    min_arrival: Dict[int, float] = {}
    comb_in: Dict[int, float] = defaultdict(lambda: INF)
    ready = deque()
    for inst in insts.values():
        if inst.is_macro:
            min_arrival[inst.id] = inst.master.intrinsic_delay_ps
            ready.append(inst.id)
        elif inst.is_sequential:
            min_arrival[inst.id] = inst.master.delay_ps(loads[inst.id])
            ready.append(inst.id)
        elif pred_count[inst.id] == 0:
            # driven only by ports: ports launch at the clock edge too,
            # conservatively with zero external min delay
            min_arrival[inst.id] = inst.master.delay_ps(loads[inst.id])
            ready.append(inst.id)

    remaining = dict(pred_count)
    done = set()
    while ready:
        iid = ready.popleft()
        if iid in done:
            continue
        done.add(iid)
        a = min_arrival[iid]
        for sink, wd in succ[iid]:
            comb_in[sink] = min(comb_in[sink], a + wd)
            remaining[sink] -= 1
            if remaining[sink] == 0:
                inst = insts[sink]
                min_arrival[sink] = comb_in[sink] + \
                    inst.master.delay_ps(loads[sink])
                ready.append(sink)

    slack: Dict[int, float] = {}
    whs = INF
    violations = 0
    for drv, sinks in captures.items():
        a = min_arrival.get(drv)
        if a is None:
            continue
        for cap_inst, wd in sinks:
            hs = (a + wd) - requirement
            prev = slack.get(cap_inst, INF)
            if hs < prev:
                slack[cap_inst] = hs
            if hs < whs:
                whs = hs
    violations = sum(1 for v in slack.values() if v < 0)
    if whs == INF:
        whs = 0.0
    return HoldResult(slack=slack, whs_ps=whs, violations=violations)


# ---------------------------------------------------------------------------
# I/O path budget halves (original io_path_delays)
# ---------------------------------------------------------------------------

def io_path_delays(netlist: Netlist, routing: RoutingResult,
                   process: ProcessNode, config: TimingConfig,
                   sta: Optional[STAResult] = None
                   ) -> Tuple[float, float]:
    """The original worklist t_in / t_out scan (parity reference)."""
    if sta is None:
        sta = run_sta(netlist, routing, process, config)
    insts = netlist.instances

    # ---- t_out: arrival at output ports ---------------------------------
    t_out = 0.0
    for name, port in netlist.ports.items():
        if port.direction != "out":
            continue
        if port.false_path:
            continue  # observation-only pins carry no requirement
        for net in netlist.nets_of_port(name):
            routed = routing.nets.get(net.id)
            if routed is None or net.driver.is_port:
                continue
            for s in routed.sinks:
                if s.ref.is_port and s.ref.port == name:
                    arr = sta.arrival.get(net.driver.inst, 0.0)
                    t_out = max(t_out,
                                arr + routed.sink_wire_delay_ps(s))

    # ---- t_in: forward propagation with port-only sources ---------------
    succ: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    pred_count: Dict[int, int] = defaultdict(int)
    loads: Dict[int, float] = defaultdict(float)
    port_arr: Dict[int, float] = {}
    capture_delay: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        routed = routing.nets.get(net.id)
        if routed is None:
            continue
        if not net.driver.is_port and (net.driver.pin == 0 or
                                       insts[net.driver.inst].is_macro):
            loads[net.driver.inst] += routed.total_cap_ff
        for s in routed.sinks:
            if s.ref.is_port:
                continue
            sink = insts[s.ref.inst]
            wd = routed.sink_wire_delay_ps(s)
            if sink.is_macro or sink.is_sequential:
                if not net.driver.is_port:
                    setup = MACRO_SETUP_PS if sink.is_macro else SETUP_PS
                    capture_delay[net.driver.inst].append((wd, setup))
                continue
            if net.driver.is_port:
                a = wd  # port external delay excluded: pure block path
                port_arr[s.ref.inst] = max(port_arr.get(s.ref.inst,
                                                        0.0), a)
            else:
                succ[net.driver.inst].append((s.ref.inst, wd))
                pred_count[s.ref.inst] += 1

    arrival: Dict[int, float] = {}
    INF_NEG = float("-inf")
    ready = deque()
    for iid, a in port_arr.items():
        inst = insts[iid]
        arrival[iid] = a + inst.master.delay_ps(loads[iid])
        ready.append(iid)
    t_in = 0.0
    visited = set()
    while ready:
        iid = ready.popleft()
        if iid in visited:
            continue
        visited.add(iid)
        a = arrival[iid]
        for wd, setup in capture_delay.get(iid, ()):
            t_in = max(t_in, a + wd + setup)
        for sink, wd in succ[iid]:
            cand = a + wd + insts[sink].master.delay_ps(loads[sink])
            if cand > arrival.get(sink, INF_NEG):
                arrival[sink] = cand
                if sink in visited:
                    visited.discard(sink)
                ready.append(sink)
    return t_in, t_out


# ---------------------------------------------------------------------------
# SI derating (original derate_routing loop)
# ---------------------------------------------------------------------------

def derate_routing(netlist: Netlist, routing: RoutingResult,
                   router: BlockRouter,
                   config: Optional[SiConfig] = None
                   ) -> Tuple[RoutingResult, SiReport]:
    """The original per-net corridor-utilization derate (reference)."""
    import numpy as np

    config = config or SiConfig()
    out = RoutingResult()
    factors = []
    for routed in routing.nets.values():
        net = netlist.nets.get(routed.net_id)
        if net is None:
            continue
        cls = _class_for(max(routed.length_um, 1e-6), router.max_metal)
        cap = max(router.capacity[cls], 1e-6)
        # average utilization over the net's bounding corridor
        cells = []
        for ref in net.endpoints():
            x, y, _ = netlist.endpoint_position(ref)
            cells.append(router.gcell(x, y))
        i0 = min(c[0] for c in cells)
        i1 = max(c[0] for c in cells)
        j0 = min(c[1] for c in cells)
        j1 = max(c[1] for c in cells)
        usage = router.usage[cls][i0:i1 + 1, j0:j1 + 1]
        util = float(usage.mean()) / cap if usage.size else 0.0
        k = coupling_factor(util, config)
        factors.append(k)
        out.nets[routed.net_id] = replace(
            routed,
            c_per_um=routed.c_per_um * k,
            wire_cap_ff=routed.wire_cap_ff * k,
            sinks=[replace(s, path_len_um=s.path_len_um * k ** 0.5)
                   for s in routed.sinks])
    report = SiReport(
        nets_derated=len(factors),
        worst_factor=max(factors, default=1.0),
        mean_factor=float(np.mean(factors)) if factors else 1.0)
    return out, report


# ---------------------------------------------------------------------------
# per-net extraction (original route_block loop)
# ---------------------------------------------------------------------------

def route_block(netlist: Netlist, stack, max_metal: int = 7,
                via=None, via_sites=None, long_wire_um: float = 120.0,
                detour_factor: float = 1.0) -> RoutingResult:
    """The original route-one-net-at-a-time extraction loop (reference)."""
    result = RoutingResult()
    via_sites = via_sites or {}
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        xy = via_sites.get(net.id)
        result.nets[net.id] = route_net(
            netlist, net, stack, max_metal=max_metal,
            via=via if xy is not None else None, via_xy=xy,
            long_wire_um=long_wire_um, detour_factor=detour_factor)
    return result
