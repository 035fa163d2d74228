"""Timing path extraction and reporting.

Turns an STA result back into human-readable critical paths -- the
equivalent of a PrimeTime ``report_timing``: startpoint (flop / macro /
port), the chain of cells with per-stage cell and wire increments, the
endpoint, and the slack.  Used by the chip-level sign-off report and
handy for debugging why a block fails its budget.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..obs.metrics import metrics
from ..route.estimate import RoutingResult
from ..tech.process import ProcessNode
from .graph import graph_for
from .sta import STAResult, TimingConfig, run_sta

_NEG_INF = float("-inf")


@dataclass
class PathStage:
    """One stage of a timing path."""

    instance: str
    master: str
    cell_delay_ps: float
    wire_delay_ps: float
    arrival_ps: float


@dataclass
class TimingPath:
    """A complete register-to-register (or port) path."""

    startpoint: str
    endpoint: str
    stages: List[PathStage]
    slack_ps: float
    required_ps: float
    arrival_ps: float

    @property
    def depth(self) -> int:
        return len(self.stages)

    def report(self) -> str:
        lines = [f"  startpoint: {self.startpoint}",
                 f"  endpoint:   {self.endpoint}",
                 f"  {'instance':24s}{'master':16s}{'cell':>8s}"
                 f"{'wire':>8s}{'arrival':>9s}"]
        for s in self.stages:
            lines.append(f"  {s.instance:24s}{s.master:16s}"
                         f"{s.cell_delay_ps:8.1f}{s.wire_delay_ps:8.1f}"
                         f"{s.arrival_ps:9.1f}")
        lines.append(f"  arrival {self.arrival_ps:.1f} ps, required "
                     f"{self.required_ps:.1f} ps, slack "
                     f"{self.slack_ps:+.1f} ps")
        return "\n".join(lines)


def extract_worst_paths(netlist: Netlist, routing: RoutingResult,
                        process: ProcessNode, config: TimingConfig,
                        n_paths: int = 3,
                        sta: Optional[STAResult] = None
                        ) -> List[TimingPath]:
    """The ``n_paths`` worst-slack paths, traced through max-arrival
    predecessors."""
    if sta is None:
        sta = run_sta(netlist, routing, process, config)
    insts = netlist.instances

    # rebuild predecessor map: sink inst -> (driver inst, wire delay)
    pred: Dict[int, List[Tuple[Optional[int], float]]] = defaultdict(list)
    loads: Dict[int, float] = defaultdict(float)
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
            sink_inst = insts[s.ref.inst]
            if sink_inst.is_macro or sink_inst.is_sequential:
                continue
            drv = None if net.driver.is_port else net.driver.inst
            pred[s.ref.inst].append((drv, routed.sink_wire_delay_ps(s)))

    def cell_delay(iid: int) -> float:
        inst = insts[iid]
        if inst.is_macro:
            return inst.master.intrinsic_delay_ps
        return inst.master.delay_ps(loads[iid])

    def trace(end_inst: int) -> List[PathStage]:
        stages: List[PathStage] = []
        iid = end_inst
        guard = 0
        while iid is not None and guard < 10000:
            guard += 1
            inst = insts[iid]
            best = None
            for drv, wd in pred.get(iid, ()):
                if drv is None:
                    score = wd
                else:
                    score = sta.arrival.get(drv, 0.0) + wd
                if best is None or score > best[0]:
                    best = (score, drv, wd)
            wire_in = best[2] if best else 0.0
            stages.append(PathStage(
                instance=inst.name, master=inst.master.name,
                cell_delay_ps=cell_delay(iid), wire_delay_ps=wire_in,
                arrival_ps=sta.arrival.get(iid, 0.0)))
            if best is None or inst.is_sequential or inst.is_macro:
                break
            iid = best[1]
        stages.reverse()
        return stages

    worst = sorted((iid for iid in sta.slack), key=lambda i: sta.slack[i])
    paths: List[TimingPath] = []
    seen_ends = set()
    for iid in worst:
        if len(paths) >= n_paths:
            break
        if iid in seen_ends or iid not in insts:
            continue
        seen_ends.add(iid)
        stages = trace(iid)
        if not stages:
            continue
        paths.append(TimingPath(
            startpoint=stages[0].instance,
            endpoint=stages[-1].instance,
            stages=stages,
            slack_ps=sta.slack[iid],
            required_ps=sta.required.get(iid, float("inf")),
            arrival_ps=sta.arrival.get(iid, 0.0)))
    return paths


def io_path_delays(netlist: Netlist, routing: RoutingResult,
                   process: ProcessNode, config: TimingConfig,
                   sta: Optional[STAResult] = None
                   ) -> Tuple[float, float]:
    """(worst input-to-capture, worst launch-to-output) delay in ps.

    The two halves of a cross-block path: ``t_in`` is the longest delay
    from any input port to a capturing element inside the block;
    ``t_out`` is the longest launch-to-output-port delay.  The chip-level
    sign-off (``repro.core.chip_sta``) adds the inter-block wire between
    them.

    Runs on a :class:`~repro.timing.graph.TimingGraph` built for this
    call: the setup arrivals give ``t_out``, and a port-seeded forward
    max pass gives ``t_in``.

    Raises:
        ValueError: on a combinational cycle or a dangling endpoint.
    """
    g = graph_for(netlist, routing)
    metrics().counter("sta.vector_passes").inc()

    if sta is None:
        sta = run_sta(netlist, routing, process, config)

    # t_out: worst launch-to-output-port arrival (few port nets, so a
    # plain scan)
    t_out = 0.0
    for name, port in netlist.ports.items():
        if port.direction != "out" or port.false_path:
            continue
        for net in netlist.nets_of_port(name):
            routed = routing.nets.get(net.id)
            if routed is None or net.driver.is_port:
                continue
            for s in routed.sinks:
                if s.ref.is_port and s.ref.port == name:
                    a = sta.arrival.get(net.driver.inst, 0.0)
                    t_out = max(t_out,
                                a + routed.sink_wire_delay_ps(s))

    # t_in: longest port-to-capture path; port-seeded forward pass
    comb_in = g.port_base.copy()
    arr = np.where(comb_in > _NEG_INF, comb_in + g.delay, _NEG_INF)
    mask = np.zeros(g.V, dtype=bool)
    w0 = g.waves[0] if g.waves else np.empty(0, np.int64)
    mask[w0] = True
    arr = np.where(mask, arr, _NEG_INF)  # only level-0 values so far
    for ell in range(1, len(g.waves)):
        nodes = g.waves[ell]
        src, wd, starts = g.fin[ell]
        t = arr[src] + wd
        m = np.maximum.reduceat(t, starts) if len(t) else \
            np.empty(0, np.float64)
        ci = np.maximum(m, comb_in[nodes])
        arr[nodes] = np.where(ci > _NEG_INF, ci + g.delay[nodes],
                              _NEG_INF)

    t_in = 0.0
    if len(g.t_i_drv):
        c = (arr[g.t_i_drv] + g.t_i_wd) + g.io_cap_setup
        c = c[arr[g.t_i_drv] > _NEG_INF]
        if len(c):
            t_in = max(t_in, float(c.max()))
    return t_in, t_out
