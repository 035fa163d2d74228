"""Block-level static timing analysis.

A first-order STA engine over the generated netlists: cell delays from
the library's linear delay model (intrinsic + drive resistance x load),
wire delays from per-sink Elmore estimates (including TSV / F2F via RC
for tier-crossing paths), and the standard forward arrival / backward
required propagation over the combinational DAG.

Paths are launched by flop outputs, macro outputs and input ports, and
captured at flop D pins, macro inputs and output ports.  Port *external
delays* model the chip-level context the paper derives with PrimeTime
(Section 2.2): the portion of the clock period consumed by inter-block
wiring outside this block.  Relaxing those budgets is precisely how 3D
stacking turns shorter chip-level wires into block-internal slack -- the
slack the power optimizer then converts into smaller and higher-Vth cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

import numpy as np

from ..netlist.core import Netlist
from ..route.estimate import RoutingResult
from ..tech.process import ProcessNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import TimingGraph

#: setup time assumed at flop D pins (ps)
SETUP_PS = 30.0
#: setup time assumed at macro input pins (ps)
MACRO_SETUP_PS = 60.0
#: hold time assumed at capturing pins (ps)
HOLD_PS = 15.0

_NEG_INF = float("-inf")
_INF = float("inf")


@dataclass
class TimingConfig:
    """STA context for one block."""

    clock_domain: str
    #: per-port external delay (ps); defaults to ``default_io_delay_ps``
    io_delays: Dict[str, float] = field(default_factory=dict)
    default_io_delay_ps: float = 0.0

    def io_delay(self, port_name: str) -> float:
        return self.io_delays.get(port_name, self.default_io_delay_ps)


@dataclass
class STAResult:
    """Slacks and arrivals after one STA run."""

    period_ps: float
    arrival: Dict[int, float]
    required: Dict[int, float]
    slack: Dict[int, float]
    wns_ps: float
    tns_ps: float

    def slack_of(self, inst_id: int) -> float:
        """Slack at an instance's output node (+inf if off any path)."""
        return self.slack.get(inst_id, float("inf"))

    @property
    def met(self) -> bool:
        return self.wns_ps >= 0.0


def run_sta(netlist: Netlist, routing: RoutingResult, process: ProcessNode,
            config: TimingConfig) -> STAResult:
    """Run forward/backward STA on a routed block.

    Returns per-instance-output slacks.  Instances not on any constrained
    path keep infinite slack.  Runs on a levelized
    :class:`~repro.timing.graph.TimingGraph` built for this call by
    :func:`~repro.timing.graph.graph_for`; the result -- values and
    dict orders -- is bit-identical to the per-node Kahn walk kept as a
    test oracle.

    Raises:
        ValueError: on a combinational cycle, a dangling endpoint, or a
            routing whose sinks no longer match the netlist.
    """
    from .graph import graph_for

    return sta_on_graph(graph_for(netlist, routing), netlist, process,
                        config)


def sta_on_graph(g: TimingGraph, netlist: Netlist, process: ProcessNode,
                 config: TimingConfig) -> STAResult:
    """:func:`run_sta`'s sweep on an already built timing graph.

    :class:`~repro.timing.incremental.IncrementalSTA` re-times through
    this.

    Raises:
        ValueError: if ``g`` holds a routing whose sinks no longer match
            the netlist.
    """
    from ..obs.metrics import metrics

    g.reject_stale()
    metrics().counter("sta.vector_passes").inc()

    period = process.clock_period_ps(config.clock_domain)
    V = g.V

    # input-port arrivals onto their combinational fanout
    comb_in = np.full(V, _NEG_INF)
    if len(g.pf_dst):
        a0 = np.asarray([config.io_delay(nm) for nm in g.pf_names])
        np.maximum.at(comb_in, g.pf_dst, a0[g.pf_name_idx] + g.pf_wd)

    # level-0 arrivals: flop/macro launches plus zero-pred comb cells
    arr = np.full(V, _NEG_INF)
    w0 = g.waves[0] if g.waves else np.empty(0, np.int64)
    arr[w0] = g.delay[w0]
    zp = g.seed_comb
    base = comb_in[zp].copy()
    base[base == _NEG_INF] = 0.0
    arr[zp] = base + g.delay[zp]

    arr = g.forward_max(comb_in, arr)

    # terminal requirements -> req seed (order-free min)
    req = np.full(V, _INF)
    if len(g.t_i_drv):
        r_i = np.where(g.t_i_macro, period - MACRO_SETUP_PS,
                       period - SETUP_PS)
        np.minimum.at(req, g.t_i_drv, r_i - g.t_i_wd)
    if len(g.t_p_drv):
        ports = netlist.ports
        keep = np.asarray([not ports[nm].false_path
                           for nm in g.tp_names])[g.t_p_name_idx]
        if bool(keep.any()):
            r_p = np.asarray([period - config.io_delay(nm)
                              for nm in g.tp_names])[g.t_p_name_idx]
            np.minimum.at(req, g.t_p_drv[keep],
                          (r_p - g.t_p_wd)[keep])
    req = g.backward_min(req)

    # -- emission in the scalar engine's dict orders -------------------
    arrival: Dict[int, float] = {}
    a_list = arr[g.canon].tolist()
    for iid, a in zip(g.canon_iids, a_list):
        arrival[iid] = a

    required: Dict[int, float] = {}
    ordb = np.lexsort((np.arange(V, dtype=np.int64), -arr))
    iids_b = g.iids[ordb].tolist()
    req_b = req[ordb].tolist()
    for iid, r in zip(iids_b, req_b):
        required[iid] = r

    slack: Dict[int, float] = {}
    wns = _INF
    tns = 0.0
    r_canon = req[g.canon].tolist()
    for iid, a, r in zip(g.canon_iids, a_list, r_canon):
        if r >= _INF:
            continue
        s = r - a
        slack[iid] = s
        if s < wns:
            wns = s
        if s < 0:
            tns += s
    if wns == _INF:
        wns = 0.0
    return STAResult(period_ps=period, arrival=arrival, required=required,
                     slack=slack, wns_ps=wns, tns_ps=tns)
