"""Hold-time (min-delay) analysis.

Setup checks bound the *slowest* path per cycle; hold checks bound the
*fastest*: a capturing flop must not see the next launch's data before
its hold window closes, so every launch-to-capture path must be slower
than ``hold time + clock skew``.  The sign-off engine here propagates
*minimum* arrivals through the combinational DAG (the mirror image of
:func:`repro.timing.sta.run_sta`) and checks each capture against the
hold requirement, taking the clock tree's measured skew
(:class:`repro.cts.tree.CTSResult`) as the uncertainty.

Zero-stage paths (flop feeding flop directly) are the classic hold risk;
3D designs add a twist the paper's future work hints at: tier-crossing
launch/capture pairs see the inter-tier clock skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..cts.tree import CTSResult
from ..netlist.core import Netlist
from ..obs.metrics import metrics
from ..route.estimate import RoutingResult
from ..tech.process import ProcessNode
from .graph import graph_for
from .sta import HOLD_PS, TimingConfig

_INF = float("inf")


@dataclass
class HoldResult:
    """Min-delay slacks at capturing endpoints."""

    #: capture instance id -> hold slack (ps)
    slack: Dict[int, float]
    whs_ps: float
    violations: int

    @property
    def met(self) -> bool:
        return self.whs_ps >= 0.0


def run_hold_analysis(netlist: Netlist, routing: RoutingResult,
                      process: ProcessNode, config: TimingConfig,
                      cts: Optional[CTSResult] = None,
                      hold_ps: float = HOLD_PS) -> HoldResult:
    """Check every capture against ``hold + skew`` with min-delay paths.

    A levelized min-arrival sweep over the cached
    :class:`~repro.timing.graph.TimingGraph`.

    Raises:
        ValueError: on a combinational cycle or a dangling endpoint.
    """
    g = graph_for(netlist, routing)
    metrics().counter("sta.vector_passes").inc()

    skew = cts.skew_ps if cts is not None else 0.0
    requirement = hold_ps + skew

    arr = np.full(g.V, _INF)
    w0 = g.waves[0] if g.waves else np.empty(0, np.int64)
    # macro -> intrinsic, flop / port-only comb -> delay(load): exactly
    # the per-node delay table
    arr[w0] = g.delay[w0]
    arr = g.forward_min(arr)

    hs = (arr[g.t_i_drv] + g.t_i_wd) - requirement
    slack: Dict[int, float] = {}
    whs = _INF
    perm = g.cap_perm
    caps = g.t_i_sink_raw[perm].tolist()
    hs_l = hs[perm].tolist()
    for cap_inst, h in zip(caps, hs_l):
        prev = slack.get(cap_inst, _INF)
        if h < prev:
            slack[cap_inst] = h
        if h < whs:
            whs = h
    violations = sum(1 for v in slack.values() if v < 0)
    if whs == _INF:
        whs = 0.0
    return HoldResult(slack=slack, whs_ps=whs, violations=violations)


def fix_hold(netlist: Netlist, routing: RoutingResult,
             hold: HoldResult, process: ProcessNode,
             requirement_ps: Optional[float] = None) -> int:
    """Pad violating captures with delay buffers on their D inputs.

    The standard hold fix: insert a small buffer in front of each
    violating capture pin, adding its cell delay to the min path.
    Returns the number of buffers added; re-route and re-check after.
    """
    from ..netlist.core import PinRef
    buf = process.library.master("BUF_X1")
    added = 0
    for cap_inst, hs in sorted(hold.slack.items()):
        if hs >= 0:
            continue
        inst = netlist.instances.get(cap_inst)
        if inst is None:
            continue
        # find the capture pin's net and splice a buffer before it
        for net in list(netlist.nets_of(cap_inst)):
            if net.is_clock:
                continue
            for ref in list(net.sinks):
                if ref.inst != cap_inst:
                    continue
                pad = netlist.add_instance(
                    f"hold_{cap_inst}_{net.id}", buf,
                    x=inst.x, y=inst.y, die=inst.die,
                    cluster=inst.cluster)
                netlist.remove_sink(net.id, ref)
                netlist.add_sink(net.id, PinRef(inst=pad.id, pin=0))
                netlist.add_net(f"hold_n_{cap_inst}_{net.id}",
                                PinRef(inst=pad.id), [ref],
                                clock_domain=net.clock_domain)
                added += 1
                break
            break
    return added
