"""Repeater (buffer) insertion.

Two classic transforms, applied after placement exactly as Encounter's
pre-/post-CTS optimization would (paper Section 2.2):

* **long-wire buffering** -- nets whose route exceeds the optimal
  repeater spacing ``L_opt = sqrt(2 R_buf C_buf / (r c))`` get a chain of
  buffers along the driver-to-load direction, restoring linear (rather
  than quadratic) wire delay;
* **fanout buffering** -- nets whose capacitive load exceeds what the
  driver can reasonably drive get their sinks clustered geographically
  behind new buffers.

Buffer counts are a headline metric of the paper (Table 2: 3D cuts
buffers by ~16%; Fig. 2: folding the CCX cuts them by 62.5%), and they
emerge here from wirelength exactly as in the paper: shorter 3D wires
simply need fewer repeaters.

:func:`plan_net_buffering` decides one net; :func:`plan_buffers` runs
it over a live :class:`~repro.timing.incremental.IncrementalSTA`
view's nets, pre-filtered on the view's net arrays so only nets that
can trigger reach the Python planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..netlist.core import Net, Netlist, PinRef
from ..route.estimate import RoutedNet
from ..tech.cells import CellLibrary, CellMaster
from ..timing.incremental import IncrementalSTA


#: insert a chain when a sink path exceeds this multiple of L_opt
LENGTH_TRIGGER = 1.8
#: drive strength of the repeaters the optimizer and the ECO loop insert
BUFFER_DRIVE = 4
#: fanout-buffer when driver load exceeds this many fF
CAP_LIMIT_FF = 140.0
#: max sinks behind one fanout buffer
GROUP_SIZE = 12
#: cap on the buffers one :func:`plan_buffers` pass plans
MAX_NEW_BUFFERS_PER_PASS = 4000


def optimal_spacing_um(buffer_master: CellMaster, r_per_um: float,
                       c_per_um: float) -> float:
    """Classic optimal repeater spacing for the given wire parasitics."""
    denom = max(r_per_um * c_per_um, 1e-12)
    return math.sqrt(2.0 * buffer_master.drive_res_kohm *
                     buffer_master.input_cap_ff / denom)


def _chain_positions(p0: Tuple[float, float], p1: Tuple[float, float],
                     k: int) -> List[Tuple[float, float]]:
    """k points evenly spaced strictly between p0 and p1."""
    return [(p0[0] + (p1[0] - p0[0]) * (i + 1) / (k + 1),
             p0[1] + (p1[1] - p0[1]) * (i + 1) / (k + 1))
            for i in range(k)]


@dataclass
class ChainPlan:
    """Planned repeater chain between a driver and its load centroid."""

    net_id: int
    buf: CellMaster
    positions: List[Tuple[float, float]]
    die: int
    cluster: int

    @property
    def n_buffers(self) -> int:
        return len(self.positions)


@dataclass
class FanoutPlan:
    """Planned geographic sink split behind fanout buffers."""

    net_id: int
    buf: CellMaster
    #: sink groups (captured refs) and each group's centroid
    groups: List[List[PinRef]]
    centroids: List[Tuple[float, float]]
    die: int
    cluster: int

    @property
    def n_buffers(self) -> int:
        return len(self.groups)


@dataclass
class BufferApplyResult:
    """What one applied buffer plan did to the netlist."""

    added: int
    #: ids of the freshly created buffer instances, in creation order
    new_inst_ids: List[int]
    #: original + freshly created net ids whose topology changed
    touched_net_ids: List[int]


def plan_net_buffering(netlist: Netlist, routed: RoutedNet,
                       library: CellLibrary, drive: int = BUFFER_DRIVE):
    """Plan the buffering transform for one routed net (or ``None``).

    Pure decision logic -- reads the routed snapshot and the live net
    but mutates nothing, so a planned move can be inspected, costed or
    dropped before :func:`apply_buffer_plan` commits it.  ``drive`` is
    the strength of the buffers the plan inserts.
    """
    buf = library.buffer(drive)
    net = netlist.nets.get(routed.net_id)
    if net is None or net.is_clock:
        return None
    spacing = optimal_spacing_um(buf, routed.r_per_um, routed.c_per_um)
    longest = max((s.path_len_um for s in routed.sinks), default=0.0)
    if longest > LENGTH_TRIGGER * spacing:
        dx, dy, die = _driver_position(netlist, net)
        cx, cy = _sink_centroid(netlist, net)
        dist = abs(cx - dx) + abs(cy - dy)
        k = min(8, int(dist / max(spacing, 1.0)))
        if k < 1:
            return None
        return ChainPlan(net_id=net.id, buf=buf,
                         positions=_chain_positions((dx, dy), (cx, cy), k),
                         die=die, cluster=_driver_cluster(netlist, net))
    if (routed.total_cap_ff > CAP_LIMIT_FF
            and len(net.sinks) > GROUP_SIZE
            and routed.via is None):
        sinks = list(net.sinks)
        sinks.sort(key=lambda r: netlist.endpoint_position(r)[:2])
        groups = [sinks[i:i + GROUP_SIZE]
                  for i in range(0, len(sinks), GROUP_SIZE)]
        if len(groups) < 2:
            return None
        centroids = [
            (sum(netlist.endpoint_position(r)[0] for r in g) / len(g),
             sum(netlist.endpoint_position(r)[1] for r in g) / len(g))
            for g in groups
        ]
        return FanoutPlan(net_id=net.id, buf=buf, groups=groups,
                          centroids=centroids,
                          die=_driver_position(netlist, net)[2],
                          cluster=_driver_cluster(netlist, net))
    return None


def plan_buffers(netlist: Netlist, view: IncrementalSTA,
                 library: CellLibrary) -> List:
    """Plan one buffering pass over the view's routed nets.

    The plan/apply counterpart of the sizing and dual-Vth passes:
    decisions are taken against the current routing in routing order
    (which is netlist order: ids ascend, and a re-route only appends
    fresh, higher-id nets), capped at :data:`MAX_NEW_BUFFERS_PER_PASS`,
    and committed separately by :func:`apply_buffer_plan`.

    A net can only trigger when its longest sink path exceeds the
    chain trigger or its total cap exceeds the fanout limit; the
    view's arrays evaluate both with :func:`plan_net_buffering`'s own
    float expressions, so the pre-filter is a superset of the exact
    test and :func:`plan_net_buffering` runs on the survivors only.
    """
    buf = library.buffer(BUFFER_DRIVE)
    arrays = view.arrays
    # optimal_spacing_um, vectorized with the same operand order
    spacing = np.sqrt(2.0 * buf.drive_res_kohm * buf.input_cap_ff /
                      np.maximum(arrays.r_per * arrays.c_per, 1e-12))
    hit = (arrays.longest > LENGTH_TRIGGER * spacing) | \
        (arrays.total_cap > CAP_LIMIT_FF)
    nets = view.routing.nets
    plans: List = []
    planned = 0
    for nid in arrays.net_ids[hit].tolist():
        if planned >= MAX_NEW_BUFFERS_PER_PASS:
            break
        move = plan_net_buffering(netlist, nets[nid], library)
        if move is not None:
            plans.append(move)
            planned += move.n_buffers
    return plans


def apply_buffer_plan(netlist: Netlist, plans: List) -> BufferApplyResult:
    """Commit planned buffering transforms, in plan order.

    Chain plans rewire the original net to be driven by the last buffer
    of the chain (preserving the net id, so 3D via bindings stay
    valid); fanout plans move the original net's sinks behind new leaf
    nets.  Bring the routing view current afterwards: re-route the
    result's ``touched_net_ids`` (``RoutingResult.refresh_nets``, as
    :meth:`repro.eco.session.EcoSession.commit_buffers` does) or the
    whole block.
    """
    added = 0
    new_inst_ids: List[int] = []
    touched: List[int] = []
    for plan in plans:
        net = netlist.nets[plan.net_id]
        touched.append(net.id)
        if isinstance(plan, ChainPlan):
            prev_driver = net.driver
            for i, (bx, by) in enumerate(plan.positions):
                inst = netlist.add_instance(
                    f"rep_{net.name}_{i}", plan.buf, x=bx, y=by,
                    die=plan.die, cluster=plan.cluster)
                new = netlist.add_net(f"{net.name}_rep{i}", prev_driver,
                                      [PinRef(inst=inst.id, pin=0)],
                                      clock_domain=net.clock_domain)
                new_inst_ids.append(inst.id)
                touched.append(new.id)
                prev_driver = PinRef(inst=inst.id)
            # the original net is now driven by the last buffer
            netlist.rewire_driver(net.id, prev_driver)
            added += plan.n_buffers
        else:
            new_sinks: List[PinRef] = []
            for g, (group, (gx, gy)) in enumerate(
                    zip(plan.groups, plan.centroids)):
                inst = netlist.add_instance(
                    f"fbuf_{net.name}_{g}", plan.buf, x=gx, y=gy,
                    die=plan.die, cluster=plan.cluster)
                new = netlist.add_net(f"{net.name}_fan{g}",
                                      PinRef(inst=inst.id), group,
                                      clock_domain=net.clock_domain)
                new_inst_ids.append(inst.id)
                touched.append(new.id)
                new_sinks.append(PinRef(inst=inst.id, pin=0))
            # rewire the original net to drive only the group buffers
            for ref in list(net.sinks):
                netlist.remove_sink(net.id, ref)
            for ref in new_sinks:
                netlist.add_sink(net.id, ref)
            added += plan.n_buffers
    return BufferApplyResult(added=added, new_inst_ids=new_inst_ids,
                             touched_net_ids=touched)


def _driver_position(netlist: Netlist, net: Net) -> Tuple[float, float, int]:
    return netlist.endpoint_position(net.driver)


def _sink_centroid(netlist: Netlist, net: Net) -> Tuple[float, float]:
    xs, ys = [], []
    for ref in net.sinks:
        x, y, _ = netlist.endpoint_position(ref)
        xs.append(x)
        ys.append(y)
    if not xs:
        return 0.0, 0.0
    return sum(xs) / len(xs), sum(ys) / len(ys)


def _driver_cluster(netlist: Netlist, net: Net) -> int:
    if net.driver.is_port:
        return 0
    return netlist.instances[net.driver.inst].cluster
