"""Incremental static timing analysis: a live view over the array engine.

The optimizer and the ECO engine edit a routed block in small steps --
resizing a master, swapping its Vth, re-routing the nets around a new
buffer, retargeting the I/O budgets -- and need an exact
:class:`STAResult` after each one.  :class:`IncrementalSTA` keeps the
netlist, routing view and timing context together and applies the
edits:

* :meth:`IncrementalSTA.swap_masters` swaps a batch of masters and
  refreshes only the touched nets' pin caps in place
  (:meth:`repro.route.estimate.RoutingResult.update_instances`) -- the
  routed geometry is reused, not re-routed;
* :meth:`IncrementalSTA.apply_routing_update` and
  :meth:`IncrementalSTA.patch_topology` take a re-route or netlist
  surgery the caller already brought into the routing view;
* :meth:`IncrementalSTA.retarget` swaps the I/O timing context.

After every edit the whole block is re-timed by :func:`sta_on_graph`,
the body of :func:`run_sta`, on a graph from
:func:`~repro.timing.graph.graph_for`, the one builder every timing
analysis uses.  There is one timing engine:
:meth:`IncrementalSTA.to_result` equals a from-scratch ``run_sta``
bit-for-bit, dict orders included, and an edit that leaves a
combinational cycle, a dangling endpoint or a stale routing raises the
same ``ValueError``.  A re-time costs one full array sweep whatever
the edit's size, so callers batch their edits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Tuple

from ..netlist.core import Netlist
from ..obs.metrics import metrics
from ..route.estimate import RoutingResult
from ..tech.cells import CellMaster
from ..tech.process import ProcessNode
from .graph import graph_for
from .sta import STAResult, TimingConfig, run_sta, sta_on_graph

INF = float("inf")


def _copied(result: STAResult) -> STAResult:
    return replace(result, arrival=dict(result.arrival),
                   required=dict(result.required),
                   slack=dict(result.slack))


class IncrementalSTA:
    """A live timing view, re-timed by the array engine after each edit."""

    def __init__(self, netlist: Netlist, routing: RoutingResult,
                 process: ProcessNode, config: TimingConfig) -> None:
        self.netlist = netlist
        self.routing = routing
        self.process = process
        self.config = config
        self._result = run_sta(netlist, routing, process, config)
        metrics().counter("sta.full_rebuilds").inc()

    @classmethod
    def from_snapshot(cls, netlist: Netlist, routing: RoutingResult,
                      process: ProcessNode, config: TimingConfig,
                      snapshot: STAResult) -> "IncrementalSTA":
        """Adopt a finished design's STA instead of re-running it.

        ``snapshot`` must be the exact :func:`run_sta` result for
        ``(netlist, routing, config)`` -- e.g. ``BlockDesign.sta``
        straight out of the flow.  ``sta.full_rebuilds`` stays
        untouched, which is what lets a derived ECO scenario reuse the
        base design's timing work wholesale.
        """
        view = cls.__new__(cls)
        view.netlist = netlist
        view.routing = routing
        view.process = process
        view.config = config
        view._result = _copied(snapshot)
        return view

    def _retime(self) -> None:
        self._result = sta_on_graph(graph_for(self.netlist, self.routing),
                                    self.netlist, self.process,
                                    self.config)

    # -- ECO edits -----------------------------------------------------

    def swap_masters(self,
                     moves: Sequence[Tuple[int, CellMaster]]) -> int:
        """Apply a batch of master changes, then re-time once.

        Returns the number of moves actually applied (no-ops skipped).
        """
        applied = []
        for iid, master in moves:
            if self.netlist.instances[iid].master is master:
                continue
            self.netlist.replace_master(iid, master)
            applied.append(iid)
        if applied:
            self.routing.update_instances(self.netlist, applied)
            self._retime()
        return len(applied)

    def apply_routing_update(self) -> None:
        """Re-time after the caller re-extracted or re-routed nets.

        Call after mutating the routing view directly, e.g. through
        :meth:`RoutingResult.update_instances` or
        :meth:`RoutingResult.refresh_nets`.
        """
        self._retime()

    def patch_topology(self) -> None:
        """Re-time after netlist surgery (buffer insertion or removal).

        Call once the routing view is current for every net the surgery
        added, removed or rewired.
        """
        metrics().counter("sta.topology_patches").inc()
        self._retime()

    def retarget(self, config: TimingConfig) -> None:
        """Swap the I/O timing context (neighboring-scenario ECO)."""
        self.config = config
        self._retime()

    def try_swap(self, inst_id: int, master: CellMaster,
                 min_slack_ps: float) -> bool:
        """Apply one swap; keep it only if true post-move slack holds.

        Every node whose arrival or required time moved (plus the
        swapped cell itself) must keep at least ``min_slack_ps`` of
        slack, or the move is reverted and the prior result restored.
        """
        old = self.netlist.instances[inst_id].master
        if old is master:
            return False
        before = self._result
        self.netlist.replace_master(inst_id, master)
        self.routing.update_instances(self.netlist, [inst_id])
        self._retime()
        after = self._result
        worst = min((s for iid, s in after.slack.items()
                     if iid == inst_id
                     or after.arrival[iid] != before.arrival.get(iid)
                     or after.required[iid] != before.required.get(iid)),
                    default=INF)
        if worst < min_slack_ps:
            self.netlist.replace_master(inst_id, old)
            self.routing.update_instances(self.netlist, [inst_id])
            self._result = before
            return False
        return True

    def to_result(self) -> STAResult:
        """A copy of the current result, frozen against later edits."""
        return _copied(self._result)
