"""Incremental static timing analysis: a live view over the array engine.

The optimizer and the ECO engine edit a routed block in small steps --
resizing a master, swapping its Vth, re-routing the nets around a new
buffer, retargeting the I/O budgets -- and need an exact
:class:`STAResult` after each one.  :class:`IncrementalSTA` keeps the
netlist, routing view and timing context together with one
:class:`~repro.route.estimate.NetArrays` and one
:class:`~repro.timing.graph.TimingGraph` for its whole lifetime, and
applies the edits:

* :meth:`IncrementalSTA.swap_masters` swaps a batch of masters and
  refreshes the pin caps of sinks on the swapped cells in place
  (:meth:`repro.route.estimate.RoutingResult.update_instances`) -- the
  routed geometry is reused, not re-routed.  A swap changes no graph
  structure, so the view then patches the touched nets' rows of its
  arrays (:meth:`~repro.route.estimate.NetArrays.refresh_pin_caps`)
  and the graph's value arrays
  (:meth:`~repro.timing.graph.TimingGraph.patch_masters`) and runs one
  sweep;
* :meth:`IncrementalSTA.apply_routing_update` and
  :meth:`IncrementalSTA.patch_topology` take a re-route or netlist
  surgery the caller already brought into the routing view (the ECO
  session re-routes the touched nets with
  :meth:`~repro.route.estimate.RoutingResult.refresh_nets`);
* :meth:`IncrementalSTA.retarget` swaps the I/O timing context.

The last three rebuild the arrays and the graph with
:func:`~repro.timing.graph.graph_for`'s gather and levelization, the
one builder every timing analysis uses.  Either way the block is
re-timed by the body of :func:`run_sta`, so there is one timing
engine: :meth:`IncrementalSTA.to_result` equals a from-scratch
``run_sta`` bit-for-bit, dict orders included, and an edit that
leaves a combinational cycle, a dangling endpoint or a stale routing
raises the same ``ValueError``.  The view trusts that every netlist
and routing edit reaches it through these methods.  A re-time costs
one full array sweep whatever the edit's size, so callers batch their
edits.

Each re-time runs in an ``sta.retime`` span whose ``kind`` is
``build`` (the constructor, or the first read of a view adopted
through :meth:`~IncrementalSTA.from_snapshot`), ``swap``, ``topology``,
``routing`` or ``retarget``; ``sta.graph_builds`` counts the graphs
built.  The arrays and the graph die with the view: nothing is cached
on the routing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..obs import trace
from ..obs.metrics import metrics
from ..route.estimate import NetArrays, RoutingResult, gather_net_arrays
from ..tech.cells import CellMaster
from ..tech.process import ProcessNode
from .graph import TimingGraph
from .sta import STAResult, TimingConfig, sta_on_graph

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
        self._arrays: Optional[NetArrays] = None
        self._graph: Optional[TimingGraph] = None
        self._rebuild("build")

    @classmethod
    def from_snapshot(cls, netlist: Netlist, routing: RoutingResult,
                      process: ProcessNode, config: TimingConfig,
                      snapshot: STAResult) -> "IncrementalSTA":
        """Adopt a finished design's STA instead of re-running it.

        ``snapshot`` must be the exact :func:`run_sta` result for
        ``(netlist, routing, config)`` -- e.g. ``BlockDesign.sta``
        straight out of the flow.  The arrays and the graph are built
        on the first edit or array read, so a derived ECO scenario
        that only reads the result pays for no build.
        """
        view = cls.__new__(cls)
        view.netlist = netlist
        view.routing = routing
        view.process = process
        view.config = config
        view._arrays = None
        view._graph = None
        view._result = _copied(snapshot)
        return view

    # -- re-timing -----------------------------------------------------

    def _sweep(self, g: TimingGraph) -> None:
        self._result = sta_on_graph(g, self.netlist, self.process,
                                    self.config)

    def _rebuild(self, kind: str) -> None:
        """Gather, levelize and sweep from scratch.

        The view holds no graph while this runs, so an edit that
        raises (a cycle, a dangling endpoint, a stale routing) leaves
        the next read or edit to rebuild and raise again.
        """
        with trace.span("sta.retime", kind=kind):
            self._arrays = self._graph = None
            arrays = gather_net_arrays(self.netlist, self.routing)
            g = TimingGraph(self.netlist, arrays)
            self._sweep(g)
            self._arrays, self._graph = arrays, g

    def _built(self) -> TimingGraph:
        if self._graph is None:
            self._rebuild("build")
        return self._graph

    def _patch_swaps(self, inst_ids: List[int], net_ids: List[int]) -> None:
        """Re-time after master swaps: patch arrays and graph, sweep.

        ``net_ids`` are the nets ``update_instances`` re-extracted.  A
        view adopted from a snapshot has no graph yet, and a swap the
        graph cannot patch (see :meth:`TimingGraph.swap_nodes`) changes
        structure: both rebuild.
        """
        g = self._graph
        insts = self.netlist.instances
        masters = [insts[i].master for i in inst_ids]
        nodes = None if g is None else g.swap_nodes(inst_ids, masters)
        if nodes is None:
            self._rebuild("swap")
            return
        with trace.span("sta.retime", kind="swap"):
            rows = self._arrays.refresh_pin_caps(self.routing, net_ids)
            g.patch_masters(self._arrays, nodes, masters,
                            rewired=len(rows) > 0)
            self._sweep(g)

    # -- array reads (the power planners) ------------------------------

    @property
    def graph(self) -> TimingGraph:
        """The live timing graph (built on first use after
        :meth:`from_snapshot`)."""
        return self._built()

    @property
    def arrays(self) -> NetArrays:
        """The live net arrays the graph was built from."""
        self._built()
        return self._arrays

    def slacks(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(graph nodes, slacks)`` of every constrained node, in
        :attr:`STAResult.slack` order: the current result's slacks as
        arrays, indexed like the graph."""
        g = self.graph
        slack = self._result.slack
        n = len(slack)
        iids = np.fromiter(slack.keys(), dtype=np.int64, count=n)
        return (np.searchsorted(g.iids, iids),
                np.fromiter(slack.values(), dtype=np.float64, count=n))

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
            nets = self.routing.update_instances(self.netlist, applied)
            self._patch_swaps(applied, nets)
        return len(applied)

    def apply_routing_update(self) -> None:
        """Re-time after the caller re-extracted or re-routed nets.

        Call after mutating the routing view directly, e.g. through
        :meth:`RoutingResult.refresh_nets` after a displacement.
        """
        self._rebuild("routing")

    def patch_topology(self) -> None:
        """Re-time after netlist surgery (buffer insertion or removal).

        Call once the routing view is current for every net the surgery
        added, removed or rewired.
        """
        metrics().counter("sta.topology_patches").inc()
        self._rebuild("topology")

    def retarget(self, config: TimingConfig) -> None:
        """Swap the I/O timing context (neighboring-scenario ECO)."""
        self.config = config
        self._rebuild("retarget")

    def try_swap(self, inst_id: int, master: CellMaster,
                 min_slack_ps: float) -> bool:
        """Apply one swap; keep it only if true post-move slack holds.

        Every node whose arrival or required time moved (plus the
        swapped cell itself) must keep at least ``min_slack_ps`` of
        slack, or the move is reverted through the same patch and the
        prior result restored.
        """
        old = self.netlist.instances[inst_id].master
        if old is master:
            return False
        before = self._result
        self.netlist.replace_master(inst_id, master)
        nets = self.routing.update_instances(self.netlist, [inst_id])
        self._patch_swaps([inst_id], nets)
        after = self._result
        worst = min((s for iid, s in after.slack.items()
                     if iid == inst_id
                     or after.arrival[iid] != before.arrival.get(iid)
                     or after.required[iid] != before.required.get(iid)),
                    default=INF)
        if worst < min_slack_ps:
            self.netlist.replace_master(inst_id, old)
            nets = self.routing.update_instances(self.netlist, [inst_id])
            self._patch_swaps([inst_id], nets)
            self._result = before
            return False
        return True

    def to_result(self) -> STAResult:
        """A copy of the current result, frozen against later edits."""
        return _copied(self._result)
