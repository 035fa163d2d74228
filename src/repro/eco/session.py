"""The live-edit session: incremental edits on a routed block.

A session owns a netlist + routing + timing + clock-tree view of one
routed block and edits them in place.  It is the one live-edit core
of the code base, with two kinds of caller:

* the staged optimizer (:func:`repro.opt.flow.optimize_block`) opens a
  session on the block it just routed and commits each planned chunk
  through :meth:`EcoSession.swap_masters` and
  :meth:`EcoSession.commit_buffers`;
* the ECO engine (:mod:`repro.eco.driver`) opens one on a finished
  design (:meth:`EcoSession.from_design`) and applies typed
  :mod:`repro.eco.moves` batches through :meth:`EcoSession.apply`.

Every edit is incremental.  Master swaps refresh the swapped cells'
pin caps in place and patch the arrays of one live
:class:`repro.timing.incremental.IncrementalSTA` view (adopted from the
design's sign-off STA when one is given).  Structural edits -- buffer
insertion, buffer removal, displacement -- re-route only the nets they
touched (through the block's
:class:`repro.route.estimate.RouteContext`) and re-time the view once.
The clock tree replays untouched bisection subtrees from the
:class:`repro.cts.incremental.IncrementalCTS` memo.
:attr:`EcoSession.view` is the current timing view, and the power
planners (:mod:`repro.opt.sizing`, :mod:`repro.opt.dualvth`,
:mod:`repro.opt.buffering`) read its arrays.

The parity harnesses (``tests/test_eco_properties.py`` for ECO
batches, ``tests/test_opt_flow.py`` for the optimizer loop,
``tests/test_eco_engine.py`` for the flow stage and scenario
derivation) hold every session byte-equal to a full-recompute oracle,
``tests/oracles/eco_full.py``, which re-routes the whole block after
every edit and times every read on a view built from scratch.

:meth:`EcoSession.apply` validates a batch up front against the
pre-batch state and mutates nothing when validation rejects a move
(:class:`EcoError`), so a failed ``apply`` leaves the session
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cts.incremental import IncrementalCTS
from ..cts.tree import CTSResult
from ..netlist.core import Instance, Net, Netlist, PinRef
from ..obs.metrics import metrics
from ..opt.buffering import apply_buffer_plan, plan_net_buffering
from ..place.grid import Rect
from ..place.legalize import legalize_new_cells, macro_rects_of
from ..route.estimate import RoutedNet, RouteContext, RoutingResult
from ..tech.cells import CellMaster
from ..tech.process import ProcessNode
from ..timing.incremental import IncrementalSTA
from ..timing.sta import STAResult, TimingConfig
from .moves import (BufferInsert, BufferRemove, Displace, EcoError,
                    EcoMove, Resize, VthSwap)


@dataclass
class EcoApplyReport:
    """What one :meth:`EcoSession.apply` batch did."""

    requested: int
    applied: int
    swaps: int = 0
    buffers_added: int = 0
    buffers_removed: int = 0
    displaced: int = 0


class EcoSession:
    """Edits a routed block in place, incrementally.

    Args:
        netlist: the block netlist (mutated in place -- clone first
            for what-if work, see :meth:`from_design`).
        routing: the routing view to keep current (mutated in place).
        process: technology node.
        timing: clock domain + I/O budgets to time against.
        route_ctx: the per-net route context ``routing`` came from.
        outline: block outline; when given, inserted buffers and
            ``Displace(legalize=True)`` cells are row-legalized on
            their own die, around that die's cells and macros.
        sta_snapshot: the design's sign-off :class:`STAResult`; when
            given, the timing view adopts it instead of re-running
            STA.  Without one the session builds its view from scratch
            when it opens, which ``stats["sta_full_rebuilds"]`` and the
            ``sta.full_rebuilds`` metric count.
    """

    def __init__(self, netlist: Netlist, routing: RoutingResult,
                 process: ProcessNode, timing: TimingConfig,
                 route_ctx: RouteContext, *,
                 outline: Optional[Rect] = None,
                 sta_snapshot: Optional[STAResult] = None) -> None:
        self.netlist = netlist
        self.routing = routing
        self.process = process
        self.timing = timing
        self.ctx = route_ctx
        self.outline = outline
        #: deterministic session-local work tallies (the process-global
        #: metrics registry is disabled when tracing is off, so reuse
        #: assertions read these instead); ``legalize_failures`` joins
        #: them at the first cell the legalizer could not place
        self.stats: Dict[str, int] = {
            "moves_requested": 0, "moves_applied": 0, "swaps": 0,
            "buffers_added": 0, "buffers_removed": 0, "displaced": 0,
            "nets_rerouted": 0, "sta_full_rebuilds": 0,
        }
        if sta_snapshot is not None:
            self._view = IncrementalSTA.from_snapshot(
                netlist, routing, process, timing, sta_snapshot)
        else:
            self._view = IncrementalSTA(netlist, routing, process, timing)
            self.stats["sta_full_rebuilds"] += 1
            metrics().counter("sta.full_rebuilds").inc()
        self.cts = IncrementalCTS(netlist, process)
        metrics().counter("eco.sessions").inc()

    @classmethod
    def from_design(cls, design, process: ProcessNode, *,
                    timing: Optional[TimingConfig] = None,
                    clone: bool = True) -> "EcoSession":
        """Open a session on a finished :class:`BlockDesign`.

        ``clone=True`` (default) deep-copies the netlist and routing so
        the base design stays untouched -- the what-if / neighboring
        scenario mode.  ``clone=False`` edits the design's own state.

        The design must carry a route context (``design.route_ctx``),
        which the flow attaches whenever the sign-off routing came from
        the estimator (``detailed_route=False``).
        """
        ctx = getattr(design, "route_ctx", None)
        if ctx is None:
            raise EcoError(
                f"design {design.name!r} has no route context -- ECO "
                "sessions need the estimator's routing (re-run the "
                "flow with detailed_route=False)")
        if timing is None:
            from ..designgen.t2 import block_type_by_name
            try:
                bt = block_type_by_name(design.name)
            except KeyError as exc:
                raise EcoError(
                    f"unknown block type {design.name!r}; pass an "
                    "explicit TimingConfig") from exc
            timing = TimingConfig(
                clock_domain=bt.logic.clock_domain,
                default_io_delay_ps=design.config.io_budget_ps)
        netlist = design.netlist.clone() if clone else design.netlist
        routing = design.routing.copy() if clone else design.routing
        return cls(netlist, routing, process, timing, ctx,
                   outline=design.outline,
                   sta_snapshot=design.sta)

    # -- timing / clock-tree views ------------------------------------

    @property
    def view(self) -> IncrementalSTA:
        """The live timing view of the current state: opened (built or
        adopted) with the session and kept for its lifetime."""
        return self._view

    def sta(self) -> STAResult:
        """A frozen STA snapshot of the current state."""
        return self.view.to_result()

    def cts_result(self) -> CTSResult:
        """The current clock tree (memoized subtree rebuilds)."""
        return self.cts.result()

    def retarget(self, timing: TimingConfig) -> None:
        """Swap the I/O timing context (neighboring-scenario derive)."""
        self.timing = timing
        self._view.retarget(timing)

    # -- edit primitives ----------------------------------------------

    def swap_masters(self, moves: Sequence[Tuple[int, CellMaster]]) -> int:
        """Swap a batch of ``(instance id, master)`` pairs, re-time once.

        No-op swaps are skipped; returns the number applied.  An empty
        batch returns 0 without touching the timing view.
        """
        if not moves:
            return 0
        n = self._view.swap_masters(moves)
        if n:
            self.stats["swaps"] += n
            self.cts.invalidate()
        return n

    def commit_buffers(self, plans: List) -> int:
        """Commit planned buffering transforms; returns buffers added.

        ``plans`` come from :func:`repro.opt.buffering.plan_buffers` or
        :func:`~repro.opt.buffering.plan_net_buffering`.  The new
        buffers are legalized when the session has an outline, then
        only the nets around them are re-routed and the timing view
        rebuilds once.
        """
        res = apply_buffer_plan(self.netlist, plans)
        if not res.added:
            return 0
        self._legalize([self.netlist.instances[i]
                        for i in res.new_inst_ids])
        self._resync(res.touched_net_ids, surgery=True)
        self.stats["buffers_added"] += res.added
        self.cts.invalidate()
        return res.added

    # -- move application ---------------------------------------------

    def apply(self, moves: Iterable[EcoMove]) -> EcoApplyReport:
        """Validate then apply one move batch.

        Validation runs against the pre-batch state; an invalid move
        raises :class:`EcoError` before anything mutates.  Consecutive
        master swaps (resize / Vth) are flushed as one re-time batch;
        structural moves apply in order, each bringing routing, timing
        and the clock tree current before the next decision point.
        """
        batch = list(moves)
        self._validate(batch)
        report = EcoApplyReport(requested=len(batch), applied=0)
        swaps: List[EcoMove] = []
        for move in batch:
            if isinstance(move, (Resize, VthSwap)):
                swaps.append(move)
                continue
            self._flush_swaps(swaps, report)
            if isinstance(move, BufferInsert):
                added = self._apply_buffer_insert(move)
                report.buffers_added += added
                report.applied += 1 if added else 0
            elif isinstance(move, BufferRemove):
                report.buffers_removed += self._apply_buffer_remove(move)
                report.applied += 1
            elif isinstance(move, Displace):
                report.displaced += self._apply_displace(move)
                report.applied += 1
        self._flush_swaps(swaps, report)
        self.stats["moves_requested"] += report.requested
        self.stats["moves_applied"] += report.applied
        self.stats["buffers_removed"] += report.buffers_removed
        self.stats["displaced"] += report.displaced
        metrics().counter("eco.moves_applied").inc(report.applied)
        return report

    # -- validation ---------------------------------------------------

    def _validate(self, batch: Sequence[EcoMove]) -> None:
        lib = self.process.library
        pending: Dict[int, CellMaster] = {}
        for move in batch:
            if isinstance(move, (Resize, VthSwap)):
                inst = self.netlist.instances.get(move.inst_id)
                if inst is None:
                    raise EcoError(f"{move}: no such instance")
                if inst.is_macro:
                    raise EcoError(f"{move}: cannot swap a macro")
                base = pending.get(move.inst_id, inst.master)
                try:
                    if isinstance(move, Resize):
                        pending[move.inst_id] = lib.variant(
                            base, drive=move.drive)
                    else:
                        pending[move.inst_id] = lib.variant(
                            base, vth=move.vth)
                except KeyError as exc:
                    raise EcoError(
                        f"{move}: no library variant") from exc
            elif isinstance(move, BufferInsert):
                net = self.netlist.nets.get(move.net_id)
                if net is None:
                    raise EcoError(f"{move}: no such net")
                if net.is_clock:
                    raise EcoError(f"{move}: cannot buffer a clock net")
                if move.net_id not in self.routing.nets:
                    raise EcoError(f"{move}: net is not routed")
                try:
                    lib.buffer(move.drive)
                except KeyError as exc:
                    raise EcoError(
                        f"{move}: no drive-{move.drive} buffer") from exc
            elif isinstance(move, BufferRemove):
                self._check_buffer_remove(move)
            elif isinstance(move, Displace):
                inst = self.netlist.instances.get(move.inst_id)
                if inst is None:
                    raise EcoError(f"{move}: no such instance")
                if inst.is_macro or inst.fixed:
                    raise EcoError(
                        f"{move}: cannot displace a macro/fixed cell")
                if move.legalize and self.outline is None:
                    raise EcoError(
                        f"{move}: session has no outline to legalize in")
            else:
                raise EcoError(f"unknown ECO move: {move!r}")

    def _check_buffer_remove(self, move: BufferRemove) -> None:
        inst = self.netlist.instances.get(move.inst_id)
        if inst is None:
            raise EcoError(f"{move}: no such instance")
        if not inst.is_buffer:
            raise EcoError(f"{move}: {inst.name} is not a buffer")
        out = self.netlist.output_net_of(move.inst_id)
        if out is None:
            raise EcoError(f"{move}: buffer drives nothing")
        if out.is_clock:
            raise EcoError(f"{move}: clock buffers belong to CTS")
        ins = [n for n in self.netlist.nets_of(move.inst_id)
               if n.id != out.id]
        if len(ins) != 1:
            raise EcoError(f"{move}: expected exactly one input net")
        innet = ins[0]
        if innet.is_clock:
            raise EcoError(f"{move}: input net is a clock")
        if len(innet.sinks) != 1 or innet.sinks[0].is_port or \
                innet.sinks[0].inst != move.inst_id:
            raise EcoError(
                f"{move}: input net {innet.name} feeds other loads")

    # -- application helpers ------------------------------------------

    def _reroute(self, net: Net) -> RoutedNet:
        self.stats["nets_rerouted"] += 1
        return self.ctx.route_net(self.netlist, net)

    def _resync(self, net_ids: Iterable[int], *, surgery: bool) -> None:
        """Bring routing and timing current after a structural edit.

        Re-routes the listed nets (those that no longer exist leave the
        routing view), then re-times the view: a topology patch after
        netlist surgery, a routing update after a displacement.
        """
        self.routing.refresh_nets(self.netlist, net_ids,
                                  reroute=self._reroute)
        if surgery:
            self._view.patch_topology()
        else:
            self._view.apply_routing_update()

    def _flush_swaps(self, swaps: List[EcoMove],
                     report: EcoApplyReport) -> None:
        if not swaps:
            return
        lib = self.process.library
        pending: Dict[int, CellMaster] = {}
        resolved: List[Tuple[int, CellMaster]] = []
        for m in swaps:
            inst = self.netlist.instances[m.inst_id]
            base = pending.get(m.inst_id, inst.master)
            if isinstance(m, Resize):
                new = lib.variant(base, drive=m.drive)
            else:
                new = lib.variant(base, vth=m.vth)
            pending[m.inst_id] = new
            resolved.append((m.inst_id, new))
        swaps.clear()
        n = self.swap_masters(resolved)
        report.swaps += n
        report.applied += n

    def _legalize(self, cells: List[Instance]) -> None:
        """Row-legalize ``cells`` die by die, around that die's cells
        and macros; a cell that finds no slot keeps its position and
        counts in ``stats["legalize_failures"]``."""
        if self.outline is None:
            return
        skip = {c.id for c in cells}
        macros = macro_rects_of(self.netlist)
        for die in sorted({c.die for c in cells}):
            placed = [c for c in self.netlist.cells
                      if c.die == die and c.id not in skip]
            res = legalize_new_cells(
                [c for c in cells if c.die == die], placed,
                self.outline, obstructions=macros.get(die, ()))
            if res.failed:
                failed = self.stats.get("legalize_failures", 0)
                self.stats["legalize_failures"] = failed + res.failed
                metrics().counter("eco.legalize_failures").inc(res.failed)

    def _apply_buffer_insert(self, move: BufferInsert) -> int:
        routed = self.routing.nets.get(move.net_id)
        if routed is None:
            # net deleted by an earlier move in this batch
            return 0
        plan = plan_net_buffering(self.netlist, routed,
                                  self.process.library, move.drive)
        if plan is None:
            return 0
        return self.commit_buffers([plan])

    def _apply_buffer_remove(self, move: BufferRemove) -> int:
        iid = move.inst_id
        out = self.netlist.output_net_of(iid)
        innet = [n for n in self.netlist.nets_of(iid)
                 if n.id != out.id][0]
        drv = innet.driver
        self.netlist.rewire_driver(
            out.id, PinRef(inst=drv.inst, port=drv.port, pin=drv.pin))
        self.netlist.remove_net(innet.id)
        self.netlist.remove_instance(iid)
        self._resync([innet.id, out.id], surgery=True)
        self.cts.invalidate()
        return 1

    def _apply_displace(self, move: Displace) -> int:
        inst = self.netlist.instances[move.inst_id]
        inst.x, inst.y = move.x, move.y
        if move.legalize:
            self._legalize([inst])
        self._resync([n.id for n in self.netlist.nets_of(inst.id)],
                     surgery=False)
        self.cts.invalidate()
        return 1
