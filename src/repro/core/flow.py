"""The RTL-to-layout block design flow (paper Section 2.2).

One entry point, :func:`run_block_flow`, takes a T2 block through the
whole model pipeline:

    generate (synthesis stand-in)
      -> 2D placement  OR  fold partition + two-tier placement
      -> 3D via placement (TSV legalization or the Section 5.1 F2F flow)
      -> routing estimation + parasitics
      -> CTS
      -> staged timing/power optimization (buffers, sizing, dual-Vth)
      -> sign-off STA + power analysis

and returns a :class:`BlockDesign` with every metric the paper tabulates:
footprint, wirelength, cell/buffer counts, 3D via counts, long-wire
statistics, HVT usage and the cell/net/leakage power split.

Generation and unfolded 2D placement depend only on the block type, seed
and scale, so a :class:`BlockMemo` does each once per run
(:func:`block_memo` scopes one; ``run_experiment`` opens it) and every
flow starts from its own clone of the pristine block.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..cts.tree import CTSResult
from ..designgen.generate import GeneratedBlock, generate_block
from ..designgen.t2 import BlockType, block_type_by_name
from ..eco.driver import EcoClosureReport, EcoConfig, close_timing
from ..eco.session import EcoSession
from ..faults.inject import fault_point
from ..netlist.core import Netlist
from ..obs import trace
from ..obs.metrics import metrics
from ..opt.flow import optimize_block
from ..place.grid import Rect
from ..place.placer2d import UTILIZATION, PlacementConfig, place_block_2d
from ..place.placer3d import Fold3DResult, fold_place_3d
from ..power.analysis import PowerReport, analyze_power
from ..route.estimate import RouteContext, RoutingResult
from ..route.route3d import place_f2f_vias
from ..tech.cells import CellLibrary
from ..tech.process import ProcessNode
from ..timing.sta import STAResult, TimingConfig
from .folding import FoldSpec, make_partition


@dataclass(frozen=True)
class FlowConfig:
    """Configuration of one block design run.

    Attributes:
        scale: model-scale multiplier for the generator.
        seed: generation/placement seed.
        fold: folding specification; ``None`` keeps the block 2D.
        bonding: ``"F2B"`` or ``"F2F"``, in either case -- only
            meaningful when folded.  Stored upper-case, and as
            ``"F2B"`` when ``fold`` is ``None``, so one unfolded design
            has one spelling (and one design-cache key).
        dual_vth: enable RVT->HVT swapping in the power stage.
        io_budget_ps: external delay at the block's ports (from the
            chip-level context; larger = tighter internal timing).
    """

    scale: float = 1.0
    seed: int = 1
    fold: Optional[FoldSpec] = None
    bonding: str = "F2B"
    dual_vth: bool = False
    io_budget_ps: float = 0.0
    #: after optimization, run the capacity-tracked global router and
    #: re-time against the measured (not estimated) wirelengths
    detailed_route: bool = False
    #: run the static checker at stage boundaries and raise
    #: :class:`repro.lint.LintError` on any unwaived error
    assert_clean: bool = False
    #: run the incremental timing-closure ECO loop after optimization
    #: (estimator routing only -- incompatible with ``detailed_route``;
    #: see docs/eco.md)
    eco: Optional[EcoConfig] = None

    def __post_init__(self) -> None:
        bonding = self.bonding.upper()
        if bonding not in ("F2B", "F2F"):
            raise ValueError(f"unknown bonding style {self.bonding!r}")
        object.__setattr__(self, "bonding",
                           bonding if self.fold is not None else "F2B")


@dataclass
class BlockDesign:
    """A finished block design and its sign-off metrics."""

    name: str
    config: FlowConfig
    netlist: Netlist
    outline: Rect
    footprint_um2: float
    wirelength_um: float
    n_cells: int
    n_buffers: int
    n_vias: int
    tsv_area_um2: float
    long_wires: int
    hvt_fraction: float
    power: PowerReport
    sta: STAResult
    cts: CTSResult
    routing: RoutingResult
    fold_result: Optional[Fold3DResult] = None
    generated: Optional[GeneratedBlock] = None
    #: congestion report when the flow ran the detailed router
    congestion: Optional[object] = None
    #: wall-clock per flow stage (generate/place/optimize/route/power),
    #: in milliseconds; a thin view over the flow's ``repro.obs`` spans
    #: (``flow.place`` -> ``"place"``), excluded from JSON exports
    #: (non-deterministic)
    stage_times_ms: Dict[str, float] = field(default_factory=dict)
    #: the per-net route context the flow signed off with; lets an ECO
    #: session re-route touched nets bit-identically long after the
    #: flow returned (``None`` when the detailed router produced the
    #: final routing, which the estimator context cannot reproduce)
    route_ctx: Optional[RouteContext] = None
    #: closure report when the flow ran the ECO stage
    eco_report: Optional[EcoClosureReport] = None

    @property
    def is_folded(self) -> bool:
        return self.fold_result is not None

    @property
    def dims(self) -> Tuple[float, float]:
        return self.outline.width, self.outline.height


def _routing_layers(block_type: BlockType, config: FlowConfig) -> int:
    """Metal layers available to the block (Section 2.2 / 6.1 rules).

    Unfolded blocks and F2B-folded bottom tiers stop at M7 (M8/M9 stay
    free for over-the-block routing); the SPC always gets all nine; an
    F2F-folded block uses all nine on both tiers, since the F2F via sits
    on top of M9.
    """
    if block_type.max_metal >= 9:
        return 9
    if config.bonding == "F2F":
        return 9
    return block_type.max_metal


#: the Instance and Port fields :func:`place_block_2d` writes
_PLACED_FIELDS = (("instances", ("x", "y", "die", "fixed")),
                  ("ports", ("x", "y", "die")))


@dataclass
class _Placement2D:
    """What :func:`place_block_2d` wrote into one block: one list of the
    placer's values per written field, in the netlist's instance (port)
    order."""

    config: PlacementConfig
    outline: Rect
    values: Dict[Tuple[str, str], List[object]]

    @classmethod
    def record(cls, netlist: Netlist, config: PlacementConfig,
               outline: Rect) -> "_Placement2D":
        return cls(config, outline, {
            (table, name): [getattr(obj, name) for obj in
                            getattr(netlist, table).values()]
            for table, names in _PLACED_FIELDS for name in names})

    def restore(self, netlist: Netlist) -> Rect:
        """Write the record into a clone of the recorded block."""
        for (table, name), values in self.values.items():
            for obj, value in zip(getattr(netlist, table).values(), values):
                setattr(obj, name, value)
        return replace(self.outline)


class BlockMemo:
    """Each block generated once and 2D-placed once, for one run.

    Keyed on ``(block type, seed, scale)``; one memo serves one process
    node.  Per key it keeps the pristine :class:`GeneratedBlock`, which
    no flow edits, and, once an unfolded flow has placed a clone of it,
    a record of what 2D placement wrote.  Every flow starts from its
    own :meth:`Netlist.clone` (masters are shared by identity).
    Scope one with :func:`block_memo`.
    """

    def __init__(self) -> None:
        self._library: Optional[CellLibrary] = None
        self._blocks: Dict[Tuple[str, int, float], GeneratedBlock] = {}
        #: id of a pristine block -> its 2D placement, once recorded
        self._placed: Dict[int, Optional[_Placement2D]] = {}

    def pristine(self, block_type: BlockType, library: CellLibrary,
                 seed: int, scale: float) -> Tuple[GeneratedBlock, bool]:
        """The key's pristine block (generated on first request) and
        whether it was reused.  Never edit it: clone its netlist."""
        if self._library is None:
            self._library = library
        elif library is not self._library:
            raise ValueError("a BlockMemo serves one process node; "
                             "this request brings another cell library")
        key = (block_type.name, seed, scale)
        gb = self._blocks.get(key)
        if gb is not None:
            metrics().counter("flow.blocks_reused").inc()
            return gb, True
        gb = generate_block(block_type, library, seed=seed, scale=scale)
        self._blocks[key] = gb
        self._placed[id(gb)] = None
        return gb, False

    def place_2d(self, gb: GeneratedBlock, netlist: Netlist,
                 config: PlacementConfig) -> Tuple[Rect, bool]:
        """2D-place ``netlist``, a clone of ``gb.netlist``.

        Replays the recorded placement when ``gb`` is one of this
        memo's pristine blocks and was placed with ``config`` before;
        otherwise places (and, for a pristine block, records).  Returns
        the outline and whether the placement was reused.
        """
        placed = self._placed.get(id(gb))
        if placed is not None and placed.config == config:
            metrics().counter("flow.placements_reused").inc()
            return placed.restore(netlist), True
        outline = place_block_2d(netlist, config).outline
        if id(gb) in self._placed:
            self._placed[id(gb)] = _Placement2D.record(netlist, config,
                                                      outline)
        return outline, False


#: the memo of the enclosing :func:`block_memo` scope
_MEMO: contextvars.ContextVar[Optional[BlockMemo]] = \
    contextvars.ContextVar("repro_block_memo", default=None)


@contextmanager
def block_memo() -> Iterator[BlockMemo]:
    """Scope a :class:`BlockMemo` over the ``with`` block.

    Inside an open scope this yields the active memo; otherwise it opens
    a new one, which dies when the block exits.
    """
    memo = _MEMO.get()
    if memo is not None:
        yield memo
        return
    memo = BlockMemo()
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)


def memo_block(block: str, library: CellLibrary, seed: int,
               scale: float) -> GeneratedBlock:
    """A private copy of one generated block, cloned from the active
    memo's pristine block (outside any scope, from a memo that dies
    with the call)."""
    with block_memo() as memo:
        gb, _ = memo.pristine(block_type_by_name(block), library, seed,
                              scale)
    return replace(gb, netlist=gb.netlist.clone())


def run_block_flow(block: str, config: FlowConfig,
                   process: ProcessNode) -> BlockDesign:
    """Run the full design flow on one block type.

    The block comes from the active :class:`BlockMemo` (outside any
    :func:`block_memo` scope, from one that dies with the call).

    Args:
        block: T2 block type name (``"spc"``, ``"ccx"``, ...).
        config: flow configuration.
        process: technology node.

    Returns:
        The finished :class:`BlockDesign`.
    """
    block_type = block_type_by_name(block)
    with block_memo() as memo, \
            trace.span("flow", block=block,
                       folded=config.fold is not None,
                       fold=config.fold.mode if config.fold else None,
                       bonding=config.bonding if config.fold else None,
                       scale=config.scale, seed=config.seed):
        with trace.span("flow.generate", block=block) as sp_gen:
            fault_point("generate")
            gb, reused = memo.pristine(block_type, process.library,
                                       config.seed, config.scale)
            sp_gen.set(reused=reused)
        design = run_flow_on(gb, config, process)
    design.stage_times_ms["generate"] = sp_gen.duration_ms
    return design


def run_flow_on(gb: GeneratedBlock, config: FlowConfig,
                process: ProcessNode) -> BlockDesign:
    """Run the flow on a clone of an already-generated block.

    ``gb`` itself is never edited, so one block can start any number of
    flows.  An unfolded flow on a pristine block of the active
    :class:`BlockMemo` replays the memo's recorded 2D placement.
    """
    if config.eco is not None and config.detailed_route:
        raise ValueError(
            "FlowConfig.eco needs the estimator's routing; it cannot "
            "run together with detailed_route=True")
    netlist = gb.netlist.clone()
    start = replace(gb, netlist=netlist)
    block_type = gb.block_type
    max_metal = _routing_layers(block_type, config)
    pc = PlacementConfig(seed=config.seed)

    if config.assert_clean:
        # gate the incoming netlist before spending placement effort
        from ..lint import assert_clean as _gate, lint_netlist
        _gate(lint_netlist(netlist), stage=f"{block_type.name}/generate")

    fold_result: Optional[Fold3DResult] = None
    via_sites: Dict[int, Tuple[float, float]] = {}
    via = None
    extra_clock_vias = 0
    stage_times_ms: Dict[str, float] = {}

    with trace.span("flow.place", block=block_type.name,
                    folded=config.fold is not None) as sp_place:
        fault_point("place")
        if config.fold is None:
            outline, reused = (_MEMO.get() or BlockMemo()).place_2d(
                gb, netlist, pc)
            sp_place.set(reused=reused)
            tsv_area = 0.0
            n_vias = 0
        else:
            sp_place.set(reused=False)
            assignment = make_partition(start, config.fold)
            region_of = None
            if config.fold.mode in ("fub_assign", "fub_fold"):
                # FUBs are place-and-route regions of their own
                # (Section 4.5)
                region_of = {
                    inst.id: gb.region_of_cluster(inst.cluster)
                    for inst in netlist.instances.values()
                }
            fold_result = fold_place_3d(netlist, process, assignment,
                                        config.bonding, pc,
                                        region_of=region_of)
            outline = fold_result.outline
            tsv_area = fold_result.tsv_area_um2
            via = process.via_for(config.bonding)
            if config.bonding == "F2F":
                # the paper's Section 5.1 flow refines via sites by 3D
                # routing
                plan = place_f2f_vias(netlist, outline, process)
                via_sites = dict(plan.sites)
            else:
                via_sites = {v.net_id: (v.x, v.y)
                             for v in fold_result.vias}
            n_vias = fold_result.n_vias
            sp_place.set(n_vias=n_vias)
            metrics().counter(
                "flow.vias.f2f" if config.bonding == "F2F"
                else "flow.vias.tsv").inc(n_vias)
    stage_times_ms["place"] = sp_place.duration_ms

    if config.assert_clean:
        # gate the placement (and legalized via sites) before routing
        from ..lint import assert_clean as _gate, lint_placement
        _gate(lint_placement(
            netlist, outline,
            bonding=config.bonding if fold_result is not None else None,
            vias=fold_result.vias if fold_result is not None else None,
            utilization=UTILIZATION),
            stage=f"{block_type.name}/place")

    route_ctx = RouteContext(stack=process.metal_stack,
                             max_metal=max_metal, via=via,
                             via_sites=via_sites,
                             long_wire_um=process.long_wire_um)

    timing = TimingConfig(clock_domain=block_type.logic.clock_domain,
                          default_io_delay_ps=config.io_budget_ps)
    with trace.span("flow.optimize", block=block_type.name) as sp_opt:
        fault_point("optimize")
        opt = optimize_block(netlist, process, timing, route_ctx,
                             dual_vth=config.dual_vth)
    stage_times_ms["optimize"] = sp_opt.duration_ms

    eco_report: Optional[EcoClosureReport] = None
    if config.eco is not None:
        with trace.span("flow.eco", block=block_type.name,
                        target_wns_ps=config.eco.target_wns_ps) as sp_eco:
            fault_point("eco")
            session = EcoSession(
                netlist, opt.routing, process, timing, route_ctx,
                outline=outline, sta_snapshot=opt.sta)
            eco_report = close_timing(session, config.eco)
            opt.routing = session.routing
            opt.sta = session.sta()
            opt.cts = session.cts_result()
            sp_eco.set(status=eco_report.status,
                       rounds=len(eco_report.rounds))
        stage_times_ms["eco"] = sp_eco.duration_ms

    congestion = None
    if config.detailed_route:
        from ..opt.sizing import fix_timing
        from ..route.block_router import route_block_detailed
        from ..timing.sta import run_sta

        def detail_route() -> tuple:
            return route_block_detailed(
                netlist, process.metal_stack, outline,
                max_metal=max_metal, via=via, via_sites=via_sites,
                long_wire_um=process.long_wire_um)

        with trace.span("flow.detailed_route",
                        block=block_type.name) as sp_route:
            fault_point("detailed_route")
            # post-route repair: measured detours can break paths the
            # estimate-driven optimization believed were met
            detailed, congestion = detail_route()
            sta = run_sta(netlist, detailed, process, timing)
            for _ in range(3):
                if sta.wns_ps >= -1.0:
                    break
                if not fix_timing(netlist, sta, process.library):
                    break
                detailed, congestion = detail_route()
                sta = run_sta(netlist, detailed, process, timing)
            opt.routing = detailed
            opt.sta = sta
        stage_times_ms["detailed_route"] = sp_route.duration_ms

    with trace.span("flow.power", block=block_type.name) as sp_power:
        fault_point("power")
        power = analyze_power(netlist, opt.routing, process,
                              block_type.logic.clock_domain, cts=opt.cts)
    stage_times_ms["power"] = sp_power.duration_ms
    from ..opt.dualvth import hvt_fraction

    n_vias += opt.cts.via_crossings
    design = BlockDesign(
        name=block_type.name,
        config=config,
        netlist=netlist,
        outline=outline,
        footprint_um2=outline.area,
        wirelength_um=opt.routing.total_wirelength_um +
        opt.cts.wirelength_um,
        n_cells=netlist.num_cells,
        n_buffers=netlist.num_buffers + opt.cts.n_buffers,
        n_vias=n_vias,
        tsv_area_um2=tsv_area,
        long_wires=opt.routing.long_wire_count,
        hvt_fraction=hvt_fraction(netlist),
        power=power,
        sta=opt.sta,
        cts=opt.cts,
        routing=opt.routing,
        fold_result=fold_result,
        generated=start,
        congestion=congestion,
        stage_times_ms=stage_times_ms,
        route_ctx=None if config.detailed_route else route_ctx,
        eco_report=eco_report,
    )
    if config.assert_clean:
        from ..lint import assert_clean as _gate, lint_block
        _gate(lint_block(design), stage=f"{block_type.name}/signoff")
    return design
