"""Full-chip T2 assembly (paper Sections 3 and 6).

Builds complete chips in the five design styles of Fig. 8 -- 2D,
core/cache stacking, core/core stacking, and block folding with F2B or
F2F bonding -- and rolls block-level designs up into chip-level metrics:

* the chip floorplan (reference layouts, shelf-packed from actual block
  footprints);
* chip-level wire bundles routed by the capacity-aware global router,
  with over-the-block routing rules by bonding style (Section 6.1): most
  blocks leave M8/M9 free above them, the SPC and F2F-folded blocks do
  not;
* per-block I/O timing budgets derived from bundle delays -- the paper's
  PrimeTime loop (Section 2.2): shorter 3D bundles hand the blocks looser
  budgets, which the block optimizer converts into smaller/HVT cells;
* chip repeaters on the bundles, the top-level clock spine, and the
  TSV / F2F via counts of the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..designgen.t2 import Bundle, t2_block_types, t2_bundles, t2_instances
from ..floorplan.t2_floorplans import (BOTH_DIES, STYLES, ChipFloorplan,
                                       t2_floorplan)
from ..obs import trace
from ..obs.metrics import metrics
from ..opt.buffering import optimal_spacing_um
from ..place.grid import Rect
from ..power.analysis import PowerReport
from ..route.global_router import GlobalRouter
from ..route.steiner import steiner_length
from ..tech.process import CPU_CLOCK, ProcessNode
from .cache import block_design
from .flow import BlockDesign, FlowConfig
from .folding import FoldSpec
from .secondlevel import second_level_spec

#: the fold partition of each block type a folded style folds, which are
#: the floorplans' ``FOLDED_TYPES`` (the paper's choices: natural
#: partitions where the structure provides one, min-cut otherwise)
DEFAULT_FOLDS: Dict[str, FoldSpec] = {
    "ccx": FoldSpec(mode="regions", die1_regions=("cpx",)),
    "l2d": FoldSpec(mode="regions", die1_regions=("subbank2", "subbank3")),
    "l2t": FoldSpec(mode="mincut"),
    "rtx": FoldSpec(mode="regions", die1_regions=("tx",)),
    "spc": second_level_spec(),
}

#: I/O budget bucket (ps) so identical blocks share one design run
BUDGET_BUCKET_PS = 25.0

#: over-the-block routing capacity left above a block (Section 6.1)
OTB_NORMAL = 0.70     # block routes to M7; M8/M9 free above it
OTB_BLOCKED = 0.30    # block uses all nine layers (SPC, F2F-folded);
                      # only the channels between blocks remain


@dataclass(frozen=True)
class ChipConfig:
    """Configuration of a full-chip build."""

    style: str = "2d"
    scale: float = 1.0
    seed: int = 1
    dual_vth: bool = False
    #: per-block-type minimum I/O budgets (ps), e.g. from a previous
    #: sign-off iteration (see core.chip_sta.build_signed_off_chip)
    budget_floor_ps: Tuple[Tuple[str, float], ...] = ()
    #: run the static checker on every block flow and on the assembled
    #: chip; raise :class:`repro.lint.LintError` on any unwaived error
    assert_clean: bool = False

    def __post_init__(self) -> None:
        if self.style not in STYLES:
            raise ValueError(f"unknown style {self.style!r}")

    @property
    def is_3d(self) -> bool:
        return self.style != "2d"

    @property
    def is_folded(self) -> bool:
        return self.style in ("fold_f2b", "fold_f2f")

    @property
    def bonding(self) -> str:
        return "F2F" if self.style == "fold_f2f" else "F2B"


@dataclass
class RoutedBundle:
    """One chip-level bundle after global routing."""

    bundle: Bundle
    length_um: float
    crosses_dies: bool
    n_repeaters: int
    delay_ps: float


@dataclass
class ChipDesign:
    """A complete chip in one design style."""

    config: ChipConfig
    floorplan: ChipFloorplan
    block_designs: Dict[str, BlockDesign]
    routed_bundles: List[RoutedBundle]
    power: PowerReport
    footprint_um2: float
    wirelength_um: float
    interblock_wl_um: float
    n_cells: int
    n_buffers: int
    n_3d_connections: int
    hvt_fraction: float
    wns_ps: float
    #: per-die chip-level global-router overflow fractions
    router_overflow: Tuple[float, ...] = ()
    #: chip-level TSV array plan (F2B 3D styles only)
    tsv_plan: Optional[object] = None
    #: wall-clock per build phase (budget/blocks/assemble/aggregate) in
    #: milliseconds; a thin view over the build's ``repro.obs`` spans
    #: (``chip.blocks`` -> ``"blocks"``).  Block flows served from a
    #: cache report ~0 here
    phase_times_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def style(self) -> str:
        return self.config.style

    def block_of(self, instance: str) -> BlockDesign:
        """The design backing a chip instance."""
        return self.block_designs[instance.rstrip("0123456789")]


def _fold_for(config: ChipConfig, type_name: str) -> Optional[FoldSpec]:
    """The fold of one block type in a chip: its :data:`DEFAULT_FOLDS`
    entry in a folded style, ``None`` otherwise."""
    return DEFAULT_FOLDS.get(type_name) if config.is_folded else None


def _estimate_dims(process: ProcessNode, config: ChipConfig
                   ) -> Dict[str, Tuple[float, float]]:
    """Pre-flow footprint estimates (area model, no placement)."""
    from ..designgen.t2 import scaled_logic
    dims: Dict[str, Tuple[float, float]] = {}
    for bt in t2_block_types():
        spec = scaled_logic(bt.logic, config.scale)
        cell_area = spec.n_cells * 110.0  # average model-cell area
        macro_area = sum(m.area_um2 * c for m, c in spec.macros)
        area = cell_area / 0.70 + macro_area * 1.08
        if _fold_for(config, bt.name) is not None:
            area *= 0.55  # folded: ~half plus via overhead
        side = math.sqrt(area)
        for inst, tname in t2_instances():
            if tname == bt.name:
                dims[inst] = (side, side)
    return dims


def _bundle_wire_stats(process: ProcessNode, length_um: float,
                       clock_domain: str, crosses: bool
                       ) -> Tuple[int, float]:
    """(repeaters per wire, delay ps) of one buffered chip-level wire."""
    stack = process.metal_stack
    r, c = stack.effective_rc(8, 9)
    buf = process.library.buffer(drive=16)
    spacing = optimal_spacing_um(buf, r, c)
    n_seg = max(1, int(math.ceil(length_um / spacing)))
    seg_len = length_um / n_seg
    seg_delay = buf.delay_ps(c * seg_len + buf.input_cap_ff) + \
        r * seg_len * (c * seg_len / 2.0 + buf.input_cap_ff)
    delay = n_seg * seg_delay
    if crosses:
        delay += process.tsv.delay_ps(buf.input_cap_ff)
    return n_seg - 1, delay


def build_chip(config: ChipConfig, process: ProcessNode) -> ChipDesign:
    """Design the full T2 in one style.

    Requests one block design per unique (type, fold, budget-bucket)
    through :func:`repro.core.cache.block_design`, so builds inside one
    :func:`~repro.core.cache.run_scope` share identical block designs;
    then assembles the reference floorplan from the real block
    footprints, globally routes the bundles with style-dependent
    blockages, and aggregates chip metrics.

    The build records a ``chip`` observability span with one child span
    per phase (``chip.budget`` / ``chip.blocks`` / ``chip.assemble`` /
    ``chip.aggregate``); ``ChipDesign.phase_times_ms`` is derived from
    those spans.
    """
    with trace.span("chip", style=config.style, scale=config.scale,
                    seed=config.seed, dual_vth=config.dual_vth):
        return _build_chip(config, process)


def _build_chip(config: ChipConfig, process: ProcessNode) -> ChipDesign:
    instances = t2_instances()
    bundles = t2_bundles()
    counts: Dict[str, int] = {}
    for _, tname in instances:
        counts[tname] = counts.get(tname, 0) + 1

    # 3D floorplans reserve whitespace channels between blocks for the
    # TSV arrays (the cyan dots of the paper's Fig. 8); 2D needs only
    # routing channels
    gap_um = 35.0 if config.is_3d and config.bonding == "F2B" else 8.0

    # ---- phase 1: budgets from the estimated floorplan -----------------
    phase_times_ms: Dict[str, float] = {}
    with trace.span("chip.budget", style=config.style) as sp_budget:
        est_dims = _estimate_dims(process, config)
        est_fp = t2_floorplan(config.style, est_dims, gap=gap_um)
        budget_of: Dict[str, float] = {}
        for b in bundles:
            ax, ay = est_fp.center_of(b.a)
            bx, by = est_fp.center_of(b.b)
            length = abs(ax - bx) + abs(ay - by)
            crosses = est_fp.crosses_dies(b.a, b.b)
            _, delay = _bundle_wire_stats(process, length,
                                          b.clock_domain, crosses)
            # each side's budget covers its half of the inter-block
            # wire; the optional sign-off loop (core.chip_sta) raises
            # per-type floors where the measured cross paths need more
            for end in (b.a, b.b):
                tname = end.rstrip("0123456789")
                budget_of[tname] = max(budget_of.get(tname, 0.0),
                                       delay / 2.0)
        for tname, floor in config.budget_floor_ps:
            budget_of[tname] = max(budget_of.get(tname, 0.0), floor)
        budget_of = {k: round(v / BUDGET_BUCKET_PS) * BUDGET_BUCKET_PS
                     for k, v in budget_of.items()}
    phase_times_ms["budget"] = sp_budget.duration_ms

    # ---- phase 2: block flows ------------------------------------------
    block_designs: Dict[str, BlockDesign] = {}
    with trace.span("chip.blocks", style=config.style) as sp_blocks:
        for bt in t2_block_types():
            fold = _fold_for(config, bt.name)
            fc = FlowConfig(scale=config.scale, seed=config.seed,
                            fold=fold, bonding=config.bonding,
                            dual_vth=config.dual_vth,
                            io_budget_ps=budget_of.get(bt.name, 0.0),
                            assert_clean=config.assert_clean)
            block_designs[bt.name] = block_design(bt.name, fc, process)
    phase_times_ms["blocks"] = sp_blocks.duration_ms

    # ---- phase 3: real floorplan + global routing ----------------------
    with trace.span("chip.assemble", style=config.style) as sp_asm:
        dims = {}
        for inst, tname in instances:
            d = block_designs[tname]
            dims[inst] = d.dims
        floorplan = t2_floorplan(config.style, dims, gap=gap_um)
        outline = Rect(0.0, 0.0, floorplan.width, floorplan.height)

        n_dies = floorplan.n_dies
        routers = [GlobalRouter(outline, n_gcells=24,
                                capacity_per_gcell=3000.0)
                   for _ in range(n_dies)]
        for inst, rect in floorplan.positions.items():
            tname = inst.rstrip("0123456789")
            die = floorplan.die_of[inst]
            folded = die == BOTH_DIES
            spc_like = tname == "spc"
            if folded:
                if config.style == "fold_f2f" or spc_like:
                    frac = (OTB_BLOCKED, OTB_BLOCKED)
                else:  # F2B fold: bottom tier keeps M8/M9, top does not
                    frac = (OTB_NORMAL, OTB_BLOCKED)
                for d in range(n_dies):
                    routers[d].add_blockage(rect,
                                            frac[d] if d < len(frac)
                                            else frac[-1])
            else:
                frac = OTB_BLOCKED if spc_like else OTB_NORMAL
                routers[die].add_blockage(rect, frac)

        # TSV array planning (reference [5]): tier-crossing bundles must
        # land their TSVs in whitespace, outside every block
        tsv_plan = None
        if config.is_3d and config.bonding == "F2B":
            from ..floorplan.tsv_planning import plan_tsv_arrays
            crossing = [(b.a, b.b, b.n_wires) for b in bundles
                        if floorplan.crosses_dies(b.a, b.b)]
            if crossing:
                tsv_plan = plan_tsv_arrays(floorplan, crossing,
                                           process.tsv)

        routed: List[RoutedBundle] = []
        interblock_wl = 0.0
        n_cross_wires = 0
        chip_repeaters_cpu = 0
        chip_repeaters_io = 0
        for b in sorted(bundles, key=lambda x: -x.n_wires):
            src = floorplan.center_of(b.a)
            dst = floorplan.center_of(b.b)
            crosses = floorplan.crosses_dies(b.a, b.b)
            die_a = floorplan.die_of[b.a]
            route_die = die_a if die_a not in (BOTH_DIES,) else \
                (floorplan.die_of[b.b]
                 if floorplan.die_of[b.b] != BOTH_DIES else 0)
            router = routers[min(route_die, n_dies - 1)]
            path = router.route(src, dst, n_wires=b.n_wires)
            length = path.length_um
            if crosses and tsv_plan is not None:
                length += tsv_plan.detour_of((b.a, b.b))
            reps, delay = _bundle_wire_stats(process, length,
                                             b.clock_domain, crosses)
            routed.append(RoutedBundle(bundle=b, length_um=length,
                                       crosses_dies=crosses,
                                       n_repeaters=reps * b.n_wires,
                                       delay_ps=delay))
            interblock_wl += length * b.n_wires
            if crosses:
                n_cross_wires += b.n_wires
            if b.clock_domain == CPU_CLOCK:
                chip_repeaters_cpu += reps * b.n_wires
            else:
                chip_repeaters_io += reps * b.n_wires
        sp_asm.set(n_bundles=len(routed), cross_wires=n_cross_wires)
    phase_times_ms["assemble"] = sp_asm.duration_ms

    # ---- phase 4: aggregation -------------------------------------------
    with trace.span("chip.aggregate", style=config.style) as sp_agg:
        power = PowerReport()
        n_cells = 0
        n_buffers = 0
        n_vias = n_cross_wires
        wirelength = interblock_wl
        wns = math.inf
        hvt_cells = 0.0
        for bt in t2_block_types():
            d = block_designs[bt.name]
            k = counts[bt.name]
            power = power.plus(d.power.scaled(k))
            n_cells += d.n_cells * k
            n_buffers += d.n_buffers * k
            n_vias += d.n_vias * k
            wirelength += d.wirelength_um * k
            wns = min(wns, d.sta.wns_ps)
            hvt_cells += d.hvt_fraction * d.n_cells * k

        # chip-level wire + repeater power
        vdd2 = process.vdd ** 2
        alpha = process.default_activity
        r89, c89 = process.metal_stack.effective_rc(8, 9)
        # chip repeaters sit on multi-millimetre bundles with delay to
        # spare; a dual-Vth flow implements them in HVT
        from ..tech.cells import VTH_HVT
        buf = process.library.buffer(drive=16, vth=VTH_HVT) \
            if config.dual_vth else process.library.buffer(drive=16)
        for rb in routed:
            f = process.clock_freq_ghz[rb.bundle.clock_domain]
            wire_cap = c89 * rb.length_um * rb.bundle.n_wires
            if rb.crosses_dies:
                wire_cap += process.tsv.capacitance_ff * rb.bundle.n_wires
            power.wire_uw += alpha * wire_cap * vdd2 * f
            power.net_uw += alpha * wire_cap * vdd2 * f
            power.cell_uw += alpha * rb.n_repeaters * \
                buf.internal_energy_fj * f
            power.leakage_uw += rb.n_repeaters * buf.leakage_uw
        n_buffers += chip_repeaters_cpu + chip_repeaters_io
        n_cells += chip_repeaters_cpu + chip_repeaters_io

        # top-level clock spine: Steiner over block centers, buffered
        f_cpu = process.clock_freq_ghz[CPU_CLOCK]
        centers = [floorplan.center_of(i) for i, _ in instances]
        spine_len = steiner_length(centers)
        spine_bufs = max(1, int(spine_len / 200.0))
        clock_cap = c89 * spine_len
        power.net_uw += clock_cap * vdd2 * f_cpu
        power.wire_uw += clock_cap * vdd2 * f_cpu
        power.cell_uw += spine_bufs * buf.internal_energy_fj * f_cpu
        power.leakage_uw += spine_bufs * buf.leakage_uw
        power.clock_uw += clock_cap * vdd2 * f_cpu + \
            spine_bufs * buf.internal_energy_fj * f_cpu
        wirelength += spine_len
        n_buffers += spine_bufs
        n_cells += spine_bufs
        if config.dual_vth:
            # chip repeaters and spine buffers are implemented in HVT
            hvt_cells += n_cells - sum(
                block_designs[bt.name].n_cells * counts[bt.name]
                for bt in t2_block_types())

        chip = ChipDesign(
            config=config,
            floorplan=floorplan,
            block_designs=block_designs,
            routed_bundles=routed,
            power=power,
            footprint_um2=floorplan.area_um2,
            wirelength_um=wirelength,
            interblock_wl_um=interblock_wl,
            n_cells=n_cells,
            n_buffers=n_buffers,
            n_3d_connections=n_vias if config.is_3d else 0,
            hvt_fraction=hvt_cells / max(n_cells, 1),
            wns_ps=wns,
            router_overflow=tuple(r.overflow() for r in routers),
            tsv_plan=tsv_plan,
            phase_times_ms=phase_times_ms,
        )
    phase_times_ms["aggregate"] = sp_agg.duration_ms
    metrics().counter("chip.builds").inc()
    metrics().counter("chip.3d_connections").inc(chip.n_3d_connections)
    if config.assert_clean:
        # block flows were gated individually; this pass adds the
        # chip-scope rules (floorplan geometry, router capacity, TSVs)
        from ..lint import assert_clean as _gate, lint_chip
        _gate(lint_chip(chip, include_blocks=False),
              stage=f"chip/{config.style}")
    return chip
