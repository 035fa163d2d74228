"""Experiment registry: every paper table and figure as a runner.

Each experiment returns an :class:`ExperimentResult` holding the designs
it built, the formatted table text, and the *shape checks* -- the
qualitative claims of the paper the run is expected to reproduce (who
wins, roughly by how much, in which direction).  The benchmark suite and
EXPERIMENTS.md are generated from this registry.

Experiments register themselves with the :func:`experiment` decorator
(the same pattern as ``repro.lint``'s rule deck) and all share one
options object and one entry point::

    from repro.analysis.experiments import ExperimentOptions, run_experiment

    result = run_experiment("fig2", ExperimentOptions(scale=0.7,
                                                      cache=my_cache))

:class:`ExperimentOptions` carries everything a runner may need --
``process``, ``scale``, ``seed``, ``cache``, ``trace`` -- so adding an
option never touches eleven signatures again.  :data:`REGISTRY` maps
each id to its :class:`Experiment` (runner and description).

Every run accepts an optional :class:`repro.core.cache.DesignCache`
(block designs recur across experiments -- with a persistent
``cache_dir`` a warm rerun is near-free) and a ``seed`` so sweeps can
reseed deterministically.  :func:`result_to_dict` /
:func:`experiment_json` serialize a result into key-sorted JSON whose
bytes are identical for identical (code, seed, scale) -- the determinism
and golden-regression test layers compare those bytes.  Observability
spans and timings never enter that JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.bonding import bonding_power_sweep
from ..core.flow import BlockDesign, FlowConfig, run_block_flow
from ..core.folding import FoldSpec, folding_candidates
from ..core.fullchip import ChipConfig, build_chip
from ..core.secondlevel import spc_folding_study
from ..designgen.t2 import t2_block_types
from ..obs import trace
from ..tech.process import ProcessNode, make_process
from .report import MetricRow, design_metric_rows, format_table, relative


@dataclass(frozen=True)
class ExperimentOptions:
    """Shared options for every experiment runner.

    Attributes:
        process: technology node (default: :func:`make_process`).
        scale: model-scale multiplier threaded into every flow.
        seed: generation/placement seed threaded into every flow.
        cache: optional :class:`repro.core.cache.DesignCache`; block
            designs recur across experiments, and with a persistent
            ``cache_dir`` a warm rerun skips the flows entirely.
        trace: record observability spans for this run (timing still
            happens when off; only recording stops).
    """

    process: Optional[ProcessNode] = None
    scale: float = 1.0
    seed: int = 1
    cache: Optional[Any] = None
    trace: bool = True

    def resolved_process(self) -> ProcessNode:
        """The technology node to run against."""
        return self.process if self.process is not None else make_process()


@dataclass(frozen=True)
class Experiment:
    """One registered paper artifact: id, description, runner."""

    id: str
    description: str
    fn: Callable[[ExperimentOptions], "ExperimentResult"]


#: experiment id -> :class:`Experiment`; populated by :func:`experiment`
REGISTRY: Dict[str, Experiment] = {}


def experiment(experiment_id: str, description: str
               ) -> Callable[[Callable[[ExperimentOptions],
                                       "ExperimentResult"]],
                             Callable[[ExperimentOptions],
                                      "ExperimentResult"]]:
    """Register a runner in the experiment registry (decorator).

    The decorated function takes one :class:`ExperimentOptions` and
    returns an :class:`ExperimentResult`; :func:`run_experiment`
    dispatches to it by id.
    """
    def wrap(fn: Callable[[ExperimentOptions], "ExperimentResult"]
             ) -> Callable[[ExperimentOptions], "ExperimentResult"]:
        if experiment_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        REGISTRY[experiment_id] = Experiment(id=experiment_id,
                                             description=description,
                                             fn=fn)
        return fn

    return wrap


class UnknownExperimentError(KeyError):
    """An experiment id that is not in the registry.

    Subclasses :class:`KeyError` for backward compatibility with the
    pre-registry dict lookup, but carries a message listing every valid
    id.
    """

    def __init__(self, experiment_id: str) -> None:
        self.experiment_id = experiment_id
        super().__init__(
            f"unknown experiment {experiment_id!r}; valid ids: "
            f"{', '.join(REGISTRY)}")


@dataclass
class ShapeCheck:
    """One qualitative claim: name, passed, measured, paper value."""

    name: str
    passed: bool
    measured: str
    paper: str


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    description: str
    table: str
    checks: List[ShapeCheck]
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [self.table, ""]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: measured {c.measured} "
                         f"(paper: {c.paper})")
        return "\n".join(lines)


def _check(name: str, passed: bool, measured: str,
           paper: str) -> ShapeCheck:
    return ShapeCheck(name=name, passed=bool(passed), measured=measured,
                      paper=paper)


def _flow(block: str, config: FlowConfig, process: ProcessNode,
          cache) -> BlockDesign:
    """Run one block flow, through the cache when one is provided."""
    if cache is not None:
        return cache.get_or_run(block, config, process)
    return run_block_flow(block, config, process)


# ---------------------------------------------------------------------------
# Table 1: 3D interconnect settings
# ---------------------------------------------------------------------------

@experiment("table1", "3D interconnect settings (Katti model)")
def _table1(opts: ExperimentOptions) -> ExperimentResult:
    """Table 1: TSV and F2F via geometry and parasitics (Katti model)."""
    process = opts.resolved_process()
    tsv, f2f = process.tsv, process.f2f_via
    rows = [
        MetricRow("diameter (um)", [tsv.diameter_um, f2f.diameter_um],
                  show_delta=False),
        MetricRow("height (um)", [tsv.height_um, f2f.height_um],
                  show_delta=False),
        MetricRow("pitch (um)", [tsv.pitch_um, f2f.pitch_um],
                  show_delta=False),
        MetricRow("R (Ohm)", [tsv.resistance_kohm * 1e3,
                              f2f.resistance_kohm * 1e3],
                  fmt="{:.3f}", show_delta=False),
        MetricRow("C (fF)", [tsv.capacitance_ff, f2f.capacitance_ff],
                  fmt="{:.2f}", show_delta=False),
        MetricRow("silicon area (um^2)", [tsv.area_um2, f2f.area_um2],
                  fmt="{:.1f}", show_delta=False),
    ]
    table = format_table("Table 1: 3D interconnect settings",
                         ["TSV", "F2F via"], rows)
    checks = [
        _check("TSV diameter >> F2F via size",
               tsv.diameter_um > 2 * f2f.diameter_um,
               f"{tsv.diameter_um:.1f} vs {f2f.diameter_um:.1f} um",
               "TSV much larger than F2F via"),
        _check("F2F via consumes no silicon", f2f.area_um2 == 0.0,
               f"{f2f.area_um2:.1f} um^2", "0 (no silicon area)"),
        _check("TSV capacitance dominates",
               tsv.capacitance_ff > 10 * f2f.capacitance_ff,
               f"{tsv.capacitance_ff:.1f} vs {f2f.capacitance_ff:.2f} fF",
               "TSV C in tens of fF, F2F sub-fF"),
    ]
    return ExperimentResult("table1", "3D interconnect settings", table,
                            checks)


# ---------------------------------------------------------------------------
# Table 2: 2D vs core/cache vs core/core
# ---------------------------------------------------------------------------

@experiment("table2", "2D vs 3D floorplanning (core/cache, core/core)")
def _table2(opts: ExperimentOptions) -> ExperimentResult:
    """Table 2: block-level 2D vs the two 3D floorplans (RVT only)."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    designs = {
        style: build_chip(ChipConfig(style=style, scale=scale, seed=seed),
                          process, cache=cache)
        for style in ("2d", "core_cache", "core_core")
    }
    cols = ["2D", "3D core/cache", "3D core/core"]
    table = format_table("Table 2: 2D vs 3D block-level designs", cols,
                         design_metric_rows(list(designs.values()),
                                            kind="chip"))
    d2, cc, co = (designs[s] for s in ("2d", "core_cache", "core_core"))
    p_cc = relative(cc.power.total_uw, d2.power.total_uw)
    p_co = relative(co.power.total_uw, d2.power.total_uw)
    checks = [
        _check("core/cache footprint shrinks",
               relative(cc.footprint_um2, d2.footprint_um2) < -0.30,
               f"{relative(cc.footprint_um2, d2.footprint_um2):+.1%}",
               "-46.0%"),
        _check("core/cache cuts buffers",
               relative(cc.n_buffers, d2.n_buffers) < -0.08,
               f"{relative(cc.n_buffers, d2.n_buffers):+.1%}", "-16.3%"),
        _check("core/cache cuts wirelength",
               relative(cc.wirelength_um, d2.wirelength_um) < -0.02,
               f"{relative(cc.wirelength_um, d2.wirelength_um):+.1%}",
               "-5.0%"),
        _check("core/cache saves ~10% power", -0.20 < p_cc < -0.05,
               f"{p_cc:+.1%}", "-10.3%"),
        _check("core/core saves power too", p_co < -0.04,
               f"{p_co:+.1%}", "-9.1%"),
        _check("floorplans within ~3% of each other",
               abs(p_cc - p_co) < 0.03,
               f"{abs(p_cc - p_co):.1%} apart", "1.2% apart"),
    ]
    return ExperimentResult("table2", "2D vs 3D floorplanning", table,
                            checks, data=designs)


# ---------------------------------------------------------------------------
# Table 3: folding candidates
# ---------------------------------------------------------------------------

@experiment("table3", "folding candidate selection")
def _table3(opts: ExperimentOptions) -> ExperimentResult:
    """Table 3: 2D block characteristics for fold-candidate selection."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    designs: Dict[str, BlockDesign] = {}
    counts: Dict[str, int] = {}
    for bt in t2_block_types():
        designs[bt.name] = _flow(
            bt.name, FlowConfig(scale=scale, seed=seed), process, cache)
        counts[bt.name] = bt.count
    rows = folding_candidates(designs, counts)
    lines = ["Table 3: 2D design characteristics for block folding "
             "candidate selection",
             f"{'Block':8s} {'Total power %':>14s} {'Net power %':>12s} "
             f"{'# long wires':>13s}  {'Remark':18s} {'Folds?':>6s}"]
    for r in rows:
        lines.append(f"{r.block:8s} {r.total_power_pct:14.1f} "
                     f"{r.net_power_pct:12.1f} {r.long_wires:13d}  "
                     f"{r.remark:18s} {'yes' if r.qualifies else 'no':>6s}")
    table = "\n".join(lines)
    by_name = {r.block: r for r in rows}
    spc, l2d, ccx = by_name["spc"], by_name["l2d"], by_name["ccx"]
    checks = [
        _check("SPC is the top power block",
               rows[0].block == "spc",
               f"top block = {rows[0].block}", "SPC 5.8% (8X)"),
        _check("L2D has the lowest net-power share among candidates",
               l2d.net_power_pct < min(spc.net_power_pct,
                                       ccx.net_power_pct),
               f"l2d {l2d.net_power_pct:.0f}% vs spc "
               f"{spc.net_power_pct:.0f}% / ccx {ccx.net_power_pct:.0f}%",
               "l2d 29.2% vs spc 55.1% / ccx 57.6%"),
        _check("CCX net-power share is high",
               ccx.net_power_pct > 40.0,
               f"{ccx.net_power_pct:.0f}%", "57.6%"),
        _check("the five folded types qualify",
               all(by_name[t].qualifies
                   for t in ("spc", "ccx", "l2d", "l2t", "rtx")),
               ", ".join(t for t in ("spc", "ccx", "l2d", "l2t", "rtx")
                         if by_name[t].qualifies),
               "SPC, CCX, L2D, L2T, RTX folded"),
    ]
    return ExperimentResult("table3", "folding candidate selection", table,
                            checks, data={"rows": rows,
                                          "designs": designs})


# ---------------------------------------------------------------------------
# Table 4: L2 data bank folding
# ---------------------------------------------------------------------------

@experiment("table4", "L2 data bank folding")
def _table4(opts: ExperimentOptions) -> ExperimentResult:
    """Table 4: folding the memory-dominated L2 data bank barely helps."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    d2 = _flow("l2d", FlowConfig(scale=scale, seed=seed), process, cache)
    d3 = _flow("l2d", FlowConfig(
        scale=scale, seed=seed,
        fold=FoldSpec(mode="regions",
                      die1_regions=("subbank2", "subbank3")),
        bonding="F2B"), process, cache)
    table = format_table("Table 4: 2D vs 3D (folded) L2 data bank",
                         ["2D", "3D"], design_metric_rows([d2, d3]))
    p = relative(d3.power.total_uw, d2.power.total_uw)
    checks = [
        _check("footprint shrinks a lot",
               relative(d3.footprint_um2, d2.footprint_um2) < -0.25,
               f"{relative(d3.footprint_um2, d2.footprint_um2):+.1%}",
               "-48.4%"),
        _check("power saving is small (memory dominated)",
               -0.10 < p < 0.02, f"{p:+.1%}", "-5.1%"),
        _check("buffers do not grow",
               d3.n_buffers <= d2.n_buffers * 1.05,
               f"{relative(d3.n_buffers, d2.n_buffers):+.1%}", "-33.5%"),
    ]
    return ExperimentResult("table4", "L2 data bank folding", table,
                            checks, data={"2d": d2, "3d": d3})


# ---------------------------------------------------------------------------
# Fig. 2: CCX folding
# ---------------------------------------------------------------------------

@experiment("fig2", "CCX folding and TSV-count sweep")
def _fig2(opts: ExperimentOptions) -> ExperimentResult:
    """Fig. 2: the CCX's natural PCX/CPX fold, plus the TSV-count sweep."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    d2 = _flow("ccx", FlowConfig(scale=scale, seed=seed), process, cache)
    natural = _flow("ccx", FlowConfig(
        scale=scale, seed=seed,
        fold=FoldSpec(mode="regions", die1_regions=("cpx",)),
        bonding="F2B"), process, cache)
    many_tsv = _flow("ccx", FlowConfig(
        scale=scale, seed=seed,
        fold=FoldSpec(mode="interleave", interleave_period=1),
        bonding="F2B"), process, cache)
    table = format_table(
        "Fig. 2: CCX folding (2D vs natural fold vs many-TSV fold)",
        ["2D", "3D natural", "3D interleaved"],
        design_metric_rows([d2, natural, many_tsv]))
    p_nat = relative(natural.power.total_uw, d2.power.total_uw)
    p_many = relative(many_tsv.power.total_uw, d2.power.total_uw)
    checks = [
        _check("natural fold needs only a handful of TSVs",
               natural.n_vias <= 6, f"{natural.n_vias} TSVs", "4 TSVs"),
        _check("footprint halves",
               relative(natural.footprint_um2, d2.footprint_um2) < -0.40,
               f"{relative(natural.footprint_um2, d2.footprint_um2):+.1%}",
               "-54.6%"),
        _check("buffers drop sharply",
               relative(natural.n_buffers, d2.n_buffers) < -0.25,
               f"{relative(natural.n_buffers, d2.n_buffers):+.1%}",
               "-62.5%"),
        _check("power drops double-digit",
               p_nat < -0.10, f"{p_nat:+.1%}", "-32.8%"),
        _check("many TSVs reduce the benefit",
               p_many > p_nat and many_tsv.n_vias > 50 * natural.n_vias,
               f"{p_many:+.1%} at {many_tsv.n_vias} TSVs",
               "-23.4% at 6,393 TSVs"),
    ]
    return ExperimentResult("fig2", "CCX folding", table, checks,
                            data={"2d": d2, "natural": natural,
                                  "many_tsv": many_tsv})


# ---------------------------------------------------------------------------
# Fig. 3: SPC second-level folding
# ---------------------------------------------------------------------------

@experiment("fig3", "SPC second-level folding")
def _fig3(opts: ExperimentOptions) -> ExperimentResult:
    """Fig. 3: second-level (FUB) folding of the SPARC core."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    study = spc_folding_study(process, FlowConfig(scale=scale, seed=seed),
                              cache=cache)
    table = format_table(
        "Fig. 3: SPC second-level folding",
        ["2D", "block-level 3D", "second-level 3D"],
        design_metric_rows([study.flat_2d, study.block_level_3d,
                            study.second_level_3d]))
    d_wl, d_wl2d = study.improvement("wirelength")
    d_buf, _ = study.improvement("buffers")
    d_p, d_p2d = study.improvement("power")
    # Known limitation (see EXPERIMENTS.md): the paper measures a further
    # -5.1% power for second-level folding over the block-level 3D core.
    # With statistical netlists the two 3D styles land within placement
    # noise of each other -- the model reproduces the large 3D-vs-2D
    # savings but cannot resolve the small second-level delta.
    checks = [
        _check("both 3D cores sharply cut wirelength vs 2D",
               d_wl2d < -0.08, f"{d_wl2d:+.1%}", "SPC 3D WL well below 2D"),
        _check("second-level tracks block-level 3D on wirelength",
               abs(d_wl) < 0.06, f"{d_wl:+.1%}", "-9.2%"),
        _check("second-level tracks block-level 3D on power",
               abs(d_p) < 0.05, f"{d_p:+.1%}", "-5.1%"),
        _check("3D SPC saves double-digit power vs 2D",
               d_p2d < -0.08, f"{d_p2d:+.1%}", "-21.2%"),
        _check("second-level 3D footprint halves vs 2D",
               study.second_level_3d.footprint_um2 <
               0.62 * study.flat_2d.footprint_um2,
               f"{study.second_level_3d.footprint_um2 / study.flat_2d.footprint_um2 - 1:+.1%}",
               "folded SPC on two tiers"),
    ]
    return ExperimentResult("fig3", "SPC second-level folding", table,
                            checks, data={"study": study})


# ---------------------------------------------------------------------------
# Fig. 6: bonding style impact on placement/footprint
# ---------------------------------------------------------------------------

@experiment("fig6", "bonding style placement impact")
def _fig6(opts: ExperimentOptions) -> ExperimentResult:
    """Fig. 6: F2F vias over macros shrink folded footprints vs TSVs."""
    from ..core.bonding import compare_bonding
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    base = FlowConfig(scale=scale, seed=seed)
    l2t = compare_bonding("l2t", FoldSpec(mode="mincut"), process, base,
                          label="l2t", cache=cache)
    l2d = compare_bonding(
        "l2d", FoldSpec(mode="regions",
                        die1_regions=("subbank2", "subbank3")),
        process, base, label="l2d", cache=cache)
    rows = [
        MetricRow("l2t footprint (mm^2)",
                  [l2t.f2b.footprint_um2, l2t.f2f.footprint_um2],
                  unit_scale=1e-6, fmt="{:.4f}"),
        MetricRow("l2d footprint (mm^2)",
                  [l2d.f2b.footprint_um2, l2d.f2f.footprint_um2],
                  unit_scale=1e-6, fmt="{:.4f}"),
        MetricRow("l2t wirelength (m)",
                  [l2t.f2b.wirelength_um, l2t.f2f.wirelength_um],
                  unit_scale=1e-6, fmt="{:.3f}"),
        MetricRow("l2t buffers",
                  [l2t.f2b.n_buffers, l2t.f2f.n_buffers], fmt="{:.0f}"),
        MetricRow("l2t power (mW)",
                  [l2t.f2b.power.total_uw, l2t.f2f.power.total_uw],
                  unit_scale=1e-3),
    ]
    table = format_table("Fig. 6: bonding style impact on folded blocks",
                         ["F2B (TSV)", "F2F via"], rows)
    checks = [
        _check("F2F shrinks the folded l2t footprint",
               l2t.footprint_gain < 0.0, f"{l2t.footprint_gain:+.1%}",
               "-2.6%"),
        _check("F2F shrinks the folded l2d footprint",
               l2d.footprint_gain < 0.0, f"{l2d.footprint_gain:+.1%}",
               "-6.3%"),
        _check("TSVs consume silicon, F2F vias do not",
               l2t.f2b.tsv_area_um2 > 0 and l2t.f2f.tsv_area_um2 == 0,
               f"{l2t.f2b.tsv_area_um2:.0f} vs "
               f"{l2t.f2f.tsv_area_um2:.0f} um^2",
               "TSV area ~10%, F2F vias over macros"),
        _check("F2F cuts l2t wirelength",
               l2t.wirelength_gain < 0.0, f"{l2t.wirelength_gain:+.1%}",
               "-11.1%"),
        _check("F2F cuts l2t power",
               l2t.power_gain < 0.0, f"{l2t.power_gain:+.1%}", "-4.1%"),
    ]
    return ExperimentResult("fig6", "bonding style placement impact",
                            table, checks, data={"l2t": l2t, "l2d": l2d})


# ---------------------------------------------------------------------------
# Fig. 7: bonding style power sweep over partitions
# ---------------------------------------------------------------------------

@experiment("fig7", "bonding style power sweep")
def _fig7(opts: ExperimentOptions) -> ExperimentResult:
    """Fig. 7: five L2T partitions, F2B vs F2F, power vs 3D connections."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    sweep = bonding_power_sweep("l2t", process,
                                FlowConfig(scale=scale, seed=seed),
                                cache=cache)
    d2 = _flow("l2t", FlowConfig(scale=scale, seed=seed), process, cache)
    lines = ["Fig. 7: bonding style impact on power (l2t fold)",
             f"{'case':>5s} {'#3D conn':>9s} {'F2B pwr/2D':>11s} "
             f"{'F2F pwr/2D':>11s} {'F2F vs F2B':>11s}"]
    for comp in sweep:
        f2b_rel = comp.f2b.power.total_uw / d2.power.total_uw
        f2f_rel = comp.f2f.power.total_uw / d2.power.total_uw
        lines.append(f"{comp.label:>5s} {comp.f2f.n_vias:9d} "
                     f"{f2b_rel:11.3f} {f2f_rel:11.3f} "
                     f"{comp.power_gain:+11.1%}")
    table = "\n".join(lines)
    gains = [c.power_gain for c in sweep]
    vias = [c.f2f.n_vias for c in sweep]
    last = sweep[-1]
    checks = [
        _check("F2F wins in every partition case",
               all(g <= 0.005 for g in gains),
               ", ".join(f"{g:+.1%}" for g in gains),
               "F2F wins over F2B in all cases"),
        _check("partition cases span a wide 3D-connection range",
               vias[-1] > 5 * vias[0],
               f"{vias[0]}..{vias[-1]}", "1,014..5,073"),
        _check("F2F advantage is largest with the most 3D connections",
               min(gains) == min(gains[-2:]),
               f"best gain {min(gains):+.1%} at case "
               f"#{gains.index(min(gains)) + 1}",
               "-16.2% at partition #5"),
    ]
    return ExperimentResult("fig7", "bonding style power sweep", table,
                            checks, data={"sweep": sweep, "2d": d2})


# ---------------------------------------------------------------------------
# Fig. 8: the five full-chip styles
# ---------------------------------------------------------------------------

@experiment("fig8", "five full-chip design styles")
def _fig8(opts: ExperimentOptions) -> ExperimentResult:
    """Fig. 8: GDSII-style comparison of the five full-chip layouts."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    styles = ("2d", "core_cache", "core_core", "fold_f2b", "fold_f2f")
    chips = {s: build_chip(ChipConfig(style=s, scale=scale, seed=seed),
                           process, cache=cache)
             for s in styles}
    lines = ["Fig. 8: full-chip design styles",
             f"{'style':>12s} {'footprint mm^2':>15s} {'dies':>5s} "
             f"{'#3D conn':>9s} {'power mW':>10s}"]
    for s in styles:
        c = chips[s]
        lines.append(f"{s:>12s} {c.footprint_um2/1e6:15.2f} "
                     f"{c.floorplan.n_dies:5d} {c.n_3d_connections:9d} "
                     f"{c.power.total_uw/1e3:10.1f}")
    table = "\n".join(lines)
    c2, cc, co = chips["2d"], chips["core_cache"], chips["core_core"]
    fb, ff = chips["fold_f2b"], chips["fold_f2f"]
    checks = [
        _check("3D styles roughly halve the footprint",
               all(relative(c.footprint_um2, c2.footprint_um2) < -0.30
                   for c in (cc, co, fb, ff)),
               ", ".join(f"{relative(c.footprint_um2, c2.footprint_um2):+.0%}"
                         for c in (cc, co, fb, ff)),
               "9x7.9mm2 -> ~6x6.5mm2"),
        _check("3D connections: core/cache < core/core < folded",
               cc.n_3d_connections < co.n_3d_connections
               < fb.n_3d_connections,
               f"{cc.n_3d_connections} < {co.n_3d_connections} < "
               f"{fb.n_3d_connections}",
               "3,263 < 7,606 < 69,091"),
        _check("folded F2F uses at least as many 3D connections as F2B",
               ff.n_3d_connections >= fb.n_3d_connections,
               f"{ff.n_3d_connections} vs {fb.n_3d_connections}",
               "112,308 vs 69,091"),
    ]
    return ExperimentResult("fig8", "full-chip design styles", table,
                            checks, data=chips)


# ---------------------------------------------------------------------------
# Table 5: dual-Vth full-chip comparison
# ---------------------------------------------------------------------------

@experiment("table5", "full-chip dual-Vth comparison")
def _table5(opts: ExperimentOptions) -> ExperimentResult:
    """Table 5: 2D vs 3D w/o folding vs 3D w/ folding, dual-Vth."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    d2 = build_chip(ChipConfig(style="2d", dual_vth=True, scale=scale,
                               seed=seed), process, cache=cache)
    nf = build_chip(ChipConfig(style="core_cache", dual_vth=True,
                               scale=scale, seed=seed), process,
                    cache=cache)
    wf = build_chip(ChipConfig(style="fold_f2f", dual_vth=True,
                               scale=scale, seed=seed), process,
                    cache=cache)
    table = format_table(
        "Table 5: full-chip comparison with dual-Vth",
        ["2D", "3D w/o folding", "3D w/ folding"],
        design_metric_rows([d2, nf, wf], kind="chip"))
    p_nf = relative(nf.power.total_uw, d2.power.total_uw)
    p_wf = relative(wf.power.total_uw, d2.power.total_uw)
    p_fold = relative(wf.power.total_uw, nf.power.total_uw)
    checks = [
        _check("3D w/o folding saves double-digit power",
               p_nf < -0.08, f"{p_nf:+.1%}", "-13.7%"),
        _check("3D w/ folding saves the most",
               p_wf < p_nf, f"{p_wf:+.1%}", "-20.3%"),
        _check("folding adds savings on top of stacking",
               p_fold < -0.01, f"{p_fold:+.1%}", "-10.0%"),
        _check("HVT usage is high in all designs",
               min(d2.hvt_fraction, nf.hvt_fraction,
                   wf.hvt_fraction) > 0.70,
               f"{d2.hvt_fraction:.0%}/{nf.hvt_fraction:.0%}/"
               f"{wf.hvt_fraction:.0%}", "87.8%/90.0%/94.0%"),
        _check("3D w/ folding cuts the most buffers",
               relative(wf.n_buffers, d2.n_buffers) <
               relative(nf.n_buffers, d2.n_buffers),
               f"{relative(wf.n_buffers, d2.n_buffers):+.1%} vs "
               f"{relative(nf.n_buffers, d2.n_buffers):+.1%}",
               "-22.8% vs -17.9%"),
    ]
    return ExperimentResult("table5", "full-chip dual-Vth comparison",
                            table, checks,
                            data={"2d": d2, "no_fold": nf, "fold": wf})


# ---------------------------------------------------------------------------
# Section 6.2 claim: DVT vs RVT twins
# ---------------------------------------------------------------------------

@experiment("dvt", "dual-Vth benefit (Section 6.2)")
def _dvt_claim(opts: ExperimentOptions) -> ExperimentResult:
    """Section 6.2: dual-Vth saves ~10% vs the RVT-only twin designs."""
    process = opts.resolved_process()
    scale, seed, cache = opts.scale, opts.seed, opts.cache
    rvt2d = build_chip(ChipConfig(style="2d", scale=scale, seed=seed),
                       process, cache=cache)
    dvt2d = build_chip(ChipConfig(style="2d", dual_vth=True, scale=scale,
                                  seed=seed), process, cache=cache)
    rvtf = build_chip(ChipConfig(style="fold_f2f", scale=scale,
                                 seed=seed), process, cache=cache)
    dvtf = build_chip(ChipConfig(style="fold_f2f", dual_vth=True,
                                 scale=scale, seed=seed), process,
                      cache=cache)
    g2 = relative(dvt2d.power.total_uw, rvt2d.power.total_uw)
    gf = relative(dvtf.power.total_uw, rvtf.power.total_uw)
    rows = [
        MetricRow("2D power (mW)",
                  [rvt2d.power.total_uw, dvt2d.power.total_uw],
                  unit_scale=1e-3),
        MetricRow("3D-fold power (mW)",
                  [rvtf.power.total_uw, dvtf.power.total_uw],
                  unit_scale=1e-3),
    ]
    table = format_table("Section 6.2: RVT-only vs dual-Vth",
                         ["RVT only", "dual-Vth"], rows)
    checks = [
        _check("DVT saves power in 2D", g2 < -0.03, f"{g2:+.1%}", "-9.5%"),
        _check("DVT saves power in folded 3D", gf < -0.03, f"{gf:+.1%}",
               "-11.4%"),
        _check("3D benefits from DVT at least as much as 2D",
               gf <= g2 + 0.02, f"{gf:+.1%} vs {g2:+.1%}",
               "-11.4% vs -9.5%"),
    ]
    return ExperimentResult("dvt", "dual-Vth benefit", table, checks)


# ---------------------------------------------------------------------------
# ECO: neighboring-scenario derivation on the incremental engine
# ---------------------------------------------------------------------------

@experiment("eco", "incremental ECO scenario derivation (bit-exact)")
def _eco(opts: ExperimentOptions) -> ExperimentResult:
    """Derive a neighboring I/O-budget + dual-Vth scenario by ECO.

    Runs the flow once on the base scenario, then derives the
    neighboring Fig. 8-style scenario twice -- on the incremental
    engine and with every incremental path disabled -- and holds the
    two sign-off designs byte-equal while the incremental run reuses
    almost all of the base design's routing and timing work.
    """
    import json
    from dataclasses import replace

    from ..eco.driver import EcoConfig, derive_design
    from .export_json import block_to_dict

    process = opts.resolved_process()
    cache = opts.cache
    base_cfg = FlowConfig(scale=opts.scale, seed=opts.seed,
                          io_budget_ps=60.0)
    base = _flow("l2t", base_cfg, process, cache)
    neighbor = replace(base_cfg, io_budget_ps=90.0, dual_vth=True,
                       eco=EcoConfig())
    d_inc, rep_inc = derive_design(base, neighbor, process)
    d_full, rep_full = derive_design(
        base, replace(neighbor, eco=EcoConfig(full_recompute=True)),
        process)

    inc_json = json.dumps(block_to_dict(d_inc), sort_keys=True)
    full_json = json.dumps(block_to_dict(d_full), sort_keys=True)
    inc_rr = rep_inc.session_stats.get("nets_rerouted", 0)
    full_rr = rep_full.session_stats.get("nets_rerouted", 0)
    reuse = 1.0 - inc_rr / full_rr if full_rr else 1.0
    rows = [
        MetricRow("power (mW)",
                  [base.power.total_uw, d_inc.power.total_uw],
                  unit_scale=1e-3),
        MetricRow("WNS (ps)", [base.sta.wns_ps, d_inc.sta.wns_ps]),
        MetricRow("buffers", [base.n_buffers, d_inc.n_buffers]),
        MetricRow("HVT fraction",
                  [base.hvt_fraction, d_inc.hvt_fraction]),
    ]
    table = format_table(
        "ECO: derived neighboring scenario (io 60->90 ps, +dual-Vth)",
        ["base", "derived"], rows)
    checks = [
        _check("incremental == full recompute, byte-equal",
               inc_json == full_json,
               "equal" if inc_json == full_json else "DIFFER",
               "bit-exact by construction"),
        _check("derived scenario reuses >=90% of the routing work",
               reuse >= 0.90, f"{reuse:.1%} reuse "
               f"({inc_rr} vs {full_rr} nets rerouted)",
               ">=90%"),
        _check("no from-scratch STA in the derived run",
               rep_inc.session_stats.get("sta_full_rebuilds", 0) == 0,
               f"{rep_inc.session_stats.get('sta_full_rebuilds', 0)} "
               "full rebuilds", "0"),
        _check("derived design meets the slack target",
               d_inc.sta.wns_ps >= rep_inc.target_wns_ps,
               f"wns {d_inc.sta.wns_ps:.1f} ps", ">= 0 ps"),
    ]
    return ExperimentResult(
        "eco", "incremental ECO scenario derivation", table, checks,
        data={"base": base, "derived": d_inc,
              "closure": rep_inc, "closure_full": rep_full})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def run_experiment(experiment_id: str,
                   opts: Optional[ExperimentOptions] = None,
                   *,
                   process: Optional[ProcessNode] = None,
                   scale: Optional[float] = None, cache=None,
                   seed: Optional[int] = None) -> ExperimentResult:
    """Run one registered experiment by id -- the single entry point.

    Args:
        experiment_id: key in :data:`REGISTRY`.
        opts: the options bundle.  Building one explicitly is the
            preferred API; the keyword arguments below survive for
            pre-registry callers and fill in an options object when
            ``opts`` is omitted.
        process: technology node (default: :func:`make_process`).
        scale: model-scale multiplier.
        cache: optional :class:`repro.core.cache.DesignCache`.
        seed: generation/placement seed threaded into every flow.

    Raises:
        UnknownExperimentError: when the id is not registered (a
            :class:`KeyError` subclass whose message lists every valid
            id).
        TypeError: when both ``opts`` and legacy keywords are given.

    The run is wrapped in an ``experiment`` span carrying the id, scale
    and seed; ``opts.trace=False`` suppresses span/metric recording for
    the duration of the run.
    """
    exp = REGISTRY.get(experiment_id)
    if exp is None:
        raise UnknownExperimentError(experiment_id)
    if opts is None:
        opts = ExperimentOptions(
            process=process,
            scale=1.0 if scale is None else scale,
            seed=1 if seed is None else seed,
            cache=cache)
    elif (process is not None or scale is not None or cache is not None
          or seed is not None):
        raise TypeError("pass either an ExperimentOptions or legacy "
                        "keyword arguments, not both")
    if not opts.trace:
        with trace.disabled():
            return exp.fn(opts)
    with trace.span("experiment", id=exp.id, scale=opts.scale,
                    seed=opts.seed, cached=opts.cache is not None):
        return exp.fn(opts)


# ---------------------------------------------------------------------------
# Deterministic JSON serialization
# ---------------------------------------------------------------------------

class _Skip:
    """Sentinel: value has no deterministic JSON form; drop it."""


_SKIP = _Skip()


def _json_value(obj: Any) -> Any:
    """Recursively convert experiment payloads to JSON-ready values.

    Designs go through the export_json converters (sign-off metrics, not
    netlists); other dataclasses (bonding comparisons, fold-candidate
    rows, study results) are walked field by field; values with no
    stable serialization (and wall-clock timings) are dropped so the
    output bytes depend only on (code, seed, scale).
    """
    from ..core.fullchip import ChipDesign
    from .export_json import block_to_dict, chip_to_dict
    if isinstance(obj, BlockDesign):
        return block_to_dict(obj)
    if isinstance(obj, ChipDesign):
        return chip_to_dict(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            jv = _json_value(v)
            if not isinstance(jv, _Skip):
                out[str(k)] = jv
        return out
    if isinstance(obj, (list, tuple)):
        return [jv for jv in (_json_value(v) for v in obj)
                if not isinstance(jv, _Skip)]
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclass_fields(obj):
            jv = _json_value(getattr(obj, f.name))
            if not isinstance(jv, _Skip):
                out[f.name] = jv
        return out
    return _SKIP


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Serialize an :class:`ExperimentResult` into plain JSON-ready data.

    Two runs of the same experiment with the same code, seed and scale
    produce byte-identical :func:`experiment_json` output -- regardless
    of serial vs parallel execution or cold vs warm caches.  The
    determinism test layer relies on this.
    """
    return {
        "experiment_id": result.experiment_id,
        "description": result.description,
        "all_passed": result.all_passed,
        "table": result.table,
        "checks": [{"name": c.name, "passed": c.passed,
                    "measured": c.measured, "paper": c.paper}
                   for c in result.checks],
        "data": _json_value(result.data),
    }


def experiment_json(result: ExperimentResult, indent: int = 2) -> str:
    """Key-sorted JSON text of one experiment result."""
    return json.dumps(result_to_dict(result), sort_keys=True,
                      indent=indent)
