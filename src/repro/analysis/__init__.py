"""Reports, the paper-experiment registry, and ablations."""

from .ablations import (CriteriaAblation, MacroHoleAblation, TsvPitchPoint,
                        ablate_folding_criteria, ablate_macro_holes,
                        sweep_tsv_pitch)
from .corners import CornerReport, analyze_corners, signoff_summary
from .cost import (CostModel, DieCost, cost_2d, cost_3d, cost_comparison,
                   die_yield, dies_per_wafer, format_cost_table)
from .coupling import CouplingResult, coupling_power, coupling_study
from .irdrop import IrDropResult, analyze_chip_ir_drop, solve_ir_drop
from .experiments import (REGISTRY, Experiment, ExperimentOptions,
                          ExperimentResult, ShapeCheck,
                          UnknownExperimentError, run_experiment)
from .layout_svg import render_block_svg, render_chip_svg
from .report import MetricRow, design_metric_rows, format_table, relative
from .export_json import block_to_dict, chip_to_dict, dump_json
from .frequency import (FrequencyPoint, benefit_trend, format_sweep,
                        frequency_sweep)
from .report_card import chip_report_card
from .stability import (StabilityResult, compare_stability,
                        fold_stability)

__all__ = [
    "CriteriaAblation", "MacroHoleAblation", "TsvPitchPoint",
    "ablate_folding_criteria", "ablate_macro_holes", "sweep_tsv_pitch",
    "REGISTRY", "Experiment", "ExperimentOptions",
    "ExperimentResult", "ShapeCheck",
    "UnknownExperimentError", "run_experiment",
    "CornerReport", "analyze_corners", "signoff_summary",
    "CostModel", "DieCost", "cost_2d", "cost_3d", "cost_comparison",
    "die_yield", "dies_per_wafer", "format_cost_table",
    "CouplingResult", "coupling_power", "coupling_study",
    "IrDropResult", "analyze_chip_ir_drop", "solve_ir_drop",
    "render_block_svg", "render_chip_svg",
    "MetricRow", "design_metric_rows", "format_table", "relative",
    "chip_report_card", "block_to_dict", "chip_to_dict",
    "dump_json", "StabilityResult", "compare_stability",
    "fold_stability", "FrequencyPoint", "benefit_trend",
    "format_sweep", "frequency_sweep",
]
