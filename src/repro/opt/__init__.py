"""Timing/power optimization: buffering, sizing, dual-Vth, staged flow."""

from .buffering import BufferingConfig, insert_buffers, optimal_spacing_um
from .clockgate import (ClockGatingResult, flop_input_activity,
                        insert_clock_gates)
from .dualvth import (assign_hvt, hvt_fraction, plan_hvt_swaps,
                      plan_rvt_restores, restore_rvt_on_violations)
from .flow import OptimizeConfig, OptimizeResult, optimize_block
from .scan import (ScanChain, ScanResult, insert_scan_chains,
                   scan_order_quality)
from .sizing import (Move, SizingConfig, apply_moves, fix_timing,
                     plan_downsizes, plan_upsizes, recover_power)

__all__ = [
    "BufferingConfig", "insert_buffers", "optimal_spacing_um",
    "ClockGatingResult", "flop_input_activity", "insert_clock_gates",
    "assign_hvt", "hvt_fraction", "plan_hvt_swaps",
    "plan_rvt_restores", "restore_rvt_on_violations", "OptimizeConfig",
    "OptimizeResult", "optimize_block", "Move", "SizingConfig",
    "apply_moves", "fix_timing", "plan_downsizes", "plan_upsizes",
    "recover_power",
    "ScanChain", "ScanResult", "insert_scan_chains",
    "scan_order_quality",
]
