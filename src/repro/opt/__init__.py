"""Timing/power optimization: buffering, sizing, dual-Vth, staged flow."""

from .buffering import optimal_spacing_um, plan_buffers
from .clockgate import (ClockGatingResult, flop_input_activity,
                        insert_clock_gates)
from .dualvth import (hvt_fraction, plan_hvt_swaps, plan_rvt_restores,
                      restore_rvt_on_violations)
from .flow import OptimizeResult, optimize_block
from .scan import (ScanChain, ScanResult, insert_scan_chains,
                   scan_order_quality)
from .sizing import (Move, apply_moves, fix_timing, plan_downsizes,
                     plan_upsizes)

__all__ = [
    "optimal_spacing_um", "plan_buffers",
    "ClockGatingResult", "flop_input_activity", "insert_clock_gates",
    "hvt_fraction", "plan_hvt_swaps",
    "plan_rvt_restores", "restore_rvt_on_violations",
    "OptimizeResult", "optimize_block", "Move",
    "apply_moves", "fix_timing", "plan_downsizes", "plan_upsizes",
    "ScanChain", "ScanResult", "insert_scan_chains",
    "scan_order_quality",
]
