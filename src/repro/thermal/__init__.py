"""Compact thermal analysis of the 2-tier stack (paper future work)."""

from .model import (ThermalResult, analyze_chip_thermal, chip_power_maps,
                    solve_stack)

__all__ = ["ThermalResult", "analyze_chip_thermal", "chip_power_maps",
           "solve_stack"]
