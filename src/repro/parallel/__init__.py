"""Parallel experiment execution and design-space fan-out."""

from .engine import (BenchReport, EngineError, ExperimentRun,
                     ResilienceConfig, explore_points, run_sweep,
                     run_sweep_point)

__all__ = ["BenchReport", "EngineError", "ExperimentRun",
           "ResilienceConfig", "explore_points", "run_sweep",
           "run_sweep_point"]
