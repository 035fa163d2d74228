"""Design-space exploration over the study's axes.

The paper walks a handful of hand-picked points (five styles, two
bonding options, two libraries); a downstream user wants the whole grid
and its Pareto front.  This module sweeps design-style x bonding x
library configurations, collects power / footprint / temperature /
3D-connection metrics for each, and extracts the Pareto-optimal set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..tech.process import ProcessNode
from ..thermal.model import analyze_chip_thermal
from .fullchip import ChipConfig, build_chip

#: the paper's design axes
DEFAULT_GRID: Tuple[Tuple[str, bool], ...] = (
    ("2d", False), ("2d", True),
    ("core_cache", False), ("core_cache", True),
    ("core_core", True),
    ("fold_f2b", True),
    ("fold_f2f", False), ("fold_f2f", True),
)


@dataclass
class DesignPoint:
    """One evaluated configuration."""

    style: str
    dual_vth: bool
    power_mw: float
    footprint_mm2: float
    max_temp_c: float
    n_3d_connections: int
    wns_ps: float

    @property
    def label(self) -> str:
        vth = "dvt" if self.dual_vth else "rvt"
        return f"{self.style}/{vth}"

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (power, footprint, temperature)."""
        no_worse = (self.power_mw <= other.power_mw and
                    self.footprint_mm2 <= other.footprint_mm2 and
                    self.max_temp_c <= other.max_temp_c)
        better = (self.power_mw < other.power_mw or
                  self.footprint_mm2 < other.footprint_mm2 or
                  self.max_temp_c < other.max_temp_c)
        return no_worse and better


@dataclass
class ExplorationResult:
    """All evaluated points plus the Pareto set."""

    points: List[DesignPoint]
    pareto: List[DesignPoint]

    def best(self, metric: str) -> DesignPoint:
        key = {
            "power": lambda p: p.power_mw,
            "footprint": lambda p: p.footprint_mm2,
            "temperature": lambda p: p.max_temp_c,
        }[metric]
        return min(self.points, key=key)

    def table(self) -> str:
        lines = [f"{'config':18s}{'power mW':>10s}{'mm^2/tier':>11s}"
                 f"{'max C':>8s}{'3D conn':>9s}{'pareto':>8s}"]
        front = {id(p) for p in self.pareto}
        for p in sorted(self.points, key=lambda q: q.power_mw):
            lines.append(
                f"{p.label:18s}{p.power_mw:10.1f}"
                f"{p.footprint_mm2:11.2f}{p.max_temp_c:8.1f}"
                f"{p.n_3d_connections:9d}"
                f"{'*' if id(p) in front else '':>8s}")
        return "\n".join(lines)


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset of the evaluated points."""
    return [p for p in points
            if not any(q.dominates(p) for q in points if q is not p)]


def evaluate_point(process: ProcessNode, style: str, dual_vth: bool,
                   scale: float = 0.7, seed: int = 1,
                   cache=None) -> DesignPoint:
    """Build and measure one grid configuration."""
    chip = build_chip(ChipConfig(style=style, dual_vth=dual_vth,
                                 scale=scale, seed=seed), process,
                      cache=cache)
    thermal = analyze_chip_thermal(chip)
    return DesignPoint(
        style=style, dual_vth=dual_vth,
        power_mw=chip.power.total_uw / 1e3,
        footprint_mm2=chip.footprint_um2 / 1e6,
        max_temp_c=thermal.max_c,
        n_3d_connections=chip.n_3d_connections,
        wns_ps=chip.wns_ps)


def explore_design_space(process: ProcessNode,
                         grid: Iterable[Tuple[str, bool]] = DEFAULT_GRID,
                         scale: float = 0.7,
                         seed: int = 1,
                         parallel: int = 0,
                         cache_dir=None) -> ExplorationResult:
    """Evaluate every configuration in ``grid``.

    Args:
        process: technology node.
        grid: (style, dual_vth) pairs to build.
        scale: model scale (the default keeps the sweep to minutes).
        seed: generation seed.
        parallel: worker count; ``0``/``1`` evaluates in-process,
            anything higher runs each grid point in its own supervised
            worker (same numbers, same order).
        cache_dir: optional persistent design-cache directory (shared
            by all workers when parallel).

    Returns:
        The evaluated points and their Pareto front.

    Raises:
        repro.parallel.engine.EngineError: when a grid point fails.
    """
    from ..parallel.engine import explore_points
    points = explore_points(process, list(grid), scale=scale, seed=seed,
                            parallel=parallel, cache_dir=cache_dir)
    return ExplorationResult(points=points, pareto=pareto_front(points))
