"""Second-level folding of the SPARC core (paper Section 4.5, Fig. 3).

The SPC is the highest-power block in the T2, so the paper pushes folding
one level deeper: instead of only assigning whole functional unit blocks
(FUBs) to tiers -- a *block-level 3D* design of the core -- six of the 14
FUBs (the two integer units, the FP/graphics unit, the load/store unit,
the trap unit and the fetch datapath) are themselves split across the
tiers.  The paper measures 9.2% shorter wires, 10.8% fewer buffers and
5.1% less power than the block-level 3D core, and 21.2% less power than
the 2D core.

:func:`spc_folding_study` runs all three designs and returns them for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..designgen.t2 import SPC_FOLDED_FUBS
from ..tech.process import ProcessNode
from .cache import block_design
from .flow import BlockDesign, FlowConfig
from .folding import FoldSpec


@dataclass
class SpcStudyResult:
    """The three SPC designs of the second-level folding study."""

    flat_2d: BlockDesign
    block_level_3d: BlockDesign
    second_level_3d: BlockDesign

    def improvement(self, metric: str) -> Tuple[float, float]:
        """(vs block-level 3D, vs 2D) relative change of a metric.

        Negative values are reductions; e.g. ``improvement("power")``
        returning ``(-0.05, -0.21)`` matches the paper's -5.1% / -21.2%.
        """
        def value(d: BlockDesign) -> float:
            if metric == "power":
                return d.power.total_uw
            if metric == "wirelength":
                return d.wirelength_um
            if metric == "buffers":
                return float(d.n_buffers)
            if metric == "footprint":
                return d.footprint_um2
            raise ValueError(f"unknown metric {metric!r}")

        v2 = value(self.second_level_3d)
        return (v2 / value(self.block_level_3d) - 1.0,
                v2 / value(self.flat_2d) - 1.0)


def fub_assign_spec() -> FoldSpec:
    """Block-level 3D core: whole FUBs assigned to tiers."""
    return FoldSpec(mode="fub_assign")


def second_level_spec(folded_fubs: Tuple[str, ...] = SPC_FOLDED_FUBS
                      ) -> FoldSpec:
    """Second-level folding: the given FUBs split across tiers."""
    return FoldSpec(mode="fub_fold", folded_regions=tuple(folded_fubs))


def spc_folding_study(process: ProcessNode,
                      base: Optional[FlowConfig] = None,
                      bonding: str = "F2F") -> SpcStudyResult:
    """Run the Fig. 3 study: 2D vs block-level 3D vs second-level 3D."""
    base = base or FlowConfig()
    flat = block_design("spc", replace(base, fold=None), process)
    block3d = block_design("spc", replace(base, fold=fub_assign_spec(),
                                          bonding=bonding), process)
    second = block_design("spc", replace(base, fold=second_level_spec(),
                                         bonding=bonding), process)
    return SpcStudyResult(flat_2d=flat, block_level_3d=block3d,
                          second_level_3d=second)
