"""Bonding-style studies: F2B vs F2F on folded blocks (Section 5).

Face-to-back bonding connects the tiers with TSVs, which consume silicon,
are pitch-limited and cannot sit over macros; face-to-face bonding uses
tiny metal-to-metal vias with none of those restrictions.  The paper
shows F2F wins on every partition and that its advantage *grows with the
number of 3D connections* (Fig. 7): TSV area overhead is what kills
heavily-connected F2B partitions.

:func:`compare_bonding` runs one fold in both styles;
:func:`bonding_power_sweep` reproduces Fig. 7's five-partition sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..tech.process import ProcessNode
from .flow import BlockDesign, FlowConfig, memo_block, run_block_flow
from .folding import FoldSpec, partition_case_sweep


@dataclass
class BondingComparison:
    """One fold implemented in both bonding styles."""

    label: str
    f2b: BlockDesign
    f2f: BlockDesign

    @property
    def n_vias(self) -> Tuple[int, int]:
        return self.f2b.n_vias, self.f2f.n_vias

    @property
    def power_gain(self) -> float:
        """Relative power change of F2F vs F2B (negative = F2F wins)."""
        return self.f2f.power.total_uw / self.f2b.power.total_uw - 1.0

    @property
    def footprint_gain(self) -> float:
        """Relative footprint change of F2F vs F2B."""
        return self.f2f.footprint_um2 / self.f2b.footprint_um2 - 1.0

    @property
    def wirelength_gain(self) -> float:
        return self.f2f.wirelength_um / self.f2b.wirelength_um - 1.0


def compare_bonding(block: str, fold: FoldSpec, process: ProcessNode,
                    base: Optional[FlowConfig] = None,
                    label: str = "", cache=None) -> BondingComparison:
    """Implement one fold in F2B and F2F and compare.

    Pass a :class:`repro.core.cache.DesignCache` to reuse designs across
    repeated comparisons (sweeps, warm benchmark runs).
    """
    base = base or FlowConfig()

    def flow(cfg: FlowConfig):
        if cache is not None:
            return cache.get_or_run(block, cfg, process)
        return run_block_flow(block, cfg, process)

    f2b = flow(replace(base, fold=fold, bonding="F2B"))
    f2f = flow(replace(base, fold=fold, bonding="F2F"))
    return BondingComparison(label=label or fold.mode, f2b=f2b, f2f=f2f)


def bonding_power_sweep(block: str, process: ProcessNode,
                        base: Optional[FlowConfig] = None,
                        cache=None) -> List[BondingComparison]:
    """The Fig. 7 sweep: five partition cases, both bonding styles.

    Returns comparisons in partition-case order (#1..#5, increasing 3D
    connection count).
    """
    base = base or FlowConfig()
    gb = memo_block(block, process.library, base.seed, base.scale)
    out: List[BondingComparison] = []
    for label, fold in partition_case_sweep(gb):
        out.append(compare_bonding(block, fold, process, base, label=label,
                                   cache=cache))
    return out
