"""Block folding: candidate selection and fold partitions (Section 4).

**Folding criteria** (Section 4.1).  A block is worth folding when

1. it consumes a significant share (>1%) of total system power,
2. its *net power* share is high (cell/leakage-dominated blocks, such as
   the memory-heavy L2 data bank, gain little from shorter wires), and
3. it contains many *long wires* (longer than 100x the standard-cell
   height), whose shortening delivers the net-power saving.

:func:`folding_candidates` evaluates all three on finished 2D block
designs and reproduces Table 3.

**Fold partitions** (Sections 4.3-4.5).  :func:`make_partition` turns a
:class:`FoldSpec` into a per-instance tier assignment:

* ``regions`` -- a natural partition: named regions (PCX/CPX, L2D
  sub-banks) to tier 1;
* ``mincut`` -- FM min-cut with area balance;
* ``interleave`` -- clusters striped across tiers with a period; shorter
  periods produce more 3D connections (the Fig. 7 partition-case sweep);
* ``fub_assign`` -- whole functional-unit blocks assigned to tiers (the
  SPC's *block-level 3D* baseline);
* ``fub_fold`` -- second-level folding: the named FUBs are split across
  tiers internally, the rest assigned whole (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..designgen.generate import GeneratedBlock
from ..place.partition import fm_bipartition, partition_by_clusters
from ..tech.process import CPU_CLOCK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flow import BlockDesign

FOLD_MODES = ("mincut", "regions", "interleave", "fub_assign", "fub_fold")
#: area balance tolerance of the min-cut partitions
BALANCE_TOL = 0.10


@dataclass(frozen=True)
class FoldSpec:
    """How to partition a block across the two tiers."""

    mode: str = "mincut"
    #: regions placed on tier 1 (mode="regions")
    die1_regions: Tuple[str, ...] = ()
    #: cluster stripe period (mode="interleave"); smaller = more 3D nets
    interleave_period: int = 2
    #: regions folded internally (mode="fub_fold")
    folded_regions: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in FOLD_MODES:
            raise ValueError(f"unknown fold mode {self.mode!r}")


def make_partition(gb: GeneratedBlock, spec: FoldSpec) -> Dict[int, int]:
    """Build the instance -> tier assignment for a fold spec."""
    netlist = gb.netlist
    if spec.mode == "mincut":
        return fm_bipartition(netlist, balance_tol=BALANCE_TOL).assignment

    if spec.mode == "regions":
        if not spec.die1_regions:
            raise ValueError("regions mode requires die1_regions")
        die1 = gb.clusters_of_regions(spec.die1_regions)
        return partition_by_clusters(netlist, die1)

    if spec.mode == "interleave":
        # stripe the (cluster-ordered) instance sequence across the tiers;
        # the stripe width is ``interleave_period`` instances, so period 1
        # alternates every instance (maximum 3D connections) and large
        # periods approach a locality-preserving half/half split
        period = max(1, spec.interleave_period)
        order = sorted(netlist.instances.values(),
                       key=lambda i: (i.cluster, i.id))
        return {inst.id: (idx // period) % 2
                for idx, inst in enumerate(order)}

    # FUB-granularity modes
    if not gb.regions:
        raise ValueError(f"block {netlist.name!r} has no regions")
    if spec.mode == "fub_assign":
        region_die = assign_regions_balanced(gb)
        return {i.id: region_die.get(gb.region_of_cluster(i.cluster), 0)
                for i in netlist.instances.values()}

    # fub_fold: split named regions internally, assign the rest whole
    folded = set(spec.folded_regions)
    unknown = folded - set(gb.regions)
    if unknown:
        raise ValueError(f"unknown regions {sorted(unknown)}")
    region_die = assign_regions_balanced(
        gb, exclude=folded)
    assignment: Dict[int, int] = {}
    locked = set()
    for inst in netlist.instances.values():
        region = gb.region_of_cluster(inst.cluster)
        if region in folded:
            lo, hi = gb.regions[region]
            mid = (lo + hi) / 2.0
            assignment[inst.id] = 0 if inst.cluster < mid else 1
        else:
            assignment[inst.id] = region_die.get(region, 0)
            locked.add(inst.id)
    # refine the intra-FUB splits to min-cut (the mixed-size 3D placer's
    # job in the paper); whole-FUB assignments stay locked
    refined = fm_bipartition(netlist, initial=assignment, locked=locked,
                             balance_tol=BALANCE_TOL)
    return refined.assignment


def assign_regions_balanced(gb: GeneratedBlock,
                            exclude: Optional[set] = None) -> Dict[str, int]:
    """Greedy whole-region tier assignment balancing area.

    Excluded (internally-folded) regions contribute half their area to
    each tier, exactly as a folded FUB does.
    """
    exclude = exclude or set()
    area_of: Dict[str, float] = {name: 0.0 for name in gb.regions}
    for inst in gb.netlist.instances.values():
        region = gb.region_of_cluster(inst.cluster)
        if region is not None:
            area_of[region] += inst.area_um2
    load = [0.0, 0.0]
    for name in exclude:
        load[0] += area_of.get(name, 0.0) / 2.0
        load[1] += area_of.get(name, 0.0) / 2.0
    region_die: Dict[str, int] = {}
    for name in sorted((n for n in area_of if n not in exclude),
                       key=lambda n: -area_of[n]):
        die = 0 if load[0] <= load[1] else 1
        region_die[name] = die
        load[die] += area_of[name]
    return region_die


# ---------------------------------------------------------------------------
# folding criteria (Table 3)
# ---------------------------------------------------------------------------

@dataclass
class FoldingCandidate:
    """One row of the paper's Table 3."""

    block: str
    count: int
    total_power_pct: float
    net_power_pct: float
    long_wires: int
    clock_domain: str
    qualifies: bool

    @property
    def remark(self) -> str:
        clk = "CPU clock" if self.clock_domain == CPU_CLOCK else "I/O clock"
        mult = f", {self.count}X" if self.count > 1 else ""
        return clk + mult


def folding_candidates(designs: Dict[str, "BlockDesign"],
                       counts: Dict[str, int],
                       min_power_pct: float = 1.0,
                       min_net_pct: float = 25.0,
                       min_long_wires: int = 1) -> List[FoldingCandidate]:
    """Evaluate the Section 4.1 folding criteria on 2D block designs.

    Args:
        designs: block type -> 2D design (one instance each).
        counts: block type -> chip multiplicity.
        min_power_pct: criterion 1 threshold on per-block total-power %.
        min_net_pct: criterion 2 threshold on net-power share.
        min_long_wires: criterion 3 threshold.

    Returns:
        Candidates sorted by per-block total power share, descending --
        the layout of Table 3.
    """
    total = sum(d.power.total_uw * counts.get(name, 1)
                for name, d in designs.items())
    rows: List[FoldingCandidate] = []
    for name, d in designs.items():
        pct = 100.0 * d.power.total_uw / total if total > 0 else 0.0
        net_pct = 100.0 * d.power.net_fraction
        qualifies = (pct >= min_power_pct and net_pct >= min_net_pct
                     and d.long_wires >= min_long_wires)
        rows.append(FoldingCandidate(
            block=name,
            count=counts.get(name, 1),
            total_power_pct=pct,
            net_power_pct=net_pct,
            long_wires=d.long_wires,
            clock_domain=_domain_of(d),
            qualifies=qualifies,
        ))
    rows.sort(key=lambda r: -r.total_power_pct)
    return rows


def _domain_of(design: "BlockDesign") -> str:
    if design.generated is not None:
        return design.generated.block_type.logic.clock_domain
    return CPU_CLOCK


# ---------------------------------------------------------------------------
# the Fig. 7 partition-case sweep
# ---------------------------------------------------------------------------

def partition_case_sweep(gb: GeneratedBlock) -> List[Tuple[str, FoldSpec]]:
    """The five partition cases of Fig. 7, ordered by 3D connection count.

    Case #1 is the min-cut partition (fewest 3D nets); later cases stripe
    the cluster space with decreasing period, adding 3D connections.
    """
    cases: List[Tuple[str, FoldSpec]] = [("#1", FoldSpec(mode="mincut"))]
    if gb.regions and len(gb.regions) >= 2:
        names = tuple(sorted(gb.regions))
        cases.append(("#2", FoldSpec(mode="regions",
                                     die1_regions=names[1::2])))
    else:
        cases.append(("#2", FoldSpec(mode="interleave",
                                     interleave_period=256)))
    # stripe widths in instances: narrower stripes = more 3D connections
    cases += [
        ("#3", FoldSpec(mode="interleave", interleave_period=48)),
        ("#4", FoldSpec(mode="interleave", interleave_period=12)),
        ("#5", FoldSpec(mode="interleave", interleave_period=3)),
    ]
    return cases
