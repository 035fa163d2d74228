"""Clock gating insertion.

Flops whose data inputs rarely change burn clock power for nothing; a
clock-gating cell (ICG) holds their clock line quiet until the enable
fires.  This pass:

1. takes per-net activities from :mod:`repro.power.activity` (or a
   caller-supplied map) and finds flops whose D activity is below the
   gating threshold;
2. groups candidates geographically (gates drive local clock subtrees);
3. inserts one ICG per group -- modeled with an AND2 master on the clock
   path -- and annotates the gated flops' effective clock activity, which
   the power engine and CTS then honor.

The saving emerges in :func:`repro.power.analysis.analyze_power`: gated
flops charge internal and clock-pin power at their enable rate instead
of every cycle, minus the ICGs' own overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..netlist.core import Netlist
from ..tech.process import ProcessNode


@dataclass
class ClockGatingResult:
    """Outcome of one gating pass."""

    n_gates: int
    gated_flops: int
    total_flops: int
    #: mean enable activity over the gated population
    mean_enable: float


def flop_input_activity(netlist: Netlist,
                        signals: Optional[Dict[int, Tuple[float, float]]]
                        = None,
                        default: float = 0.15) -> Dict[int, float]:
    """Per-flop D-input activity from a propagation result."""
    out: Dict[int, float] = {}
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        act = None
        if signals is not None and net.id in signals:
            act = signals[net.id][1]
        elif net.activity is not None:
            act = net.activity
        for s in net.sinks:
            if s.is_port:
                continue
            inst = netlist.instances[s.inst]
            if inst.is_sequential and s.pin == 0:
                out[inst.id] = act if act is not None else default
    return out


def insert_clock_gates(netlist: Netlist, process: ProcessNode,
                       signals: Optional[Dict[int, Tuple[float, float]]]
                       = None,
                       activity_threshold: float = 0.10,
                       group_size: int = 24,
                       enable_margin: float = 0.05
                       ) -> ClockGatingResult:
    """Gate low-activity flops; returns the summary.

    Args:
        netlist: placed block netlist (ICG instances are added).
        process: technology (supplies the ICG master).
        signals: per-net (probability, activity) from
            :func:`repro.power.activity.propagate_activity`.
        activity_threshold: flops whose D toggles less often than this
            become gating candidates.
        group_size: flops per gate.
        enable_margin: enable fires this much more often than the data
            changes (conservative controller behaviour).

    Returns:
        The gating summary; the flops' ``gated_activity`` is annotated.
    """
    acts = flop_input_activity(netlist, signals)
    flops = [i for i in netlist.instances.values() if i.is_sequential]
    candidates = [f for f in flops
                  if acts.get(f.id, 1.0) < activity_threshold
                  and f.gated_activity is None]
    icg = process.library.master("AND2_X4")
    # group geographically so each ICG drives a local clock subtree
    candidates.sort(key=lambda f: (f.die, round(f.x / 120.0), f.y))
    n_gates = 0
    gated = 0
    enables: List[float] = []
    for k in range(0, len(candidates), group_size):
        group = candidates[k:k + group_size]
        if len(group) < 4:
            continue  # an ICG for a couple of flops costs more than it saves
        enable = min(1.0, max(a for a in
                              (acts.get(f.id, 1.0) for f in group)) +
                     enable_margin)
        cx = sum(f.x for f in group) / len(group)
        cy = sum(f.y for f in group) / len(group)
        netlist.add_instance(f"icg_{n_gates}", icg, x=cx, y=cy,
                             die=group[0].die,
                             cluster=group[0].cluster)
        for f in group:
            f.gated_activity = enable
        gated += len(group)
        enables.append(enable)
        n_gates += 1
    return ClockGatingResult(
        n_gates=n_gates, gated_flops=gated, total_flops=len(flops),
        mean_enable=sum(enables) / len(enables) if enables else 0.0)
