"""Rent's rule measurement for generated netlists.

Rent's rule, ``T = t * G^p``, relates the number of external terminals
``T`` of a partition to the gates ``G`` it contains; real logic sits
around ``p ~ 0.5-0.75``.  Wirelength distributions -- and therefore every
conclusion this reproduction draws from them -- follow from the Rent
exponent, so this module measures ``p`` on generated netlists by
recursive bisection terminal counting, letting tests pin the generator
to the realistic regime instead of trusting it blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from ..netlist.core import Netlist


@dataclass
class RentPoint:
    """One (gates, terminals) sample from the bisection tree."""

    gates: int
    terminals: int


@dataclass
class RentFit:
    """Least-squares fit of ``log T = log t + p log G``."""

    exponent: float
    coefficient: float
    points: List[RentPoint]

    def terminals_at(self, gates: int) -> float:
        """Predicted external terminal count for a partition size."""
        return self.coefficient * gates ** self.exponent


def _terminal_count(netlist: Netlist, members: Set[int]) -> int:
    """External terminals of a cell subset: nets crossing its boundary."""
    terminals = 0
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        inside = outside = False
        for ref in net.endpoints():
            if ref.is_port:
                outside = True
            elif ref.inst in members:
                inside = True
            else:
                outside = True
        if inside and outside:
            terminals += 1
    return terminals


def measure_rent_exponent(netlist: Netlist, min_gates: int = 24,
                          max_depth: int = 6, seed: int = 0) -> RentFit:
    """Estimate the Rent exponent by recursive min-cut bisection.

    Partitions are produced with the same FM engine the fold flow uses;
    at every tree node the (gates, external terminals) pair is sampled,
    and the exponent comes from a log-log least-squares fit.

    Args:
        netlist: the netlist to measure.
        min_gates: stop bisecting below this partition size.
        max_depth: bisection depth limit.
        seed: FM tie-break seed.

    Returns:
        The fitted Rent parameters and the raw sample points.
    """
    points: List[RentPoint] = []
    all_cells = sorted(
        (i for i in netlist.instances.values() if not i.is_macro),
        key=lambda i: (i.cluster, i.id))
    # depth-first over an explicit stack, first half on top: the fit
    # takes the tree's nodes in pre-order
    stack: List[Tuple[List[int], int]] = [([i.id for i in all_cells], 0)]
    while stack:
        members, depth = stack.pop()
        gates = len(members)
        if gates < 2:
            continue
        points.append(RentPoint(gates=gates,
                                terminals=_terminal_count(netlist,
                                                          set(members))))
        if gates < 2 * min_gates or depth >= max_depth:
            continue
        # locality-preserving bisection: the generator's cluster tags are
        # its placement hierarchy, so contiguous halves approximate the
        # min-cut partitions classical Rent measurements use
        half = gates // 2
        stack.append((members[half:], depth + 1))
        stack.append((members[:half], depth + 1))

    usable = [pt for pt in points if pt.terminals > 0 and pt.gates > 1]
    if len(usable) < 3:
        return RentFit(exponent=0.0, coefficient=0.0, points=points)
    logs_g = np.log([pt.gates for pt in usable])
    logs_t = np.log([pt.terminals for pt in usable])
    p, log_t0 = np.polyfit(logs_g, logs_t, 1)
    return RentFit(exponent=float(p), coefficient=float(math.exp(log_t0)),
                   points=points)
