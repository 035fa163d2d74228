"""Signal-integrity (crosstalk) guardbanding.

Adjacent wires couple: when an aggressor switches against a victim, the
victim's effective capacitance doubles over the coupled span (the Miller
effect), slowing it; quiet neighbors help.  Detailed SI analysis needs
real track assignments, but the *congestion* of a region is an excellent
proxy for how much of a net's sidewall faces active neighbors -- so this
module derates wire delays from the block router's usage maps:

* each net's route is priced with a coupling factor that grows with the
  average track utilization along its corridor;
* the derated routing plugs straight into :func:`repro.timing.sta.run_sta`,
  giving an SI-aware sign-off (and a measurable optimism gap for the
  plain analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from ..netlist.core import Netlist
from ..route.block_router import BlockRouter
from ..route.estimate import RoutingResult


#: fraction of wire capacitance that is sidewall coupling at 100% track
#: utilization
COUPLING_FRACTION = 0.45
#: Miller factor for switching aggressors (worst case 2.0)
MILLER_FACTOR = 1.8
#: probability a neighbor switches in the aligning window
AGGRESSOR_ACTIVITY = 0.3


@dataclass
class SiReport:
    """Summary of one SI derating pass."""

    nets_derated: int
    worst_factor: float
    mean_factor: float


def coupling_factor(utilization: float) -> float:
    """Delay derate for a net routed at the given track utilization."""
    u = min(max(utilization, 0.0), 1.5)
    extra = (COUPLING_FRACTION * u *
             AGGRESSOR_ACTIVITY * (MILLER_FACTOR - 1.0))
    return 1.0 + extra


def derate_routing(netlist: Netlist, routing: RoutingResult,
                   router: BlockRouter) -> Tuple[RoutingResult, SiReport]:
    """Produce an SI-derated copy of a routing result.

    Args:
        netlist: the placed netlist (for endpoint positions).
        routing: the base (SI-oblivious) routing.
        router: the block router whose usage maps supply congestion.

    Returns:
        (derated routing, summary).  Wire capacitance and per-sink path
        lengths are scaled by the corridor's coupling factor, so both
        delay and net power see the crosstalk penalty.

    Endpoint gcells, corridor bounding boxes and layer classes are
    computed as flat arrays over every net at once; the per-net
    corridor ``usage.mean()`` keeps numpy's own pairwise reduction.
    """
    from ..route.estimate import INTERMEDIATE_LIMIT_UM, LOCAL_LIMIT_UM

    out = RoutingResult()

    # flat endpoint gather over nets present in both views, net-major
    keep = []
    xs: list = []
    ys: list = []
    starts = [0]
    for routed in routing.nets.values():
        net = netlist.nets.get(routed.net_id)
        if net is None:
            continue
        for ref in net.endpoints():
            x, y, _ = netlist.endpoint_position(ref)
            xs.append(x)
            ys.append(y)
        keep.append(routed)
        starts.append(len(xs))
    n = len(keep)
    if n == 0:
        return out, SiReport(nets_derated=0, worst_factor=1.0,
                             mean_factor=1.0)

    xs_a = np.asarray(xs, dtype=np.float64)
    ys_a = np.asarray(ys, dtype=np.float64)
    st = np.asarray(starts, dtype=np.int64)
    # BlockRouter.gcell, vectorized: int(clip((p - origin) / g, 0, n-1))
    ix = np.clip((xs_a - router.outline.x0) / router.g, 0,
                 router.nx - 1).astype(np.int64)
    iy = np.clip((ys_a - router.outline.y0) / router.g, 0,
                 router.ny - 1).astype(np.int64)
    i0 = np.minimum.reduceat(ix, st[:-1])
    i1 = np.maximum.reduceat(ix, st[:-1])
    j0 = np.minimum.reduceat(iy, st[:-1])
    j1 = np.maximum.reduceat(iy, st[:-1])
    # _class_for(max(length, 1e-6), max_metal) over all nets at once
    lengths = np.maximum(
        np.asarray([r.length_um for r in keep], dtype=np.float64), 1e-6)
    if router.max_metal < 7:
        cls = np.where(lengths < LOCAL_LIMIT_UM, 0, 1)
    else:
        cls = np.where(lengths < LOCAL_LIMIT_UM, 0,
                       np.where(lengths < INTERMEDIATE_LIMIT_UM, 1, 2))

    factors = []
    cls_l = cls.tolist()
    i0_l = i0.tolist()
    i1_l = i1.tolist()
    j0_l = j0.tolist()
    j1_l = j1.tolist()
    for idx, routed in enumerate(keep):
        c = cls_l[idx]
        cap = max(router.capacity[c], 1e-6)
        usage = router.usage[c][i0_l[idx]:i1_l[idx] + 1,
                                j0_l[idx]:j1_l[idx] + 1]
        util = float(usage.mean()) / cap if usage.size else 0.0
        k = coupling_factor(util)
        factors.append(k)
        out.nets[routed.net_id] = replace(
            routed,
            c_per_um=routed.c_per_um * k,
            wire_cap_ff=routed.wire_cap_ff * k,
            sinks=[replace(s, path_len_um=s.path_len_um * k ** 0.5)
                   for s in routed.sinks])
    report = SiReport(
        nets_derated=len(factors),
        worst_factor=max(factors, default=1.0),
        mean_factor=float(np.mean(factors)) if factors else 1.0)
    return out, report
