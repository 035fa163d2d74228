"""Per-net routing and parasitic estimation.

Converts placed nets into electrical models for timing and power:

* wirelength from the trunk Steiner tree (per tier for 3D nets, joined
  by a TSV / F2F via at its legalized site);
* a routing-layer class by length -- short nets on thin local metal,
  long nets promoted to the thick upper layers a block may use (most T2
  blocks stop at M7; the SPC gets M8/M9, paper Section 2.2);
* lumped wire capacitance plus per-sink Elmore path estimates, including
  the via's RC for sinks on the far tier.

This is the model's stand-in for detailed routing + RC extraction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..netlist.core import Net, Netlist, PinRef
from ..tech.interconnect3d import Via3D
from ..tech.layers import MetalStack
from .steiner import batch_path_length, batch_trunk_stats, trunk_tree

#: length thresholds (um) separating local / intermediate / global layers
LOCAL_LIMIT_UM = 40.0
INTERMEDIATE_LIMIT_UM = 160.0


@dataclass
class SinkPath:
    """Electrical path from the driver to one sink."""

    ref: PinRef
    path_len_um: float
    through_via: bool
    pin_cap_ff: float

    def copy(self) -> "SinkPath":
        # dataclasses.replace carries every field (including ones added
        # after this method was written) -- only the endpoint ref needs
        # an explicit fresh object so ECO netlist surgery on the copy
        # can never alias the original's PinRef
        return replace(self, ref=PinRef(self.ref.inst, self.ref.port,
                                        self.ref.pin))


@dataclass
class RoutedNet:
    """Parasitic summary of one routed net."""

    net_id: int
    length_um: float
    r_per_um: float
    c_per_um: float
    wire_cap_ff: float
    via: Optional[Via3D]
    sinks: List[SinkPath]
    is_long: bool
    #: endpoint identity of the driver at route time; ``None`` on
    #: snapshots predating driver tracking (legacy constructors)
    driver_key: Optional[Tuple] = None

    def copy(self) -> "RoutedNet":
        """An independent deep copy (for what-if ECO sessions).

        Built on ``dataclasses.replace`` so every ``via``-independent
        field -- including ones added after this method was written --
        flows through the same single code path the batch extractor and
        the SI derater use; ECO clones and batch-built nets cannot
        diverge structurally.  Only ``sinks`` needs fresh objects (the
        ``via`` master is immutable and safely shared).
        """
        return replace(self, sinks=[s.copy() for s in self.sinks])

    @property
    def total_cap_ff(self) -> float:
        """Load seen by the driver: wire + pins (+ via)."""
        cap = self.wire_cap_ff + sum(s.pin_cap_ff for s in self.sinks)
        if self.via is not None:
            cap += self.via.capacitance_ff
        return cap

    def sink_wire_delay_ps(self, sink: SinkPath) -> float:
        """Elmore delay of the wire (and via) to one sink."""
        length = sink.path_len_um
        r = self.r_per_um * length
        delay = r * (self.c_per_um * length / 2.0 + sink.pin_cap_ff)
        if sink.through_via and self.via is not None:
            delay += self.via.delay_ps(sink.pin_cap_ff)
        return delay


def layer_class(length_um: float, stack: MetalStack,
                max_metal: int) -> Tuple[float, float]:
    """(r_per_um, c_per_um) for the layer range a net of this length uses."""
    if length_um < LOCAL_LIMIT_UM:
        return stack.effective_rc(2, min(3, max_metal))
    if length_um < INTERMEDIATE_LIMIT_UM:
        return stack.effective_rc(4, min(6, max_metal))
    return stack.effective_rc(min(7, max_metal), max_metal)


def route_net(netlist: Netlist, net: Net, stack: MetalStack,
              max_metal: int = 7,
              via: Optional[Via3D] = None,
              via_xy: Optional[Tuple[float, float]] = None,
              long_wire_um: float = 120.0,
              detour_factor: float = 1.0) -> RoutedNet:
    """Route one net and estimate its parasitics.

    For tier-crossing nets, supply both ``via`` (the 3D interconnect
    element) and ``via_xy`` (its legalized location); the net is then
    routed as two per-tier trees joined at the via.

    Args:
        netlist: the placed netlist.
        net: the net to route.
        stack: metal stack for layer parasitics.
        max_metal: highest layer the block may use.
        via: 3D via element for crossing nets.
        via_xy: legalized via location.
        long_wire_um: the paper's long-wire threshold (100x cell height).
        detour_factor: multiplies tree length (congestion detours).

    Returns:
        The routed-net parasitic summary.
    """
    driver_pos = netlist.endpoint_position(net.driver)
    sink_info = [(ref, netlist.endpoint_position(ref),
                  netlist.endpoint_cap_ff(ref)) for ref in net.sinks]

    crossing = via is not None and via_xy is not None
    if not crossing:
        pins = [(driver_pos[0], driver_pos[1])] + \
            [(p[0], p[1]) for _, p, _ in sink_info]
        tree = trunk_tree(pins)
        length = tree.length_um * detour_factor
        r, c = layer_class(length, stack, max_metal)
        sinks = [
            SinkPath(ref=ref,
                     path_len_um=tree.path_length(
                         (driver_pos[0], driver_pos[1]),
                         (p[0], p[1])) * detour_factor,
                     through_via=False, pin_cap_ff=cap)
            for ref, p, cap in sink_info
        ]
        return RoutedNet(net_id=net.id, length_um=length, r_per_um=r,
                         c_per_um=c, wire_cap_ff=c * length, via=None,
                         sinks=sinks, is_long=length > long_wire_um,
                         driver_key=net.driver.key())

    # tier-crossing net: per-tier trees joined at the via
    drv_die = driver_pos[2]
    near = [(driver_pos[0], driver_pos[1]), via_xy]
    far = [via_xy]
    for _, p, _ in sink_info:
        (near if p[2] == drv_die else far).append((p[0], p[1]))
    near_tree = trunk_tree(near)
    far_tree = trunk_tree(far)
    length = (near_tree.length_um + far_tree.length_um) * detour_factor
    r, c = layer_class(length, stack, max_metal)
    drv_to_via = near_tree.path_length(
        (driver_pos[0], driver_pos[1]), via_xy) * detour_factor
    sinks = []
    for ref, p, cap in sink_info:
        if p[2] == drv_die:
            plen = near_tree.path_length((driver_pos[0], driver_pos[1]),
                                         (p[0], p[1])) * detour_factor
            through = False
        else:
            plen = drv_to_via + far_tree.path_length(
                via_xy, (p[0], p[1])) * detour_factor
            through = True
        sinks.append(SinkPath(ref=ref, path_len_um=plen,
                              through_via=through, pin_cap_ff=cap))
    return RoutedNet(net_id=net.id, length_um=length, r_per_um=r,
                     c_per_um=c, wire_cap_ff=c * length, via=via,
                     sinks=sinks, is_long=length > long_wire_um,
                     driver_key=net.driver.key())


@dataclass
class NetArrays:
    """Flat structure-of-arrays view of a routing snapshot.

    One row per routed non-clock net (in netlist iteration order) plus
    a CSR block of its sinks (in ``RoutedNet.sinks`` order).  The array
    timing engines (:mod:`repro.timing.graph`) consume this instead of
    walking ``RoutedNet`` objects; the per-sink Elmore wire delays and
    per-net driver loads are computed here once, vectorized, with the
    scalar properties' exact operation order (see ``docs/timing.md``).

    Validity: the view is cached on the :class:`RoutingResult` it was
    gathered from and keyed by ``(netlist, netlist.rev)`` -- any
    net-topology mutation bumps ``rev`` and invalidates it, and the
    routing result's own mutators (:meth:`RoutingResult.refresh_nets`,
    :meth:`RoutingResult.update_instances`) drop it explicitly.  Code
    that mutates ``RoutedNet`` objects by hand must go through those
    mutators (everything in-repo does).
    """

    netlist_ref: "weakref.ref"
    rev: int
    #: per net: id, driver endpoint, total driven cap
    net_ids: np.ndarray
    drv_inst: np.ndarray        # -1 for port-driven nets
    drv_is_port: np.ndarray
    drv_ports: List[Optional[str]]
    drv_pin: np.ndarray
    total_cap: np.ndarray
    #: routed.sinks positionally identical to net.sinks (setup STA
    #: requires this and rejects stale-topology snapshots)
    matched: np.ndarray
    #: CSR offsets: net row i owns sinks [sink_start[i], sink_start[i+1])
    sink_start: np.ndarray
    sink_net: np.ndarray        # owning net row per sink
    sink_inst: np.ndarray       # -1 for port sinks
    sink_is_port: np.ndarray
    sink_ports: List[Optional[str]]
    sink_wd: np.ndarray         # sink_wire_delay_ps, vectorized

    @property
    def n_nets(self) -> int:
        return int(self.net_ids.shape[0])


def _gather_net_arrays(netlist: Netlist, routing: "RoutingResult"
                       ) -> NetArrays:
    """One pass over the routed nets into the flat array view."""
    net_ids: List[int] = []
    drv_inst: List[int] = []
    drv_is_port: List[bool] = []
    drv_ports: List[Optional[str]] = []
    drv_pin: List[int] = []
    r_per: List[float] = []
    c_per: List[float] = []
    wire_cap: List[float] = []
    has_via: List[bool] = []
    via_res: List[float] = []
    via_cap: List[float] = []
    matched: List[bool] = []
    starts: List[int] = [0]
    s_inst: List[int] = []
    s_is_port: List[bool] = []
    s_ports: List[Optional[str]] = []
    s_plen: List[float] = []
    s_cap: List[float] = []
    s_through: List[bool] = []

    for net in netlist.nets.values():
        if net.is_clock:
            continue
        routed = routing.nets.get(net.id)
        if routed is None:
            continue
        d = net.driver
        net_ids.append(net.id)
        drv_is_port.append(d.is_port)
        drv_inst.append(-1 if d.is_port else d.inst)
        drv_ports.append(d.port)
        drv_pin.append(d.pin)
        r_per.append(routed.r_per_um)
        c_per.append(routed.c_per_um)
        wire_cap.append(routed.wire_cap_ff)
        v = routed.via
        has_via.append(v is not None)
        via_res.append(0.0 if v is None else v.resistance_kohm)
        via_cap.append(0.0 if v is None else v.capacitance_ff)
        pairs = net.sinks if len(routed.sinks) == len(net.sinks) else None
        ok = pairs is not None
        for k, sp in enumerate(routed.sinks):
            ref = sp.ref
            if ok and ref is not pairs[k] and ref.key() != pairs[k].key():
                ok = False
            s_is_port.append(ref.is_port)
            s_inst.append(-1 if ref.is_port else ref.inst)
            s_ports.append(ref.port)
            s_plen.append(sp.path_len_um)
            s_cap.append(sp.pin_cap_ff)
            s_through.append(sp.through_via)
        matched.append(ok)
        starts.append(len(s_inst))

    n = len(net_ids)
    sink_start = np.asarray(starts, dtype=np.int64)
    counts = sink_start[1:] - sink_start[:-1]
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)

    plen = np.asarray(s_plen, dtype=np.float64)
    pcap = np.asarray(s_cap, dtype=np.float64)
    through = np.asarray(s_through, dtype=bool)
    r_per_a = np.asarray(r_per, dtype=np.float64)
    c_per_a = np.asarray(c_per, dtype=np.float64)
    wire_cap_a = np.asarray(wire_cap, dtype=np.float64)
    has_via_a = np.asarray(has_via, dtype=bool)
    via_res_a = np.asarray(via_res, dtype=np.float64)
    via_cap_a = np.asarray(via_cap, dtype=np.float64)

    # per-sink Elmore, operation-for-operation the scalar
    # RoutedNet.sink_wire_delay_ps: r = r_per*len; r*(c_per*len/2 + cap),
    # plus the via RC only for through-via sinks of via nets
    r_tot = r_per_a[seg] * plen
    base = r_tot * (c_per_a[seg] * plen / 2.0 + pcap)
    via_term = via_res_a[seg] * (via_cap_a[seg] / 2.0 + pcap)
    sink_wd = np.where(through & has_via_a[seg], base + via_term, base)

    # per-net driven load, exactly RoutedNet.total_cap_ff: the pin-cap
    # sum accumulates sequentially in sink order (np.bincount adds
    # per-segment weights in flat element order, like the scalar sum())
    pin_sum = np.bincount(seg, weights=pcap, minlength=n) \
        if len(plen) else np.zeros(n, dtype=np.float64)
    total = wire_cap_a + pin_sum
    total_cap = np.where(has_via_a, total + via_cap_a, total)

    return NetArrays(
        netlist_ref=weakref.ref(netlist), rev=netlist.rev,
        net_ids=np.asarray(net_ids, dtype=np.int64),
        drv_inst=np.asarray(drv_inst, dtype=np.int64),
        drv_is_port=np.asarray(drv_is_port, dtype=bool),
        drv_ports=drv_ports,
        drv_pin=np.asarray(drv_pin, dtype=np.int64),
        total_cap=total_cap,
        matched=np.asarray(matched, dtype=bool),
        sink_start=sink_start, sink_net=seg,
        sink_inst=np.asarray(s_inst, dtype=np.int64),
        sink_is_port=np.asarray(s_is_port, dtype=bool),
        sink_ports=s_ports, sink_wd=sink_wd)


@dataclass
class RoutingResult:
    """All routed nets of a block plus aggregate statistics."""

    nets: Dict[int, RoutedNet] = field(default_factory=dict)

    # cached flat view for the array timing engines; a plain class
    # attribute (deliberately unannotated, so it is NOT a dataclass
    # field) keeping __eq__/repr/init semantics exactly as before
    _net_arrays = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_net_arrays", None)
        return state

    def net_arrays(self, netlist: Netlist) -> NetArrays:
        """The flat array view of this routing against ``netlist``.

        Returns the cached view when it is still valid (same netlist
        object, same net-topology revision, no intervening routing
        mutation); re-gathers otherwise.
        """
        cached = self._net_arrays
        if cached is not None and cached.rev == netlist.rev and \
                cached.netlist_ref() is netlist:
            return cached
        arrays = _gather_net_arrays(netlist, self)
        self._net_arrays = arrays
        return arrays

    @property
    def total_wirelength_um(self) -> float:
        return sum(r.length_um for r in self.nets.values())

    @property
    def long_wire_count(self) -> int:
        return sum(1 for r in self.nets.values() if r.is_long)

    def of(self, net_id: int) -> RoutedNet:
        return self.nets[net_id]

    def copy(self) -> "RoutingResult":
        """An independent deep copy, preserving net iteration order.

        ECO sessions derived from a finished design mutate their own
        copy so the base design's electrical model stays frozen.
        """
        out = RoutingResult()
        for nid, routed in self.nets.items():
            out.nets[nid] = routed.copy()
        return out

    def refresh_nets(self, netlist: Netlist, net_ids: Iterable[int],
                     reroute: Callable[[Net], RoutedNet]) -> List[int]:
        """Force a from-scratch re-route of the listed nets.

        The geometry-dirty counterpart of :meth:`update_instances`:
        after a cell *moved* (ECO displacement, incremental
        legalization) or a net's driver was rewired, the old tree is
        invalid even though the endpoint set may still match, so the
        listed nets are unconditionally re-routed.  Ids of nets that no
        longer exist (buffer removal) are dropped from the view; clock
        nets are skipped (CTS owns them).

        Returns the sorted ids of the nets actually re-routed.
        """
        from ..obs.metrics import metrics

        self._net_arrays = None
        updated: List[int] = []
        for nid in sorted(set(net_ids)):
            net = netlist.nets.get(nid)
            if net is None:
                self.nets.pop(nid, None)
                continue
            if net.is_clock:
                continue
            self.nets[nid] = reroute(net)
            updated.append(nid)
        m = metrics()
        m.counter("route.nets_reextracted").inc(len(updated))
        m.counter("route.nets_rerouted").inc(len(updated))
        return updated

    def update_instances(self, netlist: Netlist,
                         changed_inst_ids: Iterable[int],
                         reroute: Optional[Callable[[Net], RoutedNet]]
                         = None) -> List[int]:
        """Re-extract only the nets incident to changed instances.

        The incremental counterpart of re-running :func:`route_block`
        after a batch of master swaps: with placement and net topology
        frozen, tree geometry (lengths, layer classes, via bindings) is
        reused verbatim and only the electrical values that *can* move
        -- sink pin capacitances, and with them each net's lumped cap
        and per-sink Elmore delays -- are refreshed, to values
        bit-identical with a from-scratch re-route.

        Nets whose endpoint set no longer matches the routed snapshot
        (netlist surgery: buffer insertion, sink regrouping) fall back
        to a from-scratch re-route via ``reroute``; without a
        ``reroute`` callback such *dirty* nets raise ``ValueError`` so
        a stale electrical model can never be read silently.

        Args:
            netlist: the (mutated) netlist the routing belongs to.
            changed_inst_ids: instances whose masters changed.
            reroute: optional per-net fallback, e.g. a closure over
                :func:`route_net` with the block's stack/via context.

        Returns:
            Sorted ids of the nets whose parasitics were re-extracted
            (including any re-routed dirty nets).
        """
        from ..obs.metrics import metrics

        self._net_arrays = None
        seen: set = set()
        dirty: List[Net] = []
        for iid in changed_inst_ids:
            for net in netlist.nets_of(iid):
                if net.is_clock or net.id in seen:
                    continue
                seen.add(net.id)
                dirty.append(net)
        # ascending net id: fresh nets append to the dict exactly where
        # a from-scratch route_block would put them (order parity)
        dirty.sort(key=lambda n: n.id)
        updated: List[int] = []
        rerouted = 0
        for net in dirty:
            routed = self.nets.get(net.id)
            if routed is not None and \
                    (routed.driver_key is None or
                     routed.driver_key == net.driver.key()) and \
                    [s.ref.key() for s in routed.sinks] == \
                    [s.key() for s in net.sinks]:
                # frozen topology: geometry reused, pin caps only
                changed = False
                for sp in routed.sinks:
                    cap = netlist.endpoint_cap_ff(sp.ref)
                    if cap != sp.pin_cap_ff:
                        sp.pin_cap_ff = cap
                        changed = True
                if changed:
                    updated.append(net.id)
                continue
            if reroute is None:
                raise ValueError(
                    f"net {net.name!r} changed topology; "
                    f"update_instances needs a reroute fallback")
            self.nets[net.id] = reroute(net)
            rerouted += 1
            updated.append(net.id)
        m = metrics()
        m.counter("route.nets_reextracted").inc(len(updated))
        if rerouted:
            m.counter("route.nets_rerouted").inc(rerouted)
        updated.sort()
        return updated


def route_block(netlist: Netlist, stack: MetalStack, max_metal: int = 7,
                via: Optional[Via3D] = None,
                via_sites: Optional[Dict[int, Tuple[float, float]]] = None,
                long_wire_um: float = 120.0,
                detour_factor: float = 1.0) -> RoutingResult:
    """Route every non-clock net of a block.

    ``via_sites`` maps crossing net ids to legalized via locations (from
    the 3D placer or the F2F via placer).

    Flat (single-tier) nets are extracted in one vectorized batch:
    all pin positions are gathered once, the trunk-tree statistics and
    per-sink path lengths run as flat numpy kernels
    (:func:`repro.route.steiner.batch_trunk_stats`), and the emitted
    ``RoutedNet`` objects are bit-identical to :func:`route_net` --
    same median, same sequential stub-length accumulation, same operand
    order on every float expression.  Tier-crossing nets (a via plus a
    legalized site) go through :func:`route_net` unchanged.
    """
    from ..obs.metrics import metrics

    via_sites = via_sites or {}
    # the three layer classes a net can land in, resolved once
    rc_by_class = (stack.effective_rc(2, min(3, max_metal)),
                   stack.effective_rc(4, min(6, max_metal)),
                   stack.effective_rc(min(7, max_metal), max_metal))

    flat_nets: List[Net] = []
    flat_sinks: List[List[Tuple[PinRef, Tuple[float, float, int],
                                float]]] = []
    xs: List[float] = []
    ys: List[float] = []
    starts: List[int] = [0]
    cross_nets: List[Optional[Net]] = []  # slot per emitted net
    order: List[Net] = []
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        order.append(net)
        if via is not None and via_sites.get(net.id) is not None:
            cross_nets.append(net)
            continue
        cross_nets.append(None)
        driver_pos = netlist.endpoint_position(net.driver)
        sink_info = [(ref, netlist.endpoint_position(ref),
                      netlist.endpoint_cap_ff(ref)) for ref in net.sinks]
        flat_nets.append(net)
        flat_sinks.append(sink_info)
        xs.append(driver_pos[0])
        ys.append(driver_pos[1])
        for _, p, _ in sink_info:
            xs.append(p[0])
            ys.append(p[1])
        starts.append(len(xs))

    n = len(flat_nets)
    trunk_y, _xmin, _xmax, tree_len = batch_trunk_stats(xs, ys, starts)
    length = tree_len * detour_factor
    cls = np.where(length < LOCAL_LIMIT_UM, 0,
                   np.where(length < INTERMEDIATE_LIMIT_UM, 1, 2))
    r_arr = np.asarray([rc[0] for rc in rc_by_class])[cls]
    c_arr = np.asarray([rc[1] for rc in rc_by_class])[cls]
    wire_cap = c_arr * length
    is_long = length > long_wire_um

    # per-sink tree path lengths: driver tap to sink tap, vectorized
    starts_a = np.asarray(starts, dtype=np.int64)
    counts = starts_a[1:] - starts_a[:-1] - 1  # sinks per net
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    sink_rows = np.ones(len(xs), dtype=bool)
    sink_rows[starts_a[:-1]] = False  # drop each net's driver pin
    xs_a = np.asarray(xs, dtype=np.float64)
    ys_a = np.asarray(ys, dtype=np.float64)
    plen = batch_path_length(
        xs_a[starts_a[:-1]][seg], ys_a[starts_a[:-1]][seg],
        xs_a[sink_rows], ys_a[sink_rows],
        trunk_y[seg]) * detour_factor

    length_l = length.tolist()
    r_l = r_arr.tolist()
    c_l = c_arr.tolist()
    wire_cap_l = wire_cap.tolist()
    is_long_l = is_long.tolist()
    plen_l = plen.tolist()
    starts_sinks = (starts_a[:-1] -
                    np.arange(n, dtype=np.int64)).tolist()

    result = RoutingResult()
    k = 0  # batch row cursor
    for slot, net in enumerate(order):
        cross = cross_nets[slot]
        if cross is not None:
            xy = via_sites.get(cross.id)
            result.nets[cross.id] = route_net(
                netlist, cross, stack, max_metal=max_metal, via=via,
                via_xy=xy, long_wire_um=long_wire_um,
                detour_factor=detour_factor)
            continue
        s0 = starts_sinks[k]
        sinks = [
            SinkPath(ref=ref, path_len_um=plen_l[s0 + j],
                     through_via=False, pin_cap_ff=cap)
            for j, (ref, _p, cap) in enumerate(flat_sinks[k])
        ]
        result.nets[net.id] = RoutedNet(
            net_id=net.id, length_um=length_l[k], r_per_um=r_l[k],
            c_per_um=c_l[k], wire_cap_ff=wire_cap_l[k], via=None,
            sinks=sinks, is_long=is_long_l[k],
            driver_key=net.driver.key())
        k += 1
    metrics().counter("route.nets_extracted_batch").inc(n)
    return result


@dataclass
class RouteContext:
    """Everything needed to (re-)route a net of one block.

    The flow routes through closures over :func:`route_block`; ECO
    sessions need the same stack/via/threshold context *per net*, long
    after the flow returned.  A context captures it once and offers
    both granularities, guaranteeing an ECO re-route uses bit-identical
    parameters to the original flow route.
    """

    stack: MetalStack
    max_metal: int = 7
    via: Optional[Via3D] = None
    via_sites: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    long_wire_um: float = 120.0
    detour_factor: float = 1.0

    def route_net(self, netlist: Netlist, net: Net) -> RoutedNet:
        xy = self.via_sites.get(net.id)
        return route_net(netlist, net, self.stack,
                         max_metal=self.max_metal,
                         via=self.via if xy is not None else None,
                         via_xy=xy, long_wire_um=self.long_wire_um,
                         detour_factor=self.detour_factor)

    def route_block(self, netlist: Netlist) -> RoutingResult:
        return route_block(netlist, self.stack, max_metal=self.max_metal,
                           via=self.via, via_sites=self.via_sites,
                           long_wire_um=self.long_wire_um,
                           detour_factor=self.detour_factor)
