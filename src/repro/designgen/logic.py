"""Synthetic gate-level logic generation.

The paper's study runs on the OpenSPARC T2 design database, which is not
redistributable at the gate level with a 28 nm library.  This module
substitutes a *statistical* netlist generator that reproduces the
structural properties the paper's conclusions rest on:

* a leveled combinational DAG between flip-flop stages (so static timing
  is meaningful and acyclic by construction);
* **hierarchical locality** -- cells carry a cluster tag and connect
  preferentially within their cluster neighborhood, which yields
  Rent's-rule-like wirelength distributions after placement (a few long
  inter-cluster wires, many short local ones);
* **broadcast nets** -- a small set of control-like drivers with high
  fanout, the main source of the paper's "long wires";
* hard macros wired like sequential elements (their outputs launch paths,
  their inputs terminate paths), so memory-dominated blocks such as the
  L2 data bank behave as in Section 4.4.

All randomness flows from an explicit ``numpy`` generator, so block
generation is exactly reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist.core import INPUT, OUTPUT, Netlist, PinRef
from ..tech.cells import CellLibrary
from ..tech.macros import MacroMaster
from ..tech.process import CPU_CLOCK


@dataclass
class LogicSpec:
    """Parameters of one synthetic logic module.

    Attributes:
        n_cells: total standard cells (flops + combinational).
        n_inputs / n_outputs: data port counts.
        flop_fraction: fraction of cells that are flip-flops.
        logic_depth: combinational levels between flop stages.
        locality: probability that a connection stays within the source
            cluster's neighborhood; lower values produce more global wires
            (CCX- and SPC-like blocks).
        broadcast_fraction: fraction of level-0 sources promoted to
            high-fanout broadcast drivers.
        broadcast_pick: probability that any given input pin connects to a
            broadcast driver instead of a local source.
        mid_fraction: probability of a *mid-range* (datapath bus)
            connection -- a uniformly random cluster within
            ``mid_radius``.  These FUB-scale wires are what makes blocks
            like the SPARC core's datapath units wire-heavy, and they are
            precisely the wire class block folding halves.
        mid_radius: cluster radius of mid-range connections.
        cluster_size: cells per locality cluster.
        clock_domain: clock-domain name for the flops.
        macros: hard-macro masters instantiated inside the module, each
            with a multiplicity, e.g. ``[(sram_macro(16), 8)]``.
    """

    n_cells: int
    n_inputs: int
    n_outputs: int
    flop_fraction: float = 0.22
    logic_depth: int = 10
    locality: float = 0.80
    broadcast_fraction: float = 0.02
    broadcast_pick: float = 0.06
    mid_fraction: float = 0.0
    mid_radius: int = 8
    cluster_size: int = 24
    #: register the data outputs (an output flop per port).  Real block
    #: interfaces often are; the default stays combinational because the
    #: paper's budget mechanism (Section 2.2) acts on output cones, and
    #: the chip-level sign-off resolves the resulting long cross paths by
    #: wire pipelining instead (core.chip_sta).
    register_outputs: bool = False
    #: mark spare observation outputs as timing false paths
    false_path_spares: bool = False
    clock_domain: str = CPU_CLOCK
    macros: List[Tuple[MacroMaster, int]] = field(default_factory=list)


class _Source:
    """A net driver candidate during generation."""

    __slots__ = ("ref", "level", "cluster", "fanout")

    def __init__(self, ref: PinRef, level: int, cluster: int) -> None:
        self.ref = ref
        self.level = level
        self.cluster = cluster
        self.fanout = 0


def _cluster_neighbors(cluster: int, n_clusters: int, rng: np.random.Generator,
                       spread: int = 2) -> int:
    """A cluster index near ``cluster`` (binary-tree distance model)."""
    hop = int(rng.geometric(0.5))
    delta = int(rng.integers(1, spread + 1)) * hop
    if rng.random() < 0.5:
        delta = -delta
    return min(max(cluster + delta, 0), n_clusters - 1)


def generate_logic(name: str, spec: LogicSpec, library: CellLibrary,
                   rng: np.random.Generator,
                   netlist: Optional[Netlist] = None,
                   cluster_base: int = 0,
                   port_prefix: str = "") -> Netlist:
    """Generate a logic module into ``netlist`` (or a fresh one).

    The generator proceeds in five phases: place sequential/level-0
    sources (flops, macros, input ports), build the leveled combinational
    fabric choosing each input pin's source with locality bias, map each
    combinational cell to a library function matching its realized fan-in,
    terminate flop/macro/output-port inputs, and finally group all chosen
    connections into nets.

    Args:
        name: netlist name (used only when creating a fresh netlist).
        spec: generation parameters.
        library: the standard-cell library to draw masters from.
        rng: numpy random generator (deterministic given a seed).
        netlist: target netlist; a new one is created when omitted.
        cluster_base: offset added to every cluster tag, so several
            modules (e.g. the 14 SPC FUBs) can share one netlist without
            colliding locality clusters.
        port_prefix: prefix for the module's port names.

    Returns:
        The netlist containing the generated module.
    """
    nl = netlist if netlist is not None else Netlist(name)
    n_flops = max(1, int(round(spec.n_cells * spec.flop_fraction)))
    n_comb = max(1, spec.n_cells - n_flops)
    n_clusters = max(1, int(math.ceil((n_flops + n_comb) / spec.cluster_size)))
    depth = max(2, spec.logic_depth)

    # connection map: driver key -> (driver ref, [sink refs])
    connections: Dict[Tuple, Tuple[PinRef, List[PinRef]]] = {}

    def connect(src: _Source, sink: PinRef) -> None:
        entry = connections.get(src.ref.key())
        if entry is None:
            connections[src.ref.key()] = (src.ref, [sink])
        else:
            entry[1].append(sink)
        src.fanout += 1

    # ---- phase 1: level-0 sources -------------------------------------
    clock_sinks: List[PinRef] = []
    sources_by_cluster: List[List[_Source]] = [[] for _ in range(n_clusters)]
    all_sources: List[_Source] = []

    def add_source(ref: PinRef, level: int, cluster: int) -> _Source:
        s = _Source(ref, level, cluster)
        sources_by_cluster[cluster].append(s)
        all_sources.append(s)
        return s

    flop_master = library.flop()
    flops = []
    for i in range(n_flops):
        cluster = i * n_clusters // n_flops
        inst = nl.add_instance(f"{port_prefix}ff_{i}", flop_master,
                               cluster=cluster_base + cluster)
        flops.append((inst, cluster))
        add_source(PinRef(inst=inst.id), 0, cluster)
        clock_sinks.append(PinRef(inst=inst.id, pin=1))

    macro_insts = []
    for master, count in spec.macros:
        for j in range(count):
            cluster = int(rng.integers(0, n_clusters))
            inst = nl.add_instance(f"{port_prefix}{master.name}_{j}", master,
                                   cluster=cluster_base + cluster)
            macro_insts.append((inst, cluster, master))
            # data outputs of the macro act as level-0 sources
            n_out = max(1, master.n_io // 3)
            for p in range(n_out):
                add_source(PinRef(inst=inst.id, pin=p), 0, cluster)
            clock_sinks.append(PinRef(inst=inst.id, pin=master.n_io))

    in_ports = []
    for i in range(spec.n_inputs):
        port = nl.add_port(f"{port_prefix}in_{i}", INPUT)
        cluster = i * n_clusters // max(1, spec.n_inputs)
        in_ports.append(port)
        add_source(PinRef(port=port.name), 0, cluster)

    # broadcast drivers: high-fanout control-like sources
    n_broadcast = max(1, int(round(len(all_sources) * spec.broadcast_fraction)))
    broadcast = list(rng.choice(len(all_sources), size=min(
        n_broadcast, len(all_sources)), replace=False))
    broadcast_sources = [all_sources[int(b)] for b in broadcast]

    # ---- phase 2: combinational fabric ----------------------------------
    comb_cells: List[Tuple] = []  # (inst, cluster, level, fan_in)
    comb_sources: List[_Source] = []
    placeholder = library.master("INV_X1")  # retyped in phase 3

    for i in range(n_comb):
        # cluster is contiguous in i; level cycles so every cluster holds
        # cells of all levels (keeps intra-cluster sources available)
        cluster = i * n_clusters // n_comb
        level = 1 + (i % depth)
        inst = nl.add_instance(f"{port_prefix}u_{i}", placeholder,
                               cluster=cluster_base + cluster)
        comb_cells.append([inst, cluster, level, 0])

    def pick_source(cluster: int, level: int) -> _Source:
        """Choose a driver below ``level`` with locality/broadcast bias."""
        if broadcast_sources and rng.random() < spec.broadcast_pick:
            return broadcast_sources[int(rng.integers(0, len(broadcast_sources)))]
        target = cluster
        if spec.mid_fraction > 0 and rng.random() < spec.mid_fraction:
            lo = max(0, cluster - spec.mid_radius)
            hi = min(n_clusters - 1, cluster + spec.mid_radius)
            target = int(rng.integers(lo, hi + 1))
        elif rng.random() >= spec.locality:
            target = _cluster_neighbors(cluster, n_clusters, rng,
                                        spread=max(2, n_clusters // 4))
        # walk outward until a legal source exists
        for radius in range(n_clusters + 1):
            for c in {max(0, target - radius), min(n_clusters - 1, target + radius)}:
                pool = [s for s in sources_by_cluster[c] if s.level < level]
                if pool:
                    # bias toward not-yet-used sources: synthesis leaves no
                    # dead logic, so outputs should rarely dangle
                    unused = [s for s in pool if s.fanout == 0]
                    if unused and rng.random() < 0.6:
                        return unused[int(rng.integers(0, len(unused)))]
                    return pool[int(rng.integers(0, len(pool)))]
        raise RuntimeError("no legal source found")  # pragma: no cover

    # wire inputs level by level so lower levels become sources first
    comb_cells.sort(key=lambda e: e[2])
    for entry in comb_cells:
        inst, cluster, level, _ = entry
        fan_in = int(rng.choice([1, 2, 2, 2, 3], p=[0.18, 0.25, 0.25, 0.17, 0.15]))
        entry[3] = fan_in
        for pin in range(fan_in):
            src = pick_source(cluster, level)
            connect(src, PinRef(inst=inst.id, pin=pin))
        comb_sources.append(add_source(PinRef(inst=inst.id), level, cluster))

    # ---- phase 3: map realized fan-in to library functions ---------------
    one_in = ["INV"]
    two_in = ["NAND2", "NOR2", "AND2", "OR2", "XOR2"]
    three_in = ["AOI21", "MUX2"]
    two_w = np.array([0.30, 0.17, 0.15, 0.13, 0.25])
    for inst, _, _, fan_in in comb_cells:
        if fan_in == 1:
            fn = one_in[0]
        elif fan_in == 2:
            fn = two_in[int(rng.choice(len(two_in), p=two_w))]
        else:
            fn = three_in[int(rng.integers(0, len(three_in)))]
        nl.replace_master(inst.id, library.master(f"{fn}_X2"))

    # ---- phase 4: terminate flop D pins, macro inputs, output ports ------
    def pick_capture_source(cluster: int) -> _Source:
        """A combinational source near ``cluster`` to capture a path.

        The minimum source level is sampled per call so register-to-
        register path depths spread over ``1..depth`` (real designs have
        a wide depth distribution -- only a minority of paths is
        critical, which is what leaves slack for downsizing and HVT
        swaps on the rest).
        """
        min_level = int(rng.integers(1, depth + 1))
        for lvl in range(min_level, 0, -1):
            for radius in range(n_clusters + 1):
                for c in {max(0, cluster - radius),
                          min(n_clusters - 1, cluster + radius)}:
                    pool = [s for s in sources_by_cluster[c]
                            if s.level >= lvl and not s.ref.is_port]
                    if pool:
                        return pool[int(rng.integers(0, len(pool)))]
        return comb_sources[int(rng.integers(0, len(comb_sources)))]

    for inst, cluster in flops:
        connect(pick_capture_source(cluster), PinRef(inst=inst.id, pin=0))

    for inst, cluster, master in macro_insts:
        n_in = max(1, master.n_io // 3)
        for p in range(n_in):
            connect(pick_capture_source(cluster),
                    PinRef(inst=inst.id, pin=1000 + p))

    for i in range(spec.n_outputs):
        port = nl.add_port(f"{port_prefix}out_{i}", OUTPUT)
        cluster = i * n_clusters // max(1, spec.n_outputs)
        if spec.register_outputs:
            # output flop per port: the cross-block wire then flies
            # flop-to-flop and chip-level timing composes directly
            oflop = nl.add_instance(f"{port_prefix}off_{i}", flop_master,
                                    cluster=cluster_base + cluster)
            connect(pick_capture_source(cluster),
                    PinRef(inst=oflop.id, pin=0))
            connect(add_source(PinRef(inst=oflop.id), 0, cluster),
                    PinRef(port=port.name))
            clock_sinks.append(PinRef(inst=oflop.id, pin=1))
        else:
            connect(pick_capture_source(cluster), PinRef(port=port.name))

    # ---- phase 5: rescue dangling outputs, then build nets ---------------
    spare = 0
    for src in comb_sources:
        if src.fanout == 0:
            # tie unused logic outputs off to a spare observation port, as
            # synthesis would keep them only if observable; observation
            # pins carry no timing requirement (false paths)
            port = nl.add_port(f"{port_prefix}spare_out_{spare}", OUTPUT,
                               false_path=spec.false_path_spares)
            spare += 1
            connect(src, PinRef(port=port.name))

    net_idx = 0
    for _, (driver, sinks) in sorted(connections.items(),
                                     key=lambda kv: str(kv[0])):
        nl.add_net(f"{port_prefix}n_{net_idx}", driver, sinks,
                   clock_domain=spec.clock_domain)
        net_idx += 1

    # clock net: one port driving every clock pin
    clk_name = f"{port_prefix}clk"
    if clk_name not in nl.ports and clock_sinks:
        nl.add_port(clk_name, INPUT, clock_domain=spec.clock_domain)
        nl.add_net(clk_name, PinRef(port=clk_name), clock_sinks,
                   is_clock=True, clock_domain=spec.clock_domain)
    return nl
