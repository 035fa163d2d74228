"""Gate-level netlist data model.

The flow operates on flat block-level netlists (one per T2 block, as in the
paper's hierarchical methodology) plus a chip-level netlist whose
"instances" are whole blocks.  This module provides the block-level model:
instances (standard cells and hard macros), nets with a single driver and
multiple sinks, and block I/O ports.

Placement state lives on the instance (``x``, ``y`` in micrometres and a
``die`` index for 3D designs); nets that span the two dies are *3D nets*
and receive a TSV or F2F via during 3D placement.

The model is deliberately mutable: optimization passes resize instances,
swap Vth flavors, and insert buffers in place, exactly as an ECO flow in a
commercial tool would.  The record classes are slotted: a block holds tens
of thousands of them, and a run keeps a pristine copy of every block it
builds (:class:`repro.core.flow.BlockMemo`).
"""

from __future__ import annotations

import copyreg
import operator
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..memory import collector_paused
from ..tech.cells import CELL_HEIGHT_UM, CellMaster
from ..tech.macros import MacroMaster

Master = Union[CellMaster, MacroMaster]

INPUT = "in"
OUTPUT = "out"


@dataclass(slots=True)
class Port:
    """A block boundary pin.

    Position is assigned during floorplanning/placement; ``die`` matters
    for folded blocks whose I/O may live on either tier.
    """

    name: str
    direction: str
    x: float = 0.0
    y: float = 0.0
    die: int = 0
    clock_domain: Optional[str] = None
    #: excluded from timing (observation-only pins, e.g. spare outputs)
    false_path: bool = False


@dataclass(slots=True)
class PinRef:
    """Reference to one endpoint of a net.

    Exactly one of ``inst`` (instance id) or ``port`` (port name) is set.
    ``pin`` disambiguates multiple input pins of one instance; the output
    pin of a cell is always pin 0 of the driver side.
    """

    inst: Optional[int] = None
    port: Optional[str] = None
    pin: int = 0

    @property
    def is_port(self) -> bool:
        return self.port is not None

    def key(self) -> Tuple:
        """Hashable identity of this endpoint."""
        return (self.inst, self.port, self.pin)


@dataclass(slots=True)
class Instance:
    """A placed component: standard cell or hard macro."""

    id: int
    name: str
    master: Master
    x: float = 0.0
    y: float = 0.0
    die: int = 0
    fixed: bool = False
    #: hierarchical locality tag from the generator; placement-independent
    cluster: int = 0
    #: effective clock activity when behind a clock gate (None = free-
    #: running); set by repro.opt.clockgate, consumed by power/CTS
    gated_activity: Optional[float] = None

    @property
    def is_macro(self) -> bool:
        return isinstance(self.master, MacroMaster)

    @property
    def is_sequential(self) -> bool:
        return (not self.is_macro) and self.master.is_sequential

    @property
    def is_buffer(self) -> bool:
        return (not self.is_macro) and self.master.is_buffer

    @property
    def area_um2(self) -> float:
        return self.master.area_um2

    @property
    def width_um(self) -> float:
        if isinstance(self.master, MacroMaster):
            return self.master.width_um
        # Standard cells: area / row height.
        return self.master.area_um2 / CELL_HEIGHT_UM

    @property
    def height_um(self) -> float:
        if isinstance(self.master, MacroMaster):
            return self.master.height_um
        return CELL_HEIGHT_UM


@dataclass(slots=True)
class Net:
    """A signal net: one driver endpoint, one or more sink endpoints."""

    id: int
    name: str
    driver: PinRef
    sinks: List[PinRef] = field(default_factory=list)
    is_clock: bool = False
    clock_domain: Optional[str] = None
    activity: Optional[float] = None

    @property
    def degree(self) -> int:
        """Total endpoint count (driver + sinks)."""
        return 1 + len(self.sinks)

    def endpoints(self) -> Iterator[PinRef]:
        yield self.driver
        yield from self.sinks


def _pickle_as_constructor_call(cls: type) -> None:
    """Pickle ``cls`` records as ``cls(*field values)``.

    The design cache and the engine's result transfer pickle whole
    netlists.  By default a slotted record pickles as a field-name ->
    value dict; the positional form is about half the size, and dumps
    and loads at least twice as fast.
    """
    values = operator.attrgetter(*(f.name for f in fields(cls)))

    def reduce(record):
        return cls, values(record)

    copyreg.pickle(cls, reduce)


for _record in (Port, PinRef, Instance, Net):
    _pickle_as_constructor_call(_record)


class Netlist:
    """A flat block netlist with incremental-edit support.

    Edits are not versioned: a view derived from the netlist, such as
    the timing engine's net arrays, must be rebuilt after an edit.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances: Dict[int, Instance] = {}
        self.nets: Dict[int, Net] = {}
        self.ports: Dict[str, Port] = {}
        self._next_inst = 0
        self._next_net = 0
        #: instance id -> set of net ids touching it
        self._inst_nets: Dict[int, Set[int]] = {}
        #: port name -> set of net ids touching it
        self._port_nets: Dict[str, Set[int]] = {}

    # -- construction ------------------------------------------------------

    def add_instance(self, name: str, master: Master, x: float = 0.0,
                     y: float = 0.0, die: int = 0, fixed: bool = False,
                     cluster: int = 0) -> Instance:
        """Create an instance and return it."""
        inst = Instance(id=self._next_inst, name=name, master=master,
                        x=x, y=y, die=die, fixed=fixed, cluster=cluster)
        self.instances[inst.id] = inst
        self._inst_nets[inst.id] = set()
        self._next_inst += 1
        return inst

    def add_port(self, name: str, direction: str,
                 clock_domain: Optional[str] = None,
                 false_path: bool = False) -> Port:
        """Create a boundary port."""
        if name in self.ports:
            raise ValueError(f"duplicate port {name!r}")
        if direction not in (INPUT, OUTPUT):
            raise ValueError(f"bad port direction {direction!r}")
        port = Port(name=name, direction=direction,
                    clock_domain=clock_domain, false_path=false_path)
        self.ports[name] = port
        self._port_nets[name] = set()
        return port

    def add_net(self, name: str, driver: PinRef,
                sinks: Iterable[PinRef] = (), is_clock: bool = False,
                clock_domain: Optional[str] = None) -> Net:
        """Create a net from endpoint references."""
        net = Net(id=self._next_net, name=name, driver=driver,
                  sinks=list(sinks), is_clock=is_clock,
                  clock_domain=clock_domain)
        self.nets[net.id] = net
        self._next_net += 1
        for ref in net.endpoints():
            self._index(ref, net.id)
        return net

    def _index(self, ref: PinRef, net_id: int) -> None:
        if ref.is_port:
            self._port_nets[ref.port].add(net_id)
        else:
            self._inst_nets[ref.inst].add(net_id)

    def _unindex(self, ref: PinRef, net_id: int) -> None:
        remaining = [e for e in self.nets[net_id].endpoints()
                     if e is not ref and e.key()[:2] == ref.key()[:2]]
        if remaining:
            return  # another endpoint of the same owner still on this net
        if ref.is_port:
            self._port_nets[ref.port].discard(net_id)
        else:
            self._inst_nets[ref.inst].discard(net_id)

    # -- incremental edits --------------------------------------------------

    def remove_net(self, net_id: int) -> None:
        """Delete a net; endpoints are left unconnected."""
        net = self.nets.pop(net_id)
        for ref in net.endpoints():
            if ref.is_port:
                self._port_nets[ref.port].discard(net_id)
            else:
                self._inst_nets[ref.inst].discard(net_id)

    def remove_instance(self, inst_id: int) -> None:
        """Delete an instance; it must not be connected to any net."""
        if self._inst_nets.get(inst_id):
            raise ValueError(f"instance {inst_id} still connected")
        self.instances.pop(inst_id)
        self._inst_nets.pop(inst_id, None)

    def add_sink(self, net_id: int, ref: PinRef) -> None:
        """Attach a new sink endpoint to an existing net."""
        self.nets[net_id].sinks.append(ref)
        self._index(ref, net_id)

    def remove_sink(self, net_id: int, ref: PinRef) -> None:
        """Detach one sink endpoint from a net."""
        net = self.nets[net_id]
        for i, s in enumerate(net.sinks):
            if s.key() == ref.key():
                del net.sinks[i]
                self._unindex(ref, net_id)
                return
        raise ValueError(f"sink {ref} not on net {net.name}")

    def rewire_driver(self, net_id: int, new_driver: PinRef) -> None:
        """Replace a net's driver endpoint (e.g. after buffer insertion)."""
        net = self.nets[net_id]
        old = net.driver
        net.driver = new_driver
        self._unindex(old, net_id)
        self._index(new_driver, net_id)

    def replace_master(self, inst_id: int, master: Master) -> None:
        """Swap an instance's library master (sizing / Vth assignment)."""
        self.instances[inst_id].master = master

    def nets_of(self, inst_id: int) -> List[Net]:
        """All nets touching an instance."""
        return [self.nets[n] for n in self._inst_nets[inst_id]]

    def nets_of_port(self, name: str) -> List[Net]:
        """All nets touching a port."""
        return [self.nets[n] for n in self._port_nets[name]]

    def output_net_of(self, inst_id: int) -> Optional[Net]:
        """The net driven by an instance (None if undriven)."""
        for nid in self._inst_nets[inst_id]:
            net = self.nets[nid]
            if (not net.driver.is_port) and net.driver.inst == inst_id:
                return net
        return None

    def clone(self) -> "Netlist":
        """A deep copy sharing the (immutable) masters.

        Use for what-if ECO experiments, or to start a flow from a
        pristine block: edits to the clone leave the original untouched.
        Placement, die assignments, gating annotations and ports are all
        duplicated.
        """
        other = Netlist(self.name)
        other._next_inst = self._next_inst
        other._next_net = self._next_net
        # tens of thousands of acyclic records: pause the cyclic
        # collector, which would otherwise sweep them dozens of times
        # mid-copy (about half the copy's time)
        with collector_paused():
            other.instances = {
                iid: Instance(i.id, i.name, i.master, i.x, i.y, i.die,
                              i.fixed, i.cluster, i.gated_activity)
                for iid, i in self.instances.items()}
            other._inst_nets = {iid: set(self._inst_nets[iid])
                                for iid in self.instances}
            other.ports = {
                name: Port(p.name, p.direction, p.x, p.y, p.die,
                           p.clock_domain, p.false_path)
                for name, p in self.ports.items()}
            other._port_nets = {name: set(self._port_nets[name])
                                for name in self.ports}
            other.nets = {
                nid: Net(n.id, n.name,
                         PinRef(n.driver.inst, n.driver.port, n.driver.pin),
                         [PinRef(s.inst, s.port, s.pin) for s in n.sinks],
                         n.is_clock, n.clock_domain, n.activity)
                for nid, n in self.nets.items()}
        return other

    # -- queries -------------------------------------------------------------

    @property
    def cells(self) -> List[Instance]:
        """Standard-cell instances only."""
        return [i for i in self.instances.values() if not i.is_macro]

    @property
    def macros(self) -> List[Instance]:
        """Hard-macro instances only."""
        return [i for i in self.instances.values() if i.is_macro]

    @property
    def num_cells(self) -> int:
        return sum(1 for i in self.instances.values() if not i.is_macro)

    @property
    def num_buffers(self) -> int:
        return sum(1 for i in self.instances.values() if i.is_buffer)

    def total_cell_area(self) -> float:
        """Sum of standard-cell areas (um^2)."""
        return sum(i.area_um2 for i in self.cells)

    def total_macro_area(self) -> float:
        """Sum of macro areas (um^2)."""
        return sum(i.area_um2 for i in self.macros)

    def endpoint_position(self, ref: PinRef) -> Tuple[float, float, int]:
        """(x, y, die) of an endpoint."""
        if ref.is_port:
            p = self.ports[ref.port]
            return p.x, p.y, p.die
        i = self.instances[ref.inst]
        return i.x, i.y, i.die

    def endpoint_cap_ff(self, ref: PinRef) -> float:
        """Input capacitance presented by a sink endpoint (fF)."""
        if ref.is_port:
            return 2.0  # block-boundary load assumption
        inst = self.instances[ref.inst]
        if inst.is_macro:
            return inst.master.pin_cap_ff
        return inst.master.input_cap_ff

    def dies_of_net(self, net: Net) -> Set[int]:
        """The set of die indices a net's endpoints touch."""
        return {self.endpoint_position(ref)[2] for ref in net.endpoints()}

    def is_3d_net(self, net: Net) -> bool:
        """True if the net spans both tiers."""
        return len(self.dies_of_net(net)) > 1

    def count_3d_nets(self) -> int:
        """Number of nets crossing the die boundary."""
        return sum(1 for n in self.nets.values() if self.is_3d_net(n))

    # -- validation ------------------------------------------------------------

    def validate_structured(self, rules: Optional[Tuple[str, ...]] = None):
        """Run the electrical lint deck and return a structured report.

        Args:
            rules: optional explicit rule-id subset (e.g.
                ``("ERC003", "ERC004")`` for the legacy checks only);
                ``None`` runs every netlist-scope rule.

        Returns:
            A :class:`repro.lint.LintReport` of
            :class:`repro.lint.Violation` objects.
        """
        # imported lazily: repro.lint imports this module
        from ..lint import lint_netlist
        return lint_netlist(self, rules=rules)

    #: the rules whose messages the legacy string validator reported
    _LEGACY_RULES = ("ERC003", "ERC004")

    def validate(self) -> List[str]:
        """Structural sanity checks; returns a list of problem strings.

        Back-compat wrapper over :meth:`validate_structured`, restricted
        to the original checks (dangling endpoint references, direction
        misuse, sinkless nets) with the original message strings.
        """
        report = self.validate_structured(rules=self._LEGACY_RULES)
        return [v.message for v in report.violations]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Netlist({self.name!r}, cells={self.num_cells}, "
                f"macros={len(self.macros)}, nets={len(self.nets)}, "
                f"ports={len(self.ports)})")
