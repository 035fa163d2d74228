"""Tests for the synthetic logic generator."""

from collections import defaultdict

import numpy as np
import pytest

from repro.designgen.logic import LogicSpec, generate_logic
from repro.netlist.core import Netlist
from repro.tech.cells import make_28nm_library
from repro.tech.macros import sram_macro
from repro.tech.process import IO_CLOCK


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


def gen(lib, seed=7, **kw):
    defaults = {"n_cells": 400, "n_inputs": 30, "n_outputs": 30}
    defaults.update(kw)
    spec = LogicSpec(**defaults)
    rng = np.random.default_rng(seed)
    return generate_logic("blk", spec, lib, rng), spec


def test_structural_validity(lib):
    nl, _ = gen(lib)
    assert nl.validate() == []


def test_cell_count_close_to_spec(lib):
    nl, spec = gen(lib)
    assert abs(nl.num_cells - spec.n_cells) <= spec.n_cells * 0.02


def test_register_outputs_adds_port_flops(lib):
    nl, spec = gen(lib, register_outputs=True)
    expected = spec.n_cells + spec.n_outputs
    assert abs(nl.num_cells - expected) <= spec.n_cells * 0.02
    offs = [i for i in nl.instances.values()
            if i.name.startswith("off_")]
    assert len(offs) == spec.n_outputs
    assert all(i.is_sequential for i in offs)


def test_false_path_spares_flagged(lib):
    nl, _ = gen(lib, false_path_spares=True)
    spares = [p for n, p in nl.ports.items() if "spare" in n]
    assert spares
    assert all(p.false_path for p in spares)
    nl2, _ = gen(lib)
    assert all(not p.false_path for n, p in nl2.ports.items())


def test_deterministic_given_seed(lib):
    a, _ = gen(lib, seed=13)
    b, _ = gen(lib, seed=13)
    assert a.num_cells == b.num_cells
    assert len(a.nets) == len(b.nets)
    assert sorted(n.name for n in a.nets.values()) == \
        sorted(n.name for n in b.nets.values())
    assert [i.master.name for i in a.instances.values()] == \
        [i.master.name for i in b.instances.values()]


def test_different_seeds_differ(lib):
    a, _ = gen(lib, seed=1)
    b, _ = gen(lib, seed=2)
    assert [i.master.name for i in a.instances.values()] != \
        [i.master.name for i in b.instances.values()]


def test_single_driver_per_net(lib):
    nl, _ = gen(lib)
    for net in nl.nets.values():
        drivers = [net.driver]
        assert len(drivers) == 1


def test_no_combinational_cycles(lib):
    """Each comb cell's fanin must come from strictly earlier sources."""
    nl, _ = gen(lib)
    # build dependency edges between combinational cells
    order = {}
    deps = defaultdict(set)
    for net in nl.nets.values():
        if net.is_clock or net.driver.is_port:
            continue
        drv = nl.instances[net.driver.inst]
        if drv.is_macro or drv.is_sequential:
            continue
        for s in net.sinks:
            if s.is_port:
                continue
            sink = nl.instances[s.inst]
            if sink.is_macro or sink.is_sequential:
                continue
            deps[s.inst].add(net.driver.inst)
    # Kahn: the comb graph must fully drain
    from collections import deque
    comb = [i.id for i in nl.instances.values()
            if not i.is_macro and not i.is_sequential]
    indeg = {c: len(deps[c]) for c in comb}
    q = deque(c for c in comb if indeg[c] == 0)
    seen = 0
    succ = defaultdict(list)
    for c, ds in deps.items():
        for d in ds:
            succ[d].append(c)
    while q:
        n = q.popleft()
        seen += 1
        for s in succ[n]:
            indeg[s] -= 1
            if indeg[s] == 0:
                q.append(s)
    assert seen == len(comb), "combinational cycle detected"


def test_clock_net_reaches_all_flops(lib):
    nl, _ = gen(lib)
    clock_nets = [n for n in nl.nets.values() if n.is_clock]
    assert len(clock_nets) == 1
    clocked = {s.inst for s in clock_nets[0].sinks if not s.is_port}
    flops = {i.id for i in nl.instances.values() if i.is_sequential}
    assert flops <= clocked


def test_flop_fraction_respected(lib):
    nl, spec = gen(lib, flop_fraction=0.3)
    flops = sum(1 for i in nl.instances.values() if i.is_sequential)
    assert flops == pytest.approx(spec.n_cells * 0.3, rel=0.05)


def test_port_counts(lib):
    nl, spec = gen(lib)
    ins = [p for p in nl.ports.values() if p.direction == "in"]
    outs = [p for p in nl.ports.values() if p.direction == "out"]
    assert len(ins) == spec.n_inputs + 1  # + clock
    assert len(outs) >= spec.n_outputs  # + spare observation ports


def test_spare_outputs_are_minority(lib):
    nl, spec = gen(lib)
    spares = sum(1 for p in nl.ports if "spare" in p)
    assert spares < 0.25 * nl.num_cells


def test_macros_wired_like_sequentials(lib):
    nl, _ = gen(lib, macros=[(sram_macro(2), 2)])
    macros = nl.macros
    assert len(macros) == 2
    for m in macros:
        nets = nl.nets_of(m.id)
        drives = [n for n in nets if not n.driver.is_port
                  and n.driver.inst == m.id]
        sinks = [n for n in nets
                 for s in n.sinks
                 if not s.is_port and s.inst == m.id and not n.is_clock]
        assert drives, "macro outputs must launch paths"
        assert sinks, "macro inputs must capture paths"


def test_clock_domain_propagates(lib):
    nl, _ = gen(lib, clock_domain=IO_CLOCK)
    domains = {n.clock_domain for n in nl.nets.values()}
    assert domains == {IO_CLOCK}


def test_broadcast_creates_high_fanout(lib):
    nl, _ = gen(lib, n_cells=600, broadcast_pick=0.15)
    max_deg = max(n.degree for n in nl.nets.values() if not n.is_clock)
    assert max_deg > 20


def test_locality_reduces_cross_cluster_edges(lib):
    def cross_fraction(locality):
        nl, _ = gen(lib, n_cells=800, locality=locality, seed=3)
        cross = total = 0
        for net in nl.nets.values():
            if net.is_clock or net.driver.is_port:
                continue
            dc = nl.instances[net.driver.inst].cluster
            for s in net.sinks:
                if s.is_port:
                    continue
                total += 1
                if abs(nl.instances[s.inst].cluster - dc) > 2:
                    cross += 1
        return cross / max(total, 1)

    assert cross_fraction(0.95) < cross_fraction(0.45)


def test_cluster_tags_offset_by_base(lib):
    spec = LogicSpec(n_cells=100, n_inputs=5, n_outputs=5)
    rng = np.random.default_rng(0)
    nl = Netlist("two")
    generate_logic("a", spec, lib, rng, netlist=nl, cluster_base=0,
                   port_prefix="a_")
    first_max = max(i.cluster for i in nl.instances.values())
    generate_logic("b", spec, lib, rng, netlist=nl,
                   cluster_base=first_max + 1, port_prefix="b_")
    b_clusters = {i.cluster for i in nl.instances.values()
                  if i.name.startswith("b_")}
    assert min(b_clusters) > first_max
    assert nl.validate() == []
