"""The per-run block memo: each block generated once and 2D-placed once.

A flow served from the memo must equal a fresh flow; no edit to one
served netlist may reach the next; the recorded placement must cover
every field the placer writes; and a memo lives exactly as long as its
scope.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.analysis import experiments
from repro.analysis.export_json import block_to_dict
from repro.core import flow
from repro.core.flow import (BlockMemo, FlowConfig, block_memo, memo_block,
                             run_block_flow)
from repro.core.folding import FoldSpec
from repro.core.fullchip import ChipConfig, build_chip
from repro.designgen import block_type_by_name, generate_block
from repro.designgen.t2 import t2_block_types
from repro.netlist.core import Instance, PinRef, Port
from repro.place.placer2d import PlacementConfig, place_block_2d

SCALE = 0.3
SEED = 2
CONFIGS = {
    "2d": FlowConfig(scale=SCALE, seed=SEED),
    "F2B": FlowConfig(scale=SCALE, seed=SEED, fold=FoldSpec("mincut"),
                      bonding="F2B"),
    "F2F": FlowConfig(scale=SCALE, seed=SEED, fold=FoldSpec("mincut"),
                      bonding="F2F"),
}


def _values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _netlist_state(nl):
    """A by-value snapshot of every record of a netlist and of its
    connection index."""
    return (
        [_values(i) for i in nl.instances.values()],
        [_values(p) for p in nl.ports.values()],
        [(n.id, n.name, n.driver.key(), [s.key() for s in n.sinks],
          n.is_clock, n.clock_domain, n.activity)
         for n in nl.nets.values()],
        {k: sorted(v) for k, v in nl._inst_nets.items()},
        {k: sorted(v) for k, v in nl._port_nets.items()},
        nl._next_inst, nl._next_net)


def _same_design(a, b):
    assert json.dumps(block_to_dict(a), sort_keys=True) == \
        json.dumps(block_to_dict(b), sort_keys=True)
    assert a.routing == b.routing and a.sta == b.sta
    assert a.outline == b.outline
    assert _netlist_state(a.netlist) == _netlist_state(b.netlist)


@pytest.fixture(scope="module")
def served(process):
    """l2t flows: fresh ones, and the same configs served by one memo
    (the 2D config twice, so its placement is replayed)."""
    fresh = {name: run_block_flow("l2t", cfg, process)
             for name, cfg in CONFIGS.items()}
    with block_memo():
        memo = [(name, run_block_flow("l2t", cfg, process))
                for name, cfg in [("2d", CONFIGS["2d"]),
                                  ("F2B", CONFIGS["F2B"]),
                                  ("2d", CONFIGS["2d"]),
                                  ("F2F", CONFIGS["F2F"])]]
    return fresh, memo


@pytest.mark.parametrize("name", ["2d", "F2B", "F2F"])
def test_served_flow_equals_a_fresh_flow(served, name):
    fresh, memo = served
    designs = [d for n, d in memo if n == name]
    for design in designs:
        _same_design(design, fresh[name])
    if name != "2d":
        assert fresh[name].n_vias > 0


def test_served_flows_share_no_netlist(served):
    _, memo = served
    netlists = [d.netlist for _, d in memo]
    assert len({id(nl) for nl in netlists}) == len(netlists)
    for _, design in memo:
        assert design.generated.netlist is design.netlist
    outlines = [d.outline for n, d in memo if n == "2d"]
    assert outlines[0] is not outlines[1]


def _served_placed(memo, library):
    gb, _ = memo.pristine(block_type_by_name("l2t"), library, SEED, SCALE)
    netlist = gb.netlist.clone()
    outline, _ = memo.place_2d(gb, netlist, PlacementConfig(seed=SEED))
    return netlist, outline


def _edit(netlist, library):
    """A master swap, a buffer insertion and a move."""
    cell = next(i for i in netlist.instances.values()
                if not i.is_macro and not i.is_buffer)
    other = next(m for m in library.masters
                 if m.function == cell.master.function
                 and m is not cell.master)
    netlist.replace_master(cell.id, other)
    net = next(n for n in netlist.nets.values()
               if not n.is_clock and n.sinks and not n.sinks[0].is_port)
    buffer = next(m for m in library.masters if m.is_buffer)
    buf = netlist.add_instance("memo_probe_buf", buffer, x=1.0, y=1.0)
    sink = net.sinks[0]
    netlist.remove_sink(net.id, sink)
    netlist.add_sink(net.id, PinRef(inst=buf.id, pin=0))
    netlist.add_net("memo_probe_net", PinRef(inst=buf.id), [sink])
    moved = next(iter(netlist.instances.values()))
    moved.x += 3.0
    moved.die = 1


@pytest.mark.parametrize("stage", ["generated", "placed"])
def test_an_edit_never_reaches_the_next_served_copy(library, stage):
    with block_memo() as memo:
        def serve():
            if stage == "generated":
                return memo_block("l2t", library, SEED, SCALE).netlist
            return _served_placed(memo, library)[0]

        first = serve()
        before = _netlist_state(first)
        _edit(first, library)
        assert _netlist_state(first) != before
        second = serve()
    assert second is not first
    assert _netlist_state(second) == before
    for a, b in zip(first.instances.values(), second.instances.values()):
        if b.is_macro:
            assert b.master is a.master
        else:
            assert b.master is library.master(b.master.name)


def test_replayed_placement_matches_a_fresh_placement(library):
    fresh = generate_block(block_type_by_name("l2t"), library, seed=SEED,
                           scale=SCALE)
    outline = place_block_2d(fresh.netlist,
                             PlacementConfig(seed=SEED)).outline
    memo = BlockMemo()
    _served_placed(memo, library)                      # places, records
    replayed, replayed_outline = _served_placed(memo, library)
    assert replayed_outline == outline
    pairs = [(fresh.netlist.instances, replayed.instances, Instance),
             (fresh.netlist.ports, replayed.ports, Port)]
    for want, got, cls in pairs:
        assert list(want) == list(got)
        for key, obj in want.items():
            for f in dataclasses.fields(cls):
                a, b = getattr(obj, f.name), getattr(got[key], f.name)
                assert a == b and type(a) is type(b), (key, f.name)


def test_two_chip_styles_generate_once_and_place_once(process,
                                                      monkeypatch):
    generated, placed = Counter(), Counter()
    real_generate, real_place = flow.generate_block, flow.place_block_2d

    def spy_generate(block_type, *args, **kwargs):
        generated[block_type.name] += 1
        return real_generate(block_type, *args, **kwargs)

    def spy_place(netlist, *args, **kwargs):
        placed[netlist.name] += 1
        return real_place(netlist, *args, **kwargs)

    monkeypatch.setattr(flow, "generate_block", spy_generate)
    monkeypatch.setattr(flow, "place_block_2d", spy_place)
    with block_memo() as memo:
        chips = [build_chip(ChipConfig(style=style, scale=SCALE), process)
                 for style in ("core_cache", "fold_f2b")]
        assert flow._MEMO.get() is memo
    assert flow._MEMO.get() is None
    assert generated == Counter(bt.name for bt in t2_block_types())
    unfolded = {name for chip in chips
                for name, d in chip.block_designs.items()
                if not d.is_folded}
    assert placed == Counter(unfolded)
    assert any(d.is_folded for d in chips[1].block_designs.values())


def test_each_run_opens_its_own_memo_and_closes_it(process, monkeypatch):
    memos = []

    def probe(opts):
        memos.append(flow._MEMO.get())
        for _ in range(2):
            run_block_flow("ncu", FlowConfig(scale=SCALE), process)
        return experiments.ExperimentResult("memo_probe", "", "", [])

    monkeypatch.setitem(experiments.REGISTRY, "memo_probe",
                        experiments.Experiment("memo_probe", "", probe))
    generated = Counter()
    real_generate = flow.generate_block

    def spy_generate(block_type, *args, **kwargs):
        generated[block_type.name] += 1
        return real_generate(block_type, *args, **kwargs)

    monkeypatch.setattr(flow, "generate_block", spy_generate)
    for _ in range(2):
        experiments.run_experiment(
            "memo_probe", experiments.ExperimentOptions(process=process))
        assert flow._MEMO.get() is None
    assert len(memos) == 2 and None not in memos
    assert memos[0] is not memos[1]
    assert generated["ncu"] == 2
    # outside any scope every flow takes a memo that dies with the call
    run_block_flow("ncu", FlowConfig(scale=SCALE), process)
    assert generated["ncu"] == 3 and flow._MEMO.get() is None


def test_one_memo_serves_one_process_node(library):
    from repro.tech import make_process

    memo = BlockMemo()
    memo.pristine(block_type_by_name("ncu"), library, 1, SCALE)
    with pytest.raises(ValueError, match="one process node"):
        memo.pristine(block_type_by_name("ncu"), make_process().library,
                      1, SCALE)
