"""Tests for FM bipartitioning."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import folding
from repro.core.folding import FoldSpec
from repro.core.secondlevel import second_level_spec
from repro.obs import trace
from repro.obs.names import SPAN_PLACE_PARTITION
from repro.obs.trace import Tracer
from repro.place.partition import (count_cut, fm_bipartition,
                                   partition_by_clusters)
from tests.conftest import fresh_block
from tests.oracles import place_scalar as oracle


def test_balance_within_tolerance(library):
    gb = fresh_block("l2t", library, seed=5)
    res = fm_bipartition(gb.netlist, balance_tol=0.10)
    assert res.balance <= 0.62


def test_assignment_covers_all_instances(library):
    gb = fresh_block("ncu", library, seed=5)
    res = fm_bipartition(gb.netlist)
    assert set(res.assignment) == set(gb.netlist.instances)
    assert set(res.assignment.values()) <= {0, 1}


def test_cut_matches_count_cut(library):
    gb = fresh_block("ncu", library, seed=5)
    res = fm_bipartition(gb.netlist)
    assert res.cut_nets == count_cut(gb.netlist, res.assignment)


def test_fm_improves_over_random_split(library):
    import numpy as np
    gb = fresh_block("l2t", library, seed=6)
    nl = gb.netlist
    rng = np.random.default_rng(0)
    random_assign = {i: int(rng.integers(0, 2)) for i in nl.instances}
    random_cut = count_cut(nl, random_assign)
    res = fm_bipartition(nl, initial=random_assign)
    assert res.cut_nets < random_cut


def test_locked_instances_stay(library):
    gb = fresh_block("ncu", library, seed=7)
    nl = gb.netlist
    some = list(nl.instances)[:20]
    initial = {i: 1 for i in some}
    res = fm_bipartition(nl, initial=initial, locked=set(some))
    for i in some:
        assert res.assignment[i] == 1


def test_ccx_natural_split_is_near_zero_cut(library):
    gb = fresh_block("ccx", library, seed=1)
    cpx = gb.clusters_of_regions(("cpx",))
    assignment = partition_by_clusters(gb.netlist, cpx)
    # PCX and CPX share only the few test-bridge signals
    assert count_cut(gb.netlist, assignment) <= 4


def test_partition_by_clusters_assignment(library):
    gb = fresh_block("l2d", library, seed=1)
    clusters = gb.clusters_of_regions(("subbank3",))
    assignment = partition_by_clusters(gb.netlist, clusters)
    for inst in gb.netlist.instances.values():
        expected = 1 if inst.cluster in clusters else 0
        assert assignment[inst.id] == expected


def test_fm_deterministic(library):
    a = fresh_block("l2t", library, seed=8)
    b = fresh_block("l2t", library, seed=8)
    ra = fm_bipartition(a.netlist, seed=3)
    rb = fm_bipartition(b.netlist, seed=3)
    assert ra.cut_nets == rb.cut_nets
    assert ra.assignment == rb.assignment


# -- parity with the linear-scan oracle ------------------------------------

def assert_same_partition(got, want):
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.cut_nets == want.cut_nets
    assert got.area == want.area  # exact floats, not approx


def spc_fold_call(library, seed, monkeypatch):
    """The netlist and FM arguments of the SPC second-level fold."""
    gb = fresh_block("spc", library, seed=seed)
    calls = []

    def spy(netlist, **kwargs):
        calls.append(kwargs)
        return fm_bipartition(netlist, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(folding, "fm_bipartition", spy)
        folding.make_partition(gb, second_level_spec())
    [kwargs] = calls
    return gb.netlist, kwargs


@pytest.mark.parametrize("seed", [1, 2])
def test_spc_second_level_fold_matches_oracle(library, seed, monkeypatch):
    netlist, kwargs = spc_fold_call(library, seed, monkeypatch)
    assert kwargs["locked"] and kwargs["initial"]
    assert_same_partition(fm_bipartition(netlist, **kwargs),
                          oracle.fm_bipartition(netlist, **kwargs))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["l2t", "ccx", "rtx"])
def test_mincut_matches_oracle(library, name, seed):
    netlist = fresh_block(name, library, seed=seed).netlist
    assert_same_partition(fm_bipartition(netlist),
                          oracle.fm_bipartition(netlist))


@pytest.fixture(scope="module")
def small_netlists(process):
    """Small blocks, three with macros (FM never mutates its netlist)."""
    return [fresh_block(name, process.library, seed=3, scale=scale).netlist
            for name, scale in (("ncu", 0.3), ("l2t", 0.2), ("l2d", 0.3),
                                ("spc", 0.1))]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_inputs_match_oracle(data, small_netlists):
    netlist = data.draw(st.sampled_from(small_netlists))
    ids = list(netlist.instances)
    # a few listed instances, or all of them in a shuffled key order
    listed = data.draw(st.one_of(st.lists(st.sampled_from(ids), unique=True),
                                 st.permutations(ids)))
    sides = data.draw(st.lists(st.integers(0, 1), min_size=len(listed),
                               max_size=len(listed)))
    kwargs = {
        "initial": dict(zip(listed, sides)),
        "locked": set(data.draw(st.lists(st.sampled_from(ids), unique=True))),
        # tolerances near zero leave no feasible move at all
        "balance_tol": data.draw(st.one_of(st.floats(0.0, 1e-3),
                                           st.floats(0.0, 0.3))),
        "max_passes": data.draw(st.integers(1, 6)),
        "seed": data.draw(st.integers(0, 2 ** 32 - 1)),
    }
    assert_same_partition(fm_bipartition(netlist, **kwargs),
                          oracle.fm_bipartition(netlist, **kwargs))


# -- malformed inputs ------------------------------------------------------

def test_unknown_initial_id_rejected(library):
    netlist = fresh_block("ncu", library, seed=5, scale=0.3).netlist
    bad = max(netlist.instances) + 7
    with pytest.raises(ValueError, match=rf"initial .*\b{bad}\b"):
        fm_bipartition(netlist, initial={bad: 0})


def test_unknown_locked_id_rejected(library):
    netlist = fresh_block("ncu", library, seed=5, scale=0.3).netlist
    bad = max(netlist.instances) + 7
    with pytest.raises(ValueError, match=rf"locked .*\b{bad}\b"):
        fm_bipartition(netlist, locked={bad})


def test_initial_side_outside_0_1_rejected(library):
    netlist = fresh_block("ncu", library, seed=5, scale=0.3).netlist
    iid = min(netlist.instances)
    with pytest.raises(ValueError, match=rf"side other than 0/1 .*\b{iid}\b"):
        fm_bipartition(netlist, initial={iid: 2})


# -- observability ---------------------------------------------------------

def test_partition_span_on_l2t_mincut(library):
    gb = fresh_block("l2t", library, seed=1)
    tracer = Tracer()
    with trace.use_tracer(tracer):
        assignment = folding.make_partition(gb, FoldSpec(mode="mincut"))
    [span] = [s for s in tracer.spans if s.name == SPAN_PLACE_PARTITION]
    assert set(span.attrs) == {"cells", "locked", "passes", "moves", "cut"}
    assert span.attrs["cells"] == len(gb.netlist.instances)
    assert span.attrs["locked"] == 0
    assert 1 <= span.attrs["passes"] <= 6
    assert span.attrs["moves"] > 0
    assert span.attrs["cut"] == count_cut(gb.netlist, assignment)
