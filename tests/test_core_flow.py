"""Tests for the end-to-end block design flow."""

import pytest

from repro.core.flow import FlowConfig, run_block_flow
from repro.core.folding import FoldSpec


@pytest.fixture(scope="module")
def ccx_2d(process):
    return run_block_flow("ccx", FlowConfig(), process)


@pytest.fixture(scope="module")
def ccx_fold(process):
    return run_block_flow("ccx", FlowConfig(
        fold=FoldSpec(mode="regions", die1_regions=("cpx",)),
        bonding="F2B"), process)


def test_2d_design_sane(ccx_2d):
    d = ccx_2d
    assert d.footprint_um2 > 0
    assert d.wirelength_um > 0
    assert d.n_cells > 1000
    assert d.n_buffers > 0
    assert d.n_vias == 0
    assert not d.is_folded
    assert d.power.total_uw > 0
    assert d.netlist.validate() == []


def test_2d_meets_timing(ccx_2d):
    assert ccx_2d.sta.wns_ps >= -20.0


def test_power_components_sum(ccx_2d):
    p = ccx_2d.power
    assert p.total_uw == pytest.approx(
        p.cell_uw + p.net_uw + p.leakage_uw)
    assert p.net_uw == pytest.approx(p.wire_uw + p.pin_uw)


def test_fold_shrinks_footprint(ccx_2d, ccx_fold):
    assert ccx_fold.footprint_um2 < 0.62 * ccx_2d.footprint_um2


def test_fold_cuts_wirelength_and_power(ccx_2d, ccx_fold):
    assert ccx_fold.wirelength_um < ccx_2d.wirelength_um
    assert ccx_fold.power.total_uw < ccx_2d.power.total_uw


def test_fold_meets_timing(ccx_fold):
    assert ccx_fold.sta.wns_ps >= -20.0


def test_ccx_natural_fold_uses_four_vias(ccx_fold):
    # 3 test bridges + 1 clock-tree crossing: the paper's 4 TSVs
    assert ccx_fold.n_vias == 4


def test_fold_result_attached(ccx_fold):
    assert ccx_fold.is_folded
    assert ccx_fold.fold_result.bonding == "F2B"
    assert ccx_fold.tsv_area_um2 > 0


def test_flow_deterministic(process):
    a = run_block_flow("ncu", FlowConfig(seed=5), process)
    b = run_block_flow("ncu", FlowConfig(seed=5), process)
    assert a.power.total_uw == pytest.approx(b.power.total_uw)
    assert a.n_buffers == b.n_buffers
    assert a.wirelength_um == pytest.approx(b.wirelength_um)


def test_io_budget_shifts_power(process):
    loose = run_block_flow("l2t", FlowConfig(io_budget_ps=0.0), process)
    tight = run_block_flow("l2t", FlowConfig(io_budget_ps=250.0), process)
    assert tight.power.total_uw >= loose.power.total_uw * 0.99


def test_dual_vth_flow(process):
    d = run_block_flow("ncu", FlowConfig(dual_vth=True), process)
    assert d.hvt_fraction > 0.5
    assert d.sta.wns_ps >= -20.0


def test_rvt_flow_has_no_hvt(ccx_2d):
    assert ccx_2d.hvt_fraction == 0.0


def test_f2f_fold_uses_all_nine_layers(process):
    d = run_block_flow("l2t", FlowConfig(
        fold=FoldSpec(mode="mincut"), bonding="F2F"), process)
    assert d.fold_result.bonding == "F2F"
    assert d.tsv_area_um2 == 0.0


def test_scale_parameter_shrinks_design(process):
    full = run_block_flow("l2t", FlowConfig(scale=1.0), process)
    half = run_block_flow("l2t", FlowConfig(scale=0.5), process)
    assert half.n_cells < 0.75 * full.n_cells


def test_long_wire_count_positive_for_big_blocks(ccx_2d):
    assert ccx_2d.long_wires > 10


def test_unfolded_bonding_has_one_spelling(process):
    """Bonding is upper-cased, and only a folded flow keeps F2F: an
    unfolded design has one config and one design-cache key."""
    from repro.core.cache import design_key
    assert FlowConfig(bonding="f2f") == FlowConfig()
    assert design_key("ncu", FlowConfig(bonding="f2f"), process) == \
        design_key("ncu", FlowConfig(), process)
    fold = FoldSpec(mode="mincut")
    assert FlowConfig(fold=fold, bonding="f2f").bonding == "F2F"


@pytest.mark.parametrize("fold", [None, FoldSpec(mode="mincut")])
def test_unknown_bonding_rejected(fold):
    with pytest.raises(ValueError, match="F2X"):
        FlowConfig(fold=fold, bonding="F2X")
