"""Tests for full-chip assembly (reduced scale for speed)."""

import pytest

from repro.core.fullchip import DEFAULT_FOLDS, ChipConfig, build_chip
from repro.floorplan.t2_floorplans import FOLDED_TYPES

SCALE = 0.5


@pytest.fixture(scope="module")
def chip_2d(process):
    return build_chip(ChipConfig(style="2d", scale=SCALE), process)


@pytest.fixture(scope="module")
def chip_cc(process):
    return build_chip(ChipConfig(style="core_cache", scale=SCALE), process)


@pytest.fixture(scope="module")
def chip_fold(process):
    return build_chip(ChipConfig(style="fold_f2f", scale=SCALE), process)


def test_config_validation():
    with pytest.raises(ValueError):
        ChipConfig(style="mobius")
    cfg = ChipConfig(style="fold_f2b")
    assert cfg.is_3d and cfg.is_folded and cfg.bonding == "F2B"
    assert ChipConfig(style="fold_f2f").bonding == "F2F"
    assert not ChipConfig(style="2d").is_3d


def test_default_folds_cover_folded_types():
    assert set(DEFAULT_FOLDS) == set(FOLDED_TYPES)


def test_chip_2d_sane(chip_2d):
    c = chip_2d
    assert c.footprint_um2 > 0
    assert c.n_cells > 10000
    assert c.n_buffers > 0
    assert c.n_3d_connections == 0
    assert c.power.total_uw > 0
    assert c.interblock_wl_um > 0
    assert len(c.routed_bundles) > 30
    assert c.floorplan.n_dies == 1


def test_block_of_lookup(chip_2d):
    assert chip_2d.block_of("spc3").name == "spc"
    assert chip_2d.block_of("ccx").name == "ccx"


def test_3d_halves_footprint(chip_2d, chip_cc):
    ratio = chip_cc.footprint_um2 / chip_2d.footprint_um2
    assert 0.45 < ratio < 0.75


def test_3d_has_tsvs(chip_cc):
    assert chip_cc.n_3d_connections > 100
    assert chip_cc.floorplan.n_dies == 2


def test_3d_saves_power(chip_2d, chip_cc):
    assert chip_cc.power.total_uw < 0.97 * chip_2d.power.total_uw


def test_3d_cuts_buffers_and_wirelength(chip_2d, chip_cc):
    assert chip_cc.n_buffers < chip_2d.n_buffers
    assert chip_cc.wirelength_um < chip_2d.wirelength_um


def test_folding_competitive_with_plain_stacking(chip_cc, chip_fold):
    # folding's edge shrinks at reduced model scale (fewer long wires);
    # at full scale the fig8/table5 benches show the clear win
    assert chip_fold.power.total_uw < 1.07 * chip_cc.power.total_uw
    assert chip_fold.n_3d_connections > chip_cc.n_3d_connections


def test_folded_blocks_in_floorplan(chip_fold):
    from repro.floorplan.t2_floorplans import BOTH_DIES
    folded = [n for n, d in chip_fold.floorplan.die_of.items()
              if d == BOTH_DIES]
    bases = {n.rstrip("0123456789") for n in folded}
    assert bases == set(FOLDED_TYPES)


def test_chip_timing_met(chip_2d, chip_cc, chip_fold):
    for chip in (chip_2d, chip_cc, chip_fold):
        assert chip.wns_ps >= -25.0


def test_power_breakdown_consistent(chip_2d):
    p = chip_2d.power
    assert p.total_uw == pytest.approx(
        p.cell_uw + p.net_uw + p.leakage_uw, rel=1e-9)


def test_crossing_bundles_only_in_3d(chip_2d, chip_cc):
    assert not any(rb.crosses_dies for rb in chip_2d.routed_bundles)
    assert any(rb.crosses_dies for rb in chip_cc.routed_bundles)


def test_dual_vth_chip(process):
    chip = build_chip(ChipConfig(style="2d", scale=SCALE, dual_vth=True),
                      process)
    assert chip.hvt_fraction > 0.6
