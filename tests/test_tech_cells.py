"""Tests for the standard-cell library model."""

import pytest

from repro.tech.cells import (DRIVE_STRENGTHS, HVT_DELAY_FACTOR,
                              HVT_INTERNAL_FACTOR, HVT_LEAKAGE_FACTOR,
                              VTH_HVT, VTH_RVT, make_28nm_library)


@pytest.fixture(scope="module")
def lib():
    return make_28nm_library()


def test_library_size(lib):
    # 10 functions x 5 drives x 2 flavors
    assert len(lib) == 10 * len(DRIVE_STRENGTHS) * 2


def test_master_lookup(lib):
    m = lib.master("NAND2_X4")
    assert m.function == "NAND2"
    assert m.drive == 4
    assert m.vth == VTH_RVT
    h = lib.master("NAND2_X4_HVT")
    assert h.vth == VTH_HVT


def test_unknown_master_raises(lib):
    with pytest.raises(KeyError):
        lib.master("NAND3_X1")


def test_contains(lib):
    assert "INV_X1" in lib
    assert "INV_X3" not in lib


@pytest.mark.parametrize("function", ["INV", "NAND2", "DFF", "MUX2"])
def test_size_scaling_monotonic(lib, function):
    ladder = lib.sizes_of(function)
    assert [m.drive for m in ladder] == list(DRIVE_STRENGTHS)
    for a, b in zip(ladder, ladder[1:]):
        assert b.area_um2 > a.area_um2
        assert b.input_cap_ff > a.input_cap_ff
        assert b.drive_res_kohm < a.drive_res_kohm
        assert b.leakage_uw > a.leakage_uw
        assert b.internal_energy_fj > a.internal_energy_fj


@pytest.mark.parametrize("function", ["INV", "BUF", "DFF", "XOR2"])
def test_hvt_derating(lib, function):
    rvt = lib.master(f"{function}_X2")
    hvt = lib.master(f"{function}_X2_HVT")
    assert hvt.drive_res_kohm == pytest.approx(
        rvt.drive_res_kohm * HVT_DELAY_FACTOR)
    assert hvt.intrinsic_delay_ps == pytest.approx(
        rvt.intrinsic_delay_ps * HVT_DELAY_FACTOR)
    assert hvt.leakage_uw == pytest.approx(
        rvt.leakage_uw * HVT_LEAKAGE_FACTOR)
    assert hvt.internal_energy_fj == pytest.approx(
        rvt.internal_energy_fj * HVT_INTERNAL_FACTOR)
    # HVT cells occupy the same area
    assert hvt.area_um2 == pytest.approx(rvt.area_um2)


def test_delay_model_linear_in_load(lib):
    m = lib.master("INV_X2")
    d0 = m.delay_ps(0.0)
    d10 = m.delay_ps(10.0)
    d20 = m.delay_ps(20.0)
    assert d0 == pytest.approx(m.intrinsic_delay_ps)
    assert d20 - d10 == pytest.approx(d10 - d0)


def test_upsize_downsize_chain(lib):
    m = lib.master("NOR2_X2")
    up = lib.upsize(m)
    assert up.drive == 4
    down = lib.downsize(m)
    assert down.drive == 1
    assert lib.downsize(down) is None
    top = lib.master("NOR2_X16")
    assert lib.upsize(top) is None


def test_upsize_preserves_vth(lib):
    m = lib.master("AND2_X2_HVT")
    assert lib.upsize(m).vth == VTH_HVT


def test_variant_changes_vth_only(lib):
    m = lib.master("MUX2_X8")
    v = lib.variant(m, vth=VTH_HVT)
    assert v.drive == 8 and v.function == "MUX2" and v.vth == VTH_HVT


def test_buffer_and_flop_helpers(lib):
    assert lib.buffer().function == "BUF"
    assert lib.buffer(drive=8).drive == 8
    assert lib.flop().is_sequential
    assert lib.flop().clock_pin_cap_ff > 0


def test_is_buffer_flag(lib):
    assert lib.master("BUF_X4").is_buffer
    assert lib.master("INV_X4").is_buffer
    assert not lib.master("NAND2_X4").is_buffer


def test_sequential_only_dff(lib):
    seq = {m.function for m in lib.masters if m.is_sequential}
    assert seq == {"DFF"}
