"""Tests for the metal stack model."""

import pytest

from repro.tech.layers import make_28nm_stack


@pytest.fixture(scope="module")
def stack():
    return make_28nm_stack()


def test_stack_has_nine_layers(stack):
    assert len(stack) == 9
    assert [l.name for l in stack] == [f"M{i}" for i in range(1, 10)]


def test_layer_lookup_by_name(stack):
    m4 = stack.layer("M4")
    assert m4.index == 4
    with pytest.raises(KeyError):
        stack.layer("M42")


def test_top_layer(stack):
    assert stack.top.name == "M9"


def test_directions_alternate(stack):
    for a, b in zip(stack.layers, stack.layers[1:]):
        if a.index >= 7:
            continue  # top thick layers may repeat patterns
        assert a.direction != b.direction


def test_lower_layers_more_resistive(stack):
    r_values = [l.r_per_um for l in stack]
    assert r_values[0] > r_values[4] > r_values[8]


def test_wire_resistance_and_capacitance_scale_with_length(stack):
    m5 = stack.layer("M5")
    assert m5.wire_resistance(100.0) == pytest.approx(100.0 * m5.r_per_um)
    assert m5.wire_capacitance(100.0) == pytest.approx(100.0 * m5.c_per_um)
    assert m5.wire_resistance(200.0) == pytest.approx(
        2 * m5.wire_resistance(100.0))


def test_sub_stack_restricts_layers(stack):
    sub = stack.sub_stack(7)
    assert len(sub) == 7
    assert sub.top.name == "M7"


@pytest.mark.parametrize("bad", [0, 10, -1])
def test_sub_stack_rejects_bad_index(stack, bad):
    with pytest.raises(ValueError):
        stack.sub_stack(bad)


def test_effective_rc_averages_range(stack):
    r, c = stack.effective_rc(2, 3)
    m2, m3 = stack.layer("M2"), stack.layer("M3")
    assert r == pytest.approx((m2.r_per_um + m3.r_per_um) / 2)
    assert c == pytest.approx((m2.c_per_um + m3.c_per_um) / 2)


def test_effective_rc_upper_layers_faster(stack):
    r_lo, _ = stack.effective_rc(2, 3)
    r_hi, _ = stack.effective_rc(8, 9)
    assert r_hi < r_lo / 5


def test_effective_rc_empty_range_raises(stack):
    with pytest.raises(ValueError):
        stack.effective_rc(5, 4)


def test_effective_rc_default_hi(stack):
    r_all, c_all = stack.effective_rc(2)
    r_explicit, c_explicit = stack.effective_rc(2, 9)
    assert (r_all, c_all) == (r_explicit, c_explicit)
