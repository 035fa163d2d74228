"""Tests for the TSV-to-wire coupling extension."""

import pytest

from repro.analysis.coupling import coupling_power, coupling_study
from repro.core.flow import FlowConfig, run_block_flow
from repro.tech.interconnect3d import (make_f2f_via, make_tsv,
                                       tsv_wire_coupling_ff)


def test_coupling_cap_positive_and_distance_monotone():
    tsv = make_tsv()
    near = tsv_wire_coupling_ff(tsv, wire_distance_um=0.5)
    far = tsv_wire_coupling_ff(tsv, wire_distance_um=3.0)
    assert near > far > 0.0


def test_coupling_scales_with_length():
    tsv = make_tsv()
    short = tsv_wire_coupling_ff(tsv, coupled_length_um=2.0)
    long_ = tsv_wire_coupling_ff(tsv, coupled_length_um=8.0)
    assert long_ == pytest.approx(4 * short, rel=1e-9)


def test_f2f_couples_less_than_tsv():
    assert tsv_wire_coupling_ff(make_f2f_via()) < \
        tsv_wire_coupling_ff(make_tsv())


def test_coupling_power_requires_folded(process):
    flat = run_block_flow("ncu", FlowConfig(), process)
    with pytest.raises(ValueError):
        coupling_power(flat, process)


def test_coupling_study_shapes(process):
    res = coupling_study("l2t", process=process)
    f2b, f2f = res["F2B"], res["F2F"]
    assert f2b.n_vias > 0 and f2f.n_vias > 0
    assert f2b.coupling_per_via_ff > f2f.coupling_per_via_ff
    # same partition => comparable via counts; F2B pays more coupling
    assert f2b.coupling_power_uw > f2f.coupling_power_uw
    assert 0.0 < f2b.power_penalty < 0.2
