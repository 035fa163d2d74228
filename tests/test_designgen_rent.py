"""Tests for the Rent-exponent measurement."""

import pytest

from repro.designgen.rent import measure_rent_exponent
from tests.conftest import fresh_block


@pytest.mark.parametrize("block", ["spc", "ccx", "l2t"])
def test_generator_in_realistic_rent_regime(library, block):
    """Real logic sits around p ~ 0.5-0.75; the generator must too."""
    gb = fresh_block(block, library, seed=1)
    fit = measure_rent_exponent(gb.netlist)
    assert 0.4 < fit.exponent < 0.85, fit.exponent
    assert fit.coefficient > 1.0


def test_fit_predicts_terminals(library):
    gb = fresh_block("l2t", library, seed=1)
    fit = measure_rent_exponent(gb.netlist)
    small = fit.terminals_at(50)
    big = fit.terminals_at(500)
    assert big > small > 0


def test_sample_points_cover_scales(library):
    gb = fresh_block("ccx", library, seed=1)
    fit = measure_rent_exponent(gb.netlist, min_gates=24, max_depth=5)
    gates = sorted(pt.gates for pt in fit.points)
    assert gates[0] < 100 < gates[-1]
    assert len(fit.points) >= 15


def test_low_locality_raises_exponent(library):
    """More global wiring => higher Rent exponent."""
    import numpy as np
    from repro.designgen.logic import LogicSpec, generate_logic
    def measure(locality, seed=5):
        spec = LogicSpec(n_cells=900, n_inputs=40, n_outputs=40,
                         locality=locality)
        rng = np.random.default_rng(seed)
        nl = generate_logic("b", spec, library, rng)
        return measure_rent_exponent(nl).exponent

    assert measure(0.45) > measure(0.95)


def test_degenerate_netlist():
    from repro.netlist.core import Netlist
    fit = measure_rent_exponent(Netlist("empty"))
    assert fit.exponent == 0.0
    assert fit.points == []
