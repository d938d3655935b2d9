"""Tests for the remap escalation chain and its failure contract."""

import pytest

from repro import Compact, RemapFailure, remap
from repro.circuits import c17
from repro.crossbar import FaultMap, evaluate_with_faults, random_fault_map
from repro.crossbar.faults import STUCK_OFF, Fault
from repro.robust import RemapResult


@pytest.fixture(scope="module")
def c17_case():
    nl = c17()
    design = Compact(gamma=0.5, method="heuristic").synthesize_netlist(nl).design
    return nl, design


def assert_remap_functional(nl, result):
    """The remapped design must compute nl's function under the faults."""
    for bits in range(1 << len(nl.inputs)):
        env = {
            name: bool((bits >> i) & 1) for i, name in enumerate(nl.inputs)
        }
        got = evaluate_with_faults(result.design, env, result.fault_map.faults)
        assert got == nl.evaluate(env)


class TestStages:
    def test_clean_array_is_identity(self, c17_case):
        nl, design = c17_case
        fm = FaultMap(design.num_rows, design.num_cols, ())
        result = remap(design, fm, nl.evaluate, nl.inputs)
        assert isinstance(result, RemapResult)
        assert result.stage == "identity"
        assert result.displacement == 0

    def test_permutation_avoids_a_fault(self, c17_case):
        nl, design = c17_case
        _l, r, c, _ = next(iter(design.cells()))
        fm = FaultMap(design.num_rows, design.num_cols, (Fault(r, c, STUCK_OFF),))
        result = remap(design, fm, nl.evaluate, nl.inputs)
        assert result.stage in ("identity", "permute")
        assert result.spare_rows_used == 0 and result.spare_cols_used == 0
        assert_remap_functional(nl, result)

    def test_spares_used_when_needed(self, c17_case):
        nl, design = c17_case
        # Break every programmed cell of physical row 1 in the primary
        # region AND the same column pattern on every other row, so only
        # a spare row can host the displaced wordline.
        fm = random_fault_map(
            design.num_rows + 2, design.num_cols + 2,
            p_stuck_on=0.0, p_stuck_off=0.10, seed=13,
        )
        result = remap(design, fm, nl.evaluate, nl.inputs)
        assert result.stage in ("identity", "permute", "spares")
        assert_remap_functional(nl, result)

    def test_milp_method_works(self, c17_case):
        nl, design = c17_case
        _l, r, c, _ = next(iter(design.cells()))
        fm = FaultMap(design.num_rows, design.num_cols, (Fault(r, c, STUCK_OFF),))
        result = remap(design, fm, nl.evaluate, nl.inputs, method="milp")
        assert result.method in ("identity", "milp")
        assert_remap_functional(nl, result)

    def test_spare_budget_respected(self, c17_case):
        nl, design = c17_case
        fm = random_fault_map(
            design.num_rows + 4, design.num_cols + 4,
            p_stuck_off=0.05, seed=3,
        )
        result = remap(
            design, fm, nl.evaluate, nl.inputs,
            max_spare_rows=1, max_spare_cols=1,
        )
        assert all(p < design.num_rows + 1 for p in result.row_map.values())
        assert all(p < design.num_cols + 1 for p in result.col_map.values())


class TestFailureContract:
    def test_infeasible_map_raises_with_diagnosis(self, c17_case):
        nl, design = c17_case
        faults = tuple(
            Fault(r, c, STUCK_OFF)
            for r in range(design.num_rows)
            for c in range(design.num_cols)
        )
        fm = FaultMap(design.num_rows, design.num_cols, faults)
        with pytest.raises(RemapFailure) as exc_info:
            remap(design, fm, nl.evaluate, nl.inputs)
        d = exc_info.value.diagnosis
        assert d.stages == ("identity", "permute")
        assert d.best_stage in d.stages
        assert len(d.best_violations) > 0
        assert len(d.blocking_faults) > 0
        assert d.best_row_map and d.best_col_map
        assert "remap failed" in d.summary()

    def test_bad_method_rejected(self, c17_case):
        nl, design = c17_case
        fm = FaultMap(design.num_rows, design.num_cols, ())
        with pytest.raises(ValueError, match="method"):
            remap(design, fm, nl.evaluate, nl.inputs, method="quantum")

    def test_too_small_array_rejected(self, c17_case):
        nl, design = c17_case
        fm = FaultMap(design.num_rows - 1, design.num_cols, ())
        with pytest.raises(ValueError, match="cannot hold"):
            remap(design, fm, nl.evaluate, nl.inputs)
