"""Tests for the fault-tolerant synthesis pipeline (resynthesis stage)."""

import pytest

from repro import Compact, RemapFailure, synthesize_fault_tolerant
from repro.circuits import c17
from repro.crossbar import FaultMap, evaluate_with_faults
from repro.crossbar.faults import STUCK_OFF, Fault
from repro.robust import FaultTolerantResult


@pytest.fixture(scope="module")
def netlist():
    return c17()


@pytest.fixture(scope="module")
def base_design(netlist):
    return Compact(gamma=0.5, method="heuristic").synthesize_netlist(netlist).design


class TestPipeline:
    def test_clean_array_needs_no_resynthesis(self, netlist, base_design):
        fm = FaultMap(base_design.num_rows + 2, base_design.num_cols + 2, ())
        ft = synthesize_fault_tolerant(netlist, fm)
        assert isinstance(ft, FaultTolerantResult)
        assert not ft.resynthesized
        assert ft.resynthesis_attempts == 0
        assert ft.design is ft.remap.design

    def test_result_is_functional(self, netlist, base_design):
        _l, r, c, _ = next(iter(base_design.cells()))
        fm = FaultMap(
            base_design.num_rows + 1, base_design.num_cols + 1,
            (Fault(r, c, STUCK_OFF),),
        )
        ft = synthesize_fault_tolerant(netlist, fm)
        for bits in range(1 << len(netlist.inputs)):
            env = {
                name: bool((bits >> i) & 1)
                for i, name in enumerate(netlist.inputs)
            }
            got = evaluate_with_faults(ft.design, env, fm.faults)
            assert got == netlist.evaluate(env)

    def test_hopeless_map_raises_with_attempt_count(self, netlist, base_design):
        faults = tuple(
            Fault(r, c, STUCK_OFF)
            for r in range(base_design.num_rows)
            for c in range(base_design.num_cols)
        )
        fm = FaultMap(base_design.num_rows, base_design.num_cols, faults)
        with pytest.raises(RemapFailure) as exc_info:
            synthesize_fault_tolerant(netlist, fm, n_orders=2)
        d = exc_info.value.diagnosis
        assert d.resynthesis_attempts >= 0
        assert "remap failed" in str(exc_info.value)
