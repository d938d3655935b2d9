"""Tests for the greedy matcher and the repair pass."""

import pytest

from repro import Compact
from repro.circuits import c17
from repro.crossbar import FaultMap, random_fault_map
from repro.crossbar.faults import STUCK_OFF, STUCK_ON, Fault
from repro.expr import parse
from repro.robust import (
    greedy_place,
    placement_violations,
    repair_sneak_paths,
)


@pytest.fixture(scope="module")
def c17_design():
    nl = c17()
    return Compact(gamma=0.5, method="heuristic").synthesize_netlist(nl).design


class TestGreedyPlace:
    def test_clean_array_keeps_identity(self, c17_design):
        d = c17_design
        fm = FaultMap(d.num_rows, d.num_cols, ())
        rm, cm, vs = greedy_place(d, fm, range(d.num_rows), range(d.num_cols))
        assert vs == []
        assert rm == {r: r for r in range(d.num_rows)}
        assert cm == {c: c for c in range(d.num_cols)}

    def test_routes_around_stuck_off(self, c17_design):
        d = c17_design
        _l, r, c, _ = next(iter(d.cells()))
        fm = FaultMap(d.num_rows + 1, d.num_cols + 1, (Fault(r, c, STUCK_OFF),))
        rm, cm, vs = greedy_place(
            d, fm, range(d.num_rows + 1), range(d.num_cols + 1)
        )
        assert vs == []
        assert placement_violations(d, fm, rm, cm) == []

    def test_maps_are_injective(self, c17_design):
        d = c17_design
        fm = random_fault_map(d.num_rows + 2, d.num_cols + 2,
                              p_stuck_off=0.05, seed=11)
        rm, cm, _ = greedy_place(
            d, fm, range(d.num_rows + 2), range(d.num_cols + 2), seed=3
        )
        assert len(set(rm.values())) == d.num_rows
        assert len(set(cm.values())) == d.num_cols

    def test_too_small_allowance_rejected(self, c17_design):
        d = c17_design
        fm = FaultMap(d.num_rows, d.num_cols, ())
        with pytest.raises(ValueError):
            greedy_place(d, fm, range(d.num_rows - 1), range(d.num_cols))

    def test_deterministic_for_seed(self, c17_design):
        d = c17_design
        fm = random_fault_map(d.num_rows + 2, d.num_cols + 2,
                              p_stuck_off=0.08, seed=5)
        slots = (range(d.num_rows + 2), range(d.num_cols + 2))
        a = greedy_place(d, fm, *slots, seed=9)
        b = greedy_place(d, fm, *slots, seed=9)
        assert a == b


class TestRepairSneakPaths:
    def test_breaks_a_bridge_with_spare_slack(self):
        e = parse("a & b")
        d = Compact(gamma=0.5).synthesize_expr(e, name="f").design
        # Two shorts on the spare column; identity placement leaves it
        # unused, so rows 0 and 1 are bridged.
        fm = FaultMap(
            d.num_rows + 1, d.num_cols + 1,
            (Fault(0, d.num_cols, STUCK_ON), Fault(1, d.num_cols, STUCK_ON)),
        )
        rm = {r: r for r in range(d.num_rows)}
        cm = {c: c for c in range(d.num_cols)}
        assert placement_violations(d, fm, rm, cm)  # bridged before
        rm2, cm2, vs = repair_sneak_paths(
            d, fm, rm, cm, range(d.num_rows + 1), range(d.num_cols + 1)
        )
        assert vs == []

    def test_noop_when_already_clean(self, c17_design):
        d = c17_design
        fm = FaultMap(d.num_rows, d.num_cols, ())
        rm = {r: r for r in range(d.num_rows)}
        cm = {c: c for c in range(d.num_cols)}
        rm2, cm2, vs = repair_sneak_paths(
            d, fm, rm, cm, range(d.num_rows), range(d.num_cols)
        )
        assert (rm2, cm2, vs) == (rm, cm, [])
