"""Tests for stuck-at fault modeling and yield analysis."""

import pytest

from repro import Compact
from repro.circuits import c17, decoder
from repro.crossbar import (
    STUCK_OFF,
    STUCK_ON,
    Fault,
    critical_cells,
    evaluate_with_faults,
    is_functional_under_faults,
    yield_estimate,
)
from repro.expr import parse


@pytest.fixture(scope="module")
def and_design():
    e = parse("a & b")
    res = Compact(gamma=0.5).synthesize_expr(e, name="f")
    return res.design, e


class TestFaultModel:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault(0, 0, "wobbly")

    def test_no_faults_matches_normal_evaluation(self, and_design):
        design, _ = and_design
        for env in ({"a": 1, "b": 1}, {"a": 1, "b": 0}):
            assert evaluate_with_faults(design, env, []) == design.evaluate(env)

    def test_stuck_off_kills_true_path(self, and_design):
        design, _ = and_design
        env = {"a": True, "b": True}
        # Breaking every programmed cell certainly cuts the path.
        faults = [Fault(r, c, STUCK_OFF) for _l, r, c, _ in design.cells()]
        assert evaluate_with_faults(design, env, faults)["f"] is False

    def test_stuck_on_can_create_spurious_path(self, and_design):
        design, _ = and_design
        env = {"a": False, "b": False}
        # Shorting every crosspoint certainly connects input to output.
        faults = [
            Fault(r, c, STUCK_ON)
            for r in range(design.num_rows)
            for c in range(design.num_cols)
        ]
        assert evaluate_with_faults(design, env, faults)["f"] is True


class TestFunctionalCheck:
    def test_fault_free_design_is_functional(self, and_design):
        design, e = and_design
        assert is_functional_under_faults(
            design, lambda env: {"f": e.evaluate(env)}, ["a", "b"], []
        )

    def test_detects_broken_function(self, and_design):
        design, e = and_design
        programmed = list(design.cells())
        fault = Fault(programmed[0][1], programmed[0][2], STUCK_OFF)
        assert not is_functional_under_faults(
            design, lambda env: {"f": e.evaluate(env)}, ["a", "b"], [fault]
        )


class TestCriticalCells:
    def test_every_programmed_cell_is_stuck_off_critical_in_a_chain(self, and_design):
        """In f = a & b the conducting path is a single series chain:
        every programmed cell is critical for stuck-off."""
        design, e = and_design
        crit = critical_cells(
            design, lambda env: {"f": e.evaluate(env)}, ["a", "b"]
        )
        programmed = {(l, r, c) for l, r, c, _ in design.cells()}
        assert set(crit[STUCK_OFF]) == programmed

    def test_redundant_path_tolerates_stuck_off(self):
        """f = a | a-free path: an OR of two disjoint cubes keeps working
        when one parallel literal path keeps conducting."""
        e = parse("a | b")
        design = Compact(gamma=0.5).synthesize_expr(e, name="f").design
        crit = critical_cells(design, lambda env: {"f": e.evaluate(env)}, ["a", "b"])
        # The 'a' literal cell is critical only for assignments where b=0;
        # it IS critical overall (a=1, b=0 fails) — but at least the
        # analysis must terminate and report subsets of the cell space.
        assert set(crit[STUCK_ON]) <= {
            (0, r, c) for r in range(design.num_rows) for c in range(design.num_cols)
        }

    def test_stuck_on_unprogrammed_toggle(self, and_design):
        design, e = and_design
        with_unprog = critical_cells(
            design, lambda env: {"f": e.evaluate(env)}, ["a", "b"],
            kinds=(STUCK_ON,), include_unprogrammed=True,
        )
        only_prog = critical_cells(
            design, lambda env: {"f": e.evaluate(env)}, ["a", "b"],
            kinds=(STUCK_ON,), include_unprogrammed=False,
        )
        assert set(only_prog[STUCK_ON]) <= set(with_unprog[STUCK_ON])


class TestYield:
    def test_zero_defect_rate_gives_full_yield(self, and_design):
        design, e = and_design
        y = yield_estimate(
            design, lambda env: {"f": e.evaluate(env)}, ["a", "b"],
            p_stuck_on=0.0, p_stuck_off=0.0, trials=20,
        )
        assert y == 1.0

    def test_certain_defects_kill_yield(self, and_design):
        design, e = and_design
        y = yield_estimate(
            design, lambda env: {"f": e.evaluate(env)}, ["a", "b"],
            p_stuck_on=0.0, p_stuck_off=1.0, trials=10,
        )
        assert y == 0.0

    def test_yield_monotone_in_defect_rate(self):
        nl = c17()
        design = Compact(gamma=0.5).synthesize_netlist(nl).design
        lo = yield_estimate(design, nl.evaluate, nl.inputs,
                            p_stuck_off=0.005, trials=60, seed=7)
        hi = yield_estimate(design, nl.evaluate, nl.inputs,
                            p_stuck_off=0.2, trials=60, seed=7)
        assert hi <= lo

    def test_deterministic_for_seed(self):
        nl = decoder(3)
        design = Compact(gamma=0.5).synthesize_netlist(nl).design
        a = yield_estimate(design, nl.evaluate, nl.inputs, trials=30, seed=5)
        b = yield_estimate(design, nl.evaluate, nl.inputs, trials=30, seed=5)
        assert a == b

    def test_trials_validated(self, and_design):
        design, e = and_design
        with pytest.raises(ValueError):
            yield_estimate(design, lambda env: {"f": e.evaluate(env)}, ["a", "b"], trials=0)


class TestFaultBounds:
    def test_evaluate_rejects_out_of_bounds_fault(self, and_design):
        design, _ = and_design
        bad = Fault(design.num_rows, 0, STUCK_OFF)
        with pytest.raises(ValueError, match="outside"):
            evaluate_with_faults(design, {"a": True, "b": True}, [bad])

    def test_functional_check_rejects_out_of_bounds_fault(self, and_design):
        design, e = and_design
        bad = Fault(0, design.num_cols + 3, STUCK_ON)
        with pytest.raises(ValueError, match="outside"):
            is_functional_under_faults(
                design, lambda env: {"f": e.evaluate(env)}, ["a", "b"], [bad]
            )

    def test_message_names_coordinates_and_dims(self, and_design):
        design, _ = and_design
        bad = Fault(99, 7, STUCK_OFF)
        with pytest.raises(ValueError, match=r"\(99, 7\)"):
            evaluate_with_faults(design, {"a": True, "b": True}, [bad])


class TestFaultMap:
    def test_validates_dimensions(self):
        from repro.crossbar import FaultMap

        with pytest.raises(ValueError):
            FaultMap(0, 4, ())
        with pytest.raises(ValueError):
            FaultMap(4, -1, ())

    def test_rejects_out_of_bounds_faults(self):
        from repro.crossbar import FaultMap

        with pytest.raises(ValueError, match="outside"):
            FaultMap(4, 4, (Fault(4, 0, STUCK_OFF),))

    def test_rejects_conflicting_duplicates(self):
        from repro.crossbar import FaultMap

        with pytest.raises(ValueError, match="conflicting"):
            FaultMap(4, 4, (Fault(1, 1, STUCK_OFF), Fault(1, 1, STUCK_ON)))

    def test_restricted_drops_outside_faults(self):
        from repro.crossbar import FaultMap

        fm = FaultMap(6, 6, (Fault(1, 1, STUCK_OFF), Fault(5, 5, STUCK_ON)))
        sub = fm.restricted(4, 4)
        assert sub.rows == 4 and sub.cols == 4
        assert [f.row for f in sub.faults] == [1]

    def test_json_round_trip(self):
        from repro.crossbar import (
            FaultMap,
            fault_map_from_json,
            fault_map_to_json,
        )

        fm = FaultMap(5, 7, (Fault(0, 6, STUCK_ON), Fault(4, 2, STUCK_OFF)))
        again = fault_map_from_json(fault_map_to_json(fm))
        assert again == fm

    def test_from_json_rejects_wrong_format(self):
        from repro.crossbar import fault_map_from_json

        with pytest.raises(ValueError):
            fault_map_from_json('{"format": "something/else"}')


class TestRandomFaultMap:
    def test_deterministic_for_int_seed(self):
        from repro.crossbar import random_fault_map

        a = random_fault_map(20, 20, p_stuck_off=0.1, seed=4)
        b = random_fault_map(20, 20, p_stuck_off=0.1, seed=4)
        assert a == b

    def test_accepts_random_instance(self):
        import random

        from repro.crossbar import random_fault_map

        a = random_fault_map(20, 20, p_stuck_off=0.1, seed=random.Random(4))
        b = random_fault_map(20, 20, p_stuck_off=0.1, seed=random.Random(4))
        assert a == b

    def test_zero_rates_give_empty_map(self):
        from repro.crossbar import random_fault_map

        fm = random_fault_map(10, 10, p_stuck_on=0.0, p_stuck_off=0.0, seed=1)
        assert fm.faults == ()
        assert fm.density == 0.0


class TestSeedThreading:
    def test_yield_estimate_accepts_random_instance(self, and_design):
        import random

        design, e = and_design
        ref = lambda env: {"f": e.evaluate(env)}  # noqa: E731
        a = yield_estimate(design, ref, ["a", "b"], trials=20,
                           seed=random.Random(3))
        b = yield_estimate(design, ref, ["a", "b"], trials=20,
                           seed=random.Random(3))
        assert a == b

    def test_int_seed_path_unchanged(self, and_design):
        """Int seeds must keep their historical per-trial derivation."""
        design, e = and_design
        ref = lambda env: {"f": e.evaluate(env)}  # noqa: E731
        a = yield_estimate(design, ref, ["a", "b"], trials=15, seed=2)
        b = yield_estimate(design, ref, ["a", "b"], trials=15, seed=2)
        assert a == b
