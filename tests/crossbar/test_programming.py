"""Tests for incremental programming schedules."""

import pytest

from repro import Compact
from repro.circuits import c17
from repro.crossbar import schedule_sequence
from repro.expr import parse


@pytest.fixture(scope="module")
def design():
    return Compact(gamma=0.5).synthesize_expr(parse("(a & b) | c"), name="f").design


class TestScheduleSequence:
    def test_empty_sequence(self, design):
        sched = schedule_sequence(design, [])
        assert sched.total_writes == 0 and sched.total_delay == 0

    def test_single_assignment_charges_initialization(self, design):
        env = {"a": True, "b": True, "c": False}
        sched = schedule_sequence(design, [env])
        on_count = len(design.program(env))
        assert sched.initial_cells == on_count
        assert sched.total_delay == sched.initial_rows + 1
        assert not sched.steps

    def test_identical_assignments_cost_one_step_each(self, design):
        env = {"a": True, "b": False, "c": True}
        sched = schedule_sequence(design, [env, env, env])
        for step in sched.steps:
            assert step.cells_written == 0
            assert step.rows_touched == 0
            assert step.delay_steps == 1  # evaluation only

    def test_single_variable_flip_touches_its_cells_only(self, design):
        e1 = {"a": True, "b": True, "c": False}
        e2 = {"a": True, "b": True, "c": True}
        sched = schedule_sequence(design, [e1, e2])
        step = sched.steps[0]
        # Only cells whose literal mentions c change state.
        c_cells = [
            (r, col) for _l, r, col, lit in design.cells() if lit.var == "c"
        ]
        assert 0 < step.cells_written <= len(c_cells)

    def test_amortized_below_worst_case(self, design):
        import itertools

        envs = [
            dict(zip(["a", "b", "c"], bits))
            for bits in itertools.product([False, True], repeat=3)
        ]
        sched = schedule_sequence(design, envs)
        assert sched.amortized_delay <= sched.worst_case_delay
        # Worst case never exceeds the paper's static bound rows+1.
        assert sched.worst_case_delay <= design.num_rows + 1

    def test_assume_erased_toggle(self, design):
        env = {"a": False, "b": False, "c": False}
        erased = schedule_sequence(design, [env], assume_erased=True)
        full = schedule_sequence(design, [env], assume_erased=False)
        assert full.initial_cells == design.memristor_count
        assert erased.initial_cells <= full.initial_cells

    def test_streaming_on_c17(self):
        nl = c17()
        design = Compact(gamma=0.5).synthesize_netlist(nl).design
        import random

        rng = random.Random(0)
        envs = [
            {name: bool(rng.getrandbits(1)) for name in nl.inputs}
            for _ in range(32)
        ]
        sched = schedule_sequence(design, envs)
        assert len(sched.steps) == 31
        assert sched.total_writes >= sched.initial_cells
        # Incremental beats reprogramming everything every time.
        naive_writes = 32 * design.memristor_count
        assert sched.total_writes < naive_writes
