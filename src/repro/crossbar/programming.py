"""Evaluation-phase programming schedules and switching cost.

The paper's delay model charges one time step per wordline to program
the memristors plus one step to evaluate (Section VIII), and its power
model counts the devices programmed.  Both are *worst case*: between
two consecutive evaluations only the cells whose literal value changed
actually need a write, and only wordlines containing such cells need a
programming step.  This module computes the exact incremental schedule
for an input sequence, giving amortized delay/energy numbers for
streaming workloads — an analysis the worst-case tables cannot show.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .design import CrossbarDesign

__all__ = ["ProgrammingStep", "ProgrammingSchedule", "schedule_sequence"]


@dataclass(frozen=True)
class ProgrammingStep:
    """The writes needed to move the array to the next assignment."""

    cells_written: int
    rows_touched: int
    #: Per-wordline write counts (global wordline index -> cells
    #: rewritten on it; the row index on planar designs).
    per_row: tuple[tuple[int, int], ...] = ()

    @property
    def delay_steps(self) -> int:
        """Row-parallel writes: one step per touched wordline, plus the
        evaluation step."""
        return self.rows_touched + 1


@dataclass
class ProgrammingSchedule:
    """Incremental programming cost over an assignment sequence."""

    steps: list[ProgrammingStep] = field(default_factory=list)
    initial_cells: int = 0
    initial_rows: int = 0
    n_evaluations: int = 0

    @property
    def total_writes(self) -> int:
        """Energy proxy: every cell write, including initialization."""
        return self.initial_cells + sum(s.cells_written for s in self.steps)

    @property
    def total_delay(self) -> int:
        """Initialization + per-evaluation delays."""
        if self.n_evaluations == 0:
            return 0
        first = self.initial_rows + 1
        return first + sum(s.delay_steps for s in self.steps)

    @property
    def amortized_delay(self) -> float:
        """Average steps per evaluation over the whole stream."""
        if self.n_evaluations == 0:
            return 0.0
        return self.total_delay / self.n_evaluations

    @property
    def worst_case_delay(self) -> int:
        """Largest single-evaluation delay observed in the stream."""
        return max(
            [self.initial_rows + 1] + [s.delay_steps for s in self.steps],
            default=0,
        )


def _states(
    design: CrossbarDesign, assignment: Mapping[str, bool]
) -> dict[tuple[int, int, int], bool]:
    """Conduction of every programmed cell, keyed by its global wordline
    (:meth:`~repro.crossbar.design.CrossbarDesign.wordline`), layer and column."""
    return {
        (design.wordline(l, r), l, c): lit.evaluate(assignment)
        for l, r, c, lit in design.cells()
    }


def schedule_sequence(
    design: CrossbarDesign,
    assignments: Sequence[Mapping[str, bool]],
    assume_erased: bool = True,
) -> ProgrammingSchedule:
    """Exact incremental write schedule for an assignment sequence.

    ``assume_erased=True`` charges the first assignment for every cell
    that must be low-resistance (plus nothing for the erased highs);
    ``False`` charges every programmed cell.
    """
    if not assignments:
        return ProgrammingSchedule(n_evaluations=0)

    first = _states(design, assignments[0])
    if assume_erased:
        to_write = {rc for rc, on in first.items() if on}
    else:
        to_write = set(first)
    init_rows = {w for w, _l, _c in to_write}

    schedule = ProgrammingSchedule(
        initial_cells=len(to_write),
        initial_rows=len(init_rows),
        n_evaluations=len(assignments),
    )
    previous = first
    for env in assignments[1:]:
        current = _states(design, env)
        changed = [rc for rc in current if current[rc] != previous[rc]]
        rows = {}
        for w, _l, _c in changed:
            rows[w] = rows.get(w, 0) + 1
        schedule.steps.append(
            ProgrammingStep(
                cells_written=len(changed),
                rows_touched=len(rows),
                per_row=tuple(sorted(rows.items())),
            )
        )
        previous = current
    return schedule
