"""Defect-aware remapping of synthesized crossbar designs.

Given a :class:`~repro.crossbar.design.CrossbarDesign` and a
post-fabrication :class:`~repro.crossbar.faults.FaultMap`, search for a
row/column permutation — and, when permutation alone fails, a bounded
number of spare rows/columns — under which the design still computes its
function on the defective array.  The escalation chain:

1. **identity** — the design may already tolerate the map as-is;
2. **permute** — greedy/bipartite matching (then a MILP fallback)
   restricted to the primary ``rows x cols`` region;
3. **spares** — the same search over the full physical array, spending
   up to the spare budget;
4. failure — a structured :class:`RemapFailure` carrying the best
   partial placement and the blocking faults (never a bare crash).

Every accepted placement is verified end-to-end with
:func:`~repro.crossbar.validate.validate_under_faults` against the
reference function; constraint satisfaction alone is never trusted.
Re-synthesis under a different variable order (the step beyond spares)
needs the source netlist and lives in :mod:`repro.robust.pipeline`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from ..crossbar.design import CrossbarDesign
from ..crossbar.faults import Fault, FaultMap
from ..crossbar.validate import Reference, ValidationReport, validate_under_faults
from ..perf import StageTimer, counters
from .constraints import Violation, placement_violations, sneak_exclusions
from .milp_placer import milp_place
from .placer import greedy_place, repair_sneak_paths

__all__ = ["RemapResult", "RemapDiagnosis", "RemapFailure", "remap"]


@dataclass
class RemapResult:
    """A verified defect-avoiding placement."""

    design: CrossbarDesign  # programmed onto the physical array
    row_map: dict[int, int]
    col_map: dict[int, int]
    stage: str  # 'identity' | 'permute' | 'spares'
    method: str  # 'identity' | 'greedy' | 'milp'
    fault_map: FaultMap
    report: ValidationReport
    times: dict[str, float] = field(default_factory=dict)

    @property
    def spare_rows_used(self) -> int:
        """Logical wordlines relocated beyond the primary region."""
        limit = len(self.row_map)
        return sum(1 for phys in self.row_map.values() if phys >= limit)

    @property
    def spare_cols_used(self) -> int:
        limit = len(self.col_map)
        return sum(1 for phys in self.col_map.values() if phys >= limit)

    @property
    def displacement(self) -> int:
        """Lines moved off their identity slot (remap perturbation size)."""
        return sum(1 for log, phys in self.row_map.items() if log != phys) + sum(
            1 for log, phys in self.col_map.items() if log != phys
        )


@dataclass
class RemapDiagnosis:
    """Why remapping failed, and the best partial placement reached."""

    stages: tuple[str, ...]  # escalation stages attempted, in order
    best_stage: str | None
    best_violations: tuple[Violation, ...]
    blocking_faults: tuple[Fault, ...]
    best_row_map: dict[int, int]
    best_col_map: dict[int, int]
    #: Placements that failed the end-to-end functional check: either
    #: constraint-clean ones the model was too optimistic about, or
    #: near-miss candidates given a best-effort verification.
    verification_failures: int = 0
    #: Variable-order re-synthesis attempts (pipeline level; 0 here).
    resynthesis_attempts: int = 0
    message: str = ""

    def summary(self) -> str:
        """One-line human-readable diagnosis."""
        blockers = ", ".join(
            f"{f.kind}@({f.row},{f.col})" for f in self.blocking_faults[:6]
        )
        if len(self.blocking_faults) > 6:
            blockers += f", ... ({len(self.blocking_faults)} total)"
        return (
            f"remap failed after {'/'.join(self.stages)}: best stage "
            f"{self.best_stage or 'none'} left {len(self.best_violations)} "
            f"violation(s); blocking faults: {blockers or 'none'}"
        )


class RemapFailure(Exception):
    """Raised when no verified placement exists within the search budget.

    Always carries a :class:`RemapDiagnosis` — callers get the best
    partial result and the blocking faults instead of a crash.
    """

    def __init__(self, diagnosis: RemapDiagnosis):
        self.diagnosis = diagnosis
        super().__init__(diagnosis.message or diagnosis.summary())


def _blocking_faults(violations: Sequence[Violation]) -> tuple[Fault, ...]:
    seen: dict[Fault, None] = {}
    for v in violations:
        seen.setdefault(v.fault, None)
    return tuple(sorted(seen, key=lambda f: (f.row, f.col, f.kind)))


def remap(
    design: CrossbarDesign,
    fault_map: FaultMap,
    reference: Reference,
    inputs: Sequence[str],
    *,
    max_spare_rows: int | None = None,
    max_spare_cols: int | None = None,
    method: str = "auto",
    time_limit: float | None = 10.0,
    seed: int = 0,
    restarts: int = 8,
    exhaustive_limit: int = 12,
    samples: int = 256,
) -> RemapResult:
    """Find and verify a defect-avoiding placement of ``design``.

    Parameters
    ----------
    fault_map:
        Defects of the physical array; its dimensions must be at least
        the design's, and any surplus rows/columns are the spare pool.
    reference, inputs:
        The golden function, for the end-to-end verification of every
        candidate (exhaustive up to ``exhaustive_limit`` inputs, seeded
        Monte-Carlo with ``samples`` assignments beyond).
    max_spare_rows, max_spare_cols:
        Spare budget; ``None`` allows the whole surplus.
    method:
        ``"greedy"``, ``"milp"``, or ``"auto"`` (greedy first, MILP as
        the fallback whenever greedy leaves violations).
    time_limit:
        Wall-clock budget per MILP fallback solve (same semantics as the
        labeling solves).

    Returns a verified :class:`RemapResult`; raises :class:`RemapFailure`
    with a full diagnosis when every stage fails.  Planar designs only.
    """
    design.require_planar("defect-aware remapping")
    if method not in ("auto", "greedy", "milp"):
        raise ValueError(f"unknown remap method {method!r}")
    if fault_map.rows < design.num_rows or fault_map.cols < design.num_cols:
        raise ValueError(
            f"fault map array {fault_map.rows}x{fault_map.cols} cannot hold the "
            f"{design.num_rows}x{design.num_cols} design"
        )
    counters.increment("remap_attempts")
    timer = StageTimer()

    spare_rows = fault_map.rows - design.num_rows
    spare_cols = fault_map.cols - design.num_cols
    if max_spare_rows is not None:
        spare_rows = min(spare_rows, max_spare_rows)
    if max_spare_cols is not None:
        spare_cols = min(spare_cols, max_spare_cols)

    def verify(row_map, col_map, stage, how) -> RemapResult | None:
        counters.increment("remap_verifications")
        with timer.stage("verify"):
            physical = design.permuted(
                row_map, col_map, num_rows=fault_map.rows, num_cols=fault_map.cols
            )
            report = validate_under_faults(
                physical, reference, inputs, fault_map.faults,
                exhaustive_limit=exhaustive_limit, samples=samples, seed=seed,
            )
        if report.ok:
            return RemapResult(
                design=physical, row_map=dict(row_map), col_map=dict(col_map),
                stage=stage, method=how, fault_map=fault_map,
                report=report, times=dict(timer.times),
            )
        counters.increment("remap_verification_failures")
        return None

    stages_tried: list[str] = []
    best: tuple[str, dict, dict, list[Violation]] | None = None
    near_misses: list[tuple[int, str, str, dict, dict]] = []
    verification_failures = 0

    identity_rows = {r: r for r in range(design.num_rows)}
    identity_cols = {c: c for c in range(design.num_cols)}
    stage_plan = [("identity", 0, 0), ("permute", 0, 0)]
    if spare_rows or spare_cols:
        stage_plan.append(("spares", spare_rows, spare_cols))

    for stage, extra_r, extra_c in stage_plan:
        stages_tried.append(stage)
        allowed_rows = range(design.num_rows + extra_r)
        allowed_cols = range(design.num_cols + extra_c)

        candidates: list[tuple[str, dict, dict, list[Violation]]] = []
        if stage == "identity":
            with timer.stage("identity"):
                violations = placement_violations(
                    design, fault_map, identity_rows, identity_cols
                )
            candidates.append(("identity", identity_rows, identity_cols, violations))
        else:
            # Lines that stuck-on chains would bridge if left unused:
            # spend spare slack to keep them out of play entirely.
            excl_rows, excl_cols = sneak_exclusions(
                fault_map, len(allowed_rows) - design.num_rows,
                len(allowed_cols) - design.num_cols,
            )
            slot_sets = [(list(allowed_rows), list(allowed_cols))]
            if excl_rows or excl_cols:
                slot_sets.insert(0, (
                    [r for r in allowed_rows if r not in excl_rows],
                    [c for c in allowed_cols if c not in excl_cols],
                ))
            if method in ("auto", "greedy"):
                for slot_rows, slot_cols in slot_sets:
                    with timer.stage("greedy"):
                        row_map, col_map, violations = greedy_place(
                            design, fault_map, slot_rows, slot_cols,
                            seed=seed, restarts=restarts,
                        )
                    candidates.append(("greedy", row_map, col_map, violations))
                    if not violations:
                        break
            needs_milp = method == "milp" or (
                method == "auto"
                and (not candidates or all(c[3] for c in candidates))
            )
            if needs_milp:
                for slot_rows, slot_cols in slot_sets:
                    with timer.stage("milp"):
                        placed = milp_place(
                            design, fault_map, slot_rows, slot_cols,
                            time_limit=time_limit,
                        )
                    if placed is None:
                        continue
                    row_map, col_map = placed
                    violations = placement_violations(
                        design, fault_map, row_map, col_map
                    )
                    candidates.append(("milp", row_map, col_map, violations))
                    if not violations:
                        break

        for how, row_map, col_map, violations in candidates:
            if violations:
                # Near-feasible: local line relocation can often finish
                # the job without a full re-placement.
                with timer.stage("repair"):
                    row_map, col_map, violations = repair_sneak_paths(
                        design, fault_map, row_map, col_map,
                        list(allowed_rows), list(allowed_cols),
                    )
            if best is None or len(violations) < len(best[3]):
                best = (stage, dict(row_map), dict(col_map), list(violations))
            if violations:
                near_misses.append(
                    (len(violations), stage, how, dict(row_map), dict(col_map))
                )
                continue
            result = verify(row_map, col_map, stage, how)
            if result is not None:
                return result
            verification_failures += 1

    # The constraint model is conservative: a lone stuck-on under an
    # open cell, say, may not disturb the function at all.  Give the
    # least-violating candidates a shot at the end-to-end check — it is
    # the final authority in both directions.
    seen_maps: set[tuple] = set()
    for count, stage, how, row_map, col_map in sorted(
        near_misses, key=lambda t: t[0]
    )[:6]:
        key = (tuple(sorted(row_map.items())), tuple(sorted(col_map.items())))
        if key in seen_maps:
            continue
        seen_maps.add(key)
        result = verify(row_map, col_map, stage, how)
        if result is not None:
            return result
        verification_failures += 1

    assert best is not None
    best_stage, best_rows, best_cols, best_violations = best
    diagnosis = RemapDiagnosis(
        stages=tuple(stages_tried),
        best_stage=best_stage,
        best_violations=tuple(best_violations),
        blocking_faults=_blocking_faults(best_violations),
        best_row_map=best_rows,
        best_col_map=best_cols,
        verification_failures=verification_failures,
    )
    diagnosis.message = diagnosis.summary()
    raise RemapFailure(diagnosis)


def with_resynthesis_attempts(failure: RemapFailure, attempts: int) -> RemapFailure:
    """A copy of ``failure`` recording pipeline-level re-synthesis tries."""
    diagnosis = replace(failure.diagnosis, resynthesis_attempts=attempts)
    diagnosis.message = diagnosis.summary() + (
        f" (after {attempts} re-synthesis attempt(s))" if attempts else ""
    )
    return RemapFailure(diagnosis)
