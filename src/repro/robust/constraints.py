"""Placement constraint model for defect-aware remapping.

A logical crosspoint falls into one of three classes once a design is
fixed:

* ``OPEN`` — unprogrammed; must never conduct, so it cannot sit on a
  ``stuck_on`` site (a short there creates a sneak path);
* ``VAR`` — programmed with a variable literal; it must be able to both
  conduct and isolate, so it tolerates neither ``stuck_off`` nor
  ``stuck_on`` sites;
* ``ON`` — a constant-true stitch cell; it conducts in every evaluation
  anyway, so a ``stuck_on`` site underneath is *harmlessly reused* — only
  ``stuck_off`` breaks it.

:func:`placement_violations` scores a candidate row/column placement
against a :class:`~repro.crossbar.faults.FaultMap` under this model,
including the second-order hazard the per-cell rules miss: two or more
``stuck_on`` shorts meeting on an *unused* line can chain used lines
together into a sneak path that bypasses the programmed logic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..crossbar.design import CrossbarDesign
from ..crossbar.faults import STUCK_OFF, STUCK_ON, Fault, FaultMap

__all__ = [
    "OPEN", "VAR", "ON", "Violation",
    "cell_classes", "placement_violations", "sneak_exclusions",
]

OPEN = "open"
VAR = "literal"
ON = "on"


@dataclass(frozen=True)
class Violation:
    """One fault a candidate placement fails to avoid."""

    fault: Fault
    #: Logical (row, col) placed on the fault site; None for sneak-path
    #: hazards routed through unused physical lines.
    logical: tuple[int, int] | None
    reason: str


def cell_classes(design: CrossbarDesign) -> dict[tuple[int, int], str]:
    """Class (``VAR`` or ``ON``) of every programmed logical crosspoint
    of a planar design.

    Unprogrammed crosspoints are implicitly ``OPEN`` (absent from the
    mapping).
    """
    return {
        (r, c): ON if lit.is_constant() else VAR
        for _l, r, c, lit in design.cells()
    }


def placement_violations(
    design: CrossbarDesign,
    fault_map: FaultMap,
    row_map: Mapping[int, int],
    col_map: Mapping[int, int],
    classes: Mapping[tuple[int, int], str] | None = None,
) -> list[Violation]:
    """All faults violated by placing ``design`` at ``row_map``/``col_map``.

    An empty list is a *necessary* condition for the remap to verify; it
    is very nearly sufficient (the final authority is the end-to-end
    functional check in :mod:`repro.robust.remap`).
    """
    if classes is None:
        classes = cell_classes(design)
    inv_row = {phys: log for log, phys in row_map.items()}
    inv_col = {phys: log for log, phys in col_map.items()}

    out: list[Violation] = []
    sneak_edges: list[Fault] = []
    for fault in fault_map.faults:
        r = inv_row.get(fault.row)
        c = inv_col.get(fault.col)
        if r is not None and c is not None:
            klass = classes.get((r, c), OPEN)
            if fault.kind == STUCK_OFF and klass != OPEN:
                out.append(Violation(fault, (r, c), f"stuck_off under {klass} cell"))
            elif fault.kind == STUCK_ON and klass != ON:
                out.append(Violation(fault, (r, c), f"stuck_on under {klass} cell"))
        elif fault.kind == STUCK_ON:
            # Short touching at least one unused line: harmless alone,
            # but chains of them can bridge used lines.
            sneak_edges.append(fault)

    out.extend(_sneak_path_violations(sneak_edges, set(inv_row), set(inv_col)))
    return out


def _sneak_path_violations(
    edges: list[Fault],
    used_rows: set[int],
    used_cols: set[int],
) -> list[Violation]:
    """Stuck-on shorts whose connected component bridges >= 2 used lines.

    Each stuck-on fault is an edge between a physical wordline and
    bitline; a component (through unused lines) containing two or more
    used lines conducts unconditionally between them — a sneak path no
    per-cell rule catches.  Union-find over the edge endpoints.
    """
    if not edges:
        return []
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        parent[find(a)] = find(b)

    for fault in edges:
        union(("r", fault.row), ("c", fault.col))

    used_count: dict[tuple[str, int], int] = {}
    for kind, used in (("r", used_rows), ("c", used_cols)):
        for line in used:
            node = (kind, line)
            if node in parent:
                root = find(node)
                used_count[root] = used_count.get(root, 0) + 1

    return [
        Violation(fault, None, "sneak path through unused lines")
        for fault in edges
        if used_count.get(find(("r", fault.row)), 0) >= 2
    ]


def sneak_exclusions(
    fault_map: FaultMap,
    slack_rows: int,
    slack_cols: int,
) -> tuple[set[int], set[int]]:
    """Physical lines to leave unused so stuck-on chains cannot bridge.

    Each connected component of the stuck-on edge graph must keep at
    most one of its lines in use — otherwise the shorts conduct between
    the used lines regardless of placement (unless every short happens
    to sit under a constant-ON cell, which this conservative pre-pass
    does not count on).  Greedily keeps one line per component, drawn
    from the axis with the tighter remaining slack, and excludes the
    rest; components the spare budget cannot cover are skipped (the
    placer and repair pass then fight them as best they can).

    Returns ``(excluded_rows, excluded_cols)``.
    """
    comp_rows: dict[tuple[str, int], set[int]] = {}
    comp_cols: dict[tuple[str, int], set[int]] = {}
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for fault in fault_map.faults:
        if fault.kind == STUCK_ON:
            parent[find(("r", fault.row))] = find(("c", fault.col))
    edge_count: dict[tuple[str, int], int] = {}
    for fault in fault_map.faults:
        if fault.kind == STUCK_ON:
            root = find(("r", fault.row))
            edge_count[root] = edge_count.get(root, 0) + 1
    for node in list(parent):
        kind, line = node
        (comp_rows if kind == "r" else comp_cols).setdefault(find(node), set()).add(line)

    excluded_rows: set[int] = set()
    excluded_cols: set[int] = set()
    components = sorted(
        {*comp_rows, *comp_cols},
        key=lambda root: len(comp_rows.get(root, ())) + len(comp_cols.get(root, ())),
    )
    for root in components:
        rows = comp_rows.get(root, set())
        cols = comp_cols.get(root, set())
        # A lone short can't chain; the per-cell rules already steer the
        # placer around it, so don't burn slack on it here.
        if edge_count.get(root, 0) < 2:
            continue
        row_slack = slack_rows - len(excluded_rows)
        col_slack = slack_cols - len(excluded_cols)
        # Keep one line in use; preferably on the axis whose slack is
        # scarcer, so the exclusions land where spares remain.
        keep_row = bool(rows) and (not cols or row_slack <= col_slack)
        need_rows = len(rows) - (1 if keep_row else 0)
        need_cols = len(cols) - (0 if keep_row else 1)
        if need_rows > row_slack or need_cols > col_slack:
            keep_row = not keep_row  # try keeping the other axis instead
            need_rows = len(rows) - (1 if keep_row else 0)
            need_cols = len(cols) - (0 if keep_row else 1)
            if need_rows > row_slack or need_cols > col_slack:
                continue
        kept = (max(rows) if keep_row else max(cols)) if (rows if keep_row else cols) else None
        excluded_rows.update(r for r in rows if not (keep_row and r == kept))
        excluded_cols.update(c for c in cols if keep_row or c != kept)
    return excluded_rows, excluded_cols
