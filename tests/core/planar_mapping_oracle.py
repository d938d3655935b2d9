"""Reference planar mapper: the K=1 oracle for the product mapper.

This is the planar-only mapping of Section V-C of the paper, kept
verbatim as a reference implementation; ``test_mapping3d`` checks that
:func:`repro.core.map_to_crossbar` reproduces it byte for byte on every
Table-1 circuit.  Node assignment places every H/VH node on a
wordline and every V/VH node on a bitline; VH nodes get an always-on
memristor stitching their wordline to their bitline.  Edge assignment
programs each graph edge's literal at the crosspoint of its endpoints'
wordline and bitline.

Row ordering realises the alignment convention: the 1-terminal (input
port) is the bottom-most wordline and the output roots are the top-most
wordlines.  Constant outputs are realised physically: a constant-true
output senses the driven input wordline itself, a constant-false output
senses a dedicated unconnected wordline.
"""

from __future__ import annotations

from repro.core.labeling import Label, LabelingError, VHLabeling
from repro.core.preprocess import BddGraph
from repro.crossbar.design import CrossbarDesign
from repro.crossbar.literals import ON, Lit

__all__ = ["planar_map_to_crossbar"]


def planar_map_to_crossbar(
    bdd_graph: BddGraph,
    labeling: VHLabeling,
    name: str = "design",
    validate: bool = True,
) -> CrossbarDesign:
    """Bind ``bdd_graph`` to a crossbar according to ``labeling``."""
    if validate:
        labeling.validate(bdd_graph, alignment=True)

    graph = bdd_graph.graph
    labels = labeling.labels
    terminal = bdd_graph.terminal

    # --- node assignment: choose row/column indices ---------------------------
    root_nodes: list[int] = []
    seen: set[int] = set()
    for out in bdd_graph.roots.values():
        if out not in seen:
            seen.add(out)
            root_nodes.append(out)

    middle = sorted(
        v
        for v in graph.nodes()
        if labels[v].has_row() and v not in seen and v != terminal
    )

    row_of: dict[int, int] = {}
    next_row = 0
    for v in root_nodes:  # outputs: top-most wordlines
        row_of[v] = next_row
        next_row += 1
    for v in middle:
        row_of[v] = next_row
        next_row += 1
    if terminal is not None and terminal not in row_of:
        row_of[terminal] = next_row  # input: bottom-most wordline
        next_row += 1

    # Degenerate case: no 1-terminal in the graph (every output constant)
    # still needs a driven input wordline.
    synthetic_input_row: int | None = None
    if terminal is None:
        synthetic_input_row = next_row
        next_row += 1

    false_row: int | None = None
    if any(value is False for value in bdd_graph.constant_outputs.values()):
        false_row = next_row
        next_row += 1
    num_rows = max(next_row, 1)

    col_of: dict[int, int] = {}
    for v in sorted(graph.nodes()):
        if labels[v].has_col():
            col_of[v] = len(col_of)
    num_cols = len(col_of)

    # --- ports ------------------------------------------------------------------
    if terminal is not None:
        input_row = row_of[terminal]
    else:
        assert synthetic_input_row is not None
        input_row = synthetic_input_row
    output_rows: dict[str, int] = {}
    for out, root in bdd_graph.roots.items():
        output_rows[out] = row_of[root]
    for out, value in bdd_graph.constant_outputs.items():
        if value:
            output_rows[out] = input_row
        else:
            assert false_row is not None
            output_rows[out] = false_row

    design = CrossbarDesign(
        name,
        num_rows=num_rows,
        num_cols=num_cols,
        input_row=input_row,
        output_rows=output_rows,
    )
    for v, r in row_of.items():
        design.row_labels[r] = v
    for v, c in col_of.items():
        design.col_labels[c] = v

    # --- VH stitches ---------------------------------------------------------------
    for v, lab in labels.items():
        if lab is Label.VH:
            design.set_cell(row_of[v], col_of[v], ON)

    # --- edge assignment --------------------------------------------------------------
    for u, v in graph.edges():
        lit = graph.edge_data(u, v)
        assert isinstance(lit, Lit)
        if labels[u].has_row() and labels[v].has_col():
            design.set_cell(row_of[u], col_of[v], lit)
        elif labels[v].has_row() and labels[u].has_col():
            design.set_cell(row_of[v], col_of[u], lit)
        else:  # pragma: no cover - excluded by VHLabeling.validate
            raise LabelingError(
                f"edge ({u}, {v}) cannot be realised: labels "
                f"{labels[u].value}-{labels[v].value}"
            )
    return design
