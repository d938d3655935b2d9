"""Graphviz export for netlists and crossbar designs."""

from __future__ import annotations

from ..circuits.netlist import Netlist
from ..crossbar.design import CrossbarDesign, h_plane, v_plane

__all__ = ["netlist_to_dot", "design_to_dot"]


def netlist_to_dot(netlist: Netlist) -> str:
    """Render a gate-level netlist in Graphviz dot syntax."""
    lines = [f'digraph "{netlist.name}" {{', "  rankdir=LR;"]
    for name in netlist.inputs:
        lines.append(f'  "{name}" [shape=triangle, label="{name}"];')
    for gate in netlist.topological_gates():
        shape = "box"
        lines.append(
            f'  "{gate.output}" [shape={shape}, '
            f'label="{gate.gate_type}\\n{gate.output}"];'
        )
        for src in gate.inputs:
            lines.append(f'  "{src}" -> "{gate.output}";')
    for out in netlist.outputs:
        sink = f"__out_{out}"
        lines.append(f'  "{sink}" [shape=doublecircle, label="{out}"];')
        lines.append(f'  "{out}" -> "{sink}";')
    lines.append("}")
    return "\n".join(lines)


def _wire_id(plane: int, wire: int) -> str:
    """Dot node id of a nanowire: ``r3``/``c3`` on the bottom planes 0/1
    (all of a planar design), suffixed ``_p<plane>`` above them."""
    kind = "c" if plane % 2 else "r"
    return f"{kind}{wire}" if plane < 2 else f"{kind}{wire}_p{plane}"


def design_to_dot(design: CrossbarDesign) -> str:
    """Render a crossbar design as its wire-level bipartite graph.

    Wordlines are boxes, bitlines circles (upper-plane wires carry
    their plane in the label); each programmed cell is an edge
    labelled with its literal.
    """
    lines = [f'digraph "{design.name}" {{', "  rankdir=LR;"]
    for p, size in enumerate(design.plane_sizes):
        plane = f"@p{p}" if p > 1 else ""
        for w in range(size):
            if p % 2:
                lines.append(f'  "{_wire_id(p, w)}" [shape=circle, label="BL{w}{plane}"];')
                continue
            marks = []
            if p == 0:  # the ports
                marks = ["Vin"] if w == design.input_row else []
                marks += [out for out, row in design.output_rows.items() if row == w]
            suffix = f"\\n({', '.join(marks)})" if marks else ""
            lines.append(f'  "{_wire_id(p, w)}" [shape=box, label="WL{w}{plane}{suffix}"];')
    for l, r, c, lit in design.cells():
        lines.append(
            f'  "{_wire_id(h_plane(l), r)}" -> "{_wire_id(v_plane(l), c)}" '
            f'[dir=none, label="{lit}"];'
        )
    lines.append("}")
    return "\n".join(lines)
