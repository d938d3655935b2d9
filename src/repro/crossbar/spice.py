"""SPICE netlist export.

The paper signs off every design with SPICE simulations and the
memristor model of [33].  :func:`to_spice_netlist` emits a plain
ngspice-compatible DC deck for a programmed crossbar — each crosspoint
as a resistor at its programmed state, the input wordline driven by a
voltage source, a sense resistor on every output wordline, and ``.print``
directives for the sensed voltages — so the designs produced here can be
re-verified with an external circuit simulator.
"""

from __future__ import annotations

from collections.abc import Mapping

from .analog import AnalogParams
from .design import CrossbarDesign, h_plane, v_plane

__all__ = ["to_spice_netlist"]


def _wire_node(plane: int, wire: int) -> str:
    """SPICE node of one nanowire: ``row3``/``col3`` on the bottom planes
    0/1 (all of a planar design), suffixed ``_p<plane>`` above them."""
    kind = "col" if plane % 2 else "row"
    return f"{kind}{wire}" if plane < 2 else f"{kind}{wire}_p{plane}"


def to_spice_netlist(
    design: CrossbarDesign,
    assignment: Mapping[str, bool],
    params: AnalogParams = AnalogParams(),
    title: str | None = None,
) -> str:
    """Serialise the programmed crossbar as a SPICE DC deck.

    Every nanowire is a node; on layered designs a cell joins the
    wordline and bitline of the planes its layer touches.
    """
    on_cells = design.program(assignment)
    lines = [f"* {title or design.name}: flow-based crossbar DC deck"]
    lines.append(f"* {design.num_rows} wordlines x {design.num_cols} bitlines, "
                 f"{design.memristor_count} programmed cells")
    env = ", ".join(f"{k}={int(bool(v))}" for k, v in sorted(assignment.items()))
    if env:
        lines.append(f"* assignment: {env}")

    lines.append(f"Vin {_wire_node(0, design.input_row)} 0 DC {params.v_in:g}")

    for idx, (l, r, c, lit) in enumerate(design.cells()):
        resistance = params.r_on if (l, r, c) in on_cells else params.r_off
        lines.append(
            f"Rm{idx} {_wire_node(h_plane(l), r)} {_wire_node(v_plane(l), c)} "
            f"{resistance:g}  * cell({r},{c})={lit}"
        )

    for out, row in sorted(design.output_rows.items(), key=lambda kv: kv[1]):
        if row == design.input_row:
            continue  # driven node; nothing to sense through
        lines.append(f"Rsense_{out} {_wire_node(0, row)} 0 {params.r_sense:g}")

    lines.append(".op")
    for out, row in sorted(design.output_rows.items(), key=lambda kv: kv[1]):
        lines.append(f".print dc v({_wire_node(0, row)})  * output {out}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
