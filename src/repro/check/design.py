"""Static analysis of crossbar designs.

Checks a :class:`~repro.crossbar.design.CrossbarDesign` — typically one
reloaded from JSON — without re-running synthesis:

======  ==============================================================
D001    schema violation (JSON inputs; see :mod:`repro.check.schema`)
D002    VH-labeling violation: a stitch joining two different nodes,
        a VH node without its stitch, or an edge cell looping a node
        to itself
D003    alignment violation: a non-constant output sensing the driven
        input wordline, or a disconnected input wordline
D004    a programmed memristor no input-output flow can ever use
D005    an unused (spare) line — informational
D006    line/label binding is not one-to-one (dimension bookkeeping
        breaks: R = #H + #VH, C = #V + #VH no longer hold)
D007    via inconsistency on a layered design: a node spanning more
        than two nanowire planes, non-adjacent planes, or two adjacent
        planes without the always-on via in the layer that joins them
L001    semiperimeter lower-bound certificate (planar) — informational
L002    the design's labeled semiperimeter beats the certified lower
        bound, or the certificate fails self-verification — either way
        the artifact cannot be a faithful planar design
L003    layered semiperimeter lower-bound certificate — informational
L004    a layered design's footprint beats its certified bound, or the
        layered certificate fails self-verification
======  ==============================================================

The planar bound certifies ``S >= n + OCT_lb`` (paper Lemma 1: the
semiperimeter is the node count plus the number of VH nodes, and the VH
set is an odd cycle transversal).  ``OCT_lb`` is the better of two
certificates: the vertex-cover LP bound on the Cartesian product
``P = G x K2`` minus ``n`` (Lemma 1's reduction; the all-halves point
makes this 0 whenever the LP is not forced higher, so it is usually the
weaker bound) and a greedy vertex-disjoint odd-cycle packing, since
every odd cycle must contain at least one VH node and disjoint cycles
need distinct ones.

The layered bound reuses ``OCT_lb`` unchanged — the parity argument
around an odd cycle is plane-independent, so the stitch set of *every*
K-layer labeling is still a transversal — and combines it with the
plane-capacity relaxation of :func:`repro.graphs.bounds.layered_capacity_bound`:
``n + OCT_lb`` wires must spread over ``K//2 + 1`` horizontal and
``(K+1)//2`` vertical nanowire planes with the ports pinned to plane 0.
At ``K = 1`` it degenerates to exactly the planar bound.

Both certificates carry their witnesses (packed odd cycles, per-core LP
fractional matchings) and are re-verified here, independently of the
solver that produced them, before L001/L003 is emitted — a forged
certificate is reported as L002/L004 naming the broken components.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..crossbar.design import CrossbarDesign, h_plane, v_plane
from ..graphs.bounds import (
    layered_capacity_bound,
    oct_certificate,
    odd_cycle_packing_witness,
    verify_layered_certificate,
    verify_semiperimeter_certificate,
)
from ..graphs.undirected import UGraph
from .diagnostics import Diagnostic, diag
from .schema import design_schema_diagnostics

__all__ = [
    "check_design",
    "check_design_file",
    "semiperimeter_lower_bound",
    "layered_semiperimeter_lower_bound",
    "odd_cycle_packing",
]


def check_design_file(path: str | Path) -> list[Diagnostic]:
    """Check one serialized design: schema first, then the analyzer."""
    path = Path(path)
    file = str(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [diag("D001", f"not valid JSON: {exc}", file=file)]
    diags = design_schema_diagnostics(payload, file=file)
    if diags:
        return diags
    from ..crossbar.serialize import design_from_json

    design = design_from_json(json.dumps(payload))
    return check_design(design, file=file)


def check_design(design: CrossbarDesign, file: str | None = None) -> list[Diagnostic]:
    """All static diagnostics for an in-memory design.

    Every check runs per nanowire plane / memristor layer, so planar and
    layered designs share them.  The semiperimeter certificate is the
    one split: ``S = n + #VH`` is a planar identity (L001/L002), while
    the OCT transfer + plane-capacity bound certifies every K (L003/L004).
    """
    diags: list[Diagnostic] = []
    for check in (
        _label_binding_checks,
        _vh_checks,
        _alignment_checks,
        _reachability_checks,
        _spare_line_checks,
        _lower_bound_checks,
    ):
        diags.extend(check(design, file))
    return diags


def _wire(design: CrossbarDesign, plane: int, index: int) -> str:
    """A wire as diagnostics name it: ``row 3``/``col 3`` on planar
    designs, ``plane 2 wire 3`` on layered ones."""
    if design.num_layers == 1:
        return f"{'col' if plane else 'row'} {index}"
    return f"plane {plane} wire {index}"


# -- D006: line/label binding ---------------------------------------------------


def _label_binding_checks(design: CrossbarDesign, file: str | None) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for p, labels in enumerate(design.plane_labels):
        by_node: dict[object, int] = {}
        for wire, node in labels.items():
            if node in by_node:
                diags.append(
                    diag(
                        "D006",
                        f"node {node!r} labels both {_wire(design, p, by_node[node])} "
                        f"and {_wire(design, p, wire)}",
                        file=file, obj=_wire(design, p, wire),
                    )
                )
            else:
                by_node[node] = wire
    return diags


# -- D002 / D007: labeling conformity and stitches ------------------------------


def _node_planes(design: CrossbarDesign) -> dict[object, list[int]]:
    """Which nanowire planes each labeled node occupies, in plane order."""
    planes: dict[object, list[int]] = {}
    for p, labels in enumerate(design.plane_labels):
        for node in dict.fromkeys(labels.values()):
            planes.setdefault(node, []).append(p)
    return planes


def _vh_checks(design: CrossbarDesign, file: str | None) -> list[Diagnostic]:
    labels = design.plane_labels
    if not any(labels):
        return []
    diags: list[Diagnostic] = []
    stitched: set[tuple[object, int]] = set()
    for l, r, c, lit in design.cells():
        rnode = labels[h_plane(l)].get(r)
        cnode = labels[v_plane(l)].get(c)
        at = design.site_name(l, r, c)
        if lit.is_constant():
            # An always-on cell is only ever a stitch: it must join the
            # wordline and bitline of the *same* node.
            if rnode is None or cnode is None or rnode != cnode:
                diags.append(
                    diag(
                        "D002",
                        f"always-on cell at {at} joins "
                        f"{_line_desc(rnode, _wire(design, h_plane(l), r))} and "
                        f"{_line_desc(cnode, _wire(design, v_plane(l), c))} "
                        "instead of stitching one VH node",
                        file=file, obj=f"cell {at}",
                    )
                )
            else:
                stitched.add((rnode, l))
        elif rnode is not None and rnode == cnode:
            diags.append(
                diag(
                    "D002",
                    f"literal cell at {at} loops node {rnode!r} to itself",
                    file=file, obj=f"cell {at}",
                )
            )

    # Every multi-plane node is one stitch between adjacent planes.
    wire_of = [{node: wire for wire, node in plane.items()} for plane in labels]
    for node, planes in _node_planes(design).items():
        if len(planes) == 1:
            continue
        lo, hi = planes[0], planes[-1]
        if len(planes) > 2:
            diags.append(
                diag(
                    "D007",
                    f"node {node!r} spans {len(planes)} nanowire planes "
                    f"({', '.join(map(str, planes))}); a stitched node may "
                    "occupy exactly two",
                    file=file, obj=f"node {node!r}",
                )
            )
        elif hi - lo != 1:
            diags.append(
                diag(
                    "D007",
                    f"node {node!r} spans non-adjacent planes {lo} and {hi}; "
                    "no memristor layer can via them together",
                    file=file, obj=f"node {node!r}",
                )
            )
        elif (node, lo) not in stitched:
            r, c = wire_of[h_plane(lo)][node], wire_of[v_plane(lo)][node]
            if design.num_layers == 1:  # the planar VH stitch
                code = "D002"
                message = f"VH node {node!r} (row {r}, col {c}) has no always-on stitch cell"
            else:
                code = "D007"
                message = (
                    f"node {node!r} spans planes {lo} and {hi} but layer {lo} "
                    f"has no always-on via at its crosspoint ({r}, {c})"
                )
            diags.append(diag(code, message, file=file, obj=f"node {node!r}"))
    return diags


def _line_desc(node, wire: str) -> str:
    if node is None:
        return f"unlabeled {wire}"
    return f"{wire} (node {node!r})"


# -- D003: alignment ------------------------------------------------------------


def _alignment_checks(design: CrossbarDesign, file: str | None) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for out, row in design.output_rows.items():
        if row == design.input_row and out not in design.constant_outputs:
            diags.append(
                diag(
                    "D003",
                    f"output {out!r} senses the driven input wordline "
                    f"{row} but is not declared constant",
                    file=file, obj=out,
                )
            )
    non_constant = [
        out for out in design.output_rows if out not in design.constant_outputs
    ]
    # Plane 0 only borders memristor layer 0, so the driven input
    # wordline can reach the array only through layer-0 cells.
    input_cells = sum(
        1 for l, r, _c, _lit in design.cells()
        if l == 0 and r == design.input_row
    )
    if non_constant and design.memristor_count and input_cells == 0:
        diags.append(
            diag(
                "D003",
                f"input wordline {design.input_row} carries no memristors, so "
                f"no output can ever read true",
                file=file, obj=f"row {design.input_row}",
            )
        )
    return diags


# -- D004: unreachable memristors -----------------------------------------------


def _reachability_checks(design: CrossbarDesign, file: str | None) -> list[Diagnostic]:
    """Cells that cannot lie on any input-to-output flow path.

    Best case for a cell is every programmed memristor conducting; if
    even then its component of the wire-connectivity graph misses the
    input wordline or every output wordline, the cell can never carry
    (or gate) observable flow.
    """
    lines = UGraph()
    lines.add_node((0, design.input_row))
    for row in design.output_rows.values():
        lines.add_node((0, row))
    cells = list(design.cells())
    for l, r, c, _lit in cells:
        lines.add_edge((h_plane(l), r), (v_plane(l), c))

    components = lines.connected_components()
    component_of: dict[object, int] = {}
    for idx, comp in enumerate(components):
        for node in comp:
            component_of[node] = idx
    live = {
        idx
        for idx, comp in enumerate(components)
        if (0, design.input_row) in comp
        and any((0, row) in comp for row in design.output_rows.values())
    }

    diags: list[Diagnostic] = []
    for l, r, c, lit in cells:
        if component_of[(h_plane(l), r)] not in live:
            at = design.site_name(l, r, c)
            diags.append(
                diag(
                    "D004",
                    f"memristor {lit} at {at} is disconnected from the "
                    "input-output flow network",
                    file=file, obj=f"cell {at}",
                )
            )
    return diags


# -- D005: spare lines ----------------------------------------------------------


def _spare_line_checks(design: CrossbarDesign, file: str | None) -> list[Diagnostic]:
    used: set[tuple[int, int]] = {(0, design.input_row)}
    used.update((0, row) for row in design.output_rows.values())
    for l, r, c, _lit in design.cells():
        used.add((h_plane(l), r))
        used.add((v_plane(l), c))
    diags: list[Diagnostic] = []
    for p, size in enumerate(design.plane_sizes):
        kind = "bitline" if p % 2 else "wordline"
        plane = "" if design.num_layers == 1 else f"plane {p} "
        for wire in range(size):
            if (p, wire) not in used:
                diags.append(
                    diag(
                        "D005",
                        f"{plane}{kind} {wire} is unused (spare)",
                        file=file, obj=_wire(design, p, wire),
                    )
                )
    return diags


# -- L001..L004: the semiperimeter certificates ----------------------------------


def _lower_bound_checks(design: CrossbarDesign, file: str | None) -> list[Diagnostic]:
    graph = _implied_graph(design)
    if graph is None or len(graph) == 0:
        return []
    layers = design.num_layers
    if layers == 1:
        cert = semiperimeter_lower_bound(graph)
        failures = verify_semiperimeter_certificate(graph, cert)
        info, error = "L001", "L002"
        what, faithful = "semiperimeter", "VH-labeled"
    else:
        ports = len(_port_nodes(design))
        cert = layered_semiperimeter_lower_bound(graph, ports, layers)
        failures = verify_layered_certificate(graph, cert, ports, layers)
        info, error = "L003", "L004"
        what, faithful = f"{layers}-layer semiperimeter", "layered"
    if failures:
        return [
            diag(
                error,
                f"{what} certificate failed self-verification "
                f"({'; '.join(failures)})",
                file=file, obj=design.name,
                failed_components=sorted({f.split(":", 1)[0] for f in failures}),
            )
        ]
    s_labeled = max(
        len(labels) for labels in design.plane_labels[0::2]
    ) + max(len(labels) for labels in design.plane_labels[1::2])
    diags = [
        diag(
            info,
            f"certified {what} lower bound {cert['s_lb']} "
            f"(labeled S = {s_labeled}, gap {s_labeled - cert['s_lb']})",
            file=file, obj=design.name,
            **cert,
            s_labeled=s_labeled,
            gap=s_labeled - cert["s_lb"],
        )
    ]
    if s_labeled < cert["s_lb"]:
        diags.append(
            diag(
                error,
                f"labeled {what} {s_labeled} is below the certified lower "
                f"bound {cert['s_lb']} — the artifact cannot be a faithful "
                f"{faithful} design",
                file=file, obj=design.name,
            )
        )
    return diags


def _port_nodes(design: CrossbarDesign) -> set:
    """The nodes the design pins to plane-0 wordlines (input + outputs)."""
    rows = {design.input_row}
    rows.update(
        row
        for out, row in design.output_rows.items()
        if out not in design.constant_outputs
    )
    labels = design.plane_labels[0]
    return {labels[r] for r in rows if r in labels}


def _implied_graph(design: CrossbarDesign) -> UGraph | None:
    """The BDD graph the design's labels and literal cells imply."""
    if not any(design.plane_labels):
        return None
    graph = UGraph()
    for labels in design.plane_labels:
        for node in labels.values():
            graph.add_node(node)
    for l, r, c, lit in design.cells():
        if lit.is_constant():
            continue
        rnode = design.plane_labels[h_plane(l)].get(r)
        cnode = design.plane_labels[v_plane(l)].get(c)
        if rnode is None or cnode is None or rnode == cnode:
            continue  # flagged by the D002/D006 checks
        graph.add_edge(rnode, cnode)
    return graph


def semiperimeter_lower_bound(graph: UGraph) -> dict:
    """A provable lower bound on the semiperimeter of any planar mapping
    of ``graph``, with re-checkable witnesses.

    By Lemma 1, ``S = n + #VH`` and the VH set is an odd cycle
    transversal, so ``S >= n + OCT_lb`` for any valid lower bound on
    the transversal.  The bound composition (per-core LP + odd-cycle
    packing) lives in :func:`repro.graphs.bounds.oct_certificate`; this
    wrapper only adds the planar identity.

    Returns the certificate dict: the summary fields ``n``, ``cores``,
    ``lp_product``, ``lp_lb``, ``packing_lb``, ``oct_lb``, ``s_lb``
    plus the witnesses ``packing`` (explicit vertex-disjoint odd
    cycles) and ``lp_witnesses`` (per-core fractional matchings on the
    ``core x K2`` products), which let a consumer re-derive the bound
    without re-solving.
    """
    cert = oct_certificate(graph)
    cert["s_lb"] = cert["n"] + cert["oct_lb"]
    return cert


def layered_semiperimeter_lower_bound(
    graph: UGraph, ports: int, layers: int
) -> dict:
    """A provable lower bound on the footprint semiperimeter of any
    ``layers``-layer mapping of ``graph`` with ``ports`` plane-0 ports.

    The stitch set of every K-layer labeling is still an odd cycle
    transversal (parity around a cycle is plane-independent), so the
    2D ``oct_lb`` transfers; the plane-capacity relaxation then spreads
    the ``n + oct_lb`` wires over the fabric's nanowire planes.  At
    ``layers == 1`` this is exactly :func:`semiperimeter_lower_bound`.

    The certificate extends the OCT witnesses with the capacity fields
    (``layers``, ``even_planes``, ``odd_planes``, ``ports``,
    ``split_even``) checked by
    :func:`repro.graphs.bounds.verify_layered_certificate`.
    """
    cert = oct_certificate(graph)
    cert.update(
        layered_capacity_bound(cert["n"], cert["oct_lb"], ports, layers)
    )
    return cert


def odd_cycle_packing(graph: UGraph) -> int:
    """Greedy count of vertex-disjoint odd cycles.

    Each disjoint odd cycle forces a distinct transversal vertex, so the
    count lower-bounds the odd cycle transversal number.
    """
    return len(odd_cycle_packing_witness(graph))
