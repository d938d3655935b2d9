"""Crossbar designs for flow-based computing.

A :class:`CrossbarDesign` is the artifact COMPACT synthesizes: K layers
of programmed memristor cells between K+1 nanowire planes, an input
port (the bottom-most wordline, where ``V_in`` is applied) and one
output port per function output (a wordline with a sense resistor).
The paper's planar crossbar is the K=1 case.  Evaluation is by
sneak-path connectivity: an output reads true iff a path of
low-resistance memristors connects it to the input wordline.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .literals import OFF, Lit

__all__ = ["CrossbarDesign", "h_plane", "v_plane"]


def h_plane(layer: int) -> int:
    """The horizontal (wordline) nanowire plane memristor ``layer`` touches.

    A 3D crossbar with K memristor layers sandwiches K+1 nanowire
    planes, numbered 0..K bottom-up; even planes run horizontally, odd
    planes vertically.  Layer ``l`` sits between planes ``l`` and
    ``l+1`` — exactly one of which is even.
    """
    return layer if layer % 2 == 0 else layer + 1


def v_plane(layer: int) -> int:
    """The vertical (bitline) nanowire plane memristor ``layer`` touches."""
    return layer + 1 if layer % 2 == 0 else layer




class CrossbarDesign:
    """A programmed K-layer memristor crossbar with input/output ports.

    K memristor layers sandwich K+1 nanowire planes; even planes run
    horizontally, odd planes vertically, and the cells of layer ``l``
    join a wordline on :func:`h_plane` of the layer to a bitline on
    :func:`v_plane`.  Every cell is addressed ``(layer, row, col)``.  The
    paper's planar crossbar is K=1, with ``plane_sizes == (rows, cols)``.
    The chip footprint — and therefore the semiperimeter the paper
    minimizes — is set by the *largest* horizontal and vertical planes,
    which is why spreading wires over more planes shrinks ``S``.  The
    input port and all output ports live on plane 0.

    Parameters
    ----------
    name:
        Design name (usually the circuit name).
    num_rows, num_cols:
        Wordline and bitline counts of a planar design.
    input_row:
        Plane-0 wordline where the evaluation voltage is applied.
    output_rows:
        Mapping from output name to the sensed plane-0 wordline.
    constant_outputs:
        Outputs that are constant functions and have no sensed row
        (value reported directly by :meth:`evaluate`).
    plane_sizes:
        Wire count per nanowire plane, bottom-up, in place of
        ``num_rows``/``num_cols``: ``len(plane_sizes) - 1`` layers.
    """

    def __init__(
        self,
        name: str,
        num_rows: int | None = None,
        num_cols: int | None = None,
        input_row: int = 0,
        output_rows: Mapping[str, int] | None = None,
        constant_outputs: Mapping[str, bool] | None = None,
        *,
        plane_sizes: Iterable[int] | None = None,
    ):
        if plane_sizes is None:
            plane_sizes = (num_rows, num_cols)
        elif num_rows is not None or num_cols is not None:
            raise TypeError("give either num_rows/num_cols or plane_sizes, not both")
        sizes = tuple(int(s) for s in plane_sizes)
        if len(sizes) < 2:
            raise ValueError(
                "a crossbar needs at least two nanowire planes (one memristor layer)"
            )
        if any(s < 0 for s in sizes):
            raise ValueError(f"negative plane size in {sizes}")
        if sizes[0] < 1:
            raise ValueError("a crossbar needs at least one wordline")
        if not (0 <= input_row < sizes[0]):
            raise ValueError("input row out of range")
        output_rows = dict(output_rows or {})
        for out, row in output_rows.items():
            if not (0 <= row < sizes[0]):
                raise ValueError(f"output {out!r} row {row} out of range")
        self.name = name
        #: Wire count per nanowire plane, bottom-up.
        self.plane_sizes = sizes
        #: The footprint: the widest horizontal and vertical planes.
        self.num_rows = max(sizes[0::2])
        self.num_cols = max(sizes[1::2])
        self.input_row = input_row
        self.output_rows = output_rows
        self.constant_outputs = dict(constant_outputs or {})
        self._cells: dict[tuple[int, int, int], Lit] = {}
        #: Optional annotations: which BDD node each wire of each plane realises.
        self.plane_labels: list[dict[int, object]] = [{} for _ in sizes]
        #: Synthesis provenance (certificate bounds, solver flags) — a
        #: plain scalar dict; empty for hand-built designs.
        self.meta: dict = {}

    # -- geometry ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Memristor layers (one fewer than nanowire planes)."""
        return len(self.plane_sizes) - 1

    @property
    def row_labels(self) -> dict[int, object]:
        """Plane-0 (bottom wordline) annotations."""
        return self.plane_labels[0]

    @property
    def col_labels(self) -> dict[int, object]:
        """Plane-1 (bottom bitline) annotations."""
        return self.plane_labels[1]

    def wordline(self, layer: int, row: int) -> int:
        """Global index of wordline ``row`` of ``layer`` over every horizontal plane.

        Plane ``2k`` wire ``r`` is ``k * num_rows + r``, so planar designs
        keep their row indices, and so do the ports (plane 0) at every K.
        """
        return h_plane(layer) // 2 * self.num_rows + row

    def bitline(self, layer: int, col: int) -> int:
        """Global index of bitline ``col`` of ``layer`` (plane ``2k+1`` -> ``k * num_cols + col``)."""
        return v_plane(layer) // 2 * self.num_cols + col

    def sites(self) -> Iterable[tuple[int, int, int]]:
        """Every physical crosspoint, programmed or not, as ``(layer, row, col)``."""
        for l in range(self.num_layers):
            for r in range(self.plane_sizes[h_plane(l)]):
                for c in range(self.plane_sizes[v_plane(l)]):
                    yield l, r, c

    def require_planar(self, operation: str) -> None:
        """Raise :class:`ValueError` naming ``operation`` unless K == 1.

        Guards what only the planar model defines: line permutation
        (defect-aware remapping) and the analog/variation circuit models.
        """
        if self.num_layers > 1:
            raise ValueError(
                f"{operation} supports planar designs only "
                f"(design {self.name!r} has {self.num_layers} memristor layers)"
            )

    def site_name(self, layer: int, row: int, col: int) -> str:
        """A crosspoint as messages print it: ``(row, col)`` on planar
        designs, ``(layer, row, col)`` on layered ones."""
        if self.num_layers == 1:
            return f"({row}, {col})"
        return f"({layer}, {row}, {col})"

    def _check_site(self, layer: int, row: int, col: int) -> None:
        sizes = self.plane_sizes
        if not (0 <= layer < len(sizes) - 1):
            raise IndexError(f"layer {layer} outside this {self.num_layers}-layer crossbar")
        rows = sizes[h_plane(layer)]
        cols = sizes[v_plane(layer)]
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(f"cell {self.site_name(layer, row, col)} outside {rows}x{cols}")

    # -- programming ------------------------------------------------------------
    def set_cell(self, row: int, col: int, lit: Lit, layer: int = 0) -> None:
        """Program one crosspoint; re-programming a cell is an error."""
        self._check_site(layer, row, col)
        existing = self._cells.get((layer, row, col))
        if existing is not None and existing != lit:
            raise ValueError(
                f"cell {self.site_name(layer, row, col)} already programmed with "
                f"{existing} (new: {lit})"
            )
        if lit != OFF:
            self._cells[(layer, row, col)] = lit

    def cell(self, row: int, col: int, layer: int = 0) -> Lit:
        """The programmed literal at a crosspoint (OFF if untouched)."""
        self._check_site(layer, row, col)
        return self._cells.get((layer, row, col), OFF)

    def cells(self) -> Iterable[tuple[int, int, int, Lit]]:
        """All non-OFF cells as ``(layer, row, col, literal)``, in programming order."""
        for (l, r, c), lit in self._cells.items():
            yield l, r, c, lit

    # -- metrics (the paper's hardware-utilisation quantities) --------------------
    @property
    def semiperimeter(self) -> int:
        """Footprint rows + columns (the paper's ``S``)."""
        return self.num_rows + self.num_cols

    @property
    def max_dimension(self) -> int:
        """max(rows, columns) of the footprint (the paper's ``D``)."""
        return max(self.num_rows, self.num_cols)

    @property
    def area(self) -> int:
        """Footprint rows x columns."""
        return self.num_rows * self.num_cols

    @property
    def memristor_count(self) -> int:
        """Programmed (non-'0') crosspoints, including stitch '1' cells."""
        return len(self._cells)

    @property
    def literal_count(self) -> int:
        """Variable-carrying cells — the paper's power proxy vs CONTRA."""
        return sum(1 for lit in self._cells.values() if not lit.is_constant())

    @property
    def via_count(self) -> int:
        """Always-on stitch cells (inter-plane vias on layered designs)."""
        return sum(
            1 for lit in self._cells.values()
            if lit.is_constant() and lit.positive
        )

    @property
    def delay_steps(self) -> int:
        """Evaluation time steps: one write per wordline (over every
        horizontal plane) plus one read."""
        return sum(self.plane_sizes[0::2]) + 1

    # -- evaluation -----------------------------------------------------------------
    def program(self, assignment: Mapping[str, bool]) -> set[tuple[int, int, int]]:
        """Crosspoints ``(layer, row, col)`` in the low-resistive state under ``assignment``."""
        return {
            site for site, lit in self._cells.items() if lit.evaluate(assignment)
        }

    def evaluate(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Flow-based evaluation of every output under ``assignment``."""
        return self.flow_outputs(self.program(assignment))

    def wire_distances(
        self, on_cells: set[tuple[int, int, int]]
    ) -> dict[tuple[int, int], int]:
        """Memristor hops from the input wordline to every wire it reaches.

        Breadth-first search over ``(plane, index)`` wires; each
        conducting cell joins its layer's wordline and bitline, which is
        also how flow crosses between layers (through shared wires).
        """
        adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for l, r, c in on_cells:
            hw = (h_plane(l), r)
            vw = (v_plane(l), c)
            adj.setdefault(hw, []).append(vw)
            adj.setdefault(vw, []).append(hw)

        source = (0, self.input_row)
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt: list[tuple[int, int]] = []
            for wire in frontier:
                hops = dist[wire] + 1
                for other in adj.get(wire, ()):
                    if other not in dist:
                        dist[other] = hops
                        nxt.append(other)
            frontier = nxt
        return dist

    def flow_outputs(self, on_cells: set[tuple[int, int, int]]) -> dict[str, bool]:
        """Output values given the set of conducting crosspoints.

        The fault evaluator shares this with :meth:`evaluate`: it edits
        the conducting set (shorting stuck-on sites, clearing stuck-off
        ones) before running the same flow search.
        """
        reached = self.wire_distances(on_cells)
        result = {
            out: (0, row) in reached for out, row in self.output_rows.items()
        }
        result.update(self.constant_outputs)
        return result

    # -- remapping ------------------------------------------------------------------
    def permuted(
        self,
        row_map: Mapping[int, int],
        col_map: Mapping[int, int],
        num_rows: int | None = None,
        num_cols: int | None = None,
        name: str | None = None,
    ) -> "CrossbarDesign":
        """A copy with wordlines/bitlines relocated onto a physical array.

        ``row_map``/``col_map`` send every logical line of this design to
        a distinct physical line; ``num_rows``/``num_cols`` (default: this
        design's dimensions) may be larger, leaving spare lines
        unprogrammed.  Used by :mod:`repro.robust` to route around
        stuck-at defects; planar designs only.
        """
        self.require_planar("defect-aware line permutation")
        num_rows = self.num_rows if num_rows is None else num_rows
        num_cols = self.num_cols if num_cols is None else num_cols
        for kind, mapping, logical, physical in (
            ("row", row_map, self.num_rows, num_rows),
            ("column", col_map, self.num_cols, num_cols),
        ):
            missing = [i for i in range(logical) if i not in mapping]
            if missing:
                raise ValueError(f"{kind} map misses logical {kind}s {missing}")
            images = [mapping[i] for i in range(logical)]
            if len(set(images)) != len(images):
                raise ValueError(f"{kind} map is not injective")
            bad = [i for i in images if not (0 <= i < physical)]
            if bad:
                raise ValueError(f"{kind} map targets out-of-range lines {bad}")

        out = CrossbarDesign(
            name if name is not None else self.name,
            num_rows=num_rows,
            num_cols=num_cols,
            input_row=row_map[self.input_row],
            output_rows={o: row_map[r] for o, r in self.output_rows.items()},
            constant_outputs=self.constant_outputs,
        )
        for _l, r, c, lit in self.cells():
            out.set_cell(row_map[r], col_map[c], lit)
        out.row_labels.update(
            (row_map[r], v) for r, v in self.row_labels.items() if r in row_map
        )
        out.col_labels.update(
            (col_map[c], v) for c, v in self.col_labels.items() if c in col_map
        )
        return out

    # -- presentation ---------------------------------------------------------------
    def to_grid(self, layer: int = 0) -> list[list[str]]:
        """One memristor layer as a row-major grid of cell strings ('0' for OFF)."""
        rows = self.plane_sizes[h_plane(layer)]
        cols = self.plane_sizes[v_plane(layer)]
        return [
            [str(self._cells.get((layer, r, c), OFF)) for c in range(cols)]
            for r in range(rows)
        ]

    def to_grids(self) -> list[list[list[str]]]:
        """One grid per memristor layer, bottom-up."""
        return [self.to_grid(l) for l in range(self.num_layers)]

    def render(self) -> str:
        """ASCII rendering with port markers, for docs and debugging.

        One block per memristor layer (headed on layered designs), with
        the ports marked on the plane-0 wordlines.
        """
        grids = self.to_grids()
        width = max((len(s) for g in grids for row in g for s in row), default=1)
        out_marks: dict[int, list[str]] = {}
        for name, row in self.output_rows.items():
            out_marks.setdefault(row, []).append(f"-> {name}")
        blocks = []
        for l, grid in enumerate(grids):
            lines = [f"layer {l} (planes {l}|{l + 1}):"] if self.num_layers > 1 else []
            for r, row in enumerate(grid):
                marks = []
                if h_plane(l) == 0:
                    if r == self.input_row:
                        marks.append("<- Vin")
                    marks.extend(out_marks.get(r, ()))
                body = " ".join(s.rjust(width) for s in row)
                suffix = ("  " + ", ".join(marks)) if marks else ""
                lines.append(body + suffix)
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)

    def __repr__(self) -> str:
        planes = "x".join(str(s) for s in self.plane_sizes)
        return (
            f"CrossbarDesign({self.name!r}, layers={self.num_layers}, "
            f"planes={planes}, footprint {self.num_rows}x{self.num_cols}, "
            f"S={self.semiperimeter}, D={self.max_dimension}, "
            f"memristors={self.memristor_count})"
        )
