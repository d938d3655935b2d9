"""Tests for the placement constraint model."""

import pytest

from repro import Compact
from repro.crossbar import FaultMap
from repro.crossbar.faults import STUCK_OFF, STUCK_ON, Fault
from repro.expr import parse
from repro.robust import (
    ON,
    VAR,
    cell_classes,
    placement_violations,
    sneak_exclusions,
)


@pytest.fixture(scope="module")
def and_design():
    e = parse("a & b")
    return Compact(gamma=0.5).synthesize_expr(e, name="f").design


def identity_maps(design):
    return (
        {r: r for r in range(design.num_rows)},
        {c: c for c in range(design.num_cols)},
    )


class TestCellClasses:
    def test_covers_exactly_the_programmed_cells(self, and_design):
        classes = cell_classes(and_design)
        assert set(classes) == {(r, c) for _l, r, c, _ in and_design.cells()}
        assert set(classes.values()) <= {ON, VAR}


class TestPerCellRules:
    def test_clean_map_has_no_violations(self, and_design):
        rm, cm = identity_maps(and_design)
        fm = FaultMap(and_design.num_rows, and_design.num_cols, ())
        assert placement_violations(and_design, fm, rm, cm) == []

    def test_stuck_off_under_programmed_cell_flagged(self, and_design):
        rm, cm = identity_maps(and_design)
        _l, r, c, _ = next(iter(and_design.cells()))
        fm = FaultMap(
            and_design.num_rows, and_design.num_cols, (Fault(r, c, STUCK_OFF),)
        )
        vs = placement_violations(and_design, fm, rm, cm)
        assert len(vs) == 1 and vs[0].logical == (r, c)
        assert "stuck_off" in vs[0].reason

    def test_stuck_off_under_open_cell_harmless(self):
        # "a & b" is fully programmed; this shape leaves open crosspoints.
        d = Compact(gamma=0.5).synthesize_expr(
            parse("(a | b) & (c | d)"), name="f"
        ).design
        rm, cm = identity_maps(d)
        programmed = {(r, c) for _l, r, c, _ in d.cells()}
        open_site = next(
            (r, c)
            for r in range(d.num_rows)
            for c in range(d.num_cols)
            if (r, c) not in programmed
        )
        fm = FaultMap(d.num_rows, d.num_cols, (Fault(*open_site, STUCK_OFF),))
        assert placement_violations(d, fm, rm, cm) == []

    def test_stuck_on_under_variable_cell_flagged(self, and_design):
        rm, cm = identity_maps(and_design)
        classes = cell_classes(and_design)
        var_site = next(site for site, k in classes.items() if k == VAR)
        fm = FaultMap(
            and_design.num_rows, and_design.num_cols,
            (Fault(*var_site, STUCK_ON),),
        )
        vs = placement_violations(and_design, fm, rm, cm)
        assert len(vs) == 1 and "stuck_on" in vs[0].reason


class TestSneakPaths:
    def test_chain_through_unused_line_flagged(self, and_design):
        """Two shorts on an unused spare column bridge two used rows."""
        rows, cols = and_design.num_rows, and_design.num_cols
        rm, cm = identity_maps(and_design)
        spare_col = cols  # physical col beyond the design: unused
        fm = FaultMap(
            rows, cols + 1,
            (Fault(0, spare_col, STUCK_ON), Fault(1, spare_col, STUCK_ON)),
        )
        vs = placement_violations(and_design, fm, rm, cm)
        assert len(vs) == 2
        assert all(v.logical is None for v in vs)
        assert all("sneak" in v.reason for v in vs)

    def test_single_short_on_unused_line_harmless(self, and_design):
        rows, cols = and_design.num_rows, and_design.num_cols
        rm, cm = identity_maps(and_design)
        fm = FaultMap(rows, cols + 1, (Fault(0, cols, STUCK_ON),))
        assert placement_violations(and_design, fm, rm, cm) == []


class TestSneakExclusions:
    def test_two_edge_component_excluded(self):
        fm = FaultMap(
            10, 10, (Fault(2, 5, STUCK_ON), Fault(7, 5, STUCK_ON))
        )
        er, ec = sneak_exclusions(fm, 2, 2)
        # All component lines but one must go; 3 lines -> 2 exclusions.
        assert len(er) + len(ec) == 2
        assert er <= {2, 7} and ec <= {5}

    def test_single_edges_do_not_burn_slack(self):
        fm = FaultMap(
            10, 10, (Fault(1, 1, STUCK_ON), Fault(8, 8, STUCK_ON))
        )
        assert sneak_exclusions(fm, 2, 2) == (set(), set())

    def test_respects_slack(self):
        faults = tuple(Fault(r, 0, STUCK_ON) for r in range(6))
        fm = FaultMap(10, 10, faults)
        er, ec = sneak_exclusions(fm, 1, 1)  # needs 5 exclusions: skip
        assert er == set() and ec == set()
