"""Tests for the crossbar mapping step (Section V-C)."""

import pytest

from repro.bdd import build_sbdd, sbdd_from_exprs
from repro.core import (
    Label,
    VHLabeling,
    label_weighted,
    map_to_crossbar,
    preprocess,
)
from repro.crossbar import ON, validate_design
from repro.expr import parse
from tests.conftest import all_envs


def synth(exprs_dict, gamma=0.5):
    bg = preprocess(sbdd_from_exprs(exprs_dict))
    lab = label_weighted(bg, gamma=gamma, alignment=True)
    return bg, lab, map_to_crossbar(bg, lab, name="t")


class TestDimensions:
    def test_rows_cols_match_labeling(self, c17_netlist):
        bg = preprocess(build_sbdd(c17_netlist))
        lab = label_weighted(bg, gamma=0.5)
        design = map_to_crossbar(bg, lab)
        assert design.num_rows == lab.rows
        assert design.num_cols == lab.cols
        assert design.semiperimeter == lab.semiperimeter
        assert design.max_dimension == lab.max_dimension

    def test_input_row_is_bottom_most(self, c17_netlist):
        bg = preprocess(build_sbdd(c17_netlist))
        lab = label_weighted(bg, gamma=0.5)
        design = map_to_crossbar(bg, lab)
        assert design.input_row == design.num_rows - 1

    def test_outputs_are_top_most(self):
        bg, lab, design = synth({"f": parse("a & b"), "g": parse("a | c")})
        out_rows = sorted(design.output_rows.values())
        assert out_rows == list(range(len(out_rows)))


class TestCells:
    def test_vh_nodes_get_stitch(self):
        # parity has odd cycles, so some node is VH.
        bg = preprocess(sbdd_from_exprs({"f": parse("a ^ b")}))
        lab = label_weighted(bg, gamma=0.5)
        design = map_to_crossbar(bg, lab)
        stitches = [lit for _l, _r, _c, lit in design.cells() if lit == ON]
        assert len(stitches) == lab.vh_count

    def test_every_graph_edge_programmed(self, c17_netlist):
        bg = preprocess(build_sbdd(c17_netlist))
        lab = label_weighted(bg, gamma=0.5)
        design = map_to_crossbar(bg, lab)
        assert design.literal_count == bg.num_edges

    def test_memristor_count(self, c17_netlist):
        bg = preprocess(build_sbdd(c17_netlist))
        lab = label_weighted(bg, gamma=0.5)
        design = map_to_crossbar(bg, lab)
        assert design.memristor_count == bg.num_edges + lab.vh_count

    def test_invalid_labeling_rejected(self):
        bg = preprocess(sbdd_from_exprs({"f": parse("a & b")}))
        labels = {v: Label.H for v in bg.graph.nodes()}
        with pytest.raises(Exception):
            map_to_crossbar(bg, VHLabeling(labels))


class TestConstantOutputs:
    def test_constant_true_senses_input_row(self):
        bg, lab, design = synth({"f": parse("a"), "t": parse("1")})
        assert design.output_rows["t"] == design.input_row
        for env in all_envs(["a"]):
            assert design.evaluate(env)["t"] is True

    def test_constant_false_gets_isolated_row(self):
        bg, lab, design = synth({"f": parse("a"), "z": parse("a & ~a")})
        z_row = design.output_rows["z"]
        assert z_row != design.input_row
        for env in all_envs(["a"]):
            assert design.evaluate(env)["z"] is False

    def test_all_outputs_constant(self):
        bg = preprocess(sbdd_from_exprs({"t": parse("1"), "z": parse("0")}))
        lab = label_weighted(bg, gamma=0.5) if bg.num_nodes else VHLabeling({})
        design = map_to_crossbar(bg, lab)
        out = design.evaluate({})
        assert out == {"t": True, "z": False}


class TestEndToEndCorrectness:
    @pytest.mark.parametrize(
        "text",
        [
            "a", "~a", "a & b", "a | b", "a ^ b", "a ^ b ^ c",
            "(a & b) | (c & d)", "(a | b) & (c | d)",
            "(a & ~b) | (~a & b & c)", "~(a & b) & (c | ~d)",
        ],
    )
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_single_output_formulas(self, text, gamma):
        e = parse(text)
        bg, lab, design = synth({"f": e}, gamma=gamma)
        report = validate_design(
            design, lambda env: {"f": e.evaluate(env)}, sorted(e.variables())
        )
        assert report.ok, (text, gamma, report.counterexample)

    def test_multi_output_shared_logic(self):
        exprs = {
            "f": parse("(a & b) | c"),
            "g": parse("a & b"),
            "h": parse("~c & (a | b)"),
        }
        bg, lab, design = synth(exprs)
        report = validate_design(
            design,
            lambda env: {k: e.evaluate(env) for k, e in exprs.items()},
            ["a", "b", "c"],
        )
        assert report.ok, report.counterexample
