"""Layered mapping tests, including the layers=1 parity property.

The parity suite is the acceptance gate for the one mapper: on every
Table-1 circuit, mapping at ``layers=1`` — from the planar labeling
directly and from its K-labeling lift — must reproduce the reference
planar mapper (:mod:`tests.core.planar_mapping_oracle`) bit for bit:
same serialized design, same semiperimeter, same validation verdict.
"""

from functools import lru_cache

import pytest

from repro.bdd import build_sbdd
from repro.bench.suites import circuit, suite
from repro.core import Compact, assign_planes, map_to_crossbar, preprocess
from repro.crossbar import ON, design_to_json, validate_design
from repro.crossbar.design import h_plane, v_plane
from tests.core.planar_mapping_oracle import planar_map_to_crossbar

TABLE1 = [b.name for b in suite("fast")]


@lru_cache(maxsize=None)
def labeled(name: str):
    netlist = circuit(name)
    bg = preprocess(build_sbdd(netlist))
    labeling = Compact(time_limit=5.0).label(bg)
    return netlist, bg, labeling


class TestLayersOneParity:
    """The product mapper at layers=1 == the planar oracle, bit for bit."""

    @pytest.mark.parametrize("name", TABLE1)
    def test_bit_identical_on_table1(self, name):
        netlist, bg, labeling = labeled(name)
        oracle = planar_map_to_crossbar(bg, labeling, name=name)
        oracle_report = validate_design(oracle, netlist.evaluate, netlist.inputs)
        kl = assign_planes(bg, labeling, 1)
        for design in (
            map_to_crossbar(bg, labeling, name=name),
            map_to_crossbar(bg, kl, name=name),
        ):
            assert design_to_json(design) == design_to_json(oracle)
            assert design.semiperimeter == oracle.semiperimeter
            assert design.max_dimension == oracle.max_dimension

            report = validate_design(design, netlist.evaluate, netlist.inputs)
            assert report.ok == oracle_report.ok
            assert report.checked == oracle_report.checked
            assert report.exhaustive == oracle_report.exhaustive


class TestLayeredSynthesis:
    """K >= 2 on every Table-1 circuit: validated and never wider than 2D."""

    @pytest.mark.parametrize("name", TABLE1)
    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_validated_and_never_worse(self, name, num_layers):
        netlist, bg, labeling = labeled(name)
        kl = assign_planes(bg, labeling, num_layers, time_limit=5.0)
        design = map_to_crossbar(bg, kl, name=name)
        assert design.num_layers == num_layers
        assert design.semiperimeter <= labeling.semiperimeter
        report = validate_design(design, netlist.evaluate, netlist.inputs)
        assert report.ok, f"{name} K={num_layers}: {report.counterexample}"


class TestMapping3dStructure:
    def test_facade_produces_layered_design(self):
        netlist = circuit("c17")
        result = Compact(layers=2).synthesize_netlist(netlist)
        assert result.design.num_layers == 2
        assert result.optimal is False

    def test_every_stitch_is_an_on_via(self):
        _, bg, labeling = labeled("voter9")
        kl = assign_planes(bg, labeling, 2)
        design = map_to_crossbar(bg, kl, name="voter9")
        vias = [
            (l, r, c)
            for l, r, c, lit in design.cells()
            if lit == ON
        ]
        assert len(vias) == kl.vh_count
        for l, r, c in vias:
            node_h = design.plane_labels[h_plane(l)][r]
            node_v = design.plane_labels[v_plane(l)][c]
            assert node_h == node_v

    def test_every_edge_lands_in_some_layer(self):
        _, bg, labeling = labeled("c17")
        kl = assign_planes(bg, labeling, 3)
        design = map_to_crossbar(bg, kl, name="c17")
        assert design.literal_count == bg.num_edges

    def test_ports_live_on_plane0(self):
        netlist = circuit("c17")
        result = Compact(layers=2).synthesize_netlist(netlist)
        design = result.design
        assert 0 <= design.input_row < design.plane_sizes[0]
        for row in design.output_rows.values():
            assert 0 <= row < design.plane_sizes[0]

    def test_footprint_matches_plane_maxima(self):
        _, bg, labeling = labeled("voter9")
        kl = assign_planes(bg, labeling, 3)
        design = map_to_crossbar(bg, kl, name="voter9")
        sizes = design.plane_sizes
        assert design.num_rows == max(sizes[0::2])
        assert design.num_cols == max(sizes[1::2])
        assert design.semiperimeter == kl.semiperimeter
