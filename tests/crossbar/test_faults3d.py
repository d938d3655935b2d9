"""Fault handling on layered designs: coordinates, bounds, evaluation."""

import pytest

from repro.circuits import c17
from repro.core import Compact
from repro.crossbar import (
    Fault,
    FaultMap,
    STUCK_OFF,
    STUCK_ON,
    batch_evaluate,
    bitset_evaluate,
    critical_cells,
    evaluate_with_faults,
    validate_under_faults,
    yield_estimate,
)
from repro.crossbar.batch import assignments_to_matrix
from tests.conftest import all_envs


@pytest.fixture(scope="module")
def layered():
    netlist = c17()
    design = Compact(layers=2).synthesize_netlist(netlist).design
    return netlist, design


class TestFaultLayerField:
    def test_default_layer_is_zero(self):
        assert Fault(1, 2, STUCK_ON).layer == 0

    def test_negative_layer_rejected(self):
        with pytest.raises(ValueError):
            Fault(1, 2, STUCK_ON, layer=-1)

    def test_fault_map_layer_bounds(self):
        with pytest.raises(ValueError, match="2-layer"):
            FaultMap(4, 4, (Fault(0, 0, STUCK_ON, layer=3),), layers=2)

    def test_fault_map_layers_below_one_rejected(self):
        with pytest.raises(ValueError):
            FaultMap(4, 4, (), layers=0)

    def test_same_site_different_layer_is_not_a_conflict(self):
        fmap = FaultMap(
            4, 4,
            (Fault(0, 0, STUCK_ON, layer=0), Fault(0, 0, STUCK_OFF, layer=1)),
            layers=2,
        )
        assert len(fmap.faults) == 2


class TestSignatureStability:
    def test_planar_signature_ignores_default_layers(self):
        faults = (Fault(1, 2, STUCK_OFF), Fault(0, 0, STUCK_ON))
        explicit = FaultMap(4, 4, tuple(
            Fault(f.row, f.col, f.kind, layer=0) for f in faults
        ), layers=1)
        assert FaultMap(4, 4, faults).signature() == explicit.signature()

    def test_layered_signature_differs(self):
        base = FaultMap(4, 4, (Fault(1, 2, STUCK_OFF),))
        layered = FaultMap(4, 4, (Fault(1, 2, STUCK_OFF, layer=1),), layers=2)
        assert base.signature() != layered.signature()


class TestBoundsAgainstDesigns:
    def test_layer_outside_design_rejected(self, layered):
        _, design = layered
        with pytest.raises(ValueError, match="2-layer"):
            evaluate_with_faults(design, {}, [Fault(0, 0, STUCK_ON, layer=5)])

    def test_site_outside_layer_planes_rejected(self, layered):
        _, design = layered
        big = max(design.plane_sizes) + 10
        with pytest.raises(ValueError, match="wire planes"):
            evaluate_with_faults(design, {}, [Fault(big, 0, STUCK_ON, layer=1)])


class TestFaultedEvaluation:
    def test_scalar_batch_bitset_agree_under_faults(self, layered):
        netlist, design = layered
        sites = [(l, r, c) for l, r, c, _lit in design.cells()]
        faults = [
            Fault(sites[0][1], sites[0][2], STUCK_OFF, layer=sites[0][0]),
            Fault(sites[-1][1], sites[-1][2], STUCK_ON, layer=sites[-1][0]),
        ]
        envs = list(all_envs(netlist.inputs))
        matrix = assignments_to_matrix(envs, netlist.inputs)
        batched = batch_evaluate(design, netlist.inputs, matrix, faults=faults)
        packed = bitset_evaluate(design, netlist.inputs, faults=faults)
        n = len(netlist.inputs)
        for i, env in enumerate(envs):
            scalar = evaluate_with_faults(design, env, faults)
            idx = sum(
                (1 << (n - 1 - j)) for j, name in enumerate(netlist.inputs)
                if env[name]
            )
            for out, value in scalar.items():
                assert bool(batched[out][i]) == value
                word, bit = divmod(idx, 64)
                assert bool((int(packed[out][word]) >> bit) & 1) == value

    def test_stuck_off_on_layer1_cell_changes_function(self, layered):
        netlist, design = layered
        upper = [
            (l, r, c) for l, r, c, lit in design.cells()
            if l == 1 and not lit.is_constant()
        ]
        assert upper, "2-layer c17 should program layer-1 cells"
        l, r, c = upper[0]
        fault = Fault(r, c, STUCK_OFF, layer=l)
        report = validate_under_faults(
            design, netlist.evaluate, netlist.inputs, [fault]
        )
        healthy = validate_under_faults(
            design, netlist.evaluate, netlist.inputs, []
        )
        assert healthy.ok
        # A literal-carrying cell is not always critical, but the faulted
        # verdict must at least be well-defined and reproducible.
        again = validate_under_faults(
            design, netlist.evaluate, netlist.inputs, [fault]
        )
        assert report.ok == again.ok


class TestAnalysesOnLayeredDesigns:
    def test_critical_cells_returns_triples(self, layered):
        netlist, design = layered
        critical = critical_cells(
            design, netlist.evaluate, netlist.inputs,
            include_unprogrammed=False,
        )
        programmed = {(l, r, c) for l, r, c, _ in design.cells()}
        for kind, sites in critical.items():
            assert all(len(site) == 3 for site in sites), kind
            assert set(sites) <= programmed

    def test_yield_estimate_runs(self, layered):
        netlist, design = layered
        result = yield_estimate(
            design, netlist.evaluate, netlist.inputs,
            p_stuck_on=0.01, p_stuck_off=0.05, trials=20, seed=3,
        )
        assert 0.0 <= result <= 1.0
