"""The vertex-cover form of the weighted MIP against the paper's Eq. 4.

``eq4_model`` is the edge-variable formulation as printed in the paper
(one orientation binary ``e_u_v`` per edge, ``x_u^V + x_v^H >= 2 - 2e``
and ``x_u^H + x_v^V >= 2e``).  It lives only here, as the oracle:
:func:`repro.core.label_weighted` must reach the same optimal objective
on every instance, with or without the certified ``S`` cut.
"""

import random

import pytest

from repro.bdd import build_sbdd
from repro.bench.suites import circuit
from repro.core import Compact, label_min_semiperimeter, label_weighted, preprocess
from repro.core.compact import _certified_s_bound
from repro.core.preprocess import BddGraph
from repro.graphs import UGraph
from repro.milp import Model, sum_expr

GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Fast-tier circuits whose Method-A labeling misses the all-gamma
#: shortcut at gamma 0.5, so the product path solves the weighted MIP.
MIP_CIRCUITS = ("cmp8", "router24", "arbiter8", "ctrl_like", "mux16", "i2c_like", "dec6")


def eq4_model(bdd_graph: BddGraph, gamma: float, alignment: bool) -> Model:
    graph = bdd_graph.graph
    model = Model(f"eq4_gamma{gamma:g}")
    nodes = sorted(graph.nodes())
    xv = {i: model.add_binary(f"v_{i}") for i in nodes}
    xh = {i: model.add_binary(f"h_{i}") for i in nodes}
    d_var = model.add_integer("D", 0, len(nodes))
    rows_expr = sum_expr(xh.values())
    cols_expr = sum_expr(xv.values())
    model.add_constraint(d_var - rows_expr >= 0)
    model.add_constraint(d_var - cols_expr >= 0)
    for i in nodes:
        model.add_constraint(xv[i] + xh[i] >= 1)
    for u, v in graph.edges():
        e = model.add_binary(f"e_{u}_{v}")
        model.add_constraint(xv[u] + xh[v] + 2 * e >= 2)
        model.add_constraint(xh[u] + xv[v] - 2 * e >= 0)
    if alignment:
        for port in bdd_graph.port_nodes():
            model.add_constraint(xh[port] >= 1)
    model.minimize(gamma * (rows_expr + cols_expr) + (1.0 - gamma) * d_var)
    return model


def oracle_objective(bdd_graph: BddGraph, gamma: float, alignment: bool) -> float:
    sol = eq4_model(bdd_graph, gamma, alignment).solve(backend="highs")
    assert sol.is_optimal
    return sol.objective


def random_graph(seed: int) -> BddGraph:
    """A random connected graph with odd cycles and a few port nodes."""
    rng = random.Random(seed)
    n = rng.randint(8, 13)
    graph = UGraph()
    for v in range(1, n):
        graph.add_edge(v, rng.randrange(v))  # spanning tree keeps it connected
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    ports = rng.sample(range(n), 3)
    return BddGraph(graph, {"f": ports[0], "g": ports[1]}, ports[2])


def circuit_graph(name: str) -> BddGraph:
    return preprocess(build_sbdd(circuit(name)))


def assert_same_optimum(bdd_graph, gamma, alignment, **kwargs):
    lab = label_weighted(bdd_graph, gamma=gamma, alignment=alignment, **kwargs)
    assert lab.meta["optimal"]
    lab.validate(bdd_graph, alignment=alignment)
    expected = oracle_objective(bdd_graph, gamma, alignment)
    assert lab.meta["objective"] == pytest.approx(expected, abs=1e-6)
    assert lab.objective(gamma) == pytest.approx(expected, abs=1e-6)
    return lab


@pytest.mark.parametrize("alignment", [True, False])
@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_match_eq4(seed, gamma, alignment):
    bg = random_graph(seed)
    assert_same_optimum(bg, gamma, alignment)
    # The certified cut from Method A never removes the optimum.
    warm = label_min_semiperimeter(bg, alignment=alignment)
    cut = _certified_s_bound(bg, warm)
    lab = assert_same_optimum(bg, gamma, alignment, s_lower_bound=cut)
    assert lab.meta["s_lower_bound"] == cut
    assert lab.semiperimeter >= cut


@pytest.mark.parametrize("alignment", [True, False])
@pytest.mark.parametrize("gamma", GAMMAS)
def test_c17_matches_eq4(gamma, alignment):
    assert_same_optimum(circuit_graph("c17"), gamma, alignment)


@pytest.mark.parametrize("name", MIP_CIRCUITS)
def test_product_path_circuits_match_eq4(name):
    """What ``Compact`` solves at its defaults, cut included."""
    bg = circuit_graph(name)
    lab = Compact(gamma=0.5).label(bg)
    assert lab.meta["method"] == "mip"
    assert lab.meta["optimal"]
    assert lab.meta["s_lower_bound"] <= lab.semiperimeter
    assert set(lab.meta["stage_seconds"]) == {"oct", "orient", "mip"}
    expected = oracle_objective(bg, 0.5, True)
    assert lab.objective(0.5) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("alignment", [True, False])
@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("name", ["mux16", "dec6", "i2c_like"])
def test_suite_circuits_match_eq4_at_every_gamma(name, gamma, alignment):
    bg = circuit_graph(name)
    warm = label_min_semiperimeter(bg, alignment=alignment)
    cut = _certified_s_bound(bg, warm)
    assert_same_optimum(bg, gamma, alignment, s_lower_bound=cut)


def test_cut_is_certified_when_method_a_is_budget_stopped():
    """A time-stopped OCT still yields a bound the optimum satisfies."""
    bg = circuit_graph("cmp8")
    stopped = label_min_semiperimeter(bg, time_limit=0.0)
    cut = _certified_s_bound(bg, stopped)
    assert_same_optimum(bg, 0.5, True, s_lower_bound=cut)


def test_bnb_warm_start_without_edge_variables_is_an_incumbent():
    bg = circuit_graph("c17")
    warm = label_min_semiperimeter(bg)
    lab = label_weighted(
        bg, gamma=0.5, backend="bnb", time_limit=20, warm_start=warm,
        s_lower_bound=_certified_s_bound(bg, warm),
    )
    lab.validate(bg, alignment=True)
    assert lab.meta["optimal"]
    assert lab.meta["objective"] == pytest.approx(oracle_objective(bg, 0.5, True))
    # The first trace event carries the warm incumbent: it was accepted
    # as feasible by the new model before any branching.
    first_incumbent = lab.meta["trace"][0][1]
    assert first_incumbent == pytest.approx(warm.objective(0.5))
