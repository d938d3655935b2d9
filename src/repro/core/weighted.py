"""Method B: VH-labeling by MIP over the weighted objective (Section VI-B).

The paper's Eq. 4 gives every node ``i`` two binaries ``x_i^V`` and
``x_i^H`` (the node occupies a bitline and/or a wordline) and every edge
``(i, j)`` a helper binary orienting its memristor as V-H or H-V.  We
solve the same problem without the per-edge binaries, as the two-sided
vertex cover of ``G □ K2`` (Lemma 1) plus the dimension rows:

    min   gamma * S + (1 - gamma) * D
    s.t.  S  = sum_i (x_i^V + x_i^H)
          R  = sum_i x_i^H,   C = sum_i x_i^V
          D >= R,  D >= C
          x_i^H + x_j^H >= 1               for (i, j) in E
          x_i^V + x_j^V >= 1               for (i, j) in E
          x_i^V + x_i^H >= 1               every node occupies a line
          x_i^H  = 1                       for roots/terminal (alignment, Eq. 7)

Equivalence with Eq. 4: an edge is realizable iff one endpoint has a V
line and the other an H line, i.e. ``(x_i^V and x_j^H) or (x_i^H and
x_j^V)``.  Given that every node occupies some line, this fails exactly
when both endpoints lack H or both lack V: if ``i`` lacks H, the H cover
row gives ``j`` an H line and occupancy gives ``i`` a V line; if ``i``
has H but ``j`` lacks V, the V cover row gives ``i`` a V line and
occupancy gives ``j`` an H line — either way V-H is realized.  So the
integer feasible set is Eq. 4's projected onto the node variables, while
the LP relaxation is strictly tighter: Eq. 4's two edge rows project
only to ``x_i^V + x_i^H + x_j^V + x_j^H >= 2``.

Callers holding a certified bound on ``S`` (the Method-A transversal's
lower bound, ``n + ceil(oct_lb)``) pass it as ``s_lower_bound``; it is
added as the cut ``S >= s_lower_bound`` together with ``2D >= S`` (rows
plus columns equal ``S``), neither of which removes an integer solution.

(The paper's Eq. 4 prints ``R = sum x^V``; consistent with Eq. 3 and the
text, rows are wordlines, so we read ``R = sum x^H``.)
"""

from __future__ import annotations

import time

from ..milp import Model, SolveStatus, sum_expr
from .labeling import Label, VHLabeling
from .preprocess import BddGraph

__all__ = ["label_weighted", "build_vh_model"]


def build_vh_model(
    bdd_graph: BddGraph, gamma: float, alignment: bool = True
) -> tuple[Model, dict[int, tuple], object]:
    """Construct the weighted VH MIP.  Returns ``(model, node_vars, D_var)``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    graph = bdd_graph.graph
    model = Model(f"vh_gamma{gamma:g}")
    nodes = sorted(graph.nodes())
    n = len(nodes)

    xv = {i: model.add_binary(f"v_{i}") for i in nodes}
    xh = {i: model.add_binary(f"h_{i}") for i in nodes}
    d_var = model.add_integer("D", 0, n)

    rows_expr = sum_expr(xh.values())
    cols_expr = sum_expr(xv.values())
    model.add_constraint(d_var - rows_expr >= 0, name="D>=R")
    model.add_constraint(d_var - cols_expr >= 0, name="D>=C")

    for i in nodes:
        model.add_constraint(xv[i] + xh[i] >= 1, name=f"occupy_{i}")

    for u, v in graph.edges():
        model.add_constraint(xh[u] + xh[v] >= 1, name=f"cover_h_{u}_{v}")
        model.add_constraint(xv[u] + xv[v] >= 1, name=f"cover_v_{u}_{v}")

    if alignment:
        for port in bdd_graph.port_nodes():
            model.add_constraint(xh[port] >= 1, name=f"align_{port}")

    model.minimize(gamma * (rows_expr + cols_expr) + (1.0 - gamma) * d_var)
    return model, {i: (xv[i], xh[i]) for i in nodes}, d_var


def label_weighted(
    bdd_graph: BddGraph,
    gamma: float = 0.5,
    alignment: bool = True,
    backend: str = "highs",
    time_limit: float | None = None,
    warm_start: VHLabeling | None = None,
    trace_callback=None,
    s_lower_bound: int | None = None,
) -> VHLabeling:
    """Solve the VH-labeling problem for ``gamma*S + (1-gamma)*D``.

    ``warm_start`` (typically a Method-A labeling) seeds the B&B backend
    with a feasible incumbent and is the fallback when the solve ends
    without one.  ``s_lower_bound`` is a certified lower bound on ``S``
    (``Compact`` derives it from the same Method-A solve); both backends
    use it as a cut.  ``meta["stage_seconds"]["mip"]`` records the solve
    wall time.
    """
    t0 = time.perf_counter()
    model, node_vars, d_var = build_vh_model(bdd_graph, gamma, alignment)
    if s_lower_bound is not None:
        semi = sum_expr(xv + xh for xv, xh in node_vars.values())
        model.add_constraint(semi >= s_lower_bound, name="S>=lb")
        model.add_constraint(2 * d_var - semi >= 0, name="2D>=S")

    initial = None
    if warm_start is not None and backend == "bnb":
        initial = _warm_values(warm_start)

    sol = model.solve(
        backend=backend,
        time_limit=time_limit,
        initial_solution=initial,
        trace_callback=trace_callback,
    )
    stage_seconds = {"mip": time.perf_counter() - t0}
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NO_SOLUTION):
        if warm_start is not None:
            out = VHLabeling(dict(warm_start.labels), meta=dict(warm_start.meta))
            out.meta.update({
                "method": "mip", "optimal": False, "fallback": "warm_start",
                "s_lower_bound": s_lower_bound,
                "stage_seconds": {
                    **warm_start.meta.get("stage_seconds", {}), **stage_seconds,
                },
            })
            return out
        raise RuntimeError(
            f"VH MIP terminated without a solution ({sol.status}); the "
            "all-VH labeling is always feasible, so this indicates the "
            "time limit preempted the root relaxation"
        )

    labels: dict[int, Label] = {}
    for i, (xv, xh) in node_vars.items():
        has_v = sol.int_value(xv) == 1
        has_h = sol.int_value(xh) == 1
        if has_v and has_h:
            labels[i] = Label.VH
        elif has_v:
            labels[i] = Label.V
        else:
            labels[i] = Label.H

    return VHLabeling(
        labels,
        meta={
            "method": "mip",
            "gamma": gamma,
            "optimal": sol.is_optimal,
            "objective": sol.objective,
            "bound": sol.bound,
            "gap": sol.gap,
            "runtime": sol.runtime,
            "nodes_explored": sol.nodes_explored,
            "s_lower_bound": s_lower_bound,
            "stage_seconds": stage_seconds,
            "trace": sol.trace,
        },
    )


def _warm_values(labeling: VHLabeling) -> dict[str, float]:
    """Encode a labeling as a feasible assignment of the weighted MIP."""
    values: dict[str, float] = {}
    for i, lab in labeling.labels.items():
        values[f"v_{i}"] = 1.0 if lab.has_col() else 0.0
        values[f"h_{i}"] = 1.0 if lab.has_row() else 0.0
    values["D"] = float(labeling.max_dimension)
    return values
