"""Reference oracle: the one-hot plane-assignment MILP.

One binary per (node, allowed label), every incompatible label pair
forbidden edge by edge.  It was the product's exact stage-2 model before
the threshold (lowest-plane) encoding in :mod:`repro.core.klabel`
replaced it; the tests keep it, unchanged, to check that the threshold
model reaches the same optimal objective.
"""

from repro.core.klabel import KLabel, KLabeling
from repro.core.labeling import Label, VHLabeling
from repro.core.preprocess import BddGraph


def plane_milp_oracle(
    bdd_graph: BddGraph,
    labeling: VHLabeling,
    num_layers: int,
    gamma: float,
    alignment: bool,
    backend: str,
    time_limit: float | None,
    warm: KLabeling,
):
    """Exact plane assignment for the fixed stitch set; None on failure.

    One binary per (node, allowed label); incompatible label pairs are
    forbidden edge by edge; R/C bound every horizontal/vertical plane
    load and D bounds both, reproducing the paper's Eq. 4 objective on
    the 3D footprint.  Returns ``(labeling, proved_optimal)``.
    """
    from repro.milp.model import Model, sum_expr

    graph = bdd_graph.graph
    labels = labeling.labels
    ports = set(bdd_graph.port_nodes()) if alignment else set()

    def allowed(v: int) -> list[KLabel]:
        lab = labels[v]
        if lab is Label.VH:
            options = [KLabel(Label.VH, l) for l in range(num_layers)]
        elif lab is Label.H:
            options = [
                KLabel(Label.H, m) for m in range(num_layers // 2 + 1)
            ]
        else:
            options = [
                KLabel(Label.V, m) for m in range((num_layers + 1) // 2)
            ]
        if v in ports:
            options = [o for o in options if o.has_plane0()]
        return options

    model = Model("plane-assign")
    x: dict[tuple[int, KLabel], object] = {}
    choices: dict[int, list[KLabel]] = {}
    for v in sorted(graph.nodes()):
        opts = allowed(v)
        choices[v] = opts
        for o in opts:
            x[(v, o)] = model.add_binary(f"x_{v}_{o}")
        model.add_constraint(sum_expr(x[(v, o)] for o in opts) == 1)

    for u, v in graph.edges():
        for lu in choices[u]:
            for lv in choices[v]:
                if not lu.compatible(lv):
                    model.add_constraint(x[(u, lu)] + x[(v, lv)] <= 1)

    r_var = model.add_integer("R", lb=0)
    c_var = model.add_integer("C", lb=0)
    d_var = model.add_integer("D", lb=0)
    for plane in range(num_layers + 1):
        load = sum_expr(
            x[(v, o)]
            for v, opts in choices.items()
            for o in opts
            if plane in o.planes
        )
        bound = r_var if plane % 2 == 0 else c_var
        model.add_constraint(load - bound <= 0)
    model.add_constraint(d_var - r_var >= 0)
    model.add_constraint(d_var - c_var >= 0)
    model.minimize(gamma * (r_var + c_var) + (1.0 - gamma) * d_var)

    initial = None
    if backend == "bnb":
        initial = {var.name: 0.0 for var in model.variables}
        for v, lab in warm.labels.items():
            initial[f"x_{v}_{lab}"] = 1.0
        initial["R"] = float(warm.rows)
        initial["C"] = float(warm.cols)
        initial["D"] = float(warm.max_dimension)

    try:
        solution = model.solve(
            backend=backend, time_limit=time_limit, initial_solution=initial
        )
    except Exception:
        return None
    if solution.status not in ("optimal", "feasible"):
        return None
    chosen: dict[int, KLabel] = {}
    for v, opts in choices.items():
        picks = [o for o in opts if solution.int_value(f"x_{v}_{o}") == 1]
        if len(picks) != 1:
            return None
        chosen[v] = picks[0]
    result = KLabeling(num_layers, chosen)
    if not result.is_valid(bdd_graph, alignment=alignment):
        return None
    return result, solution.is_optimal
