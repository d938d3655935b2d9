"""K-layer labeling: the FLOW-3D generalization of VH-labeling.

A crossbar with K memristor layers sandwiches K+1 nanowire planes,
numbered 0..K bottom-up; even planes run horizontally (wordlines), odd
planes vertically (bitlines), and the memristors of layer ``l`` can only
join a wire on plane ``l`` to one on plane ``l+1``.  A node label is a
plane assignment:

* ``H`` at layer ``m`` — one horizontal wire on plane ``2m``;
* ``V`` at layer ``m`` — one vertical wire on plane ``2m+1``;
* ``VH`` at layer ``l`` — wires on planes ``l`` and ``l+1``, stitched by
  an always-on via in memristor layer ``l``.

An edge is realizable iff its endpoints own wires on *adjacent* planes.
Around any cycle the ±1 plane steps must cancel, so odd cycles force a
two-plane (VH) node each, exactly as in 2D: the minimum stitch set is
still the aligned odd cycle transversal, and the exact OCT machinery of
the planar solver carries over to every K unchanged.  K-labeling
therefore solves in two stages:

1. the existing exact/heuristic 2D labeling fixes the stitch set and the
   H/V bipartition (:class:`~repro.core.labeling.VHLabeling`);
2. a *plane assignment* spreads the wires over the K+1 planes —
   :func:`assign_planes` runs a zigzag-fold heuristic (provably valid
   and never worse than the planar solution) refined by a greedy load
   rebalance, then one exact MILP over every node's *lowest plane*.

The exact stage is a threshold encoding, chosen because the edge rules
are all difference constraints.  Write ``lam_v`` for the lowest plane
of node ``v`` and ``w_v`` for its extra width (1 for ``VH``, else 0), so
its wires fill planes ``lam_v .. lam_v + w_v``.  An edge ``(u, v)`` is
realizable iff ``lam_u - lam_v <= 1 + w_v`` and ``lam_v - lam_u <= 1 +
w_u``: pure–pure ``|lam_u - lam_v| <= 1`` (the H/V parities make the
step exactly 1), pure ``u`` against ``VH`` ``v`` ``-1 <= lam_u - lam_v
<= 2``, and ``VH``–``VH`` ``|lam_u - lam_v| <= 2``.  With binaries
``y[v,t] = [lam_v >= t]``, each ``lam_u - lam_v <= c`` is the family of
implications ``y[u,t+c] <= y[v,t]``; together with the chains ``y[v,t+1]
<= y[v,t]`` that is a closure system, whose constraint matrix is totally
unimodular — only the plane-load rows ``load_p = sum_v (y[v,p-w_v] -
y[v,p+1])`` are not.  Along any edge ``lam`` rises by at most 2, so a
node ``d`` hops from a port never sits above plane ``2d``, which bounds
its domain without cutting a feasible assignment.

Every result is measured against two independent capacity bounds from
:mod:`repro.graphs.bounds`: the fixed-split bound certifies the *plane
assignment* (``plane_optimal``), and the layered bound over all stitch
counts certifies the *joint* labeling (``optimal``) — so exactness for
K >= 2 is a checked certificate, not a solver claim.

The footprint the paper's metrics see is the largest horizontal plane by
the largest vertical plane, so ``S`` for K >= 2 is at most the planar
``S`` and usually smaller.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass, field

from ..graphs.bounds import fixed_split_capacity_bound, layered_capacity_bound
from .labeling import Label, LabelingError, VHLabeling
from .preprocess import BddGraph

__all__ = [
    "KLabel",
    "KLabeling",
    "lift_labeling",
    "assign_planes",
    "PLANE_METHODS",
    "stitch_lower_bound",
]

#: Stage-2 solver selection accepted by :func:`assign_planes`.
PLANE_METHODS = ("auto", "fold")


@dataclass(frozen=True, order=True)
class KLabel:
    """One node's placement: orientation plus memristor-layer index.

    For ``VH`` the layer is the memristor layer holding the stitch via
    (wires on planes ``layer`` and ``layer+1``); for pure ``H``/``V`` it
    counts same-orientation planes bottom-up (wire on plane ``2*layer``
    resp. ``2*layer+1``).
    """

    orientation: Label
    layer: int

    def __post_init__(self):
        if self.layer < 0:
            raise ValueError(f"negative layer in {self!r}")

    @property
    def planes(self) -> tuple[int, ...]:
        """The nanowire plane(s) this label's wires occupy."""
        if self.orientation is Label.VH:
            return (self.layer, self.layer + 1)
        if self.orientation is Label.H:
            return (2 * self.layer,)
        return (2 * self.layer + 1,)

    @property
    def stitch_layer(self) -> int | None:
        """The memristor layer of the VH via, or None for pure labels."""
        return self.layer if self.orientation is Label.VH else None

    def has_plane0(self) -> bool:
        """Whether one of the wires is a bottom-plane wordline (a port slot)."""
        return 0 in self.planes

    def compatible(self, other: "KLabel") -> bool:
        """Whether an edge between nodes so labeled is realizable."""
        return any(
            abs(p - q) == 1 for p in self.planes for q in other.planes
        )

    def __str__(self) -> str:
        return f"{self.orientation.value}@{self.layer}"


def _label_for_planes(planes: tuple[int, ...]) -> KLabel:
    """The :class:`KLabel` occupying exactly ``planes`` (1 or 2, adjacent)."""
    if len(planes) == 2:
        lo, hi = min(planes), max(planes)
        if hi != lo + 1:
            raise ValueError(f"stitched planes {planes} are not adjacent")
        return KLabel(Label.VH, lo)
    (p,) = planes
    if p % 2 == 0:
        return KLabel(Label.H, p // 2)
    return KLabel(Label.V, p // 2)


@dataclass
class KLabeling:
    """A K-layer labeling of a :class:`~repro.core.preprocess.BddGraph`.

    ``meta`` merges the stage-1 (stitch-set) solver diagnostics with the
    plane-assignment stage's: ``stitch_optimal`` / ``plane_optimal``
    report per-stage exactness, and ``optimal`` is True only when the
    achieved objective meets the certified layered capacity bound
    (``certified_s_lb`` / ``certified_gap``) — stage-wise optimality
    alone does not certify the joint optimum.
    """

    num_layers: int
    labels: dict[int, KLabel]
    meta: dict = field(default_factory=dict)

    # -- size metrics ---------------------------------------------------------
    @property
    def plane_loads(self) -> tuple[int, ...]:
        """Wires per nanowire plane (planes 0..K)."""
        loads = [0] * (self.num_layers + 1)
        for lab in self.labels.values():
            for p in lab.planes:
                loads[p] += 1
        return tuple(loads)

    @property
    def rows(self) -> int:
        """Wordlines of the widest horizontal plane (the footprint rows)."""
        loads = self.plane_loads
        return max(loads[0::2], default=0)

    @property
    def cols(self) -> int:
        """Bitlines of the widest vertical plane (the footprint cols)."""
        loads = self.plane_loads
        return max(loads[1::2], default=0)

    @property
    def semiperimeter(self) -> int:
        return self.rows + self.cols

    @property
    def max_dimension(self) -> int:
        return max(self.rows, self.cols)

    @property
    def vh_count(self) -> int:
        """Stitched (two-plane) nodes — each costs one always-on via."""
        return sum(
            1 for lab in self.labels.values() if lab.orientation is Label.VH
        )

    def objective(self, gamma: float) -> float:
        """The paper's weighted objective on the 3D footprint."""
        return gamma * self.semiperimeter + (1.0 - gamma) * self.max_dimension

    # -- validity ----------------------------------------------------------------
    def validate(self, bdd_graph: BddGraph, alignment: bool = True) -> None:
        """Raise :class:`LabelingError` unless the K-labeling is valid."""
        graph = bdd_graph.graph
        top = self.num_layers
        for v in graph.nodes():
            lab = self.labels.get(v)
            if lab is None:
                raise LabelingError(f"node {v} has no label")
            if max(lab.planes) > top:
                raise LabelingError(
                    f"node {v} label {lab} needs plane {max(lab.planes)} but "
                    f"a {top}-layer crossbar only has planes 0..{top}"
                )
        for u, v in graph.edges():
            if not self.labels[u].compatible(self.labels[v]):
                raise LabelingError(
                    f"edge ({u}, {v}) joins non-adjacent planes "
                    f"{self.labels[u]} - {self.labels[v]}"
                )
        if alignment:
            for port in bdd_graph.port_nodes():
                if not self.labels[port].has_plane0():
                    raise LabelingError(
                        f"port node {port} must own a plane-0 wordline (alignment)"
                    )

    def is_valid(self, bdd_graph: BddGraph, alignment: bool = True) -> bool:
        try:
            self.validate(bdd_graph, alignment=alignment)
        except LabelingError:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"KLabeling(K={self.num_layers}, R={self.rows}, C={self.cols}, "
            f"S={self.semiperimeter}, D={self.max_dimension}, VH={self.vh_count})"
        )


def lift_labeling(labeling: VHLabeling, num_layers: int = 1) -> KLabeling:
    """Embed a planar labeling into a K-layer fabric on planes {0, 1}.

    The trivial lift: every wire stays on the bottom wordline/bitline
    planes, so rows, cols and every cell coordinate match the 2D design
    exactly.  For ``num_layers == 1`` this *is* the K-labeling problem's
    whole feasible space (three labels, all at layer 0).
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    labels = {v: KLabel(lab, 0) for v, lab in labeling.labels.items()}
    meta = dict(labeling.meta)
    meta["stitch_optimal"] = bool(labeling.meta.get("optimal", False))
    return KLabeling(num_layers, labels, meta)


# -- stage 2: plane assignment ---------------------------------------------------


def stitch_lower_bound(labeling: VHLabeling) -> int:
    """A sound lower bound on the stitch count of *any* valid K-labeling.

    The stitch set of every K-layer labeling is an (aligned) odd cycle
    transversal — parity around a cycle is plane-independent — so the
    stage-1 solver's bound transfers to every K.  The achieved count is
    exact only when stage 1 proved a *minimum stitch set*: a Method-A
    (``oct``) labeling, or a weighted labeling at gamma 1.  A weighted
    optimum at gamma < 1 may spend extra stitches to balance D, so it
    falls back to the Method-A bound it was cut with
    (``s_lower_bound - n``); otherwise the solver's reported OCT bound,
    if any, is used.
    """
    meta = labeling.meta
    minimal = meta.get("method") == "oct" or (
        meta.get("method") == "mip" and meta.get("gamma") == 1.0
    )
    if meta.get("optimal") and minimal:
        return sum(
            1 for lab in labeling.labels.values() if lab is Label.VH
        )
    lower = meta.get("oct_lower_bound")
    if lower is None and meta.get("s_lower_bound") is not None:
        lower = meta["s_lower_bound"] - len(labeling.labels)
    if lower is None:
        return 0
    return max(0, math.ceil(lower - 1e-9))


def assign_planes(
    bdd_graph: BddGraph,
    labeling: VHLabeling,
    num_layers: int,
    gamma: float = 0.5,
    alignment: bool = True,
    method: str = "auto",
    backend: str = "highs",
    time_limit: float | None = None,
    plane_method: str = "auto",
) -> KLabeling:
    """Spread a planar labeling's wires over ``num_layers`` layers.

    The stitch set and H/V bipartition of ``labeling`` are kept (they
    stay optimal for every K, see the module docstring); only the plane
    of each wire is chosen.  Runs the zigzag fold plus greedy rebalance
    always; with ``plane_method="auto"`` (and ``method`` other than
    ``"heuristic"``) the exact threshold MILP of the module docstring
    follows, at every graph size, and its result replaces the fold's
    when it is strictly better.  ``plane_method="fold"`` keeps the
    heuristic alone.  ``plane_method`` in the meta records the outcome:
    ``milp``, ``fold+milp-certified`` (the fold met the proven optimum)
    or ``fold``, plus ``+capacity-certified`` when the footprint meets
    the fixed-split capacity bound.

    The result never has a larger footprint than the planar design, and
    its meta carries the capacity certificates: ``plane_s_lb`` (fixed
    H/V split), ``certified_s_lb`` / ``certified_gap`` (over all stitch
    counts >= the certified minimum), with ``plane_optimal`` and
    ``optimal`` set whenever the achieved footprint meets them.
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if plane_method not in PLANE_METHODS:
        raise ValueError(
            f"plane_method must be one of {'/'.join(PLANE_METHODS)}, "
            f"got {plane_method!r}"
        )
    started = time.perf_counter()
    n = len(bdd_graph.graph)
    ports = len(bdd_graph.port_nodes()) if alignment else 0
    k_lb = stitch_lower_bound(labeling)
    if num_layers == 1 or n == 0:
        out = lift_labeling(labeling, num_layers)
        cap = layered_capacity_bound(n, k_lb, ports, num_layers)
        out.meta.update(
            {
                "num_layers": num_layers,
                "plane_method": "lift",
                "plane_optimal": True,
                "optimal": bool(labeling.meta.get("optimal", False)),
                "certified_s_lb": cap["s_lb"],
                "certified_gap": out.semiperimeter - cap["s_lb"],
            }
        )
        return out

    folded = _zigzag_fold(bdd_graph, labeling, num_layers, alignment)
    _rebalance(bdd_graph, folded, alignment)
    best = folded
    chosen = "fold"
    plane_optimal = False

    exact = None
    if plane_method == "auto" and method != "heuristic":
        exact = _plane_milp(
            bdd_graph, labeling, num_layers, gamma, alignment,
            backend=backend, time_limit=time_limit, warm=folded,
        )
    if exact is not None:
        milp_labeling, milp_optimal = exact
        plane_optimal = milp_optimal
        if milp_labeling.objective(gamma) < best.objective(gamma) - 1e-9:
            best = milp_labeling
            chosen = "milp"
        elif milp_optimal:
            # The fold already attains the exact optimum; keep it
            # (deterministic tie-break) but record the certificate.
            chosen = "fold+milp-certified"

    # Certify against the fixed-split capacity bound: with the H/V
    # bipartition frozen by stage 1, every plane assignment has
    # R >= max(ceil(E/P_even), ports) and C >= ceil(O/P_odd).
    even_wires = sum(
        1 for lab in labeling.labels.values() if lab is not Label.V
    )
    odd_wires = sum(
        1 for lab in labeling.labels.values() if lab is not Label.H
    )
    plane_s_lb, plane_d_lb = fixed_split_capacity_bound(
        even_wires, odd_wires, ports, num_layers
    )
    split_obj_lb = gamma * plane_s_lb + (1.0 - gamma) * plane_d_lb
    if not plane_optimal and best.objective(gamma) <= split_obj_lb + 1e-9:
        plane_optimal = True
        chosen = f"{chosen}+capacity-certified"

    # Joint certificate: the layered capacity bound over every stitch
    # count the graph admits (L003's bound).  Meeting it proves the
    # two-stage result is optimal among *all* valid K-labelings.
    cap = layered_capacity_bound(n, k_lb, ports, num_layers, gamma=gamma)

    best.validate(bdd_graph, alignment=alignment)
    meta = dict(labeling.meta)
    meta.update(
        {
            "num_layers": num_layers,
            "plane_method": chosen,
            "plane_optimal": plane_optimal,
            "stitch_optimal": bool(labeling.meta.get("optimal", False)),
            "optimal": best.objective(gamma) <= cap["obj_lb"] + 1e-9,
            "plane_s_lb": plane_s_lb,
            "certified_s_lb": cap["s_lb"],
            "certified_gap": best.semiperimeter - cap["s_lb"],
            "plane_seconds": time.perf_counter() - started,
        }
    )
    best.meta = meta
    return best


def _zigzag_fold(
    bdd_graph: BddGraph,
    labeling: VHLabeling,
    num_layers: int,
    alignment: bool,
) -> KLabeling:
    """Valid plane assignment by folding BFS depth into the plane range.

    Stitched nodes stay on planes (0, 1).  On the *pure* subgraph
    (stitched nodes removed — what remains is bipartite between H and V)
    every node gets ``d(v)``, the least pinned offset plus hop distance,
    where pins are: ports at 0, V-neighbors of stitched nodes at 1,
    H-neighbors at 2.  Every pin's offset has the parity of its side, so
    ``d`` alternates parity along edges while moving by at most 1 —
    i.e. exactly by 1.  Folding ``d`` with the period-2K zigzag keeps
    both properties inside 0..K, so every edge lands on adjacent planes;
    ports get d = 0 and stay on plane 0.
    """
    graph = bdd_graph.graph
    labels = labeling.labels
    ports = set(bdd_graph.port_nodes()) if alignment else set()

    pure = [v for v in graph.nodes() if labels[v] is not Label.VH]
    pure_set = set(pure)
    pins: dict[int, int] = {}
    for v in pure:
        if v in ports:
            pins[v] = 0
    for v in graph.nodes():
        if labels[v] is not Label.VH:
            continue
        for u in graph.neighbors(v):
            if u not in pure_set:
                continue
            if labels[u] is Label.V:
                pins[u] = min(pins.get(u, 1), 1)
            else:
                pins.setdefault(u, 2)

    # Components the pins never reach still need an anchor; seed each
    # with its smallest node at that node's side parity.
    dist: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for comp in _pure_components(graph, pure_set):
        if not any(u in pins for u in comp):
            rep = min(comp)
            pins[rep] = 0 if labels[rep] is Label.H else 1
    for v, g in pins.items():
        heap.append((g, v))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for u in graph.neighbors(v):
            if u in pure_set and u not in dist:
                heapq.heappush(heap, (d + 1, u))

    period = 2 * num_layers
    out: dict[int, KLabel] = {}
    for v in graph.nodes():
        lab = labels[v]
        if lab is Label.VH:
            out[v] = KLabel(Label.VH, 0)
            continue
        z = dist[v] % period
        plane = z if z <= num_layers else period - z
        out[v] = _label_for_planes((plane,))
    return KLabeling(num_layers, out)


def _pure_components(graph, pure_set: set[int]) -> list[list[int]]:
    """Connected components of the stitch-free subgraph."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(pure_set):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in graph.neighbors(v):
                if u in pure_set and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    frontier.append(u)
        comps.append(comp)
    return comps


def _rebalance(bdd_graph: BddGraph, klabeling: KLabeling, alignment: bool) -> None:
    """Greedy footprint shrink: move single-plane wires off the widest planes.

    Moving a wordline between even planes never touches the bitline
    count and vice versa, so each accepted move strictly shrinks the
    sorted load vector of its side — termination is guaranteed.  Ports
    are pinned to plane 0 and stitched nodes stay put (their two planes
    would move together; the MILP handles that exactly).
    """
    graph = bdd_graph.graph
    labels = klabeling.labels
    ports = set(bdd_graph.port_nodes()) if alignment else set()
    top = klabeling.num_layers

    def movable_to(v: int, plane: int) -> bool:
        return all(
            any(abs(plane - q) == 1 for q in labels[u].planes)
            for u in graph.neighbors(v)
        )

    for parity in (0, 1):
        side_planes = list(range(parity, top + 1, 2))
        if len(side_planes) < 2:
            continue
        changed = True
        while changed:
            changed = False
            loads = [0] * (top + 1)
            for lab in labels.values():
                for p in lab.planes:
                    loads[p] += 1
            worst = max(side_planes, key=lambda p: (loads[p], -p))
            movers = sorted(
                v
                for v, lab in labels.items()
                if lab.orientation is not Label.VH
                and lab.planes == (worst,)
                and v not in ports
            )
            for v in movers:
                targets = sorted(
                    (loads[p], p)
                    for p in side_planes
                    if p != worst and loads[p] + 1 < loads[worst]
                    and movable_to(v, p)
                )
                if targets:
                    _, dest = targets[0]
                    labels[v] = _label_for_planes((dest,))
                    changed = True
                    break


def _port_distances(graph, ports: set[int]) -> dict[int, int]:
    """Hop distance from the nearest port, for every node a port reaches."""
    dist: dict[int, int] = {p: 0 for p in ports}
    frontier = sorted(ports)
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = sorted(nxt)
    return dist


def _plane_milp(
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

    Threshold encoding of each node's lowest plane ``lam_v`` (see
    :func:`assign_planes`): binaries ``y_v_t = [lam_v >= t]`` for the
    domain values above the node's minimum, chained downwards; every
    edge becomes two difference constraints ``lam_u - lam_v <= 1 + w_v``
    (``w`` = 1 for a stitched node), each written as the closure rows
    ``[lam_u >= t + c] <= [lam_v >= t]``.  Plane loads, R/C/D and the
    Eq. 4 objective follow.  Returns ``(labeling, proved_optimal)``.
    """
    from ..milp.model import LinExpr, Model
    from ..perf import counters

    graph = bdd_graph.graph
    labels = labeling.labels
    ports = set(bdd_graph.port_nodes()) if alignment else set()
    dist = _port_distances(graph, ports)
    width = {v: 1 if labels[v] is Label.VH else 0 for v in graph.nodes()}

    # Domain of lam_v: H on even planes, V on odd ones, a VH pair's lower
    # wire on 0..K-1; ports pinned to 0, and since lam rises by at most
    # 2 per edge, a node d hops from a port never sits above plane 2d
    # (a node no port reaches keeps its whole range: 2K >= K).
    domains: dict[int, list[int]] = {}
    for v in sorted(graph.nodes()):
        if width[v]:
            dom = range(num_layers)
        else:
            dom = range(0 if labels[v] is Label.H else 1, num_layers + 1, 2)
        ceiling = 0 if v in ports else 2 * dist.get(v, num_layers)
        domains[v] = [t for t in dom if t <= ceiling]
        if not domains[v]:
            return None

    model = Model("plane-assign")
    y: dict[tuple[int, int], object] = {}
    for v, dom in domains.items():
        for lower, t in zip(dom, dom[1:]):
            y[(v, t)] = model.add_binary(f"y_{v}_{t}")
            if (v, lower) in y:
                model.add_constraint(y[(v, t)] - y[(v, lower)] <= 0)

    def at_least(v: int, t: int):
        """``[lam_v >= t]``: the key of a threshold binary, or a constant."""
        dom = domains[v]
        if t <= dom[0]:
            return True
        if t > dom[-1]:
            return False
        return (v, dom[bisect.bisect_left(dom, t)])

    closures: set[tuple] = set()
    for a, b in graph.edges():
        for u, v in ((a, b), (b, a)):
            c = 1 + width[v]
            for t in range(domains[v][0] + 1, domains[u][-1] - c + 1):
                hi, lo = at_least(u, t + c), at_least(v, t)
                if hi is False or lo is True or (hi, lo) in closures:
                    continue
                if hi is True and lo is False:
                    return None  # the domains admit no plane for this edge
                closures.add((hi, lo))
                upper = 1.0 if hi is True else y[hi]
                model.add_constraint(upper - (0.0 if lo is False else y[lo]) <= 0)

    r_var = model.add_integer("R", lb=0)
    c_var = model.add_integer("C", lb=0)
    d_var = model.add_integer("D", lb=0)
    for plane in range(num_layers + 1):
        # Wire on ``plane`` iff lam_v <= plane <= lam_v + w_v.
        coeffs: dict[int, float] = {}
        constant = 0.0
        for v in domains:
            for key, sign in (
                (at_least(v, plane - width[v]), 1.0),
                (at_least(v, plane + 1), -1.0),
            ):
                if key is True:
                    constant += sign
                elif key is not False:
                    idx = y[key].index
                    coeffs[idx] = coeffs.get(idx, 0.0) + sign
        load = LinExpr({i: k for i, k in coeffs.items() if k}, constant)
        bound = r_var if plane % 2 == 0 else c_var
        model.add_constraint(load - bound <= 0)
    model.add_constraint(d_var - r_var >= 0)
    model.add_constraint(d_var - c_var >= 0)
    model.minimize(gamma * (r_var + c_var) + (1.0 - gamma) * d_var)

    initial = None
    if backend == "bnb":
        initial = {
            var.name: float(min(warm.labels[v].planes) >= t)
            for (v, t), var in y.items()
        }
        initial["R"] = float(warm.rows)
        initial["C"] = float(warm.cols)
        initial["D"] = float(warm.max_dimension)

    counters.increment("plane_milp_components")
    try:
        solution = model.solve(
            backend=backend, time_limit=time_limit, initial_solution=initial
        )
    except Exception:
        return None
    if solution.status not in ("optimal", "feasible"):
        return None
    chosen: dict[int, KLabel] = {}
    for v, dom in domains.items():
        lowest = max(
            t for t in dom if t == dom[0] or solution.int_value(y[(v, t)]) == 1
        )
        if width[v]:
            chosen[v] = KLabel(Label.VH, lowest)
        else:
            chosen[v] = _label_for_planes((lowest,))
    result = KLabeling(num_layers, chosen)
    if not result.is_valid(bdd_graph, alignment=alignment):
        return None
    return result, solution.is_optimal
