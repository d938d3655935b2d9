"""Figure 10: MIP convergence — best integer, best bound, relative gap.

The paper plots CPLEX converging on i2c over ~1000 s; our pure-Python
branch and bound plays that role on an instance it can close within the
budget, plus a truncated trace on a larger one.
"""

from repro.bench import fig10_convergence
from repro.bench.tables import text_series


def test_fig10_converges(benchmark, save_result):
    table, trace = benchmark.pedantic(
        lambda: fig10_convergence(circuit="cmp8", gamma=0.5, time_limit=30.0),
        rounds=1,
        iterations=1,
    )
    assert len(trace) >= 3
    bounds = [b for _, _, b, _ in trace]
    assert bounds == sorted(bounds), "dual bound must be monotone"
    incumbents = [i for _, i, _, _ in trace if i is not None]
    assert incumbents, "no incumbent found"
    assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))

    final_gap = trace[-1][3]
    assert final_gap is not None and final_gap <= 1e-6, "gap should close on cmp8"

    xs = [t for t, _, _, _ in trace]
    save_result(
        "fig10_convergence",
        table.render()
        + "\n\nbound vs time:\n"
        + text_series(xs, bounds),
    )
    benchmark.extra_info["events"] = len(trace)
    benchmark.extra_info["final_gap"] = final_gap


def test_fig10_truncated_trace(benchmark, save_result):
    """A larger instance shows the still-open gap (paper's long tail)."""
    table, trace = benchmark.pedantic(
        lambda: fig10_convergence(circuit="rca8", gamma=0.5, time_limit=15.0),
        rounds=1,
        iterations=1,
    )
    save_result("fig10_convergence_rca8", table.render())
    assert trace
    final_gap = trace[-1][3]
    assert final_gap is not None and final_gap >= 0
    benchmark.extra_info["final_gap"] = final_gap
