"""Figure 11: relative gap at time-out for instances the solver cannot
close within the budget (the paper reports the same for c499, c1355,
arbiter after three hours of CPLEX)."""

from repro.bench import fig11_gaps


def test_fig11(benchmark, save_result):
    table, gaps = benchmark.pedantic(
        lambda: fig11_gaps(
            circuits=("voter9", "mux16", "cmp8", "alu4", "i2c_like", "rca8", "mult4"),
            time_limit=8.0,
        ),
        rounds=1,
        iterations=1,
    )
    save_result("fig11_gaps", table.render())
    assert len(gaps) == 7
    for name, gap in gaps.items():
        assert gap == gap and gap >= 0, name  # reported, non-NaN
    # At this budget some instances must remain open — that is the figure.
    # voter9, mux16, cmp8 and i2c_like close; rca8 stays well open.
    assert any(gap > 0.01 for gap in gaps.values())
    benchmark.extra_info["gaps"] = {k: round(v, 4) for k, v in gaps.items()}
