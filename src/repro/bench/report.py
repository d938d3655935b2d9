"""Collate benchmark artifacts into one summary document.

The experiment benches write one text table per table/figure into
``benchmarks/results/``; :func:`generate_summary` stitches them into a
single markdown report (written as ``SUMMARY.md`` by the bench run) so
a reproduction run leaves one reviewable artifact.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["generate_summary"]

#: Preferred presentation order; anything else is appended alphabetically.
_ORDER = [
    "table1_properties",
    "table2_gamma",
    "table3_sbdd_vs_robdds",
    "table4_vs_prior",
    "fig9_pareto",
    "fig10_convergence",
    "fig10_convergence_rca8",
    "fig11_gaps",
    "fig12_power_delay",
    "fig13_vs_magic",
    "paradigm_comparison",
    "streaming_amortization",
    "ablation_alignment",
    "ablation_ordering",
    "ablation_kernelization",
    "ablation_heuristic",
    "ablation_fbdd",
]


def generate_summary(results_dir: str | Path, title: str = "COMPACT reproduction — experiment summary") -> str:
    """Concatenate all ``*.txt`` artifacts in ``results_dir`` to markdown."""
    results = Path(results_dir)
    available = {p.stem: p for p in sorted(results.glob("*.txt"))}
    ordered = [name for name in _ORDER if name in available]
    ordered += [name for name in sorted(available) if name not in ordered]

    lines = [f"# {title}", ""]
    if not ordered:
        lines.append("(no artifacts found — run `pytest benchmarks/ --benchmark-only`)")
    for name in ordered:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(available[name].read_text().rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines) + "\n"
