"""Output checks shared by the workloads.

A synthesized design counts as correct only when it computes the same
function as the netlist's own gate-level evaluation and the static
checker (``repro.check.check_design``) reports nothing above INFO, which
covers the semiperimeter lower-bound certificate (L001 planar, L003
layered).  A planar job that returns ``optimal: false`` ran out of a
wall-clock budget, so its design depends on machine load: it fails too.
"""

from __future__ import annotations

import json


def design_problem(design_json: str, netlist) -> str | None:
    """Why ``design_json`` is not a correct implementation of ``netlist``, or None."""
    from repro.check import check_design
    from repro.check.diagnostics import Severity
    from repro.crossbar import design_from_json, validate_design

    design = design_from_json(design_json)
    report = validate_design(design, netlist.evaluate, netlist.inputs)
    if not report.ok:
        return f"{design.name}: differs from the netlist at {report.counterexample}"
    findings = [d for d in check_design(design) if d.severity is not Severity.INFO]
    if findings:
        return f"{design.name}: {findings[0].code} {findings[0].message}"
    return None


def synth_problem(payload: dict, netlist, layers: int) -> str | None:
    """Check one ``synth`` payload (``{"ok": ..., "result": ...}``)."""
    if not payload.get("ok"):
        return f"synth failed: {payload.get('error')}"
    result = payload["result"]
    validation = result.get("validation")
    if not validation or not validation.get("ok"):
        return f"{result.get('design_name')}: the program's own validation failed"
    if layers == 1 and not result.get("optimal"):
        return f"{result.get('design_name')}: optimal: false (a budget ran out)"
    return design_problem(result["design_json"], netlist)


def cost(result: dict, gamma: float) -> float:
    """The objective the labeling minimizes: gamma*S + (1-gamma)*D."""
    metrics = result["metrics"]
    return gamma * metrics["semiperimeter"] + (1.0 - gamma) * metrics["max_dimension"]


def normalized(value):
    """``value`` as it reads after a trip over the wire (JSON round trip)."""
    return json.loads(json.dumps(value, sort_keys=True))
