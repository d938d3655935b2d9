"""``cli-cold``: sequential ``python -m repro synth FILE --json OUT`` processes.

The only workload that pays interpreter start and the program's import
on every operation.  The files cover all three readers: the example
Verilog, PLA and BLIF circuits plus small suite circuits written out in
set-up.  A pass runs every file once, in the seed's order.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from checks import cost, design_problem
from common import ROOT, Finished, Outcome, Tracer, median, run_dir, run_measured, tail
from inputs import GAMMA, prepare, synth_params, warm_up
from layers import LayerProbe, emit_layers, empty_layers

_FORMATS = {".v": "verilog", ".blif": "blif", ".pla": "pla"}


def invoke(file: dict, extra: list[str] = ()) -> tuple[Finished, str | None]:
    """One cold ``repro synth``; ``(process, written design JSON or None)``."""
    out = run_dir() / f"{file['name']}.json"
    out.unlink(missing_ok=True)
    done = run_measured(
        [sys.executable, *extra, "-m", "repro", "synth", file["path"], "--json", str(out)],
        cwd=ROOT,
    )
    return done, out.read_text() if out.exists() else None


def synth_request(file: dict) -> dict:
    """The ``synth`` params ``repro synth FILE`` sends to ``jobs.execute``."""
    path = file["path"]
    return synth_params(_FORMATS[Path(path).suffix], (ROOT / path).read_text(), path)


def check(file: dict, done: Finished, design_json: str | None, outcome: Outcome,
          reference: dict) -> None:
    """Exit code 0, and the written JSON re-validates against the source file."""
    import repro.io

    name = file["name"]
    if done.returncode != 0 or design_json is None:
        outcome.record(False, f"{name}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return
    if name in reference:
        outcome.record(design_json == reference[name], f"{name}: design differs between runs")
        return
    circuit = synth_request(file)["circuit"]
    reader = getattr(repro.io, f"read_{circuit['format']}")
    problem = design_problem(design_json, reader(circuit["text"], source=circuit["source"]))
    reference[name] = design_json
    outcome.record(problem is None, problem or "")


def import_times(stderr: str) -> tuple[float, float]:
    """``(repro, scipy)`` cumulative import seconds from ``-X importtime`` output."""
    return _outermost(stderr, "repro"), _outermost(stderr, "scipy")


def _outermost(stderr: str, package: str) -> float:
    """Cumulative seconds of the outermost imports of ``package``.

    Summing only outermost entries counts a module imported inside
    another of the same package once.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    # importtime prints a module after everything it imported, one
    # indentation step deeper per nesting level.  Walk backwards so a
    # parent is seen before its children.
    total_us = 0
    covered_depth = None
    for depth, module, cumulative_us in reversed(entries):
        if covered_depth is not None and depth > covered_depth:
            continue
        covered_depth = None
        if module == package or module.startswith(package + "."):
            total_us += cumulative_us
            covered_depth = depth
    return total_us / 1e6


def run(seed: int, seconds: float, trace: bool, quick: bool = False) -> Outcome:
    outcome = Outcome()
    inputs, setup_spans = prepare("cli-cold", seed, quick, outcome.host)
    files = inputs["files"]
    rng = random.Random(seed)
    reference: dict = {}

    if trace:
        return _traced(files, rng, outcome, reference)

    host = outcome.host
    passes, rss = [], []  # passes: one [(start, seconds)] per pass
    host.sample()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        spans = []
        for file in rng.sample(files, len(files)):
            began = time.perf_counter()
            done, design_json = invoke(file)
            host.sample()
            check(file, done, design_json, outcome, reference)
            spans.append((began, done.wall_s))
            rss.append(done.maxrss_mb)
        passes.append(spans)
    scaled = [[host.scaled(wall, began) for began, wall in spans] for spans in passes]
    measured = [[wall for _, wall in spans] for spans in passes]
    invocations = [wall for walls in scaled for wall in walls]
    p, value, beyond = tail(invocations)
    _, value_m, _ = tail([wall for walls in measured for wall in walls])
    designs = [json.loads(text) for text in reference.values()]
    outcome.timed_metric("setup_s", median([host.scaled(w, s) for s, w in setup_spans]),
                         median([w for _, w in setup_spans]), "s")
    outcome.metric("success_rate", (outcome.attempted - outcome.failed) / outcome.attempted, "ratio")
    outcome.timed_metric("pass_wall_s", median([sum(walls) for walls in scaled]),
                         median([sum(walls) for walls in measured]), "s")
    outcome.timed_metric("op_p50_ms", median(invocations) * 1000.0,
                         median([wall for walls in measured for wall in walls]) * 1000.0, "ms")
    outcome.timed_metric("op_tail_ms", value * 1000.0, value_m * 1000.0, "ms")
    outcome.metric("design_cost", sum(_design_cost(d) for d in designs), "cost")
    outcome.metric("peak_rss_mb", max(rss), "MB")
    outcome.notes.append(
        f"{len(passes)} passes of {len(files)} cold invocations; tail is p{p:g} of "
        f"{len(invocations)} ({beyond} beyond)"
    )
    return outcome


def _design_cost(design: dict) -> float:
    from repro.crossbar import design_from_json, measure

    metrics = measure(design_from_json(json.dumps(design))).as_dict()
    return cost({"metrics": metrics}, GAMMA)


def _traced(files, rng, outcome: Outcome, reference: dict) -> Outcome:
    from repro.service.jobs import execute

    order = rng.sample(files, len(files))
    plain = 0.0
    for file in order:
        done, design_json = invoke(file)
        check(file, done, design_json, outcome, reference)
        plain += done.wall_s

    traced, imports, scipy_imports = 0.0, [], []
    for file in order:
        done, design_json = invoke(file, ["-X", "importtime"])
        check(file, done, design_json, outcome, reference)
        traced += done.wall_s
        repro_s, scipy_s = import_times(done.stderr)
        imports.append(repro_s)
        scipy_imports.append(scipy_s)

    starts = [run_measured([sys.executable, "-c", "pass"], cwd=ROOT).wall_s for _ in range(5)]

    warm_up()  # keep lazy imports out of the traced layers
    probe = LayerProbe(Tracer())
    optimal = 0
    with probe.active():
        for file in order:
            payload = execute("synth", synth_request(file))
            optimal += bool(payload.get("ok") and payload["result"]["optimal"])
            same = payload.get("ok") and payload["result"]["design_json"] == reference.get(file["name"])
            outcome.record(bool(same), f"{file['name']}: in-process design differs from the CLI's")

    layers = empty_layers()
    layers.update(probe.layers())
    layers.update({
        "core.optimal_share": optimal / len(order),
        "cli.python_start_s": median(starts),
        "cli.import_s": median(imports),
        "cli.import_scipy_s": median(scipy_imports),
        "trace.overhead_share": traced / plain - 1.0,
    })
    emit_layers(outcome, layers)
    outcome.notes.append(f"plain pass {plain:.3f}s, -X importtime pass {traced:.3f}s")
    return outcome
