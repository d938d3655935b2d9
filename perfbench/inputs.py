"""Workload inputs: which circuits each workload runs, built from a seed.

The program only ever sees what this module generates: circuit text in
one of its three input formats, wrapped in the same request parameters
``repro synth FILE`` sends to :func:`repro.service.jobs.execute`.

Run as a script it is the set-up step of ``synth-suite`` and
``cli-cold``, timed by the benchmark in a fresh interpreter::

    python perfbench/inputs.py synth-suite --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, SETUP_REPEATS, HostSpeed, require_program, run_dir, run_measured

#: Product defaults, as ``repro synth`` sends them.
GAMMA = 0.5
SYNTH_KNOBS = {
    "method": "auto",
    "backend": "highs",
    "time_limit": 60.0,
    "solver_jobs": 1,
    "validate": True,
    "plane_method": "auto",
}

#: Fast-tier suite circuits left out of ``synth-suite``.  On the static
#: variable order the product path uses, their labeling runs into the
#: wall-clock budget, so their time and S measure the budget and the
#: machine's load rather than the program.  They come back once budgets
#: are deterministic.
EXCLUDED = {
    "cavlc_like": "38 s against a 20 s budget, optimal: false",
    "int2float": "22 s against a 20 s budget, optimal: false",
}
LAYER_COUNTS = (1, 3)
#: ``--quick``: the smallest suite circuits only.
QUICK_CIRCUITS = ("c17", "voter9", "alu4")

#: ``cli-cold``: the three example files (one per reader) plus small
#: suite circuits written out in set-up.
CLI_EXAMPLES = ("c17.v", "maj3.pla", "parity4.blif")
CLI_SUITE = (("voter9", "verilog"), ("alu4", "blif"), ("i2c_like", "verilog"))
_SUFFIX = {"verilog": ".v", "blif": ".blif", "pla": ".pla"}


def synth_params(fmt: str, text: str, source: str, layers: int = 1, gamma: float = GAMMA) -> dict:
    return {
        "circuit": {"format": fmt, "text": text, "source": source},
        "gamma": gamma,
        "layers": layers,
        **SYNTH_KNOBS,
    }


def suite_names() -> list[str]:
    from repro.bench.suites import suite

    return [entry.name for entry in suite("fast") if entry.name not in EXCLUDED]


def write_circuit(name: str, fmt: str) -> str:
    from repro.bench.suites import circuit
    from repro.io import write_blif, write_pla, write_verilog

    writer = {"verilog": write_verilog, "blif": write_blif, "pla": write_pla}[fmt]
    return writer(circuit(name))


def synth_suite_jobs(seed: int, quick: bool = False) -> list[dict]:
    """Every (circuit, K) job as Verilog text, in the seed's order."""
    names = QUICK_CIRCUITS if quick else suite_names()
    jobs = [
        {"circuit": name, "layers": layers, "text": write_circuit(name, "verilog")}
        for name in names
        for layers in LAYER_COUNTS
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def warm_up() -> None:
    """Synthesize c17 at every layer count, so lazy imports and first-call
    costs are paid before anything is timed."""
    from repro.service.jobs import execute

    text = write_circuit("c17", "verilog")
    for layers in LAYER_COUNTS:
        payload = execute("synth", synth_params("verilog", text, "c17.v", layers))
        if not payload.get("ok"):
            raise RuntimeError(f"warm-up synthesis failed: {payload.get('error')}")


def cli_files(out: Path, quick: bool = False) -> list[dict]:
    """The ``cli-cold`` file set; its suite part is written into ``out``."""
    files = [{"name": Path(name).stem, "path": f"examples/circuits/{name}"} for name in CLI_EXAMPLES]
    for name, fmt in () if quick else CLI_SUITE:
        path = out / f"{name}{_SUFFIX[fmt]}"
        path.write_text(write_circuit(name, fmt))
        files.append({"name": name, "path": str(path.relative_to(ROOT))})
    return files


def prepare(workload: str, seed: int, quick: bool,
            host: HostSpeed) -> tuple[dict, list[tuple[float, float]]]:
    """Build a workload's inputs in a fresh interpreter, ``SETUP_REPEATS`` times.

    Each repetition imports the program, generates the circuits and, for
    ``synth-suite``, runs :func:`warm_up`: what a process does before its
    first timed job.  Returns the inputs and ``(start, seconds)`` of each
    repetition; ``host`` is sampled before the first and after each.
    """
    out = run_dir()
    command = [sys.executable, str(Path(__file__).parent / "inputs.py"), workload,
               "--seed", str(seed), "--out", str(out)] + (["--quick"] if quick else [])
    spans = []
    host.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = run_measured(command, cwd=ROOT)
        if done.returncode != 0:
            raise subprocess.SubprocessError(f"set-up failed: {done.stderr.strip()[-500:]}")
        spans.append((start, done.wall_s))
        host.sample()
    return json.loads((out / "inputs.json").read_text()), spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["synth-suite", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    require_program()
    if args.workload == "synth-suite":
        warm_up()
        payload = {"jobs": synth_suite_jobs(args.seed, args.quick)}
    else:
        payload = {"files": cli_files(args.out, args.quick)}
    (args.out / "inputs.json").write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
