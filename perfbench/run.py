"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synth-suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (and the tracing overhead).  Human-readable detail goes to
stdout first; the last line is the JSON result.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from common import (REFERENCE_WORK_S, ProgramMissing, load_spec, remove_run_dir,
                    require_program, result_line)

WORKLOADS = ("synth-suite", "service-mix", "cli-cold")


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    if name == "synth-suite":
        import synth_suite as workload
    elif name == "service-mix":
        import service_mix as workload
    else:
        import cli_cold as workload
    return workload.run(seed, seconds, trace, quick)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="COMPACT end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few small inputs per workload, for testing the benchmark itself")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        require_program()
        spec = load_spec()
        expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.quick)
        line = result_line(outcome, expected)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - a run that cannot finish prints no result
        traceback.print_exc()
        return 1
    finally:
        remove_run_dir()

    for note in outcome.notes:
        print(note)
    if outcome.host.samples:
        print(f"host speed: reference work median {outcome.host.median_s() * 1e3:.3f} ms over "
              f"{len(outcome.host.samples)} samples (reference {REFERENCE_WORK_S * 1e3:g} ms)")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for name in expected:
        metric = outcome.metrics[name]
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(line, flush=True)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
