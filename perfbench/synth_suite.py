"""``synth-suite``: the fast-tier suite through ``repro.service.jobs.execute``.

One job at a time, in process, at product defaults (gamma 0.5,
``method=auto``, one solver thread), each circuit at K=1 and again at
K=3.  Labeling takes most of the time here and the layered plane
assignment is exercised; the service front and import cost are absent.
The seed sets the job order.
"""

from __future__ import annotations

import resource
import time

from checks import cost, synth_problem
from common import HostSpeed, Outcome, harrell_davis, median, tail
from inputs import GAMMA, prepare, synth_params, warm_up
from layers import LayerProbe, emit_layers, empty_layers


def run_pass(jobs: list[dict], host: HostSpeed | None = None):
    """One pass over every job: ``(per-job seconds, per-job starts, payloads)``.

    With ``host``, the host speed is sampled after each job.
    """
    from repro.service.jobs import execute

    times, starts, payloads = [], [], []
    for job in jobs:
        params = synth_params("verilog", job["text"], f"{job['circuit']}.v", job["layers"])
        t0 = time.perf_counter()
        payloads.append(execute("synth", params))
        times.append(time.perf_counter() - t0)
        starts.append(t0)
        if host is not None:
            host.sample()
    return times, starts, payloads


def check_pass(jobs, payloads, reference, outcome: Outcome) -> None:
    """Count every job; the first pass is checked in full, later ones against it."""
    from repro.bench.suites import circuit

    for job, payload in zip(jobs, payloads):
        key = (job["circuit"], job["layers"])
        if key not in reference:
            problem = synth_problem(payload, circuit(job["circuit"]), job["layers"])
            reference[key] = payload
            outcome.record(problem is None, problem or "")
        else:
            same = payload.get("ok") and (
                payload["result"]["design_json"] == reference[key]["result"]["design_json"]
            )
            outcome.record(bool(same), f"{key}: design differs from the first pass")


def job_rows(jobs, times_by_pass, reference) -> list[str]:
    rows = []
    for index, job in enumerate(jobs):
        key = (job["circuit"], job["layers"])
        metrics = reference[key]["result"]["metrics"] if reference[key].get("ok") else {}
        seconds = median([times[index] for times in times_by_pass])
        rows.append(
            f"job {job['circuit']:<11} K={job['layers']} S={metrics.get('semiperimeter')} "
            f"D={metrics.get('max_dimension')} time={seconds:.3f}s"
        )
    return rows


def run(seed: int, seconds: float, trace: bool, quick: bool = False) -> Outcome:
    outcome = Outcome()
    inputs, setup_spans = prepare("synth-suite", seed, quick, outcome.host)
    jobs = inputs["jobs"]
    reference: dict = {}
    warm_up()

    if trace:
        times, _, payloads = run_pass(jobs)
        check_pass(jobs, payloads, reference, outcome)
        probe = LayerProbe()
        with probe.active():
            traced_times, _, traced = run_pass(jobs)
        check_pass(jobs, traced, reference, outcome)
        wall, traced_wall = sum(times), sum(traced_times)
        layers = empty_layers()
        layers.update(probe.layers())
        layers["core.optimal_share"] = sum(
            bool(p.get("ok") and p["result"]["optimal"]) for p in traced
        ) / len(traced)
        layers["trace.overhead_share"] = traced_wall / wall - 1.0
        emit_layers(outcome, layers)
        outcome.notes.append(f"untraced pass {wall:.3f}s, traced pass {traced_wall:.3f}s")
        return outcome

    host = outcome.host
    times_by_pass, starts_by_pass = [], []
    host.sample()
    start = time.perf_counter()
    while not times_by_pass or time.perf_counter() - start < seconds:
        times, starts, payloads = run_pass(jobs, host)
        times_by_pass.append(times)
        starts_by_pass.append(starts)
        check_pass(jobs, payloads, reference, outcome)
    scaled_by_pass = [[host.scaled(t, s) for t, s in zip(times, starts)]
                      for times, starts in zip(times_by_pass, starts_by_pass)]

    def figures(by_pass):
        """``(pass wall, p50, tail percentile, tail, beyond)`` of per-job times."""
        # The jobs are a fixed, uneven set: the median is taken over each
        # job's median time, so it cannot jump between two jobs' copies.
        # Both percentiles are Harrell-Davis estimates, so they follow the
        # jobs near their rank rather than the one or two at it.
        job_times = [median(times) for times in zip(*by_pass)]
        all_times = [t for times in by_pass for t in times]
        p, _, beyond = tail(all_times)
        return (median([sum(times) for times in by_pass]), harrell_davis(job_times, 50.0),
                p, harrell_davis(all_times, p), beyond)

    wall, p50, p, value, beyond = figures(scaled_by_pass)
    wall_m, p50_m, _, value_m, _ = figures(times_by_pass)
    all_times = [t for times in times_by_pass for t in times]
    outcome.timed_metric("setup_s", median([host.scaled(w, s) for s, w in setup_spans]),
                         median([w for _, w in setup_spans]), "s")
    outcome.metric("success_rate", (outcome.attempted - outcome.failed) / outcome.attempted, "ratio")
    outcome.timed_metric("pass_wall_s", wall, wall_m, "s")
    outcome.timed_metric("op_p50_ms", p50 * 1000.0, p50_m * 1000.0, "ms")
    outcome.timed_metric("op_tail_ms", value * 1000.0, value_m * 1000.0, "ms")
    outcome.metric("design_cost", sum(
        cost(payload["result"], GAMMA) for payload in reference.values() if payload.get("ok")
    ), "cost")
    outcome.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    outcome.notes.extend(job_rows(jobs, times_by_pass, reference))
    outcome.notes.append(
        f"{len(times_by_pass)} passes of {len(jobs)} jobs; tail is p{p:g} of {len(all_times)} "
        f"job times ({beyond} beyond)"
    )
    return outcome
