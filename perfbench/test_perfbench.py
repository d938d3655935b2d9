"""Tests for the benchmark's own code.

Run from the root of a checkout::

    python -m pytest perfbench/test_perfbench.py

The quick-mode tests start real processes (a server, cold CLI runs) and
take about a minute together.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    NEAREST_SAMPLES,
    REFERENCE_WORK_S,
    ROOT,
    RUN_ROOT,
    HostSpeed,
    Tracer,
    beyond,
    harrell_davis,
    median,
    percentile,
    remove_run_dir,
    require_program,
    tail,
    windowed_tail,
)

require_program()

import cli_cold  # noqa: E402
import inputs  # noqa: E402
import service_mix  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


# -- statistics ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 10, 37, 100, 2000])
def test_percentile_matches_statistics_inclusive(n):
    values = [((i * 7919) % 1009) / 7.0 for i in range(n)]
    assert median(values) == pytest.approx(statistics.median(values))
    if n >= 2:
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        assert percentile(values, 25) == pytest.approx(quartiles[0])
        assert percentile(values, 75) == pytest.approx(quartiles[2])


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n,p,expected", [
    (2000, 99.0, 20), (2000, 99.9, 2), (100, 90.0, 10), (100, 95.0, 5), (56, 75.0, 14),
    (28, 50.0, 14), (1, 50.0, 0),
])
def test_samples_beyond_a_percentile(n, p, expected):
    values = list(range(n))
    assert beyond(n, p) == expected
    assert sum(v > percentile(values, p) for v in values) == expected


@pytest.mark.parametrize("n,p", [(2000, 99.0), (1000, 99.0), (999, 99.0), (900, 95.0), (200, 95.0),
                                 (100, 90.0), (56, 75.0), (40, 75.0)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, p):
    values = [float(i) for i in range(n)]
    got_p, value, got_beyond = tail(values)
    assert got_p == p
    assert value == percentile(values, p)
    assert got_beyond >= 10


def test_tail_falls_back_to_the_median_on_small_samples():
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert tail(values) == (50.0, 3.0, 2)


def test_windowed_tail_is_the_median_of_window_tails():
    quiet = [1.0] * 990 + [2.0] * 10
    stalled = [1.0] * 900 + [50.0] * 100
    values = quiet + quiet + stalled + [1.0] * 500
    p, value, each = windowed_tail(values, 1000)
    # Windows: quiet, quiet, stalled + the 500-sample remainder.
    assert p == 99.0 and each == 10
    assert value == percentile(quiet, 99.0)


def test_host_speed_rescales_by_the_samples_nearest_in_time():
    slow, fast = 2 * REFERENCE_WORK_S, REFERENCE_WORK_S / 2
    host = HostSpeed(samples=[(float(t), slow) for t in range(NEAREST_SAMPLES)]
                     + [(float(t), fast) for t in range(100, 100 + NEAREST_SAMPLES)])
    assert host.scale(0.0, 1.0) == pytest.approx(0.5)
    assert host.scaled(3.0, 100.0) == pytest.approx(6.0)
    assert host.median_s() == pytest.approx((slow + fast) / 2)


def test_host_speed_samples_time_the_reference_work():
    host = HostSpeed()
    host.sample()
    (when, seconds), = host.samples
    assert seconds > 0 and host.scale(when, when) == pytest.approx(REFERENCE_WORK_S / seconds)


def test_per_cpu_host_samples_restore_the_affinity():
    import os

    before = os.sched_getaffinity(0)
    host = HostSpeed(per_cpu=True)
    host.sample()
    host.sample()
    assert os.sched_getaffinity(0) == before and len(host.samples) == 2


def test_harrell_davis_estimates():
    assert harrell_davis([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)
    assert harrell_davis([3.0, 1.0, 2.0], 50.0) == pytest.approx(2.0)
    assert harrell_davis([7.0], 75.0) == pytest.approx(7.0)
    squares = [float(i * i) for i in range(1, 30)]
    assert statistics.median(squares) < harrell_davis(squares, 50.0) < squares[16]
    evenly = [float(i) for i in range(1001)]
    assert harrell_davis(evenly, 75.0) == pytest.approx(percentile(evenly, 75.0), rel=1e-3)


# -- spans --------------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    times = tracer.self_times()
    assert times["inner"] == pytest.approx(inner.end - inner.start)
    assert times["outer"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


def test_wrap_records_one_span_per_call():
    tracer = Tracer()
    traced = tracer.wrap(lambda x: x + 1, "f")
    assert traced(1) == 2 and traced(2) == 3
    assert [s.name for s in tracer.spans] == ["f", "f"]


def test_layer_probe_times_the_pipeline_and_restores_it():
    import repro.core.compact as compact
    from layers import LayerProbe
    from repro.service.jobs import execute

    originals = (compact.build_sbdd, compact.Compact.label, compact.assign_planes)
    params = inputs.synth_params("verilog", inputs.write_circuit("c17", "verilog"), "c17.v", 3)
    plain = execute("synth", params)
    probe = LayerProbe()
    with probe.active():
        traced = execute("synth", params)
    assert (compact.build_sbdd, compact.Compact.label, compact.assign_planes) == originals
    assert traced["result"]["design_json"] == plain["result"]["design_json"]
    layers = probe.layers()
    for name in ("io.parse_s", "bdd.build_s", "core.label_s", "core.planes_s", "core.map_s",
                 "crossbar.validate_s", "crossbar.serialize_s"):
        assert layers[name] > 0, name
    assert layers["bdd.sbdd_nodes"] > 0 and layers["crossbar.validate_assignments"] > 0


# -- names --------------------------------------------------------------------------


def test_metric_names_use_the_allowed_characters():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert set(name) <= NAME_CHARS and len(name) <= 64 and name[0].isalnum(), name


def test_per_layer_table_matches_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_every_spec_workload_is_runnable():
    import run

    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


# -- inputs and schedules -------------------------------------------------------------


def test_synth_suite_jobs_depend_on_the_seed_only_through_their_order():
    a, b, c = (inputs.synth_suite_jobs(seed) for seed in (1, 1, 2))
    assert a == b
    assert a != c
    key = lambda job: (job["circuit"], job["layers"])  # noqa: E731
    assert sorted(map(key, a)) == sorted(map(key, c))
    names = {job["circuit"] for job in a}
    assert not names & set(inputs.EXCLUDED)
    assert len(a) == 2 * len(names) == 28


@pytest.fixture(scope="module")
def pool():
    """The warm pool's shape, synthesized in process instead of by a server."""
    from repro.service.jobs import execute

    out = {}
    for _, params in service_mix.pool_requests():
        name = params["circuit"]["source"].removesuffix(".v")
        result = execute("synth", params)["result"]
        validate = {"circuit": params["circuit"], "design_json": result["design_json"]}
        out[name] = {"synth": (params, json.loads(json.dumps(result))),
                     "validate": (validate, execute("validate", validate)["result"])}
    return out


def _fresh_content(entries):
    return sorted(
        (e["kind"], e["circuit"], e.get("gamma") or 0.0, json.dumps(e["params"], sort_keys=True))
        for e in entries if e["kind"] != "hit"
    )


def test_mix_is_identical_for_a_seed(pool):
    a = service_mix.build_mix(5, 1600, pool, service_mix.FreshWork())
    b = service_mix.build_mix(5, 1600, pool, service_mix.FreshWork())
    assert a == b
    assert service_mix.arrivals(5, 400, 200.0) == service_mix.arrivals(5, 400, 200.0)
    assert service_mix.arrivals(5, 400, 200.0) != service_mix.arrivals(6, 400, 200.0)


def test_every_seed_asks_for_the_same_fresh_work(pool):
    mixes = [service_mix.build_mix(seed, 1600, pool, service_mix.FreshWork()) for seed in (1, 2)]
    assert [e["kind"] for e in mixes[0]] != [e["kind"] for e in mixes[1]]
    assert _fresh_content(mixes[0]) == _fresh_content(mixes[1])
    counts = {kind: sum(e["kind"] == kind for e in mixes[0]) for kind in ("fresh_synth", "validate", "map")}
    assert counts == {"fresh_synth": 2, "validate": 16, "map": 8}


def test_successive_phases_never_repeat_a_fresh_request(pool):
    fresh = service_mix.FreshWork()
    phases = [service_mix.build_mix(seed, 1600, pool, fresh) for seed in (1, 2, 3)]
    fresh = [json.dumps(e["params"], sort_keys=True)
             for phase in phases for e in phase if e["kind"] != "hit"]
    assert len(fresh) == len(set(fresh))


def test_arrivals_average_the_offered_rate():
    due = service_mix.arrivals(3, 4000, 200.0)
    assert due == sorted(due)
    assert 4000 / due[-1] == pytest.approx(200.0, rel=0.05)


def test_import_times_count_outermost_entries_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:        20 |         30 |     numpy",
        "import time:        40 |         70 |   scipy.optimize",
        "import time:         5 |          5 |   scipy.sparse",
        "import time:        25 |        100 | repro.core",
        "import time:         1 |          1 | repro",
        "import time:         7 |          7 | scipy",
    ])
    repro_s, scipy_s = cli_cold.import_times(stderr)
    assert repro_s == pytest.approx(101e-6)
    assert scipy_s == pytest.approx(82e-6)


# -- quick mode: every workload end to end ----------------------------------------------


def _run(workload: str, trace: int) -> dict:
    # The traced service-mix open loop needs 4 s to reach its first fresh synth.
    seconds = "4" if workload == "service-mix" else "1"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_runs_every_workload(workload, trace):
    result = _run(workload, trace)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_checkout_without_the_program_fails_without_a_result():
    import shutil

    bare = RUN_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "synth-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        remove_run_dir()
    assert done.returncode != 0
    assert "correct" not in done.stdout
