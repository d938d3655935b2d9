"""Shared pieces of the benchmark: paths, statistics, spans and results.

Nothing here imports the program under test; the workload modules do
that after :func:`require_program` has confirmed the source tree is
present in the checkout the benchmark runs from.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run (inputs, sockets, CLI outputs), inside the
#: checkout and removed when the run ends.
RUN_ROOT = ROOT / ".perfbench-run"

#: Percentiles tried for a latency tail, highest first.  The tail is the
#: highest one that still has at least ``TAIL_MIN_BEYOND`` samples above
#: it, so it is never a single outlier.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Median time of one :func:`reference_work` on the host the bounds were
#: set on (a shared 2-CPU Linux VM, Python 3.11).  Timed end-to-end
#: metrics are reported at this host speed; see :class:`HostSpeed`.
REFERENCE_WORK_S = 0.0125
#: An operation's time is rescaled by the median of this many samples
#: of the host speed, the ones taken nearest to it.
NEAREST_SAMPLES = 5
#: A host-speed sample times the reference work on at most this many CPUs.
MAX_PINNED_CPUS = 4


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import ``repro`` from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ProgramMissing(f"repro was imported from {repro.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_dir() -> Path:
    path = RUN_ROOT / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_run_dir() -> None:
    shutil.rmtree(RUN_ROOT / str(os.getpid()), ignore_errors=True)
    try:
        RUN_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it, or it never existed


# -- statistics ---------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(n: int, p: float) -> int:
    """Samples strictly above the ``p``-th percentile rank of ``n`` samples."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, samples_beyond)`` for the highest supported tail.

    The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it.  With fewer than
    ``4 * TAIL_MIN_BEYOND + 1`` samples no tail percentile is supported
    and the median stands in for it (``percentile`` is then 50).
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p, percentile(values, p), beyond(n, p)
    return 50.0, percentile(values, 50.0), beyond(n, 50.0)


def windowed_tail(values, window: int) -> tuple[float, float, int]:
    """:func:`tail` of each run of ``window`` consecutive samples, medianed.

    One stall on a shared machine lands in one window, so the median over
    windows follows the typical tail rather than the worst moment.
    Returns ``(percentile, median value, samples beyond in each window)``;
    a remainder shorter than ``window`` joins the last window.
    """
    count = max(1, len(values) // window)
    bounds = [i * window for i in range(count)] + [len(values)]
    tails = [tail(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return min(t[0] for t in tails), median([t[1] for t in tails]), min(t[2] for t in tails)


# -- host speed ---------------------------------------------------------------------


def reference_work() -> None:
    """A fixed pure-Python computation whose time follows the host's speed."""
    table: dict[int, int] = {}
    for i in range(100_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i


def _timed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


@dataclass
class HostSpeed:
    """How fast the host ran :func:`reference_work` while a run went on.

    On a shared host the same code runs a third slower for seconds to
    minutes at a time while other tenants are busy, which moves every
    wall time by as much.  The workloads time the reference work between
    their measured operations, never inside them and only while the
    program is idle, and rescale each operation's time by the host speed
    around it (:meth:`scale`), so the timed end-to-end metrics read as
    at the reference speed.  The program's own speed still moves them one
    for one.
    """

    #: Time the reference work on every CPU, for a workload whose
    #: processes use all of them at once; see :meth:`sample`.
    per_cpu: bool = False
    #: ``(when, seconds)`` of each timing of the reference work.
    samples: list[tuple[float, float]] = field(default_factory=list)

    def sample(self) -> None:
        """Time the reference work where this process runs, or on each CPU.

        The host's CPUs slow down one at a time (a neighbour's work on a
        sibling hyperthread slows only that one).  Work that runs one
        process at a time is timed against the CPU the benchmark is on;
        with :attr:`per_cpu` the sample is the mean over the CPUs the run
        may use, pinned to each in turn, in an order that alternates so
        the work that follows does not always start on the same CPU.
        """
        start = time.perf_counter()
        if not self.per_cpu:
            self.samples.append((start, _timed(reference_work)))
            return
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)[:MAX_PINNED_CPUS]
        if len(self.samples) % 2:
            cpus.reverse()
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(_timed(reference_work))
        except OSError:  # pinning not permitted: time it wherever it runs
            times = [_timed(reference_work)]
        finally:
            os.sched_setaffinity(0, allowed)
        self.samples.append((start, sum(times) / len(times)))

    def scale(self, start: float, end: float) -> float:
        """Reference time over the median of the samples nearest the interval."""
        middle = (start + end) / 2.0
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:NEAREST_SAMPLES]
        return REFERENCE_WORK_S / median([seconds for _, seconds in nearest])

    def scaled(self, seconds: float, start: float) -> float:
        """``seconds`` of an operation that began at ``start``, at the reference speed."""
        return seconds * self.scale(start, start + seconds)

    def median_s(self) -> float:
        return median([seconds for _, seconds in self.samples])


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-th percentile.

    A weighted mean of all order statistics, the weights peaking at the
    percentile's rank.  Over a small, uneven set (the ``synth-suite``
    jobs) a plain percentile is one or two samples and follows their
    noise; this estimate spreads over the samples near that rank.
    """
    from scipy.special import betainc

    data = sorted(values)
    n = len(data)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(data, cdf, cdf[1:]))


# -- spans --------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Spans nest: a span opened while another is open records it as its
    parent, and :meth:`self_times` subtracts the children, so a layer's
    figure is the time spent in that layer alone.
    """

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, func, name: str):
        """``func`` wrapped so each call records a span called ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def inclusive_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        return totals

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - children
        return totals


@contextmanager
def patched(patches):
    """Temporarily replace attributes: ``patches`` is ``[(owner, attr, value)]``."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- subprocesses -------------------------------------------------------------------


@dataclass
class Finished:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_measured(cmd: list[str], cwd: Path, timeout_s: float = 120.0) -> Finished:
    """Run ``cmd`` to completion; wall time and peak RSS of it and its children."""
    out_path = run_dir() / "child.out"
    err_path = run_dir() / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        deadline = start + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        returncode=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


# -- results ------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports: counts, metrics and human-readable notes."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def timed_metric(self, name: str, scaled: float, measured: float, unit: str) -> None:
        """A time at the reference host speed; the note keeps it as measured."""
        self.metric(name, scaled, unit)
        self.notes.append(f"{name}: {measured:.6g} {unit} as measured")


def result_line(outcome: Outcome, expected: list[str]) -> str:
    missing = [name for name in expected if name not in outcome.metrics]
    extra = [name for name in outcome.metrics if name not in expected]
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    correct = outcome.failed == 0 and outcome.attempted >= 1
    return json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: outcome.metrics[name] for name in expected},
    })


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
