"""Per-layer figures for the traced run, taken from outside the program.

:class:`LayerProbe` wraps the public functions each pipeline stage is
entered through (the module attributes the product path looks up at
call time), records a span around every call, and reads the program's
own process-wide counters before and after.  Nothing inside ``src`` is
changed: the wrappers are installed for the traced region only and the
originals are restored afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager

from common import Tracer, patched

#: Every per-layer metric the traced run reports, with its unit.  A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER = {
    "io.parse_s": "s",
    "bdd.build_s": "s",
    "bdd.sbdd_nodes": "count",
    "bdd.op_cache_hit_rate": "ratio",
    "core.preprocess_s": "s",
    "core.graph_nodes": "count",
    "core.label_s": "s",
    "graphs.oct_cores": "count",
    "graphs.vc_kernel_milps": "count",
    "graphs.vc_kernel_splits": "count",
    "core.optimal_share": "ratio",
    "core.planes_s": "s",
    "core.plane_milp_components": "count",
    "core.map_s": "s",
    "crossbar.validate_s": "s",
    "crossbar.validate_assignments": "count",
    "crossbar.serialize_s": "s",
    "service.protocol_s": "s",
    "service.key_s": "s",
    "service.cache_get_s": "s",
    "service.cache_hit_rate": "ratio",
    "service.key_memo_hits": "count",
    "service.batch_coalesced": "count",
    "service.dedup_hits": "count",
    "service.execute_synth_s": "s",
    "service.execute_validate_s": "s",
    "service.execute_map_s": "s",
    "service.open_p50_ms": "ms",
    "service.open_tail_ms": "ms",
    "service.cached_p50_ms": "ms",
    "service.fresh_p50_ms": "ms",
    "service.jobs_rejected": "count",
    "service.generator_late_ms": "ms",
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.overhead_share": "ratio",
}

#: Program counters (``repro.perf.counters``) reported as layer counts.
_COUNTERS = {
    "oct_cores": "graphs.oct_cores",
    "vc_kernel_milps": "graphs.vc_kernel_milps",
    "vc_kernel_splits": "graphs.vc_kernel_splits",
    "plane_milp_components": "core.plane_milp_components",
    "validate_assignments": "crossbar.validate_assignments",
}


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def emit_layers(outcome, values: dict[str, float]) -> None:
    for name, unit in PER_LAYER.items():
        outcome.metric(name, values[name], unit)


class LayerProbe:
    """Spans and counts for the synthesis layers over one traced region."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer or Tracer()
        self.sbdd_nodes = 0
        self.graph_nodes = 0
        self.op_hits = 0
        self.op_lookups = 0
        self.counters: dict[str, int] = {}

    def _patches(self) -> list:
        import repro.core.compact as compact
        import repro.crossbar as crossbar
        import repro.io as io

        wrap = self.tracer.wrap
        probe = self
        real_build, real_preprocess = compact.build_sbdd, compact.preprocess

        def build_sbdd(*args, **kwargs):
            sbdd = real_build(*args, **kwargs)
            stats = sbdd.manager.cache_stats()
            probe.sbdd_nodes += sbdd.node_count()
            probe.op_hits += stats["hits"]
            probe.op_lookups += stats["hits"] + stats["misses"]
            return sbdd

        def preprocess(*args, **kwargs):
            graph = real_preprocess(*args, **kwargs)
            probe.graph_nodes += len(graph.graph)
            return graph

        return [
            (io, "read_verilog", wrap(io.read_verilog, "io.parse")),
            (io, "read_blif", wrap(io.read_blif, "io.parse")),
            (io, "read_pla", wrap(io.read_pla, "io.parse")),
            (compact, "build_sbdd", wrap(build_sbdd, "bdd.build")),
            (compact, "preprocess", wrap(preprocess, "core.preprocess")),
            (compact.Compact, "label", wrap(compact.Compact.label, "core.label")),
            (compact, "assign_planes", wrap(compact.assign_planes, "core.planes")),
            (compact, "map_to_crossbar", wrap(compact.map_to_crossbar, "core.map")),
            (compact, "map_to_crossbar3d", wrap(compact.map_to_crossbar3d, "core.map")),
            (crossbar, "validate_design", wrap(crossbar.validate_design, "crossbar.validate")),
            (crossbar, "validate_under_faults",
             wrap(crossbar.validate_under_faults, "crossbar.validate")),
            (crossbar, "design_to_json", wrap(crossbar.design_to_json, "crossbar.serialize")),
        ]

    @contextmanager
    def active(self):
        from repro.perf import counters

        before = counters.snapshot()
        with patched(self._patches()):
            yield self
        after = counters.snapshot()
        for name in _COUNTERS:
            self.counters[name] = self.counters.get(name, 0) + after.get(name, 0) - before.get(name, 0)

    def layers(self) -> dict[str, float]:
        """The synthesis-layer part of :data:`PER_LAYER` (self times)."""
        times = self.tracer.self_times()
        out = {
            "io.parse_s": times.get("io.parse", 0.0),
            "bdd.build_s": times.get("bdd.build", 0.0),
            "bdd.sbdd_nodes": self.sbdd_nodes,
            "bdd.op_cache_hit_rate": self.op_hits / self.op_lookups if self.op_lookups else 0.0,
            "core.preprocess_s": times.get("core.preprocess", 0.0),
            "core.graph_nodes": self.graph_nodes,
            "core.label_s": times.get("core.label", 0.0),
            "core.planes_s": times.get("core.planes", 0.0),
            "core.map_s": times.get("core.map", 0.0),
            "crossbar.validate_s": times.get("crossbar.validate", 0.0),
            "crossbar.serialize_s": times.get("crossbar.serialize", 0.0),
        }
        for counter, metric in _COUNTERS.items():
            out[metric] = self.counters.get(counter, 0)
        return out
