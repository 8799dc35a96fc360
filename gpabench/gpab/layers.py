"""Per-layer wrappers around the public functions of each pipeline layer.

:class:`LayerTracer` replaces each layer's entry points with a wrapper
that records a span (or a rollup, for the hottest layers) into a
:class:`~gpab.spans.SpanRecorder` and counts the layer's work, and puts
every original back on :meth:`LayerTracer.uninstall`.  Functions imported
by name into other ``repro`` modules are replaced in each of those modules
too, so the wrapper sees every call whichever module makes it.

Nothing in the program is edited: the wrappers live here, and an untraced
run never installs them.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Dict, List, Optional, Tuple

from gpab.spans import SpanRecorder

#: Modules that import layer functions by name, imported before the
#: wrappers go in: a module first imported while they are installed would
#: keep a wrapper after they are removed.
PROGRAM_MODULES = (
    "repro.api.session",
    "repro.api.result",
    "repro.api.request",
    "repro.pipeline.stages",
    "repro.pipeline.cache",
    "repro.sampling.profiler",
    "repro.sampling.gpu",
    "repro.sampling.memory",
    "repro.sampling.trace",
    "repro.structure.program",
    "repro.blame.attribution",
    "repro.blame.graph",
    "repro.blame.pruning",
    "repro.optimizers.registry",
    "repro.advisor.dynamic_analyzer",
    "repro.service.client",
)

#: (module, class) of each SM simulator core; either may be absent.
SM_CORES = (
    ("repro.sampling.simulator", "SMSimulator"),
    ("repro.sampling.vector", "VectorSMSimulator"),
)

After = Optional[Callable[[SpanRecorder, object], None]]


def _import(name: str):
    __import__(name)
    return sys.modules[name]


# ----------------------------------------------------------------------
# Counters taken from each layer's return value
# ----------------------------------------------------------------------
def _after_trace(recorder: SpanRecorder, ops) -> None:
    recorder.count("trace.ops", len(ops))


def _after_sm(recorder: SpanRecorder, result) -> None:
    recorder.count("sm.sim_cycles", result.wave_cycles)
    memory = getattr(result, "memory", None)
    if memory is None:
        return
    recorder.count("memory.requests", memory.requests)
    recorder.count("memory.sectors", memory.sectors)
    recorder.count("memory.l1_hits", memory.l1_hits)
    recorder.count("memory.l1_misses", memory.l1_misses)
    recorder.count("memory.l2_hits", memory.l2_hits)
    recorder.count("memory.l2_misses", memory.l2_misses)
    recorder.count("memory.dram_sectors", memory.dram_sectors)


def _after_gpu(recorder: SpanRecorder, result) -> None:
    recorder.count("gpu.waves", len(result.waves))


def _after_prune(recorder: SpanRecorder, statistics) -> None:
    recorder.count("blame.edges", statistics.total_edges)
    recorder.count("blame.pruned_edges", statistics.removed_total)


def _after_match(recorder: SpanRecorder, advice) -> None:
    if advice.applicable:
        recorder.count("optimizers.applicable")


def _after_get(recorder: SpanRecorder, profile) -> None:
    if profile is not None:
        recorder.count("cache.hits")


def _after_put(recorder: SpanRecorder, path) -> None:
    recorder.count("cache.bytes_written", path.stat().st_size)


# ----------------------------------------------------------------------
def _wrap(fn: Callable, name: str, recorder: SpanRecorder, rollup: bool,
          after: After) -> Callable:
    clock = recorder.clock
    if rollup:
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return fn(*args, **kwargs)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.add_rollup(name, clock() - started)
            if after is not None:
                after(recorder, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            if not recorder.active():
                return fn(*args, **kwargs)
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(recorder, result)
            return result
    return functools.wraps(fn)(wrapper)


class LayerTracer:
    """Installs and removes the per-layer wrappers."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        #: (owner, attribute, original raw attribute) of every replacement.
        self._patched: List[Tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # ------------------------------------------------------------------
    def _targets(self) -> List[Tuple[str, str, Tuple[object, str], bool, After]]:
        """(layer, kind, (owner, attribute), rollup, after) per entry point.

        ``kind`` is ``"function"`` for module functions (replaced wherever
        they were imported by name) and ``"method"`` for class attributes.
        """
        trace = _import("repro.sampling.trace")
        gpu = _import("repro.sampling.gpu")
        memory = _import("repro.sampling.memory")
        program = _import("repro.structure.program")
        attribution = _import("repro.blame.attribution")
        graph = _import("repro.blame.graph")
        pruning = _import("repro.blame.pruning")
        optimizers = _import("repro.optimizers.base")
        cache = _import("repro.pipeline.cache")
        result = _import("repro.api.result")
        request = _import("repro.api.request")
        client = _import("repro.service.client")

        targets = [
            ("trace", "function", (trace, "generate_warp_trace"), True, _after_trace),
            ("gpu", "method", (gpu.GpuSimulator, "simulate"), False, _after_gpu),
            ("memory", "method", (memory.MemoryHierarchy, "access_sectors"), True, None),
            ("structure", "function", (program, "build_program_structure"), False, None),
            ("blame", "method", (attribution.InstructionBlamer, "blame"), False, None),
            ("blame.graph", "function", (graph, "build_dependency_graph"), False, None),
            ("blame.prune", "function", (pruning, "prune_cold_edges"), False, _after_prune),
            ("cache.get", "method", (cache.ProfileCache, "get"), False, _after_get),
            ("cache.put", "method", (cache.ProfileCache, "put"), False, _after_put),
            ("wire", "method", (result.AdvisingResult, "to_dict"), False, None),
            ("wire", "method", (result.AdvisingResult, "from_dict"), False, None),
            ("wire", "method", (request.AdvisingRequest, "to_dict"), False, None),
            ("wire", "method", (request.AdvisingRequest, "from_dict"), False, None),
            ("service.submit", "method", (client.ServiceClient, "submit"), False, None),
            ("service.poll", "method", (client.ServiceClient, "job"), False, None),
        ]
        # Every SM core the program still has (one or two).
        for module_name, class_name in SM_CORES:
            try:
                cls = getattr(_import(module_name), class_name, None)
            except ImportError:
                continue
            if cls is not None:
                targets.append(("sm", "method", (cls, "simulate"), False, _after_sm))
        # Every optimizer class that implements its own `match`.
        pending = [optimizers.Optimizer]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "match" in vars(cls) and not getattr(vars(cls)["match"], "__isabstractmethod__", False):
                targets.append(("optimizers", "method", (cls, "match"), False, _after_match))
        return targets

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        if self._patched:
            raise RuntimeError("layer wrappers are already installed")
        for name in PROGRAM_MODULES:
            _import(name)
        try:
            for layer, kind, (owner, attribute), rollup, after in self._targets():
                if kind == "function":
                    self._patch_function(owner, attribute, layer, rollup, after)
                else:
                    self._patch_method(owner, attribute, layer, rollup, after)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch_function(self, module, attribute, layer, rollup, after) -> None:
        original = getattr(module, attribute)
        wrapper = _wrap(original, layer, self.recorder, rollup, after)
        for name, holder in sorted(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or holder is None:
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def _patch_method(self, cls, attribute, layer, rollup, after) -> None:
        raw = vars(cls)[attribute]
        if isinstance(raw, classmethod):  # the `from_dict` constructors
            replacement = classmethod(_wrap(raw.__func__, layer, self.recorder, rollup, after))
        else:
            replacement = _wrap(raw, layer, self.recorder, rollup, after)
        self._patched.append((cls, attribute, raw))
        setattr(cls, attribute, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Per-layer metrics of the service workloads, taken from job views,
#: ``/v1/stats`` and the generator rather than from spans.
SERVICE_METRICS = (
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.tail", "ms"),
    ("service.run_ms.p50", "ms"),
    ("service.run_ms.tail", "ms"),
    ("service.http_calls", "count"),
    ("service.polls_per_job", "count"),
    ("service.coalesced_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.rejected", "count"),
    ("generator.lag_ms", "ms"),
)


def layer_metrics(recorder: SpanRecorder,
                  service: Optional[Dict[str, Tuple[float, str]]] = None
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric the traced run reports, as (value, unit).

    ``service`` holds the :data:`SERVICE_METRICS` of a service workload.
    A layer that did no work on the workload reports zero counts and
    zero time.
    """
    totals = recorder.layer_totals()
    counters = recorder.counters

    def calls(name: str) -> int:
        entry = totals.get(name)
        return entry.calls if entry else 0

    def self_s(name: str) -> float:
        entry = totals.get(name)
        return entry.self_s if entry else 0.0

    def total_s(name: str) -> float:
        entry = totals.get(name)
        return entry.total_s if entry else 0.0

    sim_cycles = counters.get("sm.sim_cycles", 0.0)
    l1 = counters.get("memory.l1_hits", 0.0) + counters.get("memory.l1_misses", 0.0)
    l2 = counters.get("memory.l2_hits", 0.0) + counters.get("memory.l2_misses", 0.0)
    return {
        "trace.calls": (calls("trace"), "count"),
        "trace.ops": (counters.get("trace.ops", 0.0), "count"),
        "trace.self_s": (self_s("trace"), "s"),
        "sm.calls": (calls("sm"), "count"),
        "sm.sim_cycles": (sim_cycles, "cycles"),
        "sm.self_s": (self_s("sm"), "s"),
        "sm.ns_per_sim_cycle": (_ratio(self_s("sm") * 1e9, sim_cycles), "ns"),
        "gpu.waves": (counters.get("gpu.waves", 0.0), "count"),
        "gpu.self_s": (self_s("gpu"), "s"),
        "memory.requests": (counters.get("memory.requests", 0.0), "count"),
        "memory.sectors": (counters.get("memory.sectors", 0.0), "count"),
        "memory.l1_hit_ratio": (_ratio(counters.get("memory.l1_hits", 0.0), l1), "ratio"),
        "memory.l2_hit_ratio": (_ratio(counters.get("memory.l2_hits", 0.0), l2), "ratio"),
        "memory.dram_sectors": (counters.get("memory.dram_sectors", 0.0), "count"),
        "memory.self_s": (self_s("memory"), "s"),
        "structure.calls": (calls("structure"), "count"),
        "structure.self_s": (self_s("structure"), "s"),
        "blame.calls": (calls("blame"), "count"),
        "blame.self_s": (self_s("blame"), "s"),
        "blame.graph_s": (total_s("blame.graph"), "s"),
        "blame.prune_s": (total_s("blame.prune"), "s"),
        "blame.edges": (counters.get("blame.edges", 0.0), "count"),
        "blame.pruned_edges": (counters.get("blame.pruned_edges", 0.0), "count"),
        "optimizers.calls": (calls("optimizers"), "count"),
        "optimizers.self_s": (self_s("optimizers"), "s"),
        "optimizers.applicable": (counters.get("optimizers.applicable", 0.0), "count"),
        "cache.get_calls": (calls("cache.get"), "count"),
        "cache.hits": (counters.get("cache.hits", 0.0), "count"),
        "cache.hit_ratio": (_ratio(counters.get("cache.hits", 0.0), calls("cache.get")), "ratio"),
        "cache.get_s": (total_s("cache.get"), "s"),
        "cache.put_calls": (calls("cache.put"), "count"),
        "cache.put_s": (total_s("cache.put"), "s"),
        "cache.bytes_written": (counters.get("cache.bytes_written", 0.0), "bytes"),
        "wire.calls": (calls("wire"), "count"),
        "wire.self_s": (self_s("wire"), "s"),
        "wire.bytes": (counters.get("wire.bytes", 0.0), "bytes"),
        **{name: (service or {}).get(name, (0.0, unit)) for name, unit in SERVICE_METRICS},
    }
