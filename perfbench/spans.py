"""Wall-clock span recorder for the benchmark's traced run.

The program is not edited to trace itself: :func:`instrument` replaces a
fixed list of public callables of each layer with thin wrappers that
open a span around the original call, and restores every original when
the ``with`` block ends.  A span is a name, a start, an end, a parent
span and the id of the window (or refresh, or build) it served.  A
layer's self time is its span's duration minus the time its child spans
cover, so the self times of all spans add up to the time spent inside
root spans.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.timebase import wall_now


@dataclass
class SpanStats:
    """Per-name totals: calls, time inside the call, and self time."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class SpanRecorder:
    """Nested spans on the wall clock, kept in memory.

    ``spans`` holds ``(index, name, start, end, parent index, unit id)``
    rows in the order the spans closed (indexes count opened spans; a
    root's parent is -1); ``stats`` aggregates them by name and
    ``nested`` by ``(name, parent name)``, so a layer can be split by the
    caller it ran under.  ``counts`` are the counters the wrappers record
    at the same boundaries (prompts generated, edges loaded, ...).
    """

    spans: list[tuple] = field(default_factory=list)
    stats: dict[str, SpanStats] = field(default_factory=dict)
    nested: dict[tuple[str, str], list] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    unit_id: str = ""
    _stack: list[list] = field(default_factory=list)
    _next_index: int = 0

    def open(self, name: str) -> None:
        index = self._next_index
        self._next_index += 1
        # [name, start, child time, own index, parent index, unit id]
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, wall_now(), 0.0, index, parent, self.unit_id])

    def close(self) -> None:
        end = wall_now()
        name, start, child_s, index, parent, unit = self._stack.pop()
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.busy_s += duration
        stats.self_s += duration - child_s
        parent_name = ""
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            parent_name = outer[0]
        pair = self.nested.get((name, parent_name))
        if pair is None:
            pair = self.nested[(name, parent_name)] = [0, 0.0]
        pair[0] += 1
        pair[1] += duration
        self.spans.append((index, name, start, end, parent, unit))

    @contextmanager
    def root(self, name: str, unit_id: str):
        """A root span for one unit of work; its children share its id."""
        self.unit_id = unit_id
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def under(self, name: str, parents: tuple[str, ...]) -> tuple[int, float]:
        """Calls of and time inside ``name`` spans whose direct parent is
        one of ``parents``."""
        pairs = [self.nested.get((name, parent), (0, 0.0)) for parent in parents]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    def self_total_s(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())

    def write(self, path: pathlib.Path) -> None:
        """One JSON row per span: index, name, start, end, parent index, unit id."""
        with path.open("w") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")


def _wrap(recorder: SpanRecorder, name: str, original, on_call=None):
    open_span, close_span = recorder.open, recorder.close

    def wrapper(*args, **kwargs):
        open_span(name)
        try:
            result = original(*args, **kwargs)
        finally:
            close_span()
        if on_call is not None:
            on_call(recorder, args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _count_arg(counter: str, position: int):
    """Hook counting ``len`` of a positional argument (self is 0)."""
    def hook(recorder, args, kwargs, result):
        recorder.count(counter, len(args[position]))
    return hook


def _count_result(counter: str):
    def hook(recorder, args, kwargs, result):
        recorder.count(counter, result)
    return hook


def _count_len_result(counter: str):
    def hook(recorder, args, kwargs, result):
        recorder.count(counter, len(result))
    return hook


def _count_fit(recorder, args, kwargs, result):
    recorder.count("finetune.examples", len(args[1]) * kwargs.get("epochs", 8))


def _targets():
    """``(owner, attribute, span name, hook)`` for every wrapped call.

    Module-level functions are patched in the namespace their caller
    looks them up in; methods on their class.
    """
    import repro.core.kg_io as kg_io
    import repro.core.pipeline as pipeline
    import repro.llm.seq2seq as seq2seq
    import repro.refresh as refresh
    from repro.annotation.annotators import AnnotatorPool
    from repro.core.cosmo_lm import CosmoLM
    from repro.core.critic import CriticClassifier
    from repro.core.filtering import KnowledgeFilter
    from repro.core.kg import KnowledgeGraph
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.refresh.quality import SnapshotQualityGate
    from repro.serving.cache import AsyncCacheStore
    from repro.serving.cluster import CosmoCluster
    from repro.serving.deployment import CosmoService
    from repro.serving.resilience import ResilientGenerator
    from repro.serving.router import ConsistentHashRouter

    return [
        # serving layers
        (CosmoCluster, "handle_batch", "cluster.handle_batch", None),
        (ConsistentHashRouter, "preference", "router.preference", None),
        (CosmoService, "serve_batch", "service.serve_batch",
         _count_arg("service.window_items", 1)),
        (AsyncCacheStore, "fetch_many", "cache.fetch_many", None),
        (AsyncCacheStore, "apply_batch", "cache.apply_batch", None),
        (CosmoService, "run_batch", "flush", _count_result("flush.installed")),
        (ResilientGenerator, "generate_batch", "resilience.generate_batch", None),
        (CosmoLM, "generate_batch", "gen.generate_batch",
         _count_arg("gen.prompts", 1)),
        (seq2seq.Seq2SeqLM, "decode_batch", "gen.decode", None),
        # refresh layers
        (kg_io, "load_kg_columnar", "kg_io.load", _count_len_result("kg_io.edges")),
        (refresh, "build_snapshot", "snapshot.build", None),
        (SnapshotQualityGate, "assess", "gate.assess", None),
        (CosmoCluster, "swap_snapshot", "rollout.swap",
         _count_result("rollout.invalidated")),
        # pipeline stages, as repro.core.pipeline looks them up
        (pipeline, "World", "stage.behavior", None),
        (pipeline, "simulate_cobuy", "stage.behavior", None),
        (pipeline, "simulate_searchbuy", "stage.behavior", None),
        (pipeline, "sample_products", "stage.sampling", None),
        (pipeline, "sample_cobuy", "stage.sampling", None),
        (pipeline, "sample_searchbuy", "stage.sampling", None),
        (pipeline, "generate_candidates", "stage.teacher", None),
        (KnowledgeFilter, "apply", "stage.filter", None),
        (pipeline, "sample_for_annotation", "stage.annotation", None),
        (AnnotatorPool, "annotate_batch", "stage.annotation", None),
        (pipeline, "audit_annotations", "stage.annotation", None),
        (CriticClassifier, "fit", "stage.critic", None),
        (CriticClassifier, "accuracy", "stage.critic", None),
        (CriticClassifier, "populate", "stage.critic", None),
        (pipeline, "build_instruction_dataset", "stage.instructions", None),
        (CosmoLM, "finetune", "stage.finetune", None),
        (KnowledgeGraph, "extend", "stage.kg_assembly", None),
        (pipeline.CosmoPipeline, "_expand", "stage.kg_assembly", None),
        # finetune internals
        (seq2seq.Seq2SeqLM, "fit", "finetune.fit", _count_fit),
        (Tensor, "backward", "finetune.backward", None),
        (Adam, "step", "finetune.optim", None),
        (seq2seq, "clip_grad_norm", "finetune.clip", None),
    ]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attribute, name, hook in _targets():
            had_own = attribute in vars(owner)
            original = vars(owner)[attribute] if had_own else getattr(owner, attribute)
            saved.append((owner, attribute, had_own, original))
            setattr(owner, attribute, _wrap(recorder, name, original, hook))
        yield recorder
    finally:
        for owner, attribute, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


_STAGES = ("behavior", "sampling", "teacher", "filter", "annotation", "critic",
           "instructions", "finetune", "kg_assembly")

#: Every per-layer metric: name, unit and which direction is better, in
#: report order.  Each workload reports all of them; a layer a workload
#: does not exercise reads 0.
PER_LAYER = (
    [("router.preference.calls", "count", "lower"),
     ("router.preference.self_s", "s", "lower"),
     ("router.preference.us_per_call", "us", "lower"),
     ("cluster.handle_batch.self_s", "s", "lower"),
     ("cluster.flushes.size", "count", "lower"),
     ("cluster.flushes.deadline", "count", "lower"),
     ("cluster.flushes.forced", "count", "lower"),
     ("cluster.shed_share", "ratio", "lower"),
     ("service.serve_batch.self_s", "s", "lower"),
     ("service.window_items_mean", "items", "higher"),
     ("cache.fetch_many.self_s", "s", "lower"),
     ("cache.apply_batch.self_s", "s", "lower"),
     ("cache.hit_ratio", "ratio", "higher"),
     ("cache.pending_peak", "count", "lower"),
     ("flush.calls", "count", "lower"),
     ("flush.busy_s", "s", "lower"),
     ("gen.prompts", "count", "lower"),
     ("gen.batch_mean", "items", "higher"),
     ("gen.prompts_per_s", "1/s", "higher"),
     ("gen.useful_ratio", "ratio", "higher"),
     ("gen.decode.busy_s", "s", "lower"),
     ("resilience.retries", "count", "lower"),
     ("resilience.dead_lettered", "count", "lower"),
     ("kg_io.load.busy_s", "s", "lower"),
     ("kg_io.load.edges_per_s", "1/s", "higher"),
     ("snapshot.build.busy_s", "s", "lower"),
     ("gate.assess.busy_s", "s", "lower"),
     ("rollout.swap.busy_s", "s", "lower"),
     ("rollout.invalidated", "count", "lower"),
     ("refresh.count", "count", "higher")]
    + [(f"pipeline.{stage}.busy_s", "s", "lower") for stage in _STAGES]
    + [("filter.keep_ratio", "ratio", "higher"),
       ("critic.accept_ratio", "ratio", "higher"),
       ("finetune.forward_s", "s", "lower"),
       ("finetune.backward_s", "s", "lower"),
       ("finetune.optim_s", "s", "lower"),
       ("finetune.steps", "count", "lower"),
       ("finetune.examples_per_s", "1/s", "higher"),
       ("finetune.final_loss", "nats", "lower"),
       ("sim.throughput_rps", "1/s", "higher"),
       ("sim.p99_ms", "ms", "lower"),
       ("sim.hit_ratio", "ratio", "higher"),
       ("client.self_s", "s", "lower"),
       ("obs.self_coverage", "ratio", "higher"),
       ("obs.trace_overhead", "ratio", "lower")]
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, traced_wall_s: float,
                  untraced_wall_s: float, readouts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``readouts`` carries what the program counts itself (flushes by
    trigger, cache hit ratio, funnel ratios, ...) under the same names;
    every other value comes from the spans and the wrapper counters.
    """
    get, counts = recorder.get, recorder.counts
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    router = get("router.preference")
    out["router.preference.calls"] = router.calls
    out["router.preference.self_s"] = router.self_s
    out["router.preference.us_per_call"] = _ratio(router.self_s * 1e6, router.calls)
    out["cluster.handle_batch.self_s"] = get("cluster.handle_batch").self_s
    serve = get("service.serve_batch")
    out["service.serve_batch.self_s"] = serve.self_s
    out["service.window_items_mean"] = _ratio(counts.get("service.window_items", 0), serve.calls)
    out["cache.fetch_many.self_s"] = get("cache.fetch_many").self_s
    out["cache.apply_batch.self_s"] = get("cache.apply_batch").self_s
    flush = get("flush")
    out["flush.calls"] = flush.calls
    out["flush.busy_s"] = flush.busy_s
    generate = get("gen.generate_batch")
    prompts = counts.get("gen.prompts", 0)
    out["gen.prompts"] = prompts
    out["gen.batch_mean"] = _ratio(prompts, generate.calls)
    out["gen.prompts_per_s"] = _ratio(prompts, generate.busy_s)
    out["gen.useful_ratio"] = _ratio(counts.get("flush.installed", 0), prompts)
    out["gen.decode.busy_s"] = get("gen.decode").busy_s
    load = get("kg_io.load")
    out["kg_io.load.busy_s"] = load.busy_s
    out["kg_io.load.edges_per_s"] = _ratio(counts.get("kg_io.edges", 0), load.busy_s)
    out["snapshot.build.busy_s"] = get("snapshot.build").busy_s
    out["gate.assess.busy_s"] = get("gate.assess").busy_s
    out["rollout.swap.busy_s"] = get("rollout.swap").busy_s
    out["rollout.invalidated"] = counts.get("rollout.invalidated", 0)
    out["refresh.count"] = get("client.refresh").calls
    for stage in _STAGES:
        out[f"pipeline.{stage}.busy_s"] = recorder.under(f"stage.{stage}", ("client.build",))[1]
    fit = ("finetune.fit",)
    out["finetune.forward_s"] = get("finetune.fit").self_s
    out["finetune.backward_s"] = recorder.under("finetune.backward", fit)[1]
    steps, optim_s = recorder.under("finetune.optim", fit)
    out["finetune.optim_s"] = optim_s + recorder.under("finetune.clip", fit)[1]
    out["finetune.steps"] = steps
    out["finetune.examples_per_s"] = _ratio(counts.get("finetune.examples", 0),
                                            get("finetune.fit").busy_s)
    out["client.self_s"] = sum(stats.self_s for name, stats in recorder.stats.items()
                               if name.startswith("client."))
    out["obs.self_coverage"] = _ratio(recorder.self_total_s(), traced_wall_s)
    out["obs.trace_overhead"] = _ratio(traced_wall_s, untraced_wall_s)
    for name, value in readouts.items():
        if name in out:
            out[name] = value
    return out


def hotspots(recorder: SpanRecorder, traced_wall_s: float, top: int = 5) -> list[str]:
    """The largest self times, and where blocking work went."""
    ranked = sorted(((stats.self_s, name) for name, stats in recorder.stats.items()),
                    reverse=True)[:top]
    lines = [f"{name}: {self_s:.3f} s self, {_ratio(self_s, traced_wall_s):.1%} of the "
             f"traced wall time" for self_s, name in ranked]
    flush = recorder.get("flush")
    if flush.calls:
        refresh_s = recorder.get("client.refresh").busy_s + recorder.get("client.swap").busy_s
        lines.append(f"flush: {_ratio(flush.busy_s, traced_wall_s - refresh_s):.1%} of the "
                     f"time outside refreshes")
    finetune_s = recorder.under("stage.finetune", ("client.build",))[1]
    if finetune_s:
        lines.append(f"finetune: {_ratio(finetune_s, traced_wall_s):.1%} of the build")
    return lines
