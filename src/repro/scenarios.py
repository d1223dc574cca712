"""Scenario drives: the serving plane (§3.5) exercised end to end.

Each drive takes the parsed ``repro`` CLI arguments, prints progress
while it runs, and returns an :class:`Outcome`: the exit code, the
artifacts it produced as ``{name: text}``, and the report to print once
those artifacts are written.  ``repro.cli`` writes each artifact to its
``--out-<name>`` path; tests call the drives directly and compare the
returned texts.

Everything runs on simulated clocks with scripted or snapshot-backed
generators, so two calls with the same arguments return byte-identical
artifacts (``obs`` adds a wall-clock profile to its report, nothing
else).  Every cluster drive checks the request-accounting invariant
``fresh + degraded + fallbacks == requests == handled``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field

import numpy as np

from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.obs import (
    BurnRateRule,
    EventLog,
    MetricsRegistry,
    MetricSum,
    SloEvaluator,
    SloSpec,
    TailSampler,
    TimeSeriesCollector,
    TraceAnalyzer,
    Tracer,
    WallProfiler,
    alert_report,
    chrome_trace,
    kg_health_report,
    render_events,
    render_text,
    snapshot,
    timeline,
    trace_summary,
    validate_alert_report,
    validate_chrome_trace,
    validate_events,
    validate_kg_health,
    validate_snapshot,
    validate_timeline,
    validate_trace_summary,
)
from repro.refresh import (
    KgSnapshot,
    RolloutController,
    SnapshotGenerator,
    SnapshotQualityGate,
    SnapshotStore,
    build_snapshot,
    mixed_version_violation,
    rollout_slo_specs,
)
from repro.reporting import Table, format_percent
from repro.serving import (
    ClusterConfig,
    CosmoCluster,
    CosmoService,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ServeRequest,
)
from repro.serving.chaos import ScriptedGenerator, response_ok
from repro.utils.rng import spawn_rng

__all__ = [
    "ARTIFACT_LABELS",
    "Outcome",
    "cluster",
    "kghealth",
    "monitor",
    "obs",
    "pipeline_config",
    "rollout",
    "trace",
]

#: Artifact name → what it is; ``repro.cli`` writes artifact ``name`` to
#: ``--out-<name>`` and reports it as "Wrote <label> to <path>".
ARTIFACT_LABELS = {
    "trace": "Chrome trace",
    "metrics": "metrics snapshot",
    "summary": "trace summary",
    "timeline": "time-series timeline",
    "alerts": "alert report",
    "health": "kg-health report",
    "events": "event log",
}


@dataclass
class Outcome:
    """What one drive returns: exit code, artifacts, closing report."""

    code: int
    artifacts: dict[str, str] = field(default_factory=dict)
    report: str = ""


def pipeline_config(seed: int, scale: float, lm_epochs: int) -> PipelineConfig:
    world = WorldConfig(seed=seed).scaled(scale)
    return PipelineConfig(
        seed=seed,
        world=world,
        cobuy_pairs_per_domain=max(10, int(120 * scale)),
        searchbuy_records_per_domain=max(10, int(150 * scale)),
        annotation_budget=max(100, int(1500 * scale)),
        lm=CosmoLMConfig(epochs=lm_epochs),
    )


def _json(doc: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _zipf_traffic(args: argparse.Namespace, stream: str):
    """``draw(size)``: Zipf-1.3 query indices from one named RNG stream."""
    rng = spawn_rng(args.seed, stream)
    weights = 1.0 / np.arange(1, args.n_queries + 1) ** 1.3
    weights /= weights.sum()
    return lambda size: rng.choice(args.n_queries, size=size, p=weights)


def _cluster(args: argparse.Namespace, factory, events: bool = True,
             **kwargs) -> CosmoCluster:
    """The drive's cluster from its five shape flags, on a fresh metrics
    registry with (when ``events``) an event log."""
    registry = MetricsRegistry()
    config = ClusterConfig(
        n_replicas=args.replicas,
        max_batch_size=args.max_batch_size,
        max_batch_delay_s=args.max_batch_delay_s,
        max_queue_depth=args.max_queue_depth,
        seed=args.seed,
    )
    return CosmoCluster(factory, config=config, registry=registry,
                        event_log=EventLog(registry=registry) if events else None,
                        response_validator=response_ok, **kwargs)


def _bad_fault_rate(args: argparse.Namespace) -> Outcome | None:
    if 0.0 <= args.fault_rate <= 1.0:
        return None
    return Outcome(2, report=f"error: --fault-rate must be in [0, 1], "
                             f"got {args.fault_rate}")


def _flaky_factory(args: argparse.Namespace):
    """Scripted generators, each behind a ``FaultPlan.mixed`` injector."""

    def factory(index: int):
        generator = ScriptedGenerator()
        if args.fault_rate <= 0.0:
            return generator
        injector = FaultInjector(FaultPlan.mixed(args.fault_rate),
                                 seed=args.seed + index)
        return FlakyGenerator(generator, injector)

    return factory


def _tracers(cluster: CosmoCluster) -> list[tuple[str, Tracer]]:
    return [(cluster.config.name, cluster.tracer)] + [
        (replica_id, service.tracer)
        for replica_id, service in cluster.services.items()
    ]


def _accounting(cluster: CosmoCluster) -> tuple[bool, str]:
    """The request-accounting invariant and its report line."""
    totals = cluster.metrics_totals()
    accounted = (totals["served_fresh"] + totals["degraded_serves"]
                 + totals["fallbacks"])
    ok = accounted == totals["requests"] == totals["handled"]
    return ok, (f"request accounting: fresh + degraded + fallbacks = {accounted} "
                f"== requests = {totals['requests']}: {'OK' if ok else 'VIOLATED'}")


def _slo_artifacts(collector: TimeSeriesCollector, evaluator: SloEvaluator,
                   event_log: EventLog) -> dict[str, str]:
    """The schema-validated timeline, alert report and event log."""
    payload = timeline(collector)
    validate_timeline(payload)
    alerts = alert_report(evaluator)
    validate_alert_report(alerts)
    events_text = render_events(event_log)
    validate_events(events_text)
    return {"timeline": _json(payload, compact=True), "alerts": _json(alerts),
            "events": events_text}


def obs(args: argparse.Namespace) -> Outcome:
    """Run a small pipeline + one serving day under full observability."""
    registry = MetricsRegistry()
    profiler = WallProfiler()

    print(f"Pipeline run under tracing (seed={args.seed}, scale={args.scale})...")
    config = pipeline_config(args.seed, args.scale, args.lm_epochs)
    pipeline = CosmoPipeline(config, registry=registry, tracer=Tracer())
    with profiler.section("pipeline.run"):
        result = pipeline.run()
    if result.cosmo_lm is None:
        return Outcome(2, report="error: pipeline produced no COSMO-LM; "
                                 "nothing to serve")

    print(f"Serving one simulated day ({args.requests} requests)...")
    service = CosmoService(result.cosmo_lm, registry=registry, name="cosmo")
    queries = result.world.queries.broad()
    weights = np.array([q.popularity for q in queries], dtype=float)
    weights /= weights.sum()
    rng = spawn_rng(args.seed, "obs-traffic")
    picks = rng.choice(len(queries), size=args.requests, p=weights)
    traffic = [queries[int(i)].text for i in picks]
    with profiler.section("serving.day"):
        for start in range(0, len(traffic), args.chunk):
            for query in traffic[start : start + args.chunk]:
                service.serve(ServeRequest(query=query))
            service.run_batch()
        service.daily_refresh(refresh_stale=False)

    trace = chrome_trace([("pipeline", pipeline.tracer),
                          ("serving", service.tracer)])
    validate_chrome_trace(trace)
    snap = snapshot(registry)
    validate_snapshot(snap)

    metrics = service.metrics
    accounted = metrics.served_fresh + metrics.degraded_serves + metrics.fallbacks
    ok = accounted == metrics.requests
    report = [
        "\npipeline spans (simulated LLM seconds):",
        pipeline.tracer.render_tree(),
        "\nserving spans (SimClock seconds):",
        service.tracer.render_tree(),
        "\nmetrics:",
        render_text(registry),
        f"\nrequest accounting: served_fresh + degraded + fallbacks = "
        f"{accounted} == requests = {metrics.requests}: "
        f"{'OK' if ok else 'VIOLATED'}",
        "",
        profiler.report(),
    ]
    return Outcome(0 if ok else 1, {"trace": _json(trace), "metrics": _json(snap)},
                   "\n".join(report))


def cluster(args: argparse.Namespace) -> Outcome:
    """Drive Zipf traffic through a sharded serving cluster.

    Artifacts: the merged Chrome trace (cluster + every replica) and the
    metrics snapshot.  The exit code reflects the request-accounting
    invariant.
    """
    bad = _bad_fault_rate(args)
    if bad is not None:
        return bad
    drive = _cluster(args, _flaky_factory(args), events=False)

    picks = _zipf_traffic(args, "cluster-traffic")(args.requests)
    traffic = [f"query {int(i):03d}" for i in picks]
    gap_s = args.inter_arrival_ms / 1000.0

    print(f"Cluster: {drive.config.n_replicas} replica(s), {args.requests} requests, "
          f"inter-arrival {args.inter_arrival_ms:.2f} ms, "
          f"fault rate {args.fault_rate:.0%}...")
    valid = 0
    for query in traffic:
        result = drive.handle(query)
        valid += result.text == ScriptedGenerator.knowledge_for(query)
        drive.clock.advance(gap_s)
    drive.flush()
    # Horizon before the end-of-day refresh sleeps every clock to the
    # next day boundary — throughput is requests over the drive itself.
    horizon = drive.busy_horizon_s
    drive.daily_refresh(refresh_stale=False)

    trace = chrome_trace(_tracers(drive))
    validate_chrome_trace(trace)
    snap = snapshot(drive.registry)
    validate_snapshot(snap)

    totals = drive.metrics_totals()
    table = Table("Cluster serving — one simulated drive", ["Metric", "Value"])
    table.add_row("Replicas", drive.config.n_replicas)
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(drive.availability))
    table.add_row("Correct knowledge", format_percent(valid / max(totals["requests"], 1)))
    table.add_row("Failovers", totals["failovers"])
    table.add_row("Shed (admission control)", totals["shed"])
    table.add_row("p50 / p99 latency",
                  f"{drive.percentile(50) * 1000:.2f} / "
                  f"{drive.percentile(99) * 1000:.2f} ms")
    table.add_row("Busy horizon", f"{horizon:.2f} s")
    table.add_row("Throughput", f"{totals['requests'] / horizon:,.0f} req/s"
                  if horizon > 0 else "n/a")
    report = [table.render()]
    if args.verbose_metrics:
        report.append(render_text(drive.registry))
    ok, line = _accounting(drive)
    report.append(line)
    return Outcome(0 if ok else 1, {"trace": _json(trace), "metrics": _json(snap)},
                   "\n".join(report))


def trace(args: argparse.Namespace) -> Outcome:
    """End-to-end request tracing drive: one trace tree per request.

    Drives Zipf traffic (with fault injection, so retries and degraded
    serves appear) through a sharded cluster with per-request tracing
    on, tail-based sampling deciding which traces survive, exemplars on
    the latency histograms, and every mid-request event stamped with its
    trace id.  Artifacts: the flow-linked Chrome trace, the
    ``repro.obs.traces/v1`` summary (critical paths and per-stage
    latency breakdowns) and the event log.  Exits 1 if any tracing
    invariant fails: a disconnected trace tree, a stage breakdown that
    does not sum to the charged latency, an exemplar that resolves to
    nothing, or broken request accounting.
    """
    bad = _bad_fault_rate(args)
    if bad is not None:
        return bad
    sampler = TailSampler(slowest_k=args.slowest_k, window_s=args.window_s,
                          head_every=args.head_every)
    drive = _cluster(args, _flaky_factory(args), sampler=sampler)
    # Warm the yearly layer for the head of the Zipf distribution so the
    # trace mix includes cache-hit traces, not only miss/degraded ones.
    warm = min(args.warm_queries, args.n_queries)
    drive.preload_yearly({
        f"query {i:03d}": ScriptedGenerator.knowledge_for(f"query {i:03d}")
        for i in range(warm)
    })

    picks = _zipf_traffic(args, "trace-traffic")(args.requests)
    gap_s = args.inter_arrival_ms / 1000.0

    print(f"Tracing drive: {drive.config.n_replicas} replica(s), "
          f"{args.requests} requests, fault rate {args.fault_rate:.0%}, "
          f"tail sampling slowest-{sampler.slowest_k}/"
          f"{sampler.window_s:g}s window, head 1/{sampler.head_every}...")
    for pick in picks:
        drive.handle(f"query {int(pick):03d}")
        drive.clock.advance(gap_s)
    drive.flush()
    sampler.flush()

    tracers = _tracers(drive)
    chrome = chrome_trace(tracers)
    validate_chrome_trace(chrome)
    analyzer = TraceAnalyzer(tracers)
    summary = trace_summary(analyzer)
    validate_trace_summary(summary)
    events_text = render_events(drive.event_log)
    validate_events(events_text)

    failures: list[str] = []
    totals = drive.metrics_totals()
    if not _accounting(drive)[0]:
        failures.append(f"request accounting violated: {totals}")
    trace_ids = analyzer.trace_ids()
    if not trace_ids:
        failures.append("no traces retained")
    for trace_id in trace_ids:
        if not analyzer.is_connected(trace_id):
            roots = [node.name for node in analyzer.roots(trace_id)]
            failures.append(f"trace {trace_id} is disconnected: roots {roots}")
        stages = analyzer.stage_breakdown(trace_id)
        duration = analyzer.duration_s(trace_id)
        if abs(sum(stages.values()) - duration) > 1e-9:
            failures.append(
                f"trace {trace_id}: stages sum {sum(stages.values()):.9f} "
                f"!= charged {duration:.9f}")
    exemplars = drive._latency.exemplars()
    if not exemplars:
        failures.append("latency histogram carries no exemplars")
    retained = set(trace_ids)
    if exemplars and not any(tid in retained for _, tid, _ in exemplars):
        failures.append("no latency exemplar resolves to a retained trace")
    tagged = [e for e in drive.event_log.events() if "trace_id" in e.attrs]
    if not tagged:
        failures.append("no event carries a trace id")

    table = Table("Request tracing — one simulated drive", ["Metric", "Value"])
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(drive.availability))
    table.add_row("Traces retained", len(trace_ids))
    table.add_row("Sampler decisions",
                  ", ".join(f"{reason} {count}"
                            for reason, count in sampler.decisions.items()))
    table.add_row("Spans buffered (residual)", sampler.buffered_spans)
    table.add_row("Exemplar buckets", len(exemplars))
    table.add_row("Trace-tagged events", len(tagged))
    stage_table = Table("Where the latency goes (self time across traces)",
                        ["Stage", "Total (ms)", "Traces"])
    for stage, entry in summary["aggregate"]["stages"].items():
        stage_table.add_row(stage, f"{entry['total_s'] * 1000:.3f}",
                            entry["traces"])
    report = [table.render(), stage_table.render()]

    slowest = max(summary["traces"], key=lambda t: (t["duration_s"],
                                                    t["trace_id"]))
    report.append(f"\nslowest retained trace {slowest['trace_id']} "
                  f"({slowest['duration_s'] * 1000:.3f} ms, "
                  f"outcome={slowest['outcome']}):")
    for step in slowest["critical_path"]:
        report.append(f"  {step['process']:>12}  {step['name']:<24} "
                      f"self {step['self_s'] * 1000:8.3f} ms  [{step['stage']}]")
    if failures:
        report.append("\ntracing invariants VIOLATED:")
        report += [f"  - {failure}" for failure in failures]
    else:
        report.append("\ntracing invariants: OK")
    artifacts = {"trace": _json(chrome), "summary": _json(summary),
                 "events": events_text}
    return Outcome(1 if failures else 0, artifacts, "\n".join(report))


def monitor(args: argparse.Namespace) -> Outcome:
    """Continuous-monitoring drive: time series, SLO alerts, event log.

    Replays a deterministic three-phase workload (calm → storm →
    recovery) through a sharded cluster while a
    :class:`~repro.obs.timeseries.TimeSeriesCollector` scrapes the
    shared registry on a fixed simulated-time grid and an
    :class:`~repro.obs.slo.SloEvaluator` steps multi-window burn-rate
    alerts after every scrape.  Serving components publish structured
    events (breaker trips, drains, dead-letters, batch flushes) that
    finished alerts cross-reference.

    The ``chaos`` scenario scripts a full generator outage, a cold-query
    flood and a replica drain for the storm phase — at least one SLO
    alert is expected to walk pending → firing → resolved.  The
    ``clean`` scenario keeps faults off and must finish with no alert
    ever firing.  The exit code is 1 when any alert fired.
    """
    chaos = args.scenario == "chaos"
    calm_plan = FaultPlan()
    storm_plan = FaultPlan(error_rate=1.0) if chaos else calm_plan
    injectors: list[FaultInjector] = []

    def factory(index: int):
        injector = FaultInjector(calm_plan, seed=args.seed + index)
        injectors.append(injector)
        return FlakyGenerator(ScriptedGenerator(), injector)

    drive = _cluster(args, factory)

    warm = [f"query {i:03d}" for i in range(args.n_queries)]
    cold = [f"storm query {i:03d}" for i in range(args.n_queries)]
    drive.preload_yearly({q: ScriptedGenerator.knowledge_for(q) for q in warm})

    served = ("serving_served_fresh_total", "serving_degraded_serves_total")
    windows = (BurnRateRule(long_s=4 * args.scrape_interval_s,
                            short_s=args.scrape_interval_s,
                            max_burn_rate=10.0),)
    timing = dict(for_s=args.scrape_interval_s,
                  resolve_after_s=2 * args.scrape_interval_s,
                  event_lookback_s=5 * args.scrape_interval_s)
    specs = [
        SloSpec(
            name="availability",
            description="requests answered with knowledge (fresh or degraded)",
            target=0.99,
            good=MetricSum(served),
            total=MetricSum(served + ("serving_fallbacks_total",)),
            windows=windows, **timing,
        ),
        SloSpec(
            name="latency-p99",
            description=f"end-to-end latency under {args.latency_slo_s:g}s",
            target=0.95,
            good=MetricSum(("cluster_request_latency_seconds",),
                           le=args.latency_slo_s),
            total=MetricSum(("cluster_request_latency_seconds",)),
            windows=windows, **timing,
        ),
        SloSpec(
            name="cache-hit-rate",
            description="lookups answered from a cache layer",
            target=0.50,
            good=MetricSum(("cache_requests_total",),
                           where=(("outcome", ("layer1_hit", "layer2_hit")),)),
            total=MetricSum(("cache_requests_total",)),
            windows=(BurnRateRule(long_s=4 * args.scrape_interval_s,
                                  short_s=args.scrape_interval_s,
                                  max_burn_rate=1.6),), **timing,
        ),
    ]
    evaluator = SloEvaluator(drive.registry, specs, event_log=drive.event_log)
    collector = TimeSeriesCollector(drive.registry, interval_s=args.scrape_interval_s)

    zipf = _zipf_traffic(args, "monitor-traffic")

    def draw(universe: list[str]) -> list[str]:
        return [universe[int(i)] for i in zipf(args.requests_per_phase)]

    # The storm phase floods the cluster with cold (never-cached) queries
    # while every generator hard-fails and one replica is drained; calm
    # and recovery replay warm traffic against healthy generators.
    phases = [
        ("calm", draw(warm), calm_plan, None),
        ("storm", draw(cold if chaos else warm), storm_plan,
         f"{drive.config.name}-r1" if chaos and args.replicas > 1 else None),
        ("recovery", draw(warm), calm_plan, None),
    ]
    gap_s = args.inter_arrival_ms / 1000.0

    print(f"Monitor: scenario {args.scenario}, {drive.config.n_replicas} replica(s), "
          f"{args.requests_per_phase} requests x {len(phases)} phases, "
          f"scrape every {args.scrape_interval_s:g}s...")
    drained: str | None = None
    phase_rows = []
    previous_totals = drive.metrics_totals()
    for phase_name, traffic, plan, to_drain in phases:
        for injector in injectors:
            injector.plan = plan
        if drained is not None:
            drive.restore(drained)
            drained = None
        if to_drain is not None:
            drive.drain(to_drain)
            drained = to_drain
        for query in traffic:
            drive.handle(query)
            drive.clock.advance(gap_s)
            for ts in collector.maybe_scrape(drive.clock.now()):
                evaluator.evaluate(ts)
        totals = drive.metrics_totals()
        good = (totals["served_fresh"] + totals["degraded_serves"]
                - previous_totals["served_fresh"] - previous_totals["degraded_serves"])
        requests = totals["requests"] - previous_totals["requests"]
        phase_rows.append((phase_name, requests, good / max(requests, 1)))
        previous_totals = totals
    if drained is not None:
        drive.restore(drained)
    drive.flush()

    table = Table("Monitoring drive — phase availability", ["Phase", "Requests", "Served"])
    for phase_name, requests, availability in phase_rows:
        table.add_row(phase_name, requests, format_percent(availability))
    report = [
        table.render(),
        f"scrapes: {collector.scrapes}, series: {len(collector.series())}, "
        f"events: {drive.event_log.emitted} emitted / "
        f"{drive.event_log.dropped} dropped",
    ]
    for alert in evaluator.alerts():
        window = (f"pending {alert.pending_ts:g}s"
                  + (f", firing {alert.firing_ts:g}s" if alert.firing_ts is not None else "")
                  + (f", resolved {alert.resolved_ts:g}s"
                     if alert.resolved_ts is not None and alert.state == "resolved" else ""))
        report.append(f"alert {alert.alert_id}: {alert.state} ({window}; "
                      f"peak burn {alert.peak_burn_rate:.1f}x, "
                      f"{len(alert.event_ids)} correlated event(s))")
    ok, line = _accounting(drive)
    fired = evaluator.any_fired
    report += [line, f"SLO verdict: {'ALERTS FIRED' if fired else 'no alerts fired'}"]
    return Outcome(1 if fired or not ok else 0,
                   _slo_artifacts(collector, evaluator, drive.event_log),
                   "\n".join(report))


@dataclass
class _GatedRollout:
    """One finished blue → green rollout drive and what it observed."""

    cluster: CosmoCluster
    green: KgSnapshot
    evaluator: SloEvaluator
    collector: TimeSeriesCollector
    gate: SnapshotQualityGate
    controller: RolloutController
    violations: int

    def verdict_lines(self) -> tuple[bool, list[str]]:
        """``(accounting ok, [replica versions, SLO, accounting, mixed])``."""
        versions = self.cluster.snapshot_versions()
        ok, line = _accounting(self.cluster)
        fired = self.evaluator.any_fired
        return ok, [
            "replica versions: "
            + ", ".join(f"{r}={v}" for r, v in sorted(versions.items())),
            f"SLO verdict: {'ALERTS FIRED' if fired else 'no alerts fired'}",
            line,
            f"mixed-version answers: {self.violations} "
            f"({'OK' if self.violations == 0 else 'VIOLATED'})",
        ]


def _gated_rollout(args: argparse.Namespace, title: str, stream: str,
                   green_note: str, blue_graph: KnowledgeGraph | None = None,
                   green_graph: KnowledgeGraph | None = None,
                   serve_green: bool = True) -> _GatedRollout:
    """Serve blue, roll green out under a quality gate, settle.

    Both snapshots answer every query (green answers none unless
    ``serve_green``).  Three phases of Zipf traffic: a warm all-blue
    baseline, the rollout window (twice as long; the controller steps
    once per scrape), and a settle phase.  Every answer is checked for
    a mixed-version leak.
    """
    queries = [f"query {i:03d}" for i in range(args.n_queries)]
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in queries},
                          blue_graph, note="blue baseline")
    green = build_snapshot(
        {q: f"it is used for {q} (green)." for q in queries} if serve_green else {},
        green_graph, parent=blue, note=green_note)
    store = SnapshotStore()
    store.add(blue)
    drive = _cluster(args, lambda index: SnapshotGenerator(blue))
    drive.install_snapshot(blue)

    specs = rollout_slo_specs(args.scrape_interval_s,
                              latency_slo_s=args.latency_slo_s)
    evaluator = SloEvaluator(drive.registry, specs, event_log=drive.event_log)
    collector = TimeSeriesCollector(drive.registry, interval_s=args.scrape_interval_s)
    gate = SnapshotQualityGate(store, registry=drive.registry)
    controller = RolloutController(drive, store, green, evaluator,
                                   quality_gate=gate)

    zipf = _zipf_traffic(args, stream)
    gap_s = args.inter_arrival_ms / 1000.0
    violations = 0

    def phase(n_requests: int, rolling: bool) -> None:
        nonlocal violations
        for pick in zipf(n_requests):
            result = drive.handle(queries[int(pick)])
            if mixed_version_violation(store, drive, result):
                violations += 1
            drive.clock.advance(gap_s)
            for ts in collector.maybe_scrape(drive.clock.now()):
                evaluator.evaluate(ts)
                if rolling and not controller.done:
                    controller.tick(ts)

    print(f"{title}: scenario {args.scenario}, "
          f"{drive.config.n_replicas} replica(s), {blue.version} -> {green.version}, "
          f"scrape every {args.scrape_interval_s:g}s...")
    phase(args.requests_per_phase, rolling=False)        # warm: all-blue baseline
    phase(2 * args.requests_per_phase, rolling=True)     # rollout under traffic
    phase(args.requests_per_phase, rolling=False)        # settle: steady state
    drive.flush()
    return _GatedRollout(drive, green, evaluator, collector, gate, controller,
                         violations)


def rollout(args: argparse.Namespace) -> Outcome:
    """Blue/green snapshot rollout drive with SLO-guarded auto-rollback.

    The ``healthy`` scenario's green snapshot covers every query and the
    rollout must complete with no alert ever firing; the ``poisoned``
    scenario's green snapshot has an *empty* serving table, so the first
    replica restored onto it burns the availability SLO and the
    controller must roll the cluster back to blue automatically (and
    re-drive the dead letters the poisoned replica accumulated).

    The exit code is 1 when any mixed-version answer was served (2 when
    request accounting broke); both scenarios normally exit 0.
    Artifacts: timeline, alert report and event log.
    """
    # A poisoned refresh lost its serving table: version checks out,
    # content is useless.  Neither snapshot carries triples, so the
    # knowledge gate passes; the SLO guard exists to catch this.
    poisoned = args.scenario == "poisoned"
    run = _gated_rollout(args, "Rollout", "rollout-traffic",
                         "poisoned refresh" if poisoned else "green refresh",
                         serve_green=not poisoned)

    report = run.controller.report()
    services = run.cluster.services.values()
    totals = run.cluster.metrics_totals()
    table = Table("Rollout drive", ["Metric", "Value"])
    table.add_row("Scenario", args.scenario)
    table.add_row("Rollout state", report.state)
    table.add_row("Steps executed", len(report.steps))
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(run.cluster.availability))
    table.add_row("Fallbacks", totals["fallbacks"])
    table.add_row("Dead-lettered / redriven",
                  f"{sum(s.metrics.dead_lettered for s in services)}"
                  f" / {sum(s.metrics.redriven for s in services)}")
    table.add_row("Mixed-version answers", run.violations)
    table.add_row("p50 / p99 latency",
                  f"{run.cluster.percentile(50) * 1000:.2f} / "
                  f"{run.cluster.percentile(99) * 1000:.2f} ms")
    ok, (versions, *verdicts) = run.verdict_lines()
    lines = [table.render(), versions]
    if report.rolled_back:
        lines.append(f"rollback: objective {report.rollback_objective} "
                     f"(alert {report.rollback_alert}), {report.redriven} dead "
                     f"letter(s) redriven")
    lines += verdicts
    artifacts = _slo_artifacts(run.collector, run.evaluator, run.cluster.event_log)
    code = 2 if not ok else 1 if run.violations else 0
    return Outcome(code, artifacts, "\n".join(lines))


_RELATIONS = (Relation.USED_FOR_FUNC, Relation.CAPABLE_OF, Relation.USED_TO,
              Relation.USED_FOR_AUD, Relation.USED_WITH)
_DOMAINS = ("Apparel", "Electronics", "Grocery", "Home")


def _edges(n_queries: int, count: int, offset: int = 0,
           relation_cycle: tuple = _RELATIONS,
           plaus_base: float = 0.55, plaus_span: float = 0.4) -> list:
    # Deterministic arithmetic, no RNG: the same arguments always
    # produce the same triples, so snapshot versions are stable.
    return [
        KnowledgeTriple(
            head=f"query {(k // 2) % n_queries:03d}",
            relation=relation_cycle[k % len(relation_cycle)],
            tail=f"intent {k % 23:02d}",
            domain=_DOMAINS[k % len(_DOMAINS)],
            behavior="search-buy" if k % 3 else "co-buy",
            plausibility=plaus_base + plaus_span * ((k * 37) % 100) / 100.0,
            typicality=0.45 + 0.5 * ((k * 53) % 100) / 100.0,
            support=1 + k % 3,
        )
        for k in range(offset, offset + count)
    ]


def _graph(triples: list[KnowledgeTriple]) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    graph.extend(triples)
    return graph


def kghealth(args: argparse.Namespace) -> Outcome:
    """Knowledge-plane health drive: snapshot drift gating under traffic.

    The inverse failure mode of :func:`rollout`.  Both scenarios' green
    snapshots serve every query perfectly, but the ``poisoned``
    scenario's *knowledge* is corrupted: every triple collapsed onto
    one relation with cratered plausibility scores.  Serving SLOs cannot
    see that, so the :class:`~repro.refresh.quality.SnapshotQualityGate`
    must block the rollout before the first replica is touched, while
    the ``healthy`` scenario (organic ~8% edge growth, same mix) must
    promote to completion.

    Artifacts: a ``repro.obs.kg_health/v1`` document (parent + candidate
    health, the drift report, the gate decision) and the event log
    carrying the ``rollout.gate_*`` edges.  Exit code 2 means request
    accounting broke, 1 means the gate tripped (blocked or
    knowledge-quality rollback) or a mixed-version answer leaked, 0 a
    clean promotion.
    """
    n = args.n_queries
    blue_triples = _edges(n, 2 * n)
    if args.scenario == "healthy":
        green_triples = blue_triples + _edges(n, max(4, n // 6), offset=2 * n)
    else:
        # The serving table is complete — requests will be answered and
        # no SLO will burn — but the knowledge behind it collapsed onto
        # IS_A with near-zero plausibility.  Only the gate can see this.
        green_triples = _edges(n, 2 * n, relation_cycle=(Relation.IS_A,),
                               plaus_base=0.03, plaus_span=0.0)
    note = "green refresh" if args.scenario == "healthy" else "poisoned refresh"
    run = _gated_rollout(args, "KG health drive", "kghealth-traffic", note,
                         _graph(blue_triples), _graph(green_triples))

    decision = run.gate.assess(run.green)   # cached from the controller's ticks
    health_doc = kg_health_report(
        [decision.parent_health, decision.health]
        if decision.parent_health is not None else [decision.health],
        drift=[decision.drift] if decision.drift is not None else [],
        gates=[decision],
    )
    validate_kg_health(health_doc)
    events_text = render_events(run.cluster.event_log)
    validate_events(events_text)

    report = run.controller.report()
    totals = run.cluster.metrics_totals()
    parent_health = decision.parent_health
    table = Table("KG health drive", ["Metric", "Value"])
    table.add_row("Scenario", args.scenario)
    table.add_row("Gate verdict", "PROMOTE" if decision.promote else "BLOCK")
    table.add_row("Drift breaches", len(decision.breaches))
    table.add_row("Rollout state", report.state)
    table.add_row("Candidate triples / nodes",
                  f"{decision.health.triples} / {decision.health.nodes}")
    if parent_health is not None:
        table.add_row("Parent triples / nodes",
                      f"{parent_health.triples} / {parent_health.nodes}")
    table.add_row("Candidate mean plausibility",
                  f"{decision.health.plausibility.mean:.3f}")
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(run.cluster.availability))
    table.add_row("Mixed-version answers", run.violations)
    gate_tripped = (report.blocked
                    or report.rollback_objective == "knowledge-quality")
    ok, (versions, *verdicts) = run.verdict_lines()
    lines = [table.render()]
    lines += [f"drift breach: {breach}" for breach in decision.breaches]
    lines += [versions, f"gate verdict: {'BLOCK' if gate_tripped else 'PROMOTE'}"]
    lines += verdicts
    artifacts = {"health": _json(health_doc), "events": events_text}
    code = 2 if not ok else 1 if gate_tripped or run.violations else 0
    return Outcome(code, artifacts, "\n".join(lines))
