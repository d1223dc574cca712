"""Open- and closed-loop drives of a 4-replica ``CosmoCluster``.

A phase sends a fixed list of windows through ``CosmoCluster.handle_batch``
and advances the simulated arrival clock by a fixed gap per window, so
what the program does never depends on wall time; only when each window
is sent does.  In the open loop windows fall due on a fixed real-time
schedule and each is timed from its due time, so a flush or refresh
stall is charged to every window queued behind it.  In the closed loop
one client sends windows back to back.

Work the benchmark does for itself between windows (accounting and the
mixed-version check) is excluded: the open-loop schedule is shifted by
its duration and the closed loop counts only time inside program calls.
"""

from __future__ import annotations

import copy
import gc
import pathlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Generator

import repro.core.kg_io as kg_io
import repro.refresh as refresh
from inputs import ChurnInputs, HotInputs, serving_table
from repro.obs.kg_health import kg_health_report, validate_kg_health
from repro.obs.timebase import wall_now
from repro.refresh import SnapshotQualityGate, SnapshotStore, mixed_version_violation
from repro.serving import BatchCostModel, ClusterConfig, CosmoCluster, ServeOutcome
from repro.serving.chaos import ScriptedGenerator

#: A request counts as answered in time when it carries knowledge (fresh
#: or degraded, not the fallback) within this many seconds of its due time.
LIMIT_S = 0.050

#: Ring seed of every cluster: the deployment is fixed, only traffic varies.
_RING_SEED = 7


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload: the deployment and its arrival process."""

    name: str
    rate_rps: float          # open-loop offered rate (requests per wall second)
    sim_gap_s: float         # simulated arrival gap per window
    max_batch_size: int
    max_batch_delay_s: float
    replicas: int = 4


@dataclass
class Deployment:
    """A cluster ready to serve, with the snapshot lineage a refresh needs."""

    cluster: CosmoCluster
    table: list[str] = field(default_factory=list)
    store: SnapshotStore | None = None
    gate: SnapshotQualityGate | None = None
    current: object = None


def _config(spec: ServeSpec) -> ClusterConfig:
    return ClusterConfig(n_replicas=spec.replicas, max_batch_size=spec.max_batch_size,
                         max_batch_delay_s=spec.max_batch_delay_s, seed=_RING_SEED,
                         name=spec.name)


def deploy_hot(spec: ServeSpec, inputs: HotInputs) -> Deployment:
    cluster = CosmoCluster(lambda index: ScriptedGenerator(), config=_config(spec),
                           batch_costs=BatchCostModel())
    cluster.preload_yearly(inputs.table)
    return Deployment(cluster=cluster)


def deploy_churn(spec: ServeSpec, inputs: ChurnInputs) -> Deployment:
    """Replicas each own a copy of the trained COSMO-LM; the feature
    store holds yesterday's knowledge for the whole query space, so a
    cache miss degrades to stale knowledge while the miss is decoded."""
    cluster = CosmoCluster(lambda index: copy.deepcopy(inputs.lm), config=_config(spec),
                           batch_costs=BatchCostModel(),
                           prompt_builder=inputs.prompts.__getitem__)
    route = cluster.router.route
    for query, text in inputs.stale.items():
        cluster.services[route(query)].features.put(query, text)
    store = SnapshotStore()
    store.add(inputs.base)
    gate = SnapshotQualityGate(store, registry=cluster.registry)
    if not gate.assess(inputs.base).promote:
        raise RuntimeError("the quality gate blocked the base snapshot")
    cluster.install_snapshot(inputs.base)
    return Deployment(cluster=cluster, table=inputs.table, store=store, gate=gate,
                      current=inputs.base)


@dataclass
class PhaseResult:
    """What one phase measured and what its checks found."""

    name: str
    sent: int = 0
    totals: dict = field(default_factory=dict)
    latency_s: list[float] = field(default_factory=list)   # per window
    program_s: float = 0.0        # time inside program calls
    wall_s: float = 0.0           # elapsed, less the benchmark's own bookkeeping
    max_lateness_s: float = 0.0
    backlog_end: int = 0
    within_limit: int = 0
    refresh_s: list[float] = field(default_factory=list)
    edges_per_refresh: list[int] = field(default_factory=list)
    pending_peak: int = 0
    sim: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.totals["served_fresh"] + self.totals["degraded_serves"]

    @property
    def failed(self) -> int:
        return self.totals["fallbacks"]


def _wait_until(deadline: float) -> None:
    remaining = deadline - wall_now()
    if remaining > 0.0005:
        time.sleep(remaining - 0.0003)
    while wall_now() < deadline:
        pass


_NULL = nullcontext()


def _prepare_snapshot(dep: Deployment, path: pathlib.Path):
    """Load a grown KG file, freeze it as a child snapshot and gate it."""
    graph = kg_io.load_kg_columnar(path)
    table = serving_table(graph, dep.table)
    snapshot = refresh.build_snapshot(table, graph=graph, parent=dep.current,
                                      note=path.stem)
    dep.store.add(snapshot)
    return snapshot, dep.gate.assess(snapshot), len(graph)


def _check_decision(decision, phase: PhaseResult) -> None:
    if not decision.promote:
        phase.violations.append(f"gate blocked {decision.version}: {decision.breaches}")
    reports = [decision.health] if decision.parent_health is None else [
        decision.parent_health, decision.health]
    try:
        validate_kg_health(kg_health_report(
            reports, drift=[decision.drift] if decision.drift is not None else [],
            gates=[decision]))
    except ValueError as error:
        phase.violations.append(f"health report of {decision.version}: {error}")


def sim_readouts(cluster: CosmoCluster, pending_peak: int) -> dict:
    """Simulated-clock and counter readouts; identical for one seed."""
    totals = cluster.metrics_totals()
    hits = lookups = 0
    for service in cluster.services.values():
        stats = service.cache.stats
        hits += stats.layer1_hits + stats.layer2_hits
        lookups += stats.requests
    flushes = {"size": 0, "deadline": 0, "forced": 0}
    for labels, child in cluster.registry.get("cluster_batch_flushes_total").samples():
        flushes[labels["trigger"]] += int(child.value)
    return {
        "sim.throughput_rps": cluster.requests / cluster.busy_horizon_s,
        "sim.p99_ms": cluster.percentile(99) * 1000.0,
        "sim.hit_ratio": totals["served_fresh"] / totals["requests"],
        "cache.hit_ratio": hits / lookups,
        "cluster.flushes.size": flushes["size"],
        "cluster.flushes.deadline": flushes["deadline"],
        "cluster.flushes.forced": flushes["forced"],
        "fallback_share": totals["fallbacks"] / totals["requests"],
        "cluster.shed_share": totals["shed"] / totals["requests"],
        "cache.pending_peak": pending_peak,
        "resilience.retries": sum(s.metrics.retries for s in cluster.services.values()),
        "resilience.dead_lettered": sum(s.metrics.dead_lettered
                                        for s in cluster.services.values()),
    }


def drive(name: str, dep: Deployment, spec: ServeSpec, windows: list[list[str]],
          refreshes: dict[int, pathlib.Path], open_loop: bool, recorder=None,
          chunks: int = 1) -> Generator[None, None, PhaseResult]:
    """Send every window once; refresh before the windows ``refreshes`` names.

    A refresh loads its KG file, builds and gates the child snapshot
    (blocking), then swaps one replica before each of the next windows
    while traffic keeps arriving.  The generator yields between ``chunks``
    equal runs of windows (never mid-refresh), so another phase can take
    turns with it; time spent away shifts the open-loop schedule and is
    excluded like the benchmark's own bookkeeping.  It returns the
    :class:`PhaseResult`.
    """
    cluster = dep.cluster
    phase = PhaseResult(name=name)

    def root(span: str, unit: str):
        return _NULL if recorder is None else recorder.root(span, unit)

    gap = len(windows[0]) / spec.rate_rps if open_loop else 0.0
    fallback = ServeOutcome.FALLBACK
    dues: list[float] = []
    starts: list[float] = []
    swaps: list[str] = []
    snapshot = None
    refresh_start = 0.0
    paused = 0.0
    chunk = -(-len(windows) // chunks)
    t0 = wall_now()
    for index, window in enumerate(windows):
        due = t0 + index * gap + paused
        if open_loop:
            _wait_until(due)
        if index in refreshes:
            unit = f"refresh-{len(phase.refresh_s)}"
            refresh_start = wall_now()
            with root("client.refresh", unit):
                snapshot, decision, edges = _prepare_snapshot(dep, refreshes[index])
            phase.program_s += wall_now() - refresh_start
            check_start = wall_now()
            phase.edges_per_refresh.append(edges)
            _check_decision(decision, phase)
            dep.current = snapshot
            swaps = list(cluster.router.replicas)
            paused += wall_now() - check_start
        if swaps:
            swap_start = wall_now()
            with root("client.swap", f"refresh-{len(phase.refresh_s)}"):
                cluster.swap_snapshot(swaps.pop(0), snapshot)
            swap_end = wall_now()
            phase.program_s += swap_end - swap_start
            if not swaps:
                phase.refresh_s.append(swap_end - refresh_start)
                versions = set(cluster.snapshot_versions().values())
                if versions != {snapshot.version}:
                    phase.violations.append(f"replicas on {sorted(versions)} after "
                                            f"promoting {snapshot.version}")
                paused += wall_now() - swap_end
        start = wall_now()
        with root("client.window", f"w{index}"):
            results = cluster.handle_batch(window)
        end = wall_now()
        # --- benchmark bookkeeping, excluded from every timing ---
        cluster.clock.advance(spec.sim_gap_s)
        phase.program_s += end - start
        dues.append(due)
        starts.append(start)
        latency = end - due if open_loop else end - start
        phase.latency_s.append(latency)
        if latency <= LIMIT_S:
            phase.within_limit += sum(1 for r in results if r.outcome is not fallback)
        phase.sent += len(window)
        phase.pending_peak = max(phase.pending_peak, cluster.queue_depth)
        if dep.store is not None and not swaps:
            for result in results:
                if mixed_version_violation(dep.store, cluster, result):
                    phase.violations.append(f"mixed-version answer for {result.query!r}")
        paused += wall_now() - end
        if (index + 1) % chunk == 0 and not swaps and index + 1 < len(windows):
            away = wall_now()
            yield
            paused += wall_now() - away
    drain_start = wall_now()
    with root("client.drain", "drain"):
        cluster.flush()
    drain_end = wall_now()
    phase.program_s += drain_end - drain_start
    phase.wall_s = drain_end - t0 - paused
    if open_loop:
        last_due = dues[-1]
        phase.max_lateness_s = max(0.0, max(s - d for s, d in zip(starts, dues)))
        phase.backlog_end = sum(1 for s in starts if s > last_due)
    phase.totals = cluster.metrics_totals()
    totals = phase.totals
    accounted = totals["served_fresh"] + totals["degraded_serves"] + totals["fallbacks"]
    if not phase.sent == totals["requests"] == accounted == totals["handled"]:
        phase.violations.append(
            f"accounting: sent {phase.sent}, requests {totals['requests']}, "
            f"fresh+degraded+fallbacks {accounted}, handled {totals['handled']}")
    if swaps:
        phase.violations.append("a refresh was still rolling out when the phase ended")
    phase.sim = sim_readouts(cluster, phase.pending_peak)
    return phase


def quiesce() -> None:
    """Collect, then freeze everything alive out of garbage collection.

    Called before every measured stretch, so the collections inside it
    scan only what the program allocates there, not the benchmark's
    inputs, spare deployments or another phase's state.
    """
    gc.collect()
    gc.freeze()


def run_phases(*drives: Generator[None, None, PhaseResult]) -> list[PhaseResult]:
    """Advance the drives in turns, one chunk each, until all have ended."""
    results: dict[int, PhaseResult] = {}
    while len(results) < len(drives):
        for index, running in enumerate(drives):
            if index in results:
                continue
            quiesce()
            try:
                next(running)
            except StopIteration as stop:
                results[index] = stop.value
    return [results[index] for index in range(len(drives))]
