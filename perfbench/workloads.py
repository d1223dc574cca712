"""The three workloads and the metrics each reports.

``serve-hot`` and ``serve-churn`` each run an open-loop phase and a
closed-loop phase over the *same* windows, each on its own identically
set-up cluster, taking turns chunk by chunk; with ``--trace 1`` a third
closed-loop phase follows under the span wrappers.  Because the phases
differ only in wall-clock timing, their simulated readouts must match
byte for byte: that is the determinism guard.  ``build-kg`` runs
``CosmoPipeline.run`` once per generated world; with ``--trace 1`` the
traced rebuild of the first world must compute the same result.
"""

from __future__ import annotations

import math
import pathlib
import resource
import shutil
import statistics
from dataclasses import dataclass, field

import build
import serving
from inputs import WINDOW, churn_inputs, hot_inputs
from repro.behavior.world import World
from repro.obs.timebase import wall_now
from serving import ServeSpec
from spans import SpanRecorder, hotspots, instrument, layer_metrics

#: End-to-end metrics every workload reports, with their units.
END_TO_END = (("latency_p50_ms", "ms"), ("within_limit_share", "ratio"),
              ("throughput_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Share of ``--seconds`` the open loop lasts; the closed loop replays
#: the same windows at about three times the rate, in the remainder.
OPEN_SHARE = 0.75
#: Turns the open and closed loops take, each sending 1/CHUNKS of its windows.
CHUNKS = 8

HOT = ServeSpec("serve-hot", rate_rps=6000.0, sim_gap_s=0.004,
                max_batch_size=16, max_batch_delay_s=0.25)
HOT_QUERIES, HOT_ZIPF = 2000, 1.1

CHURN = ServeSpec("serve-churn", rate_rps=500.0, sim_gap_s=0.008,
                  max_batch_size=128, max_batch_delay_s=0.4)
CHURN_INPUTS = dict(lm_seed=7, lm_scale=0.05, lm_epochs=3, table_size=2000, exponent=0.9,
                    kg_edges=100_000, growth=0.03, n_refreshes=1)

SETUPS = {"serve-hot": 11, "serve-churn": 3, "build-kg": 11}


@dataclass
class Outcome:
    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: The workload's own named metrics: (name, value, unit, note).
    named: list[tuple] = field(default_factory=list)
    provenance: list[tuple] = field(default_factory=list)
    phases: list = field(default_factory=list)
    sim: dict = field(default_factory=dict)
    per_layer: dict[str, float] | None = None
    hotspots: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def supported_percentile(samples: int) -> float:
    """The highest percentile (to 0.1) with at least ten samples beyond it."""
    return max(50.0, math.floor(1000.0 * (1.0 - 10.0 / samples)) / 10.0)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _timed_setups(count: int, make, keep: int):
    """Set up ``count`` times; the median time and the last ``keep`` results.

    Earlier results are dropped as soon as they are superseded, so spare
    set-ups do not count toward the run's peak memory.
    """
    times, made = [], []
    for _ in range(count):
        start = wall_now()
        made.append(make())
        times.append(wall_now() - start)
        del made[:-keep]
    return statistics.median(times), made


def _determinism(phases, outcome: Outcome) -> None:
    reference = phases[0].sim
    for phase in phases[1:]:
        if repr(phase.sim) != repr(reference):
            outcome.problems.append(
                f"determinism: {phase.name} readouts {phase.sim} differ from "
                f"{phases[0].name} readouts {reference}")
    outcome.sim = reference


def run_serving(spec: ServeSpec, seed: int, seconds: int, trace: bool,
                scratch: pathlib.Path) -> Outcome:
    outcome = Outcome(spec.name)
    n_windows = max(1, round(spec.rate_rps * OPEN_SHARE * seconds / WINDOW))
    churn = spec is CHURN
    counter = iter(range(SETUPS[spec.name]))

    def make():
        if churn:
            directory = scratch / f"setup-{next(counter)}"
            directory.mkdir()
            inputs = churn_inputs(seed, directory, n_windows=n_windows, **CHURN_INPUTS)
            plan = {n_windows // 2: inputs.refresh_files[0]}
            return inputs, serving.deploy_churn(spec, inputs), plan
        inputs = hot_inputs(seed, HOT_QUERIES, HOT_ZIPF, n_windows)
        return inputs, serving.deploy_hot(spec, inputs), {}

    setup_s, setups = _timed_setups(SETUPS[spec.name], make, keep=3 if trace else 2)
    inputs = setups[0][0]
    windows = inputs.windows

    # The open and closed loops take turns chunk by chunk, so both sample
    # the machine across the whole run rather than one after the other.
    (_, open_deployment, open_plan), (_, closed_deployment, closed_plan) = setups[:2]
    del setups[:2]
    open_phase, closed_phase = serving.run_phases(
        serving.drive("open loop", open_deployment, spec, windows, open_plan,
                      open_loop=True, chunks=CHUNKS),
        serving.drive("closed loop", closed_deployment, spec, windows, closed_plan,
                      open_loop=False, chunks=CHUNKS))
    del open_deployment, closed_deployment
    phases = [open_phase, closed_phase]
    if trace:
        _, deployment, plan = setups.pop()
        recorder = SpanRecorder()
        with instrument(recorder):
            traced, = serving.run_phases(serving.drive(
                "traced closed loop", deployment, spec, windows, plan,
                open_loop=False, recorder=recorder))
        phases.append(traced)
        recorder.write(scratch.parent / f"spans-{spec.name}-seed{seed}.jsonl")
    _determinism(phases, outcome)
    for phase in phases:
        outcome.problems.extend(f"{phase.name}: {v}" for v in phase.violations[:5])
        outcome.attempted += phase.sent
        outcome.failed += phase.failed
        outcome.phases.append(phase)
    if not churn and outcome.sim["cache.hit_ratio"] != 1.0:
        outcome.problems.append("serve-hot: a request missed the cache")

    # End-to-end metrics: open-loop latency, closed-loop capacity.
    latencies_ms = [x * 1000.0 for x in open_phase.latency_s]
    high_q = supported_percentile(len(latencies_ms))
    outcome.end_to_end = {
        "latency_p50_ms": percentile(latencies_ms, 50.0),
        "within_limit_share": open_phase.within_limit / open_phase.sent,
        "throughput_per_s": closed_phase.sent / closed_phase.program_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.named = [
        ("latency_p50_ms", outcome.end_to_end["latency_p50_ms"], "ms",
         f"open loop, {len(latencies_ms)} windows of {WINDOW}"),
        ("latency_p90_ms", percentile(latencies_ms, 90.0), "ms", "open loop"),
        (f"latency_p{high_q:g}_ms", percentile(latencies_ms, high_q), "ms",
         "open loop, highest percentile with 10 windows beyond"),
        ("within_limit_share", outcome.end_to_end["within_limit_share"], "ratio",
         f"knowledge within {serving.LIMIT_S * 1000:.0f} ms"),
        ("capacity_rps", outcome.end_to_end["throughput_per_s"], "1/s", "closed loop"),
        ("fallback_share", outcome.sim["fallback_share"], "ratio", "all phases"),
    ]
    if churn:
        refresh_s = open_phase.refresh_s + closed_phase.refresh_s
        outcome.named.append(("refresh_s", statistics.median(refresh_s), "s",
                              f"median of {len(refresh_s)} refreshes"))
        outcome.named.append(("lm_final_loss", inputs.lm_losses[-1], "nats",
                              "COSMO-LM trained in set-up"))
    outcome.named += [("setup_s", setup_s, "s", f"median of {SETUPS[spec.name]}"),
                      ("peak_rss_mb", outcome.end_to_end["peak_rss_mb"], "MB", "")]

    queries = [q for window in windows for q in window]
    table = set(inputs.table if churn else inputs.table.keys())
    outcome.provenance = [
        ("distinct queries", len(set(queries))),
        ("requests in the serving table", sum(q in table for q in queries) / len(queries)),
        ("offered rate (req/s)", spec.rate_rps),
        ("windows per phase", len(windows)),
    ]
    if churn:
        outcome.provenance.append(("query space", len(inputs.queries)))
        outcome.provenance.append(("KG edges per refresh", open_phase.edges_per_refresh))
        outcome.provenance.append(("COSMO-LM pipeline scale", CHURN_INPUTS["lm_scale"]))

    if trace:
        outcome.per_layer = layer_metrics(recorder, traced.wall_s, closed_phase.wall_s,
                                          traced.sim)
        outcome.hotspots = hotspots(recorder, traced.wall_s)
        coverage = outcome.per_layer["obs.self_coverage"]
        if abs(1.0 - coverage) > 0.05:
            outcome.problems.append(f"span self times cover {coverage:.3f} of the traced wall time")
    return outcome


def run_build_kg(seed: int, seconds: int, trace: bool, scratch: pathlib.Path) -> Outcome:
    outcome = Outcome("build-kg")
    configs = [build.make_config(world_seed)
               for world_seed in build.world_seeds(seed, seconds)]
    setup_s, (worlds,) = _timed_setups(
        SETUPS["build-kg"], lambda: [World(config.world) for config in configs], keep=1)
    builds: list[build.Build] = []
    for config in configs:
        serving.quiesce()
        builds.append(build.run_build(config))
    traced = None
    if trace:
        recorder = SpanRecorder()
        serving.quiesce()
        with instrument(recorder):
            traced = build.run_build(configs[0], recorder)
        recorder.write(scratch.parent / f"spans-build-kg-seed{seed}.jsonl")
        if traced.identity() != builds[0].identity():
            outcome.problems.append("determinism: the traced build differs from the untraced one")
    for candidate in builds + ([traced] if traced else []):
        outcome.problems.extend(build.check_build(candidate))
    times = [b.wall_s for b in builds]
    build_s = statistics.median(times)
    outcome.attempted = len(builds)
    outcome.failed = sum(1 for t in times if t > build.LIMIT_S)
    outcome.end_to_end = {
        "latency_p50_ms": build_s * 1000.0,
        "within_limit_share": sum(1 for t in times if t <= build.LIMIT_S) / len(times),
        "throughput_per_s": sum(b.samples for b in builds) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.named = [
        ("build_s", build_s, "s", f"median of {len(times)} builds, one per world"),
        ("build_max_s", max(times), "s", ""),
        ("within_limit_share", outcome.end_to_end["within_limit_share"], "ratio",
         f"builds within {build.LIMIT_S:.0f} s"),
        ("samples_per_s", outcome.end_to_end["throughput_per_s"], "1/s",
         "behaviour samples per build second"),
        ("lm_final_loss", statistics.median(b.losses[-1] for b in builds), "nats",
         "generation head, last epoch, median over worlds"),
        ("setup_s", setup_s, "s", f"median of {SETUPS['build-kg']} generations of the worlds"),
        ("peak_rss_mb", outcome.end_to_end["peak_rss_mb"], "MB", ""),
    ]
    outcome.provenance = [
        ("pipeline scale", build.SCALE), ("COSMO-LM epochs", build.LM_EPOCHS),
        ("pipeline seeds", [config.seed for config in configs]),
        ("products", [len(world.catalog) for world in worlds]),
        ("queries", [len(world.queries) for world in worlds]),
        ("behaviour samples", [b.samples for b in builds]),
        ("KG edges", [b.edges for b in builds]),
        ("build seconds", [round(t, 3) for t in times]),
    ]
    if traced is not None:
        funnel = traced.funnel
        readouts = {
            "filter.keep_ratio": funnel["filtered"] / funnel["candidates"],
            "critic.accept_ratio": funnel["critic_accepted"] / funnel["filtered"],
            "finetune.final_loss": traced.losses[-1],
        }
        outcome.per_layer = layer_metrics(recorder, traced.wall_s, times[0], readouts)
        outcome.hotspots = hotspots(recorder, traced.wall_s)
        coverage = outcome.per_layer["obs.self_coverage"]
        if abs(1.0 - coverage) > 0.05:
            outcome.problems.append(f"span self times cover {coverage:.3f} of the traced wall time")
    return outcome


def run(workload: str, seed: int, seconds: int, trace: bool,
        scratch: pathlib.Path) -> Outcome:
    try:
        if workload == "build-kg":
            return run_build_kg(seed, seconds, trace, scratch)
        return run_serving(HOT if workload == "serve-hot" else CHURN, seed, seconds,
                           trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
