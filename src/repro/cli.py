"""Command-line interface: build and inspect the KG, run the drives.

The drives live in :mod:`repro.scenarios`; this module parses their
flags and writes each artifact a drive returns to its ``--out-<name>``
path.  ``lint`` hands every argument after it to cosmolint unchanged.

Usage::

    python -m repro.cli build-kg --seed 7 --scale 0.5 --out kg.jsonl
    python -m repro.cli inspect-kg kg.jsonl
    python -m repro.cli generate --seed 7 --query "winter camping essentials" \
        --product-type "camping tent" --domain "Sports & Outdoors"
    python -m repro.cli chaos --seed 7 --fault-rate 0.1
    python -m repro.cli obs --seed 7 --out-trace trace.json --out-metrics metrics.json
    python -m repro.cli cluster --seed 7 --replicas 3 --requests 2000
    python -m repro.cli monitor --seed 0 --scenario chaos \
        --out-timeline timeline.json --out-alerts alerts.json --out-events events.jsonl
    python -m repro.cli rollout --seed 0 --scenario poisoned \
        --out-timeline timeline.json --out-alerts alerts.json --out-events events.jsonl
    python -m repro.cli kghealth --seed 0 --scenario poisoned \
        --out-health kg_health.json --out-events events.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro import scenarios
from repro.core import CosmoPipeline
from repro.core.kg_io import load_kg, save_kg
from repro.lint.cli import main as lint_main
from repro.reporting import Table, format_percent

__all__ = ["build_parser", "main"]


def cmd_build_kg(args: argparse.Namespace) -> int:
    config = scenarios.pipeline_config(args.seed, args.scale, args.lm_epochs)
    print(f"Building the COSMO KG (seed={args.seed}, scale={args.scale})...")
    result = CosmoPipeline(config).run()
    stats = result.kg.stats()
    print(f"KG: {stats.nodes} nodes, {stats.edges} edges, "
          f"{stats.relations} relations, {stats.domains} domains")
    table = Table("Annotated quality", ["Behavior", "Plausibility", "Typicality"])
    for behavior, ratios in sorted(result.quality_ratios.items()):
        table.add_row(behavior, format_percent(ratios["plausibility"]),
                      format_percent(ratios["typicality"]))
    print(table.render())
    if args.out:
        written = save_kg(result.kg, args.out)
        print(f"Wrote {written} edges to {args.out}")
    return 0


def cmd_inspect_kg(args: argparse.Namespace) -> int:
    kg = load_kg(args.path)
    stats = kg.stats()
    print(f"{args.path}: {stats.nodes} nodes, {stats.edges} edges, "
          f"{stats.relations} relations, {stats.domains} domains")
    table = Table("Edges per domain", ["Domain", "co-buy", "search-buy"])
    domains = sorted({t.domain for t in kg.triples()})
    for domain in domains:
        table.add_row(domain, kg.edges_for(domain, "co-buy"),
                      kg.edges_for(domain, "search-buy"))
    print(table.render())
    for triple in kg.triples()[: args.sample]:
        print(f"  {triple.head.split(' ||| ')[0]!r} --{triple.relation.value}--> {triple.tail!r}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = scenarios.pipeline_config(args.seed, args.scale, args.lm_epochs)
    print("Training COSMO-LM (one pipeline run)...")
    result = CosmoPipeline(config).run()
    lm = result.cosmo_lm
    prompt = lm.searchbuy_prompt(args.query, args.product_title or args.product_type,
                                 args.domain, product_type=args.product_type)
    generation = lm.generate_batch([prompt]).require()[0]
    print(f"query:     {args.query!r}")
    print(f"product:   {args.product_type!r} ({args.domain})")
    print(f"knowledge: {generation.text!r}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.serving.chaos import ChaosConfig, run_chaos, run_outage_demo

    if args.outage_demo:
        service, phases = run_outage_demo(seed=args.seed)
        print("Sustained-outage demo (availability per phase):")
        for name, availability in phases.items():
            print(f"  {name:9s} {availability:.1%}")
        breaker = service.breaker
        print(f"  breaker: {breaker.opens} open(s), {breaker.closes} close(s), "
              f"{breaker.refusals} fast refusal(s), final state {breaker.state.value}")
        print(f"  dead-lettered {service.metrics.dead_lettered}, "
              f"redriven {service.metrics.redriven}")
        return 0

    if not 0.0 <= args.fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got {args.fault_rate}")
        return 2
    config = ChaosConfig(
        fault_rate=args.fault_rate,
        resilience=not args.no_resilience,
        seed=args.seed,
        requests_per_day=args.requests_per_day,
        days=args.days,
    )
    arm = "on" if config.resilience else "off"
    print(f"Chaos simulation: fault rate {config.fault_rate:.0%}, resilience {arm}, "
          f"{config.days} measured day(s) of {config.requests_per_day} requests...")
    report = run_chaos(config)
    table = Table("Chaos simulation — measured window", ["Metric", "Value"])
    table.add_row("Requests", report.requests)
    table.add_row("Availability (valid knowledge)", format_percent(report.availability))
    table.add_row("Served (fresh + degraded)", format_percent(report.served_availability))
    table.add_row("Degraded serves", report.degraded)
    table.add_row("Fallbacks", report.fallbacks)
    table.add_row("Retries", report.retries)
    table.add_row("Generator failures", report.generator_failures)
    table.add_row("Rejected generations", report.rejected_generations)
    table.add_row("Dead-lettered / redriven", f"{report.dead_lettered} / {report.redriven}")
    table.add_row("Breaker opens / closes", f"{report.breaker_opens} / {report.breaker_closes}")
    table.add_row("p50 / p99 latency", f"{report.percentile_ms(50):.1f} / "
                  f"{report.percentile_ms(99):.1f} ms")
    print(table.render())
    return 0


def _drive_parser(sub, name: str, drive, help: str, *, n_queries: int = 120,
                  inter_arrival_ms: float = 5.0, max_batch_size: int = 16,
                  max_queue_depth: int = 300) -> argparse.ArgumentParser:
    """A cluster drive's subparser with the seven flags every drive shares."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--n-queries", type=int, default=n_queries,
                        help="distinct queries in the Zipf traffic universe")
    parser.add_argument("--inter-arrival-ms", type=float, default=inter_arrival_ms,
                        help="simulated gap between request arrivals")
    parser.add_argument("--max-batch-size", type=int, default=max_batch_size)
    parser.add_argument("--max-batch-delay-s", type=float, default=0.25,
                        help="bound on oldest-pending staleness before a "
                             "deadline flush (simulated seconds)")
    parser.add_argument("--max-queue-depth", type=int, default=max_queue_depth)
    parser.set_defaults(drive=drive)
    return parser


def _slo_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scrape-interval-s", type=float, default=0.5,
                        help="time-series scrape grid (simulated seconds); "
                             "rollouts advance one step per scrape")
    parser.add_argument("--latency-slo-s", type=float, default=0.25,
                        help="latency objective threshold (p99-style bound)")


def _out_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--out-{name}", type=str, default="",
                            help=f"write the {scenarios.ARTIFACT_LABELS[name]} here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-kg", help="run the pipeline and export the KG")
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--scale", type=float, default=0.5,
                       help="world/sampling scale factor (1.0 = default sizes)")
    build.add_argument("--lm-epochs", type=int, default=10)
    build.add_argument("--out", type=str, default="",
                       help="write the KG to this JSONL path")
    build.set_defaults(func=cmd_build_kg)

    inspect = sub.add_parser("inspect-kg", help="summarize an exported KG")
    inspect.add_argument("path")
    inspect.add_argument("--sample", type=int, default=5)
    inspect.set_defaults(func=cmd_inspect_kg)

    generate = sub.add_parser("generate", help="generate knowledge for one behavior")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--scale", type=float, default=0.4)
    generate.add_argument("--lm-epochs", type=int, default=10)
    generate.add_argument("--query", required=True)
    generate.add_argument("--product-type", required=True)
    generate.add_argument("--product-title", default="")
    generate.add_argument("--domain", required=True)
    generate.set_defaults(func=cmd_generate)

    chaos = sub.add_parser(
        "chaos", help="fault-injected serving simulation (resilience ablation)")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--fault-rate", type=float, default=0.1,
                       help="headline injected fault rate (see FaultPlan.mixed)")
    chaos.add_argument("--no-resilience", action="store_true",
                       help="disable retries, circuit breaker and degraded serving")
    chaos.add_argument("--requests-per-day", type=int, default=1500)
    chaos.add_argument("--days", type=int, default=2,
                       help="measured days of traffic (after one warmup day)")
    chaos.add_argument("--outage-demo", action="store_true",
                       help="also run the scripted sustained-outage scenario")
    chaos.set_defaults(func=cmd_chaos)

    obs = sub.add_parser(
        "obs",
        help="run a small pipeline + serving day under tracing; dump artifacts")
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--scale", type=float, default=0.3)
    obs.add_argument("--lm-epochs", type=int, default=4)
    obs.add_argument("--requests", type=int, default=600,
                     help="requests in the simulated serving day")
    obs.add_argument("--chunk", type=int, default=200,
                     help="requests between batch-processing cycles")
    _out_flags(obs, "trace", "metrics")
    obs.set_defaults(drive=scenarios.obs)

    cluster = _drive_parser(
        sub, "cluster", scenarios.cluster,
        "drive a sharded multi-replica serving cluster; dump artifacts",
        n_queries=150, inter_arrival_ms=1.0, max_queue_depth=500)
    cluster.add_argument("--requests", type=int, default=2000)
    cluster.add_argument("--fault-rate", type=float, default=0.0,
                         help="per-replica injected fault rate (FaultPlan.mixed)")
    _out_flags(cluster, "trace", "metrics")
    cluster.add_argument("--verbose-metrics", action="store_true",
                         help="also print the full text exposition")

    trace = _drive_parser(
        sub, "trace", scenarios.trace,
        "end-to-end request tracing drive: trace trees, tail sampling, "
        "exemplars, critical paths", max_batch_size=8)
    trace.add_argument("--requests", type=int, default=400)
    trace.add_argument("--warm-queries", type=int, default=30,
                       help="Zipf-head queries preloaded into the yearly cache")
    trace.add_argument("--fault-rate", type=float, default=0.15,
                       help="per-replica injected fault rate (FaultPlan.mixed)")
    trace.add_argument("--slowest-k", type=int, default=3,
                       help="ordinary traces retained per sampling window")
    trace.add_argument("--window-s", type=float, default=60.0,
                       help="tail-sampling window in simulated seconds")
    trace.add_argument("--head-every", type=int, default=25,
                       help="retain every Nth ordinary trace as a baseline")
    _out_flags(trace, "trace", "summary", "events")

    monitor = _drive_parser(
        sub, "monitor", scenarios.monitor,
        "continuous-monitoring drive: time series, SLO alerts, event log")
    monitor.add_argument("--scenario", choices=("clean", "chaos"), default="chaos",
                         help="chaos scripts an outage + drain storm phase; "
                              "clean keeps faults off")
    monitor.add_argument("--requests-per-phase", type=int, default=600)
    _slo_flags(monitor)
    _out_flags(monitor, "timeline", "alerts", "events")

    rollout = _drive_parser(
        sub, "rollout", scenarios.rollout,
        "blue/green snapshot rollout drive with SLO-guarded rollback")
    rollout.add_argument("--scenario", choices=("healthy", "poisoned"),
                         default="healthy",
                         help="healthy rolls a complete green snapshot to "
                              "completion; poisoned rolls an empty one and "
                              "must auto-rollback")
    rollout.add_argument("--requests-per-phase", type=int, default=700,
                         help="requests in the warm and settle phases (the "
                              "rollout phase drives twice this)")
    _slo_flags(rollout)
    _out_flags(rollout, "timeline", "alerts", "events")

    kghealth = _drive_parser(
        sub, "kghealth", scenarios.kghealth,
        "knowledge-plane health drive: snapshot drift detection and "
        "quality-gated rollout")
    kghealth.add_argument("--scenario", choices=("healthy", "poisoned"),
                          default="healthy",
                          help="healthy rolls an organically-grown snapshot "
                               "to completion; poisoned rolls one whose "
                               "knowledge collapsed (relation mix + critic "
                               "scores) and must be gate-blocked")
    kghealth.add_argument("--requests-per-phase", type=int, default=500,
                          help="requests in the warm and settle phases (the "
                               "rollout phase drives twice this)")
    _slo_flags(kghealth)
    _out_flags(kghealth, "health", "events")

    # Parsed by cosmolint itself: main() forwards everything after "lint".
    sub.add_parser("lint", add_help=False,
                   help="run cosmolint, the repo's static invariant checker "
                        "(takes cosmolint's flags; see `repro lint --help`)")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if not hasattr(args, "drive"):
        return args.func(args)
    outcome = args.drive(args)
    for name, text in outcome.artifacts.items():
        path = getattr(args, f"out_{name}")
        if path:
            with open(path, "w") as handle:
                handle.write(text)
            print(f"Wrote {scenarios.ARTIFACT_LABELS[name]} to {path}")
    print(outcome.report)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
