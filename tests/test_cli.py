"""CLI and scenario drives: argument parsing, the KG build/inspect
flow, and every drive's artifacts.

Each drive test replays its drive twice from CLI arguments (the
byte-determinism check) and then asserts the drive's semantics.  The
``*_CI`` argument lists are exactly the ones ``.github/workflows/ci.yml``
runs, so the artifacts CI uploads are the ones checked here.
"""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.kg_io import load_kg
from repro.obs import (
    validate_alert_report,
    validate_chrome_trace,
    validate_events,
    validate_kg_health,
    validate_snapshot,
    validate_timeline,
    validate_trace_summary,
)

OBS_CI = ["obs", "--seed", "3", "--scale", "0.12", "--lm-epochs", "1",
          "--requests", "120"]
CLUSTER_CI = ["cluster", "--seed", "3", "--replicas", "3", "--requests", "400",
              "--n-queries", "60", "--fault-rate", "0.1"]
MONITOR_CI = ["monitor", "--seed", "0", "--scenario", "chaos"]
TRACE_CI = ["trace", "--seed", "7", "--replicas", "3", "--requests", "400",
            "--n-queries", "120", "--fault-rate", "0.15"]
ROLLOUT_CI = ["rollout", "--seed", "0", "--scenario"]
KGHEALTH_CI = ["kghealth", "--seed", "7", "--scenario"]


def replay(argv):
    """Run one drive twice; artifacts and exit code must match byte for
    byte.  Returns the first run's outcome."""

    def run():
        args = build_parser().parse_args(argv)
        return args.drive(args)

    first, second = run(), run()
    assert first.artifacts == second.artifacts
    assert first.code == second.code
    return first


def _kinds(events_text):
    return {e["kind"] for e in validate_events(events_text)}


def _blue_green(events_text):
    """``(blue, green)`` snapshot versions: the version installed first
    and the version the quality gate assessed."""
    events = validate_events(events_text)
    blue = next(e["attrs"]["version"] for e in events
                if e["kind"] == "service.snapshot_swap")
    green = next(e["attrs"]["version"] for e in events
                 if e["kind"] in ("rollout.gate_pass", "rollout.gate_block"))
    return blue, green


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_build_kg_writes_file(tmp_path, capsys):
    out = tmp_path / "kg.jsonl"
    code = main([
        "build-kg", "--seed", "3", "--scale", "0.12",
        "--lm-epochs", "1", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    kg = load_kg(out)
    assert len(kg) > 0
    captured = capsys.readouterr().out
    assert "nodes" in captured and "Annotated quality" in captured


def test_inspect_kg(tmp_path, capsys):
    out = tmp_path / "kg.jsonl"
    main(["build-kg", "--seed", "3", "--scale", "0.12", "--lm-epochs", "1",
          "--out", str(out)])
    capsys.readouterr()
    code = main(["inspect-kg", str(out), "--sample", "2"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Edges per domain" in captured


def test_generate_requires_arguments():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["generate", "--query", "x"])  # missing required


def test_obs_artifacts_valid_nested_and_deterministic():
    outcome = replay(OBS_CI)
    assert outcome.code == 0

    trace = json.loads(outcome.artifacts["trace"])
    validate_chrome_trace(trace)
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_name = {e["name"]: e for e in events}
    root = by_name["pipeline.run"]
    assert root["args"]["parent_id"] == -1
    # Stage spans nest under the pipeline root.
    stage = by_name["pipeline.teacher_generation"]
    assert stage["args"]["parent_id"] == root["args"]["span_id"]
    assert "serving.run_batch" in by_name

    validate_snapshot(json.loads(outcome.artifacts["metrics"]))
    assert "request accounting" in outcome.report and "OK" in outcome.report
    assert "wall-clock profile" in outcome.report


def test_cluster_artifacts_valid_and_deterministic():
    outcome = replay(CLUSTER_CI)
    assert outcome.code == 0

    trace = json.loads(outcome.artifacts["trace"])
    validate_chrome_trace(trace)
    # Cluster spans and every replica's serving spans share the merged
    # timeline, split by process name.
    processes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M"}
    assert {"cluster", "cluster-r0", "cluster-r1", "cluster-r2"} <= processes

    snap = json.loads(outcome.artifacts["metrics"])
    validate_snapshot(snap)
    families = {metric["name"] for metric in snap["metrics"]}
    assert {"cluster_requests_total", "cluster_failovers_total",
            "cluster_batch_flushes_total"} <= families
    assert "request accounting" in outcome.report and "OK" in outcome.report


def test_cluster_rejects_bad_fault_rate(capsys):
    assert main(["cluster", "--fault-rate", "1.5", "--requests", "1"]) == 2
    assert "--fault-rate" in capsys.readouterr().out


def _check_trace(outcome):
    assert outcome.code == 0
    assert "tracing invariants: OK" in outcome.report
    assert "slowest retained trace" in outcome.report
    assert re.search(r"Exemplar buckets +\| +[1-9]", outcome.report)

    trace = json.loads(outcome.artifacts["trace"])
    validate_chrome_trace(trace)
    flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]
    assert flows, "expected cross-tracer flow links in the Chrome trace"

    summary = json.loads(outcome.artifacts["summary"])
    validate_trace_summary(summary)
    traces = summary["traces"]
    assert traces, "expected retained traces in the summary"
    assert all(t["connected"] for t in traces)
    # Fault injection on: at least one degraded/fallback trace survives
    # tail sampling (flagged traces are always retained).
    assert any(t["outcome"] in ("degraded", "fallback") for t in traces)
    assert all(abs(sum(t["stages"].values()) - t["duration_s"]) < 1e-9
               for t in traces), "stage breakdown must sum to the charge"

    events = validate_events(outcome.artifacts["events"])
    assert any("trace_id" in e["attrs"] for e in events)


def test_trace_artifacts_valid_and_deterministic():
    _check_trace(replay([
        "trace", "--seed", "5", "--replicas", "2", "--requests", "200",
        "--n-queries", "60", "--fault-rate", "0.2",
    ]))


def test_trace_ci_drive_holds_every_tracing_invariant():
    _check_trace(replay(TRACE_CI))


def test_trace_rejects_bad_fault_rate(capsys):
    assert main(["trace", "--fault-rate", "-0.1", "--requests", "1"]) == 2
    assert "--fault-rate" in capsys.readouterr().out


def test_monitor_chaos_fires_and_correlates_alerts():
    outcome = replay(MONITOR_CI)
    # Fired alerts make the run exit non-zero even though they resolved.
    assert outcome.code == 1

    validate_timeline(json.loads(outcome.artifacts["timeline"]))
    report = json.loads(outcome.artifacts["alerts"])
    validate_alert_report(report)
    assert report["fired"] is True
    resolved = [a for o in report["objectives"] for a in o["alerts"]
                if a["state"] == "resolved"]
    assert resolved, "fired alerts should resolve by end of recovery"
    availability = next(o for o in report["objectives"]
                        if o["name"] == "availability")
    (alert,) = availability["alerts"]
    assert alert["state"] == "resolved"
    assert alert["pending_ts"] < alert["firing_ts"] < alert["resolved_ts"]

    events = validate_events(outcome.artifacts["events"])
    kinds = {e["kind"] for e in events}
    assert {"breaker.open", "router.drain", "router.restore",
            "service.degraded_entry", "service.degraded_exit"} <= kinds
    # The resolved alert cross-references the operational transitions
    # that explain it.
    by_id = {e["event_id"]: e for e in events}
    correlated = {by_id[i]["kind"] for i in alert["event_ids"] if i in by_id}
    assert "breaker.open" in correlated and "router.drain" in correlated
    assert "request accounting" in outcome.report and "OK" in outcome.report


def test_monitor_clean_scenario_stays_quiet(tmp_path, capsys):
    timeline = tmp_path / "timeline.json"
    alerts = tmp_path / "alerts.json"
    events = tmp_path / "events.jsonl"
    code = main([
        "monitor", "--seed", "0", "--scenario", "clean",
        "--requests-per-phase", "200",
        "--out-timeline", str(timeline), "--out-alerts", str(alerts),
        "--out-events", str(events),
    ])
    assert code == 0
    report = json.loads(alerts.read_text())
    assert report["fired"] is False
    assert all(not o["alerts"] for o in report["objectives"])
    validate_timeline(json.loads(timeline.read_text()))
    validate_events(events.read_text())
    out = capsys.readouterr().out
    assert f"Wrote alert report to {alerts}" in out
    assert "SLO verdict: no alerts fired" in out


def test_lint_subcommand_delegates_to_cosmolint(tmp_path, capsys):
    dirty = tmp_path / "mod.py"
    dirty.write_text("import numpy as np\nr = np.random.default_rng(1)\n")
    assert main(["lint", str(dirty)]) == 1
    assert "[unscoped-rng]" in capsys.readouterr().out

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    capsys.readouterr()

    # Every cosmolint flag passes through unchanged.
    assert main(["lint", "--list-rules"]) == 0
    assert "batch-entrypoint-only" in capsys.readouterr().out
    assert main(["lint", "--select", "wall-clock", str(dirty)]) == 0


def test_rollout_healthy_completes_and_is_deterministic():
    outcome = replay(ROLLOUT_CI + ["healthy"])
    assert outcome.code == 0
    # Content addresses, pinned: hashing the same knowledge differently
    # must not re-version the snapshots CI deploys.
    assert _blue_green(outcome.artifacts["events"]) == (
        "v-8423c6c457ab", "v-0b0462848d90")

    validate_timeline(json.loads(outcome.artifacts["timeline"]))
    report = json.loads(outcome.artifacts["alerts"])
    validate_alert_report(report)
    assert report["fired"] is False

    events = validate_events(outcome.artifacts["events"])
    kinds = [e["kind"] for e in events]
    assert "rollout.start" in kinds
    assert "service.snapshot_swap" in kinds
    assert "rollout.complete" in kinds
    assert "rollout.rollback_start" not in kinds
    # One atomic swap per replica (default --replicas 3).
    assert kinds.count("rollout.swap") == 3
    assert "Rollout state" in outcome.report and "complete" in outcome.report
    assert "request accounting" in outcome.report and "OK" in outcome.report
    assert "no alerts fired" in outcome.report


def test_rollout_poisoned_rolls_back_and_redrives():
    outcome = replay(ROLLOUT_CI + ["poisoned"])
    # Accounting holds and nothing mixed-version leaked, so the exit is
    # clean even though the rollout aborted: the guard doing its job is
    # not an operator error.
    assert outcome.code == 0
    assert _blue_green(outcome.artifacts["events"]) == (
        "v-8423c6c457ab", "v-7fb0e3d47280")

    events = validate_events(outcome.artifacts["events"])
    kinds = [e["kind"] for e in events]
    assert "rollout.start" in kinds
    assert "service.snapshot_swap" in kinds
    assert "rollout.rollback_start" in kinds
    assert "rollout.rollback_complete" in kinds
    assert "rollout.complete" not in kinds
    assert "service.redrive" in kinds
    start = next(e for e in events if e["kind"] == "rollout.rollback_start")
    assert start["attrs"]["objective"] in ("availability", "latency-p99")

    # The rollback lands while the alert is still pending, so nothing
    # ever fires: the guard acted before the page would have gone out.
    report = json.loads(outcome.artifacts["alerts"])
    validate_alert_report(report)
    assert report["fired"] is False
    assert "rolled_back" in outcome.report
    assert "rollback: objective" in outcome.report
    assert "request accounting" in outcome.report and "OK" in outcome.report


# -- kghealth drive --------------------------------------------------------
_KGHEALTH_ARGS = [
    "kghealth", "--seed", "0", "--replicas", "2", "--n-queries", "48",
    "--requests-per-phase", "400",
]


def _check_kghealth(outcome, scenario):
    doc = json.loads(outcome.artifacts["health"])
    validate_kg_health(doc)
    (gate,) = doc["gates"]
    kinds = _kinds(outcome.artifacts["events"])
    # The green snapshot serves perfectly either way: the SLO guard sees
    # nothing and only the knowledge gate decides.
    assert "no alerts fired" in outcome.report
    assert "request accounting" in outcome.report and "OK" in outcome.report
    if scenario == "healthy":
        assert outcome.code == 0
        assert len(doc["snapshots"]) == 2       # parent + candidate lineage
        assert len(doc["drift"]) == 1
        assert gate["promote"] is True and gate["breaches"] == []
        assert doc["drift"][0]["breaches"] == []
        assert {"rollout.gate_pass", "rollout.start",
                "rollout.complete"} <= kinds
        assert "rollout.gate_block" not in kinds
        assert "gate verdict: PROMOTE" in outcome.report
    else:
        # Exit 1 distinguishes "gate tripped" from exit 2 "accounting broke".
        assert outcome.code == 1
        assert gate["promote"] is False
        assert any(b.startswith("relation-mix-shift") for b in gate["breaches"])
        assert {"rollout.gate_block", "rollout.blocked"} <= kinds
        assert "rollout.start" not in kinds     # never touched a replica
        assert "rollout.swap" not in kinds
        assert "gate verdict: BLOCK" in outcome.report
        assert "drift breach: " in outcome.report
        assert "blocked" in outcome.report


def test_kghealth_healthy_promotes_and_is_deterministic():
    _check_kghealth(replay(_KGHEALTH_ARGS + ["--scenario", "healthy"]), "healthy")


def test_kghealth_poisoned_blocks_before_first_swap():
    _check_kghealth(replay(_KGHEALTH_ARGS + ["--scenario", "poisoned"]), "poisoned")


_KGHEALTH_CI_GREEN = {"healthy": "v-bbb6a28b1813", "poisoned": "v-c33f28a653d6"}


@pytest.mark.parametrize("scenario", ["healthy", "poisoned"])
def test_kghealth_ci_scenarios_gate_as_expected(scenario):
    outcome = replay(KGHEALTH_CI + [scenario])
    _check_kghealth(outcome, scenario)
    assert _blue_green(outcome.artifacts["events"]) == (
        "v-68b6e03dab0a", _KGHEALTH_CI_GREEN[scenario])
