#!/usr/bin/env python3
"""COSMO wall-clock benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Workloads: ``serve-hot``, ``serve-churn`` and ``build-kg`` (see
``perfbench/README.md``).  The program is imported from ``src/``.  The
report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
run with ``--trace 1``.  The exit code is 0 only when every correctness
and determinism check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-hot", "serve-churn", "build-kg")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(outcome, trace: bool) -> dict:
    """Print the human-readable report; return the final JSON object."""
    from spans import PER_LAYER
    from workloads import END_TO_END

    print(f"== {outcome.workload} ==")
    print("inputs:")
    for name, value in outcome.provenance:
        print(f"  {name:<34s} {_fmt(value)}")
    if outcome.phases:
        print("phases (sent / succeeded / failed, seconds inside program calls; "
              "open loop: backlog at end, max lateness):")
    for phase in outcome.phases:
        line = (f"  {phase.name:<20s} {phase.sent:>8d} {phase.succeeded:>8d} "
                f"{phase.failed:>6d} {phase.program_s:>8.3f} s")
        if phase.refresh_s:
            line += f"   refresh {', '.join(f'{x:.3f}' for x in phase.refresh_s)} s"
        if phase.name == "open loop":
            line += f"   backlog {phase.backlog_end} windows, max lateness " \
                    f"{phase.max_lateness_s * 1000:.3f} ms"
        print(line)
    print("end-to-end:")
    for name, value, unit, note in outcome.named:
        print(f"  {name:<24s} {_fmt(value):>14s} {unit:<6s} {note}")
    if outcome.sim:
        print("simulated readouts (identical in every phase):")
        for name, value in outcome.sim.items():
            print(f"  {name:<24s} {_fmt(value)}")
    if outcome.per_layer is not None:
        print("per-layer (traced run):")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<32s} {_fmt(outcome.per_layer[name]):>14s} {unit}")
        print("hotspots (traced run):")
        for line in outcome.hotspots:
            print(f"  {line}")
    print("checks:", "all passed" if outcome.correct else "FAILED")
    for problem in outcome.problems:
        print(f"  {problem}")
    if trace:
        metrics = {name: {"value": outcome.per_layer[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": outcome.end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    # One process, one thread: numerical libraries must not fan out
    # across cores before numpy is first imported.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    scratch = state / f"run-{os.getpid()}"
    scratch.mkdir()
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            scratch)
    result = report(outcome, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
