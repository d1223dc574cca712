"""The ``build-kg`` workload: ``CosmoPipeline.run`` at a fixed small scale.

One run builds several simulated worlds, one KG each.  At this scale the
work a build does swings by about a quarter from one world to the next
(the instruction dataset COSMO-LM is finetuned on ranges from about 950
to 1,300 examples), so a single world per run would measure the world
more than the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from inputs import capture_losses, pipeline_config
from repro.core import CosmoPipeline
from repro.obs.kg_health import funnel_from_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.timebase import wall_now

#: Pipeline scale and COSMO-LM epochs, the ``build-kg`` CLI command's shape.
SCALE = 0.2
LM_EPOCHS = 3
#: A build finishing later than this misses the daily refresh it feeds.
LIMIT_S = 60.0
#: Wall seconds of ``--seconds`` budgeted per build: the run builds
#: ``round(seconds / SECONDS_PER_BUILD)`` worlds, at least one.
SECONDS_PER_BUILD = 10.0


def world_seeds(seed: int, seconds: int) -> list[int]:
    """Pipeline seeds of the worlds one run builds; no two runs share one."""
    count = max(1, round(seconds / SECONDS_PER_BUILD))
    return [seed * count + index for index in range(count)]


@dataclass
class Build:
    wall_s: float
    edges: int
    samples: int
    losses: list[float]
    funnel: dict[str, int]

    def identity(self) -> str:
        """Everything a build computes that must not depend on wall time."""
        return repr((self.edges, self.samples, self.losses, sorted(self.funnel.items())))


def make_config(seed: int):
    return pipeline_config(seed, SCALE, LM_EPOCHS)


def run_build(config, recorder=None) -> Build:
    registry = MetricsRegistry()
    with capture_losses() as losses:
        start = wall_now()
        if recorder is None:
            result = CosmoPipeline(config, registry=registry).run()
        else:
            with recorder.root("client.build", "build"):
                result = CosmoPipeline(config, registry=registry).run()
        wall_s = wall_now() - start
    return Build(wall_s=wall_s, edges=len(result.kg), samples=len(result.samples),
                 losses=losses[-1], funnel=funnel_from_registry(registry))


def check_build(build: Build) -> list[str]:
    """The knowledge funnel narrows, the KG is non-empty, training ran."""
    problems = []
    funnel = build.funnel
    if not (funnel.get("candidates", 0) >= funnel.get("filtered", 0)
            >= funnel.get("critic_accepted", 0) > 0):
        problems.append(f"funnel does not narrow: {funnel}")
    if build.edges <= 0:
        problems.append("the KG is empty")
    if not build.losses or not all(math.isfinite(x) for x in build.losses):
        problems.append(f"finetune losses are not finite: {build.losses}")
    return problems
