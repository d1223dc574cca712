"""Seeded inputs for the three workloads.

Everything here is a pure function of ``--seed`` (and of the fixed
training seed of the churn deployment's COSMO-LM): the query traffic,
the knowledge-graph files a refresh loads, the pipeline configuration.
The program under test only ever sees these generated inputs.
"""

from __future__ import annotations

import pathlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.core.cosmo_lm import CosmoLM
from repro.core.kg import KnowledgeGraph
from repro.core.kg_io import save_kg_columnar
from repro.core.relations import Relation, verbalize
from repro.core.triples import KnowledgeTriple
from repro.refresh import KgSnapshot, build_snapshot
from repro.serving.chaos import ScriptedGenerator
from repro.utils.rng import spawn_rng

#: Requests per arrival window, as the cluster's batch ingress receives them.
WINDOW = 16


def pipeline_config(seed: int, scale: float, lm_epochs: int,
                    expand_with_lm: bool = True) -> PipelineConfig:
    """The ``build-kg`` CLI command's pipeline shape at ``scale``."""
    return PipelineConfig(
        seed=seed,
        world=WorldConfig(seed=seed).scaled(scale),
        cobuy_pairs_per_domain=max(10, int(120 * scale)),
        searchbuy_records_per_domain=max(10, int(150 * scale)),
        annotation_budget=max(100, int(1500 * scale)),
        lm=CosmoLMConfig(epochs=lm_epochs),
        expand_with_lm=expand_with_lm,
    )


def zipf_windows(seed: int, stream: str, n_keys: int, exponent: float,
                 n_windows: int) -> np.ndarray:
    """``n_windows`` x ``WINDOW`` key ranks drawn from Zipf(``exponent``)."""
    weights = 1.0 / np.arange(1, n_keys + 1) ** exponent
    weights /= weights.sum()
    rng = spawn_rng(seed, stream)
    return rng.choice(n_keys, size=(n_windows, WINDOW), p=weights)


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------
@dataclass
class HotInputs:
    windows: list[list[str]]
    table: dict[str, str]


def hot_inputs(seed: int, n_queries: int, exponent: float,
               n_windows: int) -> HotInputs:
    """Zipf traffic over ``n_queries`` queries, all in the yearly table."""
    names = [f"query {i:05d}" for i in spawn_rng(seed, "hot-names").permutation(n_queries)]
    ranks = zipf_windows(seed, "hot-traffic", n_queries, exponent, n_windows)
    windows = [[names[r] for r in row] for row in ranks.tolist()]
    table = {name: ScriptedGenerator.knowledge_for(name) for name in names}
    return HotInputs(windows=windows, table=table)


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------
_COLOURS = ("red", "blue", "green", "black", "white", "grey", "pink", "navy",
            "beige", "brown", "orange", "purple", "yellow", "teal")
_AUDIENCES = ("for kids", "for men", "for women", "for teens", "for seniors",
              "for dogs", "for cats", "for babies", "for students", "for nurses")
_OCCASIONS = ("birthday", "wedding", "travel", "camping", "office", "school",
              "holiday", "garden", "party", "gym")
_RELATIONS = tuple(Relation)


@dataclass
class ChurnInputs:
    """Everything the churn drive needs, built once per set-up."""

    lm: CosmoLM
    lm_losses: list[float]
    queries: list[str]           # by popularity rank
    prompts: dict[str, str]      # query -> COSMO-LM generation prompt
    stale: dict[str, str]        # query -> yesterday's knowledge (feature store)
    table: list[str]             # the top ranks the snapshot serves
    windows: list[list[str]]
    base: KgSnapshot             # the snapshot deployed before traffic starts
    refresh_files: list[pathlib.Path]


@contextmanager
def capture_losses():
    """Collect the generation-head losses every ``CosmoLM.finetune`` returns."""
    captured: list[list[float]] = []
    original = CosmoLM.finetune

    def finetune(self, *args, **kwargs):
        losses = original(self, *args, **kwargs)
        captured.append(losses)
        return losses

    CosmoLM.finetune = finetune
    try:
        yield captured
    finally:
        CosmoLM.finetune = original


def train_lm(seed: int, scale: float, epochs: int):
    """A small pipeline run; returns the COSMO-LM, its generation-head
    losses, the world's queries as ``(text, domain, product type)`` rows
    and the world's intent tails."""
    with capture_losses() as captured:
        result = CosmoPipeline(pipeline_config(seed, scale, epochs,
                                               expand_with_lm=False)).run()
    if result.cosmo_lm is None or not captured:
        raise RuntimeError("the pipeline produced no COSMO-LM")
    bases = [(q.text, q.domain, q.product_type or "") for q in result.world.queries.all()]
    tails = sorted({intent.tail for intent in result.world.intents.all()})
    return result.cosmo_lm, captured[-1], bases, tails


def serving_table(graph: KnowledgeGraph, queries: list[str]) -> dict[str, str]:
    """Query -> knowledge text: each query's most plausible edge."""
    cols = graph.columns()
    index = {name: i for i, name in enumerate(cols["nodes"])}
    rows = np.nonzero(np.isin(cols["head"], [index[q] for q in queries]))[0]
    heads = cols["head"][rows]
    order = rows[np.lexsort((-cols["plausibility"][rows], heads))]
    first = np.ones(len(order), dtype=bool)
    first[1:] = cols["head"][order][1:] != cols["head"][order][:-1]
    table = {}
    for row in order[first].tolist():
        relation = Relation(cols["relations"][cols["relation"][row]])
        tail = cols["nodes"][cols["tail"][row]]
        table[cols["nodes"][cols["head"][row]]] = verbalize(relation, tail) + "."
    return table


def _edges(rng: np.random.Generator, heads: list[str], domains: list[str],
           tails: list[str], count: int, head_weights: np.ndarray) -> list[KnowledgeTriple]:
    picks = rng.choice(len(heads), size=count, p=head_weights)
    tail_ids = rng.integers(0, len(tails), size=count)
    relation_ids = rng.integers(0, len(_RELATIONS), size=count)
    plausibility = rng.uniform(0.5, 0.95, size=count)
    typicality = rng.uniform(0.45, 0.95, size=count)
    support = rng.integers(1, 4, size=count)
    return [
        KnowledgeTriple(
            head=heads[h], relation=_RELATIONS[r], tail=tails[t],
            domain=domains[h], behavior="search-buy",
            plausibility=p, typicality=y, support=s,
        )
        for h, t, r, p, y, s in zip(picks.tolist(), tail_ids.tolist(),
                                    relation_ids.tolist(), plausibility.tolist(),
                                    typicality.tolist(), support.tolist())
    ]


def churn_inputs(seed: int, directory: pathlib.Path, *, lm_seed: int, lm_scale: float,
                 lm_epochs: int, table_size: int, exponent: float,
                 n_windows: int, kg_edges: int, growth: float,
                 n_refreshes: int) -> ChurnInputs:
    """Train the LM, derive a long-tail query space from its world, build
    the deployed snapshot and write one organically grown KG file per
    refresh (each adds ``growth`` x ``kg_edges`` edges to the previous).

    The COSMO-LM is part of the deployment, like the cluster's shape, so
    it is trained from the fixed ``lm_seed``: at this small scale the
    decoded length, and with it the cost of a flush, swings widely from
    one training seed to the next.  Traffic and KG files follow ``seed``.
    """
    lm, losses, bases, tails = train_lm(lm_seed, lm_scale, lm_epochs)
    space = list({f"{text} {c} {a} {o}": (f"{text} {c} {a} {o}", domain, ptype)
                  for text, domain, ptype in bases
                  for c in _COLOURS for a in _AUDIENCES for o in _OCCASIONS}.values())
    order = spawn_rng(seed, "churn-ranks").permutation(len(space))
    ranked = [space[i] for i in order]
    queries = [text for text, _, _ in ranked]
    domains = [domain for _, domain, _ in ranked]
    prompts = {text: CosmoLM.searchbuy_prompt(text, "", domain, product_type=ptype)
               for text, domain, ptype in ranked}
    stale = {text: verbalize(Relation.USED_FOR_FUNC, text.split(" ")[0]) + "."
             for text in queries}
    ranks = zipf_windows(seed, "churn-traffic", len(queries), exponent, n_windows)
    windows = [[queries[r] for r in row] for row in ranks.tolist()]

    # Every served query has edges; the other heads follow popularity.
    rng = spawn_rng(seed, "churn-kg")
    head_weights = 1.0 / np.arange(1, len(queries) + 1) ** exponent
    head_weights[:table_size] += head_weights[:table_size].sum() / table_size
    head_weights /= head_weights.sum()
    table = queries[:table_size]
    graph = KnowledgeGraph()
    graph.extend(_edges(rng, queries, domains, tails, kg_edges, head_weights))
    base = build_snapshot(serving_table(graph, table), graph=graph, note="base")
    files = []
    for index in range(n_refreshes):
        graph.extend(_edges(rng, queries, domains, tails,
                            int(kg_edges * growth), head_weights))
        path = directory / f"refresh-{index}.npz"
        save_kg_columnar(graph, path)
        files.append(path)
    return ChurnInputs(lm=lm, lm_losses=losses, queries=queries, prompts=prompts,
                       stale=stale, table=table, windows=windows, base=base,
                       refresh_files=files)
