"""The COSMO knowledge graph container (Tables 1 & 3, Figure 8).

Stores refined :class:`~repro.core.triples.KnowledgeTriple` edges with
per-domain / per-behavior statistics matching the Table 3 layout, overall
node/edge/relation counts for the Table 1 comparison, and a tail-
hierarchy builder reproducing the Figure 8 organization (coarse intent →
refined intents → linked product concepts).

Storage is columnar: node, relation, domain and behavior strings are
interned once into id tables, and each edge is one row across parallel
numpy columns (head/relation/tail/domain/behavior ids, plausibility,
typicality, support).  A lazily-built CSR index over the head column
serves neighbor queries without scanning every edge.  The query surface
is unchanged from the dict-backed implementation — ``triples()`` still
returns :class:`~repro.core.triples.KnowledgeTriple` objects in first-
insert order with identical merge semantics — the columnar form is how
the hot path (stats, filters, neighbor lookups, (de)serialization,
snapshot digests) avoids per-edge Python object traffic.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping

import networkx as nx
import numpy as np

from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple

__all__ = ["KGStats", "HierarchyNode", "KnowledgeGraph"]

_INITIAL_CAPACITY = 16
#: ``columns()`` name, backing attribute and dtype of each edge column.
_COLUMNS = (("head", "_head_col", np.int32), ("relation", "_rel_col", np.int32),
            ("tail", "_tail_col", np.int32), ("domain", "_domain_col", np.int32),
            ("behavior", "_behavior_col", np.int32),
            ("plausibility", "_plaus_col", np.float64),
            ("typicality", "_typ_col", np.float64),
            ("support", "_support_col", np.int64))
#: ``columns()`` name of each intern table and the id columns bounded by it.
_TABLES = (("nodes", ("head", "tail")), ("relations", ("relation",)),
           ("domains", ("domain",)), ("behaviors", ("behavior",)))


@dataclass(frozen=True)
class KGStats:
    """Table 1-style aggregate statistics."""

    nodes: int
    edges: int
    relations: int
    domains: int


@dataclass
class HierarchyNode:
    """One node of the Figure 8 intent hierarchy."""

    label: str
    children: list["HierarchyNode"] = field(default_factory=list)
    product_concepts: list[str] = field(default_factory=list)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)


class _InternTable:
    """Append-only string ↔ dense-id table."""

    __slots__ = ("_ids", "_values")

    def __init__(self, values=()):
        self._values: list[str] = list(values)
        self._ids: dict[str, int] = {value: i for i, value in enumerate(self._values)}

    def intern(self, value: str) -> int:
        interned = self._ids.get(value)
        if interned is None:
            interned = len(self._values)
            self._ids[value] = interned
            self._values.append(value)
        return interned

    def id_of(self, value: str) -> int | None:
        return self._ids.get(value)

    def value(self, interned: int) -> str:
        return self._values[interned]

    def values(self) -> tuple[str, ...]:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)


class KnowledgeGraph:
    """Deduplicating triple store with stats and hierarchy views.

    Edges live in parallel columns; heads and tails share one node id
    table, so Table 1's node count is just the table's length (the
    store is append-only — every interned node is referenced by at
    least one edge).
    """

    def __init__(self):
        self._nodes = _InternTable()
        self._relations = _InternTable()
        self._domains = _InternTable()
        self._behaviors = _InternTable()
        for _, attr, dtype in _COLUMNS:
            setattr(self, attr, np.empty(_INITIAL_CAPACITY, dtype=dtype))
        self._size = 0
        #: (head id, relation id, tail id) → row, for duplicate merging.
        self._row_of: dict[tuple[int, int, int], int] = {}
        #: Ragged per-row provenance; stays a Python list (tuples vary
        #: in length and are only touched at materialization time).
        self._head_ids: list[tuple[str, ...]] = []
        # (domain, behavior) → edge count, for the Table 3 breakdown.
        self._domain_behavior_edges: Counter = Counter()
        self._csr_order: np.ndarray | None = None
        self._csr_offsets: np.ndarray | None = None
        self._csr_dirty = True

    @classmethod
    def from_columns(cls, columns: Mapping) -> "KnowledgeGraph":
        """The one way back from a :meth:`columns` mapping to a graph.

        Copies the arrays and adopts the intern tables, with no per-edge
        replay.  Inconsistent input — a column not one value per edge,
        an id outside its table, a repeated table entry, an unknown
        relation, a ``(head, relation, tail)`` row twice — raises a
        ``ValueError`` naming the problem.
        """
        edges = len(columns["head"])
        for name in [name for name, _, _ in _COLUMNS] + ["head_ids"]:
            if len(columns[name]) != edges:
                raise ValueError(f"column {name!r} has {len(columns[name])} "
                                 f"values for {edges} edges")
        for table, id_columns in _TABLES:
            size = len(columns[table])
            if len(set(columns[table])) != size:
                raise ValueError(f"table {table!r} repeats an entry")
            for name in id_columns:
                ids = columns[name]
                if edges and (int(np.min(ids)) < 0 or int(np.max(ids)) >= size):
                    raise ValueError(f"column {name!r} has ids outside the "
                                     f"{table!r} table (size {size})")
        for value in columns["relations"]:
            Relation(value)

        kg = cls()
        for name, attr, dtype in _COLUMNS:
            setattr(kg, attr, np.array(columns[name], dtype=dtype))
        kg._size = edges
        kg._nodes, kg._relations, kg._domains, kg._behaviors = (
            _InternTable(columns[table]) for table, _ in _TABLES)
        kg._head_ids = [tuple(ids) for ids in columns["head_ids"]]
        keys = zip(kg._head_col.tolist(), kg._rel_col.tolist(), kg._tail_col.tolist())
        for row, (head, rel, tail) in enumerate(keys):
            first = kg._row_of.setdefault((head, rel, tail), row)
            if first != row:
                raise ValueError(
                    f"duplicate edge ({kg._nodes.value(head)!r}, "
                    f"{kg._relations.value(rel)!r}, {kg._nodes.value(tail)!r}) "
                    f"in rows {first} and {row}")
        pairs = Counter(zip(kg._domain_col.tolist(), kg._behavior_col.tolist()))
        kg._domain_behavior_edges = Counter({
            (kg._domains.value(domain), kg._behaviors.value(behavior)): count
            for (domain, behavior), count in pairs.items()})
        return kg

    # ------------------------------------------------------------------
    def add(self, triple: KnowledgeTriple) -> None:
        """Insert a triple, merging support for duplicates."""
        head_id = self._nodes.intern(triple.head)
        rel_id = self._relations.intern(triple.relation.value)
        tail_id = self._nodes.intern(triple.tail)
        key = (head_id, rel_id, tail_id)
        row = self._row_of.get(key)
        if row is not None:
            # Merge: best scores win, support accumulates, the first
            # insert's provenance (head_ids) and domain/behavior stick.
            if triple.plausibility > self._plaus_col[row]:
                self._plaus_col[row] = triple.plausibility
            if triple.typicality > self._typ_col[row]:
                self._typ_col[row] = triple.typicality
            self._support_col[row] += triple.support
            return
        row = self._size
        if row == len(self._head_col):
            self._grow()
        self._head_col[row] = head_id
        self._rel_col[row] = rel_id
        self._tail_col[row] = tail_id
        self._domain_col[row] = self._domains.intern(triple.domain)
        self._behavior_col[row] = self._behaviors.intern(triple.behavior)
        self._plaus_col[row] = triple.plausibility
        self._typ_col[row] = triple.typicality
        self._support_col[row] = triple.support
        self._head_ids.append(triple.head_ids)
        self._row_of[key] = row
        self._size = row + 1
        self._domain_behavior_edges[(triple.domain, triple.behavior)] += 1
        self._csr_dirty = True

    def _grow(self) -> None:
        capacity = max(_INITIAL_CAPACITY, 2 * len(self._head_col))
        for _, attr, dtype in _COLUMNS:
            grown = np.empty(capacity, dtype=dtype)
            grown[: self._size] = getattr(self, attr)[: self._size]
            setattr(self, attr, grown)

    def extend(self, triples: list[KnowledgeTriple]) -> None:
        for triple in triples:
            self.add(triple)

    # ------------------------------------------------------------------
    def _triple_at(self, row: int) -> KnowledgeTriple:
        return KnowledgeTriple(
            head=self._nodes.value(int(self._head_col[row])),
            relation=Relation(self._relations.value(int(self._rel_col[row]))),
            tail=self._nodes.value(int(self._tail_col[row])),
            domain=self._domains.value(int(self._domain_col[row])),
            behavior=self._behaviors.value(int(self._behavior_col[row])),
            plausibility=float(self._plaus_col[row]),
            typicality=float(self._typ_col[row]),
            support=int(self._support_col[row]),
            head_ids=self._head_ids[row],
        )

    def __len__(self) -> int:
        return self._size

    def triples(self) -> list[KnowledgeTriple]:
        return [self._triple_at(row) for row in range(self._size)]

    def tails(self) -> list[str]:
        tail_ids = np.unique(self._tail_col[: self._size])
        return sorted(self._nodes.value(int(tail_id)) for tail_id in tail_ids)

    def by_relation(self, relation: Relation) -> list[KnowledgeTriple]:
        rel_id = self._relations.id_of(relation.value)
        if rel_id is None:
            return []
        rows = np.nonzero(self._rel_col[: self._size] == rel_id)[0]
        return [self._triple_at(int(row)) for row in rows]

    def for_domain(self, domain: str) -> list[KnowledgeTriple]:
        domain_id = self._domains.id_of(domain)
        if domain_id is None:
            return []
        rows = np.nonzero(self._domain_col[: self._size] == domain_id)[0]
        return [self._triple_at(int(row)) for row in rows]

    def domains(self) -> list[str]:
        """Distinct edge domains in first-appearance order."""
        return list(self._domains.values())

    def edges_for(self, domain: str, behavior: str) -> int:
        """Table 3 cell: refined edge count per (domain, behavior)."""
        return self._domain_behavior_edges[(domain, behavior)]

    def stats(self) -> KGStats:
        """Table 1 aggregates — table lengths, no edge scan needed."""
        return KGStats(
            nodes=len(self._nodes),
            edges=self._size,
            relations=len(self._relations),
            domains=len(self._domains),
        )

    # ------------------------------------------------------------------
    # Neighbor queries (CSR over the head column)
    # ------------------------------------------------------------------
    def _build_csr(self) -> None:
        heads = self._head_col[: self._size]
        self._csr_order = np.argsort(heads, kind="stable")
        counts = np.bincount(heads, minlength=len(self._nodes))
        self._csr_offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)))
        self._csr_dirty = False

    def _head_rows(self, head: str) -> np.ndarray:
        node_id = self._nodes.id_of(head)
        if node_id is None:
            return np.empty(0, dtype=np.int64)
        if self._csr_dirty:
            self._build_csr()
        start = int(self._csr_offsets[node_id])
        end = int(self._csr_offsets[node_id + 1])
        return self._csr_order[start:end]

    def neighbors(self, head: str) -> list[KnowledgeTriple]:
        """Every edge out of ``head``, in insertion order.

        Served from the CSR index — O(degree) after an (amortized)
        index build, instead of a full-edge scan.
        """
        return [self._triple_at(int(row)) for row in self._head_rows(head)]

    def tails_of(self, head: str) -> list[str]:
        """Sorted distinct tails reachable from ``head`` in one hop."""
        rows = self._head_rows(head)
        if rows.size == 0:
            return []
        tail_ids = np.unique(self._tail_col[rows])
        return sorted(self._nodes.value(int(tail_id)) for tail_id in tail_ids)

    # ------------------------------------------------------------------
    def columns(self) -> dict:
        """Read-only view of the columnar form.

        Arrays are trimmed, non-writeable views over the live columns
        (writing through one raises ``ValueError``); the id tables come
        along as string tuples.  This is the zero-copy surface
        :mod:`repro.core.kg_io` serializes, :mod:`repro.refresh.snapshot`
        freezes and :meth:`from_columns` rebuilds a graph from.
        """
        cols = {name: getattr(self, attr)[: self._size] for name, attr, _ in _COLUMNS}
        for view in cols.values():
            view.flags.writeable = False
        cols.update(nodes=self._nodes.values(),
                    relations=self._relations.values(),
                    domains=self._domains.values(),
                    behaviors=self._behaviors.values(),
                    head_ids=tuple(self._head_ids))
        return cols

    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.MultiDiGraph:
        """Export as a labeled multigraph for downstream analysis."""
        graph = nx.MultiDiGraph()
        for triple in self.triples():
            graph.add_node(triple.head, kind="head")
            graph.add_node(triple.tail, kind="tail")
            graph.add_edge(
                triple.head,
                triple.tail,
                relation=triple.relation.value,
                domain=triple.domain,
                behavior=triple.behavior,
                plausibility=triple.plausibility,
                typicality=triple.typicality,
                support=triple.support,
            )
        return graph

    # ------------------------------------------------------------------
    def tail_hierarchy(self, domain: str | None = None) -> list[HierarchyNode]:
        """Organize tails into the Figure 8 coarse→fine hierarchy.

        A tail B is a child of tail A when B = "<modifier> A" (e.g.
        "winter camping" under "camping").  Each node also links the
        product concepts (head product types mentioned in heads) its
        edges connect to.
        """
        triples = self.triples() if domain is None else self.for_domain(domain)
        tails = {t.tail for t in triples}
        children_map: dict[str, list[str]] = defaultdict(list)
        roots: list[str] = []
        for tail in sorted(tails):
            parts = tail.split(" ", 1)
            parent = parts[1] if len(parts) == 2 and parts[1] in tails else None
            if parent is not None:
                children_map[parent].append(tail)
            else:
                roots.append(tail)

        tail_concepts: dict[str, set[str]] = defaultdict(set)
        for triple in triples:
            # Heads are "query" or "title_a ||| title_b"; the last two
            # title words approximate the product concept/type.
            for head_part in triple.head.split(" ||| "):
                words = head_part.split()
                if len(words) >= 2:
                    tail_concepts[triple.tail].add(" ".join(words[-2:]))

        def build(label: str) -> HierarchyNode:
            return HierarchyNode(
                label=label,
                children=[build(child) for child in sorted(children_map.get(label, []))],
                product_concepts=sorted(tail_concepts.get(label, set()))[:8],
            )

        return [build(root) for root in roots]
