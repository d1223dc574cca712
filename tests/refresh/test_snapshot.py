"""Content-addressed snapshots: versioning, immutability, lineage store."""

import numpy as np
import pytest

from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.refresh import (KgSnapshot, SnapshotManifest, SnapshotStore,
                           build_snapshot, snapshot_health)


def _triple(tail="camping", support=1):
    return KnowledgeTriple(
        head="camping tent", relation=Relation.USED_FOR_FUNC, tail=tail,
        domain="Sports & Outdoors", behavior="search-buy",
        plausibility=0.9, typicality=0.8, support=support,
    )


def _graph(*triples):
    graph = KnowledgeGraph()
    graph.extend(list(triples))
    return graph


# -- content addressing ----------------------------------------------------
def test_same_content_same_version():
    a = build_snapshot({"q": "it is used for camping."}, _graph(_triple()))
    b = build_snapshot({"q": "it is used for camping."}, _graph(_triple()))
    assert a.version == b.version
    assert a.manifest.checksum == b.manifest.checksum


def test_any_content_difference_changes_version():
    base = build_snapshot({"q": "answer."})
    entry_diff = build_snapshot({"q": "other answer."})
    triple_diff = build_snapshot({"q": "answer."}, _graph(_triple()))
    support_diff = build_snapshot({"q": "answer."}, _graph(_triple(support=2)))
    versions = {base.version, entry_diff.version, triple_diff.version,
                support_diff.version}
    assert len(versions) == 4


def test_parent_version_is_part_of_identity():
    root = build_snapshot({"q": "answer."})
    child = build_snapshot({"q": "answer."}, parent=root)
    assert child.version != root.version
    assert child.parent == root.version


def test_note_is_not_hashed():
    plain = build_snapshot({"q": "answer."})
    noted = build_snapshot({"q": "answer."}, note="annotated after the fact")
    assert plain.version == noted.version
    assert noted.manifest.note == "annotated after the fact"


def test_version_format_and_manifest_counts():
    snap = build_snapshot({"a": "x.", "b": "y."}, _graph(_triple()))
    assert snap.version.startswith("v-")
    assert len(snap.version) == 14  # "v-" + 12 hex chars
    assert snap.manifest.entry_count == 2
    assert snap.manifest.triple_count == 1
    assert len(snap) == 2


def test_versions_are_pinned():
    # Literals computed when snapshots still stored a triple tuple: the
    # columnar checksum must hash exactly the same canonical content.
    root = build_snapshot({"q": "it is used for camping."},
                          _graph(_triple(), _triple(tail="hiking", support=2)))
    child = build_snapshot({"q": "it is used for hiking."},
                           _graph(_triple(support=3),
                                  _triple(tail="hiking", support=2)),
                           parent=root)
    assert root.version == "v-e1e0f3427986"
    assert child.version == "v-811f7780e9eb"
    assert build_snapshot({}).version == "v-19bc6e732039"


def test_source_graph_growth_leaves_snapshot_unchanged():
    graph = _graph(_triple(), _triple(tail="hiking"))
    snap = build_snapshot({"q": "answer."}, graph)
    version, health = snap.version, snapshot_health(snap)
    frozen = {name: np.array(value) if isinstance(value, np.ndarray) else value
              for name, value in snap.columns().items()}
    # Merging a duplicate rewrites the source's existing rows in place;
    # a new edge appends past them.
    graph.add(_triple(support=4))
    graph.add(_triple(tail="sailing"))
    assert build_snapshot({"q": "answer."}, graph).version != version
    cols = snap.columns()
    assert set(cols) == set(frozen)
    for name, value in frozen.items():
        assert np.array_equal(cols[name], value) if isinstance(
            value, np.ndarray) else cols[name] == value
    assert snapshot_health(snap) == health
    assert build_snapshot({"q": "answer."}, KnowledgeGraph.from_columns(
        cols)).version == version


def test_snapshot_columns_are_read_only():
    snap = build_snapshot({"q": "answer."}, _graph(_triple()))
    with pytest.raises(ValueError):
        snap.columns()["support"][0] = 9
    with pytest.raises(TypeError):
        snap.columns()["support"] = np.zeros(1)  # type: ignore[index]


# -- immutability ----------------------------------------------------------
def test_direct_construction_requires_builder_token():
    manifest = SnapshotManifest(version="v-0", parent=None, checksum="0",
                                entry_count=0, triple_count=0)
    with pytest.raises(TypeError, match="build_snapshot"):
        KgSnapshot(manifest, {}, ())


def test_entries_view_is_read_only():
    snap = build_snapshot({"q": "answer."})
    with pytest.raises(TypeError):
        snap.entries["q"] = "tampered."  # type: ignore[index]


def test_entries_copied_from_caller_mapping():
    source = {"q": "answer."}
    snap = build_snapshot(source)
    source["q"] = "mutated."
    assert snap.entries["q"] == "answer."


# -- store -----------------------------------------------------------------
def test_store_add_get_and_lineage():
    root = build_snapshot({"q": "old."})
    child = build_snapshot({"q": "new."}, parent=root)
    store = SnapshotStore()
    store.add(root)
    store.add(child)
    assert store.get(child.version) is child
    assert store.parent_of(child.version) is root
    assert store.parent_of(root.version) is None
    assert child.version in store
    assert store.versions() == [root.version, child.version]
    assert len(store) == 2


def test_store_readd_is_noop_and_returns_existing():
    snap = build_snapshot({"q": "answer."})
    twin = build_snapshot({"q": "answer."})
    store = SnapshotStore()
    assert store.add(snap) is snap
    assert store.add(twin) is snap  # same version → same content
    assert len(store) == 1


def test_store_rejects_orphan_lineage():
    root = build_snapshot({"q": "old."})
    child = build_snapshot({"q": "new."}, parent=root)
    store = SnapshotStore()
    with pytest.raises(KeyError, match="oldest-first"):
        store.add(child)


def test_store_unknown_version_raises():
    with pytest.raises(KeyError, match="unknown snapshot"):
        SnapshotStore().get("v-missing")
