"""A stored document is never changed in place.

The hash table, the change buffer, DCP messages and a replica's copy
share one ``Document`` object, so a write to any of its fields would
reach every holder at once.  These tests drive every mutation path and
check that each document that ever sat in a hash table or a change
buffer still serializes to the bytes it had when it got there, and that
a client or a view map function changing what it was handed changes
nothing stored.
"""

import dataclasses
import json

import pytest

from repro import Cluster
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.kv.engine import VBucket
from repro.kv.hashtable import HashTable
from repro.views import ViewDefinition
from repro.xdcr import XdcrReplication, settle


def serialized(doc) -> str:
    return json.dumps([dataclasses.astuple(doc.meta), doc.value,
                       doc.ejected, doc.size], sort_keys=True)


class StoredDocuments:
    """Every document seen entering a hash table or a change buffer, or
    found in one, with its serialization when first seen (the object is
    kept, so its id is never reused)."""

    def __init__(self, monkeypatch, *clusters):
        self.clusters = clusters
        self.first_seen: dict[int, tuple] = {}
        table_set, record_change = HashTable.set, VBucket.record_change

        def noted_set(table, doc, dirty):
            self.note(doc)
            return table_set(table, doc, dirty)

        def noted_record_change(vb, doc):
            self.note(doc)
            return record_change(vb, doc)

        monkeypatch.setattr(HashTable, "set", noted_set)
        monkeypatch.setattr(VBucket, "record_change", noted_record_change)

    def note(self, doc) -> None:
        self.first_seen.setdefault(id(doc), (doc, serialized(doc)))

    def check(self) -> None:
        # Documents put straight into an entry (an ejection, a bg-fetch,
        # a lock) are found here.
        for cluster in self.clusters:
            for node in cluster.nodes():
                for engine in node.engines.values():
                    for vb in engine.vbuckets.values():
                        for _key, entry in vb.hashtable.items():
                            self.note(entry.doc)
                        for doc in vb.change_buffer:
                            self.note(doc)
        changed = [doc.key for doc, before in self.first_seen.values()
                   if serialized(doc) != before]
        assert changed == []


def copies_of(cluster, key: str) -> list:
    """The active's and the replica's stored document for ``key``."""
    cluster_map = cluster.manager.cluster_maps["b"]
    vbucket_id = cluster_map.vbucket_for_key(key)
    return [cluster.node(name).engines["b"].vbuckets[vbucket_id]
            .hashtable.peek(key).doc
            for name in cluster_map.chains[vbucket_id]]


def test_every_mutation_path_leaves_stored_documents_as_stored(monkeypatch):
    east = Cluster(nodes=3, vbuckets=16)
    east.create_bucket("b", replicas=1)
    west = Cluster(nodes=2, vbuckets=8)
    west.create_bucket("b", replicas=1)
    XdcrReplication(east, west, "b")
    stored = StoredDocuments(monkeypatch, east, west)
    client = east.connect()

    def lock_then_unlock():
        locked = client.get_and_lock("b", "k1", 5.0)
        client.unlock("b", "k1", locked.meta.cas)

    def evict_then_fetch():
        # Clean (flushed) values are ejected on both copies, then read.
        for doc in copies_of(east, "k1") + copies_of(east, "k2"):
            vb_id = doc.meta.vbucket_id
            for node in east.nodes():
                vb = node.engines["b"].vbuckets.get(vb_id)
                if vb is not None and vb.hashtable.peek(doc.key) is not None:
                    vb.hashtable.eject_value(doc.key)
        assert client.get("b", "k1").value["n"] == {"x": 2, "y": [1]}
        assert client.get("b", "k2").value == {"tags": ["q"]}

    def restart():
        east.crash_node("node2")
        east.restart_node("node2")

    steps = [
        ("upsert", lambda: client.upsert(
            "b", "k1", {"tags": ["a"], "n": {"x": 1}})),
        ("insert", lambda: client.insert("b", "k2", {"tags": []})),
        ("replace", lambda: client.replace(
            "b", "k1", {"tags": ["b"], "n": {"x": 2}})),
        ("mutate_in", lambda: client.mutate_in(
            "b", "k1", [("array_append", "tags", "c"), ("set", "n.y", [1])])),
        ("counter", lambda: (client.counter("b", "c", 1, initial=0),
                             client.counter("b", "c", 5))),
        ("touch", lambda: client.touch("b", "k2", 1000.0)),
        ("get_and_lock/unlock", lock_then_unlock),
        ("n1ql UPDATE", lambda: east.query(
            'UPDATE b USE KEYS "k2" SET tags = ["q"]')),
        ("n1ql UPSERT", lambda: east.query(
            'UPSERT INTO b (KEY, VALUE) VALUES ("k3", {"v": [1]})')),
        ("delete", lambda: client.remove("b", "k3")),
        ("eviction/bg-fetch", evict_then_fetch),
        ("warmup", restart),
    ]
    for _name, step in steps:
        step()
        settle(east, west)  # replica apply and XDCR set_with_meta
        stored.check()

    # The client's value is its own; the meta it shares is frozen.
    read = client.get("b", "k1")
    read.value["tags"].append("client")
    read.value["n"]["x"] = -1
    assert client.get("b", "k1").value == {
        "tags": ["b", "c"], "n": {"x": 2, "y": [1]}}
    with pytest.raises(dataclasses.FrozenInstanceError):
        read.meta.cas = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        copies_of(east, "k1")[0].meta.seqno = 0
    assert west.connect().get("b", "k1").value == {
        "tags": ["b", "c"], "n": {"x": 2, "y": [1]}}
    stored.check()


def test_a_view_map_function_changing_its_doc_changes_nothing_stored():
    """A map function is user code: it gets its own copy of the value,
    so rewriting it reaches neither ``get``, the replica, nor the GSI
    rows built from the same DCP messages."""
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=1)

    def vandal(doc, meta, emit):
        doc["n"] = "mangled"
        doc["tags"].append("mangled")
        emit(meta.id, None)

    cluster.define_view("b", ViewDefinition("dd", "vandal", vandal))
    cluster.create_index(IndexDefinition(
        "by_n", "b", ["n"], [path_extractor("n")]))
    client = cluster.connect()
    for i in range(10):
        client.upsert("b", f"k{i}", {"n": i, "tags": ["t"]})
    cluster.run_until_idle()

    assert len(cluster.views.query("b", "dd", "vandal", stale="false").rows) \
        == 10
    for i in range(10):
        assert client.get("b", f"k{i}").value == {"n": i, "tags": ["t"]}
        assert [doc.value for doc in copies_of(cluster, f"k{i}")] \
            == [{"n": i, "tags": ["t"]}] * 2
    rows = cluster.gsi.scan("by_n", scan_consistency="request_plus")
    assert sorted(rows) == sorted(([i], f"k{i}") for i in range(10))
