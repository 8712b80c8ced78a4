"""An index is filled one way: its own DCP streams from its checkpoint.

A GSI index's projector streams and a view's streams are keyed by
(index, catalog revision, vBucket); a key without a checkpoint opens at
seqno 0, and that replay *is* the build.  These tests build while a
scheduler pump keeps writing, and move vBuckets under a live index; the
rows must equal a model of the documents every time.
"""

from repro import Cluster
from repro.common.errors import NotMyVBucketError
from repro.views.mapreduce import ViewDefinition


def by_v(doc, meta, emit):
    emit(doc["v"], None)


class Writer:
    """A scheduler pump that upserts and deletes once per round while it
    has rounds left, keeping ``model`` equal to the bucket.  A pump may
    not drive the scheduler, so it writes to the active copy's engine
    directly and skips a write the engine refuses mid-move."""

    def __init__(self, cluster, model: dict):
        self.cluster = cluster
        self.model = model
        self.rounds = 0
        self.count = 0

    def __call__(self) -> bool:
        if self.rounds == 0:
            return False
        self.rounds -= 1
        cluster_map = self.cluster.manager.cluster_maps["b"]
        for _ in range(2):
            i = self.count
            self.count += 1
            key = f"d{(i * 7) % 150:03d}"
            vbucket_id = cluster_map.vbucket_for_key(key)
            engine = self.cluster.node(
                cluster_map.active_node(vbucket_id)).engines["b"]
            try:
                if i % 2 and key in self.model:
                    engine.delete(vbucket_id, key)
                    del self.model[key]
                else:
                    engine.upsert(vbucket_id, key, {"v": 1000 + i})
                    self.model[key] = 1000 + i
            except NotMyVBucketError:
                pass
        return True


def gsi_rows(cluster, name: str) -> list:
    return cluster.gsi.scan(name, scan_consistency="request_plus")


def view_rows(cluster, name: str) -> list:
    rows = cluster.views.query("b", "dd", name, stale="false").rows
    return [([row["key"]], row["id"]) for row in rows]


def expected(model: dict) -> list:
    return sorted(([v], key) for key, v in model.items())


def test_builds_drain_while_a_pump_writes_every_round():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    model = {f"d{i:03d}": i for i in range(120)}
    for key, v in model.items():
        client.upsert("b", key, {"v": v})
    cluster.run_until_idle()
    cluster.define_view("b", ViewDefinition("dd", "first", by_v))
    cluster.query('CREATE INDEX by_v ON b(v) WITH {"defer_build": true}')
    writer = Writer(cluster, model)
    cluster.scheduler.register("writer", writer)

    writer.rounds = 30
    cluster.query("BUILD INDEX ON b(by_v)")
    writer.rounds = 30
    cluster.define_view("b", ViewDefinition("dd", "second", by_v))
    assert writer.rounds == 0 and writer.count == 120

    assert gsi_rows(cluster, "by_v") == expected(model)
    assert view_rows(cluster, "first") == view_rows(cluster, "second") \
        == expected(model)


def test_a_rebalance_under_a_live_index_leaves_no_ghost_and_no_duplicate():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    model = {f"d{i:03d}": i for i in range(150)}
    for key, v in model.items():
        client.upsert("b", key, {"v": v})
    cluster.query('CREATE INDEX by_v ON b(v) WITH {"num_partitions": 2}')
    writer = Writer(cluster, model)
    cluster.scheduler.register("writer", writer)

    cluster.add_node("node4")
    writer.rounds = 40
    cluster.rebalance()
    writer.rounds = 20
    cluster.run_until_idle()
    assert writer.count == 120

    rows = gsi_rows(cluster, "by_v")
    doc_ids = [doc_id for _key, doc_id in rows]
    assert len(doc_ids) == len(set(doc_ids))
    assert rows == expected(model)
