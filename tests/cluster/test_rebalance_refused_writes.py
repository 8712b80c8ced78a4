"""A rebalance over vBuckets whose last write was refused.

A write refused with TMPFAIL after its seqno was assigned leaves the
vBucket's ``high_seqno`` one past its newest deliverable change
(``VBucket.last_change_seqno``).  The mover must stop draining its stream
when the stream is idle, not when it reaches ``high_seqno``, which it
never does.  No timeout plugin is installed, so each test arms
``signal.alarm`` to fail instead of hanging the suite."""

import contextlib
import signal

import pytest

from repro import Cluster
from repro.common.errors import TemporaryFailureError
from repro.kv.engine import VBucketState
from tests.cluster.support import active_vbuckets_of


@contextlib.contextmanager
def deadline(seconds: int):
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def refuse_one_write(engine, vbucket_id: int) -> None:
    """An upsert that takes a seqno and is then refused with TMPFAIL."""
    def refuse(_doc):
        raise TemporaryFailureError("memory quota exhausted")

    engine._ensure_quota_headroom = refuse
    try:
        with pytest.raises(TemporaryFailureError):
            engine.upsert(vbucket_id, f"refused-{vbucket_id}", {"refused": True})
    finally:
        del engine._ensure_quota_headroom
    vb = engine.vbuckets[vbucket_id]
    assert vb.high_seqno == vb.last_change_seqno() + 1


def loaded_cluster(replicas: int):
    cluster = Cluster(nodes=2, vbuckets=8)
    cluster.create_bucket("b", replicas=replicas)
    client = cluster.connect()
    for i in range(40):
        client.upsert("b", f"k{i}", {"i": i})
    cluster.run_until_idle()
    return cluster, client


def test_a_move_ends_when_the_last_write_was_refused():
    cluster, _client = loaded_cluster(replicas=0)
    cluster_map = cluster.manager.cluster_maps["b"]
    vbucket_id = cluster_map.vbucket_for_key("k0")
    source = cluster_map.active_node(vbucket_id)
    source_vb = cluster.node(source).engine("b").vbuckets[vbucket_id]
    keys = {key for key, entry in source_vb.hashtable.items()
            if not entry.doc.meta.deleted}
    refuse_one_write(cluster.node(source).engine("b"), vbucket_id)
    cluster.add_node("node3")
    with deadline(10):
        cluster.rebalancer._move_vbucket("b", vbucket_id, source, "node3")
    moved = cluster.node("node3").engine("b").vbuckets[vbucket_id]
    assert moved.state is VBucketState.ACTIVE
    assert {key for key, _entry in moved.hashtable.items()} == keys
    assert vbucket_id not in cluster.node(source).engine("b").vbuckets


def test_rebalance_onto_a_new_node_after_refused_writes():
    cluster, client = loaded_cluster(replicas=1)
    for name in ("node1", "node2"):
        engine = cluster.node(name).engine("b")
        for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE):
            refuse_one_write(engine, vbucket_id)
    cluster.add_node("node3")
    with deadline(20):
        report = cluster.rebalance()
    assert report["b"]["moves"] > 0
    assert active_vbuckets_of(cluster.manager.cluster_maps["b"], "node3")
    for i in range(40):
        assert client.get("b", f"k{i}").value == {"i": i}
