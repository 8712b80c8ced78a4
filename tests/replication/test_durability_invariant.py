"""The per-mutation durability invariant (section 2.3.2), checked at the
moment of every ack.

A write acknowledged with ``persist_to=n`` must be in the *synced*
prefix of at least n chain copies' files -- what survives a power loss
-- and one acknowledged with ``replicate_to=n`` must be in the memory of
at least n replicas.  The test checks both right after each ack, with
no drain in between, over random upserts, inserts and removes under
several pump schedules.  It reads the synced prefix independently of
the engine: a fresh ``VBucketStore`` recovered from a scratch disk that
holds only the file's ``synced_size`` bytes.
"""

from random import Random

import pytest

from repro import Cluster
from repro.common.disk import SimulatedDisk
from repro.common.scheduler import RegistrationOrder, SeededShuffle, StarveOne
from repro.storage.couchstore import VBucketStore

KEYS = [f"k{i:02d}" for i in range(24)]

#: (replicate_to, persist_to): each level on its own and both together.
REQUIREMENTS = [(1, 0), (0, 1), (0, 2), (1, 1), (1, 2)]

POLICIES = [RegistrationOrder(), SeededShuffle(1), SeededShuffle(2),
            StarveOne(1), StarveOne(2)]


def synced_version(node, vbucket_id: int, key: str):
    """``(seqno, deleted)`` of ``key`` in the synced prefix of this node's
    file for the vBucket, or None if that prefix does not hold it."""
    vb = node.engines["b"].vbuckets.get(vbucket_id)
    if vb is None:
        return None
    file = vb.store.log.file
    scratch = SimulatedDisk()
    copy = scratch.open(file.name)
    copy.append(file.read(0, file.synced_size))
    copy.sync()
    found, entry = VBucketStore(scratch, file.name, vbucket_id).by_key.lookup(key)
    if not found:
        return None
    _pointer, seqno, _size, deleted = entry
    return seqno, bool(deleted)


def memory_version(node, vbucket_id: int, key: str):
    """``(seqno, deleted)`` of ``key`` in this node's hash table."""
    vb = node.engines["b"].vbuckets.get(vbucket_id)
    entry = vb.hashtable.peek(key) if vb is not None else None
    if entry is None:
        return None
    return entry.doc.meta.seqno, entry.doc.meta.deleted


def holds(version, seqno: int, deleted: bool) -> bool:
    """The acked version, or a newer one of the key."""
    if version is None:
        return False
    held_seqno, held_deleted = version
    return held_seqno > seqno or (held_seqno == seqno
                                  and held_deleted == deleted)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
def test_every_ack_holds_its_durability_level(policy):
    cluster = Cluster(nodes=3, vbuckets=8)
    cluster.scheduler.policy = policy
    cluster.create_bucket("b", replicas=2)
    client = cluster.connect()
    rng = Random(7)
    live: set[str] = set()
    checked = {"persist": 0, "replicate": 0, "ahead": 0}
    for step in range(90):
        replicate_to, persist_to = rng.choice(REQUIREMENTS)
        key = rng.choice(KEYS)
        durability = {"replicate_to": replicate_to, "persist_to": persist_to}
        if key in live and rng.random() < 0.4:
            result = client.remove("b", key, **durability)
            live.discard(key)
            deleted = True
        elif key in live:
            result = client.upsert("b", key, {"step": step}, **durability)
            deleted = False
        else:
            result = client.insert("b", key, {"step": step}, **durability)
            live.add(key)
            deleted = False

        chain = [cluster.node(name) for name in
                 cluster.manager.cluster_maps["b"].chains[result.vbucket_id]
                 if name is not None]
        on_disk = sum(
            holds(synced_version(node, result.vbucket_id, key),
                  result.seqno, deleted)
            for node in chain)
        in_replica_memory = sum(
            holds(memory_version(node, result.vbucket_id, key),
                  result.seqno, deleted)
            for node in chain[1:])
        assert on_disk >= persist_to, (step, key, durability, on_disk)
        assert in_replica_memory >= replicate_to, (
            step, key, durability, in_replica_memory)
        checked["persist"] += persist_to > 0
        checked["replicate"] += replicate_to > 0
        checked["ahead"] += on_disk < len(chain)
    # Both halves of the invariant were exercised, and acks really came
    # ahead of the background work: some copy did not hold them yet.
    assert checked["persist"] > 20 and checked["replicate"] > 20
    assert checked["ahead"] > 20
