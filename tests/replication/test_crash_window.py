"""The crash window of asynchronous persistence (sections 2.3.2, 4.2).

The flusher commits a vBucket once its oldest write is
``KVEngine.FLUSH_ROUNDS`` flusher calls old, or at once for a
``persist_to`` waiter.  So a crash may lose only the writes of the last
``FLUSH_ROUNDS`` calls that no ``persist_to`` waiter asked for -- and it
loses them as a seqno suffix: a restarted vBucket holds exactly the
writes up to the seqno its last header synced, none half-applied.

Random upserts and removes, some with ``persist_to=1``, run under random
numbers of scheduler rounds (each round calls the node's flusher once);
then the node loses power (``disk.crash()`` drops every unsynced byte)
and restarts.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.common.errors import KeyNotFoundError
from repro.kv.engine import KVEngine

KEYS = [f"k{i}" for i in range(6)]

OPS = st.lists(st.tuples(st.sampled_from(["upsert", "remove"]),
                         st.sampled_from(KEYS),
                         st.booleans(),  # persist_to=1
                         st.integers(0, KVEngine.FLUSH_ROUNDS + 1)),
               min_size=1, max_size=12)


def read_back(client, key):
    """``(cas, value)`` the key's active serves, or None for a miss."""
    try:
        doc = client.get("b", key)
    except KeyNotFoundError:
        return None
    return doc.meta.cas, doc.value


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
def test_a_crash_loses_only_a_young_unawaited_suffix(ops):
    cluster = Cluster(nodes=1, vbuckets=4)
    cluster.create_bucket("b", replicas=0, compaction_threshold=None)
    client = cluster.connect()
    scheduler = cluster.scheduler
    #: Per write: (key, vbucket, seqno, what it reads back as, whether
    #: it must survive -- acked with persist_to, or FLUSH_ROUNDS old).
    writes = []
    for number, (kind, key, persist, rounds) in enumerate(ops):
        durability = {"persist_to": 1} if persist else {}
        written_at = scheduler._round
        if kind == "remove":
            if read_back(client, key) is None:
                continue
            result = client.remove("b", key, **durability)
            version = None
        else:
            value = {"op": number}
            result = client.upsert("b", key, value, **durability)
            version = (result.cas, value)
        writes.append([key, result.vbucket_id, result.seqno, version,
                       persist, written_at])
        for _ in range(rounds):
            scheduler.step()
    crashed_at = scheduler._round

    cluster.crash_node("node1")
    cluster.node("node1").disk.crash()
    cluster.restart_node("node1")

    engine = cluster.node("node1").engines["b"]
    synced = {vb: engine.vbuckets[vb].high_seqno for vb in range(4)}
    for key, vb, seqno, _version, persist, written_at in writes:
        if persist or crashed_at - written_at >= KVEngine.FLUSH_ROUNDS:
            assert seqno <= synced[vb], (key, seqno, persist, written_at)
    for key in KEYS:
        # The newest write the synced prefix of its vBucket holds.
        expected = None
        for other, vb, seqno, version, _persist, _at in writes:
            if other == key and seqno <= synced[vb]:
                expected = version
        assert read_back(client, key) == expected, key
