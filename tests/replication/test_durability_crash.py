"""The failure half of the per-mutation durability promise (section
2.3.2): an ack is what survives the failure it was asked to survive.

``tests/replication/test_durability_invariant.py`` checks the copies
right after each ack.  Here each ack meets its failure at once, with no
drain in between: after a ``persist_to=1`` ack the active loses power
(``disk.crash()`` drops every unsynced byte) and restarts, and the
acked version -- or, for a remove, its tombstone -- must read back;
after a ``replicate_to=1`` ack the active dies and is failed over, and
the promoted replica must hold the write's CAS or a later version.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.common.errors import KeyNotFoundError

KEYS = [f"k{i}" for i in range(6)]

STEPS = st.lists(st.tuples(st.sampled_from(["write", "remove"]),
                           st.sampled_from(KEYS),
                           st.sampled_from(["persist", "replicate"])),
                 min_size=1, max_size=6)


def read_back(client, key):
    """``(cas, value)`` the key's active serves, or None for a miss."""
    try:
        doc = client.get("b", key)
    except KeyNotFoundError:
        return None
    return doc.meta.cas, doc.value


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(STEPS)
def test_every_ack_survives_the_failure_it_asked_for(steps):
    cluster = Cluster(nodes=3, vbuckets=8)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    spare = iter(f"spare{i}" for i in range(len(steps)))
    for number, (kind, key, level) in enumerate(steps):
        durability = ({"persist_to": 1} if level == "persist"
                      else {"replicate_to": 1})
        exists = read_back(client, key) is not None
        value = {"step": number}
        if kind == "remove" and exists:
            result = client.remove("b", key, **durability)
            expected = None
        elif exists:
            result = client.upsert("b", key, value, **durability)
            expected = (result.cas, value)
        else:
            result = client.insert("b", key, value, **durability)
            expected = (result.cas, value)
        cluster_map = cluster.manager.cluster_maps["b"]
        active = cluster_map.chains[result.vbucket_id][0]
        cluster.crash_node(active)
        if level == "persist":
            cluster.node(active).disk.crash()
            cluster.restart_node(active)
            assert read_back(client, key) == expected, (number, key, kind)
            continue
        cluster.failover(active)
        promoted = cluster.manager.cluster_maps["b"].chains[
            result.vbucket_id][0]
        assert promoted != active
        entry = cluster.node(promoted).engines["b"].vbuckets[
            result.vbucket_id].hashtable.peek(key)
        assert entry is not None and (
            entry.doc.meta.cas == result.cas
            or entry.doc.meta.seqno > result.seqno), (number, key, kind)
        assert read_back(client, key) == expected, (number, key, kind)
        # Back to three data nodes, so the next ack has a replica; a
        # fresh handle maps the rebalanced chains (a cached map still
        # shows the failed-over replica's slot empty).
        cluster.add_node(next(spare))
        cluster.rebalance()
        client.close()
        client = cluster.connect()
