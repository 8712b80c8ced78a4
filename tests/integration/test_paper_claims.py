"""The paper's qualitative ordering claims, asserted on counts the
simulator already keeps -- RPCs (``Network.calls``), scheduler rounds
(``Scheduler._round``), disk bytes and syncs, index rows scanned, keys
fetched.  No wall clock: the same counts come out on any host.

Each test keeps the data shape of the timing benchmark it replaced
(the module -> test table is in CHANGES.md, the retired timings in
EXPERIMENTS.md).  Claims that another tier-1 test already pins are not
repeated here: node-grouped batching (``tests/cluster/test_batch_ops.py``),
the LIMIT short-circuit of the partitioned scan
(``tests/n1ql/test_batch_pipeline.py``), the compaction threshold sweep
(``tests/storage/test_compaction.py``), plan reuse
(``tests/n1ql/test_plan_cache.py``) and overload goodput
(``tests/admission/test_overload_goodput.py``).
"""

import math

from repro import Cluster
from repro.common.disk import SimulatedDisk
from repro.dcp.producer import DcpStream
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.gsi.projector import Projector
from repro.gsi.storage import make_storage
from repro.kv.types import VBucketState
from repro.storage.couchstore import VBucketStore
from repro.views import ViewDefinition, ViewQueryParams


def rpcs(cluster, *prefixes: str) -> int:
    """RPCs since the last ``reset_counters`` whose method starts with
    one of ``prefixes``, summed over destination nodes."""
    return sum(count for (_dst, method), count in cluster.network.calls.items()
               if method.startswith(prefixes))


def node_counter(cluster, *names: str) -> int:
    return sum(node.metrics.counter_value(name)
               for node in cluster.nodes() for name in names)


def keys_fetched(cluster, bucket: str) -> int:
    return sum(node.engines[bucket].metrics.counter_value(name)
               for node in cluster.nodes()
               for name in ("kv.gets", "kv.get_misses"))


# -- N1QL access paths (sections 4.5.3, 5.1) ---------------------------------

N_DOCS = 300


def test_access_paths_ordered_by_rows_scanned_and_keys_fetched():
    """USE KEYS touches no index and one document; a covered scan
    touches the index only ("covered queries deliver better
    performance", 5.1.2); index + fetch reads exactly its matches;
    PrimaryScan walks every document ("quite expensive ... increases
    linearly with number of documents", 4.5.3)."""
    cluster = Cluster(nodes=3, vbuckets=32)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(N_DOCS):
        client.upsert("b", f"user{i:05d}", {
            "name": f"name{i:05d}", "age": 20 + i % 50, "city": f"c{i % 7}",
        })
    cluster.run_until_idle()
    cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
    cluster.query("CREATE INDEX cov ON b(age, name) USING GSI")
    cluster.run_until_idle()

    def cost(statement: str) -> dict:
        cluster.network.reset_counters()
        scanned = node_counter(cluster, "gsi.scan_rows", "gsi.scan_page_rows")
        fetched = keys_fetched(cluster, "b")
        rows = cluster.query(statement).rows
        return {
            "rows": rows,
            "scan_rpcs": rpcs(cluster, "gsi_scan"),
            "fetch_rpcs": rpcs(cluster, "kv_multi_get"),
            "scanned": node_counter(cluster, "gsi.scan_rows",
                                    "gsi.scan_page_rows") - scanned,
            "fetched": keys_fetched(cluster, "b") - fetched,
        }

    use_keys = cost('SELECT b.name FROM b USE KEYS "user00123"')
    covering = cost("SELECT b.name FROM b WHERE b.age = 31")
    index_fetch = cost("SELECT b.city FROM b WHERE b.age = 31")
    primary = cost("SELECT b.name FROM b WHERE b.city = 'c3'")

    assert use_keys["rows"] == [{"name": "name00123"}]
    assert use_keys["scan_rpcs"] == 0
    assert use_keys["fetched"] == 1

    matches = N_DOCS // 50
    assert len(covering["rows"]) == matches
    assert covering["scan_rpcs"] >= 1
    assert covering["fetch_rpcs"] == 0 and covering["fetched"] == 0

    assert len(index_fetch["rows"]) == matches
    assert index_fetch["scanned"] == index_fetch["fetched"] == matches

    assert primary["rows"]
    assert primary["scanned"] == primary["fetched"] == N_DOCS

    work = [(path["scanned"], path["fetched"])
            for path in (use_keys, covering, index_fetch, primary)]
    assert work == sorted(work) and len(set(work)) == 4


# -- freshness vs latency: scan_consistency (3.2.3) and stale= (3.1.2) -------

def _cluster_with_backlog():
    """200 indexed documents, then 40 mutations nothing has indexed yet
    (no scheduler round has run since they were acknowledged)."""
    cluster = Cluster(nodes=3, vbuckets=32)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(200):
        client.upsert("b", f"k{i:04d}", {"age": i % 40})
    cluster.run_until_idle()
    return cluster, client


def _write_backlog(client) -> None:
    for i in range(40):
        client.upsert("b", f"hot{i}", {"age": i % 40})


#: The rows with age 7: five from the base load, one from the backlog.
SETTLED = {f"k{i:04d}" for i in range(7, 200, 40)}
FRESH = SETTLED | {"hot7"}


def test_request_plus_waits_for_the_indexer_and_not_bounded_does_not():
    """``not_bounded`` "returns the query with the lowest latency";
    ``request_plus`` "executes with higher latencies" because it first
    waits for the indexer to process every mutation that existed at
    request time."""
    cluster, client = _cluster_with_backlog()
    cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
    cluster.run_until_idle()
    _write_backlog(client)
    statement = "SELECT meta(b).id FROM b WHERE b.age = 7"
    scheduler = cluster.scheduler

    before = scheduler._round
    stale = cluster.query(statement, scan_consistency="not_bounded").rows
    assert scheduler._round == before
    assert {row["id"] for row in stale} == SETTLED

    fresh = cluster.query(statement, scan_consistency="request_plus").rows
    assert scheduler._round > before
    assert {row["id"] for row in fresh} == FRESH


def test_stale_false_waits_for_the_view_indexer_and_stale_ok_does_not():
    """Views are eventually consistent; ``stale=ok`` returns whatever is
    indexed, ``stale=false`` first lets the view indexer catch up."""
    cluster, client = _cluster_with_backlog()

    def by_age(doc, meta, emit):
        if "age" in doc:
            emit(doc["age"], None)

    cluster.define_view("b", ViewDefinition("dd", "by_age", by_age, "_count"))
    _write_backlog(client)
    scheduler = cluster.scheduler

    def ids(stale: str) -> set:
        result = cluster.views.query(
            "b", "dd", "by_age",
            ViewQueryParams(stale=stale, reduce=False, key=7))
        return {row["id"] for row in result.rows}

    before = scheduler._round
    assert ids("ok") == SETTLED
    assert scheduler._round == before

    assert ids("false") == FRESH
    assert scheduler._round > before


# -- what freshness costs in messages (3.2.3, 4.2) ---------------------------

LATENCY = 1e-3


def waves(cluster) -> int:
    """Latency waves charged since the last ``reset_counters``: one per
    ``Network.call``, one per ``call_fanout`` however wide."""
    return round(cluster.network.latency_charged / LATENCY)


def test_request_plus_barrier_costs_one_watermark_wave_per_poll():
    """Section 4.2: the query waits "until the index is updated up to
    the maximum sequence number for each vBucket".  That wait is paid in
    polls, and a poll is one wave to the index's hosting nodes -- each
    returns its whole watermark vector -- not a message per vBucket
    mark: the message count follows the nodes, not the data's 64
    partitions."""
    cluster = Cluster(nodes=3, vbuckets=64, network_latency=LATENCY)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(100):
        client.upsert("b", f"k{i:04d}", {"age": i % 40})
    meta = cluster.create_index(IndexDefinition(
        name="by_age", bucket="b", key_sources=["age"],
        extractors=[path_extractor("age")], num_partitions=3,
    ))
    assert len(set(meta.nodes)) == 3
    cluster.run_until_idle()
    scheduler = cluster.scheduler

    def request_plus_scan() -> dict:
        cluster.network.reset_counters()
        before = scheduler._round
        rows = cluster.gsi.scan("by_age", [7], [7],
                                scan_consistency="request_plus")
        # Every other RPC is a pump's (replication, gsi_apply) inside a
        # scheduler round the barrier drove: one call, one wave each.
        mine = rpcs(cluster, "gsi_watermarks", "gsi_scan_page")
        background = sum(cluster.network.calls.values()) - mine
        return {
            "ids": {doc_id for _key, doc_id in rows},
            "watermark_rpcs": rpcs(cluster, "gsi_watermarks"),
            "scan_rpcs": rpcs(cluster, "gsi_scan_page"),
            "waves": waves(cluster) - background,
            "rounds": scheduler._round - before,
        }

    # Nothing outstanding: one look at the three vectors and no waiting,
    # then the scan's own wave (each partition's first page).
    assert request_plus_scan() == {
        "ids": {"k0007", "k0047", "k0087"},
        "watermark_rpcs": 3, "scan_rpcs": 3, "waves": 1 + 1, "rounds": 0,
    }

    # One write behind: a look before the scheduler round that carries
    # it to its partition and a look after -- 2 polls x 3 hosting nodes.
    client.upsert("b", "hot", {"age": 7})
    assert request_plus_scan() == {
        "ids": {"k0007", "k0047", "k0087", "hot"},
        "watermark_rpcs": 6, "scan_rpcs": 3, "waves": 2 + 1, "rounds": 1,
    }


def test_key_join_fetches_each_side_in_one_batch_per_data_node():
    """Section 4.5.3's key-based join: both the USE KEYS side and the
    ON KEYS side resolve through the node-grouped bulk lookup, so ten
    left rows cost at most one ``kv_multi_get`` per data node per side
    and never a ``kv_get`` per row."""
    cluster = Cluster(nodes=3, vbuckets=64, network_latency=LATENCY)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(10):
        client.upsert("b", f"order{i}", {"cust": f"cust{i % 4}", "n": i})
    for i in range(3):  # cust3 is absent: its orders drop out of the join
        client.upsert("b", f"cust{i}", {"name": f"name{i}"})
    cluster.run_until_idle()
    keys = ", ".join(f'"order{i}"' for i in range(10))
    cluster.network.reset_counters()
    rows = cluster.query(
        f"SELECT o.n, c.name FROM b o USE KEYS [{keys}] "
        f"JOIN b c ON KEYS o.cust").rows
    assert sorted((row["n"], row["name"]) for row in rows) == [
        (i, f"name{i % 4}") for i in range(10) if i % 4 != 3]
    assert rpcs(cluster, "kv_get") == 0
    per_node = {dst: count for (dst, method), count
                in cluster.network.calls.items() if method == "kv_multi_get"}
    assert per_node and all(count <= 2 for count in per_node.values())
    assert rpcs(cluster, "kv_") == sum(per_node.values())


# -- per-mutation durability (section 2.3.2) ---------------------------------

def test_durability_waits_cost_observe_round_trips_and_scheduler_rounds():
    """Section 2.3.2: "Most users choose to receive a response
    immediately once the data hits memory, or ... first replicate the
    data to one other node for safety".  The memory ack is one RPC and
    no waiting; each durability wait adds observe polls while the
    replicator / flusher run."""
    cluster = Cluster(nodes=3, vbuckets=32)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    scheduler = cluster.scheduler

    def syncs() -> int:
        return sum(node.disk.stats.syncs for node in cluster.nodes())

    def write(key: str, **durability) -> dict:
        cluster.run_until_idle()
        cluster.network.reset_counters()
        rounds, synced = scheduler._round, syncs()
        result = client.upsert("b", key, {"payload": "x" * 256}, **durability)
        return {
            "result": result,
            "all_rpcs": sum(cluster.network.calls.values()),
            "client_rpcs": rpcs(cluster, "kv_upsert", "kv_observe"),
            "observes": rpcs(cluster, "kv_observe"),
            "rounds": scheduler._round - rounds,
            "syncs": syncs() - synced,
        }

    plain = write("k-plain")
    assert plain["all_rpcs"] == plain["client_rpcs"] == 1
    assert plain["rounds"] == 0 and plain["syncs"] == 0

    replicated = write("k-replicated", replicate_to=1)
    assert replicated["observes"] >= 1 and replicated["rounds"] >= 1

    persisted = write("k-persisted", persist_to=1)
    assert persisted["observes"] >= 1 and persisted["rounds"] >= 1
    assert persisted["syncs"] >= 1
    result = persisted["result"]
    active = cluster.manager.cluster_maps["b"].active_node(result.vbucket_id)
    vbucket = cluster.node(active).engines["b"].vbuckets[result.vbucket_id]
    assert vbucket.persisted_seqno >= result.seqno

    both = write("k-both", replicate_to=1, persist_to=2)
    assert (plain["client_rpcs"] < replicated["client_rpcs"]
            <= both["client_rpcs"])
    assert plain["client_rpcs"] < persisted["client_rpcs"]


def test_a_scheduler_round_costs_what_changed(monkeypatch):
    """The asynchronous consumers of section 2.3.2 sit inside every
    durability wait, so a round must cost what changed since the last
    one, not what the node holds.  Over 128 vBucket files and 128 DCP
    streams, a round after ``run_until_idle()`` computes no
    fragmentation ratio and takes from no stream; the round after one
    upsert re-reads the two files that grew and materializes the replica
    stream's two messages.  (Walking everything, as every pump once
    did, cost 128 ratios and 128 takes per round, and the index-less
    projector copied the upsert into two more messages.)"""
    cluster = Cluster(nodes=4, vbuckets=64)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    client.multi_upsert("b", {f"k{i:04d}": {"i": i, "pad": "x" * 380}
                              for i in range(1000)}).require_ok()
    cluster.run_until_idle()

    counts = {"ratios": 0, "takes": 0, "messages": 0}
    fragmentation, take = VBucketStore.fragmentation, DcpStream.take

    def counted_fragmentation(store):
        counts["ratios"] += 1
        return fragmentation(store)

    def counted_take(stream, max_items=64):
        messages = take(stream, max_items)
        counts["takes"] += 1
        counts["messages"] += len(messages)
        return messages

    monkeypatch.setattr(VBucketStore, "fragmentation", counted_fragmentation)
    monkeypatch.setattr(DcpStream, "take", counted_take)

    assert not cluster.scheduler.step()
    assert counts == {"ratios": 0, "takes": 0, "messages": 0}

    # A key whose replica node's pumps run after its active node's, so
    # the active write and the replica write are both flushed this round.
    cluster_map = cluster.manager.cluster_maps["b"]

    def chain(key: str) -> list:
        return cluster_map.chains[cluster_map.vbucket_for_key(key)]

    key = next(key for key in (f"k{i:04d}" for i in range(1000))
               if chain(key)[0] < chain(key)[1])
    client.upsert("b", key, {"i": -1, "pad": "y" * 380})
    assert cluster.scheduler.step()
    assert counts == {"ratios": 2, "takes": 1, "messages": 2}
    assert not cluster.scheduler.step()
    assert counts == {"ratios": 2, "takes": 1, "messages": 2}


# -- index maintenance in batches (4.3.3, 4.3.4) -----------------------------

def test_index_build_costs_messages_per_slice_not_per_document():
    """The projector/router/indexer pipeline consumes a *stream*: a build
    ships each data node's key versions to each hosting index node in
    projector-sized slices, and each slice is one copy-on-write rewrite
    of the leaves it touches.  900 documents used to cost 900
    ``gsi_apply`` RPCs and 1 139 132 index-file bytes."""
    cluster = Cluster(nodes=3, vbuckets=64)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(900):
        client.upsert("b", f"k{i:04d}", {"age": i % 40, "name": f"user{i:04d}"})
    cluster.run_until_idle()
    shares = []
    for node in cluster.nodes():
        engine = node.engines["b"]
        shares.append(sum(
            len(list(engine.docs_in_vbucket(vbucket_id)))
            for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE)))
    assert shares == [308, 296, 296]
    cluster.network.reset_counters()
    meta = cluster.create_index(IndexDefinition(
        name="by_age", bucket="b", key_sources=["age"],
        extractors=[path_extractor("age")], num_partitions=3,
    ))
    hosting = len(set(meta.nodes))
    assert hosting == 3
    slices = sum(math.ceil(share / Projector.BATCH) for share in shares)
    assert rpcs(cluster, "gsi_apply") == hosting * slices == 18
    assert len(cluster.gsi.scan("by_age")) == 900
    assert sum(node.disk.open("gsi/b/by_age.index").size
               for node in cluster.nodes()) <= 75_378


def test_a_projector_slice_rewrites_an_index_tree_once():
    """Run-time maintenance has the same unit: the k mutations one
    projector slice carries for an index are one ``gsi_apply`` and one
    tree rewrite on its index node -- here one appended root, because
    30 rows fit a leaf -- not k of each."""
    cluster = Cluster(
        nodes=[("d1", {"data"}), ("i1", {"index"}), ("q1", {"query"})],
        vbuckets=8,
    )
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(20):
        client.upsert("b", f"k{i}", {"v": i})
    cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
    cluster.run_until_idle()
    disk = cluster.node("i1").disk
    for i in range(10, 30):  # ten updates, ten inserts
        client.upsert("b", f"k{i}", {"v": i + 100})
    cluster.network.reset_counters()
    writes = disk.stats.writes
    cluster.run_until_idle()
    assert rpcs(cluster, "gsi_apply") == 1
    assert disk.stats.writes - writes == 1
    rows = cluster.gsi.scan("by_v", scan_consistency="request_plus")
    assert [key for key, _doc_id in rows] == \
        [[v] for v in range(10)] + [[v + 100] for v in range(10, 30)]


# -- memory-optimized GSI storage (section 6.1.1) ----------------------------

def test_memopt_index_never_touches_disk():
    """Memory-optimized indexes "reside completely in memory,
    dramatically reducing dependence on disk": the same 2 000 updates
    write to disk on the standard B-tree backend and not at all on the
    skiplist one."""
    disks = {kind: SimulatedDisk() for kind in ("standard", "memopt")}
    stores = {kind: make_storage(kind, disk, "claims.index")
              for kind, disk in disks.items()}
    for storage in stores.values():
        for i in range(2000):
            storage.update_doc(f"d{i:06d}", [[i % 500, f"d{i:06d}"]])
    assert (list(stores["standard"].scan([100], [120]))
            == list(stores["memopt"].scan([100], [120])))
    assert stores["standard"].disk_bytes() > 0
    assert disks["standard"].stats.bytes_written > 0
    assert stores["memopt"].disk_bytes() == 0
    assert disks["memopt"].stats.bytes_written == 0
    assert stores["memopt"].memory_bytes() > 0


# -- rebalance (section 4.3.1) -----------------------------------------------

def test_scale_out_moves_only_the_vbuckets_that_change_owner():
    """Rebalance is a per-partition move: 3 -> 4 nodes over 32 vBuckets
    moves about 1/n of them (8 for a perfect split, never a reshuffle),
    and how many is a property of the map, not of the data volume."""
    moves = {}
    for docs in (100, 400):
        cluster = Cluster(nodes=3, vbuckets=32)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        for i in range(docs):
            client.upsert("b", f"k{i:05d}", {"i": i, "pad": "x" * 100})
        cluster.run_until_idle()
        cluster.add_node("node4")
        moves[docs] = cluster.rebalance()["b"]["moves"]
        for i in range(0, docs, 37):
            assert client.get("b", f"k{i:05d}").value["i"] == i
    assert 0 < moves[100] <= 16
    assert moves[100] == moves[400]
