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

import json

from repro import Cluster
from repro.common.disk import SimulatedDisk
from repro.common.scheduler import Scheduler
from repro.common.document import Document, DocumentMeta
from repro.dcp.producer import DcpStream
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.gsi.projector import Projector
from repro.gsi.storage import make_storage
from repro.kv.engine import KVEngine, VBucket
from repro.kv.types import FLUSH_ROUNDS, VBucketState
from repro.storage.appendlog import _HEADER, RT_DOC, RT_HEADER, RT_NODE
from repro.storage.couchstore import VBucketStore
from repro.views import ViewDefinition, ViewQueryParams
from tests.kv.support import drain_flusher


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
    ``Network.call``, one per ``call_fanout`` or ``scatter`` however
    wide."""
    return round(cluster.network.latency_charged / LATENCY)


def test_request_plus_barrier_costs_one_watermark_wave_per_poll():
    """Section 4.2: the query waits "until the index is updated up to
    the maximum sequence number for each vBucket".  That wait costs one
    wave, however long it lasts: one ``gsi_wait`` to each of the index's
    hosting nodes registers the marks, and the indexers strike them as
    their watermarks pass -- no message per scheduler round, and none
    per vBucket mark: the message count follows the nodes, not the
    data's 64 partitions.  (It was one ``gsi_watermarks`` wave per poll,
    a poll before the first round and one after each.)"""
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
    instances = [cluster.node(name).indexer.indexer.instance("by_age")
                 for name in meta.nodes]

    def request_plus_scan() -> dict:
        cluster.network.reset_counters()
        before = scheduler._round
        rows = cluster.gsi.scan("by_age", [7], [7],
                                scan_consistency="request_plus")
        # Every other RPC is a projector's gsi_apply inside a scheduler
        # pass the barrier drove: one call, one wave each.
        mine = rpcs(cluster, "gsi_wait", "gsi_scan_page")
        background = sum(cluster.network.calls.values()) - mine
        return {
            "ids": {doc_id for _key, doc_id in rows},
            "wait_rpcs": rpcs(cluster, "gsi_wait"),
            "scan_rpcs": rpcs(cluster, "gsi_scan_page"),
            "waves": waves(cluster) - background,
            "rounds": scheduler._round - before,
            "waiters_left": sum(len(i.waiters) for i in instances),
        }

    # Nothing outstanding: the registration wave finds every mark passed
    # and nothing waits, then the scan's own wave (each partition's
    # first page).
    assert request_plus_scan() == {
        "ids": {"k0007", "k0047", "k0087"},
        "wait_rpcs": 3, "scan_rpcs": 3, "waves": 1 + 1, "rounds": 0,
        "waiters_left": 0,
    }

    # One write behind: the same one wave, and the scheduler round that
    # carries the write to its partition completes the wait.
    client.upsert("b", "hot", {"age": 7})
    assert request_plus_scan() == {
        "ids": {"k0007", "k0047", "k0087", "hot"},
        "wait_rpcs": 3, "scan_rpcs": 3, "waves": 1 + 1, "rounds": 1,
        "waiters_left": 0,
    }

    # 600 versions of one document behind, more than a projector takes
    # from one vBucket per round: several rounds, still one wave.
    for i in range(600):
        client.upsert("b", "busy", {"age": 7, "v": i})
    result = request_plus_scan()
    assert result["ids"] == {"k0007", "k0047", "k0087", "hot", "busy"}
    assert result["rounds"] == 3
    assert (result["wait_rpcs"], result["waves"], result["waiters_left"]) \
        == (3, 1 + 1, 0)


def test_key_join_fetches_each_side_in_one_batch_per_data_node():
    """Section 4.5.3's key-based join: both the USE KEYS side and the
    ON KEYS side resolve through the node-grouped bulk lookup, so ten
    left rows cost at most one ``kv_multi_get`` per data node per side
    and never a ``kv_get`` per row -- and each side's per-node lookups
    overlap in one wave, so the query costs two round trips however
    many nodes the keys hash to (it was one wave per node per side)."""
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
    assert waves(cluster) == 2


# -- per-mutation durability (section 2.3.2) ---------------------------------

def test_durability_waits_cost_observe_round_trips_and_scheduler_rounds():
    """Section 2.3.2: "Most users choose to receive a response
    immediately once the data hits memory, or ... first replicate the
    data to one other node for safety".  The memory ack is one RPC and
    no waiting.  A durability wait adds no RPC and no wave, however
    many rounds it lasts: the write registers the active's waiter in
    its own call, the replication batch registers the replica's, and
    the replica apply and the flusher complete them while the
    scheduler runs them.  (It was a ``kv_observe`` poll of the whole
    chain before the first round and after each; then one
    ``kv_observe_wait`` wave to each chain node that could contribute,
    2 RPCs and 2 waves with one such node.)"""
    cluster = Cluster(nodes=3, vbuckets=32, network_latency=LATENCY)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    scheduler = cluster.scheduler
    engines = [node.engines["b"] for node in cluster.nodes()]

    def syncs() -> int:
        return sum(node.disk.stats.syncs for node in cluster.nodes())

    def write(key: str, drain: bool = True, **durability) -> dict:
        if drain:
            cluster.run_until_idle()
        cluster.network.reset_counters()
        rounds, synced = scheduler._round, syncs()
        result = client.upsert("b", key, {"payload": "x" * 256}, **durability)
        client_rpcs = rpcs(cluster, "kv_upsert", "kv_observe",
                           "kv_durability")
        background = sum(cluster.network.calls.values()) - client_rpcs
        assert all(not engine._waiters for engine in engines)
        return {
            "result": result,
            "client_rpcs": client_rpcs,
            "waves": waves(cluster) - background,
            "rounds": scheduler._round - rounds,
            "syncs": syncs() - synced,
        }

    def cost(outcome: dict) -> tuple:
        return outcome["client_rpcs"], outcome["waves"], outcome["rounds"]

    plain = write("k-plain")
    assert cost(plain) == (1, 1, 0) and plain["syncs"] == 0

    # Registrations: the replica alone, the active alone, then both.
    replicated = write("k-replicated", replicate_to=1)
    assert cost(replicated) == (1, 1, 1)

    persisted = write("k-persisted", persist_to=1)
    assert cost(persisted) == (1, 1, 1) and persisted["syncs"] >= 1
    result = persisted["result"]
    active = cluster.manager.cluster_maps["b"].active_node(result.vbucket_id)
    vbucket = cluster.node(active).engines["b"].vbuckets[result.vbucket_id]
    assert vbucket.persisted_seqno >= result.seqno

    both = write("k-both", replicate_to=1, persist_to=2)
    assert cost(both) == (1, 1, 1) and both["syncs"] >= 2

    # Behind a flusher backlog the wait lasts several rounds; it still
    # costs no wave of its own.  The waiter makes its vBucket due at
    # once, so the backlog is one flusher budget queued in that vBucket.
    cluster_map = cluster.manager.cluster_maps["b"]
    behind_vb = cluster_map.vbucket_for_key("k-behind")
    backlog = [key for key in (f"backlog{i:05d}" for i in range(
                   40 * KVEngine.FLUSH_BATCH))
               if cluster_map.vbucket_for_key(key) == behind_vb]
    assert len(backlog) >= KVEngine.FLUSH_BATCH
    client.multi_upsert("b", {key: {"i": i} for i, key in enumerate(backlog)}
                        ).require_ok()
    behind = write("k-behind", drain=False, persist_to=1)
    assert behind["rounds"] > 1
    assert behind["client_rpcs"] == 1 and behind["waves"] == 1


def test_a_durable_write_costs_one_rpc_and_two_waves_with_its_batch():
    """The ``kv_w_durable`` shape (``persist_to=1, replicate_to=1``, one
    replica): the write and the one replication batch that carries both
    the document and the replica's registration are the whole network
    cost of the ack: those two calls and no other, in 2 waves.  The
    registration once took a ``kv_observe_wait`` wave of its own."""
    cluster = Cluster(nodes=3, vbuckets=32, network_latency=LATENCY)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    cluster.run_until_idle()
    cluster_map = cluster.manager.cluster_maps["b"]
    vb = cluster_map.vbucket_for_key("k")
    active, replica = cluster_map.chains[vb]
    for op in ("insert", "upsert", "remove"):
        cluster.network.reset_counters()
        args = () if op == "remove" else ({"op": op},)
        getattr(client, op)("b", "k", *args, persist_to=1, replicate_to=1)
        method = "kv_delete" if op == "remove" else f"kv_{op}"
        assert cluster.network.calls == {
            (active, method): 1, (replica, "kv_replica_apply_batch"): 1}, op
        assert waves(cluster) == 2, op


def test_a_scheduler_round_costs_what_changed(monkeypatch):
    """The asynchronous consumers of section 2.3.2 sit inside every
    durability wait, so a round must cost what changed since the last
    one, not what the node holds.  Over 128 vBucket files and 128 DCP
    streams, a round after ``run_until_idle()`` computes no
    fragmentation ratio, takes from no stream, and -- since no engine's
    change counter moved -- asks no stream ``idle()`` and no vBucket its
    ``last_change_seqno()``; the round after one upsert materializes the
    replica stream's two messages and re-reads no file, since both
    copies of the write are held; the round in which the write comes
    due (``KVEngine.FLUSH_ROUNDS`` flusher calls old) re-reads the two
    files that grew.  (Walking everything, as every pump once did, cost
    128 ratios and 128 takes per round, and the index-less projector
    copied the upsert into two more messages; polling every stream and
    comparing every active vBucket's mark cost 64 ``idle()`` and 128
    ``last_change_seqno()`` calls per quiet round; and while the flusher
    committed every dirty vBucket every round, the round after the
    upsert re-read the two files itself.)"""
    cluster = Cluster(nodes=4, vbuckets=64)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    client.multi_upsert("b", {f"k{i:04d}": {"i": i, "pad": "x" * 380}
                              for i in range(1000)}).require_ok()
    cluster.run_until_idle()

    counts = {"ratios": 0, "takes": 0, "messages": 0}
    polls = {"idle": 0, "last_change_seqno": 0}
    fragmentation, take = VBucketStore.fragmentation, DcpStream.take
    idle, last_change_seqno = DcpStream.idle, VBucket.last_change_seqno

    def counted_idle(stream):
        polls["idle"] += 1
        return idle(stream)

    def counted_last_change_seqno(vb):
        polls["last_change_seqno"] += 1
        return last_change_seqno(vb)

    monkeypatch.setattr(DcpStream, "idle", counted_idle)
    monkeypatch.setattr(VBucket, "last_change_seqno", counted_last_change_seqno)

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
    assert polls == {"idle": 0, "last_change_seqno": 0}

    # A key whose replica node's pumps run after its active node's, so
    # the active write and the replica write are both flushed this round.
    cluster_map = cluster.manager.cluster_maps["b"]

    def chain(key: str) -> list:
        return cluster_map.chains[cluster_map.vbucket_for_key(key)]

    key = next(key for key in (f"k{i:04d}" for i in range(1000))
               if chain(key)[0] < chain(key)[1])
    client.upsert("b", key, {"i": -1, "pad": "y" * 380})
    assert cluster.scheduler.step()
    assert counts == {"ratios": 0, "takes": 1, "messages": 2}
    for _ in range(KVEngine.FLUSH_ROUNDS - 2):  # held: still busy
        assert cluster.scheduler.step()
    assert counts == {"ratios": 0, "takes": 1, "messages": 2}
    assert cluster.scheduler.step()
    assert counts == {"ratios": 2, "takes": 1, "messages": 2}
    assert not cluster.scheduler.step()
    assert counts == {"ratios": 2, "takes": 1, "messages": 2}
    # Once every consumer has seen the write settle, a round is free again.
    polled = dict(polls)
    assert not cluster.scheduler.step()
    assert polls == polled


def count_copies_and_walks(monkeypatch) -> dict[str, int]:
    """Top-level calls of ``jsonval.deep_copy`` and ``jsonval.sizeof``
    (a recursion is one call), counted in every ``repro`` module that
    imported them by name -- also one first imported while an earlier
    test counted, which holds that test's counter (``__wrapped__``)."""
    import sys

    from repro.common import jsonval

    calls = {"deep_copy": 0, "sizeof": 0}
    for name, original in [("deep_copy", jsonval.deep_copy),
                           ("sizeof", jsonval.sizeof)]:
        depth = [0]

        def counted(value, name=name, original=original, depth=depth):
            calls[name] += depth[0] == 0  # top-level calls only
            depth[0] += 1
            try:
                return original(value)
            finally:
                depth[0] -= 1

        counted.__wrapped__ = original
        for module_name, module in list(sys.modules.items()):
            bound = getattr(module, name, None)
            if module_name.startswith("repro") and (
                    bound is original
                    or getattr(bound, "__wrapped__", None) is original):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_a_write_is_copied_once(monkeypatch):
    """Stored documents are immutable, so the change buffer, DCP and the
    replica share the object the active stored: one upsert at
    ``replicas=1``, drained, copies its value once (on the way in) and
    walks it with ``sizeof`` once (the ``MAX_VALUE_SIZE`` check, whose
    number the document carries); a ``get`` copies it once (on the way
    out to the client) and walks it never.  (Copying at each hand-off
    and sizing at each footprint cost 5 copies and 3 walks per upsert.)"""
    calls = count_copies_and_walks(monkeypatch)
    cluster = Cluster(nodes=4, vbuckets=64)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    cluster.run_until_idle()
    assert calls == {"deep_copy": 0, "sizeof": 0}

    client.upsert("b", "k", {"i": 1, "pad": "x" * 380})
    cluster.run_until_idle()
    assert calls == {"deep_copy": 1, "sizeof": 1}
    cluster_map = cluster.manager.cluster_maps["b"]
    vbucket_id = cluster_map.vbucket_for_key("k")
    active, replica = (cluster.node(name).engines["b"].vbuckets[vbucket_id]
                       for name in cluster_map.chains[vbucket_id])
    stored = active.hashtable.peek("k").doc
    assert replica.hashtable.peek("k").doc is stored
    assert active.change_buffer[-1] is stored
    assert replica.change_buffer[-1] is stored

    read = client.get("b", "k")
    assert calls == {"deep_copy": 2, "sizeof": 1}
    assert read.meta is stored.meta and read.value is not stored.value


def test_a_value_is_copied_only_where_it_leaves_for_an_application(
        monkeypatch):
    """The query service reads stored documents in place (section 4.5's
    fetch from the data service): a query that fetches 20 orders and
    projects scalars, or unnests and groups them, copies nothing, and
    one that returns each order's ``items`` copies once per row -- its
    result is the application's.  A ``get`` still copies once.  (Every
    fetched document was copied before: 20 copies per query.)  It reads
    index rows in place too (section 4.4): a covered Fig 16 scan copies
    no key list, and two scans hand out the index's own key lists.
    (Each scanned key list was copied before.)"""
    calls = count_copies_and_walks(monkeypatch)
    cluster = Cluster(nodes=4, vbuckets=64)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    orders = {f"o{i:02d}": {"total": i, "items": [{"sku": "a", "qty": 1},
                                                  {"sku": "b", "qty": i}]}
              for i in range(20)}
    client.multi_upsert("b", orders).require_ok()
    cluster.run_until_idle()
    keys = json.dumps(list(orders))

    def copies(run) -> int:
        before = calls["deep_copy"]
        run()
        return calls["deep_copy"] - before

    assert copies(lambda: client.get("b", "o00")) == 1
    scalar = cluster.query(
        f"SELECT o.total, META(o).id AS id FROM b o USE KEYS {keys}")
    assert len(scalar.rows) == 20
    assert copies(lambda: cluster.query(
        f"SELECT o.total, META(o).id AS id FROM b o USE KEYS {keys}")) == 0
    assert copies(lambda: cluster.query(
        f"SELECT i.sku, SUM(i.qty) AS qty, COUNT(*) AS n FROM b o "
        f"USE KEYS {keys} UNNEST o.items AS i GROUP BY i.sku")) == 0
    assert copies(lambda: cluster.query(
        f"SELECT o.items FROM b o USE KEYS {keys}")) == 20

    cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
    fig16 = ("SELECT META(o).id AS id FROM b o WHERE META(o).id >= 'o05' "
             "LIMIT 10")
    assert len(cluster.query(fig16).rows) == 10
    assert copies(lambda: cluster.query(fig16)) == 0
    first, second = (cluster.gsi.scan("#primary_b", ["o05"], limit=10)
                     for _scan in range(2))
    assert [doc_id for _key, doc_id in first] \
        == [doc_id for _key, doc_id in second] == sorted(orders)[5:15]
    assert all(mine is theirs for (mine, _), (theirs, _) in zip(first, second))


def test_a_replication_round_costs_one_wave_per_source_node():
    """Replication is memory-to-memory DCP (4.2), and a node pair's
    vBucket streams share one connection: a round after one write to
    each of 64 vBuckets at ``replicas=2`` costs each source node one
    wave, carrying one ``kv_replica_apply_batch`` per replica node it
    streams to.  (One RPC per (vBucket, replica) stream batch cost 128
    waves and 128 calls here.)"""
    cluster = Cluster(nodes=4, vbuckets=64, network_latency=LATENCY)
    cluster.create_bucket("b", replicas=2)
    client = cluster.connect()
    cluster.run_until_idle()
    cluster_map = cluster.manager.cluster_maps["b"]
    keys: dict[int, str] = {}
    for key in (f"k{i}" for i in range(2000)):
        keys.setdefault(cluster_map.vbucket_for_key(key), key)
    assert len(keys) == 64
    client.multi_upsert("b", {key: {"vb": vb} for vb, key in keys.items()}
                        ).require_ok()
    pairs = {(cluster_map.active_node(vb), target)
             for vb in keys for target in cluster_map.replica_nodes(vb)}
    sources = {source for source, _target in pairs}

    cluster.network.reset_counters()
    assert cluster.scheduler.step()
    assert (waves(cluster), len(sources)) == (4, 4)
    assert (rpcs(cluster, "kv_replica_apply_batch"), len(pairs)) == (8, 8)
    assert sum(node.engines["b"].metrics.counter_value("kv.replica_mutations")
               for node in cluster.nodes()) == 128


# -- a wait drives only the pumps that can end it (2.3.2, 3.2.3, 4.2) -------

#: Every kind of pump a cluster registers.
PUMP_KINDS = {"compactor", "cluster-manager", "projector", "indexer",
             "views", "replicator", "flusher"}


def waited_cluster() -> Cluster:
    """Three nodes with every pump kind registered -- compactors, a GSI
    index's indexers, a view -- and nothing outstanding."""
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
    cluster.define_view("b", ViewDefinition(
        "dd", "by_v", lambda doc, meta, emit: emit(doc["v"], None)))
    client = cluster.connect()
    for i in range(30):
        client.upsert("b", f"k{i}", {"v": i})
    cluster.run_until_idle()
    kinds = {name.split("/")[0] for name in cluster.scheduler.pump_names()}
    assert kinds == PUMP_KINDS
    return cluster


def pumps_run(cluster, wait) -> set:
    """The pumps the scheduler ran inside ``wait()``, from its trace."""
    scheduler = cluster.scheduler
    scheduler.trace = []
    wait()
    ran = {name for executed in scheduler.trace for name in executed}
    scheduler.trace = None
    return ran


def test_a_durable_write_drives_only_its_vbuckets_flusher_and_replicator():
    """Section 2.3.2: persistence and replication are consumers of their
    own; a durable write waits for its vBucket's flusher and replicator
    and for no compactor, projector, indexer, view or cluster-manager
    pump.  ``persist_to=2`` adds the replica's flusher.  Each wait is
    one scheduler pass over those pumps.  (The wait once ran whole
    rounds of every pump in the cluster.)"""
    cluster = waited_cluster()
    client = cluster.connect()
    cluster_map = cluster.manager.cluster_maps["b"]
    active, replica = cluster_map.chains[cluster_map.vbucket_for_key("k1")]
    rounds = cluster.scheduler._round
    assert pumps_run(cluster, lambda: client.upsert(
        "b", "k1", {"v": -1}, persist_to=1, replicate_to=1)) \
        == {f"flusher/{active}/b", f"replicator/{active}/b"}
    assert pumps_run(cluster, lambda: client.upsert(
        "b", "k1", {"v": -2}, persist_to=2)) \
        == {f"flusher/{active}/b", f"replicator/{active}/b",
            f"flusher/{replica}/b"}
    assert cluster.scheduler._round - rounds == 1 + 2


def test_a_request_plus_scan_drives_only_projectors_and_indexers():
    """Section 4.2: a ``request_plus`` scan waits "until the index is
    updated" -- for the projectors and the indexers, not for flushers,
    replicators, compaction or views."""
    cluster = waited_cluster()
    client = cluster.connect()
    for i in range(30):
        client.upsert("b", f"k{i}", {"v": 100 + i})
    ran = pumps_run(cluster, lambda: cluster.query(
        "SELECT b.v FROM b WHERE b.v >= 100", scan_consistency="request_plus"))
    assert {name.split("/")[0] for name in ran} == {"projector", "indexer"}


def test_a_stale_false_query_drives_only_view_pumps():
    """Section 3.1.2: ``stale=false`` waits for the view indexer, so the
    wait runs the nodes' view pumps and nothing else."""
    cluster = waited_cluster()
    client = cluster.connect()
    for i in range(30):
        client.upsert("b", f"k{i}", {"v": 100 + i})
    rows: list = []
    ran = pumps_run(cluster, lambda: rows.extend(cluster.views.query(
        "b", "dd", "by_v", stale="false").rows))
    assert ran == {f"views/node{n}/b" for n in (1, 2, 3)}
    assert [row["key"] for row in rows] == list(range(100, 130))


def test_every_pump_a_wait_names_is_registered(monkeypatch):
    """A wait names its pumps by the kind/node/bucket rule the cluster
    manager registers them by; a name nobody registered would silently
    drop that pump out of the wait, so in a healthy cluster every name
    each of the three waits passes is a registered pump."""
    cluster = waited_cluster()
    client = cluster.connect()
    named: list[set] = []
    run_until = Scheduler.run_until

    def recording(scheduler, condition, max_rounds=100_000, pumps=None):
        named.append(set(pumps))
        return run_until(scheduler, condition, max_rounds, pumps)

    monkeypatch.setattr(Scheduler, "run_until", recording)
    client.upsert("b", "k1", {"v": 1}, persist_to=2, replicate_to=1)
    cluster.query("SELECT b.v FROM b WHERE b.v > 0",
                  scan_consistency="request_plus")
    cluster.views.query("b", "dd", "by_v", stale="false")
    registered = set(cluster.scheduler.pump_names())
    assert [len(names) for names in named] == [3, 3 + 1, 3]
    assert all(names <= registered for names in named)


# -- group commit in time (sections 2.3.2, 4.2) ------------------------------

def test_a_vbucket_written_every_round_commits_once_per_flush_rounds(
        monkeypatch):
    """Persistence is asynchronous (2.3.2, 4.2), so the flusher holds a
    vBucket's queue until its oldest write is ``FLUSH_ROUNDS`` flusher
    calls old.  A vBucket that takes one write per round is committed
    -- one header, one sync -- once per ``FLUSH_ROUNDS`` rounds, and a
    key written every round is written once per commit ("repeated
    updates to an object be aggregated at the level of persistence").
    (Committing every dirty vBucket every round cost a header and a sync
    per round.)"""
    cluster = Cluster(nodes=2, vbuckets=8)
    cluster.create_bucket("b", replicas=0, compaction_threshold=None)
    client = cluster.connect()
    cluster.run_until_idle()
    headers = [0]
    write_header = VBucketStore.write_header

    def counted_write_header(store, sync=True):
        headers[0] += 1
        return write_header(store, sync)

    monkeypatch.setattr(VBucketStore, "write_header", counted_write_header)
    engines = [node.engines["b"] for node in cluster.nodes()]
    syncs = sum(node.disk.stats.syncs for node in cluster.nodes())
    commits = 4
    for round_number in range(commits * KVEngine.FLUSH_ROUNDS):
        client.upsert("b", "hot", {"round": round_number})
        assert cluster.scheduler.step()
    assert headers[0] == commits
    assert sum(node.disk.stats.syncs for node in cluster.nodes()) \
        - syncs == commits
    assert sum(engine.metrics.counter_value("kv.flushed")
               for engine in engines) == commits


def test_a_persist_to_write_is_synced_in_the_round_its_waiter_registers():
    """A ``persist_to`` waiter makes its vBucket due at once: the write
    costs 1 RPC, 1 wave and 1 scheduler round, as when the flusher
    committed everything every round, and that round syncs the waiter's
    vBucket alone -- the young writes queued in other vBuckets stay
    held."""
    cluster = Cluster(nodes=2, vbuckets=8, network_latency=LATENCY)
    cluster.create_bucket("b", replicas=0, compaction_threshold=None)
    client = cluster.connect()
    cluster.run_until_idle()
    cluster_map = cluster.manager.cluster_maps["b"]
    vb = cluster_map.vbucket_for_key("durable")
    young = [key for key in (f"young{i}" for i in range(100))
             if cluster_map.vbucket_for_key(key) != vb]
    for key in young:
        client.upsert("b", key, {"young": True})
    syncs = sum(node.disk.stats.syncs for node in cluster.nodes())
    rounds = cluster.scheduler._round
    cluster.network.reset_counters()
    result = client.upsert("b", "durable", {"v": 1}, persist_to=1)
    assert (rpcs(cluster, "kv_"), waves(cluster),
            cluster.scheduler._round - rounds) == (1, 1, 1)
    assert sum(node.disk.stats.syncs for node in cluster.nodes()) \
        - syncs == 1
    engine = cluster.node(cluster_map.active_node(vb)).engines["b"]
    assert engine.vbuckets[vb].persisted_seqno >= result.seqno
    assert sum(node.engines["b"].pending_writes()
               for node in cluster.nodes()) == len(young)


def test_a_drain_ends_with_every_write_persisted():
    """``run_until_idle()`` keeps running while the flusher holds a
    queue, so a drain leaves no pending write and every copy's persisted
    seqno at its high seqno; it takes at most ``FLUSH_ROUNDS`` rounds
    past the last write's replication."""
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    client.multi_upsert("b", {f"k{i}": {"i": i}
                              for i in range(200)}).require_ok()
    assert cluster.run_until_idle() <= KVEngine.FLUSH_ROUNDS + 2
    for node in cluster.nodes():
        engine = node.engines["b"]
        assert engine.pending_writes() == 0
        assert all(vb.persisted_seqno == vb.high_seqno
                   for vb in engine.vbuckets.values())


# -- index maintenance in batches (4.3.3, 4.3.4) -----------------------------

def test_index_build_costs_messages_per_slice_not_per_document():
    """The projector/router/indexer pipeline consumes a *stream*: a build
    is the index's own streams from seqno 0, and each data node ships a
    slice -- up to ``Projector.BATCH`` messages of every stream -- to
    each hosting index node in one ``gsi_apply``, one copy-on-write
    rewrite of the leaves it touches once committed.  900 documents used
    to cost 900 ``gsi_apply`` RPCs and 1 139 132 index-file bytes, and
    18 RPCs while the build routed 256-row slices of a snapshot."""
    cluster = Cluster(nodes=3, vbuckets=64)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(900):
        client.upsert("b", f"k{i:04d}", {"age": i % 40, "name": f"user{i:04d}"})
    cluster.run_until_idle()
    shares = []
    for node in cluster.nodes():
        engine = node.engines["b"]
        active = engine.owned_vbuckets(VBucketState.ACTIVE)
        shares.append(sum(len(engine.vbuckets[vbucket_id].hashtable)
                          for vbucket_id in active))
        assert max(engine.vbuckets[vbucket_id].high_seqno
                   for vbucket_id in active) <= Projector.BATCH
    assert shares == [308, 296, 296]
    cluster.network.reset_counters()
    meta = cluster.create_index(IndexDefinition(
        name="by_age", bucket="b", key_sources=["age"],
        extractors=[path_extractor("age")], num_partitions=3,
    ))
    hosting = len(set(meta.nodes))
    assert hosting == 3
    # No vBucket holds more than one slice: one slice per data node.
    assert rpcs(cluster, "gsi_apply") == hosting * len(shares) == 9
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


# -- group commit in time for the index (4.2, 4.3.4) -------------------------

def node_records(storage) -> int:
    """Node records an index file holds, live or replaced."""
    return sum(1 for _offset, record_type, _body in storage.log.scan()
               if record_type == RT_NODE)


def tree_nodes(tree) -> int:
    """Nodes reachable from a tree's root: one tree's worth."""
    def walk(pointer: int) -> int:
        kind, items = tree._read_node(pointer)
        if kind == "kv":
            return 1
        return 1 + sum(walk(child) for _last_key, child, _reduction in items)
    return 0 if tree.root is None else walk(tree.root)


def test_an_index_build_writes_one_tree_per_instance():
    """The indexer "manages the on-disk index tree" (4.3.4) and holds
    the key versions it is sent until they are due.  A build ends by
    installing its watermarks, which commits what each instance holds:
    the whole snapshot is one rewrite, so 900 documents over three
    partitions append exactly the nodes of the finished trees.  (While
    each projector slice was its own rewrite, the same build appended
    57, 60 and 67 node records for trees of 20, 23 and 26 nodes.)"""
    cluster = Cluster(nodes=3, vbuckets=64)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(900):
        client.upsert("b", f"k{i:04d}", {"age": i % 40, "name": f"user{i:04d}"})
    cluster.run_until_idle()
    meta = cluster.create_index(IndexDefinition(
        name="by_age", bucket="b", key_sources=["age"],
        extractors=[path_extractor("age")], num_partitions=3,
    ))
    storages = [cluster.node(name).indexer.indexer.instance("by_age").storage
                for name in meta.nodes]
    assert [storage.count() for storage in storages] == [276, 304, 320]
    assert [node_records(storage) for storage in storages] \
        == [tree_nodes(storage.tree) for storage in storages] == [10, 11, 11]


def test_writes_within_flush_rounds_rewrite_a_not_bounded_index_once():
    """Freshness is asked for per query (4.2), so an index nobody waits
    on commits in time: one write in each of ``FLUSH_ROUNDS - 1``
    rounds is ``FLUSH_ROUNDS - 1`` ``gsi_apply`` messages and one tree
    rewrite on the index node -- here one appended root, because the
    rows fit a leaf -- and a ``not_bounded`` scan meanwhile reads the
    committed tree.  (Each batch was its own rewrite: 7 records.)"""
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
    settled = cluster.gsi.scan("by_v")
    cluster.network.reset_counters()
    writes = disk.stats.writes
    for i in range(FLUSH_ROUNDS - 1):
        client.upsert("b", f"k{i}", {"v": i + 100})
        assert cluster.scheduler.step()
        assert cluster.gsi.scan("by_v") == settled
    assert rpcs(cluster, "gsi_apply") == FLUSH_ROUNDS - 1
    assert disk.stats.writes == writes
    cluster.run_until_idle()
    assert disk.stats.writes - writes == 1
    assert [key for key, _doc_id in cluster.gsi.scan("by_v")] == \
        [[v] for v in range(FLUSH_ROUNDS - 1, 20)] + \
        [[v + 100] for v in range(FLUSH_ROUNDS - 1)]


def test_writes_within_flush_rounds_rewrite_a_view_once():
    """Views commit in time like a GSI index: one write in each of
    ``FLUSH_ROUNDS - 1`` rounds is one rewrite of the view's tree -- one
    appended root, because the rows fit a leaf -- and a ``stale=ok``
    query meanwhile reads the committed tree.  (Each pump slice was its
    own rewrite: 7 records.)"""
    cluster = Cluster(nodes=1, vbuckets=8)
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(20):
        client.upsert("b", f"k{i}", {"v": i})
    cluster.run_until_idle()
    cluster.define_view("b", ViewDefinition(
        "dd", "by_v", lambda doc, meta, emit: emit(doc["v"], None)))
    index = cluster.node("node1").view_engines["b"].get_index("dd", "by_v")

    def keys(stale: str) -> list:
        return [row["key"] for row in cluster.views.query(
            "b", "dd", "by_v", stale=stale, reduce=False).rows]

    settled = keys("ok")
    records = node_records(index)
    for i in range(FLUSH_ROUNDS - 1):
        client.upsert("b", f"k{i}", {"v": i + 100})
        assert cluster.scheduler.step()
        assert keys("ok") == settled
    assert node_records(index) == records
    cluster.run_until_idle()
    assert node_records(index) - records == 1
    assert keys("ok") == list(range(FLUSH_ROUNDS - 1, 20)) + \
        [v + 100 for v in range(FLUSH_ROUNDS - 1)]


def test_a_stale_false_view_query_commits_what_its_views_hold_in_one_wave():
    """A ``stale=false`` query registers its wait in one ``view_wait``
    wave, which commits what each node's views hold -- one rewrite per
    view -- so it then scatters at once: 2 waves, no scheduler round."""
    cluster = Cluster(nodes=2, vbuckets=8, network_latency=LATENCY)
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    cluster.define_view("b", ViewDefinition(
        "dd", "by_v", lambda doc, meta, emit: emit(doc["v"], None)))
    for i in range(20):
        client.upsert("b", f"k{i}", {"v": i})
    assert cluster.scheduler.step()
    indexes = [node.view_engines["b"].get_index("dd", "by_v")
               for node in cluster.nodes()]
    assert [index.count() for index in indexes] == [0, 0]
    records = [node_records(index) for index in indexes]
    cluster.network.reset_counters()
    rounds = cluster.scheduler._round
    rows = cluster.views.query("b", "dd", "by_v", stale="false").rows
    assert (waves(cluster), cluster.scheduler._round - rounds) == (2, 0)
    assert rpcs(cluster, "view_wait") == 2
    assert [row["key"] for row in rows] == list(range(20))
    assert [node_records(index) - before
            for index, before in zip(indexes, records)] == [1, 1]


def test_a_request_plus_query_after_an_upsert_costs_four_waves_and_one_pass():
    """A ``request_plus`` query commits what the index holds when it
    registers its wait, and every batch that arrives while it waits, so
    read-your-own-write costs the upsert, the ``gsi_wait`` wave, the
    ``gsi_apply`` of the pass that carries the write, and the scan -- 4
    waves and 1 scheduler pass -- and sees a write the index was still
    holding.  The pass runs only the projectors and the indexers, so
    the upsert's replication batch leaves with the next background
    round, not inside the query (5 waves while the barrier ran whole
    rounds)."""
    cluster = Cluster(nodes=3, vbuckets=32, network_latency=LATENCY)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(300):
        client.upsert("b", f"k{i:04d}", {"day": i % 60, "total": i})
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_day ON b(day, total) USING GSI '
                  'WITH {"num_partitions": 3}')
    cluster.run_until_idle()
    client.upsert("b", "held", {"day": 1, "total": -1})
    assert cluster.scheduler.step()
    instances = [cluster.node(name).indexer.indexer.instance("by_day")
                 for name in dict.fromkeys(
                     cluster.manager.index_registry.require("by_day").nodes)]
    assert sum(len(instance.held) for instance in instances) == 1
    cluster.network.reset_counters()
    rounds = cluster.scheduler._round
    client.upsert("b", "hot", {"day": 0, "total": -2})
    rows = cluster.query(
        "SELECT b.day, b.total FROM b WHERE b.day >= $1 "
        "ORDER BY b.day LIMIT 3", {"1": 0},
        scan_consistency="request_plus").rows
    assert (waves(cluster), cluster.scheduler._round - rounds) == (4, 1)
    assert rpcs(cluster, "kv_replica_apply_batch") == 0
    assert rows == [{"day": 0, "total": -2}, {"day": 0, "total": 0},
                    {"day": 0, "total": 60}]
    assert cluster.query(
        "SELECT b.total FROM b WHERE b.day = 1 AND b.total < 0",
        scan_consistency="request_plus").rows == [{"total": -1}]


def test_a_drain_ends_with_every_index_committed():
    """``run_until_idle()`` keeps running while an indexer holds key
    versions, so after a drain every index's watermarks stand at the
    active high seqnos -- for a partitioned index, the highest over its
    partitions, which is what the ``request_plus`` barrier reads -- and
    its rows are the documents' rows.  Every write is persisted before
    the drain and one round carries every key version to the indexers,
    so the indexers' hold alone keeps the drain going."""
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    model = {}
    for i in range(120):
        model[f"k{i}"] = i % 17
    client.multi_upsert("b", {key: {"v": v} for key, v in model.items()}
                        ).require_ok()
    cluster.run_until_idle()
    for kind, partitions in (("standard", 1), ("memopt", 1),
                             ("standard", 3)):
        cluster.create_index(IndexDefinition(
            name=f"{kind}{partitions}", bucket="b", key_sources=["v"],
            extractors=[path_extractor("v")], storage=kind,
            num_partitions=partitions,
        ))
    for i in range(0, 120, 3):
        model[f"k{i}"] = 100 + i
        client.upsert("b", f"k{i}", {"v": 100 + i})
    for i in range(1, 120, 7):
        del model[f"k{i}"]
        client.remove("b", f"k{i}")
    for node in cluster.nodes():
        drain_flusher(node.engines["b"])
    assert cluster.scheduler.step()
    assert sum(node.engines["b"].pending_writes()
               for node in cluster.nodes()) == 0
    registry = cluster.manager.index_registry
    assert all(cluster.node(node).indexer.indexer.instance(name).held
               for name in registry.names()
               for node in registry.require(name).nodes)
    assert cluster.run_until_idle() == FLUSH_ROUNDS
    high = {}
    for node in cluster.nodes():
        engine = node.engines["b"]
        for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE):
            high[vbucket_id] = engine.vbuckets[vbucket_id].high_seqno
    for name in registry.names():
        instances = [cluster.node(node).indexer.indexer.instance(name)
                     for node in dict.fromkeys(registry.require(name).nodes)]
        assert all(not instance.held for instance in instances)
        assert {vbucket_id: max(instance.watermarks.get(vbucket_id, 0)
                                for instance in instances)
                for vbucket_id in high} == high
        if len(instances) == 1:
            assert instances[0].watermarks == high
        rows = sorted(row for instance in instances
                      for row in instance.storage.keyed_rows(None, None)[0])
        assert rows == sorted(([v], key) for key, v in model.items())


def test_an_index_node_crash_loses_held_versions_and_its_rebuild_has_them():
    """Held key versions live in the index process's memory, like the
    flusher's queue.  An index node that crashes holding some loses
    them, and the restart rebuilds the index from the data service's
    snapshot, so a ``request_plus`` scan still returns every row."""
    cluster = Cluster(
        nodes=[("d1", {"data"}), ("d2", {"data"}), ("i1", {"index"}),
               ("q1", {"query"})],
        vbuckets=8, auto_failover=False,
    )
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    model = {f"k{i}": i for i in range(40)}
    for key, v in model.items():
        client.upsert("b", key, {"v": v})
    cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
    cluster.run_until_idle()
    for i in range(0, 40, 4):
        model[f"k{i}"] = 100 + i
        client.upsert("b", f"k{i}", {"v": 100 + i})
    assert cluster.scheduler.step()
    indexer = cluster.node("i1").indexer.indexer
    assert len(indexer.instance("by_v").held) == 10
    cluster.crash_node("i1")
    cluster.restart_node("i1")
    rows = cluster.gsi.scan("by_v", scan_consistency="request_plus")
    assert rows == sorted(([v], key) for key, v in model.items())


# -- pre-computed aggregates (4.3.3, 5.1) ------------------------------------

def test_a_repeated_group_by_folds_only_what_changed(monkeypatch):
    """Aggregates pre-computed *in the index tree* make aggregation "very
    fast at query time" (section 4.3.3): an index node keeps the fold of
    every copy-on-write node a pushed GROUP BY covered, so asking again
    reads no entry that has not changed.  Counted as entries the index
    hands out of its tree (``decode_key``): over 1 200 rows the second
    identical query reads at most one leaf (3 entries here: a node's
    fold is kept only when it has fewer groups than entries, and one
    small leaf's has not), and after one upsert that moves a row between
    groups only the rewritten leaves are folded again (two leaves of 32
    here, 71 entries in all).  Folding every entry per query, as the
    index node once did, read 1 200 each time."""
    cluster = Cluster(nodes=4, vbuckets=64)
    cluster.create_bucket("b")
    client = cluster.connect()
    regions = ("amer", "apac", "emea", "latam")
    client.multi_upsert("b", {
        f"order::{i:05d}": {"region": regions[i * 7 % 4], "total": i % 97}
        for i in range(1200)}).require_ok()
    cluster.run_until_idle()
    cluster.query("CREATE INDEX by_region ON b(region, total) USING GSI")
    text = ('SELECT b.region, COUNT(*) AS n, SUM(b.total) AS revenue FROM b '
            'WHERE b.region >= "amer" GROUP BY b.region')
    expected = [{"region": region, "n": 300,
                 "revenue": sum(i % 97 for i in range(1200)
                                if regions[i * 7 % 4] == region)}
                for region in regions]

    from repro.gsi import storage
    decoded = [0]
    decode_key = storage.decode_key

    def counted_decode_key(components):
        decoded[0] += 1
        return decode_key(components)

    monkeypatch.setattr(storage, "decode_key", counted_decode_key)

    def folded(statement: str) -> tuple[int, list]:
        decoded[0] = 0
        rows = cluster.query(statement, scan_consistency="request_plus").rows
        return decoded[0], rows

    assert folded(text) == (1200, expected)
    second, rows = folded(text)
    assert rows == expected and second <= 32
    client.upsert("b", "order::00000", {"region": "emea", "total": 1000})
    expected[0]["n"] -= 1
    expected[2]["n"] += 1
    expected[2]["revenue"] += 1000
    after_upsert, rows = folded(text)
    assert rows == expected and after_upsert <= 96


# -- append-only storage records (section 4.3.3) -----------------------------

def test_a_flush_round_writes_only_what_its_readers_read():
    """Append-only files rewrite a tree's root-to-leaf path on every
    flush (section 4.3.3), so every byte of a leaf entry is written again
    each round.  Over 40 documents of about 1 KB, 10 single-key flush
    rounds append 10 document records, the rewritten paths of both trees
    and 10 headers; the literals are their bytes, framing included.  With
    keyed entries (``{"ptr", "seq", "size", "del"}`` by key, the key and
    deleted flag again by seqno) and a keyed header, the same rounds
    wrote 10 656 document, 33 649 node and 1 730 header bytes."""
    def doc(i: int, seqno: int) -> Document:
        return Document(DocumentMeta(key=f"k{i:02d}", cas=seqno, seqno=seqno),
                        {"i": i, "seqno": seqno, "pad": "x" * 1000})

    store = VBucketStore(SimulatedDisk(), "vb0.couch", 0)
    store.save_docs([doc(i, i + 1) for i in range(40)])
    store.write_header(sync=True)
    start = store.file_size
    for round_no in range(10):
        last_round = store.file_size
        store.save_docs([doc(round_no * 7 % 40, 41 + round_no)])
        store.write_header(sync=True)
    written = {RT_DOC: 0, RT_NODE: 0, RT_HEADER: 0}
    last_leaves = []
    for offset, record_type, body in store.log.scan():
        if offset >= start:
            written[record_type] += _HEADER.size + len(body)
        if offset >= last_round and record_type == RT_NODE:
            kind, items = json.loads(body)
            if kind == "kv":
                last_leaves.append(items)
    assert written == {RT_DOC: 10_656, RT_NODE: 13_129, RT_HEADER: 480}
    # The last round's entries, decoded from the bytes: by key
    # [pointer, seqno, size, deleted], by seqno the pointer alone.
    _found, (pointer, seqno, size, deleted) = store.by_key.lookup("k23")
    record_type, body = store.log.read(pointer)
    assert (record_type, seqno, size, deleted) == (RT_DOC, 50, len(body), 0)
    assert pointer >= last_round
    by_key_leaves = [items for items in last_leaves
                     if ["k23", [pointer, 50, size, 0]] in items]
    by_seq_leaves = [items for items in last_leaves if [50, pointer] in items]
    assert len(by_key_leaves) == len(by_seq_leaves) == 1
    assert all(type(entry_seqno) is int and type(entry_pointer) is int
               for entry_seqno, entry_pointer in by_seq_leaves[0])


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
            storage.update_docs([(f"d{i:06d}", 0, [[i % 500, f"d{i:06d}"]])])
    assert (list(stores["standard"].keyed_rows([100], [120])[0])
            == list(stores["memopt"].keyed_rows([100], [120])[0]))
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
