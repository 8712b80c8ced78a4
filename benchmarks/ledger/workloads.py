"""The six workloads: datasets, pre-generated op streams, result checks.

Everything a run feeds the program is generated here from the seed,
during set-up, so generator cost is never timed.  Each op carries the
effect it has on the shadow model (the driver replays the acknowledged
ops after the run), so no bookkeeping happens between timed calls.

Datasets are half the issue's (the benchmark contract caps a whole run,
its three set-ups included, at about 25 s, and loading costs 1.5 ms per
document); the dataset : quota ratio of ``kv_b_dgm`` is unchanged.  Each
of a run's ``driver.LAPS`` laps executes ``ops_per_second x --seconds /
LAPS`` ops, a constant, never "as many as fit": with the ``run_seconds =
10`` of ``BENCHMARK.json`` the laps together time the issue's op count on
``n1ql_e_scan``, more on ``kv_w_durable`` and between a half and three
quarters of it on the rest, at least 3 000 everywhere.
``ops_per_second`` is nominal: the three timed phases take 6-9 s together.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.ycsb import CoreWorkload
from repro.ycsb.workload import (WorkloadConfig, workload_a, workload_b,
                                 workload_c, workload_e)

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


class Op(NamedTuple):
    """One pre-generated client operation."""

    verb: str            # read | update | insert | remove | scan | query
    shape: str | None    # n1ql_mix query shape
    run: Callable        # run(client, bucket, key, arg) -> rows | None
    key: str             # document key, or the statement text of a query
    arg: Any             # value / fields / params
    effect: tuple | None  # ("set"|"merge"|"del", key[, value]) on the shadow


@dataclass
class Plan:
    """Generated inputs of one run."""

    documents: dict[str, Any]
    ops: list[Op]
    #: Statements run once after the load (index DDL, PREPARE).
    statements: tuple[str, ...] = ()


def apply_effect(shadow: dict[str, Any], effect: tuple | None) -> None:
    if effect is None:
        return
    kind, key = effect[0], effect[1]
    if kind == "set":
        shadow[key] = effect[2]
    elif kind == "merge":
        shadow[key] = {**shadow[key], **effect[2]}
    else:
        del shadow[key]


def _record(rng: random.Random) -> dict:
    """A YCSB record: 10 fields x 100 characters, about 1.1 KB of JSON."""
    return {f"field{i}": "".join(rng.choices(_ALPHABET, k=100))
            for i in range(10)}


def _dealt(rng: random.Random, deck: list[str], n_ops: int) -> list[str]:
    """``n_ops`` op kinds dealt from reshuffled copies of ``deck``, so
    every stretch of the stream has the deck's exact proportions and the
    mix does not vary with the seed."""
    kinds: list[str] = []
    while len(kinds) < n_ops:
        hand = list(deck)
        rng.shuffle(hand)
        kinds += hand
    return kinds[:n_ops]


# -- executors: the timed call is exactly the client call ------------------

def _read(client, bucket, key, _arg):
    client.get(bucket, key)


def _read_merge_upsert(client, bucket, key, fields):
    # The Couchbase YCSB adapter's update: read, merge one field, write.
    value = client.get(bucket, key).value
    value.update(fields)
    client.upsert(bucket, key, value)


def _upsert(client, bucket, key, value):
    client.upsert(bucket, key, value)


def _durable_insert(client, bucket, key, value):
    client.insert(bucket, key, value, persist_to=1, replicate_to=1)


def _durable_upsert(client, bucket, key, value):
    client.upsert(bucket, key, value, persist_to=1, replicate_to=1)


def _durable_remove(client, bucket, key, _arg):
    client.remove(bucket, key, persist_to=1, replicate_to=1)


def _query(client, _bucket, text, params):
    return client.query(text, params).rows


def _upsert_then_request_plus(client, bucket, key, arg):
    value, text, params = arg
    client.upsert(bucket, key, value)
    return client.query(text, params, scan_consistency="request_plus").rows


# -- YCSB key-value and scan workloads -------------------------------------

SCAN_STATEMENT = ("SELECT meta().id AS id FROM `ycsb` "
                  "WHERE meta().id >= $1 LIMIT $2")


class Workload:
    """What the driver needs from a workload."""

    bucket = "ycsb"

    def __init__(self, name: str, why: str, records: int,
                 ops_per_second: int, quota_bytes: int | None = None,
                 crash_check: bool = False):
        self.name = name
        self.why = why
        self.records = records
        self.ops_per_second = ops_per_second
        #: Per-node bucket quota; None = everything stays resident.
        self.quota_bytes = quota_bytes
        #: Crash one node after the run and re-read its keys from disk.
        self.crash_check = crash_check

    def plan(self, seed: int, n_ops: int) -> Plan:
        raise NotImplementedError

    def check_result(self, op: Op, rows, shadow: dict, initial_keys: list,
                     problems: list[str]) -> None:
        """Check the rows one query op returned; ``shadow`` is the model
        right after the op.  Key-value ops return nothing to check."""

    def recompute(self, client, shadow: dict, problems: list[str]) -> None:
        """Re-run queries against the drained cluster and compare them
        with plain-Python results from the shadow model."""


class YcsbWorkload(Workload):
    """A ``repro.ycsb.CoreWorkload`` op stream over 1 KB records."""

    def __init__(self, name: str, why: str,
                 config: Callable[..., WorkloadConfig], **sizes):
        super().__init__(name, why, **sizes)
        self.config = config

    def plan(self, seed: int, n_ops: int) -> Plan:
        config = self.config(record_count=self.records)
        workload = CoreWorkload(config, seed=seed)
        rng = random.Random(seed)
        documents = {key: _record(rng) for key in workload.load_keys()}
        # CoreWorkload draws each op's kind at random, so the share of
        # (expensive) writes would wander with the seed; take its ops in
        # the order of a dealt deck instead, holding back the surplus.
        deck = [kind for kind, share in (
            ("read", config.read_proportion),
            ("update", config.update_proportion),
            ("insert", config.insert_proportion),
            ("scan", config.scan_proportion)) for _ in range(round(share * 20))]
        held: dict[str, deque] = {kind: deque() for kind in deck}
        ops = []
        for kind in _dealt(rng, deck, n_ops):
            while not held[kind]:
                drawn = workload.next_operation()
                held[drawn.kind].append(drawn)
            ops.append(self._op(held[kind].popleft()))
        statements = ()
        if config.scan_proportion:
            statements = ("CREATE PRIMARY INDEX ON ycsb USING GSI",
                          f"PREPARE ycsb_scan FROM {SCAN_STATEMENT}")
        return Plan(documents, ops, statements)

    @staticmethod
    def _op(op) -> Op:
        if op.kind == "read":
            return Op("read", None, _read, op.key, None, None)
        if op.kind == "update":
            return Op("update", None, _read_merge_upsert, op.key, op.fields,
                      ("merge", op.key, op.fields))
        if op.kind == "insert":
            return Op("insert", None, _upsert, op.key, op.fields,
                      ("set", op.key, op.fields))
        # scan: the prepared workload-E statement of the paper's Fig 16.
        return Op("scan", None, _query, "EXECUTE ycsb_scan",
                  {"1": op.key, "2": op.scan_length}, None)

    def check_result(self, op: Op, rows, shadow: dict, initial_keys: list,
                     problems: list[str]) -> None:
        """A scan is sorted, starts at its bound, and has the requested
        length whenever the loaded keys alone could fill it (the index
        may lag the inserts under ``not_bounded``, never the load)."""
        if op.verb != "scan":
            return
        start, limit = op.arg["1"], op.arg["2"]
        ids = [row["id"] for row in rows]
        loaded = len(initial_keys) - bisect.bisect_left(initial_keys, start)
        if ids != sorted(set(ids)) or (ids and ids[0] < start) \
                or len(ids) > limit or len(ids) < min(limit, loaded):
            problems.append(f"scan from {start!r} limit {limit}: bad rows "
                            f"({len(ids)} ids, {loaded} loaded keys in range)")


class DurableWorkload(Workload):
    """20% insert / 60% upsert / 20% remove over uniform keys, every op
    waiting for ``persist_to=1, replicate_to=1``.  ``records`` is well
    above the removes a run makes, so a remove always finds a key."""

    def plan(self, seed: int, n_ops: int) -> Plan:
        rng = random.Random(seed)
        keys = [f"user{i:06d}" for i in range(self.records)]
        documents = {key: _record(rng) for key in keys}
        live = list(keys)                       # keys a remove may pick
        where = {key: i for i, key in enumerate(live)}
        ops = []
        deck = ["insert"] * 2 + ["update"] * 6 + ["remove"] * 2
        for kind in _dealt(rng, deck, n_ops):
            if kind == "remove":
                key = live[rng.randrange(len(live))]
                last = live.pop()
                if last != key:
                    live[where[key]] = last
                    where[last] = where[key]
                del where[key]
                ops.append(Op("remove", None, _durable_remove, key, None,
                              ("del", key)))
                continue
            value = _record(rng)
            if kind == "insert":
                key = f"user{len(keys):06d}"
                keys.append(key)
                ops.append(Op("insert", None, _durable_insert, key, value,
                              ("set", key, value)))
            else:
                # Uniform over every key ever written; an upsert of a
                # removed key re-creates it.
                key = keys[rng.randrange(len(keys))]
                ops.append(Op("update", None, _durable_upsert, key, value,
                              ("set", key, value)))
            if key not in where:
                where[key] = len(live)
                live.append(key)
        return Plan(documents, ops)


# -- the N1QL mix ------------------------------------------------------------

_REGIONS = ("amer", "apac", "emea", "latam")
_STATUSES = ("open", "paid", "shipped")
_CUSTOMERS_PER_ORDER = 10     # 3 000 orders : 300 customers in the issue

TOPN = ("SELECT s.day, s.total FROM shop s WHERE s.day >= $1 "
        "ORDER BY s.day LIMIT 20")
RANGE_FETCH = ("SELECT s.customer_id, s.total, s.status FROM shop s "
               "WHERE s.day >= $1 AND s.day < $2 AND s.status = \"paid\"")
GROUPBY = ("SELECT s.region, COUNT(*) AS n, SUM(s.total) AS revenue "
           "FROM shop s WHERE s.region >= $1 GROUP BY s.region")
# Ad-hoc text with the keys inlined, as an application building a
# statement per request would send it: each one misses the plan cache.
USEKEYS_JOIN = ("SELECT o.total, c.name, c.home_region FROM shop o "
                "USE KEYS {keys} JOIN shop c ON KEYS o.customer_id")
UNNEST_AGG = ("SELECT i.sku, SUM(i.qty) AS qty, COUNT(*) AS n FROM shop o "
              "USE KEYS {keys} UNNEST o.items AS i GROUP BY i.sku")

SHAPES = ("topn", "range_fetch", "groupby", "usekeys_join", "unnest_agg")


def _order(rng: random.Random, customers: int) -> dict:
    items = [{"sku": f"sku{rng.randrange(50):03d}",
              "qty": rng.randrange(1, 5),
              "price": rng.randrange(100, 5000) / 100}
             for _ in range(3)]
    return {"type": "order",
            "customer_id": f"cust::{rng.randrange(customers):04d}",
            "day": rng.randrange(365),
            "region": _REGIONS[rng.randrange(len(_REGIONS))],
            "status": _STATUSES[rng.randrange(len(_STATUSES))],
            "total": round(sum(i["qty"] * i["price"] for i in items), 2),
            "items": items}


def _orders(shadow: dict) -> list[tuple[str, dict]]:
    return [(key, doc) for key, doc in shadow.items()
            if doc["type"] == "order"]


def _expected_topn(shadow: dict, day: int) -> list[dict]:
    # Index order of by_day(day, total) is (day, total, document id).
    rows = sorted((doc["day"], doc["total"], key)
                  for key, doc in _orders(shadow) if doc["day"] >= day)
    return [{"day": d, "total": t} for d, t, _key in rows[:20]]


def _canonical(rows: list) -> list[str]:
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


class N1qlMixWorkload(Workload):
    """Five ad-hoc query shapes plus read-your-writes queries over
    ``records`` orders and a tenth as many customers."""

    bucket = "shop"

    def __init__(self, name: str, why: str, **sizes):
        super().__init__(name, why, **sizes)
        self.customers = self.records // _CUSTOMERS_PER_ORDER

    def plan(self, seed: int, n_ops: int) -> Plan:
        rng = random.Random(seed)
        documents: dict[str, Any] = {
            f"cust::{c:04d}": {"type": "customer", "name": f"customer {c}",
                               "home_region": _REGIONS[c % len(_REGIONS)],
                               "tier": c % 3}
            for c in range(self.customers)
        }
        order_keys = [f"order::{i:05d}" for i in range(self.records)]
        for key in order_keys:
            documents[key] = _order(rng, self.customers)
        ops = []
        deck = ["rp_query"] * 5 + list(SHAPES) * 9
        for shape in _dealt(rng, deck, n_ops):
            if shape == "rp_query":
                key = order_keys[rng.randrange(len(order_keys))]
                value = _order(rng, self.customers)
                params = {"1": rng.randrange(300)}
                ops.append(Op("query", "rp_query", _upsert_then_request_plus,
                              key, (value, TOPN, params),
                              ("set", key, value)))
                continue
            text, params = self._instance(shape, rng, order_keys)
            ops.append(Op("query", shape, _query, text, params, None))
        statements = (
            'CREATE INDEX by_day ON shop(day, total) USING GSI '
            'WITH {"num_partitions": 3}',
            # Plain, not partial: the planner cannot prove that a partial
            # index's WHERE covers the query's predicate, so a partial
            # by_region forces Fetch + Filter and no aggregate is pushed
            # down.  Only orders carry ``region``.
            "CREATE INDEX by_region ON shop(region, total) USING GSI",
        )
        return Plan(documents, ops, statements)

    @staticmethod
    def _instance(shape: str, rng: random.Random,
                  order_keys: list[str]) -> tuple[str, dict | None]:
        if shape == "topn":
            return TOPN, {"1": rng.randrange(300)}
        if shape == "range_fetch":
            day = rng.randrange(360)
            return RANGE_FETCH, {"1": day, "2": day + 5}
        if shape == "groupby":
            return GROUPBY, {"1": _REGIONS[rng.randrange(len(_REGIONS))]}
        count = 10 if shape == "usekeys_join" else 20
        keys = json.dumps(rng.sample(order_keys, count))
        template = USEKEYS_JOIN if shape == "usekeys_join" else UNNEST_AGG
        return template.format(keys=keys), None

    def check_result(self, op: Op, rows, shadow: dict, initial_keys,
                     problems: list[str]) -> None:
        """``rp_query`` must see its own upsert exactly (``shadow`` is
        the model right after it); a ``not_bounded`` top-N may lag, so
        only its order and bounds are checked."""
        if op.shape == "rp_query":
            _value, _text, params = op.arg
            if rows != _expected_topn(shadow, params["1"]):
                problems.append(f"rp_query after upsert of {op.key!r}: "
                                "rows differ from the shadow model")
        elif op.shape == "topn":
            days = [row["day"] for row in rows]
            if days != sorted(days) or len(rows) > 20 \
                    or any(day < op.arg["1"] for day in days):
                problems.append(f"topn from day {op.arg['1']}: bad rows")

    def recompute(self, client, shadow: dict, problems: list[str]) -> None:
        """One instance of each shape against the drained cluster,
        recomputed in plain Python from the shadow model."""
        rng = random.Random(len(shadow))
        order_keys = sorted(key for key, _doc in _orders(shadow))
        for shape in SHAPES:
            text, params = self._instance(shape, rng, order_keys)
            rows = client.query(text, params).rows
            expected = self._expected(shape, text, params, shadow)
            if shape == "topn":
                matches = rows == expected
            elif shape in ("groupby", "unnest_agg"):
                matches = _same_groups(rows, expected)
            else:
                matches = _canonical(rows) == _canonical(expected)
            if not matches:
                problems.append(f"{shape}: query result differs from the "
                                "shadow model")

    @staticmethod
    def _expected(shape: str, text: str, params, shadow: dict) -> list[dict]:
        if shape == "topn":
            return _expected_topn(shadow, params["1"])
        if shape == "range_fetch":
            return [{"customer_id": doc["customer_id"],
                     "total": doc["total"], "status": doc["status"]}
                    for _key, doc in _orders(shadow)
                    if params["1"] <= doc["day"] < params["2"]
                    and doc["status"] == "paid"]
        if shape == "groupby":
            groups: dict[str, dict] = {}
            for _key, doc in _orders(shadow):
                if doc["region"] >= params["1"]:
                    group = groups.setdefault(
                        doc["region"],
                        {"region": doc["region"], "n": 0, "revenue": 0})
                    group["n"] += 1
                    group["revenue"] += doc["total"]
            return list(groups.values())
        keys = json.loads(text[text.index("["):text.index("]") + 1])
        if shape == "usekeys_join":
            return [{"total": shadow[key]["total"],
                     "name": shadow[shadow[key]["customer_id"]]["name"],
                     "home_region":
                         shadow[shadow[key]["customer_id"]]["home_region"]}
                    for key in keys]
        skus: dict[str, dict] = {}
        for key in keys:
            for item in shadow[key]["items"]:
                group = skus.setdefault(
                    item["sku"], {"sku": item["sku"], "qty": 0, "n": 0})
                group["qty"] += item["qty"]
                group["n"] += 1
        return list(skus.values())


def _same_groups(rows: list[dict], expected: list[dict]) -> bool:
    """Grouped rows match up to float summation order."""
    def keyed(groups):
        return {next(iter(group.values())): group for group in groups}
    got, want = keyed(rows), keyed(expected)
    if got.keys() != want.keys() or len(got) != len(rows):
        return False
    return all(
        group.keys() == want[name].keys() and all(
            math.isclose(value, want[name][field], rel_tol=1e-9)
            if isinstance(value, float) else value == want[name][field]
            for field, value in group.items())
        for name, group in got.items())


WORKLOADS = (
    YcsbWorkload(
        "kv_c_resident",
        "Read-only zipfian over resident data: the foreground read path "
        "alone, so a write-path or query change must show no change here.",
        workload_c, records=2500, ops_per_second=27000),
    YcsbWorkload(
        "kv_a_resident",
        "The paper's Fig 15 mix, 50% read / 50% read-merge-upsert: most "
        "cost is background flusher, B-tree, compactor and replicator work.",
        workload_a, records=2500, ops_per_second=390, crash_check=True),
    YcsbWorkload(
        "kv_b_dgm",
        "Dataset five times the quota, 95% read / 5% update: item pager, "
        "NRU and bg-fetch through the B-tree; storage serves reads here.",
        workload_b, records=3000, ops_per_second=2100, quota_bytes=562_500),
    DurableWorkload(
        "kv_w_durable",
        "Every write waits for persist_to=1, replicate_to=1: flusher, "
        "replicator and observe polls sit inside the op's latency.",
        records=1000, ops_per_second=300, crash_check=True),
    YcsbWorkload(
        "n1ql_e_scan",
        "The paper's Fig 16: 95% prepared ordered range scans / 5% inserts; "
        "work sits in N1QL execute and the GSI scan, not in the KV engine.",
        workload_e, records=1500, ops_per_second=1350),
    N1qlMixWorkload(
        "n1ql_mix",
        "Five ad-hoc shapes (top-N, range+fetch, pushed GROUP BY, USE KEYS "
        "join, UNNEST) plus request_plus reads of the client's own writes.",
        records=1200, ops_per_second=300),
)
