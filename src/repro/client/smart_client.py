"""The smart client.

Section 4.1: "Applications can use Couchbase's smart clients, which
contain a copy of the cluster map ... a client applies a hash function
(CRC32) to every document that needs to be stored, and the document can
then be sent directly from the client to the server where it should
reside."

The client caches the cluster map per bucket, routes every key-value
operation straight to the active node for the key's vBucket, and on a
NOT_MY_VBUCKET or connection failure refreshes the map from the cluster
manager and retries -- the standard smart-client dance during rebalance
and failover.

Durability options on mutations (``replicate_to`` / ``persist_to``) ride
on the write itself: the active registers the wait in the write's call
and the replication batches carry it to the replicas, so the wait sends
no message of its own (see :mod:`repro.replication.durability`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from ..common.contracts import declared_raises, hot_path
from ..common.document import Document
from ..common.errors import (
    AdmissionRejectedError,
    BucketNotFoundError,
    NotConnectedError,
    KeyNotFoundError,
    NodeDownError,
    NotMyVBucketError,
    TemporaryFailureError,
)
from ..common.jsonval import JsonValue, deep_copy
from ..common.scheduler import Scheduler
from ..common.transport import Network
from ..kv.types import MutationResult
from ..replication.durability import DurabilityMonitor, DurabilityRequirement

if TYPE_CHECKING:
    from ..admission.breaker import CircuitBreaker
    from ..admission.controller import AdmissionController
    from ..server import Cluster

#: Process-wide client-id source: ids stay unique across clusters in
#: one test process.
__shared_state__ = ("_client_ids",)
_client_ids = itertools.count(1)


@dataclass
class BatchResult:
    """Outcome of a batched key-value operation.

    ``results`` maps each succeeded key to its value (a
    :class:`Document` for reads, a :class:`MutationResult` for writes);
    ``errors`` maps each failed key to the error the server returned for
    it.  A batch never raises for per-key failures -- callers inspect
    ``errors`` (or use :meth:`require_ok`) so one bad key cannot mask
    the other N-1 outcomes."""

    #: Bounded by the batch: every key of one call lands in exactly one
    #: of the two dicts, and the object lives for that one call.
    __bounds__ = ("results", "errors")

    results: dict[str, Any] = field(default_factory=dict)
    errors: dict[str, Exception] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def require_ok(self) -> "BatchResult":
        """Raise the first per-key error, if any (keys sorted for
        determinism); otherwise return self."""
        if self.errors:
            raise self.errors[min(self.errors)]
        return self

    def __len__(self) -> int:
        return len(self.results)

    def __contains__(self, key: str) -> bool:
        return key in self.results

    def __getitem__(self, key: str) -> Any:
        return self.results[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)


class SmartClient:
    """A connected application client (the SDK of section 3.1)."""

    MAX_RETRIES = 8

    #: Set by :meth:`repro.server.Cluster.connect`; the in-process N1QL
    #: and view APIs route through the owning facade.
    cluster: "Cluster | None" = None

    def __init__(self, manager, network: Network, scheduler: Scheduler,
                 admission: "AdmissionController",
                 service: str | None = "kv"):
        self.manager = manager
        self.network = network
        self.scheduler = scheduler
        #: The cluster's admission controller (the overload front door).
        self.admission = admission
        #: The service budget this handle's ops draw on: "kv" for
        #: application handles; None for the query engine's own handle,
        #: whose fetches belong to a query already charged at
        #: ``admit_query``.
        self.service = service
        self.name = f"client{next(_client_ids)}"
        self._maps: dict[str, Any] = {}
        self._durability = DurabilityMonitor(network, scheduler, self.name)
        admission.register_client(self.name)

    # -- cluster map handling ----------------------------------------------------

    def _map(self, bucket: str):
        cached = self._maps.get(bucket)
        if cached is None:
            return self._refresh_map(bucket)
        return cached

    def _refresh_map(self, bucket: str):
        cluster_map = self.manager.cluster_maps.get(bucket)
        if cluster_map is None:
            raise BucketNotFoundError(bucket)
        self._maps[bucket] = cluster_map
        return cluster_map

    def close(self) -> None:
        """Release this handle's server-side admission state.  Handles
        get a fresh unique name per connect, so an application that
        connects and discards handles without closing them leaks one
        registration per connection in the controller (found by the
        bounds checks)."""
        self.admission.unregister_client(self.name)
        self._maps.clear()

    @hot_path
    def _call(self, bucket: str, key: str, method: str, *args) -> Any:
        """Route one KV op through the admission front door and to the
        key's active node."""
        if self.service is not None:
            self.admission.acquire(self.service)
        return self._routed_call(bucket, key, method, args)

    def _routed_call(self, bucket: str, key: str, method: str,
                     args: tuple) -> Any:
        """Route one KV op to the key's active node, with map-refresh
        retries on topology errors and breaker/backoff handling of
        overload TMPFAILs."""
        last_error: Exception | None = None
        overload_attempts = 0
        for attempt in range(self.MAX_RETRIES):
            cluster_map = self._map(bucket)
            vbucket_id = cluster_map.vbucket_for_key(key)
            node = cluster_map.active_node(vbucket_id)
            if node is None:
                last_error = NodeDownError(f"vbucket {vbucket_id} unassigned")
            else:
                breaker = self.admission.breaker(node)
                if not breaker.allow():
                    # Fail fast: the node told us it is saturated and its
                    # cooldown has not elapsed.  No RPC, no retry loop.
                    raise AdmissionRejectedError(
                        f"circuit breaker open for node {node!r}",
                        retry_after=breaker.remaining(),
                    )
                try:
                    # One logical RPC; the enclosing loop is a bounded
                    # MAX_RETRIES topology-retry, not per-item fan-out.
                    # repro: disable-next=n-plus-one-rpc
                    result = self.network.call(
                        self.name, node, method, bucket, vbucket_id, key, *args
                    )
                    breaker.record_success()
                    return result
                except (NotMyVBucketError, NodeDownError) as error:
                    last_error = error
                except TemporaryFailureError as error:
                    last_error = error
                    if error.retry_after is None:
                        # Semantic TMPFAIL (counter on a non-int, unlock
                        # of an unlocked doc): waiting cannot fix it.
                        raise
                    overload_attempts += 1
                    breaker.record_failure()
                    self.admission.note_overload(node, error)
                    self.admission.backoff(overload_attempts,
                                           hint=error.retry_after)
                    continue
            # Topology changed under us: let the manager react (failure
            # detection, pushes), refresh, retry.
            self.scheduler.run_until_idle()
            self._refresh_map(bucket)
        raise last_error  # type: ignore[misc]

    # -- key-value API (section 3.1.1) ------------------------------------------------

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError')
    def get(self, bucket: str, key: str) -> Document:
        """Read a document by primary key (routed to the active node):
        the caller's own copy, as from every read call here."""
        return self._call(bucket, key, "kv_get").copy()

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'DurabilityError', 'DurabilityImpossibleError',
                     'InvalidArgumentError', 'NodeDownError',
                     'NotMyVBucketError', 'TemporaryFailureError',
                     'ValueTooLargeError')
    def upsert(self, bucket: str, key: str, value: JsonValue, *,
               cas: int = 0, expiry: float = 0.0, flags: int = 0,
               replicate_to: int = 0, persist_to: int = 0) -> MutationResult:
        """Create or replace a document (memcached SET), optionally
        CAS-guarded and with per-mutation durability (section 2.3.2)."""
        return self._write(bucket, key, "kv_upsert",
                           (value, cas, expiry, flags),
                           replicate_to, persist_to)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'DurabilityError', 'DurabilityImpossibleError',
                     'InvalidArgumentError', 'KeyExistsError',
                     'KeyNotFoundError', 'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def insert(self, bucket: str, key: str, value: JsonValue, *,
               expiry: float = 0.0, flags: int = 0,
               replicate_to: int = 0, persist_to: int = 0) -> MutationResult:
        """Create a document; fails if the key exists (memcached ADD)."""
        return self._write(bucket, key, "kv_insert", (value, expiry, flags),
                           replicate_to, persist_to)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'DurabilityError', 'DurabilityImpossibleError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def replace(self, bucket: str, key: str, value: JsonValue, *,
                cas: int = 0, expiry: float = 0.0, flags: int = 0,
                replicate_to: int = 0, persist_to: int = 0) -> MutationResult:
        """Replace an existing document; fails if the key is absent."""
        return self._write(bucket, key, "kv_replace",
                           (value, cas, expiry, flags),
                           replicate_to, persist_to)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'DurabilityError', 'DurabilityImpossibleError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError')
    def remove(self, bucket: str, key: str, *, cas: int = 0,
               replicate_to: int = 0, persist_to: int = 0) -> MutationResult:
        """Delete a document (a tombstone mutation that flows through
        DCP like any other write)."""
        return self._write(bucket, key, "kv_delete", (cas,),
                           replicate_to, persist_to)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def touch(self, bucket: str, key: str, expiry: float) -> MutationResult:
        """Update a document's TTL without changing its value."""
        return self._call(bucket, key, "kv_touch", expiry)

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'DocumentLockedError', 'InvalidArgumentError',
                     'KeyNotFoundError', 'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError')
    def get_and_lock(self, bucket: str, key: str,
                     lock_time: float | None = None) -> Document:
        """Read and pessimistically lock a document (section 3.1.1); the
        returned CAS is the lock token."""
        return self._call(bucket, key, "kv_get_and_lock", lock_time).copy()

    @declared_raises('BucketNotFoundError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError')
    def unlock(self, bucket: str, key: str, cas: int) -> None:
        """Release a get-and-lock hold using its lock CAS."""
        self._call(bucket, key, "kv_unlock", cas)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def counter(self, bucket: str, key: str, delta: int, *,
                initial: int | None = None) -> tuple[int, MutationResult]:
        """Atomic increment/decrement of an integer document."""
        return self._call(bucket, key, "kv_counter", delta, initial)

    # -- sub-document API --------------------------------------------------------------

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError')
    def lookup_in(self, bucket: str, key: str, paths: list[str]) -> list:
        """Fetch selected sub-document paths; one result dict per path."""
        return deep_copy(self._call(bucket, key, "kv_lookup_in", paths))

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NodeDownError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def mutate_in(self, bucket: str, key: str,
                  operations: list[tuple[str, str, JsonValue]],
                  *, cas: int = 0) -> MutationResult:
        """Atomically apply sub-document mutations: (op, path, value)
        with op in {"set", "unset", "array_append"}."""
        return self._call(bucket, key, "kv_mutate_in", operations, cas)

    # -- batched key-value API (node-grouped bulk path, section 4.1) -------------------

    #: Errors that mean "the topology moved under us" -- the batch router
    #: refreshes the map and re-batches only the affected keys.  Overload
    #: TMPFAILs are handled separately (breaker + bounded backoff).
    _TOPOLOGY_RETRYABLE = (NotMyVBucketError, NodeDownError)

    def _group_by_node(self, cluster_map, keys: Iterable[str]
                       ) -> tuple[dict[str, list[tuple[int, str]]], list[str]]:
        """Hash every key, group by its vBucket's active node.  Keys of
        currently unassigned vBuckets come back separately (retryable)."""
        groups: dict[str, list[tuple[int, str]]] = {}
        unassigned: list[str] = []
        for key in keys:
            vbucket_id = cluster_map.vbucket_for_key(key)
            node = cluster_map.active_node(vbucket_id)
            if node is None:
                unassigned.append(key)
            else:
                groups.setdefault(node, []).append((vbucket_id, key))
        return groups, unassigned

    @hot_path
    def _multi_call(self, bucket: str, method: str,
                    keys: list[str],
                    payload: dict[str, dict] | None = None) -> BatchResult:
        """Route a batch through the admission front door (claimed once
        for the whole batch, sized by its key count) and to the cluster."""
        batch = BatchResult()
        pending = list(dict.fromkeys(keys))  # de-dup, keep order
        if not pending:
            return batch
        if self.service is not None:
            try:
                self.admission.acquire(self.service, ops=len(pending))
            except AdmissionRejectedError as error:
                for key in pending:
                    batch.errors[key] = error
                return batch
        return self._routed_multi_call(batch, bucket, method, pending,
                                       payload)

    def _routed_multi_call(self, batch: BatchResult, bucket: str, method: str,
                           pending: list[str],
                           payload: dict[str, dict] | None) -> BatchResult:
        """Group keys by active node, send **one** ``kv_multi_get`` /
        ``kv_multi_mutate`` RPC per node, all of them in one parallel
        wave (:meth:`Network.scatter`), then retry selectively: keys
        that failed with a topology error re-batch after a map refresh;
        keys shed for overload (pressure-tagged TMPFAIL) re-batch after
        one shared bounded backoff; keys rejected by an open breaker (or
        with semantic failures) land in ``errors`` immediately, keeping
        the partial-result contract -- every key ends up in exactly one
        of ``results`` and ``errors``.  A node with an open breaker gets
        no RPC, and each retry round is again one wave carrying only the
        failed keys."""
        last_errors: dict[str, Exception] = {}
        overload_attempts = 0
        for _attempt in range(self.MAX_RETRIES):
            if not pending:
                break
            cluster_map = self._map(bucket)
            groups, unassigned = self._group_by_node(cluster_map, pending)
            topology_retry: list[str] = []
            overload_retry: list[str] = []
            overload_hint = 0.0
            for key in unassigned:
                last_errors[key] = NodeDownError(
                    f"vbucket {cluster_map.vbucket_for_key(key)} unassigned"
                )
                topology_retry.append(key)
            sent: list[tuple[str, list[tuple[int, str]], CircuitBreaker]] = []
            requests: list[tuple[str, list]] = []
            for node, items in sorted(groups.items()):
                breaker = self.admission.breaker(node)
                if not breaker.allow():
                    rejection = AdmissionRejectedError(
                        f"circuit breaker open for node {node!r}",
                        retry_after=breaker.remaining(),
                    )
                    for _vbucket_id, key in items:
                        batch.errors[key] = rejection
                    continue
                if payload is None:
                    request: list = items
                else:
                    request = [
                        (payload[key]["kind"], vbucket_id, key,
                         payload[key]["kwargs"])
                        for vbucket_id, key in items
                    ]
                sent.append((node, items, breaker))
                requests.append((bucket, request))
            # One parallel wave carries every node's batch; each slot is
            # that node's per-key outcomes or the error its dispatch raised.
            outcomes = self.network.scatter(
                self.name, [node for node, _items, _breaker in sent], method,
                requests)
            for (node, items, breaker), outcome in zip(sent, outcomes):
                if isinstance(outcome, self._TOPOLOGY_RETRYABLE):
                    # Whole-node failure: every key of this group retries.
                    for _vbucket_id, key in items:
                        last_errors[key] = outcome
                        topology_retry.append(key)
                    continue
                if isinstance(outcome, TemporaryFailureError):
                    if outcome.retry_after is not None:
                        breaker.record_failure()
                        self.admission.note_overload(node, outcome)
                        overload_hint = max(overload_hint, outcome.retry_after)
                        for _vbucket_id, key in items:
                            last_errors[key] = outcome
                            overload_retry.append(key)
                    else:
                        for _vbucket_id, key in items:
                            batch.errors[key] = outcome
                    continue
                if isinstance(outcome, Exception):
                    raise outcome
                node_overloaded = False
                for (_vbucket_id, key), (status, value) in zip(items, outcome):
                    if status == "ok":
                        batch.results[key] = value
                    elif isinstance(value, self._TOPOLOGY_RETRYABLE):
                        last_errors[key] = value
                        topology_retry.append(key)
                    elif isinstance(value, TemporaryFailureError):
                        if value.retry_after is not None:
                            node_overloaded = True
                            overload_hint = max(overload_hint,
                                                value.retry_after)
                            last_errors[key] = value
                            overload_retry.append(key)
                        else:
                            batch.errors[key] = value
                    else:
                        batch.errors[key] = value
                if node_overloaded:
                    breaker.record_failure()
                    self.admission.note_overload(node)
                else:
                    breaker.record_success()
            if not topology_retry and not overload_retry:
                return batch
            if topology_retry:
                # Topology changed: let the manager and pumps react, then
                # re-batch the failures (this full drain also covers any
                # overload relief this round needs).
                self.scheduler.run_until_idle()
                self._refresh_map(bucket)
            else:
                # Pure overload: one bounded, shared backoff per round
                # rather than a full-cluster quiesce.
                overload_attempts += 1
                self.admission.backoff(overload_attempts,
                                       hint=overload_hint or None)
            pending = topology_retry + overload_retry
        for key in pending:
            batch.errors[key] = last_errors[key]
        return batch

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'NodeDownError',
                     'NotMyVBucketError', 'TemporaryFailureError')
    def multi_get(self, bucket: str, keys: list[str]) -> dict[str, Document]:
        """Batch point lookups: one ``kv_multi_get`` RPC per involved
        node, all in one round trip, instead of one round trip per key.
        Missing keys are simply absent from the result; any other
        per-key error propagates."""
        return {key: doc.copy()
                for key, doc in self._fetch(bucket, keys).items()}

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'NodeDownError',
                     'NotMyVBucketError', 'TemporaryFailureError')
    def _fetch(self, bucket: str, keys: list[str]) -> dict[str, Document]:
        """:meth:`multi_get` without the copy: the stored documents
        themselves, for a service of the cluster that only reads them
        (the query service's Fetch and joins).  Whatever leaves for an
        application is copied where it leaves."""
        batch = self._multi_call(bucket, "kv_multi_get", list(keys))
        for key, error in batch.errors.items():
            if not isinstance(error, KeyNotFoundError):
                raise error
        # The BatchResult is ours alone; hand its dict out as-is.
        return batch.results

    @declared_raises('BucketNotFoundError', 'InvalidArgumentError')
    def multi_get_batch(self, bucket: str, keys: list[str]) -> BatchResult:
        """Batch point lookups with the full per-key outcome surface."""
        batch = self._multi_call(bucket, "kv_multi_get", list(keys))
        batch.results = {key: doc.copy()
                         for key, doc in batch.results.items()}
        return batch

    @declared_raises('BucketNotFoundError', 'InvalidArgumentError')
    def multi_upsert(self, bucket: str,
                     items: Mapping[str, JsonValue] | Iterable[tuple[str, JsonValue]],
                     *, expiry: float = 0.0, flags: int = 0) -> BatchResult:
        """Create or replace many documents, one ``kv_multi_mutate`` RPC
        per destination node.  ``results`` holds a
        :class:`MutationResult` per succeeded key."""
        pairs = dict(items.items() if isinstance(items, Mapping) else items)
        payload = {
            key: {"kind": "upsert",
                  "kwargs": {"value": value, "expiry": expiry, "flags": flags}}
            for key, value in pairs.items()
        }
        return self._multi_call(bucket, "kv_multi_mutate",
                                list(pairs), payload)

    @declared_raises('BucketNotFoundError', 'InvalidArgumentError')
    def multi_insert(self, bucket: str,
                     items: Mapping[str, JsonValue] | Iterable[tuple[str, JsonValue]],
                     *, expiry: float = 0.0, flags: int = 0) -> BatchResult:
        """Create many documents, one ``kv_multi_mutate`` RPC per
        destination node.  A key that already exists surfaces its
        ``KeyExistsError`` in ``errors`` without affecting the rest of
        the batch (unlike :meth:`multi_upsert`, which overwrites)."""
        pairs = dict(items.items() if isinstance(items, Mapping) else items)
        payload = {
            key: {"kind": "insert",
                  "kwargs": {"value": value, "expiry": expiry, "flags": flags}}
            for key, value in pairs.items()
        }
        return self._multi_call(bucket, "kv_multi_mutate",
                                list(pairs), payload)

    @declared_raises('BucketNotFoundError', 'InvalidArgumentError')
    def multi_remove(self, bucket: str, keys: list[str]) -> BatchResult:
        """Delete many documents, one ``kv_multi_mutate`` RPC per node.
        A key that does not exist surfaces its ``KeyNotFoundError`` in
        ``errors`` without affecting the rest of the batch."""
        payload = {key: {"kind": "delete", "kwargs": {}} for key in keys}
        return self._multi_call(bucket, "kv_multi_mutate",
                                list(dict.fromkeys(keys)), payload)

    # -- N1QL API (section 3.1.3) ---------------------------------------------------------

    @declared_raises('AdmissionRejectedError', 'BucketNotFoundError',
                     'CorruptFileError', 'DiskFullError', 'DurabilityError',
                     'DurabilityImpossibleError', 'IndexExistsError',
                     'IndexNotFoundError', 'InvalidArgumentError',
                     'KeyNotFoundError', 'N1qlRuntimeError',
                     'N1qlSemanticError', 'NoSuitableIndexError',
                     'NodeDownError', 'NotConnectedError', 'NotMyVBucketError',
                     'ServiceUnavailableError', 'TemporaryFailureError',
                     'TimeoutError_', 'ViewExistsError', 'ViewNotFoundError')
    def query(self, statement: str, params=None,
              scan_consistency: str = "not_bounded",
              consistent_with=None):
        """Send a N1QL statement to a query-service node."""
        if getattr(self, "cluster", None) is None:
            raise NotConnectedError("client not connected through a Cluster facade")
        return self.cluster.query(statement, params,
                                  scan_consistency=scan_consistency,
                                  consistent_with=consistent_with)

    # -- view query API (section 3.1.2) -------------------------------------------------

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'NodeDownError',
                     'NotConnectedError', 'TimeoutError_',
                     'ViewNotFoundError', 'ViewQueryError')
    def view_query(self, bucket: str, design: str, view: str, **params):
        """Query a view with the REST-style parameters (key, keys,
        startkey/endkey, stale, group, limit, ...); the rows and value
        are copies of what the view stores."""
        if getattr(self, "cluster", None) is None:
            raise NotConnectedError("client not connected through a Cluster facade")
        result = self.cluster.views.query(bucket, design, view, **params)
        result.rows = deep_copy(result.rows)
        result.value = deep_copy(result.value)
        return result

    def _write(self, bucket: str, key: str, method: str, args: tuple,
               replicate_to: int, persist_to: int) -> MutationResult:
        """One write RPC; a durable one carries its requirement, and the
        wait the active registered in that call comes back with it."""
        requirement = DurabilityRequirement(replicate_to, persist_to)
        if requirement.trivial:
            return self._call(bucket, key, method, *args)
        result, wait = self._call(bucket, key, method, *args,
                                  (replicate_to, persist_to))
        self._durability.settle(
            bucket, key, requirement,
            self._map(bucket).chains[result.vbucket_id], wait)
        return result
