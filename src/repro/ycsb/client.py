"""YCSB client binding.

The paper built a Couchbase YCSB adapter over the Java SDK "with support
for the N1QL query language" (appendix 10.1).  This is the same adapter
shape over this library's smart client: reads/updates/inserts go through
the key-value API, scans go through N1QL with the exact workload-E query
the paper prints::

    SELECT meta().id AS id FROM `bucket` WHERE meta().id >= $1 LIMIT $2
"""

from __future__ import annotations

from itertools import islice

from ..common.errors import (
    InvalidArgumentError,
    KeyNotFoundError,
    TemporaryFailureError,
)
from .workload import CoreWorkload, Operation

SCAN_QUERY = (
    "SELECT meta().id AS id FROM `{bucket}` "
    "WHERE meta().id >= $1 LIMIT $2"
)


class YcsbClient:
    """Executes YCSB operations against a cluster."""

    def __init__(self, cluster, bucket: str, workload: CoreWorkload):
        self.cluster = cluster
        self.bucket = bucket
        self.workload = workload
        self.client = cluster.connect()
        self.ops_done = 0
        self.read_misses = 0
        self._scan_query = SCAN_QUERY.format(bucket=bucket)
        #: Prepared-statement name once the scan query has been prepared
        #: (the real Couchbase YCSB adapter prepares its N1QL statement).
        self._prepared_scan: str | None = None

    # -- load phase ---------------------------------------------------------------

    #: Records per bulk insert during the load phase.
    LOAD_BATCH = 128
    #: Sends per chunk before the load gives up on keys still shed.
    LOAD_ATTEMPTS = 8

    def load(self) -> int:
        """Insert the initial dataset through the node-grouped batch
        path (one ``kv_multi_mutate`` RPC per node per chunk, the way
        real YCSB loaders pipeline their bulk inserts); returns the
        record count."""
        keys = iter(self.workload.load_keys())
        count = 0
        while chunk := {key: self.workload.build_record()
                        for key in islice(keys, self.LOAD_BATCH)}:
            self._load_chunk(chunk)
            count += len(chunk)
        return count

    def _load_chunk(self, pending: dict[str, dict]) -> None:
        """Upsert one chunk and drain the cluster behind it, so a dataset
        above the quota is flushed and ejected as it arrives instead of
        piling up dirty until a node's breaker opens.  Keys shed for
        overload are re-sent -- only those -- after a beat of virtual
        time; any other per-key error raises."""
        for _attempt in range(self.LOAD_ATTEMPTS):
            batch = self.client.multi_upsert(self.bucket, pending)
            self.cluster.run_until_idle()
            if batch.ok:
                return
            for key in sorted(batch.errors):
                if not isinstance(batch.errors[key], TemporaryFailureError):
                    raise batch.errors[key]
            pending = {key: pending[key] for key in batch.errors}
            # Breaker cooldowns and pressure decay run on the virtual clock.
            self.cluster.tick(1.0)
        batch.require_ok()

    # -- run phase --------------------------------------------------------------------

    def execute(self, op: Operation) -> None:
        if op.kind == "read":
            self._read(op.key)
        elif op.kind == "update":
            self._update(op.key, op.fields)
        elif op.kind == "insert":
            self.client.upsert(self.bucket, op.key, op.fields)
        elif op.kind == "scan":
            self._scan(op.key, op.scan_length)
        elif op.kind == "rmw":
            self._read_modify_write(op.key, op.fields)
        else:
            raise InvalidArgumentError(f"unknown operation {op.kind!r}")
        self.ops_done += 1

    # -- operation implementations ---------------------------------------------------

    def _read(self, key: str) -> None:
        try:
            self.client.get(self.bucket, key)
        except KeyNotFoundError:
            self.read_misses += 1

    def _update(self, key: str, fields: dict) -> None:
        # YCSB's default update is a whole-document write of the changed
        # fields merged into the stored record; the Couchbase adapter
        # reads, merges, and writes (the section 3.1.1 flow).
        try:
            doc = self.client.get(self.bucket, key)
        except KeyNotFoundError:
            self.client.upsert(self.bucket, key, dict(fields))
            return
        value = doc.value if isinstance(doc.value, dict) else {}
        value.update(fields)
        self.client.upsert(self.bucket, key, value)

    def _read_modify_write(self, key: str, fields: dict) -> None:
        from ..common.errors import CasMismatchError
        for _ in range(8):
            try:
                doc = self.client.get(self.bucket, key)
            except KeyNotFoundError:
                return
            value = doc.value if isinstance(doc.value, dict) else {}
            value.update(fields)
            try:
                self.client.upsert(self.bucket, key, value, cas=doc.meta.cas)
                return
            # YCSB read-modify-write races by design; retry up to the cap.
            # repro: disable-next=swallowed-exception
            except CasMismatchError:
                continue

    def _scan(self, start_key: str, length: int) -> list:
        if self._prepared_scan is None:
            prepared = self.cluster.query(
                f"PREPARE ycsb_scan FROM {self._scan_query}"
            )
            self._prepared_scan = prepared.rows[0]["name"]
        result = self.cluster.query(
            f"EXECUTE {self._prepared_scan}",
            params={"1": start_key, "2": length},
        )
        return result.rows
