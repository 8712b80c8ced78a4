"""DCP producer and streams.

A :class:`DcpProducer` sits on top of a node's :class:`KVEngine` and
hands out per-vBucket :class:`DcpStream` objects.  Consumers -- each
a :class:`~repro.dcp.consumer.DcpConsumer` (intra-cluster replication,
the view engine, the GSI projector, XDCR) or a rebalance mover -- pull
messages with :meth:`DcpStream.take`, which is how the cooperative
scheduler models "memory-to-memory streaming".

A stream starts with **backfill** (reading the persisted, de-duplicated
history from the storage snapshot) when the consumer's start point has
already been trimmed from the in-memory change buffer, then switches to
the in-memory buffer.  Stream requests carry the consumer's last known
``(vb_uuid, seqno)``; if that history branch diverged (the consumer
heard mutations from a failed-over active that the new active never
had), the producer demands a **rollback** (section 4.3.1's failover
machinery, surfaced through DCP).
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from enum import Enum

from ..common import tracing
from ..common.contracts import hot_path
from ..common.errors import StreamRollbackRequired
from ..common.contracts import protocol
from ..kv.engine import KVEngine, VBucket
from ..kv.types import VBucketState
from .messages import Deletion, DcpMessage, Mutation, SnapshotMarker, StreamEnd

__shared_state__ = ("_stream_ids",)

#: Process-wide, so a stream id never repeats -- not across a node's
#: restarts either, or the write-race tracker would take a new stream
#: for a dead one.
_stream_ids = itertools.count(1)


@protocol(
    # A stream opens, backfills from disk when its start point was
    # trimmed, then rides the in-memory buffer; falling behind the
    # buffer trim drops it back to backfill.  CLOSED is terminal: a
    # closed stream never resumes (consumers reopen a fresh one so the
    # rollback handshake re-validates lineage).
    "OPEN->BACKFILL", "OPEN->IN_MEMORY", "OPEN->CLOSED",
    "BACKFILL->IN_MEMORY", "BACKFILL->CLOSED",
    "IN_MEMORY->BACKFILL", "IN_MEMORY->CLOSED",
)
class DcpStreamState(Enum):
    OPEN = "open"
    BACKFILL = "backfill"
    IN_MEMORY = "in-memory"
    CLOSED = "closed"


class DcpStream:
    """A pull-based change stream for one vBucket."""

    def __init__(self, producer: "DcpProducer", vb: VBucket, start_seqno: int,
                 end_seqno: float = math.inf):
        self.producer = producer
        self.vb = vb
        self.last_seqno = start_seqno
        self.end_seqno = end_seqno
        self.phase = DcpStreamState.OPEN
        # deque, not list: backfill parks the entire persisted history
        # here, and take() drains from the left -- list.pop(0) would
        # shift the whole backlog per message (quadratic per stream).
        # Consumer-drained (bounds checks): every pump that owns a
        # stream calls take() each round until idle().
        self._pending: deque[DcpMessage] = deque()
        #: Stable per-run identity for the write-race tracker: the first
        #: pump to take() from this stream owns it; anyone else taking
        #: from the same stream is stealing a peer's queue.
        self.stream_id = (
            f"dcp/{producer.engine.node_name}/{producer.engine.bucket_name}"
            f"/vb{vb.id}#{next(_stream_ids)}"
        )

    @property
    def vbucket_id(self) -> int:
        return self.vb.id

    @property
    def closed(self) -> bool:
        return self.phase is DcpStreamState.CLOSED

    def idle(self) -> bool:
        """True when :meth:`take` would return nothing and change nothing:
        no message pending, the position at the vBucket's newest
        deliverable change (its high seqno, unless a refused write used
        the last seqnos up), and the stream short of its ``end_seqno``
        (which would emit :class:`StreamEnd`).  A pump polls with this
        before taking, so a round costs a stream only when it has news.
        Polling is consuming for the single-consumer rule: it claims the
        stream like ``take``."""
        tracing.record_take(self.stream_id)
        last = self.last_seqno
        return (not self._pending
                and self.vb.last_change_seqno() <= last < self.end_seqno)

    @hot_path
    def take(self, max_items: int = 64) -> list[DcpMessage]:
        """Return up to ``max_items`` messages (snapshot markers are free).

        Returns an empty list when there is nothing new; an unbounded
        stream never ends, a bounded one emits :class:`StreamEnd` when it
        passes ``end_seqno``."""
        tracing.record_take(self.stream_id)
        if self.closed:
            return []
        out: list[DcpMessage] = []
        while len(out) < max_items:
            if not self._pending:
                self._refill()
            if not self._pending:
                break
            message = self._pending.popleft()
            out.append(message)
            if isinstance(message, (Mutation, Deletion)):
                self.last_seqno = message.seqno
            if isinstance(message, StreamEnd):
                self.phase = DcpStreamState.CLOSED
                self.producer.engine.metrics.inc("dcp.stream_ended")
                break
        return out

    def _refill(self) -> None:
        vb = self.vb
        if self.phase is DcpStreamState.CLOSED:
            return  # a closed stream never resumes
        if self.last_seqno >= self.end_seqno:
            self._pending.append(StreamEnd(vb.id, "ok"))
            return
        if self.last_seqno >= vb.high_seqno:
            return  # caught up; more may arrive later
        if self.last_seqno < vb.buffer_start_seqno:
            self._backfill()
        else:
            self._from_buffer()

    def _backfill(self) -> None:
        """Disk phase: stream the persisted de-duplicated history up to
        the point where the in-memory buffer takes over."""
        vb = self.vb
        self.phase = DcpStreamState.BACKFILL
        self.producer.engine.metrics.inc("dcp.stream_backfill")
        backfill_end = vb.buffer_start_seqno
        docs = [
            doc
            for doc in vb.store.changes_since(self.last_seqno)
            if doc.meta.seqno <= backfill_end
        ]
        if not docs:
            # Nothing on disk in the gap (e.g. all superseded); skip ahead.
            self.last_seqno = backfill_end
            return
        self._pending.append(
            SnapshotMarker(vb.id, self.last_seqno + 1, backfill_end, from_disk=True)
        )
        self._enqueue(docs)

    def _enqueue(self, docs) -> None:
        """One message per document, carrying the document itself: a
        stored document is immutable, so no consumer needs its own."""
        vbucket_id = self.vb.id
        self._pending.extend(
            Deletion(vbucket_id, doc) if doc.meta.deleted
            else Mutation(vbucket_id, doc)
            for doc in docs)

    def _from_buffer(self) -> None:
        vb = self.vb
        self.phase = DcpStreamState.IN_MEMORY
        self.producer.engine.metrics.inc("dcp.stream_in_memory")
        items = vb.buffered(self.last_seqno, self.end_seqno)
        if not items:
            if self.last_seqno < vb.buffer_start_seqno:
                return
            # Superseded seqnos can leave silence; snap to high mark.
            self.last_seqno = max(self.last_seqno, vb.buffer_start_seqno)
            return
        self._pending.append(
            SnapshotMarker(vb.id, items[0].meta.seqno, items[-1].meta.seqno)
        )
        self._enqueue(items)

    def close(self) -> None:
        self.phase = DcpStreamState.CLOSED
        self.producer.engine.metrics.inc("dcp.stream_closed")


class DcpProducer:
    """Creates streams over one node's KV engine for one bucket."""

    def __init__(self, engine: KVEngine, name: str = "dcp"):
        self.engine = engine
        self.name = name

    @hot_path
    def stream_request(
        self,
        vbucket_id: int,
        start_seqno: int = 0,
        vb_uuid: int | None = None,
        end_seqno: float = math.inf,
        allow_replica: bool = True,
    ) -> DcpStream:
        """Open a stream from ``start_seqno`` (exclusive).

        ``vb_uuid`` is the consumer's last known history branch; a
        divergent branch raises :class:`StreamRollbackRequired` with the
        seqno the consumer must discard back to."""
        vb = self.engine.vbuckets.get(vbucket_id)
        if vb is None or (
            vb.state is not VBucketState.ACTIVE
            and not (allow_replica and vb.state is VBucketState.REPLICA)
        ):
            from ..common.errors import NotMyVBucketError
            raise NotMyVBucketError(vbucket_id, self.engine.node_name)
        if vb_uuid is not None and start_seqno > 0:
            rollback_point = self._rollback_point(vb, vb_uuid, start_seqno)
            if rollback_point is not None:
                raise StreamRollbackRequired(vbucket_id, rollback_point)
        if start_seqno > vb.high_seqno:
            raise StreamRollbackRequired(vbucket_id, vb.high_seqno)
        return DcpStream(self, vb, start_seqno, end_seqno)

    @staticmethod
    def _rollback_point(vb: VBucket, vb_uuid: int, start_seqno: int) -> int | None:
        """None if the consumer's (uuid, seqno) lies on this vBucket's
        history; otherwise the seqno to roll back to."""
        log = vb.failover_log
        for index, (uuid, branch_start) in enumerate(log):
            if uuid != vb_uuid:
                continue
            branch_end = (
                log[index + 1][1] if index + 1 < len(log) else vb.high_seqno
            )
            if start_seqno <= branch_end:
                return None
            return branch_end
        # Unknown branch entirely: the consumer must restart from zero.
        return 0

    def failover_log(self, vbucket_id: int) -> list[tuple[int, int]]:
        return list(self.engine.vbuckets[vbucket_id].failover_log)
