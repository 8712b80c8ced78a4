"""One DCP consumer: the stream table and the stream-open handshake.

Intra-cluster replication, the GSI projector, the view engine and XDCR
are each a :class:`DcpConsumer`.  Every stream opens with
``stream_request(vb, seqno, vb_uuid)`` from the consumer's checkpoint
(section 4.3.2): a checkpoint past 0 without a uuid is never trusted,
and :class:`StreamRollbackRequired` calls the consumer's
:meth:`~DcpConsumer.rollback`, which returns the seqno to restart from.
"""

from __future__ import annotations

from typing import Hashable

from ..common.errors import NodeDownError, NotMyVBucketError, StreamRollbackRequired
from .messages import Deletion, Mutation
from .producer import DcpProducer


class DcpConsumer:
    """The stream table of one consumer, keyed by whatever names a stream
    to it: a vBucket, a (vBucket, replica node) or a (node, vBucket).

    Each round the consumer calls :meth:`sync` with the keys it wants,
    which opens a stream for each new key and retires the rest, then
    :meth:`poll`, which skips an idle stream at the cost of one ``idle()``
    predicate and hands out every other stream's ``Mutation`` /
    ``Deletion`` documents -- or, when no engine its streams read has
    changed since a poll found every stream idle, returns at the cost of
    one comparison.  It drops (:meth:`drop`) a stream whose delivery
    failed, so that the next round reopens it from the checkpoint.  A
    subclass supplies :meth:`checkpoint`; the other hooks have
    defaults."""

    def __init__(self):
        #: key -> the open stream (or what :meth:`opened` wrapped it in).
        self.streams: dict = {}
        #: key -> the engine its stream reads.
        self._sources: dict = {}
        #: ``(engines, sum of their change counters)`` when a poll last
        #: found every stream idle; None after an open or a drop.  The
        #: counters only grow, so an equal sum means none moved.
        self._quiet: tuple | None = None

    def checkpoint(self, key) -> tuple[int | None, int]:
        """``(vb_uuid, seqno)`` the consumer has applied the key through."""
        raise NotImplementedError

    def rollback(self, key, seqno: int) -> int:
        """The checkpoint cannot be resumed: return the seqno to restart
        from (by default the producer's rollback point)."""
        return seqno

    def opened(self, key, stream):
        """Called after each open; returns what the table holds."""
        return stream

    def retired(self, key) -> None:
        """The key is no longer wanted and its stream is closed."""

    def sync(self, wanted: dict[Hashable, tuple[DcpProducer, int]]) -> None:
        """Retire the streams whose keys are not in ``wanted`` (key ->
        (producer, vBucket)) and open one for each wanted key without."""
        streams = self.streams
        if streams.keys() == wanted.keys():
            return  # the steady state: one set comparison
        for key in [key for key in streams if key not in wanted]:
            self.drop(key)
            self.retired(key)
        for key, (producer, vbucket_id) in wanted.items():
            if key not in streams:
                self._open(key, producer, vbucket_id)

    def _open(self, key, producer: DcpProducer, vbucket_id: int) -> None:
        try:
            vb_uuid, seqno = self.checkpoint(key)
            if vb_uuid is None and seqno > 0:
                seqno = self.rollback(key, 0)
            try:
                stream = producer.stream_request(
                    vbucket_id, seqno, vb_uuid, allow_replica=False)
            except StreamRollbackRequired as demanded:
                stream = producer.stream_request(
                    vbucket_id, self.rollback(key, demanded.rollback_seqno),
                    allow_replica=False)
            self.streams[key] = self.opened(key, stream)
            self._sources[key] = producer.engine
            self._quiet = None
        except (NodeDownError, NotMyVBucketError, StreamRollbackRequired):
            # Moved, unreachable, or the history changed again between
            # the two requests: the next round tries again.
            return

    def poll(self, max_items: int) -> list[tuple]:
        """``(key, stream, docs)`` for every stream that is not idle, with
        the documents of up to ``max_items`` messages taken from it.

        A stream's ``idle()`` answer changes only when it is taken from
        or its engine's ``changes`` counter moves, so a poll that finds
        every stream idle is repeated for free until a counter moves."""
        quiet = self._quiet
        if quiet is not None and quiet[1] == sum(
                engine.changes for engine in quiet[0]):
            return []
        polled = []
        for key, stream in self.streams.items():
            if not stream.idle():
                polled.append((key, stream, [
                    message.doc for message in stream.take(max_items)
                    if isinstance(message, (Mutation, Deletion))
                ]))
        if not polled:
            engines = quiet[0] if quiet is not None \
                else set(self._sources.values())
            self._quiet = (engines, sum(engine.changes for engine in engines))
        return polled

    def drop(self, key) -> None:
        """Close and forget the key's stream; if the key is still wanted,
        the next :meth:`sync` reopens it from the checkpoint."""
        self.streams.pop(key).close()
        del self._sources[key]
        self._quiet = None
