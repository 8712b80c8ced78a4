"""Exception hierarchy for the repro database.

Every error raised by the public API derives from :class:`ReproError` so
applications can catch a single base class.  The hierarchy mirrors the
error surface of the system described in the paper: key-value protocol
errors (memcached-style status codes), cluster-topology errors raised to
smart clients, index/view errors, and N1QL compile/runtime errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


def declared_raises(*exception_names: str):
    """Declare the taxonomy exceptions a service entry point may raise.

    The declaration is data, not behavior: it sets ``__raises__`` on the
    function, and ``repro.analysis``'s exception-flow check verifies that
    the set of exceptions that can actually escape the entry point is
    covered by it (a declared base class covers its subclasses).  Names
    are strings so declaring does not force imports across layers::

        @declared_raises("KeyNotFoundError", "NodeDownError")
        def get(self, bucket, key):
            ...

    Run ``python -m repro.analysis --report raises`` to generate the
    declaration for a new entry point.
    """

    def decorate(func):
        func.__raises__ = tuple(exception_names)
        return func

    return decorate


class InvalidArgumentError(ReproError, ValueError):
    """A service was handed an argument it cannot act on -- an unknown
    enum value, an out-of-range bound, a malformed spec.  Subclasses the
    builtin :class:`ValueError` so pre-taxonomy callers that catch
    ``ValueError`` keep working."""


class LivelockError(ReproError, RuntimeError):
    """A bounded drive loop (scheduler rounds, XDCR settle) failed to
    quiesce within its safety-valve budget, which indicates components
    feeding each other work forever.  Subclasses the builtin
    :class:`RuntimeError` for pre-taxonomy callers."""


class SchedulerReentrancyError(ReproError, RuntimeError):
    """A pump body re-entered the scheduler drive loop (``step`` /
    ``run_until_idle`` / ``run_until`` / ``advance``).  Pumps must do one
    bounded slice of work and return; re-entering the loop from inside a
    pump nests rounds and silently serialises the very interleavings the
    sanitizer explores."""


# ---------------------------------------------------------------------------
# Key-value (memcached-style) protocol errors -- section 3.1.1 of the paper.
# ---------------------------------------------------------------------------

class KeyValueError(ReproError):
    """Base class for errors of the key-value access path."""


class KeyNotFoundError(KeyValueError):
    """The requested document ID does not exist (KEY_ENOENT)."""

    def __init__(self, key: str):
        super().__init__(f"key not found: {key!r}")
        self.key = key


class KeyExistsError(KeyValueError):
    """An insert found the key already present (KEY_EEXISTS)."""

    def __init__(self, key: str):
        super().__init__(f"key already exists: {key!r}")
        self.key = key


class CasMismatchError(KeyValueError):
    """Optimistic concurrency check failed: the CAS supplied by the client
    does not match the server's current CAS for the document (section
    3.1.1, "compare and swap").  The client should re-read and retry."""

    def __init__(self, key: str, expected: int, actual: int):
        super().__init__(
            f"CAS mismatch for {key!r}: client held {expected}, server has {actual}"
        )
        self.key = key
        self.expected = expected
        self.actual = actual


class DocumentLockedError(KeyValueError):
    """The document is under a hard (pessimistic) lock taken via get-and-lock
    and the operation did not present the lock-holder's CAS."""

    def __init__(self, key: str):
        super().__init__(f"document is locked: {key!r}")
        self.key = key


class TemporaryFailureError(KeyValueError):
    """The server cannot service the request right now (e.g. out of memory
    quota while ejection is in progress); the client should back off and
    retry.

    Overload-path raisers (the engine's quota check) attach backpressure
    metadata: ``retry_after`` is the server's backoff hint in virtual
    seconds, ``pending_writes`` the flusher backlog behind the failure,
    and ``memory_ratio`` how far past quota the cache is.  A ``None``
    ``retry_after`` marks a *semantic* temporary failure (e.g. counter on
    a non-integer document) that no amount of waiting will fix -- the
    smart client retries only pressure-tagged failures."""

    def __init__(self, message: str = "temporary failure; back off and retry",
                 *, retry_after: float | None = None,
                 pending_writes: int = 0, memory_ratio: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after
        self.pending_writes = pending_writes
        self.memory_ratio = memory_ratio


class AdmissionRejectedError(TemporaryFailureError):
    """The admission-control front door shed this request before it cost
    the cluster any work: a token bucket ran dry, a bulkhead compartment
    was full, a circuit breaker is open, or the degradation policy is
    shedding this service class.  Subclasses
    :class:`TemporaryFailureError` so every pre-admission caller's
    back-off handling (and ``@declared_raises`` contract) covers it."""

    def __init__(self, reason: str, *, retry_after: float | None = None):
        super().__init__(f"admission rejected: {reason}",
                         retry_after=retry_after)
        self.reason = reason


class ValueTooLargeError(KeyValueError):
    """The document body exceeds the bucket's maximum value size (E2BIG)."""


class DurabilityError(KeyValueError):
    """A requested durability constraint (replicate_to / persist_to) could
    not be met, e.g. not enough replica nodes are configured or alive."""


class DurabilityImpossibleError(DurabilityError):
    """The durability requirement exceeds the bucket's replica count, so it
    can never be satisfied regardless of timing."""


# ---------------------------------------------------------------------------
# Cluster / topology errors -- sections 4.1 and 4.3.1.
# ---------------------------------------------------------------------------

class ClusterError(ReproError):
    """Base class for cluster-topology errors."""


class NotMyVBucketError(ClusterError):
    """The contacted node does not host the active copy of the key's
    vBucket.  Smart clients treat this as a signal to refresh their cached
    cluster map and retry (section 4.1)."""

    def __init__(self, vbucket_id: int, node_name: str):
        super().__init__(
            f"vBucket {vbucket_id} is not active on node {node_name!r}"
        )
        self.vbucket_id = vbucket_id
        self.node_name = node_name


class NodeDownError(ClusterError):
    """The target node is not reachable (crashed or partitioned)."""

    def __init__(self, node_name: str):
        super().__init__(f"node is down: {node_name!r}")
        self.node_name = node_name


class NoQuorumError(ClusterError):
    """Not enough live nodes to elect an orchestrator or run a management
    operation."""


class RebalanceInProgressError(ClusterError):
    """A topology-changing operation was requested while a rebalance is
    already running."""


class BucketNotFoundError(ClusterError):
    """No bucket (keyspace) with the given name exists on the cluster."""

    def __init__(self, name: str):
        super().__init__(f"bucket not found: {name!r}")
        self.name = name


class BucketExistsError(ClusterError):
    """A bucket with the given name already exists."""

    def __init__(self, name: str):
        super().__init__(f"bucket already exists: {name!r}")
        self.name = name


class ServiceUnavailableError(ClusterError):
    """No node in the cluster runs the requested service (multi-dimensional
    scaling means a service may be absent, section 4.4)."""

    def __init__(self, service: str):
        super().__init__(f"no node runs the {service} service")
        self.service = service


class NodeExistsError(ClusterError, ValueError):
    """A node with the given name is already a cluster member."""

    def __init__(self, node_name: str):
        super().__init__(f"duplicate node name {node_name!r}")
        self.node_name = node_name


class NodeNotFoundError(ClusterError, ValueError):
    """A management operation named a node the cluster does not know."""

    def __init__(self, node_name: str):
        super().__init__(f"unknown node {node_name!r}")
        self.node_name = node_name


class NotConnectedError(ClusterError, RuntimeError):
    """The client is not wired to a cluster facade, so operations that
    need topology access (N1QL, view queries) cannot be routed."""


# ---------------------------------------------------------------------------
# Storage errors -- section 4.3.3.
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage-engine errors."""


class CorruptFileError(StorageError):
    """A storage file failed checksum or header validation on open."""


class DiskFullError(StorageError):
    """The simulated disk refused a write because its capacity is exhausted."""


# ---------------------------------------------------------------------------
# DCP errors -- section 4.3.2.
# ---------------------------------------------------------------------------

class DcpError(ReproError):
    """Base class for Database Change Protocol errors."""


class StreamRollbackRequired(DcpError):
    """The producer cannot continue a stream from the consumer's requested
    point; the consumer must roll back to ``rollback_seqno`` and
    re-request (mirrors DCP's ROLLBACK response)."""

    def __init__(self, vbucket_id: int, rollback_seqno: int):
        super().__init__(
            f"vBucket {vbucket_id}: rollback to seqno {rollback_seqno} required"
        )
        self.vbucket_id = vbucket_id
        self.rollback_seqno = rollback_seqno


# ---------------------------------------------------------------------------
# Index / view errors -- sections 3.1.2 and 3.3.
# ---------------------------------------------------------------------------

class IndexError_(ReproError):
    """Base class for secondary-index errors (named with a trailing
    underscore to avoid shadowing the builtin :class:`IndexError`)."""


class IndexNotFoundError(IndexError_):
    def __init__(self, name: str):
        super().__init__(f"index not found: {name!r}")
        self.name = name


class IndexExistsError(IndexError_):
    def __init__(self, name: str):
        super().__init__(f"index already exists: {name!r}")
        self.name = name


class IndexNotReadyError(IndexError_):
    """The index exists but its initial build has not completed (e.g. it
    was created with ``defer_build`` and never built)."""

    def __init__(self, name: str):
        super().__init__(f"index not ready (still building or deferred): {name!r}")
        self.name = name


class ViewNotFoundError(IndexError_):
    def __init__(self, design: str, view: str):
        super().__init__(f"view not found: {design!r}/{view!r}")
        self.design = design
        self.view = view


class ViewExistsError(IndexError_, ValueError):
    def __init__(self, full_name: str):
        super().__init__(f"view already defined: {full_name}")
        self.full_name = full_name


class ViewQueryError(IndexError_, ValueError):
    """A view query asked for something the view cannot answer, e.g.
    reduce output from a map-only view."""


# ---------------------------------------------------------------------------
# N1QL errors -- section 3.2.
# ---------------------------------------------------------------------------

class N1qlError(ReproError):
    """Base class for N1QL query errors."""


class N1qlSyntaxError(N1qlError):
    """The statement failed to lex or parse.  Carries the offending
    position so clients can point at the error."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        loc = f" at line {line}, column {column}" if line else ""
        super().__init__(f"syntax error{loc}: {message}")
        self.line = line
        self.column = column


class N1qlSemanticError(N1qlError):
    """The statement parsed but is not executable -- e.g. an unsupported
    general join between two secondary attributes (section 3.2.4), an
    unknown keyspace, or a bad parameter reference."""


class N1qlRuntimeError(N1qlError):
    """An error occurred while executing a (valid) plan."""


class NoSuitableIndexError(N1qlSemanticError):
    """The planner found no access path for a keyspace: no USE KEYS, no
    qualifying secondary index, and no primary index to fall back to."""

    def __init__(self, keyspace: str):
        super().__init__(
            f"no index available on keyspace {keyspace!r}; create a primary "
            f"index or a suitable secondary index, or use USE KEYS"
        )
        self.keyspace = keyspace


# ---------------------------------------------------------------------------
# XDCR errors -- section 4.6.
# ---------------------------------------------------------------------------

class XdcrError(ReproError):
    """Base class for cross-datacenter replication errors."""


class ReplicationExistsError(XdcrError):
    def __init__(self, source: str, target: str):
        super().__init__(f"replication {source!r} -> {target!r} already defined")


class TimeoutError_(ReproError):
    """A blocking wait (durability observe, stale=false build, request_plus
    scan) exceeded its deadline.  Trailing underscore avoids shadowing the
    builtin :class:`TimeoutError`."""
