"""Shared key-value protocol types.

These are the values that cross the wire between the data service and
everything else -- vBucket states in the cluster map, mutation tokens
returned to clients, observe results used by durability polling.  They
live apart from :mod:`repro.kv.engine` so that non-data services
(client, n1ql, gsi, views, xdcr) can name them without importing the
engine itself; the ``layer-restricted`` check of :mod:`repro.analysis`
enforces that split.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..common.contracts import protocol


@protocol(
    # Rebalance: a move builds a PENDING copy that switches to ACTIVE;
    # failover promotes a REPLICA directly; map reconciliation can
    # demote an old ACTIVE to REPLICA.  Every copy can be torn down
    # (-> DEAD), and DEAD is terminal: a dead copy's data must never
    # resurrect -- it is rebuilt fresh (section 4.3.1).
    "REPLICA->PENDING", "REPLICA->ACTIVE", "REPLICA->DEAD",
    "PENDING->ACTIVE", "PENDING->DEAD",
    "ACTIVE->REPLICA", "ACTIVE->DEAD",
    # A vBucket handoff must build the PENDING copy before the ACTIVE
    # switchover, and only then tear the old copy down.
    order=("PENDING", "ACTIVE", "DEAD"),
)
class VBucketState(Enum):
    ACTIVE = "active"
    REPLICA = "replica"
    PENDING = "pending"
    DEAD = "dead"


@dataclass
class MutationResult:
    """What a client gets back from a write: the new CAS, the mutation's
    seqno, and the vBucket it landed in (the "mutation token" used for
    durability observation and request_plus consistency)."""

    cas: int
    seqno: int
    vbucket_id: int


@dataclass
class ObserveResult:
    """Durability status of a key on one node (the observe command)."""

    exists: bool
    cas: int
    persisted: bool
