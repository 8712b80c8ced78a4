"""Durability observation.

Section 2.3.2: *"At write time, Couchbase provides client applications
with the option to wait for replication and/or for persistence on a per
mutation basis."*  The client issues the write (acknowledged from
memory), then observes the key across the vBucket's chain until the
requested number of replicas hold it in memory (``replicate_to``) and
the requested number of copies are on disk (``persist_to``,
which counts the active).

The observe fan-out is driven through the scheduler so the replication
and flusher pumps make progress while the client "waits".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import (
    DurabilityError,
    DurabilityImpossibleError,
    NodeDownError,
)
from ..common.scheduler import Scheduler
from ..common.transport import Network
from ..kv.types import MutationResult


@dataclass
class DurabilityRequirement:
    """How many copies the client wants before the write "counts"."""

    replicate_to: int = 0
    persist_to: int = 0

    def __post_init__(self):
        if self.replicate_to < 0 or self.persist_to < 0:
            raise ValueError("durability requirements cannot be negative")

    @property
    def trivial(self) -> bool:
        return self.replicate_to == 0 and self.persist_to == 0


class DurabilityMonitor:
    """Client-side observe loop."""

    def __init__(self, network: Network, scheduler: Scheduler,
                 client_name: str = "client"):
        self.network = network
        self.scheduler = scheduler
        self.client_name = client_name

    def wait(
        self,
        bucket: str,
        key: str,
        result: MutationResult,
        requirement: DurabilityRequirement,
        cluster_map,
    ) -> None:
        """Block (cooperatively) until the requirement is met.

        Raises :class:`DurabilityImpossibleError` if the bucket's chain
        cannot ever satisfy it, :class:`DurabilityError` if the pumps go
        idle before it is met (e.g. a replica node is down)."""
        if requirement.trivial:
            return
        vbucket_id = result.vbucket_id
        chain = cluster_map.chains[vbucket_id]
        replicas = [n for n in chain[1:] if n is not None]
        if requirement.replicate_to > len(replicas):
            raise DurabilityImpossibleError(
                f"replicate_to={requirement.replicate_to} but the chain has "
                f"only {len(replicas)} replica(s)"
            )
        if requirement.persist_to > 1 + len(replicas):
            raise DurabilityImpossibleError(
                f"persist_to={requirement.persist_to} exceeds the chain "
                f"length {1 + len(replicas)}"
            )

        def satisfied() -> bool:
            replicated = 0
            persisted = 0
            active = chain[0]
            try:
                observed = self.network.call(
                    self.client_name, active, "kv_observe",
                    bucket, vbucket_id, key,
                )
                if observed.persisted:
                    persisted += 1
            except NodeDownError:
                return False
            for node in replicas:
                try:
                    # Observe is a per-replica poll by design: one RPC
                    # per replica node, bounded by the replica count.
                    # repro: disable-next=n-plus-one-rpc
                    observed = self.network.call(
                        self.client_name, node, "kv_observe",
                        bucket, vbucket_id, key,
                    )
                # Observe keeps polling the reachable replicas.
                # repro: disable-next=swallowed-exception
                except NodeDownError:
                    continue
                if observed.exists and observed.cas == result.cas:
                    replicated += 1
                    if observed.persisted:
                        persisted += 1
                elif not observed.exists:
                    # Deletion path.  An in-memory tombstone carrying the
                    # mutation's CAS counts as replicated; it counts as
                    # persisted only once the tombstone itself reached
                    # disk (observe no longer confuses a stale live
                    # version on disk with a persisted delete).
                    if observed.cas == result.cas or observed.persisted:
                        replicated += 1
                    if observed.persisted:
                        persisted += 1
            return (
                replicated >= requirement.replicate_to
                and persisted >= requirement.persist_to
            )

        if not self.scheduler.run_until(satisfied):
            raise DurabilityError(
                f"durability requirement not met for {key!r} "
                f"(replicate_to={requirement.replicate_to}, "
                f"persist_to={requirement.persist_to})"
            )
