"""Durability waits.

Section 2.3.2: *"At write time, Couchbase provides client applications
with the option to wait for replication and/or for persistence on a per
mutation basis."*  The client issues the write (acknowledged from
memory), then waits until the requested number of replicas hold it in
memory (``replicate_to``) and the requested number of copies are on
disk (``persist_to``, which counts the active).

The wait costs one message wave, not a poll per scheduler round: one
``kv_observe_wait`` fan-out registers a waiter on every chain node that
can contribute -- the active when ``persist_to >= 1``, the replicas when
``replicate_to >= 1`` or ``persist_to >= 2`` -- and the flusher and the
replica apply on those nodes complete them.  The scheduler drives the
pumps while the client checks the returned handles locally.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import DurabilityError, DurabilityImpossibleError
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
    """Client side of a durability wait."""

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
        idle before it is met (e.g. a replica node is down), and the
        :class:`NotMyVBucketError` a waiter carries when its vBucket
        leaves that node mid-wait."""
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
        active = chain[0]
        targets = [active] if requirement.persist_to else []
        if requirement.replicate_to or requirement.persist_to > 1:
            targets += replicas
        # A node the client cannot reach contributes nothing, as a
        # failed observe never did.
        waiters = self.network.call_fanout(
            self.client_name,
            [n for n in targets if self.network.reachable(self.client_name, n)],
            "kv_observe_wait", bucket, vbucket_id, key, result.cas, active,
        )

        def satisfied() -> bool:
            replicated = persisted = 0
            for waiter in waiters:
                if waiter.error is not None:
                    raise waiter.error
                replicated += waiter.replicated
                persisted += waiter.persisted
            return (
                replicated >= requirement.replicate_to
                and persisted >= requirement.persist_to
            )

        try:
            met = self.scheduler.run_until(satisfied)
        finally:
            for waiter in waiters:
                waiter.cancel()
        if not met:
            raise DurabilityError(
                f"durability requirement not met for {key!r} "
                f"(replicate_to={requirement.replicate_to}, "
                f"persist_to={requirement.persist_to})"
            )
