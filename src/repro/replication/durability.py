"""Durability waits.

Section 2.3.2: *"At write time, Couchbase provides client applications
with the option to wait for replication and/or for persistence on a per
mutation basis."*  The client issues the write (acknowledged from
memory), then waits until the requested number of replicas hold it in
memory (``replicate_to``) and the requested number of copies are on
disk (``persist_to``, which counts the active).

The wait sends no message of its own.  A durable write carries its
``(replicate_to, persist_to)`` to the active, which registers its own
waiter when ``persist_to >= 1`` and returns the :class:`DurabilityWait`
with the mutation token; when a replica can count (``replicate_to >= 1``
or ``persist_to >= 2``), the active's replicator carries the
registration to every replica it streams the vBucket to in the
replication batch it sends anyway, and each replica's waiter comes back
in that batch's reply.  The flusher and the replica apply complete the
waiters, and the client checks the handles locally.  The wait drives
only the pumps that can complete them -- the active's flusher and
replicator, and each replica's flusher when ``persist_to >= 2`` -- in
scheduler passes; whole rounds run only once those stall (a replica
that cannot be reached, a vBucket moving away).  A wait on an earlier
mutation token (:meth:`DurabilityMonitor.wait`) costs one call to the
active, which then registers it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import DurabilityError, DurabilityImpossibleError
from ..common.scheduler import Scheduler, pump_name
from ..common.transport import Network
from ..kv.types import DurabilityWait, MutationResult


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
        """Block (cooperatively) until the requirement is met for the
        mutation ``result`` names: one call registers the wait at the
        vBucket's active, then :meth:`settle`."""
        if requirement.trivial:
            return
        chain = cluster_map.chains[result.vbucket_id]
        _check_possible(requirement, chain)
        wait = self.network.call(
            self.client_name, chain[0], "kv_durability_wait", bucket,
            result.vbucket_id, key, result.cas,
            requirement.replicate_to, requirement.persist_to)
        self.settle(bucket, key, requirement, chain, wait)

    def settle(self, bucket: str, key: str,
               requirement: DurabilityRequirement, chain: list,
               wait: DurabilityWait) -> None:
        """Drive the pumps that can meet the requirement until ``wait``'s
        waiters meet it; the wait is cancelled however this ends.

        Raises :class:`DurabilityImpossibleError` if the vBucket's
        ``chain`` cannot ever satisfy it, :class:`DurabilityError` if the
        pumps go idle before it is met (e.g. a replica node is down), and
        the :class:`NotMyVBucketError` a waiter carries when its vBucket
        leaves that node mid-wait."""

        def satisfied() -> bool:
            replicated = persisted = 0
            for waiter in wait.waiters:
                if waiter.error is not None:
                    raise waiter.error
                replicated += waiter.replicated
                persisted += waiter.persisted
            return (
                replicated >= requirement.replicate_to
                and persisted >= requirement.persist_to
            )

        active = chain[0]
        pumps = {pump_name("flusher", active, bucket),
                 pump_name("replicator", active, bucket)}
        if requirement.persist_to >= 2:
            pumps.update(pump_name("flusher", name, bucket)
                         for name in chain[1:] if name is not None)
        try:
            _check_possible(requirement, chain)
            met = self.scheduler.run_until(satisfied, pumps=pumps)
        finally:
            wait.cancel()
        if not met:
            raise DurabilityError(
                f"durability requirement not met for {key!r} "
                f"(replicate_to={requirement.replicate_to}, "
                f"persist_to={requirement.persist_to})"
            )


def _check_possible(requirement: DurabilityRequirement, chain: list) -> None:
    """Raise :class:`DurabilityImpossibleError` if ``chain`` -- the
    vBucket's nodes in the client's map -- has too few copies."""
    replicas = sum(1 for name in chain[1:] if name is not None)
    if requirement.replicate_to > replicas:
        raise DurabilityImpossibleError(
            f"replicate_to={requirement.replicate_to} but the chain has "
            f"only {replicas} replica(s)"
        )
    if requirement.persist_to > 1 + replicas:
        raise DurabilityImpossibleError(
            f"persist_to={requirement.persist_to} exceeds the chain "
            f"length {1 + replicas}"
        )
