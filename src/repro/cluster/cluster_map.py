"""The cluster map: vBucket -> server assignment.

Section 4.1: every bucket is split into 1024 logical partitions
(vBuckets); the map from vBucket to servers lives in a lookup structure
-- the **cluster map** -- that smart clients cache.  Each vBucket has one
*active* copy and up to three *replica* copies, never co-located on the
same node (section 4.1.1).

The planner here assigns chains round-robin for even spread and, when
re-planning against a previous map (rebalance in/out), keeps every
assignment it can so the mover only transfers what actually changed.
"""

from __future__ import annotations

from collections import Counter

from ..common.crc import vbucket_for_key
from ..common.errors import InvalidArgumentError

#: The paper is emphatic that this is not configurable in real
#: deployments; tests shrink it only for speed.
DEFAULT_NUM_VBUCKETS = 1024
MAX_REPLICAS = 3


class ClusterMap:
    """Immutable-ish snapshot of vBucket placement, with a revision number
    bumped by the manager every time placement changes."""

    def __init__(self, num_vbuckets: int, chains: list[list[str | None]],
                 revision: int = 1):
        self.num_vbuckets = num_vbuckets
        #: chains[vb] = [active, replica1, ...]; None marks an unassigned slot.
        self.chains = chains
        self.revision = revision

    @property
    def num_replicas(self) -> int:
        return len(self.chains[0]) - 1 if self.chains else 0

    def active_node(self, vbucket_id: int) -> str | None:
        return self.chains[vbucket_id][0]

    def replica_nodes(self, vbucket_id: int) -> list[str]:
        return [n for n in self.chains[vbucket_id][1:] if n is not None]

    def vbucket_for_key(self, key: str) -> int:
        return vbucket_for_key(key, self.num_vbuckets)

    def copy(self) -> "ClusterMap":
        return ClusterMap(
            self.num_vbuckets,
            [list(chain) for chain in self.chains],
            self.revision,
        )

    def stats(self) -> dict:
        active_counts = Counter(
            chain[0] for chain in self.chains if chain[0] is not None
        )
        replica_counts = Counter(
            node for chain in self.chains for node in chain[1:] if node is not None
        )
        return {
            "revision": self.revision,
            "active_per_node": dict(active_counts),
            "replica_per_node": dict(replica_counts),
            "unassigned_active": sum(1 for c in self.chains if c[0] is None),
        }


def plan_map(
    nodes: list[str],
    num_vbuckets: int = DEFAULT_NUM_VBUCKETS,
    num_replicas: int = 1,
    previous: ClusterMap | None = None,
) -> ClusterMap:
    """Compute a balanced placement over ``nodes``.

    With no previous map: deterministic striping.  With a previous map:
    keep every still-valid assignment, drop departed nodes, fill holes
    and then rebalance overloaded nodes minimally.
    """
    if not nodes:
        raise InvalidArgumentError("cannot plan a cluster map with zero nodes")
    if not 0 <= num_replicas <= MAX_REPLICAS:
        raise InvalidArgumentError(f"num_replicas must be 0..{MAX_REPLICAS}")
    effective_replicas = min(num_replicas, len(nodes) - 1)
    chain_length = 1 + num_replicas
    ordered_nodes = sorted(nodes)

    if previous is None:
        chains = []
        for vb in range(num_vbuckets):
            chain: list[str | None] = [
                ordered_nodes[(vb + position) % len(ordered_nodes)]
                for position in range(1 + effective_replicas)
            ]
            chain += [None] * (chain_length - len(chain))
            chains.append(chain)
        return ClusterMap(num_vbuckets, chains, revision=1)

    alive = set(nodes)
    chains = []
    for vb in range(previous.num_vbuckets):
        old_chain = previous.chains[vb]
        chain = [n if n in alive else None for n in old_chain]
        # Normalize length to the requested replica count.
        chain = (chain + [None] * chain_length)[:chain_length]
        chains.append(chain)

    _fill_holes(chains, ordered_nodes, effective_replicas)
    _balance(chains, ordered_nodes, position=0)
    for position in range(1, 1 + effective_replicas):
        _balance(chains, ordered_nodes, position=position)
    return ClusterMap(previous.num_vbuckets, chains, previous.revision + 1)


def _fill_holes(chains: list[list[str | None]], nodes: list[str],
                effective_replicas: int) -> None:
    """Assign every empty required slot to the least-loaded legal node."""
    load: Counter[str] = Counter({n: 0 for n in nodes})
    for chain in chains:
        for node in chain:
            if node is not None:
                load[node] += 1

    for chain in chains:
        # Promote a replica into an empty active slot first (cheap move:
        # the data is already there).
        if chain[0] is None:
            for position in range(1, len(chain)):
                if chain[position] is not None:
                    chain[0], chain[position] = chain[position], None
                    break
        for position in range(0, 1 + effective_replicas):
            if chain[position] is not None:
                continue
            candidates = [n for n in nodes if n not in chain]
            if not candidates:
                continue
            best = min(candidates, key=lambda n: (load[n], n))
            chain[position] = best
            load[best] += 1


def _balance(chains: list[list[str | None]], nodes: list[str],
             position: int) -> None:
    """Even out the per-node count at one chain position by reassigning
    vBuckets from the most- to the least-loaded nodes."""
    count: Counter[str] = Counter({n: 0 for n in nodes})
    holders: dict[str, list[int]] = {n: [] for n in nodes}
    for vb, chain in enumerate(chains):
        node = chain[position] if position < len(chain) else None
        if node is not None and node in count:
            count[node] += 1
            holders[node].append(vb)

    # Move vBuckets from the most- to the least-loaded node until the
    # spread is within 1.  Bounded: every move strictly shrinks the gap.
    for _ in range(len(chains) * len(nodes)):
        donor = max(nodes, key=lambda n: (count[n], n))
        if not holders[donor]:
            break
        recipients = sorted(nodes, key=lambda n: (count[n], n))
        if count[donor] - count[recipients[0]] <= 1:
            break
        moved = False
        for vb in reversed(holders[donor]):
            chain = chains[vb]
            for target in recipients:
                if count[donor] - count[target] <= 1:
                    break
                if target in chain:
                    # Active balancing may swap the active with the
                    # replica already holding the target (a promotion --
                    # the cheapest possible move).  Replica balancing
                    # must not disturb other positions.
                    if position != 0:
                        continue
                    other = chain.index(target)
                    if other == position:
                        continue
                    chain[position], chain[other] = target, donor
                else:
                    chain[position] = target
                holders[donor].remove(vb)
                holders[target].append(vb)
                count[donor] -= 1
                count[target] += 1
                moved = True
                break
            if moved:
                break
        if not moved:
            break
