"""Shared helpers for tests that ask a :class:`ClusterMap` who holds what.

The product routes by vBucket (``vbucket_for_key`` then ``active_node``)
and never asks these questions, so they live with the tests.
"""


def nodes_in_use(cluster_map) -> set[str]:
    return {n for chain in cluster_map.chains for n in chain if n is not None}


def node_for_key(cluster_map, key: str) -> str | None:
    return cluster_map.active_node(cluster_map.vbucket_for_key(key))


def active_vbuckets_of(cluster_map, node: str) -> list[int]:
    return [vb for vb, chain in enumerate(cluster_map.chains)
            if chain[0] == node]


def replica_vbuckets_of(cluster_map, node: str) -> list[int]:
    return [vb for vb, chain in enumerate(cluster_map.chains)
            if node in chain[1:]]
