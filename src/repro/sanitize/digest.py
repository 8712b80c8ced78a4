"""Canonical state digests for the divergence oracle.

A schedule policy may reorder pumps arbitrarily, but once the system
quiesces the *logical* converged state must not depend on the order the
pumps ran in.  This module extracts that logical state into a canonical
nested structure and hashes it, so two runs can be compared with one
string comparison and diffed structurally when they disagree.

What goes in, per cluster: active/replica document contents per vBucket
(value, revision, CAS, flags, expiry -- for both live docs and
tombstones), the logically persisted contents of each vBucket's storage
file, materialized view rows, GSI index rows, and whatever observations
the scenario recorded (query results, durability acks).

What stays out, deliberately: sequence numbers and vBucket UUIDs (both
are assignment-order bookkeeping -- XDCR re-assigns local seqnos on
arrival, failover draws fresh UUIDs from a process-wide counter), the
failover logs built from them, metrics, network call counters, the
manager's event log, and file layout/fragmentation.  Those legitimately
vary with the schedule; only user-visible state must not.
"""

from __future__ import annotations

import hashlib
import json


def _doc_entry(doc) -> dict:
    """Canonical digest form of one document version (no seqno)."""
    meta = doc.meta
    return {
        "value": None if meta.deleted else doc.value,
        "rev": meta.rev,
        "cas": meta.cas,
        "flags": meta.flags,
        "expiry": meta.expiry,
        "deleted": meta.deleted,
    }


def _hashtable_contents(vb, store) -> dict:
    """In-memory contents of one vBucket, with ejected values restored
    from the storage file (ejection is residency, not state)."""
    out: dict[str, dict] = {}
    for key, entry in vb.hashtable.items():
        doc = entry.doc
        if doc.ejected and not doc.meta.deleted:
            doc = store.get(key)
        out[key] = _doc_entry(doc)
    return out


def _store_contents(store) -> dict:
    """Logically persisted contents: latest version per key, including
    tombstones; physical layout and garbage versions are invisible."""
    return {
        doc.key: _doc_entry(doc)
        for doc in store.all_docs(include_deleted=True)
    }


def _bucket_digest(cluster, bucket: str) -> dict:
    cluster_map = cluster.manager.cluster_maps[bucket]
    vbuckets: dict[str, dict] = {}
    for vbucket_id in range(cluster_map.num_vbuckets):
        chain = cluster_map.chains[vbucket_id]
        copies: dict[str, dict] = {}
        for position, node_name in enumerate(chain):
            if node_name is None:
                continue
            node = cluster.manager.nodes.get(node_name)
            if node is None:
                continue
            engine = node.engines.get(bucket)
            if engine is None:
                continue
            vb = engine.vbuckets.get(vbucket_id)
            if vb is None:
                continue
            copies[f"{'active' if position == 0 else 'replica'}:{node_name}"] = {
                "memory": _hashtable_contents(vb, vb.store),
                "disk": _store_contents(vb.store),
            }
        vbuckets[str(vbucket_id)] = copies
    return vbuckets


def _view_digests(cluster) -> dict:
    out: dict[str, list] = {}
    for node in cluster.nodes():
        for bucket, view_engine in node.view_engines.items():
            for (design, view), index in view_engine.indexes.items():
                rows = [
                    [composite, entry]
                    for composite, entry in index.tree.items()
                ]
                out[f"{node.name}/{bucket}/{design}/{view}"] = rows
    return out


def _gsi_digests(cluster) -> dict:
    out: dict[str, list] = {}
    for node in cluster.nodes():
        if node.indexer is None:
            continue
        for name, instance in node.indexer.indexer.instances.items():
            rows = [
                [key_components, doc_id]
                for key_components, doc_id
                in instance.storage.keyed_rows(None, None)[0]
            ]
            out[f"{node.name}/{name}"] = rows
    return out


def cluster_state(cluster) -> dict:
    """The canonical converged-state structure for one cluster."""
    return {
        "buckets": {
            bucket: _bucket_digest(cluster, bucket)
            for bucket in sorted(cluster.manager.cluster_maps)
        },
        "views": _view_digests(cluster),
        "gsi": _gsi_digests(cluster),
    }


def _canon(value):
    """JSON-encodable canonical form; non-JSON leaves fall back to repr
    (stable for everything the digest reads: scalars, MISSING, tuples)."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def state_digest(clusters, observations) -> tuple[str, dict]:
    """Hash the canonical state of every cluster plus the scenario's own
    observations.  ``clusters`` is ``[(name, Cluster), ...]``; returns
    ``(sha256 hex digest, canonical structure)``."""
    state = {
        "clusters": {name: cluster_state(c) for name, c in clusters},
        "observations": observations,
    }
    canonical = _canon(state)
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest(), canonical


def diff_paths(a, b, prefix: str = "", limit: int = 20) -> list[str]:
    """Dotted paths at which two canonical structures disagree; the
    oracle's human-readable "where exactly did the state diverge"."""
    out: list[str] = []
    _diff(a, b, prefix, out, limit)
    return out


def _diff(a, b, prefix: str, out: list[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                out.append(f"{path}: only in second run")
            elif key not in b:
                out.append(f"{path}: only in first run")
            else:
                _diff(a[key], b[key], path, out, limit)
            if len(out) >= limit:
                return
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{prefix}: length {len(a)} != {len(b)}")
            return
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            _diff(item_a, item_b, f"{prefix}[{index}]", out, limit)
            if len(out) >= limit:
                return
    elif a != b:
        out.append(f"{prefix}: {a!r} != {b!r}")
