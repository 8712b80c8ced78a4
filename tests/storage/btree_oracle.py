"""Whole-tree walks the storage tests check the B-tree's incremental
answers against; nothing in the product needs a full traversal."""

from repro.storage.btree import BTree


def measure_node_bytes(tree: BTree) -> int:
    """Total on-disk bytes (framing included) of every node reachable
    from the tree's root -- the oracle for the incrementally maintained
    ``tree.node_bytes``."""
    total = 0
    stack = [] if tree.root is None else [tree.root]
    while stack:
        kind, items, size, _parts, _keys = tree._read_node_sized(stack.pop())
        total += size
        if kind == "kp":
            stack.extend(child for _key, child, _reduction in items)
    return total


def full_reduce(tree: BTree):
    """Reduce value of the whole tree, from the root's reductions."""
    if tree.root is None:
        return tree._rereduce([]) if tree.reduce_fn else None
    kind, items = tree._read_node(tree.root)
    if kind == "kv":
        return tree._reduce_leaf(items)
    return tree._rereduce([reduction for _k, _p, reduction in items])
