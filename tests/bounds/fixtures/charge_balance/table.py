"""Known-bad fixture: a memory-accounted store whose delete path
forgets the negative charge, so the counter keeps counting freed
bytes."""


def hot_path(fn):
    return fn


def cost(bound):
    return lambda fn: fn


class AccountedTable:
    def __init__(self):
        self.entries = {}
        self.mem_used = 0

    def charge(self, delta):
        self.mem_used += delta

    @hot_path
    @cost("O(1)")
    def set(self, key, size):
        self.entries[key] = size
        self.charge(size)

    @hot_path
    @cost("O(1)")
    def delete(self, key):
        # Removes from the charged container with no charge(-...) on
        # any path through this method: charge-balance must flag it.
        del self.entries[key]
