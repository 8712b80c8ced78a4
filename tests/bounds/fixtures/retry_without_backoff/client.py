"""Known-bad fixture: a TMPFAIL retry loop that spins at full speed
against a node that asked for relief."""


def hot_path(fn):
    return fn


class TemporaryFailureError(Exception):
    pass


class SpinningClient:
    @hot_path
    def fetch(self, key):
        for _attempt in range(5):
            try:
                # A retry re-issues one key; it is not a loop over keys.
                # repro: disable-next=n-plus-one-rpc
                return self.network.call("me", "node1", "kv_get", key)
            except TemporaryFailureError:
                # Immediate re-issue: no backoff/delay/sleep anywhere in
                # the loop -- retry-without-backoff must flag it.
                continue
        return None
