"""Known-bad fixture: a TMPFAIL handler that re-raises on one branch and
retries at full speed on the other -- the shape of a routed client call
whose backoff was removed."""


def hot_path(fn):
    return fn


class TemporaryFailureError(Exception):
    retry_after = None


class RoutedClient:
    @hot_path
    def routed_call(self, key):
        for _attempt in range(5):
            try:
                # A retry re-issues one key; it is not a loop over keys.
                # repro: disable-next=n-plus-one-rpc
                return self.network.call("me", "node1", "kv_get", key)
            except TemporaryFailureError as error:
                if error.retry_after is None:
                    # A semantic failure: waiting cannot fix it.
                    raise
                # An overload failure is retried immediately: no
                # backoff/delay/sleep anywhere in the loop.
        return None
