"""Known-bad fixture: a bulkhead slot released only on the success
path -- an exception between acquire and release leaks it."""


def hot_path(fn):
    return fn


def cost(bound):
    return lambda fn: fn


class Frontdoor:
    @hot_path
    @cost("O(n)")
    def handle(self, request):
        slot = self.bulkhead.acquire()
        result = self.process(request)
        # Reached only if process() returns normally; the release
        # belongs in a finally block -- leak-on-error must flag it.
        slot.release()
        return result
