"""Known-bad fixture: a dict-backed memo cache with no eviction."""


def hot_path(fn):
    return fn


def compile_plan(text):
    return ("plan", text)


class PlanCache:
    """Check-then-store memoization that never evicts anything."""

    def __init__(self):
        self.plans = {}

    @hot_path
    def lookup(self, text):
        plan = self.plans.get(text)
        if plan is None:
            plan = compile_plan(text)
            # Cache fill with no LRU, no epoch invalidation, and no
            # @bounded justification: cache-without-eviction territory.
            self.plans[text] = plan
        return plan
