"""The incrementally-maintained bucket-wide memory counter.

``KVEngine.memory_used()`` is an O(1) counter fed by hash-table charge
callbacks; the seed re-summed every vBucket's usage inside the item
pager's inner loop (O(n^2) per pager run).  These tests assert the
counter equals the ground-truth full re-summation
(``memory_used_full()``) after every kind of mutation the engine can
apply to its hash tables."""

import pytest

from repro.common.clock import VirtualClock
from repro.kv.engine import KVEngine, VBucketState
from tests.kv.support import drain_flusher

VBUCKETS = range(4)


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def engine(clock):
    eng = KVEngine("node1", "default", clock=clock,
                   quota_bytes=64 * 1024)
    for vb in VBUCKETS:
        eng.create_vbucket(vb)
    return eng


def check(engine):
    assert engine.memory_used() == engine.memory_used_full()


def fill(engine, count=40, size=256, prefix="k"):
    for i in range(count):
        engine.upsert(i % len(VBUCKETS), f"{prefix}{i}", "v" * size)
        if i % 10 == 9:
            # Keep dirty data bounded so the pager always has clean
            # entries to eject instead of tripping the quota.
            engine.flush()


class TestCounterTracksGroundTruth:
    def test_upsert_replace_delete(self, engine):
        check(engine)
        fill(engine)
        check(engine)
        # Replacements with different sizes adjust by the delta.
        engine.upsert(0, "k0", "v" * 2048)
        engine.upsert(0, "k4", "v")
        check(engine)
        engine.delete(1, "k1")
        engine.counter(2, "c", 5, initial=5)
        check(engine)
        assert engine.memory_used() > 0

    def test_pager_ejection_and_bg_fetch(self, engine):
        fill(engine, count=120, size=512)
        engine.flush()  # persist so entries are clean and ejectable
        before = engine.memory_used()
        assert engine.run_item_pager() > 0
        check(engine)
        assert engine.memory_used() < before
        # A read of an ejected value background-fetches it, re-charging
        # exactly the value's footprint.
        victim = next(
            key
            for vb in VBUCKETS
            for key, entry in engine.vbuckets[vb].hashtable.items()
            if entry.doc.ejected
            for key in [key]
        )
        vb = next(v for v in VBUCKETS
                  if engine.vbuckets[v].hashtable.peek(victim) is not None)
        assert engine.get(vb, victim).value == "v" * 512
        check(engine)

    @pytest.mark.parametrize("value", [{}, [], "", False, None],
                             ids=["object", "array", "string", "false", "null"])
    def test_bg_fetch_of_a_falsy_value_recharges_what_eject_released(
            self, engine, value):
        """A background fetch re-charges the size the value had when it
        was ejected.  (Charging ``sizeof(value or 0)`` charged a falsy
        value as the integer 0: 89 bytes tallied against 81 -- 65 for
        null -- after one cycle, and 8 or 24 more per cycle.)"""
        engine.upsert(0, "falsy", value)
        drain_flusher(engine)
        for _cycle in range(3):
            assert engine.vbuckets[0].hashtable.eject_value("falsy")
            assert engine.get(0, "falsy").value == value
            assert engine.memory_used() == sum(
                entry.doc.memory_footprint()
                for vb in engine.vbuckets.values()
                for _key, entry in vb.hashtable.items())
        check(engine)

    def test_expiry_pager(self, engine, clock):
        for i in range(16):
            engine.upsert(i % len(VBUCKETS), f"e{i}", "v" * 128,
                          expiry=clock.now() + 1.0)
        check(engine)
        clock.advance(2.0)
        assert engine.run_expiry_pager() == 16
        check(engine)

    def test_compaction_and_tombstone_trim(self, engine):
        fill(engine)
        for i in range(20):
            engine.delete(i % len(VBUCKETS), f"k{i}")
        engine.flush()
        engine.run_compactor(threshold=0.0)
        check(engine)

    def test_drop_vbucket_releases_its_share(self, engine):
        fill(engine)
        share = engine.vbuckets[0].hashtable.memory_used
        assert share > 0
        engine.drop_vbucket(0)
        check(engine)
        # And the detached hash table no longer feeds the counter.
        before = engine.memory_used()
        engine.drop_vbucket(0)  # idempotent
        assert engine.memory_used() == before

    def test_replica_and_state_changes(self, engine):
        engine.create_vbucket(99, VBucketState.REPLICA)
        fill(engine)
        engine.set_vbucket_state(99, VBucketState.ACTIVE)
        engine.upsert(99, "promoted", "v" * 64)
        check(engine)


class TestWarmupAndFullEviction:
    def test_warmup_rebuild_matches_full_sum(self, engine, clock):
        fill(engine, count=80, size=1024)
        engine.flush()
        restarted = KVEngine("node1", "default", disk=engine.disk,
                             clock=clock, quota_bytes=64 * 1024)
        for vb in VBUCKETS:
            restarted.create_vbucket(vb)
        assert restarted.warmup() > 0
        check(restarted)
        # Warmup under a quota ran the pager; the counter respected the
        # low watermark using the incremental value.
        assert restarted.memory_used() \
            <= restarted.quota_bytes * restarted.HIGH_WATERMARK

    def test_full_eviction_policy(self, clock):
        engine = KVEngine("node1", "default", clock=clock,
                          quota_bytes=32 * 1024, eviction_policy="full")
        engine.create_vbucket(0)
        for i in range(60):
            engine.upsert(0, f"f{i}", "v" * 512)
            if i % 10 == 9:
                engine.flush()
        engine.flush()
        engine.run_item_pager()
        check(engine)
        # Full eviction drops whole entries; a get re-loads from disk.
        assert engine.get(0, "f0").value == "v" * 512
        check(engine)
