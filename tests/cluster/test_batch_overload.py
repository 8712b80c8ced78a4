"""Partial batch outcomes under memory pressure: ``kv_multi_mutate``
keeps the BatchResult contract (every key in exactly one of ``results``
/ ``errors``) when some keys TMPFAIL mid-batch behind the admission
front door."""

import pytest

from repro import Cluster
from repro.common.errors import TemporaryFailureError

QUOTA = 32 * 1024
SMALL = "s" * 64
#: Can never fit under QUOTA: every attempt is a pressure-tagged
#: temporary failure, so these keys exhaust the batch retry ladder.
OVERSIZED = "z" * (64 * 1024)


def _mixed_batch():
    items = {f"ok{i}": SMALL for i in range(20)}
    items.update({f"big{i}": OVERSIZED for i in range(3)})
    return items


# Parametrised with its one arm so the test ids keep the ``[admission]``
# suffix they had beside the deleted controller-less arm.
@pytest.fixture(params=["admission"])
def cluster():
    cluster = Cluster(nodes=3, vbuckets=32)
    cluster.create_bucket("b", replicas=1, quota_bytes=QUOTA,
                          expiry_pager_interval=None)
    return cluster


def test_partial_batch_keeps_every_key_accounted(cluster):
    client = cluster.connect()
    items = _mixed_batch()
    batch = client.multi_upsert("b", items)

    assert set(batch.results) | set(batch.errors) == set(items)
    assert not set(batch.results) & set(batch.errors)
    # The doomed keys failed with (a subclass of) the temporary-failure
    # taxonomy; the viable keys all landed despite sharing RPCs with
    # them.
    assert set(batch.errors) == {f"big{i}" for i in range(3)}
    for error in batch.errors.values():
        assert isinstance(error, TemporaryFailureError)
    # Succeeded mutations are real and durable: visible to point reads
    # once the writeback machinery quiesces and the breaker (tripped by
    # the doomed keys) walks its cooldown on the virtual clock.
    cluster.tick(2.0)
    for key in batch.results:
        assert client.get("b", key).value == SMALL


def test_errored_keys_are_retryable_not_poisoned(cluster):
    client = cluster.connect()
    batch = client.multi_upsert("b", _mixed_batch())
    assert batch.errors
    cluster.tick(5.0)  # pressure decays, breakers close, flusher drains
    retry = client.multi_upsert("b", {key: SMALL for key in batch.errors})
    assert retry.ok
    for key in retry.results:
        assert client.get("b", key).value == SMALL


def test_batch_require_ok_surfaces_first_tmpfail(cluster):
    client = cluster.connect()
    batch = client.multi_upsert("b", _mixed_batch())
    with pytest.raises(TemporaryFailureError):
        batch.require_ok()
