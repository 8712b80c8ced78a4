"""Tests for the CRC32 digest and the key -> vBucket fold.

The product's ``crc32`` is :func:`zlib.crc32`; the oracle here is the
table-driven pure-Python CRC-32 the product used to carry, so
"matches zlib" still compares two independent implementations."""

import zlib

from hypothesis import given
from hypothesis import strategies as st

from repro.common.crc import crc32, vbucket_for_key

_POLY = 0xEDB88320


def _build_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()


def reference_crc32(data: bytes, value: int = 0) -> int:
    """Reflected CRC-32 of ``data``, optionally continuing from ``value``."""
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


class TestCrc32:
    def test_empty(self):
        assert crc32(b"") == 0

    def test_known_vector(self):
        # Standard CRC-32 check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926
        assert reference_crc32(b"123456789") == 0xCBF43926

    def test_matches_zlib_on_samples(self):
        for sample in [b"a", b"hello world", b"\x00\xff" * 100, b"key::123"]:
            assert crc32(sample) == zlib.crc32(sample) == reference_crc32(sample)

    @given(st.binary(max_size=256))
    def test_matches_zlib_property(self, data):
        assert crc32(data) == zlib.crc32(data) == reference_crc32(data)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_streaming_continuation(self, a, b):
        expected = reference_crc32(b, reference_crc32(a))
        assert crc32(b, crc32(a)) == expected == reference_crc32(a + b)


class TestVBucketMapping:
    def test_deterministic(self):
        assert vbucket_for_key("user::1", 1024) == vbucket_for_key("user::1", 1024)

    def test_str_and_bytes_agree(self):
        assert vbucket_for_key("abc", 1024) == vbucket_for_key(b"abc", 1024)

    def test_in_range(self):
        for i in range(1000):
            assert 0 <= vbucket_for_key(f"key{i}", 64) < 64

    @given(st.text(max_size=64), st.sampled_from([16, 64, 256, 1024]))
    def test_in_range_property(self, key, vbuckets):
        assert 0 <= vbucket_for_key(key, vbuckets) < vbuckets

    def test_spread_is_reasonably_uniform(self):
        """10k sequential keys over 64 vBuckets: no partition should be
        wildly over- or under-loaded (the paper relies on CRC32 spreading
        load evenly across partitions, section 4.1)."""
        counts = [0] * 64
        for i in range(10_000):
            counts[vbucket_for_key(f"user::{i}", 64)] += 1
        expected = 10_000 / 64
        assert min(counts) > expected * 0.5
        assert max(counts) < expected * 1.5

    def test_known_libcouchbase_fold(self):
        # The fold must use bits 16..30 of the digest.
        digest = crc32(b"somekey")
        assert vbucket_for_key("somekey", 1024) == ((digest >> 16) & 0x7FFF) % 1024

    def test_placement_is_pinned(self):
        """Literal placements: every persisted file, rebalance plan and
        client map depends on these, so neither the digest nor the fold
        may drift."""
        placement = {key: (vbucket_for_key(key, 64), vbucket_for_key(key, 1024))
                     for key in ["user::1", "somekey", "a", "key::123"]}
        assert placement == {
            "user::1": (37, 997),
            "somekey": (5, 453),
            "a": (55, 183),
            "key::123": (14, 526),
        }
