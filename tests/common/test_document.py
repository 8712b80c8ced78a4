"""Tests for Document/DocumentMeta semantics."""

import dataclasses

import pytest

from repro.common.document import Document, DocumentMeta
from repro.common.jsonval import sizeof


class TestDocumentMeta:
    def test_defaults(self):
        meta = DocumentMeta(key="k")
        assert meta.cas == 0
        assert meta.seqno == 0
        assert not meta.deleted

    def test_copy_is_independent(self):
        """Meta is frozen: a changed copy is a new meta, and assigning to
        a field of a stored one raises."""
        meta = DocumentMeta(key="k", cas=5)
        copy = dataclasses.replace(meta, cas=9)
        assert meta.cas == 5 and copy.cas == 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            meta.cas = 9

    def test_copy_carries_every_field(self):
        """A document copy shares the frozen meta, so every field -- one
        added later too -- carries, and only the value is copied."""
        samples = {int: 7, float: 2.5, bool: True, str: "k"}
        meta = DocumentMeta(**{
            f.name: samples[type(f.default)] if f.name != "key" else "k"
            for f in dataclasses.fields(DocumentMeta)
        })
        assert meta != DocumentMeta(key="k")
        assert all(getattr(meta, f.name) != f.default
                   for f in dataclasses.fields(DocumentMeta) if f.name != "key")
        doc = Document(meta, {"a": [1]})
        copy = doc.copy()
        assert copy.meta is meta and copy == doc
        assert copy.value is not doc.value and copy.size == doc.size

    def test_expiry_semantics(self):
        meta = DocumentMeta(key="k", expiry=100.0)
        assert not meta.is_expired(99.9)
        assert meta.is_expired(100.0)
        assert meta.is_expired(500.0)

    def test_zero_expiry_never_expires(self):
        meta = DocumentMeta(key="k", expiry=0.0)
        assert not meta.is_expired(1e12)

    def test_tombstones_do_not_expire(self):
        meta = DocumentMeta(key="k", expiry=1.0, deleted=True)
        assert not meta.is_expired(100.0)


class TestDocument:
    def test_copy_deep_copies_value(self):
        doc = Document(DocumentMeta(key="k"), {"a": [1]})
        copy = doc.copy()
        copy.value["a"].append(2)
        assert doc.value == {"a": [1]}

    def test_key_property(self):
        assert Document(DocumentMeta(key="k"), 1).key == "k"

    def test_footprint_grows_with_value(self):
        small = Document(DocumentMeta(key="k"), "x")
        big = Document(DocumentMeta(key="k"), "x" * 1000)
        assert big.memory_footprint() > small.memory_footprint()

    def test_ejected_doc_charges_metadata_only(self):
        resident = Document(DocumentMeta(key="k"), "x" * 1000)
        ejected = Document(DocumentMeta(key="k"), None, ejected=True)
        assert ejected.memory_footprint() < resident.memory_footprint()

    def test_size_is_the_value_sizeof_and_survives_ejection(self):
        value = {"a": [1, "x" * 50]}
        doc = Document(DocumentMeta(key="k"), value)
        assert doc.size == sizeof(value)
        assert doc.memory_footprint() == 64 + 1 + sizeof(value)
        ejected = Document(doc.meta, None, ejected=True, size=doc.size)
        assert ejected.size == doc.size
        assert ejected.memory_footprint() == 64 + 1
        # A JSON null value and a tombstone charge nothing for the value.
        assert Document(DocumentMeta(key="k"), None).memory_footprint() == 65

    def test_footprint_includes_key_bytes(self):
        short = Document(DocumentMeta(key="k"), None)
        long_key = Document(DocumentMeta(key="k" * 100), None)
        assert long_key.memory_footprint() > short.memory_footprint()
