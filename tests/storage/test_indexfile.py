"""The shared index file's vBucket purge, in both configurations.

``remove_vbucket`` takes one vBucket's rows out of the tree and its
documents out of the back-index, reading the back-index rather than
walking the tree: it must leave exactly what an index of the other
vBuckets' documents holds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.disk import SimulatedDisk
from repro.gsi.storage import BTreeIndexStorage
from repro.views import ViewDefinition
from repro.views.viewindex import ViewIndex

VBUCKETS = 4
DOC_IDS = [f"d{i}" for i in range(8)]


def vbucket_of(doc_id: str) -> int:
    return int(doc_id[1:]) % VBUCKETS


def gsi_index(disk, filename):
    return BTreeIndexStorage(disk, filename)


def view_index(disk, filename):
    return ViewIndex(ViewDefinition("dd", "v", lambda doc, meta, emit: None,
                                    "_count"), disk, filename)


CONFIGURATIONS = {
    # GSI rows are key-component lists, view rows (key, value) pairs.
    "gsi": (gsi_index, st.lists(st.integers(0, 3), min_size=1,
                                max_size=2)),
    "view": (view_index, st.tuples(st.integers(0, 3), st.integers(0, 9))),
}


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_remove_vbucket_leaves_exactly_the_other_vbuckets(configuration,
                                                          data):
    make, row = CONFIGURATIONS[configuration]
    batches = data.draw(st.lists(st.lists(
        st.tuples(st.sampled_from(DOC_IDS), st.lists(row, max_size=3)),
        max_size=10), min_size=1, max_size=4))
    gone = data.draw(st.integers(0, VBUCKETS - 1))
    disk = SimulatedDisk()
    index = make(disk, "all.index")
    others = make(disk, "others.index")
    for batch in batches:
        index.update_docs([(doc_id, vbucket_of(doc_id), rows)
                           for doc_id, rows in batch])
        others.update_docs([(doc_id, vbucket_of(doc_id), rows)
                            for doc_id, rows in batch
                            if vbucket_of(doc_id) != gone])
    kept = {vbucket_id: docs for vbucket_id, docs in index.back_index.items()
            if vbucket_id != gone}
    index.remove_vbucket(gone)
    assert list(index.tree.items()) == list(others.tree.items())
    assert index.back_index == kept == others.back_index
    assert index.count() == others.count()
    if configuration == "view":
        assert index.tree.reduce_range() == others.tree.reduce_range()
