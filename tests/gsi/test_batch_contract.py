"""The batch contract of index maintenance: a batch of key versions
applied in one call leaves an index exactly as the same key versions
applied one at a time, in order -- the last entry list per document id
wins -- so replaying a batch changes nothing.  A document's vBucket is
a hash of its id, so each document id comes with one vBucket."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.disk import SimulatedDisk
from repro.gsi.storage import make_storage
from repro.n1ql.collation import MISSING
from repro.views import ViewDefinition
from repro.views.viewindex import ViewIndex, ViewQueryParams

DOC_IDS = ["d1", "d2", "d3", "d4", "d5"]


def vbucket_of(doc_id: str) -> int:
    return int(doc_id[1:]) % 4


#: One key component.  A small domain makes duplicate keys inside one
#: document's entry list (what an array index emits for ``[1, 1]``) and
#: equal keys across documents common.
component = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]),
                      st.none(), st.just(MISSING))
#: One document's entries; the empty list deletes the document.
entry_list = st.lists(st.tuples(component, component).map(list), max_size=4)
#: Few ids, so one batch repeats a document (delete-then-reinsert and
#: insert-then-delete included) more often than not.
batch = st.lists(st.tuples(st.sampled_from(DOC_IDS), entry_list).map(
    lambda pair: (pair[0], vbucket_of(pair[0]), pair[1])), max_size=12)


@pytest.mark.parametrize("kind", ["standard", "memopt"])
@settings(max_examples=60, deadline=None)
@given(batches=st.lists(batch, min_size=1, max_size=6))
@example(batches=[[("d1", 1, [[1, "a"]])],
                  [("d1", 1, []), ("d1", 1, [[1, "a"], [1, "a"]]),
                   ("d2", 2, [])]])
@example(batches=[[("d1", 1, [[MISSING, 2]]), ("d2", 2, [[MISSING, 2]])],
                  [("d2", 2, [[0, MISSING]]), ("d1", 1, []), ("d2", 2, [])]])
def test_update_docs_equals_one_at_a_time(kind, batches):
    disk = SimulatedDisk()
    batched = make_storage(kind, disk, "batched.index")
    single = make_storage(kind, disk, "single.index")
    for key_versions in batches:
        batched.update_docs(key_versions)
        for key_version in key_versions:
            single.update_docs([key_version])
        assert (batched.keyed_rows(None, None)[0]
                == single.keyed_rows(None, None)[0])
        assert batched.back_index == single.back_index
        assert batched.count() == single.count()
    # Replay is idempotent: the projector resends a whole slice when part
    # of it was not delivered.
    rows = batched.keyed_rows(None, None)[0]
    batched.update_docs(batches[-1])
    assert batched.keyed_rows(None, None)[0] == rows
    assert batched.back_index == single.back_index


def test_a_batch_is_one_tree_rewrite():
    disk = SimulatedDisk()
    storage = make_storage("standard", disk, "one.index")
    storage.update_docs([(f"d{i}", 0, [[i]]) for i in range(20)])
    assert disk.stats.writes == 1  # 20 rows fit one leaf: one node record
    storage.update_docs([(f"d{i}", 0, [[i + 1]]) for i in range(20)])
    assert disk.stats.writes == 2
    storage.update_docs([("nobody", 0, [])])  # nothing to delete: no write
    assert disk.stats.writes == 2


view_rows = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)),
                     max_size=3)
view_batch = st.lists(
    st.tuples(st.sampled_from(DOC_IDS), view_rows).map(
        lambda pair: (pair[0], vbucket_of(pair[0]), pair[1])),
    max_size=12)


@settings(max_examples=40, deadline=None)
@given(batches=st.lists(view_batch, min_size=1, max_size=6))
def test_view_update_docs_equals_one_at_a_time(batches):
    disk = SimulatedDisk()
    definition = ViewDefinition("dd", "v", lambda doc, meta, emit: None,
                                reduce_fn="_sum")
    batched = ViewIndex(definition, disk, "batched.view")
    single = ViewIndex(definition, disk, "single.view")
    everything = ViewQueryParams()
    for docs in batches:
        batched.update_docs(docs)
        for doc in docs:
            single.update_docs([doc])
        assert list(batched.tree.items()) == list(single.tree.items())
        assert batched.back_index == single.back_index
        assert batched.reduce(everything) == single.reduce(everything)
