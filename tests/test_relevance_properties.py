"""Property tests of the CSR relevance table against a dict-of-dicts reference,
and of the dataset files' round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import Catalog, ProviderProfile, RelevanceTable, load_dataset, save_dataset
from equityrank.synth import Dataset, DatasetLabels
from oracles import ReferenceRelevance

MAX_ITEM = 12
VALUES = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def tables(draw):
    # few users and item ids, so repeated pairs and users without entries
    # are both common
    user_count = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, user_count - 1), st.integers(0, MAX_ITEM), VALUES)
    return user_count, draw(st.lists(entry, max_size=40))


# absent, repeated, negative and beyond-the-table ids, and the empty query
QUERIES = st.lists(st.integers(-3, MAX_ITEM + 4), max_size=10)


@settings(max_examples=200, deadline=None)
@given(tables(), QUERIES)
def test_table_matches_dict_reference(table_args, query):
    user_count, entries = table_args
    table, ref = RelevanceTable(user_count, entries), ReferenceRelevance(user_count, entries)

    for user in range(user_count):
        got = table.relevance_of(user, np.array(query, dtype=np.int64))
        assert got.dtype == np.float64 and got.tolist() == ref.relevance_of(user, query)
        assert table.relevance_of(user, tuple(query)).tolist() == ref.relevance_of(user, query)
        assert [table.get(user, item) for item in query] == ref.relevance_of(user, query)
        assert table.dense_row(user, MAX_ITEM + 1).tolist() == ref.dense_row(user, MAX_ITEM + 1)
        assert table.user_values(user).tolist() == ref.user_values(user)
    assert list(table.iter_entries()) == ref.entries()
    assert len(table) == len(ref.entries())
    assert table.max_item_id() == max((i for _, i, _ in ref.entries()), default=-1)
    np.testing.assert_allclose(
        table.item_mean_relevance(MAX_ITEM + 1), ref.item_mean_relevance(MAX_ITEM + 1), rtol=1e-12, atol=0
    )

    # equality reads the stored pairs, not the entry order or the repeats
    deduped = ref.entries()
    assert table == RelevanceTable(user_count, deduped[::-1])
    assert table == RelevanceTable(user_count, np.array(deduped, dtype=np.float64).reshape(-1, 3))
    assert table != RelevanceTable(user_count + 1, deduped)
    if deduped:
        u, i, v = deduped[0]
        assert table != RelevanceTable(user_count, deduped + [(u, i, 0.5 if v != 0.5 else 0.25)])
        assert table != RelevanceTable(user_count, deduped[1:])


@settings(max_examples=50, deadline=None)
@given(tables(), st.sampled_from([-1, 0]))
def test_unknown_user_raises(table_args, offset):
    user_count, entries = table_args
    table = RelevanceTable(user_count, entries)
    user = -1 if offset == -1 else user_count
    for read in (
        lambda: table.relevance_of(user, [0]),
        lambda: table.get(user, 0),
        lambda: table.dense_row(user, MAX_ITEM + 1),
        lambda: table.user_values(user),
    ):
        with pytest.raises(ValueError, match="user id"):
            read()


# ids the CSV layer must quote or carry through: commas, quotes, spaces,
# newlines and non-ASCII text
LABEL = st.text(alphabet=st.sampled_from(list("ab,\"' \n;é日€")), min_size=1, max_size=6)


@st.composite
def datasets(draw):
    n_users = draw(st.integers(1, 4))
    n_items = draw(st.integers(2, 6))
    groups = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n_items - 2, max_size=n_items - 2))
    # every user needs an entry: the loader numbers users by first appearance
    entries = [(u, draw(st.integers(0, n_items - 1)), draw(VALUES)) for u in range(n_users)]
    entries += draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1), VALUES), max_size=15))
    labels = DatasetLabels(
        users=tuple(draw(st.lists(LABEL, min_size=n_users, max_size=n_users, unique=True))),
        items=tuple(draw(st.lists(LABEL, min_size=n_items, max_size=n_items, unique=True))),
        providers=tuple(draw(st.lists(LABEL, min_size=2, max_size=2, unique=True))),
    )
    return Dataset(
        catalog=Catalog.from_assignments(groups, 2),
        profiles=(ProviderProfile(1.5, 10.0, 2.0), ProviderProfile(0.0, 7.25, 0.5)),
        relevance=RelevanceTable(n_users, entries),
        labels=labels,
    )


@settings(max_examples=40, deadline=None)
@given(datasets())
def test_save_load_round_trip(tmp_path_factory, dataset):
    directory = tmp_path_factory.mktemp("roundtrip")
    save_dataset(dataset, directory)
    loaded = load_dataset(directory)
    assert loaded.relevance == dataset.relevance
    assert loaded.labels == dataset.labels
    np.testing.assert_array_equal(loaded.catalog.group_of, dataset.catalog.group_of)
    assert loaded.profiles == dataset.profiles
