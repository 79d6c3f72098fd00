"""Property tests of the candidate prefilter against the full-sort reference:
the same candidates and the same random draws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import RelevanceTable, prefilter_candidates
from oracles import reference_prefilter

ITEM_COUNTS = st.one_of(
    st.integers(1, 40),
    st.integers(197, 203),
    st.integers(200, 1000),
    st.just(4000),  # the online-providers catalog
)


@st.composite
def prefilter_cases(draw):
    item_count = draw(ITEM_COUNTS)
    size = draw(
        st.one_of(st.just(1), st.just(item_count), st.integers(1, max(1, item_count // 4)), st.integers(1, item_count))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    stored = np.flatnonzero(rng.random(item_count) < density)
    if draw(st.booleans()):
        # a few distinct values: ties are heavy even among stored items
        values = rng.choice([0.0, 0.25, 0.5, 1.0], stored.size)
    else:
        values = rng.random(stored.size)
    rel = RelevanceTable(1, [(0, int(item), float(v)) for item, v in zip(stored, values)])
    noise_sd = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.1]))
    return rel, item_count, size, noise_sd, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(prefilter_cases())
def test_matches_full_sort_reference(case):
    rel, item_count, size, noise_sd, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = prefilter_candidates(0, rel, item_count, size, noise_sd, rng)
    want = reference_prefilter(0, rel, item_count, size, noise_sd, ref_rng)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
