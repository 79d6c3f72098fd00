"""Each policy has one scorer: scoring any subset of a row's slots gives, bit
for bit, the whole-row scores at those slots. The slot-greedy fill relies on
this when it rescores only the remaining slots, and a narrowed candidate set
is just one more subset."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import Catalog, PolicyConfig, ProviderProfile
from equityrank.rankers import ALL_SLOTS, PolicyPlan

WHOLE_ROW_POLICIES = [("TopK", 0.0)] + [
    (kind, alpha) for kind in ("FairCoStar", "EquityRank") for alpha in (0.0, 1e-4, 1e-2, 0.5, 1.0, 10.0)
]
# ties and zeros are common in real relevance; keep both likely
RELEVANCE = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0))
GAINS = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))


@st.composite
def scoring_cases(draw):
    m = draw(st.integers(2, 6))
    n_items = draw(st.integers(m, 30))
    groups = list(range(m)) + draw(st.lists(st.integers(0, m - 1), min_size=n_items - m, max_size=n_items - m))
    catalog = Catalog.from_assignments(draw(st.permutations(groups)))
    weights = st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(1e-2, 10.0))
    profiles = [ProviderProfile(*draw(weights)) for _ in range(m)]
    n_rows = draw(st.integers(1, 3))
    width = draw(st.integers(1, n_items))
    rows = np.array([sorted(draw(st.permutations(range(n_items)))[:width]) for _ in range(n_rows)], dtype=np.int64)
    row = draw(st.integers(0, n_rows - 1))
    rel = np.array(draw(st.lists(RELEVANCE, min_size=width, max_size=width)))
    gains = np.array(draw(st.lists(GAINS, min_size=m, max_size=m)))
    at = np.array(draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True)), dtype=np.int64)
    kind, alpha = draw(st.sampled_from(WHOLE_ROW_POLICIES))
    return PolicyConfig(kind, alpha), rows, catalog, profiles, row, rel, gains, at


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_scoring_a_subset_of_slots_matches_the_whole_row(case):
    policy, rows, catalog, profiles, row, rel, gains, at = case
    plan = PolicyPlan(policy, rows, catalog, profiles)
    whole = plan.score(row, ALL_SLOTS, rel, gains)
    assert plan.score(row, at, rel[at], gains).tobytes() == whole[at].tobytes()
    # the scorer reads the gains and relevance and writes neither
    assert plan.score(row, ALL_SLOTS, rel, gains).tobytes() == whole.tobytes()


@settings(max_examples=150, deadline=None)
@given(scoring_cases())
def test_greedy_and_whole_row_equityrank_agree_on_the_top_slot(case):
    # before anything is placed, the slot-greedy fill scores every slot with
    # the same scorer as the whole-row ranking, so both put the same slot first
    _, rows, catalog, profiles, row, rel, gains, _ = case
    policy = PolicyConfig("EquityRank", 0.1)
    whole = PolicyPlan(policy, rows, catalog, profiles).rank(row, rel, gains, [1.0])
    greedy = PolicyPlan(policy, rows, catalog, profiles, slotwise=True).rank(row, rel, gains, [1.0])
    assert whole == greedy
