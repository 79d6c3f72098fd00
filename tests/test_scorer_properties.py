"""Each policy has one scorer: scoring any subset of a row's slots gives, bit
for bit, the whole-row scores at those slots. The offline fill, ``_lockstep``,
relies on this when it scores segments padded with their last entry, and a
narrowed candidate set is just one more subset. And a plan has one ``rank``:
a row in slot order and the same entries in greedy order with their
provider heads give one list."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import Catalog, GainLedger, PolicyConfig, PositionModel, ProviderProfile, provider_arrays
from equityrank.rankers import OfflineField, PolicyPlan, _lockstep

WHOLE_ROW_POLICIES = [("TopK", 0.0)] + [
    (kind, alpha) for kind in ("FairCoStar", "EquityRank") for alpha in (0.0, 1e-4, 1e-2, 0.5, 1.0, 10.0)
]
PLAN_POLICIES = WHOLE_ROW_POLICIES + [("PoorK", 0.0)] + [("MMFStar", alpha) for alpha in (0.0, 1e-4, 0.5, 1.0)]
# ties and zeros are common in real relevance; keep both likely
RELEVANCE = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0))
TIED_RELEVANCE = st.sampled_from([0.0, 0.25, 0.5, 1.0])
GAINS = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))


@st.composite
def scoring_cases(draw, policies=WHOLE_ROW_POLICIES, relevance=RELEVANCE):
    m = draw(st.integers(2, 6))
    n_items = draw(st.integers(m, 30))
    groups = list(range(m)) + draw(st.lists(st.integers(0, m - 1), min_size=n_items - m, max_size=n_items - m))
    catalog = Catalog.from_assignments(draw(st.permutations(groups)))
    weights = st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(1e-2, 10.0))
    profiles = [ProviderProfile(*draw(weights)) for _ in range(m)]
    width = draw(st.integers(1, n_items))
    ids = np.array(sorted(draw(st.permutations(range(n_items)))[:width]), dtype=np.int64)
    rel = np.array(draw(st.lists(relevance, min_size=width, max_size=width)))
    gains = np.array(draw(st.lists(GAINS, min_size=m, max_size=m)))
    at = np.array(draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True)), dtype=np.int64)
    kind, alpha = draw(st.sampled_from(policies))
    return PolicyConfig(kind, alpha), profiles, catalog.group_of[ids], rel, gains, at


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_scoring_a_subset_of_slots_matches_the_whole_row(case):
    policy, profiles, provider, rel, gains, at = case
    plan = PolicyPlan(policy, provider_arrays(profiles))
    whole = plan.score(rel, provider, gains)
    assert plan.score(rel[at], provider[at], gains).tobytes() == whole[at].tobytes()
    # the scorer reads the gains and relevance and writes neither
    assert plan.score(rel, provider, gains).tobytes() == whole.tobytes()


@settings(max_examples=150, deadline=None)
@given(scoring_cases())
def test_greedy_and_whole_row_equityrank_agree_on_the_top_slot(case):
    # before anything is placed, the offline fill scores every slot with the
    # same scorer as the whole-row ranking, so both put the same slot first
    _, profiles, provider, rel, gains, _ = case
    plan = PolicyPlan(PolicyConfig("EquityRank", 0.1), provider_arrays(profiles))
    whole = plan.rank(rel, provider, gains, [1.0])
    # the fill's run of one over the row in greedy order, whose items are the row's slots
    order = np.argsort(-rel, kind="stable")
    field = OfflineField(np.array([0, rel.size]), order, rel[order], provider[order], None, None)
    ledger = GainLedger(gains.copy(), np.zeros(gains.size), np.zeros(gains.size))
    picks, failed = _lockstep(plan, field, np.zeros((1, 1), dtype=np.intp), np.array([0.1]), [ledger], [1.0], False)
    assert not failed
    assert whole == field.items[picks[0, 0]].tolist()


@settings(max_examples=300, deadline=None)
@given(scoring_cases(PLAN_POLICIES, TIED_RELEVANCE), st.integers(1, 6))
def test_a_row_and_its_greedy_order_rank_one_list(case, k):
    # a row in slot order, ids ascending, and the same entries sorted into
    # greedy order (relevance descending, then slot) with their provider
    # heads given, as an offline field keeps a segment, give the same items
    policy, profiles, provider, rel, gains, at = case
    plan = PolicyPlan(policy, provider_arrays(profiles))
    probs = PositionModel.logarithmic(min(k, rel.size)).probs
    order = np.argsort(-rel, kind="stable")
    grouped = provider[order]
    by_provider = np.argsort(grouped, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(grouped, minlength=len(profiles)))])
    from_row = plan.rank(rel, provider, gains, probs)
    from_segment = plan.rank(rel[order], grouped, gains, probs, (by_provider, offsets))
    assert order[from_segment].tolist() == from_row
    assert len(set(from_row)) == len(from_row) == probs.size
    if policy.kind not in ("PoorK", "MMFStar"):
        whole = plan.score(rel, provider, gains)
        assert plan.score(rel[at], provider[at], gains).tobytes() == whole[at].tobytes()
