"""A run's step ranker is its plan's ``rank`` resolved once: over any
(users x C) rows and any sequence of steps, ``PolicyPlan.row_ranker`` gives
each row the positions that ``PolicyPlan.rank`` gives it, or the
``ValueError`` that ``rank`` raises, and writes neither the relevance nor the
gains. Steps change user and gains from one call to the next, so a buffer
that carries one call's values into the next shows."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equityrank import PolicyConfig, PositionModel, ProviderProfile, provider_arrays
from equityrank.rankers import PARTITION_MIN_CANDIDATES, PolicyPlan

POLICIES = (
    [("TopK", 0.0), ("PoorK", 0.0)]
    + [(kind, alpha) for kind in ("FairCoStar", "EquityRank") for alpha in (0.0, 1e-4, 0.5, 1e300)]
    + [("MMFStar", alpha) for alpha in (0.0, 1e-4, 0.5, 1.0)]
)
# zero, ordinary and huge gains, and gains whose G.y or products overflow to inf
GAIN_SCALES = (0.0, 1.0, 1e4, 1e150, 1e300, 1e308)
TIES = np.array([0.0, 0.25, 0.5, 1.0])


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def runs(draw):
    m, k = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    # widths from K up, and past PARTITION_MIN_CANDIDATES, where the top-K selection partitions
    width = draw(st.one_of(st.integers(k, 30), st.integers(max(k, PARTITION_MIN_CANDIDATES - 5), PARTITION_MIN_CANDIDATES + 60)))
    users, steps = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few providers among many entries: providers repeat within a row
    providers = rng.integers(0, draw(st.integers(1, m)), (users, width))
    # estimates that tie often, as early in a run, where unseen slots read 1.0
    tie = rng.random((users, width)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    rel = np.where(tie, rng.choice(TIES, (users, width)), rng.random((users, width)))
    weights = rng.uniform(0.0, 5.0, (m, 2))
    # targets down to 1e-3, so that huge gains overflow the gain-to-target ratios
    profiles = [ProviderProfile(ve, vb, y) for (ve, vb), y in zip(weights, 10.0 ** rng.uniform(-3.0, 1.0, m))]
    visits = []
    for _ in range(steps):
        scale = draw(st.sampled_from(GAIN_SCALES))
        gains = scale * np.where(rng.random(m) < 0.3, 0.5, rng.random(m))
        visits.append((draw(st.integers(0, users - 1)), gains))
    policy = PolicyConfig(*draw(st.sampled_from(POLICIES)))
    return policy, profiles, providers, rel, visits, PositionModel.logarithmic(k).probs


# a ratio that overflowed to inf makes FairCo*'s shortfalls, so its scores, NaN
OVERFLOWING_RATIO = (
    PolicyConfig("FairCoStar", 1e-3),
    [ProviderProfile(1.0, 1.0, 1e-3), ProviderProfile(1.0, 1.0, 1.0)],
    np.array([[0, 1]]),
    np.array([[0.5, 0.25]]),
    [(0, np.array([1e308, 1.0]))],
    PositionModel.logarithmic(1).probs,
)


@settings(max_examples=250, deadline=None)
@given(runs())
@example(OVERFLOWING_RATIO)
def test_a_runs_step_ranker_ranks_each_row_as_rank_does(case):
    policy, profiles, providers, rel, visits, probs = case
    plan = PolicyPlan(policy, provider_arrays(profiles))
    rank_row, rows = plan.row_ranker(providers, probs.tolist()), list(rel)
    for user, gains in visits:
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing gains
            want = _outcome(lambda: plan.rank(rel[user].copy(), providers[user], gains.copy(), probs))
            seen = rel.copy(), gains.copy()
            got = _outcome(lambda: rank_row(user, rows[user], gains))
        assert got == want
        assert rel.tobytes() == seen[0].tobytes() and gains.tobytes() == seen[1].tobytes()


@pytest.mark.parametrize("kind", ["TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank"])
def test_rows_narrower_than_the_list_are_refused_once(kind):
    plan = PolicyPlan(PolicyConfig(kind, 0.5), provider_arrays([ProviderProfile(1.0, 1.0, 1.0)] * 2))
    probs = PositionModel.logarithmic(3).probs
    with pytest.raises(ValueError, match="need at least 3 candidates, got 2"):
        plan.rank(np.array([0.5, 0.2]), np.array([0, 1]), np.zeros(2), probs)
    with pytest.raises(ValueError, match="need at least 3 candidates, got 2"):
        plan.row_ranker(np.array([[0, 1], [1, 1]]), probs.tolist())
