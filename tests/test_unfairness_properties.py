"""Property tests of the O(m) unfairness: against the exact pairwise sum in
rational arithmetic, against the m x m form it replaced, where |y|^2
underflows, and for memory."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equityrank import Catalog, ProviderProfile, RelevanceTable, SimConfig, run_offline, run_online, unfairness
from equityrank.synth import Dataset
from oracles import reference_unfairness

TARGETS = st.floats(1e-3, 1e3)
# zero gains are common (providers never served); tiny nonzero ones are
# left out, since their squares underflow in any float form
GAINS = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


def exact_unfairness(gains, targets) -> Fraction:
    """The definition, summed over ordered pairs with no rounding at all."""
    g = [Fraction(x) for x in gains.tolist()]
    y = [Fraction(x) for x in targets.tolist()]
    m = len(g)
    return sum((g[i] * y[j] - g[j] * y[i]) ** 2 for i in range(m) for j in range(m)) / (m * (m - 1))


@st.composite
def small_ledgers(draw):
    m = draw(st.integers(2, 10))
    targets = np.array(draw(st.lists(TARGETS, min_size=m, max_size=m)))
    if draw(st.booleans()):
        gains = np.array(draw(st.lists(GAINS, min_size=m, max_size=m)))
    else:
        # nearly proportional to the targets: the fair end of a trade-off
        # curve, where the pairwise disparities nearly cancel
        scale = draw(st.floats(1e-3, 1e3))
        eps = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3, 1e-1]))
        wiggle = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        gains = scale * targets * (1.0 + eps * wiggle)
    return gains, targets


@settings(max_examples=300, deadline=None)
@given(small_ledgers())
def test_matches_exact_pairwise_sum(ledger):
    gains, targets = ledger
    m = gains.size
    exact = exact_unfairness(gains, targets)
    error = float(abs(Fraction(unfairness(gains, targets)) - exact))
    # 2 |G|^2 |y|^2 / (m (m-1)) bounds the value and sets the rounding scale
    scale = 2.0 * float(gains @ gains) * float(targets @ targets) / (m * (m - 1))
    assert error <= 1e-15 * scale
    # near proportional gains the error must also shrink with the value; the
    # Lagrange form 2 (|G|^2 |y|^2 - (G.y)^2) keeps an error near 1e-16 scale
    assert error <= 1e-15 * math.sqrt(scale * float(exact)) + 1e-30 * scale


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e6), st.sampled_from([0.0, 0.2, 0.8]))
def test_matches_pairwise_form_on_generic_ledgers(m, seed, gain_scale, zero_share):
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.01, 10.0, m)
    gains = gain_scale * rng.random(m)
    gains[rng.random(m) < zero_share] = 0.0
    want = reference_unfairness(gains, targets)
    assert abs(unfairness(gains, targets) - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.integers(600, 1000), st.integers(-20, 20))
def test_matches_pairwise_form_where_the_targets_square_underflows(m, seed, power, offset):
    # gains up to 2^1000 against targets near 2^-power: |y|^2 underflows to 0, while
    # each G_i y_j, and the exact result, stays a normal float
    rng = np.random.default_rng(seed)
    targets = np.ldexp(rng.uniform(1e-3, 1e3, m), -power - offset)
    gains = np.ldexp(rng.uniform(0.0, 1e3, m), power)
    assert float(targets @ targets) == 0.0
    want = reference_unfairness(gains, targets)
    assume(sys.float_info.min <= want < math.inf)
    assert abs(unfairness(gains, targets) - want) <= 1e-12 * want


def test_runs_finish_where_every_targets_square_underflows():
    profiles = (ProviderProfile(1.0, 1.0, 1e-300),) * 2
    entries = [(u, i, r) for u in range(2) for i, r in enumerate((1.0, 0.5, 0.25, 0.0))]
    dataset = Dataset(Catalog.from_assignments([0, 1, 0, 1], 2), profiles, RelevanceTable(2, entries))
    for policy in ("TopK", "EquityRank"):
        assert math.isfinite(run_offline(dataset, policy, 0.5, 0, SimConfig(list_size=2)).unfairness)
        result, trace = run_online(dataset, policy, 0.5, 0, SimConfig(list_size=2, mode="online", total_steps=4, prefilter_size=4))
        assert math.isfinite(result.unfairness) and len(trace.checkpoints) == 1


def test_memory_is_linear_in_provider_count():
    # the m x m form would hold 800 MB per temporary at this size
    m = 10_000
    rng = np.random.default_rng(0)
    gains, targets = rng.random(m), rng.uniform(0.01, 10.0, m)
    tracemalloc.start()
    try:
        value = unfairness(gains, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value > 0
    assert peak < 2**20
