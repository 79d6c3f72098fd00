"""Effectiveness metrics, provider unfairness, gradients, and diagnostics."""

import copy
import math
import pickle

import numpy as np
import pytest

from equityrank import (
    Catalog,
    GainLedger,
    PositionModel,
    ProviderProfile,
    RankList,
    RelevanceTable,
    RunResult,
    alignment_diagnostics,
    andcg,
    apply_expected_feedback,
    cndcg_update,
    dcg,
    expected_gain,
    exposure_unfairness,
    fairness_gradient,
    ideal_dcg,
    ndcg,
    tradeoff_envelope,
    unfairness,
)
from equityrank.metrics import format_float

PM3 = PositionModel.logarithmic(3)
PM5 = PositionModel.logarithmic(5)

# Hand evaluation of the position-discount curve: p_k = 1 / (log2(k) + 1).
P3 = 1.0 / (math.log2(3) + 1.0)


class TestDcg:
    def test_hand_example(self):
        # listed relevances [1, 0, 1] -> 1*1 + 0*0.5 + 1*p3
        rel = RelevanceTable(1, [(0, 0, 1.0), (0, 1, 0.0), (0, 2, 1.0)])
        got = dcg(RankList((0, 1, 2), 0), rel, 3, PM3)
        assert got == pytest.approx(1.0 + P3, rel=1e-12)
        assert got == pytest.approx(1.38685, abs=1e-5)

    def test_all_zero_relevance(self):
        rel = RelevanceTable(1, [])
        assert dcg(RankList((0, 1, 2), 0), rel, 3, PM3) == 0.0

    def test_cutoff_one_uses_top_probability(self):
        rel = RelevanceTable(1, [(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)])
        assert dcg(RankList((0, 1, 2), 0), rel, 1, PM3) == 1.0

    def test_rejects_cutoff_beyond_list(self):
        rel = RelevanceTable(1, [])
        with pytest.raises(ValueError):
            dcg(RankList((0, 1, 2), 0), rel, 4, PM3)


class TestIdealDcg:
    def test_hand_example(self):
        # sorted [0.9, 0.5, 0.2]; top-2 -> 0.9*1 + 0.5*0.5
        assert ideal_dcg(np.array([0.2, 0.9, 0.5]), 2, PM3) == pytest.approx(1.15, rel=1e-12)

    def test_all_zeros(self):
        assert ideal_dcg(np.zeros(4), 2, PM3) == 0.0

    def test_single_nonzero(self):
        assert ideal_dcg(np.array([0.7]), 2, PM3) == pytest.approx(0.7, rel=1e-15)


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        rel = RelevanceTable(1, [(0, 0, 0.9), (0, 1, 0.5), (0, 2, 0.2)])
        assert ndcg(RankList((0, 1, 2), 0), rel, 3, PM3) == pytest.approx(1.0, rel=1e-12)

    def test_reversed_pair(self):
        pm2 = PositionModel.logarithmic(2)
        rel = RelevanceTable(1, [(0, 0, 0.0), (0, 1, 1.0)])
        assert ndcg(RankList((0, 1), 0), rel, 2, pm2) == pytest.approx(0.5, rel=1e-12)

    def test_no_relevant_items_is_vacuously_perfect(self):
        rel = RelevanceTable(1, [])
        assert ndcg(RankList((0, 1, 2), 0), rel, 3, PM3) == 1.0

    def test_bounded_and_one_on_sorted_lists(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            values = rng.random(n)
            rel = RelevanceTable(1, [(0, i, float(values[i])) for i in range(n)])
            perm = rng.permutation(n)[:3]
            score = ndcg(RankList(tuple(int(i) for i in perm), 0), rel, 3, PM3)
            assert 0.0 <= score <= 1.0 + 1e-12
            best = np.argsort(-values)[:3]
            assert ndcg(RankList(tuple(int(i) for i in best), 0), rel, 3, PM3) == pytest.approx(1.0, rel=1e-12)


class TestCndcg:
    def test_recurrence_step(self):
        assert cndcg_update(2.0, 0.5, 0.995) == pytest.approx(2.49, rel=1e-12)

    def test_base_case(self):
        assert cndcg_update(0.0, 1.0, 0.3) == 1.0

    def test_undisc_running_sum(self):
        assert cndcg_update(3.0, 1.0, 1.0) == 4.0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            cndcg_update(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            cndcg_update(0.0, 1.0, 1.5)

    def test_recurrence_equals_direct_sum(self):
        rng = np.random.default_rng(17)
        for gamma in (0.3, 0.995, 1.0):
            for length in (1, 10, 1000):
                series = rng.random(length)
                acc = 0.0
                for x in series:
                    acc = cndcg_update(acc, float(x), gamma)
                direct = sum(gamma ** (length - t) * series[t - 1] for t in range(1, length + 1))
                assert acc == pytest.approx(direct, rel=1e-9)


class TestAndcg:
    def test_mean_of_two_users(self):
        pm2 = PositionModel.logarithmic(2)
        rel = RelevanceTable(2, [(0, 0, 1.0), (1, 0, 0.0), (1, 1, 1.0)])
        lists = [RankList((0, 1), 0), RankList((0, 1), 1)]  # user0 ideal, user1 reversed
        assert andcg(lists, rel, 2, pm2) == pytest.approx(0.75, rel=1e-12)

    def test_single_user(self):
        pm2 = PositionModel.logarithmic(2)
        rel = RelevanceTable(1, [(0, 1, 1.0)])
        lists = [RankList((1, 0), 0)]
        assert andcg(lists, rel, 2, pm2) == ndcg(lists[0], rel, 2, pm2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            andcg([], RelevanceTable(1, []), 2, PositionModel.logarithmic(2))


class TestExpectedGain:
    def test_hand_example(self):
        # provider 0 owns the items at ranks 1 and 3 with r = 0.8, 0.5
        cat = Catalog.from_assignments([0, 1, 0])
        rel = RelevanceTable(1, [(0, 0, 0.8), (0, 2, 0.5)])
        profile = ProviderProfile(1.0, 10.0, 1.0)
        got = expected_gain(0, RankList((0, 1, 2), 0), 0, cat, profile, rel, PM3)
        assert got == pytest.approx(1.0 * 9.0 + P3 * 6.0, rel=1e-12)
        assert got == pytest.approx(11.321, abs=1e-3)

    def test_pure_exposure_reduction(self):
        cat = Catalog.from_assignments([0, 1, 1])
        rel = RelevanceTable(1, [(0, 1, 0.9)])
        profile = ProviderProfile(1.0, 0.0, 1.0)
        got = expected_gain(1, RankList((0, 1, 2), 0), 0, cat, profile, rel, PM3)
        assert got == pytest.approx(0.5 + P3, rel=1e-12)

    def test_a_user_other_than_the_lists_raises(self):
        cat = Catalog.from_assignments([0, 1, 0])
        rel = RelevanceTable(2, [(1, 0, 0.8)])
        with pytest.raises(ValueError, match="user 1 does not match the list's user 0"):
            expected_gain(0, RankList((0, 1, 2), 0), 1, cat, ProviderProfile(1, 1, 1), rel, PM3)

    def test_unlisted_provider_gains_nothing(self):
        cat = Catalog.from_assignments([0, 0, 0, 1])
        rel = RelevanceTable(1, [(0, 0, 1.0)])
        assert expected_gain(1, RankList((0, 1, 2), 0), 0, cat, ProviderProfile(1, 1, 1), rel, PM3) == 0.0


class TestUnfairness:
    def test_proportional_is_fair(self):
        assert unfairness(np.array([2.0, 1.0]), np.array([2.0, 1.0])) == 0.0

    def test_two_provider_hand_example(self):
        assert unfairness(np.array([1.0, 1.0]), np.array([2.0, 1.0])) == pytest.approx(1.0, rel=1e-15)

    def test_three_provider_hand_example(self):
        assert unfairness(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0])) == pytest.approx(2.0, rel=1e-15)

    def test_rejects_single_provider(self):
        with pytest.raises(ValueError):
            unfairness(np.array([1.0]), np.array([1.0]))

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ValueError):
            unfairness(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_quadratic_scale_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 9))
            gains = rng.random(m) * 5
            targets = rng.random(m) + 0.1
            c = float(rng.random() * 10 + 0.1)
            assert unfairness(c * gains, targets) == pytest.approx(c * c * unfairness(gains, targets), rel=1e-10)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            gains = rng.random(m) * 5
            targets = rng.random(m) + 0.1
            perm = rng.permutation(m)
            assert unfairness(gains[perm], targets[perm]) == pytest.approx(unfairness(gains, targets), rel=1e-12)

    def test_zero_iff_proportional(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            targets = rng.random(m) + 0.1
            c = float(rng.random() * 3 + 0.1)
            assert unfairness(c * targets, targets) == pytest.approx(0.0, abs=1e-18)
            bumped = c * targets
            bumped[0] += 0.5
            assert unfairness(bumped, targets) > 0


class TestFairnessGradient:
    def test_hand_example(self):
        np.testing.assert_allclose(fairness_gradient(np.array([1.0, 1.0]), np.array([2.0, 1.0])), [2.0, -4.0])

    def test_stationary_at_proportional(self):
        np.testing.assert_allclose(
            fairness_gradient(np.array([4.0, 2.0, 6.0]), np.array([2.0, 1.0, 3.0])), [0.0, 0.0, 0.0], atol=1e-12
        )

    def test_zero_gains(self):
        np.testing.assert_allclose(fairness_gradient(np.zeros(2), np.array([3.0, 7.0])), [0.0, 0.0])

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(2, 11))
            gains = rng.random(m) * 4 + 0.1
            targets = rng.random(m) + 0.1
            grad = fairness_gradient(gains, targets)
            for g in range(m):
                h = 1e-6 * max(1.0, abs(gains[g]))
                up, down = gains.copy(), gains.copy()
                up[g] += h
                down[g] -= h
                fd = (unfairness(down, targets) - unfairness(up, targets)) / (2 * h)
                assert abs(grad[g] - fd) <= 1e-5 * max(abs(grad[g]), abs(fd), 1e-9)


def _unit_exposure_run(rng, n_users=6, n_items=24, m=4, k=3, lists_served=30):
    """Random served-list history accrued with unit exposure weights."""
    groups = np.concatenate([np.arange(m), rng.integers(0, m, n_items - m)])
    rng.shuffle(groups)
    catalog = Catalog.from_assignments(groups)
    rel = RelevanceTable(
        n_users, [(u, i, float(rng.random() * 0.9 + 0.05)) for u in range(n_users) for i in range(n_items)]
    )
    profiles = [ProviderProfile(1.0, 0.0, 1.0) for _ in range(m)]
    pm = PositionModel.logarithmic(k)
    ledger = GainLedger.empty(m)
    lists = []
    for _ in range(lists_served):
        user = int(rng.integers(n_users))
        items = rng.choice(n_items, size=k, replace=False)
        rl = RankList(tuple(int(i) for i in items), user)
        apply_expected_feedback(rl, user, rel, profiles, catalog, ledger, pm)
        lists.append(rl)
    return catalog, rel, profiles, pm, ledger, lists


def direct_exposure_unfairness(lists, catalog, rel, pm):
    """Independent oracle built from the raw served-list history.

    Accumulates per-item exposure from the lists, forms per-group mean
    exposure and mean relevance, and evaluates the pairwise disparity of
    per-step group exposure totals against the mean-relevance targets.
    """
    item_exposure = np.zeros(catalog.item_count)
    for rl in lists:
        for k0, item in enumerate(rl.positions):
            item_exposure[item] += pm.probs[k0]
    group_mean_exposure = np.array([item_exposure[items].mean() for items in catalog.items_of])
    item_rel = np.zeros(catalog.item_count)
    for i in range(catalog.item_count):
        item_rel[i] = sum(rel.get(u, i) for u in range(rel.user_count)) / rel.user_count
    group_rel = np.array([item_rel[items].mean() for items in catalog.items_of])
    gains = catalog.group_sizes * group_mean_exposure / len(lists)
    m = catalog.provider_count
    total = 0.0
    for i in range(m):
        for j in range(m):
            total += (gains[i] * group_rel[j] - gains[j] * group_rel[i]) ** 2
    return total / (m * (m - 1))


class TestExposureReduction:
    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            catalog, rel, profiles, pm, ledger, lists = _unit_exposure_run(rng)
            via_pipeline = unfairness(
                ledger.averaged_gains(),
                np.array([rel.item_mean_relevance(catalog.item_count)[items].mean() for items in catalog.items_of]),
            )
            via_library = exposure_unfairness(ledger, catalog, rel)
            via_oracle = direct_exposure_unfairness(lists, catalog, rel, pm)
            assert via_library == pytest.approx(via_pipeline, rel=1e-12)
            assert via_library == pytest.approx(via_oracle, rel=1e-9)

    def test_equal_exposure_and_relevance_is_fair(self):
        catalog = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [(0, 0, 0.5), (0, 1, 0.5)])
        ledger = GainLedger.empty(2)
        ledger.group_exposure[:] = [2.0, 2.0]
        ledger.step_count = 4
        assert exposure_unfairness(ledger, catalog, rel) == 0.0

    def test_lopsided_exposure_is_unfair(self):
        catalog = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [(0, 0, 0.5), (0, 1, 0.5)])
        ledger = GainLedger.empty(2)
        ledger.group_exposure[:] = [1.0, 0.0]
        ledger.step_count = 1
        assert exposure_unfairness(ledger, catalog, rel) > 0

    def test_degenerate_group_errors(self):
        catalog = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [(0, 0, 0.5)])  # group 1 has zero mean relevance
        ledger = GainLedger.empty(2)
        ledger.group_exposure[:] = [1.0, 1.0]
        ledger.step_count = 1
        with pytest.raises(ValueError):
            exposure_unfairness(ledger, catalog, rel)


def _ledger_with(exposure, purchase):
    ledger = GainLedger.empty(len(exposure))
    ledger.exposure_gain[:] = exposure
    ledger.purchase_gain[:] = purchase
    ledger.step_count = 1
    return ledger


class TestAlignmentDiagnostics:
    def test_perfect_alignment(self):
        profiles = [ProviderProfile(1.0, 2.0, 1.0), ProviderProfile(1.0, 6.0, 1.0)]
        ledger = _ledger_with([3.0, 5.0], [6.0, 30.0])  # realized ratios 2 and 6
        msd, rho, excluded = alignment_diagnostics(ledger, profiles)
        assert msd == pytest.approx(0.0, abs=1e-15)
        assert rho == pytest.approx(1.0, rel=1e-12)
        assert excluded == 0

    def test_hand_example(self):
        # realized [1, 2, 3] against declared [3, 2, 1]
        profiles = [ProviderProfile(1.0, t, 1.0) for t in (3.0, 2.0, 1.0)]
        ledger = _ledger_with([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        msd, rho, excluded = alignment_diagnostics(ledger, profiles)
        assert msd == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert rho == pytest.approx(-1.0, rel=1e-12)
        assert excluded == 0

    def test_constant_targets_give_nan_pearson(self):
        profiles = [ProviderProfile(1.0, 2.0, 1.0), ProviderProfile(1.0, 2.0, 1.0)]
        ledger = _ledger_with([1.0, 1.0], [1.0, 3.0])
        msd, rho, _ = alignment_diagnostics(ledger, profiles)
        assert math.isnan(rho)
        assert msd == pytest.approx(((1 - 2) ** 2 + (3 - 2) ** 2) / 2, rel=1e-12)

    def test_unexposed_providers_are_excluded(self):
        profiles = [ProviderProfile(1.0, 2.0, 1.0), ProviderProfile(1.0, 4.0, 1.0), ProviderProfile(1.0, 9.0, 1.0)]
        ledger = _ledger_with([1.0, 0.0, 2.0], [2.0, 0.0, 18.0])
        msd, rho, excluded = alignment_diagnostics(ledger, profiles)
        assert excluded == 1
        assert msd == pytest.approx(0.0, abs=1e-15)

    def test_all_excluded_errors(self):
        profiles = [ProviderProfile(1.0, 1.0, 1.0), ProviderProfile(1.0, 1.0, 1.0)]
        ledger = _ledger_with([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            alignment_diagnostics(ledger, profiles)


class TestTradeoffEnvelope:
    def test_staircase_example(self):
        got = tradeoff_envelope([(5, 0.9), (2, 0.8), (2, 0.85), (10, 0.95)])
        assert got == [(2, 0.85), (5, 0.9), (10, 0.95)]

    def test_single_point(self):
        assert tradeoff_envelope([(3.0, 0.5)]) == [(3.0, 0.5)]

    def test_duplicate_threshold_keeps_best(self):
        assert tradeoff_envelope([(1.0, 0.2), (1.0, 0.7)]) == [(1.0, 0.7)]

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(12)
        points = [(float(u), float(e)) for u, e in zip(rng.random(40) * 10, rng.random(40))]
        env = tradeoff_envelope(points)
        efficiencies = [e for _, e in env]
        assert all(a <= b for a, b in zip(efficiencies, efficiencies[1:]))
        assert [u for u, _ in env] == sorted({u for u, _ in points})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tradeoff_envelope([])

    def test_dominance_is_preserved(self):
        # every point of A dominates B (lower unfairness, higher value), so
        # A's envelope lies weakly above-left of B's at shared thresholds
        a = tradeoff_envelope([(1.0, 0.9), (3.0, 0.95), (8.0, 0.99)])
        b = tradeoff_envelope([(2.0, 0.5), (4.0, 0.7), (9.0, 0.8)])

        def value_at(env, u):
            vals = [e for t, e in env if t <= u]
            return vals[-1] if vals else None

        for u in (2.0, 3.0, 4.0, 8.0, 9.0, 50.0):
            assert value_at(a, u) >= value_at(b, u)


class TestGainLedger:
    def test_a_ledger_equals_only_itself(self):
        # a generated __eq__ would compare the arrays as a tuple and raise for two providers
        ledger = GainLedger.empty(2)
        assert (ledger == GainLedger.empty(2)) is False
        assert (ledger == ledger) is True and (ledger != GainLedger.empty(2)) is True

    def test_averaged_gains_require_steps(self):
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError):
            ledger.averaged_gains()
        ledger.exposure_gain[:] = [2.0, 4.0]
        ledger.purchase_gain[:] = [0.0, 2.0]
        ledger.step_count = 2
        np.testing.assert_allclose(ledger.raw_gains(), [2.0, 6.0])
        np.testing.assert_allclose(ledger.averaged_gains(), [1.0, 3.0])

    def test_accrue_adds_each_position_to_its_provider(self):
        weights = [(2.0, 10.0), (1.0, 4.0)]  # each provider's (v_e, v_b)
        ledger = GainLedger.empty(2)
        positions = [(1, 1.0, 0.5), (0, 0.5, 0.0), (1, 0.25, 0.25)]
        raw = [ledger.accrue(g, p_k, bought, *weights[g]) for g, p_k, bought in positions]
        assert raw == [1.0 + 0.5 * 4.0, 0.5 * 2.0, 1.25 + 0.75 * 4.0]
        np.testing.assert_allclose(ledger.exposure_gain, [0.5 * 2.0, 1.25 * 1.0], rtol=1e-15)
        np.testing.assert_allclose(ledger.purchase_gain, [0.0, 0.75 * 4.0], rtol=1e-15)
        np.testing.assert_allclose(ledger.group_exposure, [0.5, 1.25], rtol=1e-15)
        assert ledger.step_count == 0

    @pytest.mark.parametrize(
        "p_k, vb, prior",
        [(1.0, 7.3, 0.0), (1.0, 0.0, 0.0), (P3, 0.1, 0.1 + 0.2), (0.5, 1e-300, 0.7), (PM5.probs[4], 3.3, 1e16)],
    )
    def test_a_sampled_purchase_adds_exactly_the_purchase_value(self, p_k, vb, prior):
        # online feedback pays 0 or 1 bought: 0 must keep the purchase gain's
        # bytes and 1 add v_b with no other rounding
        ledger = GainLedger.empty(2)
        ledger.purchase_gain[1] = prior
        before = ledger.purchase_gain.tobytes()
        ledger.accrue(1, p_k, 0.0, 1.5, vb)
        assert ledger.purchase_gain.tobytes() == before
        ledger.accrue(1, p_k, 1.0, 1.5, vb)
        assert ledger.purchase_gain.item(1) == prior + vb
        assert ledger.purchase_gain.item(0) == 0.0

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda ledger: pickle.loads(pickle.dumps(ledger))])
    def test_a_copied_ledger_accrues_into_its_own_arrays(self, copy_of):
        ve, vb = [2.0, 1.0], [10.0, 4.0]
        ledger = GainLedger.empty(2)
        ledger.pay([1, 0], [1.0, 0.5], [0.5, 0.25], ve, vb)
        ledger.step_count = 1
        before = [a.tobytes() for a in (ledger.exposure_gain, ledger.purchase_gain, ledger.group_exposure)]
        copied = copy_of(ledger)
        kept = copied.raw_gains()
        copied.pay([0, 1], [1.0, 0.5], [1.0, 0.75], ve, vb, kept)
        assert [a.tobytes() for a in (ledger.exposure_gain, ledger.purchase_gain, ledger.group_exposure)] == before
        # the copy accrues as the original does from the same start
        ledger.pay([0, 1], [1.0, 0.5], [1.0, 0.75], ve, vb)
        for name in ("exposure_gain", "purchase_gain", "group_exposure"):
            assert getattr(copied, name).tobytes() == getattr(ledger, name).tobytes()
        assert kept.tobytes() == ledger.raw_gains().tobytes() and copied.step_count == 1

    @pytest.mark.parametrize(
        "arrays",
        [
            [np.zeros(2, dtype=np.int64), np.zeros(2), np.zeros(2)],
            [np.zeros(2), np.zeros(2, dtype=np.float32), np.zeros(2)],
            [np.zeros(2), np.zeros(2), [0.0, 0.0]],
            [np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2))],
            [np.zeros(2), np.zeros(3), np.zeros(2)],
            [np.zeros(2), np.zeros(2), np.zeros(2, dtype=">f8")],
            [np.zeros(2), np.zeros(2), np.broadcast_to(0.0, 2)],
        ],
        ids=["int", "float32", "list", "2-d", "lengths", "big-endian", "read-only"],
    )
    def test_a_ledger_refuses_arrays_other_than_writable_1d_float64_of_one_length(self, arrays):
        with pytest.raises(ValueError, match="^ledger arrays must"):
            GainLedger(*arrays)


def test_csv_row_is_deterministic_values_then_wall_ms():
    result = RunResult("offline", "EquityRank", 1e-3, 4, 0.75, 0.1, math.nan, 0.5, 0.0125)
    values = result.deterministic_values()
    assert len(values) == 8
    assert result.csv_row() == ",".join(values) + ",12.5"
    assert values[2] == "0.001" and values[6] == "nan"


@pytest.mark.parametrize(
    "value, text",
    [
        (math.nan, "nan"),
        (-math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (0.0, "0"),
        (-0.0, "-0"),
        (0.1, "0.10000000000000001"),
        (2.0 / 3.0, "0.66666666666666663"),
        (1.5e-7, "1.4999999999999999e-07"),
        (123456789012345678.0, "1.2345678901234568e+17"),
    ],
)
def test_format_float_writes_seventeen_significant_digits(value, text):
    assert format_float(value) == text
    if not math.isnan(value):
        assert float(text) == value and math.copysign(1.0, float(text)) == math.copysign(1.0, value)
