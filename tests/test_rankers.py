"""Ranking policies: scoring rules, tie-breaking, collapse identities."""

import gc
import weakref

import numpy as np
import pytest

from equityrank import (
    Catalog,
    GainLedger,
    PositionModel,
    PolicyConfig,
    ProviderProfile,
    RelevanceTable,
    ScoreVector,
    allocate_vertical,
    equityrank_scores,
    offline_rank_user,
    online_step_rank,
    provider_arrays,
    rank_by_scores,
    rank_fairco_star,
    rank_mmf_star,
    rank_poork,
)
from equityrank.rankers import PolicyPlan, offline_field
from oracles import reference_poork, reference_slotwise_equityrank, reference_vertical

PM2 = PositionModel.logarithmic(2)
PM3 = PositionModel.logarithmic(3)


def ledger_with_gains(exposure, purchase=None):
    ledger = GainLedger.empty(len(exposure))
    ledger.exposure_gain[:] = exposure
    if purchase is not None:
        ledger.purchase_gain[:] = purchase
    ledger.step_count = 1
    return ledger


def uniform_profiles(m, ve=1.0, vb=0.0, y=1.0):
    return [ProviderProfile(ve, vb, y) for _ in range(m)]


class TestEquityrankScores:
    def test_alpha_zero_reduces_to_relevance(self):
        cat = Catalog.from_assignments([0, 1, 0])
        rel = RelevanceTable(1, [(0, 0, 0.7), (0, 1, 0.2), (0, 2, 0.9)])
        ledger = ledger_with_gains([5.0, 1.0])
        sv = equityrank_scores([0, 1, 2], 0, rel, ledger, cat, uniform_profiles(2), alpha=0.0)
        np.testing.assert_array_equal(sv.scores, rel.relevance_of(0, np.array([0, 1, 2])))

    def test_hand_example(self):
        # gains [1,1] against targets [2,1] give gradient +2 for provider 0;
        # r=0.5, v_e=1, v_b=10, alpha=0.1 -> 0.5 + 0.1*2*(1+5) = 1.7
        cat = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [(0, 0, 0.5)])
        ledger = ledger_with_gains([1.0, 1.0])
        profiles = [ProviderProfile(1.0, 10.0, 2.0), ProviderProfile(1.0, 10.0, 1.0)]
        sv = equityrank_scores([0], 0, rel, ledger, cat, profiles, alpha=0.1)
        assert sv.scores[0] == pytest.approx(1.7, rel=1e-12)

    def test_balanced_ledger_reduces_to_relevance(self):
        cat = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [(0, 0, 0.4), (0, 1, 0.6)])
        profiles = [ProviderProfile(1.0, 2.0, 2.0), ProviderProfile(1.0, 2.0, 1.0)]
        ledger = ledger_with_gains([4.0, 2.0])  # proportional to targets -> zero gradient
        sv = equityrank_scores([0, 1], 0, rel, ledger, cat, profiles, alpha=7.0)
        np.testing.assert_allclose(sv.scores, [0.4, 0.6], rtol=1e-12)

    def test_rejects_unknown_item(self):
        cat = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [])
        with pytest.raises(ValueError):
            equityrank_scores([0, 7], 0, rel, ledger_with_gains([0.0, 0.0]), cat, uniform_profiles(2), 0.1)

    def test_single_provider_has_no_gradient(self):
        cat = Catalog.from_assignments([0, 0])
        rel = RelevanceTable(1, [(0, 0, 0.4)])
        ledger = ledger_with_gains([1.0])
        sv = equityrank_scores([0, 1], 0, rel, ledger, cat, uniform_profiles(1), alpha=0.0)
        np.testing.assert_array_equal(sv.scores, [0.4, 0.0])
        with pytest.raises(ValueError, match="two providers"):
            equityrank_scores([0, 1], 0, rel, ledger, cat, uniform_profiles(1), alpha=0.5)


class TestRankByScores:
    def test_sorts_descending(self):
        sv = ScoreVector(np.array([0, 1, 2]), np.array([3.0, 1.0, 2.0]), np.zeros(3))
        np.testing.assert_array_equal(rank_by_scores(sv, 2), [0, 2])

    def test_all_equal_falls_back_to_lowest_id(self):
        sv = ScoreVector(np.array([2, 0, 1]), np.ones(3), np.ones(3))
        np.testing.assert_array_equal(rank_by_scores(sv, 2), [0, 1])

    def test_relevance_breaks_score_ties(self):
        sv = ScoreVector(np.array([0, 1, 2]), np.ones(3), np.array([0.1, 0.9, 0.5]))
        np.testing.assert_array_equal(rank_by_scores(sv, 3), [1, 2, 0])

    def test_full_permutation(self):
        sv = ScoreVector(np.array([0, 1, 2]), np.array([0.5, 2.0, 1.0]), np.zeros(3))
        np.testing.assert_array_equal(rank_by_scores(sv, 3), [1, 2, 0])

    def test_rejects_too_few_candidates(self):
        sv = ScoreVector(np.array([0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            rank_by_scores(sv, 2)

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_nonpositive_list_size(self, k):
        ids = np.arange(300)
        sv = ScoreVector(ids, np.linspace(0.0, 1.0, 300), np.zeros(300))
        with pytest.raises(ValueError, match="must be positive"):
            rank_by_scores(sv, k)

    def test_list_size_must_be_a_whole_number(self):
        # read as SimConfig reads list_size: 2.0 is 2, 2.5 names itself
        sv = ScoreVector(np.array([0, 1, 2]), np.array([3.0, 1.0, 2.0]), np.zeros(3))
        np.testing.assert_array_equal(rank_by_scores(sv, 2.0), [0, 2])
        np.testing.assert_array_equal(rank_by_scores(sv, np.int32(2)), [0, 2])
        with pytest.raises(ValueError, match="list size 2.5 is not a whole number"):
            rank_by_scores(sv, 2.5)

    def test_rejects_nonfinite_scores(self):
        with pytest.raises(ValueError):
            ScoreVector(np.array([0, 1]), np.array([1.0, np.nan]), np.zeros(2))

    def test_top_k_of_many_tied_candidates_matches_full_sort(self):
        rng = np.random.default_rng(5)
        for n in (200, 1000):
            ids = rng.permutation(n)
            scores = np.round(rng.random(n), 1)  # many candidates tie at the k-th score
            rel = np.round(rng.random(n), 1)
            got = rank_by_scores(ScoreVector(ids, scores, rel), 5)
            np.testing.assert_array_equal(got, ids[np.lexsort((ids, -rel, -scores))[:5]])

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            ids = np.arange(n)
            scores = rng.random(n)
            rel = rng.random(n)
            sv = ScoreVector(ids, scores, rel)
            shift = float(rng.random() * 2 - 1)
            scale = float(rng.random() * 1.5 + 0.5)
            sv2 = ScoreVector(ids, shift + scale * scores, rel)
            np.testing.assert_array_equal(rank_by_scores(sv, 3), rank_by_scores(sv2, 3))


class TestPoorK:
    def test_micro_instance(self):
        # two groups, equal targets, zero ledger, pure exposure weights:
        # slot 1 ties on the imbalance ratio -> group 0's best item;
        # slot 2 must come from group 1 after the slot-local update.
        cat = Catalog.from_assignments([0, 0, 1, 1])
        rel = RelevanceTable(1, [(0, 0, 0.3), (0, 1, 0.9), (0, 2, 0.8), (0, 3, 0.1)])
        ledger = GainLedger.empty(2)
        rl = rank_poork([0, 1, 2, 3], 0, rel, ledger, cat, uniform_profiles(2), PM2)
        assert rl.positions == (1, 2)

    def test_poorest_group_first(self):
        cat = Catalog.from_assignments([0, 0, 1, 1])
        rel = RelevanceTable(1, [(0, 0, 0.9), (0, 1, 0.8), (0, 2, 0.5), (0, 3, 0.4)])
        ledger = ledger_with_gains([10.0, 0.0])
        rl = rank_poork([0, 1, 2, 3], 0, rel, ledger, cat, uniform_profiles(2), PM2)
        assert rl.positions[0] == 2  # group 1 is poorest, its best item is 2

    def test_single_group_matches_relevance_order(self):
        cat = Catalog.from_assignments([0, 0, 0, 1])
        rel = RelevanceTable(1, [(0, 0, 0.2), (0, 1, 0.9), (0, 2, 0.5), (0, 3, 0.0)])
        ledger = ledger_with_gains([0.0, 1e9])
        rl = rank_poork([0, 1, 2], 0, rel, ledger, cat, uniform_profiles(2), PM2)
        assert rl.positions == (1, 2)

    def test_overflowing_ratios_leave_the_lowest_live_provider_worst(self):
        # providers 1 and 2 hold the candidates, and both gain-to-target
        # ratios overflow to +inf: the tie goes to provider 1, not to
        # provider 0, which has no candidate
        cat = Catalog.from_assignments([0, 1, 2])
        rel = RelevanceTable(1, [(0, 0, 1.0), (0, 1, 0.2), (0, 2, 0.9)])
        profiles = [ProviderProfile(1.0, 0.0, 1e-300)] * 3
        ledger = ledger_with_gains([0.0, 1e10, 1e10])
        with np.errstate(over="ignore"):
            rl = rank_poork([1, 2], 0, rel, ledger, cat, profiles, PositionModel.logarithmic(1))
        assert rl.positions == (1,)


class TestFairCoStar:
    def test_alpha_zero_is_topk(self):
        cat = Catalog.from_assignments([0, 1, 0])
        rel = RelevanceTable(1, [(0, 0, 0.2), (0, 1, 0.9), (0, 2, 0.5)])
        ledger = ledger_with_gains([9.0, 1.0])
        rl = rank_fairco_star([0, 1, 2], 0, rel, ledger, cat, uniform_profiles(2), 0.0, PM2)
        assert rl.positions == (1, 2)

    def test_balanced_ledger_is_topk_for_any_alpha(self):
        cat = Catalog.from_assignments([0, 1, 0])
        rel = RelevanceTable(1, [(0, 0, 0.2), (0, 1, 0.9), (0, 2, 0.5)])
        ledger = ledger_with_gains([3.0, 3.0])
        rl = rank_fairco_star([0, 1, 2], 0, rel, ledger, cat, uniform_profiles(2), 50.0, PM2)
        assert rl.positions == (1, 2)

    def test_lagging_group_boosted(self):
        # ratios [0, 10] with equal relevance 0.5: group-0 items score 10.5
        cat = Catalog.from_assignments([0, 0, 1, 1])
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(4)])
        ledger = ledger_with_gains([0.0, 10.0])
        rl = rank_fairco_star([0, 1, 2, 3], 0, rel, ledger, cat, uniform_profiles(2), 1.0, PM2)
        assert rl.positions == (0, 1)


class TestMMFStar:
    def test_blend_example(self):
        # worst-off group's best normalized relevance 0.2 vs 1.0 elsewhere;
        # at alpha=0.5 the worst-off item wins the slot (0.6 vs 0.5).
        cat = Catalog.from_assignments([0, 1, 0])
        rel = RelevanceTable(1, [(0, 0, 1.0), (0, 1, 0.2), (0, 2, 0.0)])
        ledger = ledger_with_gains([10.0, 0.0])
        rl = rank_mmf_star([0, 1, 2], 0, rel, ledger, cat, uniform_profiles(2), 0.5, PM2)
        assert rl.positions[0] == 1

    def test_rejects_alpha_outside_unit_interval(self):
        cat = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [])
        with pytest.raises(ValueError):
            rank_mmf_star([0, 1], 0, rel, GainLedger.empty(2), cat, uniform_profiles(2), 1.5, PM2)


def random_state(rng, k=3):
    """A random (catalog, profiles, relevance, ledger, candidates) tuple."""
    m = int(rng.integers(2, 6))
    n = int(rng.integers(max(k, m) + 3, 30))
    groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    rng.shuffle(groups)
    catalog = Catalog.from_assignments(groups)
    profiles = [
        ProviderProfile(float(rng.random() * 5 + 0.1), float(rng.random() * 20), float(rng.random() * 4 + 0.2))
        for _ in range(m)
    ]
    rel = RelevanceTable(1, [(0, i, float(rng.random())) for i in range(n)])
    ledger = GainLedger.empty(m)
    ledger.exposure_gain[:] = rng.random(m) * 10
    ledger.purchase_gain[:] = rng.random(m) * 30
    ledger.step_count = 5
    candidates = np.sort(rng.choice(n, size=int(rng.integers(k + 2, n + 1)), replace=False))
    return catalog, profiles, rel, ledger, candidates


class TestCollapseIdentities:
    def test_alpha_zero_policies_match_topk(self):
        rng = np.random.default_rng(31)
        pm = PM3
        for _ in range(60):
            catalog, profiles, rel, ledger, candidates = random_state(rng)
            topk = online_step_rank(PolicyConfig("TopK"), candidates, 0, rel, ledger, catalog, profiles, pm)
            for kind in ("EquityRank", "FairCoStar", "MMFStar"):
                got = online_step_rank(PolicyConfig(kind, 0.0), candidates, 0, rel, ledger, catalog, profiles, pm)
                assert got.positions == topk.positions, kind
                off = offline_rank_user(PolicyConfig(kind, 0.0), candidates, 0, rel, ledger, catalog, profiles, pm)
                assert off.positions == topk.positions, kind

    def test_mmf_at_one_matches_poork(self):
        rng = np.random.default_rng(32)
        pm = PM3
        for _ in range(60):
            catalog, profiles, rel, ledger, candidates = random_state(rng)
            poork = rank_poork(candidates, 0, rel, ledger, catalog, profiles, pm)
            mmf = rank_mmf_star(candidates, 0, rel, ledger, catalog, profiles, 1.0, pm)
            assert mmf.positions == poork.positions
            want = reference_poork(candidates, 0, rel, ledger, catalog, profiles, pm)
            assert poork.positions == want
            assert mmf.positions == want

    def test_offline_equityrank_matches_per_slot_reference(self):
        rng = np.random.default_rng(33)
        pm = PM3
        for _ in range(40):
            catalog, profiles, rel, ledger, candidates = random_state(rng)
            for alpha in (0.0, 1e-3, 0.1, 1.0, 10.0):
                got = offline_rank_user(
                    PolicyConfig("EquityRank", alpha), candidates, 0, rel, ledger, catalog, profiles, pm
                )
                want = reference_slotwise_equityrank(candidates, 0, rel, ledger, catalog, profiles, alpha, pm)
                assert got.positions == want, alpha

    def test_offline_ranking_leaves_the_callers_ledger_unwritten(self):
        # every policy's picks pay a copy of the ledger, as a run's list would pay its own
        rng = np.random.default_rng(34)
        for _ in range(10):
            catalog, profiles, rel, ledger, candidates = random_state(rng)
            arrays = (ledger.exposure_gain, ledger.purchase_gain, ledger.group_exposure)
            before = [a.tobytes() for a in arrays], ledger.step_count
            for kind in ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank"):
                for alpha in (0.0, 1e-3, 0.1, 1.0, 10.0):
                    if kind == "MMFStar" and alpha > 1.0:
                        continue  # MMF* takes alpha in [0, 1]
                    policy = PolicyConfig(kind, alpha)
                    offline_rank_user(policy, candidates, 0, rel, ledger, catalog, profiles, PM3)
            assert ([a.tobytes() for a in arrays], ledger.step_count) == before


REPEATED_CANDIDATE_CALLS = {
    "rank_poork": lambda c, *a: rank_poork(c, 0, *a, PM2),
    "rank_mmf_star": lambda c, *a: rank_mmf_star(c, 0, *a, 0.5, PM2),
    "rank_fairco_star": lambda c, *a: rank_fairco_star(c, 0, *a, 0.5, PM2),
    "equityrank_scores": lambda c, *a: equityrank_scores(c, 0, *a, 0.5),
    "offline_rank_user": lambda c, *a: offline_rank_user(PolicyConfig("MMFStar", 0.5), c, 0, *a, PM2),
    "online_step_rank": lambda c, *a: online_step_rank(PolicyConfig("EquityRank", 0.5), c, 0, *a, PM2),
}


@pytest.mark.parametrize("ranker", sorted(REPEATED_CANDIDATE_CALLS))
def test_public_rankers_reject_repeated_candidates(ranker):
    # a repeated id would be scored twice, count twice among MMF*'s live
    # candidates and sit twice in its provider's head list
    catalog = Catalog.from_assignments([0, 1, 0])
    rel = RelevanceTable(1, [(0, 0, 0.9), (0, 1, 0.5), (0, 2, 0.1)])
    with pytest.raises(ValueError, match="candidate set repeats an item id"):
        REPEATED_CANDIDATE_CALLS[ranker]([1, 1, 0], rel, GainLedger.empty(2), catalog, uniform_profiles(2))


class TestDispatch:
    def test_online_rejects_vertical(self):
        catalog = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [])
        with pytest.raises(ValueError):
            online_step_rank(
                PolicyConfig("EquityRankV", 1.0), [0, 1], 0, rel, GainLedger.empty(2), catalog, uniform_profiles(2), PM2
            )

    def test_policy_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig("NotAPolicy")
        with pytest.raises(ValueError):
            PolicyConfig("TopK", alpha=-1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_policy_config_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            PolicyConfig("EquityRank", alpha=alpha)

    def test_policy_config_rejects_an_int_beyond_every_float_as_not_finite(self):
        # math.isfinite raised OverflowError for it
        with pytest.raises(ValueError, match="^alpha must be finite and nonnegative$"):
            PolicyConfig("EquityRank", 10**400)

    @pytest.mark.parametrize("kind", ["TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank"])
    def test_ties_go_to_the_lower_id_whatever_the_candidate_order(self, kind):
        catalog = Catalog.from_assignments([0, 1, 0, 1])
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(4)])
        profiles, policy = uniform_profiles(2), PolicyConfig(kind, 0.5)
        for candidates in ([3, 0, 2, 1], [0, 1, 2, 3]):
            for rank in (online_step_rank, offline_rank_user):
                rl = rank(policy, candidates, 0, rel, GainLedger.empty(2), catalog, profiles, PM2)
                assert rl.positions == (0, 1), (rank.__name__, candidates)

    @pytest.mark.parametrize("kind", ["TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank"])
    def test_plan_is_freed_without_the_cycle_collector(self, kind):
        # a run's plan holds per-provider arrays, m of them for m providers;
        # a reference cycle through the plan would keep them until the
        # cyclic collector ran
        plan = PolicyPlan(PolicyConfig(kind, 0.5), provider_arrays(uniform_profiles(2)))
        freed = weakref.ref(plan)
        gc.disable()
        try:
            del plan
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", ["PoorK", "MMFStar"])
    def test_provider_head_policies_score_no_slot(self, kind):
        plan = PolicyPlan(PolicyConfig(kind, 0.5), provider_arrays(uniform_profiles(2)))
        with pytest.raises(ValueError, match="picks among provider heads"):
            plan.score(np.array([0.5, 0.2, 0.1]), np.array([0, 1, 0]), np.zeros(2))

    @pytest.mark.parametrize("kind", ["EquityRank", "FairCoStar"])
    def test_overflowing_scores_are_rejected(self, kind):
        # a gain near the float maximum against a tiny target overflows the
        # gradient and FairCo*'s gain-to-target ratio, so a score is not finite
        catalog = Catalog.from_assignments([0, 1])
        rel = RelevanceTable(1, [(0, 0, 0.5), (0, 1, 0.5)])
        profiles = [ProviderProfile(1.0, 0.0, 1e-300), ProviderProfile(1.0, 0.0, 1.0)]
        ledger = ledger_with_gains([1e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            online_step_rank(PolicyConfig(kind, 1.0), [0, 1], 0, rel, ledger, catalog, profiles, PM2)

    @pytest.mark.parametrize("kind", ["PoorK", "MMFStar", "EquityRank"])
    def test_greedy_fills_reject_nonfinite_scores(self, kind):
        # gains near the float maximum overflow EquityRank's gradient; an
        # infinite relevance makes MMF*'s normalised relevance NaN
        policy = PolicyConfig(kind, 0.5 if kind == "MMFStar" else 1.0)
        plan = PolicyPlan(policy, provider_arrays(uniform_profiles(3)))
        if kind == "EquityRank":
            rel, gains = np.array([0.5, 0.2, 0.1]), np.array([1e308, 0.0, 1e308])
        else:
            rel, gains = np.array([np.inf, 0.5, 0.2]), np.zeros(3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="scores must be finite"):
            plan.rank(rel, np.array([0, 1, 2]), gains, PM2.probs)

    def test_greedy_fill_checks_the_scores_at_alpha_zero(self):
        # at alpha 0 EquityRank's scores are the relevances, still checked
        plan = PolicyPlan(PolicyConfig("EquityRank", 0.0), provider_arrays(uniform_profiles(3)))
        with pytest.raises(ValueError, match="scores must be finite"):
            plan.rank(np.array([0.5, np.nan, 0.1]), np.array([0, 1, 2]), np.zeros(3), PM2.probs)

    @pytest.mark.parametrize("kind", ["PoorK", "MMFStar", "EquityRank"])
    def test_greedy_fill_rejects_a_field_shorter_than_the_list(self, kind):
        # a field built for one-item lists: each provider's lowest-id zero
        catalog = Catalog.from_assignments([0, 1] * 3)
        plan = PolicyPlan(PolicyConfig(kind, 0.5), provider_arrays(uniform_profiles(2)))
        field = offline_field(RelevanceTable(1, []), catalog, 1)
        seg = field.segment(0)
        heads = field.by_provider[seg], field.offsets[0]
        with pytest.raises(ValueError, match="need at least 3 candidates, got 2"):
            plan.rank(field.relevance[seg], field.provider[seg], np.zeros(2), PM3.probs, heads)

    def test_online_equityrank_matches_hand_ordering(self):
        # three items, two groups; gradient [2, -4] from gains [1,1], targets [2,1]
        catalog = Catalog.from_assignments([0, 1, 0])
        rel = RelevanceTable(1, [(0, 0, 0.1), (0, 1, 0.9), (0, 2, 0.2)])
        profiles = [ProviderProfile(1.0, 1.0, 2.0), ProviderProfile(1.0, 1.0, 1.0)]
        ledger = ledger_with_gains([1.0, 1.0])
        # scores: item0 = 0.1 + 1*2*(1.1) = 2.3; item1 = 0.9 - 4*1.9 = -6.7;
        #         item2 = 0.2 + 2*1.2 = 2.6  -> order [2, 0, 1]
        rl = online_step_rank(PolicyConfig("EquityRank", 1.0), [0, 1, 2], 0, rel, ledger, catalog, profiles, PM3)
        assert rl.positions == (2, 0, 1)


class TestVerticalAllocation:
    def test_alpha_zero_equals_per_user_topk(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(8, 20))
            groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
            rng.shuffle(groups)
            catalog = Catalog.from_assignments(groups)
            profiles = uniform_profiles(m, ve=2.0, vb=5.0, y=1.5)
            users = list(range(4))
            rel = RelevanceTable(4, [(u, i, float(rng.random())) for u in users for i in range(n)])
            pm = PM3
            lists = allocate_vertical(users, rel, GainLedger.empty(m), catalog, profiles, 0.0, pm)
            for u, rl in zip(users, lists):
                topk = online_step_rank(
                    PolicyConfig("TopK"), np.arange(n), u, rel, GainLedger.empty(m), catalog, profiles, pm
                )
                assert rl.positions == topk.positions

    def test_two_user_interleaving_hand_trace(self):
        # Level-by-level assignment order (u0,k1),(u1,k1),(u0,k2),(u1,k2),...
        # with a huge balance weight and pure exposure gains. Hand simulation:
        # u0 takes item0 (g0); the gradient then favors g1 so u1 opens with
        # item2 (its best g1 item, even though item0 is still available to
        # u1); u0's level-2 pick is relevance-driven again (balanced gains);
        # after u0's third pick tilts gains to g1, u1 closes with item0, the
        # most relevant g0 item still unassigned for u1. Final lists below.
        catalog = Catalog.from_assignments([0, 0, 1, 1, 1, 1])
        profiles = uniform_profiles(2, ve=1.0, vb=0.0, y=1.0)
        rel = RelevanceTable(
            2,
            [
                (0, 0, 0.9), (0, 1, 0.8), (0, 2, 0.5), (0, 3, 0.4), (0, 4, 0.3), (0, 5, 0.2),
                (1, 0, 0.85), (1, 1, 0.7), (1, 2, 0.6), (1, 3, 0.55), (1, 4, 0.1), (1, 5, 0.05),
            ],
        )
        lists = allocate_vertical([0, 1], rel, GainLedger.empty(2), catalog, profiles, 1000.0, PM3)
        assert lists[0].positions == (0, 1, 2)
        assert lists[1].positions == (2, 3, 0)

    def test_matches_slow_reference(self):
        rng = np.random.default_rng(42)
        pm = PM3
        for _ in range(15):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(6, 14))
            groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
            rng.shuffle(groups)
            catalog = Catalog.from_assignments(groups)
            profiles = [
                ProviderProfile(float(rng.random() * 3 + 0.2), float(rng.random() * 8), float(rng.random() * 3 + 0.3))
                for _ in range(m)
            ]
            n_users = int(rng.integers(1, 4))
            rel = RelevanceTable(n_users, [(u, i, float(rng.random())) for u in range(n_users) for i in range(n)])
            alpha = float(10 ** rng.uniform(-3, 1))
            users = list(rng.permutation(n_users))
            got = allocate_vertical(users, rel, GainLedger.empty(m), catalog, profiles, alpha, pm)
            want = reference_vertical(users, rel, catalog, profiles, alpha, pm)
            for a, b in zip(got, want):
                assert a.positions == b

    def test_rejects_repeated_users(self):
        catalog = Catalog.from_assignments([0, 0, 1, 1, 1])
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(5)])
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError, match="distinct"):
            allocate_vertical([0, 0], rel, ledger, catalog, uniform_profiles(2), 0.1, PM3)
        assert ledger.step_count == 0
        assert not ledger.group_exposure.any()

    def test_rejects_unknown_user_before_any_ledger_write(self):
        catalog = Catalog.from_assignments([0, 0, 1, 1, 1])
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(5)])
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError, match="user id 7"):
            allocate_vertical([0, 7], rel, ledger, catalog, uniform_profiles(2), 0.1, PM3)
        assert ledger.step_count == 0
        assert not ledger.exposure_gain.any()
        assert not ledger.group_exposure.any()

    def test_takes_no_field(self):
        # the allocation builds the offline field itself, so no mask of the
        # wrong shape can narrow the catalog
        catalog = Catalog.from_assignments([0, 1] * 3)
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(6)])
        mask = np.ones((2, 3), dtype=bool)
        with pytest.raises(TypeError, match="field"):
            allocate_vertical([0], rel, GainLedger.empty(2), catalog, uniform_profiles(2), 0.1, PM3, field=mask)

    @pytest.mark.parametrize(
        "users", [np.array([0.7]), [0, 1.5], [float("nan")], [float("inf")]], ids=["0.7", "1.5", "nan", "inf"]
    )
    def test_rejects_user_ids_that_are_not_whole_numbers(self, users):
        catalog = Catalog.from_assignments([0, 0, 1, 1, 1])
        rel = RelevanceTable(2, [(u, i, 0.5) for u in range(2) for i in range(5)])
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError, match="not a whole number"):
            allocate_vertical(users, rel, ledger, catalog, uniform_profiles(2), 0.1, PM3)
        assert ledger.step_count == 0 and not ledger.group_exposure.any()

    def test_whole_number_user_ids_of_any_type_are_served(self):
        catalog = Catalog.from_assignments([0, 0, 1, 1, 1])
        rel = RelevanceTable(2, [(u, i, 0.1 * (i + u)) for u in range(2) for i in range(5)])
        profiles = uniform_profiles(2)
        want = allocate_vertical([1, 0], rel, GainLedger.empty(2), catalog, profiles, 0.1, PM3)
        got = allocate_vertical(np.array([1.0, 0.0]), rel, GainLedger.empty(2), catalog, profiles, 0.1, PM3)
        assert [(rl.user, rl.positions) for rl in got] == [(rl.user, rl.positions) for rl in want]
        assert all(type(rl.user) is int for rl in got)

    @pytest.mark.parametrize("m,gain", [(1, 0.0), (2, 1e308)], ids=["one-provider", "overflowing-gains"])
    def test_alpha_zero_reads_no_gains(self, m, gain):
        # at alpha 0 each list is the user's top K, even where the gradient is not finite
        catalog = Catalog.from_assignments(np.arange(8) % m)
        rel = RelevanceTable(2, [(u, i, 0.1 * ((i * (u + 3)) % 7)) for u in range(2) for i in range(8)])
        profiles = uniform_profiles(m)
        ledger = ledger_with_gains([gain] * m)
        lists = allocate_vertical([1, 0], rel, ledger, catalog, profiles, 0.0, PM3)
        for rl in lists:
            topk = online_step_rank(PolicyConfig("TopK"), np.arange(8), rl.user, rel, ledger, catalog, profiles, PM3)
            assert rl.positions == topk.positions
        assert ledger.step_count == 3

    def test_ledger_accrual_totals(self):
        catalog = Catalog.from_assignments([0, 0, 1, 1, 1])
        profiles = uniform_profiles(2, ve=1.0, vb=0.0, y=1.0)
        rel = RelevanceTable(2, [(u, i, 0.5) for u in range(2) for i in range(5)])
        ledger = GainLedger.empty(2)
        allocate_vertical([0, 1], rel, ledger, catalog, profiles, 0.0, PM3)
        assert ledger.step_count == 2
        # exposure mass conservation: two lists of K=3 positions
        assert ledger.group_exposure.sum() == pytest.approx(2 * PM3.probs.sum(), rel=1e-12)

