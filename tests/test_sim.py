"""Simulation loops: feedback sampling, estimation, offline/online runs."""

import itertools
import math

import numpy as np
import pytest

from equityrank import (
    Catalog,
    GainLedger,
    PositionModel,
    ProviderProfile,
    RankList,
    RelevanceTable,
    SimConfig,
    apply_expected_feedback,
    apply_feedback,
    estimate_relevance,
    expected_gain,
    prefilter_candidates,
    run_offline,
    run_online,
    unfairness,
)
from equityrank import sim
from equityrank.sim import OnlineState, make_online_state
from equityrank.synth import Dataset

PM3 = PositionModel.logarithmic(3)


def tiny_dataset(rel_entries, groups, profiles, n_users):
    catalog = Catalog.from_assignments(groups)
    return Dataset(
        catalog=catalog,
        profiles=tuple(profiles),
        relevance=RelevanceTable(n_users, rel_entries),
    )


def fresh_state(m=2, users=1, candidate_sets=None, seed=0):
    # the candidate set holds every item the tests below serve or estimate
    return OnlineState(
        ledger=GainLedger.empty(m),
        candidate_sets=candidate_sets or [np.array([0, 1, 2, 5])] * users,
        rng=np.random.default_rng(seed),
    )


class TestEstimateRelevance:
    def test_never_purchased(self):
        state = fresh_state()
        state.exposure[0, state.slot(0, 5)] = 2.0
        assert estimate_relevance(0, 5, state) == 0.0

    def test_cold_start_prior(self):
        assert estimate_relevance(0, 5, fresh_state()) == 1.0

    def test_direct_ratio(self):
        state = fresh_state()
        state.exposure[0, state.slot(0, 5)] = 4.0
        state.purchases[0, state.slot(0, 5)] = 3
        assert estimate_relevance(0, 5, state) == 0.75

    def test_clamped_to_one(self):
        state = fresh_state()
        state.exposure[0, state.slot(0, 5)] = 0.5
        state.purchases[0, state.slot(0, 5)] = 2
        assert estimate_relevance(0, 5, state) == 1.0

    def test_vector_view_matches_scalar(self):
        state = fresh_state()
        state.exposure[0, state.slot(0, 1)] = 2.0
        state.purchases[0, state.slot(0, 1)] = 1
        got = state.relevance_of(0, np.array([0, 1]))
        np.testing.assert_allclose(got, [estimate_relevance(0, 0, state), estimate_relevance(0, 1, state)])


class TestOnlineStateSlots:
    def test_rows_are_sorted_and_slots_index_them(self):
        state = fresh_state(users=2, candidate_sets=[np.array([7, 3, 5]), np.array([1, 9, 4])])
        np.testing.assert_array_equal(state.candidate_sets, [[3, 5, 7], [1, 4, 9]])
        assert [state.slot(0, i) for i in (3, 5, 7)] == [0, 1, 2]
        assert state.slots(1, np.array([9, 1])) == [2, 0]
        assert state.exposure.shape == state.purchases.shape == (2, 3)

    def test_non_candidate_is_rejected(self):
        state = fresh_state()
        with pytest.raises(ValueError, match="not a candidate"):
            state.slot(0, 3)
        with pytest.raises(ValueError, match="not a candidate"):
            estimate_relevance(0, 3, state)

    def test_serving_a_non_candidate_raises_and_changes_nothing(self):
        catalog = Catalog.from_assignments([0, 0, 1, 1])
        profiles = [ProviderProfile(2.0, 10.0, 1.0), ProviderProfile(1.0, 5.0, 1.0)]
        rel = RelevanceTable(1, [(0, 3, 1.0)])
        state = fresh_state()
        with pytest.raises(ValueError, match="item 3 is not a candidate of user 0"):
            apply_feedback(RankList((0, 3, 1), 0), 0, rel, profiles, catalog, state, PM3)
        assert state.ledger.step_count == 0
        assert not state.exposure.any() and not state.ledger.group_exposure.any()

    def test_relevance_length_mismatch_raises_and_changes_nothing(self):
        catalog = Catalog.from_assignments([0, 0, 1, 1])
        profiles = [ProviderProfile(2.0, 10.0, 1.0), ProviderProfile(1.0, 5.0, 1.0)]
        rel = RelevanceTable(1, [(0, 0, 1.0)])
        state = fresh_state()
        rng_before = state.rng.bit_generator.state
        with pytest.raises(ValueError, match="2 relevances for 3 served items"):
            apply_feedback(
                RankList((0, 1, 2), 0), 0, rel, profiles, catalog, state, PM3, relevance=np.array([1.0, 0.5])
            )
        assert state.ledger.step_count == 0
        assert not state.exposure.any() and not state.purchases.any() and not state.ledger.group_exposure.any()
        assert state.rng.bit_generator.state == rng_before

    @pytest.mark.parametrize(
        "sets", [[np.array([0, 1]), np.array([0, 1, 2])], [np.array([0, 0, 1])], [np.array([-1, 2])], [np.array([])]]
    )
    def test_rejects_malformed_candidate_sets(self, sets):
        with pytest.raises(ValueError):
            fresh_state(users=len(sets), candidate_sets=sets)

    def test_full_row_read_matches_scalar_view(self):
        state = fresh_state()
        state.exposure[0] = [2.0, 0.0, 0.5, 4.0]
        state.purchases[0] = [1, 0, 2, 3]
        row = state.candidate_sets[0]
        np.testing.assert_array_equal(state.relevance_of(0, row), [0.5, 1.0, 1.0, 0.75])
        assert state.relevance_of(0, row).tolist() == [estimate_relevance(0, int(i), state) for i in row]


class TestApplyFeedback:
    def setup_method(self):
        self.catalog = Catalog.from_assignments([0, 0, 1])
        self.profiles = [ProviderProfile(2.0, 10.0, 1.0), ProviderProfile(1.0, 5.0, 1.0)]

    def test_zero_relevance_never_buys_but_exposure_accrues(self):
        rel = RelevanceTable(1, [])
        state = fresh_state()
        bought = apply_feedback(RankList((0, 1, 2), 0), 0, rel, self.profiles, self.catalog, state, PM3)
        assert not bought.any()
        assert state.ledger.purchase_gain.sum() == 0.0
        # deterministic expected exposure: p1*2 + p2*2 for g0, p3*1 for g1
        np.testing.assert_allclose(state.ledger.exposure_gain, [2.0 * (1 + 0.5), PM3.probs[2]])
        np.testing.assert_allclose(state.ledger.group_exposure, [1.5, PM3.probs[2]])
        assert state.ledger.step_count == 1

    def test_certain_purchase_at_top(self):
        rel = RelevanceTable(1, [(0, 0, 1.0)])
        for seed in range(10):
            state = fresh_state(seed=seed)
            bought = apply_feedback(RankList((0, 1, 2), 0), 0, rel, self.profiles, self.catalog, state, PM3)
            assert bought[0]
            assert state.purchases[0, state.slot(0, 0)] == 1

    def test_purchase_rate_matches_position_times_relevance(self):
        # r = 0.5 at rank 2 -> purchase probability 0.25
        rel = RelevanceTable(1, [(0, 1, 0.5)])
        state = fresh_state(seed=123)
        trials = 100_000
        for _ in range(trials):
            apply_feedback(RankList((0, 1, 2), 0), 0, rel, self.profiles, self.catalog, state, PM3)
        freq = state.purchases[0, state.slot(0, 1)] / trials
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert abs(freq - 0.25) <= 3 * sigma

    def test_estimator_counters_accumulate_probability_mass(self):
        rel = RelevanceTable(1, [])
        state = fresh_state()
        apply_feedback(RankList((0, 1, 2), 0), 0, rel, self.profiles, self.catalog, state, PM3)
        apply_feedback(RankList((2, 1, 0), 0), 0, rel, self.profiles, self.catalog, state, PM3)
        assert state.exposure[0, state.slot(0, 0)] == pytest.approx(1.0 + PM3.probs[2])
        assert state.exposure[0, state.slot(0, 1)] == pytest.approx(1.0)


class TestExpectedFeedback:
    def test_list_longer_than_positions_raises_and_changes_nothing(self):
        catalog = Catalog.from_assignments([0, 1, 0, 1])
        profiles = [ProviderProfile(1.0, 2.0, 1.0), ProviderProfile(0.5, 1.0, 1.0)]
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(4)])
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError, match="positions"):
            apply_expected_feedback(RankList((0, 1, 2, 3), 0), 0, rel, profiles, catalog, ledger, PM3)
        assert ledger.step_count == 0
        assert not ledger.exposure_gain.any()
        assert not ledger.purchase_gain.any()
        assert not ledger.group_exposure.any()

    def test_negative_item_id_is_rejected_and_changes_nothing(self):
        # a negative id used to index numpy from the end and charge the
        # provider of the catalog's last item
        catalog = Catalog.from_assignments([0, 0, 1])
        profiles = [ProviderProfile(1.0, 2.0, 1.0), ProviderProfile(0.5, 1.0, 1.0)]
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(3)])
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError, match="negative"):
            apply_expected_feedback(RankList((-1, 0), 0), 0, rel, profiles, catalog, ledger, PM3)
        assert ledger.step_count == 0
        assert not ledger.exposure_gain.any()
        assert not ledger.purchase_gain.any()
        assert not ledger.group_exposure.any()

    def test_matches_closed_form_for_every_provider(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(6, 15))
            groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
            rng.shuffle(groups)
            catalog = Catalog.from_assignments(groups)
            profiles = [
                ProviderProfile(float(rng.random() * 4), float(rng.random() * 20), float(rng.random() + 0.1))
                for _ in range(m)
            ]
            rel = RelevanceTable(2, [(u, i, float(rng.random())) for u in range(2) for i in range(n)])
            ledger = GainLedger.empty(m)
            lists = []
            for user in (0, 1):
                items = rng.choice(n, size=3, replace=False)
                rl = RankList(tuple(int(i) for i in items), user)
                apply_expected_feedback(rl, user, rel, profiles, catalog, ledger, PM3)
                lists.append(rl)
            for g in range(m):
                want = sum(expected_gain(g, rl, rl.user, catalog, profiles[g], rel, PM3) for rl in lists)
                got = ledger.exposure_gain[g] + ledger.purchase_gain[g]
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestPrefilter:
    def test_full_size_returns_all_items(self):
        rel = RelevanceTable(1, [(0, i, 0.1 * i) for i in range(5)])
        got = prefilter_candidates(0, rel, 5, 5, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(np.sort(got), np.arange(5))

    def test_zero_noise_is_true_top(self):
        rel = RelevanceTable(1, [(0, 0, 0.1), (0, 1, 0.9), (0, 2, 0.5), (0, 3, 0.7)])
        got = prefilter_candidates(0, rel, 4, 2, 0.0, np.random.default_rng(0))
        assert set(got.tolist()) == {1, 3}

    def test_default_protocol_sizes(self):
        rng = np.random.default_rng(1)
        rel = RelevanceTable(1, [(0, i, float(rng.random())) for i in range(50)])
        got = prefilter_candidates(0, rel, 50, 20, 0.1, rng)
        assert len(got) == 20 and len(set(got.tolist())) == 20

    def test_rejects_oversized(self):
        rel = RelevanceTable(1, [])
        with pytest.raises(ValueError):
            prefilter_candidates(0, rel, 5, 6, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_nonpositive_size_before_drawing_noise(self, size):
        rel = RelevanceTable(1, [(0, i, 0.1) for i in range(30)])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="prefilter size"):
            prefilter_candidates(0, rel, 30, size, 0.1, rng)
        assert rng.bit_generator.state == before


def micro_offline_dataset():
    """Two users, four items, two providers; both users prefer provider 0."""
    return tiny_dataset(
        rel_entries=[
            (0, 0, 0.9), (0, 1, 0.8), (0, 2, 0.3), (0, 3, 0.2),
            (1, 0, 0.85), (1, 1, 0.75), (1, 2, 0.25), (1, 3, 0.15),
        ],
        groups=[0, 0, 1, 1],
        profiles=[ProviderProfile(1.0, 0.0, 1.0), ProviderProfile(1.0, 0.0, 1.0)],
        n_users=2,
    )


def brute_force_min_unfairness(dataset, k):
    """Enumerate every pair of served lists and return the minimum unfairness."""
    pm = PositionModel.logarithmic(k)
    _, _, y = np.array([]), None, np.array([p.gain_target for p in dataset.profiles])
    best = math.inf
    items = range(dataset.catalog.item_count)
    for l0 in itertools.permutations(items, k):
        for l1 in itertools.permutations(items, k):
            ledger = GainLedger.empty(dataset.catalog.provider_count)
            apply_expected_feedback(RankList(l0, 0), 0, dataset.relevance, dataset.profiles, dataset.catalog, ledger, pm)
            apply_expected_feedback(RankList(l1, 1), 1, dataset.relevance, dataset.profiles, dataset.catalog, ledger, pm)
            best = min(best, unfairness(ledger.averaged_gains(), y))
    return best


class TestRunOffline:
    def test_topk_is_perfectly_effective(self):
        ds = tiny_dataset(
            rel_entries=[(0, 0, 1.0), (0, 1, 0.0)],
            groups=[0, 1],
            profiles=[ProviderProfile(1, 0, 1), ProviderProfile(1, 0, 1)],
            n_users=1,
        )
        result = run_offline(ds, "TopK", 0.0, 0, SimConfig(list_size=2))
        assert result.effectiveness == pytest.approx(1.0)
        assert result.mode == "offline"

    def test_equityrank_alpha_zero_matches_topk(self):
        ds = micro_offline_dataset()
        cfg = SimConfig(list_size=2)
        a = run_offline(ds, "TopK", 0.0, 3, cfg)
        b = run_offline(ds, "EquityRank", 0.0, 3, cfg)
        assert a.effectiveness == b.effectiveness
        assert a.unfairness == b.unfairness

    def test_large_alpha_beats_topk_and_respects_brute_force_floor(self):
        ds = micro_offline_dataset()
        cfg = SimConfig(list_size=2)
        topk = run_offline(ds, "TopK", 0.0, 0, cfg)
        equity = run_offline(ds, "EquityRank", 100.0, 0, cfg)
        vertical = run_offline(ds, "EquityRankV", 100.0, 0, cfg)
        floor = brute_force_min_unfairness(ds, 2)
        assert equity.unfairness < topk.unfairness
        assert vertical.unfairness < topk.unfairness
        assert equity.unfairness >= floor - 1e-12
        assert vertical.unfairness >= floor - 1e-12

    def test_exposure_mass_conserved(self):
        ds = micro_offline_dataset()
        cfg = SimConfig(list_size=2)
        pm = PositionModel.logarithmic(2)
        for policy in ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV"):
            # re-run and inspect the ledger through a replayed accrual
            result = run_offline(ds, policy, 0.5 if policy == "MMFStar" else 1.0, 0, cfg)
            assert result.unfairness >= 0

    def test_rejects_undersized_catalog(self):
        ds = micro_offline_dataset()
        with pytest.raises(ValueError):
            run_offline(ds, "TopK", 0.0, 0, SimConfig(list_size=9))

    @pytest.mark.parametrize("policy", ["TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV"])
    def test_each_users_relevance_is_read_once_and_no_rank_list_is_built(self, policy, monkeypatch):
        rng = np.random.default_rng(5)
        entries = [(u, i, float(rng.random())) for u in range(6) for i in range(24) if rng.random() < 0.3]
        profiles = [ProviderProfile(1.0 + g, 2.0, 1.0 + g / 4) for g in range(3)]
        ds = tiny_dataset(entries, np.arange(24) % 3, profiles, 6)
        reads = []

        def counted(name, original):
            def read(self, user, *args):
                reads.append((name, user))
                return original(self, user, *args)

            return read

        for name in ("dense_row", "relevance_of", "get", "user_values"):
            monkeypatch.setattr(RelevanceTable, name, counted(name, getattr(RelevanceTable, name)))
        check_list = RankList.__post_init__
        monkeypatch.setattr(RankList, "__post_init__", lambda rl: (reads.append(("RankList", rl.user)), check_list(rl)))
        # the first run builds the field from the table's arrays and the
        # ideal-DCG table from each user's values; a run itself reads nothing
        # of the relevance but the field's segments
        run_offline(ds, policy, 0.5, 3, SimConfig(list_size=3, cutoff=2))
        assert sorted(reads) == [("user_values", u) for u in range(6)]
        reads.clear()
        run_offline(ds, policy, 0.5, 4, SimConfig(list_size=3, cutoff=2))
        assert reads == []


def online_micro_dataset():
    return tiny_dataset(
        rel_entries=[
            (0, 0, 0.9), (0, 1, 0.6), (0, 2, 0.3), (0, 3, 0.2), (0, 4, 0.1),
            (1, 0, 0.2), (1, 1, 0.8), (1, 2, 0.5), (1, 3, 0.4), (1, 4, 0.3),
        ],
        groups=[0, 0, 1, 1, 1],
        profiles=[ProviderProfile(2.0, 20.0, 2.0), ProviderProfile(1.0, 10.0, 1.0)],
        n_users=2,
    )


def single_provider_dataset():
    return tiny_dataset(
        rel_entries=[(0, 0, 0.9), (0, 1, 0.5), (1, 2, 0.7)],
        groups=[0, 0, 0],
        profiles=[ProviderProfile(1.0, 1.0, 1.0)],
        n_users=2,
    )


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_single_provider_is_rejected_before_any_list_is_served(mode, monkeypatch):
    served = []
    for name in ("online_step", "apply_expected_feedback"):
        monkeypatch.setattr(sim, name, lambda *args, **kwargs: served.append(args))
    cfg = SimConfig(list_size=2, total_steps=1000, prefilter_size=3, mode=mode)
    run = sim.run_online if mode == "online" else sim.run_offline
    with pytest.raises(ValueError, match="needs at least two providers"):
        run(single_provider_dataset(), "TopK", 0.0, 0, cfg)
    assert served == []


class TestRunOnline:
    def test_identical_seeds_reproduce_bitwise(self):
        ds = online_micro_dataset()
        cfg = SimConfig(list_size=3, total_steps=400, mode="online", checkpoint_every=100)
        r1, t1 = run_online(ds, "EquityRank", 0.01, 7, cfg)
        r2, t2 = run_online(ds, "EquityRank", 0.01, 7, cfg)
        assert r1.effectiveness == r2.effectiveness
        assert r1.unfairness == r2.unfairness
        assert r1.msd == r2.msd
        assert (r1.pearson == r2.pearson) or (math.isnan(r1.pearson) and math.isnan(r2.pearson))
        assert t1.checkpoints == t2.checkpoints

    def test_geometric_series_for_always_perfect_service(self):
        # one candidate item with r=1: every step serves it, NDCG_t = 1,
        # so cNDCG(T) telescopes to (1 - gamma^T) / (1 - gamma)
        ds = tiny_dataset(
            rel_entries=[(0, 0, 1.0), (0, 1, 0.0)],
            groups=[0, 1],
            profiles=[ProviderProfile(1, 1, 1), ProviderProfile(1, 1, 1)],
            n_users=1,
        )
        gamma = 0.995
        cfg = SimConfig(list_size=1, prefilter_size=1, prefilter_noise=0.0, total_steps=200, gamma=gamma, mode="online")
        result, _ = run_online(ds, "TopK", 0.0, 0, cfg)
        assert result.effectiveness == pytest.approx((1 - gamma**200) / (1 - gamma), rel=1e-9)

    def test_zero_steps_flags_undefined_metrics(self):
        ds = online_micro_dataset()
        cfg = SimConfig(list_size=3, total_steps=0, mode="online")
        result, trace = run_online(ds, "TopK", 0.0, 0, cfg)
        assert result.effectiveness == 0.0
        assert math.isnan(result.unfairness)
        assert trace.checkpoints == []

    def test_rejects_vertical_policy(self):
        ds = online_micro_dataset()
        with pytest.raises(ValueError):
            run_online(ds, "EquityRankV", 1.0, 0, SimConfig(list_size=3, total_steps=10, mode="online"))

    def test_exposure_mass_conservation(self):
        ds = online_micro_dataset()
        cfg = SimConfig(list_size=3, total_steps=250, mode="online", record_ndcg=True)
        state = make_online_state(ds, 5, cfg)
        pm = PositionModel.logarithmic(3)
        for _ in range(100):
            user = int(state.rng.integers(2))
            items = state.candidate_sets[user][:3]
            apply_feedback(RankList(tuple(int(i) for i in items), user), user, ds.relevance, ds.profiles, ds.catalog, state, pm)
        assert state.ledger.group_exposure.sum() == pytest.approx(100 * pm.probs.sum(), rel=1e-12)

    @pytest.mark.parametrize("policy", ["TopK", "EquityRank", "PoorK"])
    def test_true_relevance_is_read_once_per_user_not_per_step(self, policy, monkeypatch):
        ds = online_micro_dataset()
        read = RelevanceTable.relevance_of
        calls = []

        def counted(self, user, items):
            calls.append(user)
            return read(self, user, items)

        monkeypatch.setattr(RelevanceTable, "relevance_of", counted)
        for steps in (10, 300):
            calls.clear()
            run_online(ds, policy, 0.01, 3, SimConfig(list_size=3, total_steps=steps, mode="online"))
            assert sorted(calls) == list(range(ds.relevance.user_count))

    def test_cndcg_checkpoints_monotone_when_undiscounted(self):
        ds = online_micro_dataset()
        cfg = SimConfig(list_size=3, total_steps=300, gamma=1.0, mode="online", checkpoint_every=50)
        _, trace = run_online(ds, "TopK", 0.0, 1, cfg)
        series = [c for _, c, _ in trace.checkpoints]
        assert all(a <= b for a, b in zip(series, series[1:]))

    def test_cndcg_matches_direct_sum_of_recorded_series(self):
        ds = online_micro_dataset()
        gamma = 0.995
        cfg = SimConfig(list_size=3, total_steps=500, gamma=gamma, mode="online", record_ndcg=True)
        result, trace = run_online(ds, "MMFStar", 0.5, 2, cfg)
        T = len(trace.ndcg_series)
        direct = float(np.sum(gamma ** (T - np.arange(1, T + 1)) * trace.ndcg_series))
        assert result.effectiveness == pytest.approx(direct, rel=1e-9)


class TestEstimatorConvergence:
    def test_estimate_converges_to_true_relevance(self):
        # single candidate served at the top position with r = 0.4; after
        # 2000 exposure units the binomial 3-sigma band is well inside 0.05
        true_r = 0.4
        ds = tiny_dataset(
            rel_entries=[(0, 0, true_r), (0, 1, 0.0)],
            groups=[0, 1],
            profiles=[ProviderProfile(1, 1, 1), ProviderProfile(1, 1, 1)],
            n_users=1,
        )
        cfg = SimConfig(list_size=1, prefilter_size=1, prefilter_noise=0.0, total_steps=0, mode="online")
        state = make_online_state(ds, 11, cfg)
        pm = PositionModel.logarithmic(1)
        exposures = 2000
        for _ in range(exposures):
            apply_feedback(RankList((0,), 0), 0, ds.relevance, ds.profiles, ds.catalog, state, pm)
        assert state.exposure[0, state.slot(0, 0)] >= 200
        estimate = estimate_relevance(0, 0, state)
        assert abs(estimate - true_r) <= 0.05


class TestSimConfig:
    def test_defaults_match_protocol(self):
        cfg = SimConfig()
        assert cfg.list_size == 5
        assert cfg.total_steps == 250_000
        assert cfg.gamma == 0.995
        assert cfg.eval_cutoff == 5
        assert cfg.prefilter_size == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SimConfig(cutoff=6)
        with pytest.raises(ValueError):
            SimConfig(prefilter_size=3)
        with pytest.raises(ValueError):
            SimConfig(mode="hybrid")

    @pytest.mark.parametrize("noise", [math.inf, math.nan, -0.1])
    def test_rejects_nonfinite_or_negative_prefilter_noise(self, noise):
        with pytest.raises(ValueError, match="prefilter_noise"):
            SimConfig(prefilter_noise=noise)
