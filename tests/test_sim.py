"""Simulation loops: feedback sampling, estimation, offline/online runs."""

import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from equityrank import (
    Catalog,
    GainLedger,
    GeneratorSpec,
    PositionModel,
    ProviderProfile,
    RankList,
    RelevanceTable,
    ScenarioSpec,
    SimConfig,
    allocate_vertical,
    apply_expected_feedback,
    apply_feedback,
    estimate_relevance,
    expected_gain,
    generate_dataset,
    prefilter_candidates,
    run_offline,
    run_online,
    unfairness,
)
from equityrank import core, metrics, rankers, sim
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
    def test_a_state_equals_only_itself(self):
        # a generated __eq__ would compare the counters as a tuple and raise
        state = fresh_state()
        assert (state == fresh_state()) is False
        assert (state == state) is True and (state != fresh_state()) is True

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

    def test_a_user_other_than_the_lists_raises_and_changes_nothing(self):
        rel = RelevanceTable(2, [(1, 0, 1.0)])
        state = fresh_state(users=2)
        rng_before = state.rng.bit_generator.state
        with pytest.raises(ValueError, match="user 1 does not match the list's user 0"):
            apply_feedback(RankList((0, 1, 2), 0), 1, rel, self.profiles, self.catalog, state, PM3)
        assert state.ledger.step_count == 0
        assert not state.exposure.any() and not state.purchases.any() and not state.ledger.group_exposure.any()
        assert state.rng.bit_generator.state == rng_before

    def test_an_item_beyond_the_catalog_raises_and_changes_nothing(self):
        catalog = Catalog.from_assignments([0, 0, 1, 1])
        rel = RelevanceTable(1, [(0, 0, 0.5)])
        state = fresh_state(candidate_sets=[np.array([0, 1, 99])])
        rng_before = state.rng.bit_generator.state
        with pytest.raises(ValueError, match="item id 99 out of range"):
            apply_feedback(RankList((99, 0), 0), 0, rel, self.profiles, catalog, state, PM3)
        assert state.ledger.step_count == 0
        assert not state.ledger.exposure_gain.any() and not state.ledger.purchase_gain.any()
        assert not state.ledger.group_exposure.any() and not state.gains.any()
        assert not state.exposure.any() and not state.purchases.any() and (state.estimate == 1.0).all()
        assert state.rng.bit_generator.state == rng_before

    def test_estimator_counters_accumulate_probability_mass(self):
        rel = RelevanceTable(1, [])
        state = fresh_state()
        apply_feedback(RankList((0, 1, 2), 0), 0, rel, self.profiles, self.catalog, state, PM3)
        apply_feedback(RankList((2, 1, 0), 0), 0, rel, self.profiles, self.catalog, state, PM3)
        assert state.exposure[0, state.slot(0, 0)] == pytest.approx(1.0 + PM3.probs[2])
        assert state.exposure[0, state.slot(0, 1)] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["exposure", "purchases", "estimate", "gains"])
    def test_feedback_writes_an_array_the_caller_replaced(self, name):
        rel = RelevanceTable(1, [(0, 0, 1.0)])  # item 0 is bought at the top, items 1 and 2 never
        state, want = fresh_state(), fresh_state()
        replaced = getattr(state, name)
        setattr(state, name, replaced.copy())
        for s in (state, want):
            apply_feedback(RankList((0, 1, 2), 0), 0, rel, self.profiles, self.catalog, s, PM3)
        assert getattr(state, name).tobytes() == getattr(want, name).tobytes()
        assert replaced.tobytes() == getattr(fresh_state(), name).tobytes() != getattr(want, name).tobytes()

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda state: pickle.loads(pickle.dumps(state))])
    def test_a_copied_state_serves_into_its_own_arrays(self, copy_of):
        rel = RelevanceTable(1, [(0, 0, 0.9), (0, 1, 0.6), (0, 2, 0.3)])
        state = fresh_state()
        apply_feedback(RankList((0, 1, 2), 0), 0, rel, self.profiles, self.catalog, state, PM3)

        def arrays(s):
            held = (s.exposure, s.purchases, s.estimate, s.gains, s.ledger.exposure_gain, s.ledger.purchase_gain)
            return [a.tobytes() for a in (*held, s.ledger.group_exposure)]

        before = arrays(state)
        copied = copy_of(state)
        for _ in range(20):
            apply_feedback(RankList((2, 0, 1), 0), 0, rel, self.profiles, self.catalog, copied, PM3)
        assert arrays(state) == before
        # the copy served as the original serves from the same state and generator
        for _ in range(20):
            apply_feedback(RankList((2, 0, 1), 0), 0, rel, self.profiles, self.catalog, state, PM3)
        assert arrays(copied) == arrays(state) and copied.purchases.any()
        assert copied.gains.tobytes() == copied.ledger.raw_gains().tobytes()


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

    def test_a_user_other_than_the_lists_raises_and_changes_nothing(self):
        # user 1's relevance used to accrue for a list served to user 0
        catalog = Catalog.from_assignments([0, 1, 0])
        profiles = [ProviderProfile(1.0, 2.0, 1.0), ProviderProfile(0.5, 1.0, 1.0)]
        rel = RelevanceTable(2, [(1, 0, 0.9), (1, 1, 0.4)])
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError, match="user 1 does not match the list's user 0"):
            apply_expected_feedback(RankList((0, 1), 0), 1, rel, profiles, catalog, ledger, PM3)
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

    def test_an_item_beyond_the_catalog_raises_and_changes_nothing(self):
        # numpy's IndexError used to escape from the provider lookup
        catalog = Catalog.from_assignments([0, 1, 0, 1])
        profiles = [ProviderProfile(1.0, 2.0, 1.0), ProviderProfile(0.5, 1.0, 1.0)]
        rel = RelevanceTable(1, [(0, i, 0.5) for i in range(4)])
        ledger = GainLedger.empty(2)
        with pytest.raises(ValueError, match="^item id 9 out of range$"):
            apply_expected_feedback(RankList((0, 9), 0), 0, rel, profiles, catalog, ledger, PM3)
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
    for name in ("_feedback", "serve_offline"):  # what serves an online and an offline run's lists
        monkeypatch.setattr(sim, name, lambda *args, **kwargs: served.append(args))
    cfg = SimConfig(list_size=2, total_steps=1000, prefilter_size=3, mode=mode)
    run = sim.run_online if mode == "online" else sim.run_offline
    with pytest.raises(ValueError, match="needs at least two providers"):
        run(single_provider_dataset(), "TopK", 0.0, 0, cfg)
    # the mode's driver raises it for the whole call, before any run's own checks
    driver = sim.run_online_batch if mode == "online" else sim.run_offline_batch
    with pytest.raises(ValueError, match="needs at least two providers"):
        driver(single_provider_dataset(), "TopK", [(0.0, 0), (0.0, -1)], cfg)
    assert served == []


@pytest.mark.parametrize(
    "mode, policy, runs, calls",
    [
        # the batch call builds the arrays once, and every run's plan, feedback and result reads them
        ("online", "EquityRank", 1, 1),
        ("online", "EquityRank", 3, 1),
        ("offline", "TopK", 1, 1),
        ("offline", "EquityRank", 6, 1),
    ],
)
def test_provider_arrays_are_built_once_per_batch_call_and_plan(mode, policy, runs, calls, monkeypatch):
    build, built = core.provider_arrays, []

    def counted(profiles):
        built.append(profiles)
        return build(profiles)

    for module in (sim, metrics, rankers):
        monkeypatch.setattr(module, "provider_arrays", counted)
    run_batch = sim.run_online_batch if mode == "online" else sim.run_offline_batch
    cfg = SimConfig(list_size=3, total_steps=50, mode=mode)
    outcomes = run_batch(online_micro_dataset(), policy, [(0.5, seed) for seed in range(runs)], cfg)
    assert not [o for o in outcomes if isinstance(o, Exception)]
    assert len(built) == calls


def test_feedback_reads_only_the_served_providers_weights(monkeypatch):
    # two items a provider, so the list (0, 1, 2, 3, 4) pays providers 0, 0, 1, 1 and 2
    m, k = 2_000, 5
    catalog = Catalog.from_assignments(np.repeat(np.arange(m), 2))
    profiles = [ProviderProfile(1.0 + g, 2.0 + g, 1.0) for g in range(m)]
    rel = RelevanceTable(1, [(0, i, 0.5) for i in range(10)])
    pm, served = PositionModel.logarithmic(k), RankList(tuple(range(k)), 0)
    build, built = core.provider_arrays, []

    def counted(profiles):
        built.append(len(profiles))
        return build(profiles)

    monkeypatch.setattr(sim, "provider_arrays", counted)
    state = fresh_state(m=m, candidate_sets=[np.arange(10)])
    apply_feedback(served, 0, rel, profiles, catalog, state, pm)
    ledger = GainLedger.empty(m)
    apply_expected_feedback(served, 0, rel, profiles, catalog, ledger, pm)
    assert built == [3, 3]
    probs = pm.probs.tolist()
    want = [(probs[0] + probs[1]) * 1.0, (probs[2] + probs[3]) * 2.0, probs[4] * 3.0]
    assert ledger.exposure_gain[:3].tolist() == state.ledger.exposure_gain[:3].tolist() == want
    assert not ledger.exposure_gain[3:].any() and not state.ledger.exposure_gain[3:].any()


def float32_weight_datasets():
    """Common data whose weights are float32 values: given as np.float32 scalars, and as Python floats."""
    ds = generate_dataset(GeneratorSpec(n_users=60, n_items=120, n_providers=6, seed=3), ScenarioSpec.common())
    weights = [[np.float32(v) for v in (p.exposure_value, p.purchase_value, p.gain_target)] for p in ds.profiles]
    return [
        dataclasses.replace(ds, profiles=tuple(ProviderProfile(*(kind(v) for v in w)) for w in weights))
        for kind in (np.float32, float)
    ]


@pytest.mark.parametrize("mode, policy, alpha", [("offline", "PoorK", 0.0), ("online", "EquityRank", 0.1)])
def test_float32_weights_run_as_the_same_values_as_floats(mode, policy, alpha):
    # float32 weights once made the ledger accrue in float32, while the scores read float64
    cfg = SimConfig(list_size=5, total_steps=2000, mode=mode)
    run = run_online if mode == "online" else run_offline
    got, want = (run(ds, policy, alpha, 0, cfg) for ds in float32_weight_datasets())
    if mode == "online":
        (got, got_trace), (want, want_trace) = got, want
        assert repr(got_trace.checkpoints) == repr(want_trace.checkpoints)
    assert got.deterministic_values() == want.deterministic_values()


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

    @pytest.mark.parametrize("policy", ["TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV"])
    def test_each_run_of_the_driver_equals_its_run_alone(self, policy):
        # several runs of one policy in one call: good runs give run_online's result and trace,
        # and a NaN alpha, a refused seed and EquityRankV fail alone with run_online's exception
        ds = online_micro_dataset()
        cfg = SimConfig(list_size=3, total_steps=90, mode="online", checkpoint_every=40, record_ndcg=True)
        runs = [(0.0, 0), (1e-3, 1), (math.nan, 2), (0.5, -1), (0.5, 3)]
        outcomes = sim.run_online_batch(ds, policy, runs, cfg)
        assert len(outcomes) == len(runs)
        for (alpha, seed), got in zip(runs, outcomes):
            try:
                want, want_trace = run_online(ds, policy, alpha, seed, cfg)
            except ValueError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            result, trace = got
            assert result.deterministic_values() == want.deterministic_values()
            assert repr(trace.checkpoints) == repr(want_trace.checkpoints)
            assert trace.ndcg_series.tobytes() == want_trace.ndcg_series.tobytes()
        failed = [i for i, got in enumerate(outcomes) if isinstance(got, Exception)]
        assert failed == ([0, 1, 2, 3, 4] if policy == "EquityRankV" else [2, 3])
        assert sim.run_online_batch(ds, policy, [], cfg) == []

    def test_traces_equal_only_themselves(self):
        # two traces with NDCG series compare without numpy's ambiguous truth value
        a = sim.OnlineTrace([(1, 0.5, 0.25)], np.array([0.1, 0.2]))
        b = sim.OnlineTrace([(1, 0.5, 0.25)], np.array([0.1, 0.2]))
        assert a == a and a != b and not (a == b)

    def test_rejects_vertical_policy(self):
        ds = online_micro_dataset()
        with pytest.raises(ValueError):
            run_online(ds, "EquityRankV", 1.0, 0, SimConfig(list_size=3, total_steps=10, mode="online"))

    def test_a_run_its_plan_refuses_draws_nothing(self, monkeypatch):
        # the plan is the online runs' one policy check, made before the state's prefilter draws
        def no_state(*args, **kwargs):
            raise AssertionError("an online state was built")

        monkeypatch.setattr(sim, "_online_state", no_state)
        ds, cfg = online_micro_dataset(), SimConfig(list_size=3, total_steps=10, mode="online")
        with pytest.raises(ValueError, match="EquityRankV lists are built jointly"):
            run_online(ds, "EquityRankV", 1.0, 0, cfg)
        (refused,) = sim.run_online_batch(ds, "MMFStar", [(1.5, 0)], cfg)
        assert type(refused) is ValueError and str(refused) == "alpha must lie in [0, 1] for this policy"

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

    @pytest.mark.parametrize("name", ["list_size", "total_steps", "cutoff", "prefilter_size", "checkpoint_every"])
    def test_integer_fields_take_only_whole_numbers(self, name):
        base = dict(list_size=3, total_steps=6, prefilter_size=4, checkpoint_every=2, mode="online")
        with pytest.raises(ValueError, match=f"^{name} 2.5 is not a whole number$"):
            SimConfig(**{**base, name: 2.5})
        cfg = SimConfig(**{**base, name: 3.0})
        assert getattr(cfg, name) == 3 and type(getattr(cfg, name)) is int
        ds = online_micro_dataset()
        got, got_trace = run_online(ds, "EquityRank", 0.01, 1, cfg)
        want, want_trace = run_online(ds, "EquityRank", 0.01, 1, SimConfig(**{**base, name: 3}))
        assert got.deterministic_values() == want.deterministic_values()
        assert got_trace.checkpoints == want_trace.checkpoints

    def test_float_fields_are_held_as_python_floats(self):
        # a float32 gamma once ran the online cNDCG in float32
        base = dict(list_size=3, total_steps=300, prefilter_size=4, checkpoint_every=100, mode="online")
        gamma, noise = np.float32(0.995), np.float32(0.1)
        cfg = SimConfig(**base, gamma=gamma, prefilter_noise=noise)
        assert (type(cfg.gamma), type(cfg.prefilter_noise)) == (float, float)
        got, got_trace = run_online(online_micro_dataset(), "TopK", 0.0, 1, cfg)
        floats = SimConfig(**base, gamma=float(gamma), prefilter_noise=float(noise))
        want, want_trace = run_online(online_micro_dataset(), "TopK", 0.0, 1, floats)
        assert type(got.effectiveness) is float
        assert got.deterministic_values() == want.deterministic_values()
        assert repr(got_trace.checkpoints) == repr(want_trace.checkpoints)

    @pytest.mark.parametrize("noise", [math.inf, math.nan, -0.1])
    def test_rejects_nonfinite_or_negative_prefilter_noise(self, noise):
        with pytest.raises(ValueError, match="prefilter_noise"):
            SimConfig(prefilter_noise=noise)

    def test_rejects_an_int_beyond_every_float_as_not_finite_prefilter_noise(self):
        # math.isfinite raised OverflowError for it
        with pytest.raises(ValueError, match="^prefilter_noise must be finite and nonnegative$"):
            SimConfig(prefilter_noise=10**400)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("profiles", "profile list does not match the catalog's provider count"),
        ("relevance", "relevance table references items beyond the catalog"),
    ],
)
def test_drivers_refuse_a_dataset_no_run_can_use_before_any_run(bad, message, monkeypatch):
    groups, profiles = [0, 1, 0, 1], [ProviderProfile(1.0, 1.0, 1.0)] * 2
    entries = [(0, 0, 0.5), (1, 3, 0.25)]
    if bad == "profiles":
        profiles = profiles + [ProviderProfile(1.0, 1.0, 1.0)]
    else:
        entries.append((1, 4, 0.75))  # the catalog's ids are 0..3
    dataset = tiny_dataset(entries, groups, profiles, n_users=2)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("serve_offline", "offline_field", "_online_state"):
        monkeypatch.setattr(sim, name, no_run)
    offline, online = SimConfig(list_size=2), SimConfig(list_size=2, total_steps=4, mode="online")
    for drive in (
        lambda: run_offline(dataset, "EquityRank", 0.1, 0, offline),
        lambda: run_online(dataset, "EquityRank", 0.1, 0, online),
        lambda: sim.run_offline_batch(dataset, "FairCoStar", [(0.1, 0), (1.0, 1)], offline),
        lambda: sim.run_online_batch(dataset, "MMFStar", [(0.1, 0), (1.0, 1)], online),
    ):
        with pytest.raises(ValueError, match=message):
            drive()
    if bad == "relevance":  # allocate_vertical refuses it as it builds the offline field
        with pytest.raises(ValueError, match=message):
            allocate_vertical([0, 1], dataset.relevance, GainLedger.empty(2), dataset.catalog, profiles, 0.1, PM3)
