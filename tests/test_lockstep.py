"""The offline driver ``sim.run_offline_batch``: each run of a call, whatever
engine serves it, gives the result and the ledger that ``run_offline`` and the
whole-catalog reference give it alone. FairCo*, EquityRank and EquityRankV runs
go in lockstep (``rankers._lockstep``), in batches of every size from one; a run
whose scores overflow fails alone, with ``run_offline``'s message, while the
rest of its batch goes on. Ledger-blind runs (``rankers.ledger_blind``) are served
whole, and give the reference's result and ledger too. The runs' G.y comes from
one ``np.vecdot``, which must take each row by the kernel of the row's own ``.dot``:
a numpy release that changed that kernel fails here first."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import (
    Catalog,
    Dataset,
    GainLedger,
    GeneratorSpec,
    PolicyConfig,
    PositionModel,
    ProviderProfile,
    RelevanceTable,
    RunResult,
    ScenarioSpec,
    SimConfig,
    allocate_vertical,
    generate_dataset,
    offline_rank_user,
    provider_arrays,
    rankers,
    sim,
)
from equityrank.rankers import OfflineField, PolicyPlan
from oracles import run_offline_reference, tied_datasets

LEDGER_ARRAYS = ("exposure_gain", "purchase_gain", "group_exposure")
# alpha b overflows once the scaled gradient passes about 1.8
OVERFLOW = 1e308
POLICIES = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
# (policy, alpha) of runs whose lists read no ledger
BLIND_RUNS = [("TopK", 0.0), ("TopK", 0.5), ("EquityRank", 0.0), ("EquityRankV", 0.0)]


def batch_with_ledgers(dataset, policy, runs, cfg, **constants):
    """``run_offline_batch``'s outcomes, the ledger each result was computed from, by (alpha,
    seed), and the number of runs of each ``_lockstep`` batch; ``constants`` patch ``rankers``'s."""
    ledgers, batches, result, lockstep = {}, [], sim._result, rankers._lockstep

    def capture(mode, policy, alpha, seed, effectiveness, ledger, arrays, wall):
        ledgers[alpha, seed] = ledger
        return result(mode, policy, alpha, seed, effectiveness, ledger, arrays, wall)

    def counted(plan, field, orders, *args):
        batches.append(len(orders))
        return lockstep(plan, field, orders, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_result", capture)
        mp.setattr(rankers, "_lockstep", counted)
        for name, value in constants.items():
            mp.setattr(rankers, name, value)
        outcomes = sim.run_offline_batch(dataset, policy, runs, cfg)
    return outcomes, ledgers, batches


def lockstep_runs(policy, runs):
    """How many of ``runs`` the driver serves in lockstep, if every run passes its checks."""
    return sum(policy not in ("PoorK", "MMFStar") and not rankers.ledger_blind(policy, alpha) for alpha, _ in runs)


def run_alone(dataset, policy, alpha, seed, cfg):
    try:
        return sim.run_offline(dataset, policy, alpha, seed, cfg)
    except ValueError as exc:
        return exc


def alone_with_ledger(dataset, policy, alpha, seed, cfg):
    """``run_alone``'s outcome, and the ledger its result was computed from (None for an error)."""
    ledgers, result = [], sim._result

    def capture(mode, policy, alpha, seed, effectiveness, ledger, arrays, wall):
        ledgers.append(ledger)
        return result(mode, policy, alpha, seed, effectiveness, ledger, arrays, wall)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_result", capture)
        outcome = run_alone(dataset, policy, alpha, seed, cfg)
    return outcome, ledgers[0] if ledgers else None


def assert_same_ledger(got, want):
    for name in LEDGER_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.step_count == want.step_count


def tiny_target(dataset):
    """``dataset`` with provider 0's gain target the least positive float: its
    gain-to-target ratio overflows to +inf once it is paid anything."""
    first = dataclasses.replace(dataset.profiles[0], gain_target=5e-324)
    return dataclasses.replace(dataset, profiles=(first, *dataset.profiles[1:]))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(1, 70) | st.sampled_from([127, 128, 129, 2000]),
    st.integers(-3, 300),
    st.integers(0, 2**32 - 1),
)
def test_vecdot_takes_each_rows_dot_bit_for_bit(runs, m, top, seed):
    # mixed signs, magnitudes from 1e-3 to 1e`top`: products may overflow, and sums of
    # opposite infinities give NaN, which the bytes compare too
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.choice([-1.0, 1.0], shape) * rng.random(shape) * 10.0 ** rng.uniform(-3, top, shape)

    gains, targets = draw((runs, m)), draw(m)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.vecdot(gains, targets).tobytes() == np.array([row.dot(targets) for row in gains]).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_lockstep_scores_are_each_runs_own_scores_bit_for_bit(m, runs, length, seed):
    # G.y rounds differently as (R x m) @ y than as each row's own dot, in some rows
    rng = np.random.default_rng(seed)
    profiles = [ProviderProfile(*(float(x) for x in rng.uniform(0.2, 100.0, 3))) for _ in range(m)]
    plan = PolicyPlan(PolicyConfig("EquityRank", 1.0), provider_arrays(profiles))
    gains = rng.random((runs, m)) * 10.0 ** rng.integers(-3, 6, (runs, 1))
    rel, provider = rng.random((runs, length)), rng.integers(0, m, (runs, length))
    alpha = 10.0 ** rng.integers(-8, 2, runs)
    weight = rel * plan.vb[provider] + plan.ve[provider]
    flat = provider + m * np.arange(runs)[:, None]
    got = plan._equity(rel, flat, plan.targets, weight, gains, alpha[:, None])
    for r in range(runs):
        alone = PolicyPlan(PolicyConfig("EquityRank", float(alpha[r])), provider_arrays(profiles))
        want = alone.score(rel[r], provider[r], gains[r].copy())
        assert got[r].tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_fairco_row_scores_are_each_runs_own_scores_bit_for_bit(m, runs, length, seed):
    rng = np.random.default_rng(seed)
    profiles = [ProviderProfile(*(float(x) for x in rng.uniform(0.2, 100.0, 3))) for _ in range(m)]
    plan = PolicyPlan(PolicyConfig("FairCoStar", 1.0), provider_arrays(profiles))
    gains = rng.random((runs, m)) * 10.0 ** rng.integers(-3, 6, (runs, 1))
    rel, provider = rng.random((runs, length)), rng.integers(0, m, (runs, length))
    alpha = np.where(rng.random(runs) < 0.2, 0.0, 10.0 ** rng.integers(-8, 2, runs))
    got = plan.score(rel, provider + m * np.arange(runs)[:, None], gains, alpha[:, None])
    for r in range(runs):
        alone = PolicyPlan(PolicyConfig("FairCoStar", float(alpha[r])), provider_arrays(profiles))
        assert got[r].tobytes() == alone.score(rel[r], provider[r], gains[r].copy()).tobytes()


@settings(max_examples=150, deadline=None)
@given(tied_datasets(), st.sampled_from(["EquityRank", "EquityRankV"]), st.data())
def test_each_batched_run_equals_its_run_alone_and_the_reference(case, policy, data):
    dataset, k = case
    cfg = SimConfig(list_size=k)
    alpha = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0, OVERFLOW])
    runs = data.draw(st.lists(st.tuples(alpha, st.integers(0, 50)), min_size=1, max_size=8, unique=True))
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes, ledgers, batches = batch_with_ledgers(dataset, policy, runs, cfg)
        assert sum(batches) == lockstep_runs(policy, runs) and len(batches) <= 1
        assert len(outcomes) == len(runs)
        for (alpha, seed), got in zip(runs, outcomes):
            want = run_alone(dataset, policy, alpha, seed, cfg)
            if isinstance(want, ValueError):
                assert isinstance(got, ValueError) and str(got) == str(want)
                continue
            assert isinstance(got, RunResult)
            assert got.deterministic_values() == want.deterministic_values()
            reference, _, reference_ledger = run_offline_reference(dataset, policy, alpha, seed, cfg)
            assert got.deterministic_values() == reference.deterministic_values()
            assert_same_ledger(ledgers[alpha, seed], reference_ledger)


@settings(max_examples=150, deadline=None)
@given(tied_datasets(), st.booleans(), st.data())
def test_each_fairco_run_of_a_batch_equals_its_run_alone(case, tiny, data):
    # ragged segments, alpha 0 among the runs, and with a tiny target on provider 0
    # some runs' ratios overflow to +inf: each of those fails alone, with its own message.
    # A run at alpha 0 runs TopK's plan, served whole: it joins no batch
    dataset, k = case
    dataset = tiny_target(dataset) if tiny else dataset
    cfg = SimConfig(list_size=k)
    alpha = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0, OVERFLOW])
    runs = data.draw(st.lists(st.tuples(alpha, st.integers(0, 50)), min_size=1, max_size=8, unique=True))
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes, ledgers, batches = batch_with_ledgers(dataset, "FairCoStar", runs, cfg)
        batched = sum(alpha != 0.0 for alpha, _ in runs)
        assert batches == ([batched] if batched else [])
        assert len(outcomes) == len(runs)
        for (alpha, seed), got in zip(runs, outcomes):
            want, ledger = alone_with_ledger(dataset, "FairCoStar", alpha, seed, cfg)
            if isinstance(want, ValueError):
                assert isinstance(got, ValueError) and str(got) == str(want)
                continue
            assert isinstance(got, RunResult)
            assert got.deterministic_values() == want.deterministic_values()
            assert_same_ledger(ledgers[alpha, seed], ledger)


def test_a_fairco_run_whose_ratios_overflow_fails_alone():
    # provider 0 owns item 0, which only user 1 finds relevant: a run that serves user 1
    # before user 0 pays it, its ratio overflows, and user 0's list cannot be scored.
    # At alpha 0 that run is TopK's, which reads no ratio, and finishes
    profiles = [ProviderProfile(1.0, 2.0, 1.0)] * 3
    entries = [(1, 0, 1.0)] + [(u, i, 0.5 + 0.1 * i) for u in range(2) for i in range(1, 5)]
    catalog = Catalog.from_assignments([0, 1, 1, 2, 2], 3)
    dataset = tiny_target(Dataset(catalog, tuple(profiles), RelevanceTable(2, entries)))
    cfg = SimConfig(list_size=2)
    first = {seed: int(np.random.default_rng(seed).permutation(2)[0]) for seed in range(4)}
    late, early = min(s for s in first if first[s] == 0), min(s for s in first if first[s] == 1)
    runs = [(0.0, late), (0.0, early), (1e-3, late), (1e-3, early), (0.5, late)]
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = sim.run_offline_batch(dataset, "FairCoStar", runs, cfg)
        for (alpha, seed), got in zip(runs, outcomes):
            want = run_alone(dataset, "FairCoStar", alpha, seed, cfg)
            if seed == early and alpha != 0.0:
                assert isinstance(got, ValueError) and str(got) == str(want) == "scores must be finite"
            else:
                assert got.deterministic_values() == want.deterministic_values()
        topk = sim.run_offline(dataset, "TopK", 0.0, early, cfg)
    assert dataclasses.replace(outcomes[1], policy="TopK").deterministic_values() == topk.deterministic_values()


def test_a_fairco_list_never_takes_a_pad_of_its_short_segment():
    # at step 1 the run that served user 1 first ranks user 0's 5 entries padded to
    # user 1's 8 with copies of the last, item 8: the only item of provider 2, which
    # alone lags, so the item and its copies top the scores
    profiles = (ProviderProfile(1.0, 1.0, 1.0),) * 3
    entries = [(1, 0, 0.9), (1, 4, 0.9)] + [(1, i, 0.5) for i in (1, 2, 3)]
    catalog = Catalog.from_assignments([0, 0, 0, 0, 1, 1, 1, 1, 2], 3)
    dataset = Dataset(catalog, profiles, RelevanceTable(2, entries))
    cfg = SimConfig(list_size=2)
    first = {seed: int(np.random.default_rng(seed).permutation(2)[0]) for seed in range(4)}
    runs = [(10.0, min(s for s in first if first[s] == u)) for u in (0, 1)]
    for (alpha, seed), got in zip(runs, sim.run_offline_batch(dataset, "FairCoStar", runs, cfg)):
        want = sim.run_offline(dataset, "FairCoStar", alpha, seed, cfg)
        assert got.deterministic_values() == want.deterministic_values()


def test_fairco_lists_break_exact_score_ties_by_relevance_as_the_reference_does():
    # dyadic relevances, profiles, probabilities (K = 2: 1 and 1/2) and alpha keep every
    # score exact. The user served first, u0, pays provider 0 a gain of 2 and provider 1
    # a gain of 1; at alpha 1/4, provider 1 then lags by 1/4 and provider 2 by 1/2, so
    # u1's items 2, 1 and 0 all score 3/4 with relevances 3/4, 1/2 and 1/4: the list is
    # [2, 1] by relevance, though [0, 1] by id
    profiles = (ProviderProfile(1.0, 1.0, 1.0),) * 3
    catalog = Catalog.from_assignments([2, 1, 0, 0, 1, 2, 2], 3)
    entries = [(0, 3, 1.0), (0, 4, 1.0), (1, 0, 0.25), (1, 1, 0.5), (1, 2, 0.75)]
    dataset = Dataset(catalog, profiles, RelevanceTable(2, entries))
    cfg = SimConfig(list_size=2)
    first = {seed: int(np.random.default_rng(seed).permutation(2)[0]) for seed in range(4)}
    tied, untied = min(s for s in first if first[s] == 0), min(s for s in first if first[s] == 1)
    scores = PolicyPlan(PolicyConfig("FairCoStar", 0.25), provider_arrays(profiles)).score(
        np.array([0.25, 0.5, 0.75]), catalog.group_of[:3], np.array([2.0, 1.0, 0.0])
    )
    assert scores.tolist() == [0.75] * 3
    runs = [(0.25, tied), (0.25, untied), (0.0, tied), (0.5, tied), (0.125, tied)]
    lists, lockstep = {}, rankers._lockstep

    def recorded(plan, field, orders, alphas, *args):
        picks, failed = lockstep(plan, field, orders, alphas, *args)
        for order, alpha, at in zip(orders, alphas.tolist(), picks):
            lists[alpha, tuple(order.tolist())] = field.items[field.indptr[order][:, None] + at].tolist()
        return picks, failed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rankers, "_lockstep", recorded)
        outcomes = sim.run_offline_batch(dataset, "FairCoStar", runs, cfg)
    # the alpha-0 run is TopK's, served whole: only the others go in lockstep
    assert len(lists) == len(runs) - 1 and all(alpha != 0.0 for alpha, _ in lists)
    for (alpha, seed), got in zip(runs, outcomes):
        want, want_lists, _ = run_offline_reference(dataset, "FairCoStar", alpha, seed, cfg)
        order = tuple(np.random.default_rng(seed).permutation(2).tolist())
        if alpha != 0.0:
            assert lists[alpha, order] == [list(rl.positions) for rl in want_lists]
        assert got.deterministic_values() == want.deterministic_values()
    assert lists[0.25, (0, 1)][1] == [2, 1]


@settings(max_examples=150, deadline=None)
@given(tied_datasets(), st.sampled_from(BLIND_RUNS), st.integers(0, 1000))
def test_a_ledger_blind_run_is_served_whole_as_the_reference_serves_it(case, run, seed):
    dataset, k = case
    policy, alpha = run
    cfg = SimConfig(list_size=k)
    assert rankers.ledger_blind(policy, alpha)
    calls, heads = [], OfflineField.heads

    def counted(field, users, k):
        calls.append(len(users))
        return heads(field, users, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OfflineField, "heads", counted)
        mp.setattr(PolicyPlan, "rank", lambda *args: pytest.fail("a ledger-blind run ranks no list"))
        mp.setattr(rankers, "_lockstep", lambda *args: pytest.fail("a ledger-blind run ranks no list"))
        got, ledger = alone_with_ledger(dataset, policy, alpha, seed, cfg)
    assert calls == [dataset.relevance.user_count]
    want, _, want_ledger = run_offline_reference(dataset, policy, alpha, seed, cfg)
    assert got.deterministic_values() == want.deterministic_values()
    assert_same_ledger(ledger, want_ledger)


def test_every_policy_but_poork_is_ledger_blind_at_alpha_0():
    # at alpha 0 every policy but PoorK ranks by relevance alone; MMF* at alpha 1 is PoorK
    policies = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
    assert [rankers.ledger_blind(p, 0.0) for p in policies] == [True, False, True, True, True, True]
    assert [rankers.ledger_blind(p, 1e-3) for p in policies] == [True, False, False, False, False, False]
    assert [rankers.ledger_blind(p, 1.0) for p in policies] == [True, False, False, False, False, False]


@pytest.mark.parametrize("policy", ["EquityRank", "EquityRankV"])
def test_an_overflowing_run_fails_alone_and_its_batch_goes_on(policy):
    spec = GeneratorSpec(n_users=30, n_items=60, n_providers=5, latent_dim=4, sparsity=0.2, seed=7)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    cfg = SimConfig(list_size=3)
    runs = [(1e-3, 0), (OVERFLOW, 0), (0.0, 1), (0.5, 1), (0.1, 2)]
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes, _, batches = batch_with_ledgers(dataset, policy, runs, cfg)
        with pytest.raises(ValueError, match="^scores must be finite$"):
            sim.run_offline(dataset, policy, OVERFLOW, 0, cfg)
    assert batches == [4]  # all but the ledger-blind alpha-0 run
    assert isinstance(outcomes[1], ValueError) and str(outcomes[1]) == "scores must be finite"
    results = [outcome for i, outcome in enumerate(outcomes) if i != 1]
    for (alpha, seed), got in zip([run for i, run in enumerate(runs) if i != 1], results):
        assert got.deterministic_values() == sim.run_offline(dataset, policy, alpha, seed, cfg).deterministic_values()
    # a batched run's wall time is the batch's, shared evenly; the alpha-0 run, served whole, reads its own
    batched = {outcomes[i].wall_time for i in (0, 3, 4)}
    assert len(batched) == 1 and outcomes[2].wall_time not in batched


def test_every_offline_engine_fails_nonfinite_scores_with_one_message():
    # a run of a batch, the public vertical allocation and the public offline ranker all
    # go through the lockstep fill; a plan's own check gives the message they give
    spec = GeneratorSpec(n_users=8, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    catalog, profiles, rel = dataset.catalog, dataset.profiles, dataset.relevance
    pm = PositionModel.logarithmic(2)
    warm = GainLedger.empty(3)
    warm.exposure_gain[:] = [1.0, 2.0, 3.0]
    failures = []
    with np.errstate(over="ignore", invalid="ignore"):
        for policy in ("FairCoStar", "EquityRank", "EquityRankV"):
            failures.append(sim.run_offline_batch(dataset, policy, [(0.1, 0), (OVERFLOW, 0)], SimConfig(list_size=2))[1])
        for call in (
            lambda: allocate_vertical(range(8), rel, GainLedger.empty(3), catalog, profiles, OVERFLOW, pm),
            lambda: offline_rank_user(PolicyConfig("EquityRank", OVERFLOW), range(20), 0, rel, warm, catalog, profiles, pm),
            lambda: PolicyPlan(PolicyConfig("EquityRank", 1.0), provider_arrays(profiles))._finite(np.array([0.5, np.nan])),
        ):
            with pytest.raises(ValueError) as failure:
                call()
            failures.append(failure.value)
    assert all(type(failure) is ValueError for failure in failures)
    assert {str(failure) for failure in failures} == {"scores must be finite"}


def test_only_the_gradient_policies_run_in_lockstep():
    # every policy goes through the driver; only FairCo*'s, EquityRank's and EquityRankV's
    # runs that read the ledger, those at alpha above 0, join a batch, and MMF*'s and PoorK's
    # go list by list
    spec = GeneratorSpec(n_users=8, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    cfg = SimConfig(list_size=2)
    runs = [(alpha, seed) for alpha in (0.0, 0.1, 1.0) for seed in (0, 1)]
    for policy, want in zip(POLICIES, ([], [], [4], [], [4], [4])):
        outcomes, _, batches = batch_with_ledgers(dataset, policy, runs, cfg)
        assert batches == want, policy
        for (alpha, seed), got in zip(runs, outcomes):
            alone = sim.run_offline(dataset, policy, alpha, seed, cfg)
            assert got.deterministic_values() == alone.deterministic_values()


@pytest.mark.parametrize("count,batches", [(1, [1]), (3, [3]), (4, [4]), (9, [5, 4])])
def test_a_call_batches_its_runs_in_near_equal_batches_of_at_most_batch_runs(count, batches):
    spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    runs = [(0.1, seed) for seed in range(count)]
    _, _, got = batch_with_ledgers(dataset, "EquityRank", runs, SimConfig(list_size=2), BATCH_RUNS=5)
    assert got == batches


@settings(max_examples=150, deadline=None)
@given(tied_datasets(), st.sampled_from(POLICIES), st.sampled_from([1, 3, 64]), st.data())
def test_every_policys_driver_runs_equal_the_reference(case, policy, batch_runs, data):
    # 1-8 runs with alpha 0, an overflowing alpha and a refused seed among them, NDCG at a
    # cutoff from 1 to K: a gradient policy's valid runs that read the ledger go in
    # lockstep, in batches of at most batch_runs
    dataset, k = case
    cfg = SimConfig(list_size=k, cutoff=data.draw(st.integers(1, k)))
    alpha = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0, OVERFLOW])
    runs = data.draw(st.lists(st.tuples(alpha, st.integers(-1, 50)), min_size=1, max_size=8, unique=True))
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes, ledgers, batches = batch_with_ledgers(dataset, policy, runs, cfg, BATCH_RUNS=batch_runs)
        assert sum(batches) == lockstep_runs(policy, [run for run in runs if run[1] >= 0])
        assert all(size <= batch_runs for size in batches)
        for (alpha, seed), got in zip(runs, outcomes, strict=True):
            # the reference does not check scores: a run that fails alone fails in the call
            alone = run_alone(dataset, policy, alpha, seed, cfg)
            if isinstance(alone, ValueError):
                assert isinstance(got, ValueError) and str(got) == str(alone)
                continue
            want, _, want_ledger = run_offline_reference(dataset, policy, alpha, seed, cfg)
            assert isinstance(got, RunResult)
            assert got.deterministic_values() == want.deterministic_values()
            assert_same_ledger(ledgers[alpha, seed], want_ledger)


def test_an_empty_batch_has_no_outcomes():
    spec = GeneratorSpec(n_users=4, n_items=10, n_providers=2, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    assert sim.run_offline_batch(dataset, "EquityRank", [], SimConfig(list_size=2)) == []


@pytest.mark.parametrize("policy", ["FairCoStar", "EquityRank", "EquityRankV"])
def test_a_refused_seed_fails_its_run_alone(policy):
    spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    cfg = SimConfig(list_size=2)
    runs = [(0.1, 0), (0.1, -1), (1.0, 1), (0.0, -1), (0.5, 2)]
    outcomes = sim.run_offline_batch(dataset, policy, runs, cfg)
    for (alpha, seed), got in zip(runs, outcomes):
        want = run_alone(dataset, policy, alpha, seed, cfg)
        if seed < 0:
            assert isinstance(want, ValueError) and type(got) is type(want) and str(got) == str(want)
        else:
            assert got.deterministic_values() == want.deterministic_values()


def test_a_refused_run_does_not_count_towards_a_lockstep_batch():
    # the refused seed's run is in no batch: the three valid runs go in lockstep
    spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    cfg = SimConfig(list_size=2)
    runs = [(0.1, 0), (0.1, -1), (1.0, 1), (0.5, 2)]
    assert lockstep_runs("EquityRank", runs) == 4
    outcomes, ledgers, batches = batch_with_ledgers(dataset, "EquityRank", runs, cfg)
    assert batches == [3]
    assert isinstance(outcomes[1], ValueError)
    for (alpha, seed), got in zip(runs, outcomes):
        if seed < 0:
            continue
        want, want_ledger = alone_with_ledger(dataset, "EquityRank", alpha, seed, cfg)
        assert got.deterministic_values() == want.deterministic_values()
        assert_same_ledger(ledgers[alpha, seed], want_ledger)


@pytest.mark.parametrize("policy", ["FairCoStar", "EquityRank", "EquityRankV"])
def test_a_batch_whose_lockstep_raises_fails_and_the_call_serves_the_others(policy):
    # four runs in two batches of two (runs 0 and 2, runs 1 and 3); _lockstep raises on its
    # first call only, so the first batch's runs share its exception and the second's are served
    spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    cfg = SimConfig(list_size=2)
    runs = [(0.1, 0), (0.5, 1), (1.0, 2), (0.3, 3)]
    lockstep, calls = rankers._lockstep, []

    def first_call_raises(*args):
        calls.append(len(args[2]))
        if len(calls) == 1:
            raise RuntimeError("lockstep broke")
        return lockstep(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rankers, "BATCH_RUNS", 2)
        mp.setattr(rankers, "_lockstep", first_call_raises)
        outcomes = sim.run_offline_batch(dataset, policy, runs, cfg)
    assert calls == [2, 2]
    assert isinstance(outcomes[0], RuntimeError) and outcomes[2] is outcomes[0]
    for i in (1, 3):
        want = sim.run_offline(dataset, policy, *runs[i], cfg)
        assert outcomes[i].deterministic_values() == want.deterministic_values()


def test_serve_offline_refuses_a_bad_alpha_for_each_run_alone():
    # a ledger-blind TopK run builds no plan, yet a bad alpha fails it as EquityRank's fails
    spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    rel, catalog, profiles = dataset.relevance, dataset.catalog, dataset.profiles
    field, probs = rankers.offline_field(rel, catalog, 2), PositionModel.logarithmic(2).probs.tolist()

    def serve(policy, alphas):
        orders = np.stack([np.random.default_rng(3).permutation(rel.user_count)] * len(alphas))
        ledgers = [GainLedger.empty(catalog.provider_count) for _ in alphas]
        picks, _, failed = rankers.serve_offline(policy, alphas, field, orders, ledgers, provider_arrays(profiles), probs)
        return picks, ledgers, failed

    for policy, alphas in (("TopK", [np.nan, -1.0, 0.0]), ("EquityRank", [np.nan, 0.1])):
        picks, ledgers, failed = serve(policy, alphas)
        assert sorted(failed) == list(range(len(alphas) - 1))
        for r in failed:
            assert type(failed[r]) is ValueError and str(failed[r]) == "alpha must be finite and nonnegative"
            assert ledgers[r].step_count == 0 and not ledgers[r].raw_gains().any()
        # the good run is served as it is alone
        want_picks, (want_ledger,), want_failed = serve(policy, alphas[-1:])
        assert want_failed == {} and picks[-1].tobytes() == want_picks[0].tobytes()
        assert_same_ledger(ledgers[-1], want_ledger)


def test_a_many_run_call_holds_its_picks_in_the_fields_index_dtype():
    # 128 TopK runs at K 5, the field prebuilt. On 500 users, intp picks beside a
    # second copy of the visit orders peaked at 3.9 MiB traced; int32 picks and
    # one int64 copy of the orders, at 2.2 MiB (on 2,000 users: 14.8 and 7.9 MiB)
    runs, users, k = 128, 500, 5
    dataset = generate_dataset(GeneratorSpec(n_users=users, n_items=200, n_providers=10), ScenarioSpec.common())
    cfg = SimConfig(list_size=k)
    sim.run_offline_batch(dataset, "TopK", [(0.0, 0)], cfg)  # builds the field and the ideal DCGs
    with pytest.MonkeyPatch.context() as mp:
        # paying keeps nothing beyond the ledgers, and its 320,000 traced accruals take seconds
        mp.setattr(GainLedger, "pay", lambda *args: None)
        tracemalloc.start()
        try:
            outcomes = sim.run_offline_batch(dataset, "TopK", [(0.0, seed) for seed in range(runs)], cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert not any(isinstance(outcome, Exception) for outcome in outcomes)
    # int32 picks, int64 orders, and 1 MiB for a run's transient lists
    assert peak < runs * users * k * 4 + runs * users * 8 + 2**20


@pytest.mark.parametrize("policy", POLICIES)
def test_every_engine_picks_in_the_fields_index_dtype(policy):
    spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    field = rankers.offline_field(dataset.relevance, dataset.catalog, 2)
    orders = np.stack([np.random.default_rng(seed).permutation(6) for seed in range(4)])
    ledgers = [GainLedger.empty(3) for _ in orders]
    dtypes, lockstep = [], rankers._lockstep

    def observed(*args):
        picks, failed = lockstep(*args)
        dtypes.append(picks.dtype)
        return picks, failed

    alphas, probs = [0.0, 0.1, 0.5, 1.0], [1.0, 0.5]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rankers, "_lockstep", observed)
        arrays = provider_arrays(dataset.profiles)
        picks, _, failed = rankers.serve_offline(policy, alphas, field, orders, ledgers, arrays, probs)
    assert failed == {} and field.items.dtype == np.int32
    assert picks.dtype == np.int32 and set(dtypes) <= {np.dtype(np.int32)}
    assert bool(dtypes) == (policy in ("FairCoStar", "EquityRank", "EquityRankV"))
