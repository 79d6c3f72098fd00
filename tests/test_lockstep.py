"""Offline EquityRank and EquityRankV runs in lockstep (``sim.run_offline_batch``):
each run of a batch gives the result and the ledger that ``run_offline`` and the
whole-catalog reference give it alone, and a run whose scores overflow fails
alone, with ``run_offline``'s message, while the rest of its batch goes on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import GeneratorSpec, PolicyConfig, ProviderProfile, RunResult, ScenarioSpec, SimConfig, generate_dataset, sim
from equityrank.rankers import PolicyPlan
from oracles import run_offline_reference, tied_datasets

LEDGER_ARRAYS = ("exposure_gain", "purchase_gain", "group_exposure")
# alpha b overflows once the scaled gradient passes about 1.8
OVERFLOW = 1e308


def batch_with_ledgers(dataset, policy, runs, cfg):
    """``run_offline_batch``'s outcomes, and the ledger each result was computed from, by (alpha, seed)."""
    ledgers, result = {}, sim._result

    def capture(mode, policy, alpha, seed, effectiveness, ledger, profiles, wall):
        ledgers[alpha, seed] = ledger
        return result(mode, policy, alpha, seed, effectiveness, ledger, profiles, wall)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_result", capture)
        outcomes = sim.run_offline_batch(dataset, policy, runs, cfg)
    return outcomes, ledgers


def run_alone(dataset, policy, alpha, seed, cfg):
    try:
        return sim.run_offline(dataset, policy, alpha, seed, cfg)
    except ValueError as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_lockstep_scores_are_each_runs_own_scores_bit_for_bit(m, runs, length, seed):
    # G.y rounds differently as (R x m) @ y than as each row's own dot, in some rows
    rng = np.random.default_rng(seed)
    profiles = [ProviderProfile(*(float(x) for x in rng.uniform(0.2, 100.0, 3))) for _ in range(m)]
    plan = PolicyPlan(PolicyConfig("EquityRank", 1.0), profiles)
    gains = rng.random((runs, m)) * 10.0 ** rng.integers(-3, 6, (runs, 1))
    rel, provider = rng.random((runs, length)), rng.integers(0, m, (runs, length))
    alpha = 10.0 ** rng.integers(-8, 2, runs)
    weight = rel * plan.vb[provider] + plan.ve[provider]
    flat = provider + m * np.arange(runs)[:, None]
    got = plan._equity(rel, flat, plan.targets, weight, gains, alpha[:, None])
    for r in range(runs):
        alone = PolicyPlan(PolicyConfig("EquityRank", float(alpha[r])), profiles)
        want = alone._equity(rel[r], provider[r], plan.targets[provider[r]], weight[r], gains[r].copy())
        assert got[r].tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(tied_datasets(), st.sampled_from(["EquityRank", "EquityRankV"]), st.data())
def test_each_batched_run_equals_its_run_alone_and_the_reference(case, policy, data):
    dataset, k = case
    cfg = SimConfig(list_size=k)
    alpha = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0, OVERFLOW])
    runs = data.draw(st.lists(st.tuples(alpha, st.integers(0, 50)), min_size=1, max_size=8, unique=True))
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes, ledgers = batch_with_ledgers(dataset, policy, runs, cfg)
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
            ledger = ledgers[alpha, seed]
            for name in LEDGER_ARRAYS:
                assert getattr(ledger, name).tobytes() == getattr(reference_ledger, name).tobytes()
            assert ledger.step_count == reference_ledger.step_count


@pytest.mark.parametrize("policy", ["EquityRank", "EquityRankV"])
def test_an_overflowing_run_fails_alone_and_its_batch_goes_on(policy):
    spec = GeneratorSpec(n_users=30, n_items=60, n_providers=5, latent_dim=4, sparsity=0.2, seed=7)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    cfg = SimConfig(list_size=3)
    runs = [(1e-3, 0), (OVERFLOW, 0), (0.0, 1), (0.5, 1), (0.1, 2)]
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = sim.run_offline_batch(dataset, policy, runs, cfg)
        with pytest.raises(ValueError, match="^scores must be finite$"):
            sim.run_offline(dataset, policy, OVERFLOW, 0, cfg)
    assert isinstance(outcomes[1], ValueError) and str(outcomes[1]) == "scores must be finite"
    results = [outcome for i, outcome in enumerate(outcomes) if i != 1]
    for (alpha, seed), got in zip([run for i, run in enumerate(runs) if i != 1], results):
        assert got.deterministic_values() == sim.run_offline(dataset, policy, alpha, seed, cfg).deterministic_values()
    # a batched run's wall time is the batch's, shared evenly
    assert len({result.wall_time for result in results}) == 1


def test_only_the_gradient_policies_run_in_lockstep():
    spec = GeneratorSpec(n_users=4, n_items=10, n_providers=2, latent_dim=2, sparsity=0.5, seed=1)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    with pytest.raises(ValueError, match="EquityRank or EquityRankV"):
        sim.run_offline_batch(dataset, "FairCoStar", [(0.1, 0)], SimConfig(list_size=2))
