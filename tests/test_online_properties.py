"""Property tests of the online loop on random small datasets: its ledger,
its agreement with the per-request reference loop, and the alpha = 0
collapse of the fairness policies to TopK."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import GeneratorSpec, PositionModel, ScenarioSpec, SimConfig, generate_dataset, provider_arrays, sim
from oracles import run_online_reference

ONLINE_POLICIES = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank")


@st.composite
def online_runs(draw):
    n_providers = draw(st.integers(2, 4))
    n_items = draw(st.integers(n_providers + 1, 12))
    spec = GeneratorSpec(
        n_users=draw(st.integers(1, 5)),
        n_items=n_items,
        n_providers=n_providers,
        latent_dim=2,
        sparsity=draw(st.sampled_from([0.3, 1.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    list_size = draw(st.integers(1, min(4, n_items)))
    cfg = SimConfig(
        list_size=list_size,
        total_steps=draw(st.integers(0, 60)),
        prefilter_size=draw(st.integers(list_size, n_items)),
        checkpoint_every=7,
        mode="online",
    )
    policy = draw(st.sampled_from(ONLINE_POLICIES))
    alpha = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0]))
    return generate_dataset(spec, ScenarioSpec.common()), policy, alpha, draw(st.integers(0, 1000)), cfg


def observed_run(dataset, policy, alpha, seed, cfg):
    """Run ``run_online``; return its result, trace, state and every (user, list) it served."""
    make_state, feedback = sim._online_state, sim._feedback
    states, served = [], []

    def capture_state(*args, **kwargs):
        states.append(make_state(*args, **kwargs))
        return states[-1]

    def record(state, views, user, slots, *args):
        served.append((user, tuple(state.candidate_sets[user][slots].tolist())))
        return feedback(state, views, user, slots, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_online_state", capture_state)  # the state builder run_online calls
        mp.setattr(sim, "_feedback", record)  # the feedback of each list the run serves
        result, trace = sim.run_online(dataset, policy, alpha, seed, cfg)
    (state,) = states
    return result, trace, state, served


@settings(max_examples=60, deadline=None)
@given(online_runs())
def test_online_ledger_conservation(run):
    dataset, policy, alpha, seed, cfg = run
    _, _, state, served = observed_run(dataset, policy, alpha, seed, cfg)
    ledger, steps, k = state.ledger, cfg.total_steps, cfg.list_size

    assert ledger.step_count == steps == len(served)
    mass = steps * PositionModel.logarithmic(k).probs.sum()
    assert state.exposure.sum() == pytest.approx(mass, rel=1e-12, abs=0)
    assert ledger.group_exposure.sum() == pytest.approx(mass, rel=1e-12, abs=0)

    _, vb, _ = provider_arrays(dataset.profiles)
    groups = dataset.catalog.group_of[state.candidate_sets].ravel()
    purchases = np.bincount(groups, weights=state.purchases.ravel(), minlength=vb.size)
    np.testing.assert_allclose(purchases * vb, ledger.purchase_gain, rtol=1e-12, atol=0)

    for user, items in served:
        assert len(items) == k and len(set(items)) == k
        assert set(items) <= set(state.candidate_sets[user].tolist())


@st.composite
def many_provider_runs(draw, policies=ONLINE_POLICIES):
    """Small online runs with up to 50 providers, so a list's candidates span
    many providers, and with sparse (many relevances tied at 0) or dense data."""
    n_providers = draw(st.integers(2, 50))
    n_items = draw(st.integers(n_providers + 1, n_providers + 40))
    spec = GeneratorSpec(
        n_users=draw(st.integers(1, 6)),
        n_items=n_items,
        n_providers=n_providers,
        latent_dim=2,
        sparsity=draw(st.sampled_from([0.3, 1.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    list_size = draw(st.integers(1, min(5, n_items)))
    cfg = SimConfig(
        list_size=list_size,
        total_steps=draw(st.integers(0, 80)),
        prefilter_size=draw(st.integers(list_size, n_items)),
        checkpoint_every=draw(st.integers(1, 20)),
        mode="online",
        record_ndcg=True,
    )
    policy = draw(st.sampled_from(policies))
    alpha = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0]))
    return generate_dataset(spec, ScenarioSpec.common()), policy, alpha, draw(st.integers(0, 1000)), cfg


def fingerprint(result, trace, state):
    """Every output and final state of an online run as exact strings and
    bytes, leaving out the policy name and alpha."""
    ledger = state.ledger
    arrays = (ledger.exposure_gain, ledger.purchase_gain, ledger.group_exposure, state.exposure, state.purchases)
    return (
        result.deterministic_values()[3:],
        repr(trace.checkpoints),
        trace.ndcg_series.tobytes(),
        ledger.step_count,
        *(a.tobytes() for a in arrays),
        repr(state.rng.bit_generator.state),
    )


@settings(max_examples=60, deadline=None)
@given(many_provider_runs())
def test_slot_plan_run_matches_per_request_reference(run):
    dataset, policy, alpha, seed, cfg = run
    result, trace, state, _ = observed_run(dataset, policy, alpha, seed, cfg)
    want_result, want_trace, want_state = run_online_reference(dataset, policy, alpha, seed, cfg)

    assert result.deterministic_values() == want_result.deterministic_values()
    assert fingerprint(result, trace, state) == fingerprint(want_result, want_trace, want_state)
    # the kept estimate row and gains equal what the counters and ledger give
    for user, row in enumerate(state.candidate_sets):
        assert state.estimate[user].tobytes() == state.relevance_of(user, row).tobytes()
    assert state.gains.tobytes() == state.ledger.raw_gains().tobytes()


@settings(max_examples=30, deadline=None)
@given(many_provider_runs(policies=("TopK",)))
def test_alpha_zero_policies_run_as_topk(run):
    dataset, _, _, seed, cfg = run
    *topk, topk_served = observed_run(dataset, "TopK", 0.0, seed, cfg)
    for policy in ("EquityRank", "FairCoStar", "MMFStar"):
        *got, served = observed_run(dataset, policy, 0.0, seed, cfg)
        assert served == topk_served, policy
        assert fingerprint(*got) == fingerprint(*topk), policy


@pytest.mark.parametrize("policy, alpha", [("EquityRank", 0.01), ("MMFStar", 0.5)])
def test_run_across_draw_blocks_matches_per_request_reference(policy, alpha):
    """2 B + 3 steps cross two block boundaries of ``sim.step_draws`` and end
    inside a third block, with the generator's final state compared too."""
    spec = GeneratorSpec(n_users=7, n_items=30, n_providers=4, latent_dim=2, sparsity=0.5, seed=3)
    dataset = generate_dataset(spec, ScenarioSpec.common())
    steps = 2 * sim.DRAW_BLOCK + 3
    cfg = SimConfig(list_size=3, total_steps=steps, prefilter_size=8, checkpoint_every=100, mode="online", record_ndcg=True)
    result, trace, state, served = observed_run(dataset, policy, alpha, 4, cfg)
    want = run_online_reference(dataset, policy, alpha, 4, cfg)

    assert len(served) == steps
    assert result.deterministic_values() == want[0].deterministic_values()
    assert fingerprint(result, trace, state) == fingerprint(*want)
