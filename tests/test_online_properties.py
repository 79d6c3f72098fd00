"""Property tests of the online loop's ledger on random small datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import GeneratorSpec, PositionModel, ScenarioSpec, SimConfig, generate_dataset, provider_arrays, sim

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
    """Run ``run_online`` and return its state and every (user, list) it served."""
    make_state, apply_feedback = sim.make_online_state, sim.apply_feedback
    states, served = [], []

    def capture_state(*args, **kwargs):
        states.append(make_state(*args, **kwargs))
        return states[-1]

    def record(ranklist, user, *args, **kwargs):
        served.append((user, ranklist.positions))
        return apply_feedback(ranklist, user, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "make_online_state", capture_state)
        mp.setattr(sim, "apply_feedback", record)
        sim.run_online(dataset, policy, alpha, seed, cfg)
    (state,) = states
    return state, served


@settings(max_examples=60, deadline=None)
@given(online_runs())
def test_online_ledger_conservation(run):
    dataset, policy, alpha, seed, cfg = run
    state, served = observed_run(dataset, policy, alpha, seed, cfg)
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
