"""Property tests of the offline loop's ledger on random small datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import GeneratorSpec, PositionModel, ScenarioSpec, SimConfig, expected_gain, generate_dataset
from oracles import observed_offline_run

OFFLINE_POLICIES = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")


@st.composite
def offline_runs(draw):
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
    cfg = SimConfig(list_size=draw(st.integers(1, min(4, n_items))))
    policy = draw(st.sampled_from(OFFLINE_POLICIES))
    alpha = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0]))
    return generate_dataset(spec, ScenarioSpec.common()), policy, alpha, draw(st.integers(0, 1000)), cfg


@settings(max_examples=80, deadline=None)
@given(offline_runs())
def test_offline_ledger_conservation(run):
    dataset, policy, alpha, seed, cfg = run
    _, served, ledger = observed_offline_run(dataset, policy, alpha, seed, cfg)
    catalog, profiles, rel = dataset.catalog, dataset.profiles, dataset.relevance
    users, pm = rel.user_count, PositionModel.logarithmic(cfg.list_size)

    assert ledger.step_count == users == len(served)
    assert sorted(rl.user for rl in served) == list(range(users))
    assert ledger.group_exposure.sum() == pytest.approx(users * pm.probs.sum(), rel=1e-12, abs=0)

    for g, profile in enumerate(profiles):
        want = sum(expected_gain(g, rl, rl.user, catalog, profile, rel, pm) for rl in served)
        assert ledger.raw_gains()[g] == pytest.approx(want, rel=1e-12, abs=0)
        want_exposure = profile.exposure_value * ledger.group_exposure[g]
        assert ledger.exposure_gain[g] == pytest.approx(want_exposure, rel=1e-12, abs=0)

    for rl in served:
        assert len(rl.positions) == cfg.list_size
        assert np.all(np.asarray(rl.positions) < catalog.item_count)
