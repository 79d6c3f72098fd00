"""The online rows a dataset object keeps per seed: runs that share them
equal runs on a fresh dataset, a run that finds them draws no prefilter, and
nothing a caller does to a state, nor a seed that is not an integer, reaches
them."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import GeneratorSpec, RelevanceTable, ScenarioSpec, SimConfig, generate_dataset, sim
from equityrank.synth import Dataset

ONLINE_POLICIES = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank")


def fresh(dataset):
    """The same data as ``dataset`` in a new object, with nothing derived."""
    return Dataset(dataset.catalog, dataset.profiles, dataset.relevance, dataset.labels)


def outputs(result, trace):
    """A run's outputs as exact strings and bytes; the seed is left out, a ``Generator``'s repr differing."""
    values = result.deterministic_values()
    return values[:3] + values[4:], repr(trace.checkpoints), trace.ndcg_series.tobytes()


def state_of(state):
    return state.candidate_sets.tobytes(), state.candidate_sets.shape, repr(state.rng.bit_generator.state)


def small_dataset(seed=3, n_users=4, n_items=12):
    spec = GeneratorSpec(n_users=n_users, n_items=n_items, n_providers=3, latent_dim=2, sparsity=0.5, seed=seed)
    return generate_dataset(spec, ScenarioSpec.common())


def online_cfg(**overrides):
    return SimConfig(**{**dict(list_size=2, total_steps=30, prefilter_size=5, checkpoint_every=7, mode="online", record_ndcg=True), **overrides})


@st.composite
def shared_sequences(draw):
    n_items = draw(st.integers(5, 14))
    dataset = small_dataset(draw(st.integers(0, 2**16)), draw(st.integers(1, 5)), n_items)
    steps = []
    for _ in range(draw(st.integers(2, 7))):
        cfg = SimConfig(
            list_size=2,
            total_steps=draw(st.integers(0, 40)),
            # beyond the catalog too: the kept rows' key holds the capped size
            prefilter_size=draw(st.integers(2, n_items + 2)),
            prefilter_noise=draw(st.sampled_from([0.0, 0.1, 1.0])),
            checkpoint_every=draw(st.integers(1, 15)),
            mode="online",
            record_ndcg=True,
        )
        kind = draw(st.sampled_from(["run", "state"]))
        steps.append((kind, draw(st.sampled_from(ONLINE_POLICIES)), draw(st.sampled_from([0.0, 0.01, 0.5])), draw(st.integers(0, 3)), cfg))
    return dataset, steps


@settings(max_examples=60, deadline=None)
@given(shared_sequences())
def test_runs_sharing_a_dataset_equal_runs_on_a_fresh_one(case):
    dataset, steps = case
    for kind, policy, alpha, seed, cfg in steps:
        if kind == "run":
            got = sim.run_online(dataset, policy, alpha, seed, cfg)
            want = sim.run_online(fresh(dataset), policy, alpha, seed, cfg)
            assert outputs(*got) == outputs(*want)
        else:
            got = sim.make_online_state(dataset, seed, cfg)
            want = sim.make_online_state(fresh(dataset), seed, cfg)
            assert state_of(got) == state_of(want)
            assert got.candidate_sets.flags.writeable


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` from now on."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_run_that_finds_its_seeds_rows_draws_no_prefilter_and_reads_no_truth(monkeypatch):
    dataset, cfg = small_dataset(), online_cfg()
    prefilters = counting(monkeypatch, sim, "prefilter_candidates")
    reads = counting(monkeypatch, RelevanceTable, "relevance_of")
    users = dataset.relevance.user_count
    first = sim.run_online(dataset, "EquityRank", 0.01, 5, cfg)
    assert (len(prefilters), len(reads)) == (users, users)
    for policy, alpha in (("EquityRank", 0.01), ("TopK", 0.0), ("MMFStar", 0.5)):
        prefilters.clear(), reads.clear()
        got = sim.run_online(dataset, policy, alpha, 5, cfg)
        assert (len(prefilters), len(reads)) == (0, 0)
        if policy == "EquityRank":
            assert outputs(*got) == outputs(*first)
    # another seed, size or noise builds its rows, and the kept ones are its
    for other in ((6, cfg), (5, online_cfg(prefilter_size=6)), (5, online_cfg(prefilter_noise=0.2))):
        prefilters.clear()
        sim.run_online(dataset, "TopK", 0.0, *other)
        assert len(prefilters) == users
    assert dataset.derived["online_rows"].key == (5, 5, 0.2)


def test_a_size_beyond_the_catalog_shares_the_rows_of_the_catalog_size(monkeypatch):
    dataset = small_dataset(n_items=8)
    sim.make_online_state(dataset, 1, online_cfg(prefilter_size=8))
    prefilters = counting(monkeypatch, sim, "prefilter_candidates")
    sim.make_online_state(dataset, 1, online_cfg(prefilter_size=30))
    assert prefilters == []


def test_writing_a_states_arrays_changes_no_later_run():
    dataset, cfg = small_dataset(), online_cfg()
    want = outputs(*sim.run_online(fresh(dataset), "FairCoStar", 0.5, 2, cfg))
    state = sim.make_online_state(dataset, 2, cfg)
    state.candidate_sets[:] = state.candidate_sets[:, ::-1]
    for a in (state.exposure, state.purchases, state.estimate):
        a[:] = 3
    state.rng.random(17)
    assert outputs(*sim.run_online(dataset, "FairCoStar", 0.5, 2, cfg)) == want
    kept = dataset.derived["online_rows"]
    for a in (kept.candidate_sets, kept.relevance, kept.providers):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


@pytest.mark.parametrize("make_seed", [np.random.default_rng, np.random.SeedSequence, lambda s: np.array([s])])
def test_a_seed_that_is_not_an_integer_is_never_kept(monkeypatch, make_seed):
    dataset, cfg = small_dataset(), online_cfg()
    sim.run_online(dataset, "TopK", 0.0, 5, cfg)  # kept rows of another seed, which the runs below must not read
    kept = dataset.derived["online_rows"]
    prefilters = counting(monkeypatch, sim, "prefilter_candidates")
    for _ in range(2):
        got = sim.run_online(dataset, "TopK", 0.0, make_seed(4), cfg)
        assert dataset.derived["online_rows"] is kept
    # each run drew its own prefilter, and a Generator seed was not rewound
    assert len(prefilters) == 2 * dataset.relevance.user_count
    assert outputs(*got) == outputs(*sim.run_online(fresh(dataset), "TopK", 0.0, make_seed(4), cfg))


def test_a_generator_seed_goes_on_from_where_its_run_left_it():
    dataset, cfg = small_dataset(), online_cfg()
    rng, again = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(2):
        got = sim.run_online(dataset, "EquityRank", 0.01, rng, cfg)
        want = sim.run_online(fresh(dataset), "EquityRank", 0.01, again, cfg)
        assert outputs(*got) == outputs(*want)
    assert rng.bit_generator.state == again.bit_generator.state
    assert "online_rows" not in dataset.derived


def test_threads_sharing_a_dataset_run_as_runs_alone():
    # threads replace the kept rows under each other; each run still equals
    # its run on a fresh dataset
    dataset, cfg = small_dataset(n_users=5), online_cfg(total_steps=20)
    runs = [(policy, seed) for policy in ("TopK", "EquityRank", "MMFStar") for seed in range(4)]
    want = {run: outputs(*sim.run_online(fresh(dataset), run[0], 0.5, run[1], cfg)) for run in runs}
    got, errors = {}, []

    def serve(offset):
        try:
            for _ in range(3):
                for run in runs[offset:] + runs[:offset]:
                    assert outputs(*sim.run_online(dataset, run[0], 0.5, run[1], cfg)) == want[run], run
                    got[run] = True
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(got) == len(runs)
