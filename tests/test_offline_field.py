"""Offline fields: what the builder holds, what it costs, and that offline runs
ranked from them equal runs over the whole catalog bit for bit; and that the
greedy rankers and the provider-head picks equal the pick-by-pick reference
fill on the same tied data."""

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
    ScenarioSpec,
    SimConfig,
    generate_dataset,
    load_dataset,
    offline_rank_user,
    rank_mmf_star,
    rank_poork,
    save_dataset,
    sim,
)
from equityrank.rankers import PolicyPlan, offline_field
from oracles import observed_offline_run, reference_fill, run_offline_reference

OFFLINE_POLICIES = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")


@st.composite
def tied_datasets(draw):
    """Small datasets full of ties, with the list size they are ranked for.

    Relevance takes a few quantised levels, 0.0 among them, so many items of
    a provider share a value and some zeros are stored explicitly. Some
    providers own only 1 to K + 1 items; others own enough for a narrowed
    class. Profiles are sometimes all equal, so providers tie on gains too.
    """
    k = draw(st.integers(1, 6))
    m = draw(st.integers(2, 5))
    sizes = [draw(st.integers(1, k + 1) | st.integers(k + 2, 3 * k + 4)) for _ in range(m)]
    sizes[-1] += max(0, k - sum(sizes))
    groups = draw(st.permutations(np.repeat(np.arange(m), sizes).tolist()))
    n_users = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparsity = draw(st.sampled_from([0.3, 1.0]))
    levels = draw(st.sampled_from([1, 2, 4]))
    entries = [
        (u, i, int(rng.integers(0, levels + 1)) / levels)
        for u in range(n_users)
        for i in range(len(groups))
        if rng.random() < sparsity
    ]
    if draw(st.booleans()):
        profiles = [ProviderProfile(2.0, 5.0, 1.5)] * m
    else:
        profiles = [ProviderProfile(*(float(x) for x in rng.uniform(0.2, 3.0, 3))) for _ in range(m)]
    dataset = Dataset(Catalog.from_assignments(groups, m), tuple(profiles), RelevanceTable(n_users, entries))
    return dataset, k


def field_mask(field, user_count, item_count):
    """The (users x items) bool mask of the items in each user's segment."""
    mask = np.zeros((user_count, item_count), dtype=bool)
    for user in range(user_count):
        mask[user, field.items[field.segment(user)]] = True
    return mask


def reference_field(rel, catalog, k):
    """The field spelled out: stored items, then each provider's first k zeros."""
    field = np.zeros((rel.user_count, catalog.item_count), dtype=bool)
    for user, item, _ in rel.iter_entries():
        field[user, item] = True
    for user in range(rel.user_count):
        for items in catalog.items_of:
            zeros = [int(i) for i in sorted(items) if rel.get(user, int(i)) == 0.0]
            field[user, zeros[:k]] = True
    return field


@settings(max_examples=300, deadline=None)
@given(
    tied_datasets(),
    st.sampled_from(OFFLINE_POLICIES),
    st.sampled_from([0.0, 1e-3, 0.5, 1.0]),
    st.integers(0, 1000),
)
def test_offline_run_from_the_field_matches_the_whole_catalog(case, policy, alpha, seed):
    dataset, k = case
    cfg = SimConfig(list_size=k)
    result, lists, ledger = observed_offline_run(dataset, policy, alpha, seed, cfg)
    want, want_lists, want_ledger = run_offline_reference(dataset, policy, alpha, seed, cfg)
    assert [(rl.user, rl.positions) for rl in lists] == [(rl.user, rl.positions) for rl in want_lists]
    for name in ("exposure_gain", "purchase_gain", "group_exposure"):
        assert getattr(ledger, name).tobytes() == getattr(want_ledger, name).tobytes()
    assert ledger.step_count == want_ledger.step_count
    assert result.deterministic_values() == want.deterministic_values()


@settings(max_examples=200, deadline=None)
@given(tied_datasets(), st.sampled_from(["PoorK", "MMFStar", "EquityRank"]), st.sampled_from([0.0, 1e-3, 0.5, 1.0]), st.data())
def test_greedy_rankers_match_the_reference_fill(case, kind, alpha, data):
    # the public greedy rankers, given their candidates in any order, return
    # the list that tests/oracles.py's pick-by-pick fill builds
    dataset, k = case
    catalog, profiles, rel = dataset.catalog, dataset.profiles, dataset.relevance
    user = data.draw(st.integers(0, rel.user_count - 1))
    candidates = data.draw(st.lists(st.integers(0, catalog.item_count - 1), min_size=k, unique=True))
    ledger = GainLedger.empty(catalog.provider_count)
    gain = st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 10.0)
    ledger.exposure_gain[:] = data.draw(st.lists(gain, min_size=catalog.provider_count, max_size=catalog.provider_count))
    pm = PositionModel.logarithmic(k)
    ids = np.sort(candidates)
    plan = PolicyPlan(PolicyConfig(kind, alpha), ids[None, :], catalog, profiles, slotwise=True)
    want = ids[reference_fill(plan, 0, rel.relevance_of(user, ids), ledger.raw_gains(), pm.probs)]
    if kind == "PoorK":
        got = rank_poork(candidates, user, rel, ledger, catalog, profiles, pm)
    elif kind == "MMFStar":
        got = rank_mmf_star(candidates, user, rel, ledger, catalog, profiles, alpha, pm)
    else:
        got = offline_rank_user(PolicyConfig(kind, alpha), candidates, user, rel, ledger, catalog, profiles, pm)
    assert np.array(got.positions, dtype=np.int64).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(tied_datasets(), st.sampled_from(["PoorK", "MMFStar"]), st.sampled_from([0.0, 1e-3, 0.5, 1.0]), st.data())
def test_head_picks_match_the_reference_pick(case, kind, alpha, data):
    # PoorK and MMF* pick among provider heads, from a row sorted in the
    # plan and from the field's segments, as tests/oracles.py's pick-by-pick
    # fill does over the whole catalog. Some providers own a single item, so
    # they die after one pick; some have a gain-to-target ratio that
    # overflows to +inf, and when every live one does, the worst-off
    # provider is the lowest live id.
    dataset, k = case
    catalog, rel = dataset.catalog, dataset.relevance
    ids, pm = np.arange(catalog.item_count), PositionModel.logarithmic(k)
    m = catalog.provider_count
    overflow = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    gain = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0)
    gains = np.array([1e10 if o else data.draw(gain) for o in overflow])
    profiles = [
        ProviderProfile(p.exposure_value, p.purchase_value, 1e-300 if o else p.gain_target)
        for p, o in zip(dataset.profiles, overflow)
    ]
    plan = PolicyPlan(PolicyConfig(kind, alpha), ids[None, :], catalog, profiles)
    field = offline_field(rel, catalog, k)
    with np.errstate(over="ignore"):
        for user in range(rel.user_count):
            row = rel.relevance_of(user, ids)
            want = reference_fill(plan, 0, row, gains, pm.probs)
            assert plan.rank(0, row, gains, pm.probs) == want
            at = plan.rank_segment(field, user, gains, pm.probs)
            assert field.items[field.segment(user)][at].tolist() == want


@settings(max_examples=100, deadline=None)
@given(tied_datasets())
def test_field_holds_stored_items_and_each_providers_lowest_zeros(case):
    dataset, k = case
    rel, catalog = dataset.relevance, dataset.catalog
    field = offline_field(rel, catalog, k)
    mask = field_mask(field, rel.user_count, catalog.item_count)
    assert np.array_equal(mask, reference_field(rel, catalog, k))
    assert field.indptr[-1] == mask.sum()
    # each segment is in greedy order, with its relevance and providers, and
    # each provider's run of by_provider lists its positions in that order
    for user in range(rel.user_count):
        seg = field.segment(user)
        items, relevance, provider = field.items[seg], field.relevance[seg], field.provider[seg]
        assert relevance.tobytes() == rel.relevance_of(user, items).tobytes()
        assert np.lexsort((items, -relevance)).tolist() == list(range(items.size))
        assert np.array_equal(provider, catalog.group_of[items])
        for g in range(catalog.provider_count):
            run = field.by_provider[seg][field.offsets[user, g] : field.offsets[user, g + 1]]
            assert run.tolist() == np.flatnonzero(provider == g).tolist()


def test_field_keeps_the_k_lowest_ids_of_a_large_zero_class():
    # provider 0 owns items 0, 2, 4, 6, 8; provider 1 owns 1, 3, 5, 7, 9
    catalog = Catalog.from_assignments([0, 1] * 5)
    rel = RelevanceTable(2, [(0, 4, 0.5), (0, 6, 0.0), (1, 9, 1.0)])
    mask = field_mask(offline_field(rel, catalog, 2), 2, 10)
    assert np.flatnonzero(mask[0]).tolist() == [0, 1, 2, 3, 4, 6]
    assert np.flatnonzero(mask[1]).tolist() == [0, 1, 2, 3, 9]


def test_field_rejects_items_beyond_the_catalog():
    catalog = Catalog.from_assignments([0, 1, 0])
    with pytest.raises(ValueError, match="beyond the catalog"):
        offline_field(RelevanceTable(1, [(0, 3, 0.5)]), catalog, 2)


def test_field_build_peak_memory_stays_near_the_mask():
    users, items, per_user = 2000, 5000, 250
    rng = np.random.default_rng(3)
    entries = np.column_stack(
        [
            np.repeat(np.arange(users), per_user),
            rng.integers(0, items, users * per_user),
            rng.random(users * per_user),
        ]
    )
    rel = RelevanceTable(users, entries)
    catalog = Catalog.from_assignments(rng.permutation(np.arange(items) % 40))
    del entries
    tracemalloc.start()
    try:
        field = offline_field(rel, catalog, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.items.dtype == field.provider.dtype == field.by_provider.dtype == field.offsets.dtype == np.int32
    assert peak < 1.5 * sum(array.nbytes for array in field)


def counted_builds(monkeypatch):
    calls = []

    def build(rel, catalog, list_size):
        calls.append(list_size)
        return offline_field(rel, catalog, list_size)

    monkeypatch.setattr(sim, "offline_field", build)
    return calls


def small_dataset():
    rng = np.random.default_rng(7)
    entries = [(u, i, float(rng.random())) for u in range(4) for i in range(30) if rng.random() < 0.2]
    profiles = tuple(ProviderProfile(1.0 + g, 3.0, 1.0 + g / 2) for g in range(3))
    return Dataset(Catalog.from_assignments(np.arange(30) % 3), profiles, RelevanceTable(4, entries))


def test_runs_on_one_dataset_build_its_field_once(monkeypatch):
    calls = counted_builds(monkeypatch)
    dataset = small_dataset()
    sim.run_offline(dataset, "PoorK", 0.0, 0, SimConfig(list_size=3))
    sim.run_offline(dataset, "EquityRankV", 0.5, 1, SimConfig(list_size=3))
    sim.run_offline(dataset, "TopK", 0.0, 2, SimConfig(list_size=3))
    assert calls == [3]
    sim.run_offline(dataset, "MMFStar", 0.5, 0, SimConfig(list_size=4))
    assert calls == [3, 4]
    # an equal dataset is another object, with its own field
    other = Dataset(dataset.catalog, dataset.profiles, dataset.relevance)
    sim.run_offline(other, "TopK", 0.0, 0, SimConfig(list_size=3))
    assert calls == [3, 4, 3]
    assert other == dataset


def test_no_field_is_built_outside_offline_runs(tmp_path):
    spec = GeneratorSpec(n_users=5, n_items=30, n_providers=3, latent_dim=2, sparsity=0.2, seed=4)
    generated = generate_dataset(spec, ScenarioSpec.common())
    save_dataset(generated, tmp_path / "ds")
    dataset = load_dataset(tmp_path / "ds")
    sim.run_online(dataset, "TopK", 0.0, 0, SimConfig(list_size=3, total_steps=20, prefilter_size=5, mode="online"))
    assert generated.derived == {} and dataset.derived == {}
    sim.run_offline(dataset, "TopK", 0.0, 0, SimConfig(list_size=3))
    assert list(dataset.derived) == [("offline_field", 3), ("ideal_dcg", 3, 3)]
