"""Domain types and the position-bias examination model."""

import math
import pickle
import re
import warnings

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
    generate_dataset,
    load_dataset,
    rank_poork,
    run_offline,
    run_online,
    save_dataset,
)
from equityrank.sim import OnlineState


class TestExaminationProb:
    """The logarithmic position model's examination probabilities."""

    def test_top_position_is_certain(self):
        assert PositionModel.logarithmic(5).probs[0] == 1.0

    def test_position_four(self):
        # 1 / (log2(4) + 1) = 1/3
        assert PositionModel.logarithmic(5).probs[3] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_formula(self):
        pm = PositionModel.logarithmic(10)
        for k in range(1, 11):
            assert pm.probs[k - 1] == pytest.approx(1.0 / (math.log2(k) + 1.0), rel=1e-15)


class TestPositionModel:
    def test_rejects_top_probability_below_one(self):
        with pytest.raises(ValueError):
            PositionModel(list_size=2, probs=np.array([0.9, 0.5]))

    def test_rejects_nondecreasing(self):
        with pytest.raises(ValueError):
            PositionModel(list_size=3, probs=np.array([1.0, 0.5, 0.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PositionModel(list_size=2, probs=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("probs", [[1.0, 0.6, np.nan], [1.0, np.nan, 0.5], [np.nan, 0.6, 0.5]])
    def test_rejects_nan(self, probs):
        # every comparison with NaN is false, so each check is written to fail on it
        with pytest.raises(ValueError):
            PositionModel(3, np.array(probs))

    def test_takes_any_array_like(self):
        pm = PositionModel(3, [1.0, 0.6, 0.5])
        assert pm.probs.dtype == np.float64 and pm.probs.tolist() == [1.0, 0.6, 0.5]
        assert PositionModel(2, (1, 0.5)).probs.tolist() == [1.0, 0.5]

    def test_names_a_list_size_that_is_not_a_whole_number(self):
        with pytest.raises(ValueError, match="list size 2.5 is not a whole number"):
            PositionModel(2.5, [1.0, 0.5])
        pm = PositionModel(2.0, [1.0, 0.5])
        assert pm.list_size == 2 and type(pm.list_size) is int

    def test_holds_a_read_only_copy(self):
        given = np.array([1.0, 0.6, 0.5])
        pm = PositionModel(3, given)
        given[1] = 7.0
        assert pm.probs.tolist() == [1.0, 0.6, 0.5]
        with pytest.raises(ValueError):
            pm.probs[1] = 0.7
        assert not PositionModel.logarithmic(4).probs.flags.writeable


class TestCatalog:
    def test_partition_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(m, 60))
            # force every provider to own at least one item
            groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
            rng.shuffle(groups)
            cat = Catalog.from_assignments(groups)
            assert cat.item_count == n and cat.provider_count == m
            assert "items_of" not in vars(cat)  # built on first read
            for g in range(m):
                # provider g's ids ascending, as int64
                assert cat.items_of[g].dtype == np.int64
                np.testing.assert_array_equal(cat.items_of[g], np.flatnonzero(cat.group_of == g))
            np.testing.assert_array_equal(cat.group_sizes, [items.size for items in cat.items_of])

    def test_rejects_empty_provider(self):
        with pytest.raises(ValueError, match="provider 1 owns no items"):
            Catalog.from_assignments([0, 0, 2, 3, 2], provider_count=5)

    def test_rejects_unknown_provider(self):
        with pytest.raises(ValueError):
            Catalog.from_assignments([0, 5], provider_count=2)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_rejects_provider_ids_that_are_not_integer_typed(self, dtype):
        # whole-valued floats would pass every range check, and then fail as a
        # tuple index mid-way through an online run
        with pytest.raises(ValueError, match="integer provider ids"):
            Catalog(np.array([0, 1, 1], dtype=dtype), 2)
        assert Catalog(np.array([0, 1, 1], dtype=np.int32), 2).provider_count == 2
        assert Catalog(np.array([0, 1, 1], dtype=np.uint64), 2).group_sizes.tolist() == [1, 2]

    def test_compares_by_value(self, tmp_path):
        catalog = Catalog.from_assignments([0, 1, 1])
        assert catalog == Catalog.from_assignments(np.array([0, 1, 1], dtype=np.int32))
        assert catalog != Catalog.from_assignments([1, 0, 1])
        assert catalog != Catalog.from_assignments([0, 1, 2])  # three providers
        # two loads of one directory hold equal, distinct catalogs
        save_dataset(generate_dataset(GeneratorSpec(n_users=4, n_items=12, n_providers=3), ScenarioSpec.common()), tmp_path)
        first, second = load_dataset(tmp_path), load_dataset(tmp_path)
        assert first.catalog is not second.catalog
        assert first == second

    def test_constructor_takes_any_array_like(self):
        # a list reaches the same checks as an array, and fails them with ValueError
        catalog = Catalog([0, 1, 1], 2)
        assert catalog == Catalog.from_assignments([0, 1, 1], 2)
        assert catalog.group_of.dtype == np.int64
        with pytest.raises(ValueError, match="integer provider ids"):
            Catalog([0.0, 1.0], 2)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            Catalog([], 1)

    def test_holds_a_read_only_copy(self):
        given = np.array([0, 1, 1, 0])
        catalog = Catalog(given, 2)
        given[0] = 5
        assert catalog.group_of.tolist() == [0, 1, 1, 0]
        assert catalog.group_sizes.tolist() == [2, 2]
        with pytest.raises(ValueError):
            catalog.group_of[0] = 1

    def test_items_of_is_built_only_when_read(self):
        dataset = generate_dataset(GeneratorSpec(n_users=6, n_items=20, n_providers=4), ScenarioSpec.common())
        run_offline(dataset, "MMFStar", 0.5, 0, SimConfig(list_size=3))
        run_online(dataset, "PoorK", 0.0, 0, SimConfig(list_size=3, total_steps=20, mode="online"))
        catalog = dataset.catalog
        assert "items_of" not in vars(catalog)
        copy = pickle.loads(pickle.dumps(catalog))  # as a worker receives it
        assert copy == catalog and "items_of" not in vars(copy)
        assert [items.tolist() for items in catalog.items_of] == [items.tolist() for items in copy.items_of]


class TestProviderProfile:
    def test_accepts_zero_gain_weights(self):
        p = ProviderProfile(exposure_value=0.0, purchase_value=0.0, gain_target=1.0)
        assert p.exposure_value == 0.0

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            ProviderProfile(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ProviderProfile(1.0, 1.0, -2.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ProviderProfile(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_weights_and_target(self, bad):
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                ProviderProfile(*args)

    def test_rejects_an_int_beyond_every_float_as_not_finite(self):
        for args in ((10**400, 1, 1), (1, -(10**400), 1), (1, 1, 10**400)):
            with pytest.raises(ValueError, match="^gain weights and gain_target must be finite$"):
                ProviderProfile(*args)

    @pytest.mark.parametrize("kind", [int, np.int64, np.float32, np.float64, float])
    def test_holds_its_weights_as_python_floats(self, kind):
        # the one form of the weights: the float64 values provider_arrays stacks
        weights = (kind(3), kind(7), kind(2))
        p = ProviderProfile(*weights)
        assert [type(v) for v in (p.exposure_value, p.purchase_value, p.gain_target)] == [float] * 3
        assert (p.exposure_value, p.purchase_value, p.gain_target) == (3.0, 7.0, 2.0)
        weight = np.float32(14.204564094543457)  # not a float64 value with few digits
        assert ProviderProfile(weight, weight, weight).gain_target.hex() == float(weight).hex()


@pytest.mark.parametrize(
    "make, bad",
    [
        (lambda: RelevanceTable(2, [(0.5, 1.7, 0.3)]), "user id 0.5"),
        (lambda: RelevanceTable(2, [(1, 1.7, 0.3)]), "item id 1.7"),
        (lambda: Catalog.from_assignments([0.5, 1.0, 1.2]), "provider id 0.5"),
        (lambda: Catalog.from_assignments(np.array([0.0, 1.0, np.inf])), "provider id inf"),
        (lambda: Catalog.from_assignments([0, 1, 1], 2.9), "provider count 2.9"),
        (
            lambda: rank_poork(
                [0.7, 1.2, 2.9],
                0,
                RelevanceTable(1, []),
                GainLedger.empty(2),
                Catalog.from_assignments([0, 1, 0, 1]),
                [ProviderProfile(1.0, 1.0, 1.0)] * 2,
                PositionModel.logarithmic(2),
            ),
            "item id 0.7",
        ),
        (lambda: RankList((0.6, 1.2), 0), "item id 0.6"),
        (lambda: RankList((1, 2), 0.5), "user id 0.5"),
    ],
    ids=["table-user", "table-item", "catalog", "catalog-inf", "catalog-count", "ranker", "ranklist-item", "ranklist-user"],
)
def test_ids_at_the_id_level_boundary_must_be_whole_numbers(make, bad):
    # a fractional id used to be truncated toward zero without an error
    with pytest.raises(ValueError, match=f"{bad} .*not a whole number"):
        make()


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: SimConfig(list_size=10**400), "list_size"),
        (lambda: SimConfig(total_steps=10**400), "total_steps"),
        (lambda: PositionModel(10**400, [1.0]), "list size"),
        (lambda: RankList((10**400,), 0), "item id"),
        (lambda: RankList((0,), 10**400), "user id"),
        (lambda: Catalog.from_assignments([0, 10**400]), "provider id"),
    ],
    ids=["sim-list-size", "sim-total-steps", "position-model", "ranklist-item", "ranklist-user", "catalog"],
)
def test_a_whole_number_beyond_every_float_is_refused_by_name(make, field):
    # it used to escape as an OverflowError
    with pytest.raises(ValueError, match=f"^{field} is too large, beyond every float$"):
        make()


BEYOND_INT64 = "lies beyond the 64-bit integer range"


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: RelevanceTable(2, [(0, 1e20, 0.5)]), "item id 1e+20 out of range or not a whole number"),
        (lambda: RelevanceTable(2, [(0, 2.0**63, 0.5)]), "item id 9.22337e+18 out of range or not a whole number"),
        (lambda: RelevanceTable(2, [(0, 10**400, 0.5)]), "a relevance entry is too large, beyond every float"),
        (lambda: Catalog.from_assignments([0, 10**20]), f"provider id 1e+20 {BEYOND_INT64}"),
        (lambda: Catalog.from_assignments([0, 1e20]), f"provider id 1e+20 {BEYOND_INT64}"),
        (lambda: Catalog.from_assignments(np.array([0.0, 2.0**63])), f"provider id 9.22337e+18 {BEYOND_INT64}"),
        (lambda: Catalog.from_assignments(np.array([0, 2**63], dtype=np.uint64)), f"provider id 9.22337e+18 {BEYOND_INT64}"),
        (lambda: Catalog.from_assignments([0, -(2**63) - 1]), f"provider id -9.22337e+18 {BEYOND_INT64}"),
        # -2**63 fits, though it reads as the same float as -2**63 - 1
        (lambda: Catalog.from_assignments([-(2**63), 2**64]), f"provider id 1.84467e+19 {BEYOND_INT64}"),
        (lambda: OnlineState(GainLedger.empty(2), [[0, 2**63]], np.random.default_rng(0)), f"item id 9.22337e+18 {BEYOND_INT64}"),
    ],
    ids=["table-float", "table-2**63", "table-beyond-floats", "catalog-int", "catalog-float", "catalog-array",
         "catalog-uint64", "catalog-negative", "catalog-int64-min", "online-state"],
)
def test_an_id_at_or_beyond_2_to_the_63_is_refused_by_name(make, message):
    # it used to wrap to -2**63 with only a numpy RuntimeWarning, or escape as an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_the_largest_int64_id_is_taken_exactly():
    # 2**63 - 1 reads as the float 2**63, yet it fits in int64
    state = OnlineState(GainLedger.empty(2), [[2**63 - 1, 0]], np.random.default_rng(0))
    assert state.candidate_sets.tolist() == [[0, 2**63 - 1]]


def test_whole_number_ids_given_as_floats_are_taken():
    assert RelevanceTable(2, [(1.0, 2.0, 0.3)]).get(1, 2) == 0.3
    assert Catalog.from_assignments([0.0, 1.0, 1.0]).group_of.tolist() == [0, 1, 1]
    rl = RankList((2.0, np.int64(0)), np.float64(1.0))
    assert (rl.positions, rl.user) == ((2, 0), 1) and type(rl.user) is int


class TestRankList:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RankList((1, 2, 1), user=0)

    def test_rejects_duplicates_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            items = rng.integers(0, 10, size=6).tolist()
            if len(set(items)) == len(items):
                items[-1] = items[0]
            with pytest.raises(ValueError):
                RankList(tuple(items), user=0)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="negative"):
            RankList((-1, 0), user=0)


class TestRelevanceTable:
    def test_absent_pairs_read_zero(self):
        table = RelevanceTable(2, [(0, 3, 0.7)])
        assert table.get(0, 3) == 0.7
        assert table.get(0, 4) == 0.0
        assert table.get(1, 3) == 0.0

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            RelevanceTable(1, [(0, 0, 1.2)])
        with pytest.raises(ValueError):
            RelevanceTable(1, [(0, 0, -0.1)])

    def test_vector_lookup(self):
        table = RelevanceTable(1, [(0, 0, 0.2), (0, 2, 0.9)])
        got = table.relevance_of(0, np.array([0, 1, 2]))
        np.testing.assert_allclose(got, [0.2, 0.0, 0.9])

    def test_dense_row_and_sorted_values(self):
        table = RelevanceTable(1, [(0, 1, 0.3), (0, 4, 0.8)])
        np.testing.assert_allclose(table.dense_row(0, 6), [0, 0.3, 0, 0, 0.8, 0])
        np.testing.assert_allclose(table.user_values(0), [0.8, 0.3])

    def test_item_mean_relevance(self):
        table = RelevanceTable(2, [(0, 0, 0.4), (1, 0, 0.8), (0, 1, 1.0)])
        np.testing.assert_allclose(table.item_mean_relevance(2), [0.6, 0.5])

    def test_errors_name_the_first_bad_entry(self):
        with pytest.raises(ValueError, match="user id 3 out of range"):
            RelevanceTable(2, [(0, 0, 0.5), (3, 0, 0.5), (-1, 0, 0.5)])
        with pytest.raises(ValueError, match="item id -2 out of range"):
            RelevanceTable(2, [(0, 0, 0.5), (1, -2, 0.5), (1, -5, 0.5)])
        with pytest.raises(ValueError, match="user id nan out of range"):
            RelevanceTable(2, [(0, 0, 0.5), (float("nan"), 0, 0.5)])
        with pytest.raises(ValueError, match="item id inf out of range"):
            RelevanceTable(2, [(0, float("inf"), 0.5)])
        with pytest.raises(ValueError, match=r"relevance nan outside \[0, 1\]"):
            RelevanceTable(2, [(0, 0, 0.5), (1, 1, float("nan")), (1, 2, 2.0)])

    def test_rejects_entries_that_are_not_triples(self):
        with pytest.raises(ValueError, match="triples"):
            RelevanceTable(2, [(0, 1), (0, 2), (1, 3)])

    def test_repeated_pair_keeps_last_value(self):
        table = RelevanceTable(1, [(0, 2, 0.1), (0, 1, 0.4), (0, 2, 0.9)])
        assert table.get(0, 2) == 0.9
        assert list(table.iter_entries()) == [(0, 1, 0.4), (0, 2, 0.9)]

    def test_unknown_user_raises(self):
        table = RelevanceTable(1, [(0, 0, 0.5)])
        with pytest.raises(ValueError, match="user id 1 out of range"):
            table.relevance_of(1, np.array([0]))
        with pytest.raises(ValueError, match="user id -1 out of range"):
            table.get(-1, 0)
