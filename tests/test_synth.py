"""Synthetic generation: scenario sampling, latent relevance, dataset I/O."""

import csv
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import (
    Catalog,
    DatasetError,
    GeneratorSpec,
    ScenarioSpec,
    assign_groups,
    generate_dataset,
    generate_relevance,
    load_dataset,
    sample_profiles,
    save_dataset,
)
from equityrank import synth
from equityrank.core import ProviderProfile, RelevanceTable
from equityrank.synth import BLOCK_ROWS, Dataset, DatasetLabels, _iter_rows, _read_rows, _write_rows
from oracles import reference_relevance, reference_table_rows, reference_table_text


class TestScenarios:
    def test_named_parameters(self):
        common = ScenarioSpec.common()
        assert (common.ve_mean, common.ve_sd) == (10.0, 2.5)
        assert (common.vb_mean, common.vb_sd) == (100.0, 25.0)
        assert (common.y_mean, common.y_sd) == (50.0, 25.0)
        exp1st = ScenarioSpec.exp1st()
        # exposure and purchase weights share one distribution here
        assert (exp1st.ve_mean, exp1st.ve_sd) == (exp1st.vb_mean, exp1st.vb_sd) == (100.0, 25.0)
        sale1st = ScenarioSpec.sale1st()
        assert sale1st.vb_mean == 10 * ScenarioSpec.common().vb_mean
        assert sale1st.vb_sd == 10 * ScenarioSpec.common().vb_sd

    def test_by_name(self):
        assert ScenarioSpec.by_name("Common").name == "Common"
        with pytest.raises(ValueError):
            ScenarioSpec.by_name("weird")

    def test_rejects_nonpositive_means(self):
        with pytest.raises(ValueError):
            ScenarioSpec("bad", 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class TestSampleProfiles:
    def test_common_sample_means(self):
        rng = np.random.default_rng(100)
        profiles = sample_profiles(10_000, ScenarioSpec.common(), rng)
        ve = np.array([p.exposure_value for p in profiles])
        vb = np.array([p.purchase_value for p in profiles])
        # 3-sigma bands for the sample mean: 3*2.5/100 and 3*25/100
        assert abs(ve.mean() - 10.0) < 0.1
        assert abs(vb.mean() - 100.0) < 1.0

    def test_all_positive(self):
        rng = np.random.default_rng(101)
        profiles = sample_profiles(5000, ScenarioSpec.common(), rng)
        assert all(p.exposure_value > 0 and p.purchase_value > 0 and p.gain_target > 0 for p in profiles)

    def test_degenerate_sd_gives_exact_means(self):
        rng = np.random.default_rng(102)
        spec = ScenarioSpec("point", 3.0, 0.0, 7.0, 0.0, 2.0, 0.0)
        for p in sample_profiles(5, spec, rng):
            assert (p.exposure_value, p.purchase_value, p.gain_target) == (3.0, 7.0, 2.0)

    def test_sale1st_ratio_matches_monte_carlo_oracle(self):
        # Independent rejection sampler as the oracle for E[v_b / v_e]
        oracle_rng = np.random.default_rng(555)
        scenario = ScenarioSpec.sale1st()

        def draw_positive(mean, sd, size):
            out = np.empty(size)
            filled = 0
            while filled < size:
                batch = oracle_rng.normal(mean, sd, size - filled)
                batch = batch[batch > 0]
                out[filled : filled + len(batch)] = batch
                filled += len(batch)
            return out

        oracle = float(
            np.mean(draw_positive(scenario.vb_mean, scenario.vb_sd, 200_000)
                    / draw_positive(scenario.ve_mean, scenario.ve_sd, 200_000))
        )
        profiles = sample_profiles(4000, scenario, np.random.default_rng(103))
        ratio = float(np.mean([p.purchase_value / p.exposure_value for p in profiles]))
        assert abs(ratio - oracle) <= 0.10 * oracle
        assert abs(oracle - 100.0) <= 0.10 * oracle  # population ratio sits near 100

    def test_rejects_tiny_provider_count(self):
        with pytest.raises(ValueError):
            sample_profiles(1, ScenarioSpec.common(), np.random.default_rng(0))


class TestGenerateRelevance:
    def test_high_dimension_concentrates_near_half(self):
        spec = GeneratorSpec(n_users=60, n_items=200, n_providers=4, latent_dim=400, sparsity=0.5, seed=1)
        table = generate_relevance(spec, np.random.default_rng(spec.seed))
        values = np.array([v for _, _, v in table.iter_entries()])
        assert 0.45 < values.mean() < 0.55

    def test_full_density_when_sparsity_one(self):
        spec = GeneratorSpec(n_users=10, n_items=30, n_providers=3, sparsity=1.0, seed=2)
        table = generate_relevance(spec, np.random.default_rng(spec.seed))
        assert len(table) == 10 * 30
        assert all(0.0 < v < 1.0 for _, _, v in table.iter_entries())

    def test_seed_determinism(self):
        spec = GeneratorSpec(n_users=8, n_items=40, n_providers=4, sparsity=0.2, seed=9)
        a = generate_relevance(spec, np.random.default_rng(spec.seed))
        b = generate_relevance(spec, np.random.default_rng(spec.seed))
        c = generate_relevance(spec, np.random.default_rng(spec.seed + 1))
        assert a == b
        assert a != c

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 90),
        st.integers(1, 12),
        st.floats(1e-3, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_dense_formula_bit_for_bit_and_ends_the_generator_alike(self, users, items, dim, sparsity, seed):
        spec = GeneratorSpec(n_users=users, n_items=items, n_providers=1, latent_dim=dim, sparsity=sparsity)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        table, want = generate_relevance(spec, rng), reference_relevance(spec, ref_rng)
        for name in ("indptr", "indices", "values"):
            assert getattr(table, name).tobytes() == getattr(want, name).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_peak_memory_is_one_score_matrix_and_linear_in_the_kept_entries(self):
        # holding the whole logistic matrix while the table was built from it
        # peaked at 15.3 MB traced here; one product freed before the table
        # peaks at 11.3 MB
        spec = GeneratorSpec(n_users=300, n_items=4000, n_providers=2000, sparsity=0.05)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            table = generate_relevance(spec, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 300 * 200
        assert peak < spec.n_users * spec.n_items * 8 + 48 * len(table)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            GeneratorSpec(sparsity=0.0)
        with pytest.raises(ValueError):
            GeneratorSpec(sparsity=1.5)
        for skew in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="group_size_skew must be finite and nonnegative"):
                GeneratorSpec(group_size_skew=skew)


class TestAssignGroups:
    def test_even_split_when_unskewed(self):
        cat = assign_groups(103, 10, 0.0, np.random.default_rng(4))
        sizes = cat.group_sizes
        assert sizes.sum() == 103
        assert sizes.max() - sizes.min() <= 1

    def test_singletons_when_counts_match(self):
        cat = assign_groups(7, 7, 1.3, np.random.default_rng(5))
        assert all(s == 1 for s in cat.group_sizes)

    def test_harmonic_sizes_hand_example(self):
        # weights 1, 1/2, 1/3, 1/4 over 100 items -> 48, 24, 16, 12
        cat = assign_groups(100, 4, 1.0, np.random.default_rng(6))
        np.testing.assert_array_equal(np.sort(cat.group_sizes)[::-1], [48, 24, 16, 12])

    def test_every_group_nonempty_under_heavy_skew(self):
        cat = assign_groups(50, 12, 3.0, np.random.default_rng(7))
        assert all(s >= 1 for s in cat.group_sizes)
        assert cat.group_sizes.sum() == 50

    def test_rejects_more_groups_than_items(self):
        with pytest.raises(ValueError):
            assign_groups(3, 4, 0.0, np.random.default_rng(8))
        for skew in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="skew must be finite and nonnegative"):
                assign_groups(10, 4, skew, np.random.default_rng(8))

    def test_rejects_an_int_beyond_every_float_as_not_finite_skew(self):
        # math.isfinite raised OverflowError for it
        with pytest.raises(ValueError, match="^group_size_skew must be finite and nonnegative$"):
            GeneratorSpec(group_size_skew=10**400)
        with pytest.raises(ValueError, match="^skew must be finite and nonnegative$"):
            assign_groups(10, 4, 10**400, np.random.default_rng(8))


class TestDatasetRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        spec = GeneratorSpec(n_users=12, n_items=40, n_providers=5, sparsity=0.3, seed=13)
        ds = generate_dataset(spec, ScenarioSpec.common())
        save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        np.testing.assert_array_equal(loaded.catalog.group_of, ds.catalog.group_of)
        assert loaded.profiles == ds.profiles
        assert loaded.relevance == ds.relevance

    def test_second_save_is_byte_identical(self, tmp_path):
        spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, sparsity=0.4, seed=14)
        for sub in ("a", "b"):
            save_dataset(generate_dataset(spec, ScenarioSpec.sale1st()), tmp_path / sub)
        for name in ("catalog.csv", "providers.csv", "relevance.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_labels_with_csv_and_non_ascii_characters_round_trip(self, tmp_path_factory, data):
        def labels(count):
            text = st.text(alphabet=st.sampled_from(list('ab, "\'é中ü')), min_size=1, max_size=6)
            return tuple(data.draw(st.lists(text, min_size=count, max_size=count, unique=True)))

        n_users, n_items = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 6))
        n_providers = data.draw(st.integers(1, n_items))
        values = data.draw(st.lists(st.floats(1e-9, 1.0), min_size=n_users, max_size=n_users))
        ds = Dataset(
            catalog=Catalog.from_assignments([i % n_providers for i in range(n_items)], n_providers),
            profiles=tuple(ProviderProfile(1.0 + g, 0.5, 2.0) for g in range(n_providers)),
            relevance=RelevanceTable(n_users, [(u, u % n_items, values[u]) for u in range(n_users)]),
            labels=DatasetLabels(users=labels(n_users), items=labels(n_items), providers=labels(n_providers)),
        )
        root = tmp_path_factory.mktemp("labels")
        save_dataset(ds, root / "a")
        loaded = load_dataset(root / "a")
        assert loaded.labels == ds.labels
        np.testing.assert_array_equal(loaded.catalog.group_of, ds.catalog.group_of)
        assert loaded.profiles == ds.profiles
        assert loaded.relevance == ds.relevance
        save_dataset(loaded, root / "b")
        for name in ("catalog.csv", "providers.csv", "relevance.csv"):
            assert (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes()

    def test_a_table_is_written_as_csv_with_seventeen_digit_floats(self, tmp_path):
        rows = [("x, y", 0.1, 3, 2), ('say "hi"', math.nan, -0.0, 0.5), ("ünï", 1e-7, 12, True)]
        _write_rows(tmp_path / "t.csv", ("name", "a", "b", "c"), rows)
        assert (tmp_path / "t.csv").read_bytes() == (
            'name,a,b,c\n"x, y",0.10000000000000001,3,2\n"say ""hi""",nan,-0,0.5\n'
            "ünï,9.9999999999999995e-08,12,True\n"
        ).encode("utf-8")
        read = [row for _, row in _read_rows(tmp_path / "t.csv", ("name", "a", "b", "c"))]
        assert [row[0] for row in read] == ["x, y", 'say "hi"', "ünï"]

    def test_read_rows_reads_the_whole_table_into_a_list(self, tmp_path):
        _write_rows(tmp_path / "t.csv", ("a", "b"), [(1, 2), (3, 4)])
        rows = _read_rows(tmp_path / "t.csv", ("a", "b"))
        assert rows == [(2, ["1", "2"]), (3, ["3", "4"])]
        assert isinstance(rows, list)

    def test_float32_weights_save_and_load_as_themselves(self, tmp_path):
        # a profile holds floats, so a weight given as np.float32 is saved with every digit
        ds = generate_dataset(GeneratorSpec(n_users=6, n_items=20, n_providers=3, seed=15), ScenarioSpec.common())
        weights = [[np.float32(v) for v in (p.exposure_value, p.purchase_value, p.gain_target)] for p in ds.profiles]
        profiles = tuple(ProviderProfile(*w) for w in weights)
        save_dataset(Dataset(ds.catalog, profiles, ds.relevance), tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds").profiles
        assert loaded == profiles
        got = [[p.exposure_value.hex(), p.purchase_value.hex(), p.gain_target.hex()] for p in loaded]
        assert got == [[float(v).hex() for v in w] for w in weights]

    def test_generator_determinism_across_calls(self):
        spec = GeneratorSpec(n_users=6, n_items=20, n_providers=3, seed=15)
        a = generate_dataset(spec, ScenarioSpec.common())
        b = generate_dataset(spec, ScenarioSpec.common())
        np.testing.assert_array_equal(a.catalog.group_of, b.catalog.group_of)
        assert a.profiles == b.profiles
        assert a.relevance == b.relevance


def write_dataset_dir(tmp_path, providers_rows, catalog_rows, relevance_rows):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "providers.csv").write_text("provider_id,v_e,v_b,y\n" + "".join(r + "\n" for r in providers_rows))
    (d / "catalog.csv").write_text("item_id,provider_id\n" + "".join(r + "\n" for r in catalog_rows))
    (d / "relevance.csv").write_text("user_id,item_id,relevance\n" + "".join(r + "\n" for r in relevance_rows))
    return d


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            load_dataset(tmp_path)

    def test_zero_target_cites_row(self, tmp_path):
        d = write_dataset_dir(
            tmp_path,
            ["a,1,1,5", "b,1,1,0"],
            ["x,a", "y,b"],
            ["u,x,0.5"],
        )
        with pytest.raises(DatasetError, match="providers.csv row 3"):
            load_dataset(d)

    @pytest.mark.parametrize(
        "providers, message",
        [
            (["b,1,-2,5", "a,1,1,5"], "providers.csv row 2: gain weights must be nonnegative"),
            (["a,1,1,5", "c,1,1,5", "b,1,1,0"], "providers.csv row 4: gain_target must be strictly positive"),
        ],
    )
    def test_profile_rules_cite_the_row(self, tmp_path, providers, message):
        d = write_dataset_dir(tmp_path, providers, ["x,a", "y,b"], ["u,x,0.5"])
        with pytest.raises(DatasetError, match=message):
            load_dataset(d)

    @pytest.mark.parametrize("row", ["b,inf,1,5", "b,1,nan,5", "b,1,1,inf"])
    def test_nonfinite_profile_cites_row(self, tmp_path, row):
        d = write_dataset_dir(tmp_path, ["a,1,1,5", row], ["x,a", "y,b"], ["u,x,0.5"])
        with pytest.raises(DatasetError, match="providers.csv row 3: .*finite"):
            load_dataset(d)

    def test_unknown_item_cites_row(self, tmp_path):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a"], ["u,zzz,0.5"])
        with pytest.raises(DatasetError, match="relevance.csv row 2"):
            load_dataset(d)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_relevance_cites_row(self, tmp_path, value):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], ["u,x,1.5", f"u,y,{value}"])
        with pytest.raises(DatasetError, match="relevance.csv row 3: .*not finite"):
            load_dataset(d)

    def test_negative_relevance_rejected(self, tmp_path):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], ["u,x,-0.25"])
        with pytest.raises(DatasetError, match="negative"):
            load_dataset(d)

    def test_provider_without_items_rejected(self, tmp_path):
        d = write_dataset_dir(tmp_path, ["a,1,1,5", "ghost,1,1,5"], ["x,a"], ["u,x,0.5"])
        with pytest.raises(DatasetError, match="owns no items"):
            load_dataset(d)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the first value would be dropped, yet its 1.6 would rescale the row
            (["u,x,1.6", "u,x,0.5", "u,y,0.8"], "row 3: duplicate relevance for user 'u' and item 'x'"),
            (["u,x,0.1", "w,x,0.2", "w,y,0.3", "u,y,0.4", "w,x,0.5", "u,x,0.6"], "row 6: .* user 'w' and item 'x'"),
        ],
    )
    def test_repeated_user_item_pair_cites_its_first_repeat(self, tmp_path, rows, message):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], rows)
        with pytest.raises(DatasetError, match="relevance.csv " + message):
            load_dataset(d)

    def test_blank_lines_before_a_repeated_pair_still_cite_its_row(self, tmp_path):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], ["u,x,0.1", "", "", "u,y,0.2", "", "u,x,0.3"])
        with pytest.raises(DatasetError, match="relevance.csv row 7: duplicate relevance for user 'u' and item 'x'"):
            load_dataset(d)

    def test_a_bad_value_after_ten_thousand_good_rows_cites_its_row(self, tmp_path):
        good = [f"u{n},{'xy'[n % 2]},0.5" for n in range(10_000)]
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], [*good, "w,x,oops", "w,y,0.5"])
        with pytest.raises(DatasetError, match="relevance.csv row 10002: relevance 'oops' is not a number"):
            load_dataset(d)

    @pytest.mark.parametrize("bad", ["u,zzz,0.5", "u,x,oops", "u,x,-0.5", "u,x,nan"])
    def test_a_row_of_the_wrong_width_is_reported_before_an_earlier_bad_value(self, tmp_path, bad):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], ["w,x,0.5", bad, "w,y,0.5", "u,y"])
        with pytest.raises(DatasetError, match="relevance.csv row 5: expected 3 columns"):
            load_dataset(d)

    def test_overrange_relevance_rescales_user_row(self, tmp_path):
        d = write_dataset_dir(
            tmp_path,
            ["a,1,1,5"],
            ["x,a", "y,a"],
            ["u,x,1.6", "u,y,0.8", "w,x,0.9"],
        )
        ds = load_dataset(d)
        assert ds.relevance.get(0, 0) == pytest.approx(1.0)
        assert ds.relevance.get(0, 1) == pytest.approx(0.5)
        assert ds.relevance.get(1, 0) == pytest.approx(0.9)  # untouched user

    def test_overrange_relevance_errors_in_strict_mode(self, tmp_path):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], ["u,y,0.8", "u,x,1.25", "w,x,0.9"])
        with pytest.raises(DatasetError, match=r"^relevance\.csv row 3: relevance 1\.25 exceeds 1 \(strict mode\)$"):
            load_dataset(d, strict=True)
        # the same directory loads rescaled without strict
        ds = load_dataset(d)
        assert [ds.relevance.get(0, 1), ds.relevance.get(0, 0), ds.relevance.get(1, 0)] == [0.8 / 1.25, 1.0, 0.9]

    def test_labels_survive_roundtrip(self, tmp_path):
        d = write_dataset_dir(
            tmp_path,
            ["brandB,1,2,5", "brandA,2,3,6"],
            ["sku9,brandB", "sku3,brandA"],
            ["alice,sku9,0.5", "bob,sku3,0.25"],
        )
        ds = load_dataset(d)
        assert ds.labels.providers == ("brandB", "brandA")
        assert ds.labels.items == ("sku9", "sku3")
        assert ds.labels.users == ("alice", "bob")
        out = tmp_path / "copy"
        save_dataset(ds, out)
        again = load_dataset(out)
        assert again.labels == ds.labels
        assert again.relevance == ds.relevance


# table sizes on both sides of the block boundaries
BLOCK_SIZES = st.sampled_from([0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
# text with every character CSV quotes, a NUL, a space and non-ASCII letters
CSV_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\x00\'é中ü')), max_size=5)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]),
)
COLUMN_VALUES = {
    "int": st.integers(-(2**70), 2**70),
    "float": FLOATS,
    "text": CSV_TEXT,
    "any": st.one_of(st.integers(), st.booleans(), st.none(), FLOATS, CSV_TEXT),
}


@st.composite
def tables(draw):
    """A header and rows: a few drawn rows repeated to a drawn size, with
    drawn rows at drawn places, each column of one kind of value."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_VALUES)), min_size=1, max_size=4))
    row = st.tuples(*(COLUMN_VALUES[kind] for kind in kinds))
    base, size = draw(st.lists(row, min_size=1, max_size=4)), draw(BLOCK_SIZES)
    rows = [base[i % len(base)] for i in range(size)]
    if size:
        for at, drawn in draw(st.dictionaries(st.integers(0, size - 1), row, max_size=4)).items():
            rows[at] = drawn
    return tuple(f"c{j}" for j in range(len(kinds))), rows


class TestTableBlocks:
    """``_write_rows`` and ``_iter_rows`` work a block at a time; the csv
    module, row by row, is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_written_bytes_are_the_csv_modules(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.mktemp("table") / "t.csv"
        _write_rows(path, header, iter(rows))
        assert path.read_bytes() == reference_table_text(header, rows).encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(table=tables(), data=st.data())
    def test_rows_read_are_the_csv_readers_with_their_row_numbers(self, tmp_path_factory, table, data):
        header, rows = table
        text = reference_table_text(header, rows)
        # blank lines, a run of them that fills a whole block, carriage returns and stray fields
        # at drawn line ends after the header's
        ends = [at for at, char in enumerate(text) if char == "\n"][1:]
        edit = st.sampled_from(["\n", "\n\n\n", "\n" * (2 * BLOCK_ROWS), "\r\n", ",\n"])
        edits = data.draw(st.dictionaries(st.sampled_from(ends), edit, max_size=6)) if ends else {}
        for at in sorted(edits, reverse=True):
            text = text[:at] + edits[at] + text[at + 1 :]
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        want, got = reference_table_rows(path), []
        wrong = next((n for n, row in want if len(row) != len(header)), None)
        if wrong is None:
            got = list(_iter_rows(path, header))
        else:
            with pytest.raises(DatasetError, match=f"^t.csv row {wrong}: expected {len(header)} columns$"):
                got.extend(_iter_rows(path, header))
            want = [(n, row) for n, row in want if n < wrong]
        assert got == want

    def test_a_line_longer_than_the_csv_field_limit_is_the_csv_readers_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n" + "x" * 40 + ",3\n")
        limit = csv.field_size_limit(16)
        try:
            with pytest.raises(csv.Error, match="field larger than field limit"):
                reference_table_rows(path)
            with pytest.raises(csv.Error, match="field larger than field limit"):
                list(_iter_rows(path, ("a", "b")))
        finally:
            csv.field_size_limit(limit)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_save_then_load_is_the_identity_across_blocks(self, tmp_path_factory, data):
        n_items, m = 97, data.draw(st.integers(1, 4))
        rows = data.draw(BLOCK_SIZES.filter(bool))
        n_users = -(-rows // n_items)
        values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(rows)
        special = [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2**-53, 0.1]
        values[: len(special)] = special[:rows]
        for at, value in data.draw(st.dictionaries(st.integers(0, rows - 1), st.floats(0.0, 1.0), max_size=4)).items():
            values[at] = value
        cells = np.arange(rows)

        def labels(count, prefix):
            drawn = data.draw(st.lists(CSV_TEXT, unique=True, max_size=min(count, 4)))
            return tuple(drawn + [f"{prefix}{j}" for j in range(count - len(drawn))])

        weight = st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 1e308])
        ds = Dataset(
            catalog=Catalog.from_assignments([i % m for i in range(n_items)], m),
            profiles=tuple(ProviderProfile(data.draw(weight), data.draw(weight), data.draw(weight.filter(bool))) for _ in range(m)),
            relevance=RelevanceTable(n_users, np.column_stack((cells // n_items, cells % n_items, values))),
            labels=DatasetLabels(users=labels(n_users, "u"), items=labels(n_items, "i"), providers=labels(m, "p")),
        )
        root = tmp_path_factory.mktemp("blocks")
        save_dataset(ds, root)
        loaded = load_dataset(root)
        assert loaded.labels == ds.labels
        np.testing.assert_array_equal(loaded.catalog.group_of, ds.catalog.group_of)
        assert loaded.profiles == ds.profiles
        for name in ("indptr", "indices", "values"):
            assert getattr(loaded.relevance, name).tobytes() == getattr(ds.relevance, name).tobytes()


def rows_with_a_bad_row(bad: str, at: int) -> tuple[list[str], int]:
    """Two blocks' worth of good relevance rows over items x and y, three
    blank lines among the first ten, and ``bad`` after two more blank lines
    before good row ``at``; gives the lines and ``bad``'s row number."""
    lines = [f"u{n},{'xy'[n % 2]},0.5" for n in range(2 * BLOCK_ROWS)]
    lines[at:at] = ["", "", bad]
    lines[7:7] = ["", "", ""]
    return lines, lines.index(bad) + 2


class TestLoadErrorsAcrossBlocks:
    # the bad row opens the second block of lines, after the blank lines
    # that close the first, or it stands in the third
    @pytest.mark.parametrize("at", [BLOCK_ROWS - 5, 2 * BLOCK_ROWS - 1])
    @pytest.mark.parametrize(
        "bad, strict, message",
        [
            ("w,zzz,0.5", False, "unknown item id 'zzz'"),
            ("w,x,oops", False, "relevance 'oops' is not a number"),
            ("w,x,-0.25", False, "relevance -0.25 is negative"),
            ("w,x,inf", False, "relevance inf is not finite"),
            ("w,x,1.5", True, "relevance 1.5 exceeds 1 (strict mode)"),
            ("u12,x,0.3", False, "duplicate relevance for user 'u12' and item 'x'"),
            ("w,x", False, "expected 3 columns"),
        ],
    )
    def test_a_bad_row_in_a_later_block_cites_its_row(self, tmp_path, at, bad, strict, message):
        lines, row = rows_with_a_bad_row(bad, at)
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], lines)
        with pytest.raises(DatasetError, match=f"^{re.escape(f'relevance.csv row {row}: {message}')}$"):
            load_dataset(d, strict=strict)

    @pytest.mark.parametrize("bad", ["w,zzz,0.5", "w,x,oops", "w,x,-0.5"])
    def test_a_row_of_the_wrong_width_in_a_later_block_is_reported_before_a_bad_value(self, tmp_path, bad):
        lines, _ = rows_with_a_bad_row(bad, 100)
        lines.insert(BLOCK_ROWS + 300, "w,y")
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], lines)
        with pytest.raises(DatasetError, match=f"^relevance\\.csv row {BLOCK_ROWS + 302}: expected 3 columns$"):
            load_dataset(d)

    def test_rows_after_a_quoted_field_are_read_by_the_csv_reader_with_their_row_numbers(self, tmp_path):
        lines, row = rows_with_a_bad_row("w,x,oops", BLOCK_ROWS + 57)
        lines[BLOCK_ROWS - 2] = '"q,""1""",x,0.5'  # a quote in the first block
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["x,a", "y,a"], lines)
        with pytest.raises(DatasetError, match=f"^relevance\\.csv row {row}: relevance 'oops' is not a number$"):
            load_dataset(d)
        lines.remove("w,x,oops")
        (d / "relevance.csv").write_text("user_id,item_id,relevance\n" + "".join(line + "\n" for line in lines))
        assert 'q,"1"' in load_dataset(d).labels.users

    def test_rows_after_more_blank_lines_than_a_block_are_read_after_a_quoted_field(self, tmp_path):
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], ["i0,a", "i1,a"], ['"u,0",i0,0.5', *[""] * 3000, "u1,i1,0.25"])
        dataset = load_dataset(d)
        assert dataset.labels.users == ("u,0", "u1")
        assert len(dataset.relevance) == 2

    def test_streaming_holds_32_bytes_a_row_and_one_block(self, tmp_path, monkeypatch):
        # a row streams into 24 bytes of (user, item, value) and an 8-byte row
        # number, in arrays that grow by a sixteenth; the block being read is
        # held as Python strings, under 1 KiB a line of this file
        rows = 100_000
        values = np.random.default_rng(0).random(rows).tolist()
        lines = [f"u{n // 200},i{n % 200},{value!r}" for n, value in enumerate(values)]
        d = write_dataset_dir(tmp_path, ["a,1,1,5"], [f"i{j},a" for j in range(200)], lines)
        load_dataset(d)  # imports and caches are not the rows'
        seen = []
        labels = synth.DatasetLabels  # made once the rows are read, before any array is built from them

        def at_labels(**kwargs):
            seen.append(tracemalloc.get_traced_memory()[1])
            return labels(**kwargs)

        monkeypatch.setattr(synth, "DatasetLabels", at_labels)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            load_dataset(d)
        finally:
            tracemalloc.stop()
        assert seen[0] - before <= 36 * rows + 1024 * BLOCK_ROWS
