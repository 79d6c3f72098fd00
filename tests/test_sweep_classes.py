"""A sweep serves each class of runs that equal one another once
(``cli._sources``): runs of one seed that run one plan (``rankers.plan_of``).
Each member written from its class's run equals the member served alone,
results, failures and series, on data where a policy's own plan at alpha 0
would fail too."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import Catalog, GeneratorSpec, ProviderProfile, RelevanceTable, SimConfig, cli, rankers, run_offline, run_online
from equityrank.cli import DETERMINISTIC_FIELDS, ExperimentPlan, cmd_sweep
from equityrank.synth import Dataset, _write_rows, load_dataset, save_dataset

BENCH_OFFLINE = dict(  # the offline-sweep workload's plan, at workload seed 0
    generator=GeneratorSpec(n_users=500, n_items=1000, n_providers=20, group_size_skew=0.8, latent_dim=8, sparsity=0.05),
    policies=rankers.POLICY_KINDS,
    alpha_grid=(0.0, 1e-3, 0.1, 1.0),
    seeds=(0, 1),
    sim=SimConfig(list_size=5),
)


def served_runs(monkeypatch, plan):
    """The (policy, alpha, seed) of every run the sweep of ``plan`` hands its driver, and its failures,
    with a driver that fails each run at once."""
    served = []

    def driver(dataset, policy, runs, sim):
        served.extend((policy, alpha, seed) for alpha, seed in runs)
        return [RuntimeError(f"{policy} {alpha!r} {seed}") for alpha, seed in runs]

    monkeypatch.setattr(cli, "run_offline_batch", driver)
    monkeypatch.setattr(cli, "run_online_batch", driver)
    out = cmd_sweep(plan)
    return served, (out / "failures.csv").read_text().splitlines()[1:]


def test_the_offline_benchmark_plan_serves_28_of_its_36_runs(tmp_path, monkeypatch):
    plan = ExperimentPlan(out_dir=str(tmp_path / "sweep"), **BENCH_OFFLINE)
    served, failures = served_runs(monkeypatch, plan)
    copies = {("EquityRank", 0.0): "TopK 0.0", ("FairCoStar", 0.0): "TopK 0.0", ("MMFStar", 0.0): "TopK 0.0", ("MMFStar", 1.0): "PoorK 0.0"}
    assert len(served) == 28 and len(failures) == 36
    assert not any((policy, alpha) in copies for policy, alpha, _ in served)
    for line in failures:  # each copy fails with its source's message
        policy, alpha, seed, error = line.split(",")
        source = copies.get((policy, float(alpha)), f"{policy} {float(alpha)!r}")
        assert error == f"RuntimeError: {source} {seed}"


def test_the_default_online_plan_serves_90_of_its_110_runs(tmp_path, monkeypatch):
    args = cli._build_parser().parse_args(["sweep", "--mode", "online", "--out", str(tmp_path / "sweep")])
    plan = cli.resolve_plan(args)
    assert plan.sim.total_steps == 250_000 and plan.alpha_grid == cli.DEFAULT_ALPHA_GRID and len(plan.seeds) == 5
    served, failures = served_runs(monkeypatch, plan)
    assert len(served) == 90 and len(failures) == 110
    # online as offline, MMF* at alpha 0 runs TopK's plan
    copied = {(p, a) for p in plan.policies for a in cli.effective_alpha_grid(p, plan.alpha_grid)} - {(p, a) for p, a, _ in served}
    assert copied == {("EquityRank", 0.0), ("FairCoStar", 0.0), ("MMFStar", 0.0), ("MMFStar", 1.0)}


def test_each_policy_runs_topks_poorks_or_its_own_plan():
    plans = {(p, a): rankers.plan_of(p, a) for p in rankers.POLICY_KINDS for a in (0.0, 0.5, 1.0)}
    topk, poork = ("TopK", 0.0), ("PoorK", 1.0)
    assert plans == {
        **{("TopK", a): topk for a in (0.0, 0.5, 1.0)},
        **{("PoorK", a): poork for a in (0.0, 0.5, 1.0)},
        **{(p, 0.0): topk for p in ("FairCoStar", "MMFStar", "EquityRank")},
        **{(p, a): (p, a) for p in ("FairCoStar", "EquityRank", "EquityRankV") for a in (0.5, 1.0)},
        ("MMFStar", 0.5): ("MMFStar", 0.5),
        ("MMFStar", 1.0): poork,
        # EquityRankV pays TopK's lists level by level, which can round its gains otherwise
        ("EquityRankV", 0.0): ("EquityRankV", 0.0),
    }
    specs = [("TopK", 0.0, 0), ("EquityRankV", 0.0, 0), ("EquityRank", 0.0, 0), ("EquityRankV", 0.0, 1)]
    assert cli._sources(specs) == [0, 1, 0, 3]


# relevance with a subnormal gap next to 0, and weights and targets near the float range
RELEVANCE = (0.0, 0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0)
WEIGHTS = (0.0, 1.0, 10.0, 1e300)
TARGETS = (1e-300, 1.0, 50.0)


@st.composite
def sweeps(draw):
    m = draw(st.integers(2, 3))
    groups = list(range(m)) + draw(st.lists(st.integers(0, m - 1), max_size=4))
    n, users = len(groups), draw(st.integers(1, 3))
    entries = [(u, i, draw(st.sampled_from(RELEVANCE))) for u in range(users) for i in range(n)]
    profiles = tuple(
        ProviderProfile(draw(st.sampled_from(WEIGHTS)), draw(st.sampled_from(WEIGHTS)), draw(st.sampled_from(TARGETS)))
        for _ in range(m)
    )
    dataset = Dataset(Catalog.from_assignments(groups, m), profiles, RelevanceTable(users, entries))
    k = draw(st.integers(1, min(3, n)))
    mode = draw(st.sampled_from(["offline", "online"]))
    sim = SimConfig(
        list_size=k,
        mode=mode,
        total_steps=draw(st.integers(0, 12)),
        prefilter_size=draw(st.integers(k, n)),
        checkpoint_every=draw(st.integers(1, 5)),
    )
    return dataset, sim


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_each_run_of_a_sweep_equals_its_run_served_alone(case):
    dataset, sim = case
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        root = Path(tmp)
        save_dataset(dataset, root / "data")
        plan = ExperimentPlan(
            out_dir=str(root / "sweep"), dataset=str(root / "data"), policies=rankers.POLICY_KINDS,
            alpha_grid=(0.0, 0.5, 1.0), seeds=(0, 1), sim=sim,
        )
        out = cmd_sweep(plan)
        # every run alone, on a dataset object of its own
        results, failures, series = [], [], {}
        for policy in plan.policies:
            for alpha in cli.effective_alpha_grid(policy, plan.alpha_grid):
                for seed in plan.seeds:
                    alone = load_dataset(root / "data")
                    try:
                        if sim.mode == "online":
                            result, trace = run_online(alone, policy, alpha, seed, sim)
                            series[f"{policy}_a{alpha!r}_s{seed}.csv"] = trace.checkpoints
                        else:
                            result = run_offline(alone, policy, alpha, seed, sim)
                        results.append(result.deterministic_values())
                    except Exception as exc:  # noqa: BLE001 - a run's failure is one of its outputs
                        failures.append((policy, alpha, seed, f"{type(exc).__name__}: {exc}"))
        want = root / "alone"
        want.mkdir()
        _write_rows(want / "results.csv", DETERMINISTIC_FIELDS, results)
        assert (out / "results.csv").read_bytes() == (want / "results.csv").read_bytes()
        if failures:
            _write_rows(want / "failures.csv", cli.FAILURES_HEADER, failures)
            assert (out / "failures.csv").read_bytes() == (want / "failures.csv").read_bytes()
        else:
            assert not (out / "failures.csv").exists()
        written = {path.name: path.read_bytes() for path in (out / "series").glob("*.csv")}
        assert sorted(written) == sorted(name for name, checkpoints in series.items() if checkpoints)
        for name, data in written.items():
            _write_rows(want / name, cli.SERIES_HEADER, series[name])
            assert data == (want / name).read_bytes(), name


def overflowing_targets():
    """A dataset on which FairCo*'s ratios overflow from the second list on: y = 1e-300 against v_e = 1e300."""
    profiles = (ProviderProfile(1e300, 1.0, 1e-300), ProviderProfile(1.0, 1.0, 1.0))
    entries = [(u, i, r) for u in range(2) for i, r in enumerate((1.0, 0.5, 0.25, 0.0))]
    return Dataset(Catalog.from_assignments([0, 1, 0, 1], 2), profiles, RelevanceTable(2, entries))


def subnormal_gap():
    """A dataset whose MMF* span check fails at the second pick: (1 - 0) / 5e-324 overflows."""
    entries = [(0, i, r) for i, r in enumerate((1.0, 5e-324, 0.0, 0.0))]
    profiles = (ProviderProfile(1.0, 1.0, 1.0), ProviderProfile(1.0, 1.0, 2.0))
    return Dataset(Catalog.from_assignments([0, 1, 0, 1], 2), profiles, RelevanceTable(1, entries))


def outcome(run, dataset, policy, alpha, sim):
    """A run's deterministic values under TopK's name, and its checkpoints' repr if online."""
    got = run(dataset, policy, alpha, 0, sim)
    result, trace = got if isinstance(got, tuple) else (got, None)
    return replace(result, policy="TopK").deterministic_values(), trace and repr(trace.checkpoints)


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_fairco_at_alpha_zero_runs_topks_plan_where_a_ratio_overflows(mode):
    dataset, sim = overflowing_targets(), SimConfig(list_size=2, mode=mode, total_steps=3, prefilter_size=4)
    with np.errstate(all="ignore"):
        run = run_online if mode == "online" else run_offline
        assert outcome(run, dataset, "FairCoStar", 0.0, sim) == outcome(run, dataset, "TopK", 0.0, sim)
        with pytest.raises(ValueError, match="scores must be finite"):
            run(dataset, "FairCoStar", 1e-3, 0, sim)
    specs = [("TopK", 0.0, 0), ("FairCoStar", 0.0, 0), ("EquityRank", 0.0, 0), ("FairCoStar", 1e-3, 0)]
    assert cli._sources(specs) == [0, 0, 0, 3]


def test_mmf_at_alpha_zero_runs_topks_plan_where_its_span_check_fails():
    dataset, sim = subnormal_gap(), SimConfig(list_size=2)
    assert outcome(run_offline, dataset, "MMFStar", 0.0, sim) == outcome(run_offline, dataset, "TopK", 0.0, sim)
    with pytest.raises(ValueError, match="scores must be finite"):
        run_offline(dataset, "MMFStar", 0.5, 0, sim)
    specs = [("TopK", 0.0, 0), ("MMFStar", 0.0, 0), ("MMFStar", 1.0, 0), ("PoorK", 0.0, 0), ("MMFStar", 1.0, 1)]
    assert cli._sources(specs) == [0, 0, 2, 2, 4]


@pytest.mark.parametrize("data", [overflowing_targets, subnormal_gap])
@pytest.mark.parametrize("mode", ["offline", "online"])
def test_fairco_and_mmf_at_alpha_zero_are_topks_run_where_their_own_plans_fail(tmp_path, data, mode):
    sim = SimConfig(list_size=2, mode=mode, total_steps=3, prefilter_size=4, checkpoint_every=1)
    dataset, run = data(), run_online if mode == "online" else run_offline
    with np.errstate(all="ignore"):
        topk = outcome(run, dataset, "TopK", 0.0, sim)
        for policy in ("FairCoStar", "MMFStar"):
            assert outcome(run, dataset, policy, 0.0, sim) == topk
        save_dataset(dataset, tmp_path / "data")
        plan = ExperimentPlan(
            out_dir=str(tmp_path / "sweep"), dataset=str(tmp_path / "data"),
            policies=("TopK", "FairCoStar", "MMFStar"), alpha_grid=(0.0, 0.5), seeds=(0,), sim=sim,
        )
        out = cmd_sweep(plan)
    failed = (out / "failures.csv").read_text().splitlines()[1:] if (out / "failures.csv").exists() else []
    assert not [line for line in failed if float(line.split(",")[1]) == 0.0]


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_each_run_on_a_refused_dataset_fails_with_the_drivers_message(tmp_path, mode):
    # a list of 3 on 2 items: the drivers refuse the dataset, and each copy carries their message
    profiles = (ProviderProfile(1.0, 1.0, 1.0), ProviderProfile(1.0, 1.0, 1.0))
    dataset = Dataset(Catalog.from_assignments([0, 1], 2), profiles, RelevanceTable(1, [(0, 0, 1.0)]))
    save_dataset(dataset, tmp_path / "data")
    policies = ("TopK", "MMFStar", "FairCoStar", "EquityRank")
    plan = ExperimentPlan(
        out_dir=str(tmp_path / "sweep"), dataset=str(tmp_path / "data"), policies=policies,
        alpha_grid=(0.0, 1.0), seeds=(0,), sim=SimConfig(list_size=3, mode=mode),
    )
    out = cmd_sweep(plan)
    rows = [line.split(",") for line in (out / "failures.csv").read_text().splitlines()[1:]]
    specs = [(p, a) for p in policies for a in cli.effective_alpha_grid(p, plan.alpha_grid)]
    assert [(p, float(a)) for p, a, _, _ in rows] == specs
    assert {error for *_, error in rows} == {"ValueError: catalog has fewer items than the list size"}
