"""CLI surface: generate / run / sweep / report, determinism, error lines."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from equityrank import GeneratorSpec, ScenarioSpec, SimConfig, cli, generate_dataset, load_dataset, rankers, run_offline, sim
from equityrank.cli import (
    DETERMINISTIC_FIELDS,
    ExperimentPlan,
    _build_parser,
    cmd_generate,
    cmd_report,
    cmd_run,
    cmd_sweep,
    effective_alpha_grid,
    main,
    resolve_plan,
)
from equityrank.synth import _read_rows, _write_rows

TINY = GeneratorSpec(n_users=30, n_items=60, n_providers=5, latent_dim=4, sparsity=0.2, seed=7)


def tiny_plan(out_dir, **overrides):
    base = dict(
        out_dir=str(out_dir),
        generator=TINY,
        scenario="common",
        policies=("TopK", "PoorK", "EquityRank"),
        alpha_grid=(0.0, 0.01, 1.0),
        seeds=(0, 1),
        sim=SimConfig(list_size=3, mode="offline"),
    )
    base.update(overrides)
    return ExperimentPlan(**base)


# 4 nonzero alphas x 3 seeds: EquityRank's and EquityRankV's 12 runs each run
# in lockstep batches, split 6 and 6 over two workers
BATCHED = dict(policies=("TopK", "EquityRank", "EquityRankV"), alpha_grid=(0.0, 1e-3, 0.01, 0.1, 1.0), seeds=(0, 1, 2))
ONLINE_POLICIES = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank")


def plan_specs(plan):
    return [(p, a, s) for p in plan.policies for a in effective_alpha_grid(p, plan.alpha_grid) for s in plan.seeds]


def record_lockstep(monkeypatch):
    """The (policy, alphas) of each lockstep batch that ``sim.run_offline_batch`` runs in this process from now on."""
    batches, lockstep = [], rankers._lockstep

    def recorded(plan, field, orders, alpha, ledgers, probs, vertical):
        policy = "EquityRankV" if vertical else plan.kind
        batches.append((policy, alpha.tolist()))
        return lockstep(plan, field, orders, alpha, ledgers, probs, vertical)

    monkeypatch.setattr(rankers, "_lockstep", recorded)
    return batches


class InProcessPool:
    """A stand-in for ``ProcessPoolExecutor`` that maps the units in this process."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestEffectiveGrid:
    def test_parameterless_policies_run_once(self):
        assert effective_alpha_grid("TopK", [0.0, 0.1, 1.0]) == [0.0]
        assert effective_alpha_grid("PoorK", [0.0, 0.1, 1.0]) == [0.0]

    def test_mmf_restricted_to_unit_interval(self):
        assert effective_alpha_grid("MMFStar", [0.0, 0.5, 1.0, 10.0]) == [0.0, 0.5, 1.0]

    def test_others_keep_grid(self):
        assert effective_alpha_grid("EquityRank", [0.0, 2.0]) == [0.0, 2.0]


class TestGenerate:
    def test_written_dataset_loads(self, tmp_path):
        out = cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "ds")
        ds = load_dataset(out)
        assert ds.catalog.item_count == TINY.n_items
        assert len(ds.profiles) == TINY.n_providers
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generator"]["seed"] == TINY.seed
        assert manifest["scenario"] == "Common"

    def test_same_seed_is_byte_identical(self, tmp_path):
        cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "a")
        cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "b")
        for name in ("catalog.csv", "providers.csv", "relevance.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_refuses_nonempty_without_force(self, tmp_path):
        out = cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "ds")
        with pytest.raises(ValueError, match="--force"):
            cmd_generate(TINY, ScenarioSpec.common(), out)
        cmd_generate(TINY, ScenarioSpec.common(), out, force=True)

    def test_a_datasets_manifest_regenerates_it_byte_for_byte(self, tmp_path):
        config = {"generator": dataclasses.asdict(TINY) | {"group_size_skew": 1.3}, "scenario": "sale1st"}
        (tmp_path / "gen.json").write_text(json.dumps(config))
        assert main(["generate", "--config", str(tmp_path / "gen.json"), "--out", str(tmp_path / "a")]) == 0
        assert main(["generate", "--config", str(tmp_path / "a" / "manifest.json"), "--out", str(tmp_path / "b")]) == 0
        for name in ("catalog.csv", "providers.csv", "relevance.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_spec_fails_before_writing(self, tmp_path):
        out = tmp_path / "never"
        with pytest.raises(ValueError):
            cmd_generate(GeneratorSpec(n_items=3, n_providers=5), ScenarioSpec.common(), out)
        assert not out.exists()


class TestRun:
    def test_offline_run_writes_result(self, tmp_path):
        ds_dir = cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "ds")
        ds = load_dataset(ds_dir)
        result = cmd_run(ds, "TopK", 0.0, 0, SimConfig(list_size=3), tmp_path / "out")
        text = (tmp_path / "out" / "result.csv").read_text()
        assert text.splitlines()[0] == "mode,policy,alpha,seed,effectiveness,unfairness,msd,pearson,wall_ms"
        assert result.effectiveness > 0.9  # true labels, pure relevance ranking

    def test_online_run_writes_series(self, tmp_path):
        ds = load_dataset(cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "ds"))
        cfg = SimConfig(list_size=3, mode="online", total_steps=250, checkpoint_every=100)
        cmd_run(ds, "EquityRank", 0.001, 1, cfg, tmp_path / "out")
        series = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert series[0] == "step,cndcg,unfairness"
        assert [row.split(",")[0] for row in series[1:]] == ["100", "200", "250"]


class TestSweep:
    def test_row_count_matches_effective_grids(self, tmp_path):
        plan = tiny_plan(tmp_path / "sweep")
        out = cmd_sweep(plan)
        rows = (out / "results.csv").read_text().splitlines()
        expected = sum(len(effective_alpha_grid(p, plan.alpha_grid)) * len(plan.seeds) for p in plan.policies)
        assert len(rows) - 1 == expected
        assert rows[0] == "mode,policy,alpha,seed,effectiveness,unfairness,msd,pearson"
        assert (out / "plan.json").is_file()
        assert (out / "timings.csv").is_file()
        assert (out / "summary.csv").is_file()
        for policy in plan.policies:
            assert (out / f"envelope_{policy}.csv").is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = cmd_sweep(tiny_plan(tmp_path / "a"))
        b = cmd_sweep(tiny_plan(tmp_path / "b"))
        for name in ("results.csv", "summary.csv", "envelope_TopK.csv", "envelope_EquityRank.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_alpha_zero_grid_collapses_to_topk(self, tmp_path):
        plan = tiny_plan(
            tmp_path / "collapse",
            policies=("TopK", "EquityRank", "FairCoStar", "MMFStar"),
            alpha_grid=(0.0,),
            seeds=(0,),
        )
        out = cmd_sweep(plan)
        rows = (out / "results.csv").read_text().splitlines()[1:]
        effectiveness = {row.split(",")[1]: row.split(",")[4] for row in rows}
        assert len(set(effectiveness.values())) == 1

    def test_failed_runs_are_recorded_and_sweep_continues(self, tmp_path):
        plan = tiny_plan(
            tmp_path / "failing",
            policies=("TopK", "EquityRankV"),
            alpha_grid=(0.0,),
            seeds=(0,),
            sim=SimConfig(list_size=3, mode="online", total_steps=50),
        )
        out = cmd_sweep(plan)
        results = (out / "results.csv").read_text().splitlines()
        assert len(results) - 1 == 1  # only TopK succeeded
        failures = (out / "failures.csv").read_text()
        assert "EquityRankV" in failures

    def test_failures_csv_reads_back_the_error_message(self, tmp_path, monkeypatch):
        message = 'bad "x", y, ünï'
        result = sim._result

        def failing_result(mode, policy, alpha, seed, *args):
            if policy == "EquityRank" and alpha == 0.01 and seed == 1:
                raise ValueError(message)
            return result(mode, policy, alpha, seed, *args)

        monkeypatch.setattr(sim, "_result", failing_result)
        out = cmd_sweep(tiny_plan(tmp_path / "failing"))
        rows = _read_rows(out / "failures.csv", ["policy", "alpha", "seed", "error"])
        assert [row for _, row in rows] == [["EquityRank", "0.01", "1", "ValueError: " + message]]

    @pytest.mark.parametrize("mode", ["offline", "online"])
    def test_a_failing_source_fails_each_of_its_copies_with_its_message(self, tmp_path, monkeypatch, mode):
        # EquityRank at alpha 0 copies TopK's run and MMF* at alpha 1 PoorK's: neither is served
        result, served = sim._result, []

        def failing_result(mode, policy, alpha, seed, *args):
            served.append((policy, alpha, seed))
            if seed == 1 and policy in ("TopK", "PoorK"):
                raise RuntimeError(f"patched {policy}")
            return result(mode, policy, alpha, seed, *args)

        monkeypatch.setattr(sim, "_result", failing_result)
        cfg = SimConfig(list_size=3, mode=mode, total_steps=40, checkpoint_every=20)
        policies = ("TopK", "PoorK", "MMFStar", "EquityRank")
        out = cmd_sweep(tiny_plan(tmp_path / "failing", policies=policies, sim=cfg))
        rows = [row for _, row in _read_rows(out / "failures.csv", ["policy", "alpha", "seed", "error"])]
        # offline, MMF* at alpha 0 copies TopK's run too; online it is served
        mmf_zero = [["MMFStar", "0", "1", "RuntimeError: patched TopK"]] if mode == "offline" else []
        assert rows == [
            ["TopK", "0", "1", "RuntimeError: patched TopK"],
            ["PoorK", "0", "1", "RuntimeError: patched PoorK"],
            *mmf_zero,
            ["MMFStar", "1", "1", "RuntimeError: patched PoorK"],
            ["EquityRank", "0", "1", "RuntimeError: patched TopK"],
        ]
        assert ("EquityRank", 0.0, 0) not in served and ("MMFStar", 1.0, 0) not in served
        assert (("MMFStar", 0.0, 0) in served) == (mode == "online")
        assert ("EquityRank", 0.01, 0) in served

    @pytest.mark.parametrize("mode", ["offline", "online"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_run_fails_alone_in_its_policys_unit(self, tmp_path, monkeypatch, workers, mode):
        # the patch is inherited by forked workers; each run of a unit fails or succeeds alone
        result = sim._result

        def failing_result(mode, policy, alpha, seed, *args):
            if policy == "MMFStar" and alpha == 0.01 and seed == 1:
                raise RuntimeError("patched")
            return result(mode, policy, alpha, seed, *args)

        cfg = SimConfig(list_size=3, mode=mode, total_steps=60, checkpoint_every=25)
        plan = tiny_plan(tmp_path / "sweep", policies=("TopK", "MMFStar"), seeds=(0, 1, 2), sim=cfg, workers=workers)
        units = cli._units(plan_specs(plan), mode, workers)
        offline_sizes = {1: [9, 3], 2: [5, 4, 2, 1]}[workers]
        assert [len(unit) for unit in units] == (offline_sizes if mode == "offline" else [1] * 12)
        serial = cmd_sweep(dataclasses.replace(plan, out_dir=str(tmp_path / "whole")))
        monkeypatch.setattr(sim, "_result", failing_result)
        out = cmd_sweep(plan)
        rows = _read_rows(out / "failures.csv", ["policy", "alpha", "seed", "error"])
        assert [row for _, row in rows] == [["MMFStar", "0.01", "1", "RuntimeError: patched"]]
        # every other run of the sweep, those of the failing run's unit included, is written
        lines = (serial / "results.csv").read_text().splitlines()
        want = [line for line in lines if not line.startswith(f"{mode},MMFStar,0.01,1,")]
        assert (out / "results.csv").read_text().splitlines() == want
        if mode == "online":  # with its series file, the failing run's alone left out
            series = {p.name: p.read_bytes() for p in (serial / "series").iterdir()}
            del series["MMFStar_a0.01_s1.csv"]
            assert {p.name: p.read_bytes() for p in (out / "series").iterdir()} == series

    @pytest.mark.parametrize("mode", ["offline", "online"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_driver_that_raises_fails_every_run_of_its_unit(self, tmp_path, workers, mode):
        # a list of 10 on 8 items: the mode's driver refuses the dataset for the whole unit,
        # and the sweep records each planned run as failed and exits 0
        config = {
            "generator": {"n_users": 6, "n_items": 8, "n_providers": 2, "latent_dim": 2, "seed": 3},
            "policies": ["TopK", "EquityRank"],
            "alpha_grid": [0.0, 0.5],
            "seeds": [0, 1],
            "sim": {"list_size": 10, "mode": mode, "total_steps": 20},
            "workers": workers,
        }
        cfg_path, out = tmp_path / "plan.json", tmp_path / "results"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = _read_rows(out / "failures.csv", ["policy", "alpha", "seed", "error"])
        planned = [["TopK", "0", "0"], ["TopK", "0", "1"]]
        planned += [["EquityRank", alpha, seed] for alpha in ("0", "0.5") for seed in ("0", "1")]
        assert [row for _, row in rows] == [spec + ["ValueError: catalog has fewer items than the list size"] for spec in planned]
        assert (out / "results.csv").read_text().splitlines() == ["mode,policy,alpha,seed,effectiveness,unfairness,msd,pearson"]

    @pytest.mark.parametrize("driver", ["run_offline_batch", "run_online_batch"])
    def test_an_interrupted_serial_sweep_lets_go_of_its_dataset(self, tmp_path, monkeypatch, driver):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, driver, interrupted)
        mode = "online" if driver == "run_online_batch" else "offline"
        with pytest.raises(KeyboardInterrupt):
            cmd_sweep(tiny_plan(tmp_path / "interrupted", sim=SimConfig(list_size=3, mode=mode, total_steps=20)))
        assert cli._POOL_DATASET is None and cli._POOL_SIM is None

    def test_online_sweep_writes_series_files(self, tmp_path):
        plan = tiny_plan(
            tmp_path / "online",
            policies=("TopK",),
            alpha_grid=(0.0,),
            seeds=(0, 1),
            sim=SimConfig(list_size=3, mode="online", total_steps=120, checkpoint_every=60),
        )
        out = cmd_sweep(plan)
        series = sorted(p.name for p in (out / "series").iterdir())
        assert series == ["TopK_a0.0_s0.csv", "TopK_a0.0_s1.csv"]

    def test_a_serial_online_sweep_prefilters_each_seed_once(self, tmp_path, monkeypatch):
        # the units go seed by seed, so a seed's runs share its prefiltered rows
        plan = tiny_plan(
            tmp_path / "online",
            policies=("TopK", "PoorK", "EquityRank"),
            alpha_grid=(0.01,),
            seeds=(1, 0),
            sim=SimConfig(list_size=3, mode="online", total_steps=40, checkpoint_every=20),
        )
        specs = plan_specs(plan)
        units = cli._units(specs, "online", 1)
        assert [specs[i] for (i,) in units] == [(p, a, s) for s in (1, 0) for p, a, _ in specs[::2]]
        prefilter, users = sim.prefilter_candidates, []
        monkeypatch.setattr(sim, "prefilter_candidates", lambda user, *args: users.append(user) or prefilter(user, *args))
        out = cmd_sweep(plan)
        assert sorted(users) == sorted(list(range(TINY.n_users)) * 2)
        # results are written in plan order
        rows = _read_rows(out / "results.csv", list(DETERMINISTIC_FIELDS))
        assert [(row[1], row[3]) for _, row in rows] == [(p, str(s)) for p, _, s in specs]

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        serial = cmd_sweep(tiny_plan(tmp_path / "serial"))
        parallel = cmd_sweep(tiny_plan(tmp_path / "parallel", workers=2))
        assert (serial / "results.csv").read_bytes() == (parallel / "results.csv").read_bytes()

        plan = tiny_plan(tmp_path / "batched-serial", **BATCHED)
        batches = record_lockstep(monkeypatch)
        serial = cmd_sweep(plan)
        assert sorted(len(alphas) for _, alphas in batches) == [12, 12]
        parallel = cmd_sweep(dataclasses.replace(plan, out_dir=str(tmp_path / "batched-parallel"), workers=2))
        names = ["results.csv", "summary.csv"] + [f"envelope_{p}.csv" for p in BATCHED["policies"]]
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

        # online, each run is a unit, served by run_online_batch
        online = SimConfig(list_size=3, mode="online", total_steps=80, checkpoint_every=30)
        plan = tiny_plan(tmp_path / "online-serial", policies=ONLINE_POLICIES, sim=online)
        serial = cmd_sweep(plan)
        parallel = cmd_sweep(dataclasses.replace(plan, out_dir=str(tmp_path / "online-parallel"), workers=2))
        series = sorted(p.name for p in (serial / "series").iterdir())
        assert len(series) == len(plan_specs(plan))
        assert sorted(p.name for p in (parallel / "series").iterdir()) == series
        names = ["results.csv", "summary.csv"] + [f"envelope_{p}.csv" for p in ONLINE_POLICIES]
        for name in names + [f"series/{name}" for name in series]:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    def test_fairco_groups_are_batched_and_mmf_poork_and_ledger_blind_runs_stay_single(self, tmp_path, monkeypatch):
        policies = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
        plan = tiny_plan(tmp_path / "sweep", policies=policies, alpha_grid=(0.0, 1e-3, 0.1, 1.0), seeds=(0, 1, 2, 3))
        specs = plan_specs(plan)
        # FairCo* at alpha 0 copies TopK's runs (cli._sources), so only its nonzero alphas are served
        batched = sorted((p, a) for p, a, _ in specs if p in ("FairCoStar", "EquityRank", "EquityRankV") and a)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        batches = record_lockstep(monkeypatch)
        for workers, sizes in ((1, [12, 12, 12]), (2, [6, 6, 6, 6, 6, 6])):
            # each policy's offline runs are dealt out to the workers, one unit per share, longest first
            units = cli._units(specs, "offline", workers)
            assert sorted(i for unit in units for i in unit) == list(range(len(specs)))
            assert [len(unit) for unit in units] == sorted((len(unit) for unit in units), reverse=True)
            for policy in policies:
                group = [i for i, spec in enumerate(specs) if spec[0] == policy]
                shares = sorted(unit for unit in units if specs[unit[0]][0] == policy)
                assert shares == sorted(group[w::workers] for w in range(workers))
            assert all(len(unit) == 1 for unit in cli._units(specs, "online", workers))
            # the driver batches FairCo*'s runs and EquityRank's and EquityRankV's at nonzero alpha
            monkeypatch.setattr(os, "cpu_count", lambda: workers)
            batches.clear()
            cmd_sweep(dataclasses.replace(plan, out_dir=str(tmp_path / f"sweep-{workers}"), workers=workers))
            assert sorted((policy, alpha) for policy, alphas in batches for alpha in alphas) == batched
            assert sorted((len(alphas) for _, alphas in batches), reverse=True) == sizes

    def test_batched_sweep_writes_the_results_of_its_runs_alone(self, tmp_path):
        # 1e308 overflows the scores: those runs fail alone, with run_offline's message
        plan = tiny_plan(tmp_path / "sweep", **{**BATCHED, "alpha_grid": (*BATCHED["alpha_grid"], 1e308)})
        dataset = generate_dataset(TINY, ScenarioSpec.common())
        results, failures = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            out = cmd_sweep(plan)
            for policy, alpha, seed in plan_specs(plan):
                try:
                    results.append(run_offline(dataset, policy, alpha, seed, plan.sim).deterministic_values())
                except ValueError as exc:
                    failures.append((policy, alpha, seed, f"ValueError: {exc}"))
        _write_rows(tmp_path / "results.csv", DETERMINISTIC_FIELDS, results)
        _write_rows(tmp_path / "failures.csv", cli.FAILURES_HEADER, failures)
        assert [row[:2] for row in failures] == [("EquityRank", 1e308)] * 3 + [("EquityRankV", 1e308)] * 3
        assert (out / "results.csv").read_bytes() == (tmp_path / "results.csv").read_bytes()
        assert (out / "failures.csv").read_bytes() == (tmp_path / "failures.csv").read_bytes()

    def test_worker_processes_are_capped_by_runs_and_cores(self, tmp_path, monkeypatch):
        started = []

        class RecordingPool(InProcessPool):  # records the pool size
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                super().__init__(max_workers, initializer, initargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        out = cmd_sweep(tiny_plan(tmp_path / "cores", workers=10**6))  # 10 runs
        assert started == [3]
        assert json.loads((out / "plan.json").read_text())["workers"] == 10**6
        serial = cmd_sweep(tiny_plan(tmp_path / "serial"))
        assert (out / "results.csv").read_bytes() == (serial / "results.csv").read_bytes()

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cmd_sweep(tiny_plan(tmp_path / "runs", workers=10**6, policies=("TopK",)))  # 2 runs
        assert started == [3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process, no pool
        cmd_sweep(tiny_plan(tmp_path / "unknown", workers=10**6))
        assert started == [3, 2]


class TestReport:
    @pytest.fixture()
    def sweep_dir(self, tmp_path):
        plan = tiny_plan(
            tmp_path / "sweep",
            policies=("TopK", "PoorK", "FairCoStar", "EquityRankV"),
            alpha_grid=(0.0, 0.01, 1.0, 100.0),
        )
        return cmd_sweep(plan)

    def test_tables_and_svg(self, sweep_dir):
        out = cmd_report(sweep_dir)
        table = (out / "report_min_unfairness.csv").read_text().splitlines()
        assert table[0] == "policy,alpha,unfairness_mean,unfairness_std,effectiveness_mean,wall_ms_mean"
        unfairness_col = [float(r.split(",")[2]) for r in table[1:]]
        assert unfairness_col == sorted(unfairness_col)
        policies = [r.split(",")[0] for r in table[1:]]
        assert policies.index("TopK") > policies.index("PoorK")
        assert policies.index("TopK") > policies.index("EquityRankV")
        assert (out / "report_alignment.csv").is_file()

    def test_svg_is_wellformed_with_one_polyline_per_policy(self, sweep_dir):
        out = cmd_report(sweep_dir)
        tree = ET.parse(out / "tradeoff.svg")
        root = tree.getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 4

    def test_envelopes_nondecreasing(self, sweep_dir):
        for env in sweep_dir.glob("envelope_*.csv"):
            rows = env.read_text().splitlines()[1:]
            thresholds = [float(r.split(",")[0]) for r in rows]
            values = [float(r.split(",")[1]) for r in rows]
            assert thresholds == sorted(thresholds)
            assert all(a <= b for a, b in zip(values, values[1:]))

    RESULTS = "mode,policy,alpha,seed,effectiveness,unfairness,msd,pearson\noffline,TopK,0,0,0.9,0.5,nan,nan\n"
    TIMINGS = "policy,alpha,seed,wall_ms\nTopK,0,0,1.5\n"

    @pytest.mark.parametrize(
        "results, timings, message",
        [
            pytest.param(
                "mode,policy,alpha,seed,effectiveness,msd,pearson\noffline,TopK,0,0,0.9,nan,nan\n",
                TIMINGS,
                "results.csv row 1: expected header mode,policy,alpha,seed,effectiveness,unfairness,msd,pearson",
                id="no-unfairness-column",
            ),
            pytest.param(
                RESULTS.replace(",nan\n", "\n"), TIMINGS, "results.csv row 2: expected 8 columns", id="short-row"
            ),
            pytest.param(
                RESULTS,
                "policy,alpha,seed\nTopK,0,0\n",
                "timings.csv row 1: expected header policy,alpha,seed,wall_ms",
                id="no-wall_ms-column",
            ),
        ],
    )
    def test_malformed_input_fails_with_error_line(self, tmp_path, capsys, results, timings, message):
        (tmp_path / "results.csv").write_text(results)
        (tmp_path / "timings.csv").write_text(timings)
        assert main(["report", "--results", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {"status": "error", "message": message}

    @pytest.mark.parametrize("reverse", [False, True], ids=["nan-first", "nan-last"])
    def test_min_unfairness_point_skips_nan_in_either_row_order(self, tmp_path, reverse):
        rows = [
            "offline,TopK,0,0,0.9,nan,nan,nan",
            "offline,TopK,0.5,0,0.8,0.5,nan,nan",
            "offline,PoorK,0,0,0.7,nan,nan,nan",
            "offline,PoorK,1,0,0.6,nan,nan,nan",
            "offline,EquityRank,0.1,0,0.5,0.9,nan,nan",
        ]
        header = ",".join(DETERMINISTIC_FIELDS)
        (tmp_path / "results.csv").write_text("\n".join([header, *(rows[::-1] if reverse else rows)]) + "\n")
        table = _read_rows(cmd_report(tmp_path) / "report_min_unfairness.csv", cli.MIN_UNFAIRNESS_HEADER)
        picked = [(policy, float(alpha), float(unfairness)) for _, (policy, alpha, unfairness, *_) in table]
        # PoorK has no number, so it reads NaN at its lowest alpha, listed last
        assert picked[:2] == [("TopK", 0.5, 0.5), ("EquityRank", 0.1, 0.9)]
        assert picked[2][:2] == ("PoorK", 0.0) and math.isnan(picked[2][2])

    @pytest.mark.filterwarnings("error")
    def test_a_sweep_with_infinite_unfairness_warns_nothing_and_reports(self, tmp_path, capsys):
        # every v_e at 1e300 overflows the unfairness to inf, and the alignment's correlation and the
        # summary's std to nan: as values, with no warning, so no run fails under warnings as errors
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"generator": {"n_users": 20, "n_items": 40, "n_providers": 4, "latent_dim": 4, "seed": 1}}))
        data, out = tmp_path / "data", tmp_path / "sweep"
        assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
        header = ("provider_id", "v_e", "v_b", "y")
        providers = [(g, 1e300, vb, y) for _, (g, _, vb, y) in _read_rows(data / "providers.csv", header)]
        _write_rows(data / "providers.csv", header, providers)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"policies": ["TopK", "PoorK"], "seeds": [0, 1]}))
        assert main(["sweep", "--config", str(plan), "--dataset", str(data), "--out", str(out)]) == 0
        assert not (out / "failures.csv").exists()
        rows = [row for _, row in _read_rows(out / "results.csv", list(DETERMINISTIC_FIELDS))]
        assert len(rows) == 4 and all(row[5] == "inf" and row[7] == "nan" for row in rows)
        assert main(["report", "--results", str(out)]) == 0
        # the envelopes and tables keep the infinite points; the plot leaves them out
        assert (out / "envelope_TopK.csv").read_text().splitlines()[1] == "inf,1"
        assert _read_rows(out / "report_min_unfairness.csv", cli.MIN_UNFAIRNESS_HEADER)[0][1][2] == "inf"
        svg = (out / "tradeoff.svg").read_text()
        assert "inf" not in svg and "nan" not in svg
        polylines = ET.parse(out / "tradeoff.svg").getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
        assert [line.get("points") for line in polylines] == ["", ""]

    def test_a_point_of_infinite_effectiveness_is_left_out_of_the_plot(self, tmp_path):
        rows = ["offline,TopK,0,0,inf,0.5,nan,nan", "offline,EquityRank,0.1,0,0.5,0.25,nan,nan"]
        (tmp_path / "results.csv").write_text("\n".join([",".join(DETERMINISTIC_FIELDS), *rows]) + "\n")
        assert main(["report", "--results", str(tmp_path)]) == 0
        svg = (tmp_path / "tradeoff.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        polylines = ET.parse(tmp_path / "tradeoff.svg").getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
        assert [len(line.get("points").split()) for line in polylines] == [1, 0]

    def test_empty_results_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        (empty / "results.csv").write_text("mode,policy,alpha,seed,effectiveness,unfairness,msd,pearson\n")
        with pytest.raises(ValueError):
            cmd_report(empty)


class TestMainEntry:
    def test_generate_and_run_exit_codes(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["generate", "--out", str(ds), "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["run", "--dataset", str(ds), "--policy", "TopK", "--mode", "offline"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("mode,policy,")
        assert out[1].startswith("offline,TopK,")

    def test_run_and_sweep_refuse_record_ndcg(self, tmp_path, capsys):
        ds = cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "ds")
        path = tmp_path / "config.json"
        sim = {"list_size": 3, "mode": "online", "total_steps": 250, "checkpoint_every": 100, "record_ndcg": True}
        path.write_text(json.dumps({"sim": sim}))
        argv = ["run", "--config", str(path), "--dataset", str(ds), "--policy", "TopK", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "record_ndcg must be false in a run" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        argv = ["sweep", "--config", str(path), "--dataset", str(ds), "--out", str(tmp_path / "sweep")]
        assert main(argv) == 2
        assert "record_ndcg must be false in a sweep" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_importing_the_cli_loads_no_multiprocessing(self):
        # the pool's import is deferred to a sweep with workers > 1
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, equityrank.cli; print('multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_error_line_is_machine_readable(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["generate", "--out", str(ds)]) == 0
        capsys.readouterr()
        rc = main(["generate", "--out", str(ds)])  # refuses: not empty
        assert rc == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["status"] == "error"
        assert "--force" in payload["message"]

    def test_generate_rejects_unknown_generator_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"generator": {"n_users": 5, "bogus": 1}}))
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "ds")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert "bogus" in payload["message"]
        assert not (tmp_path / "ds").exists()

    def test_sweep_and_report_via_cli(self, tmp_path, capsys):
        config = {
            "generator": {"n_users": 20, "n_items": 40, "n_providers": 4, "latent_dim": 4, "sparsity": 0.2, "seed": 5},
            "policies": ["TopK", "EquityRank"],
            "alpha_grid": [0.0, 0.1],
            "seeds": [0],
            "sim": {"list_size": 3, "mode": "offline"},
        }
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "results"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["report", "--results", str(out)]) == 0
        assert (out / "tradeoff.svg").is_file()


def sweep_args(*argv):
    return _build_parser().parse_args(["sweep", *argv])


class TestPlanResolution:
    def write_config(self, tmp_path, **extra):
        config = {"generator": {"n_users": 10, "n_items": 20, "n_providers": 3, "seed": 1}, "seeds": [0]}
        config.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_unknown_top_level_key_fails_with_error_line(self, tmp_path, capsys):
        # "seed" is not a plan key ("seeds" is): it used to be ignored, and
        # the default seeds ran instead
        path = self.write_config(tmp_path, seed=[1, 2])
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["status"] == "error"
        assert "unknown top-level config keys: ['seed']" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_config_workers_are_honoured_and_the_flag_overrides_them(self, tmp_path):
        path = self.write_config(tmp_path, workers=4)
        assert resolve_plan(sweep_args("--config", str(path), "--out", "o")).workers == 4
        assert resolve_plan(sweep_args("--config", str(path), "--out", "o", "--workers", "2")).workers == 2
        assert resolve_plan(sweep_args("--config", str(self.write_config(tmp_path)), "--out", "o")).workers == 1

    def test_zero_workers_flag_fails_with_error_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, workers=3)
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--workers", "0"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"status": "error", "message": "workers must be positive"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command",
        [["generate", "--out"], ["run", "--dataset", "ds", "--policy", "TopK", "--out"]],
        ids=["generate", "run"],
    )
    def test_generate_and_run_reject_an_unknown_top_level_key(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, bogus=1)
        rc = main([*command, str(tmp_path / "out"), "--config", str(path)])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"status": "error", "message": "unknown top-level config keys: ['bogus']"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["generator", "dataset"])
    def test_a_sweeps_plan_json_resolves_to_the_same_plan(self, tmp_path, source):
        plan = tiny_plan(tmp_path / "first", alpha_grid=(0.0, 0.5), sim=SimConfig(list_size=3, cutoff=2, mode="offline"))
        if source == "dataset":
            ds_dir = cmd_generate(TINY, ScenarioSpec.common(), tmp_path / "ds")
            plan = tiny_plan(tmp_path / "first", dataset=str(ds_dir), generator=None)
        out = cmd_sweep(plan)
        resolved = resolve_plan(sweep_args("--config", str(out / "plan.json")))
        assert resolved == plan
        assert resolved.to_json() == (out / "plan.json").read_text()


class TestPlanValues:
    @pytest.mark.parametrize(
        "field, values",
        [("policies", ("EquityRank", "TopK", "EquityRank")), ("alpha_grid", (0.1, 0.1)), ("seeds", (0, 1, 0))],
    )
    def test_repeated_values_are_rejected(self, tmp_path, field, values):
        with pytest.raises(ValueError, match=f"{field} must not repeat a value"):
            tiny_plan(tmp_path, **{field: values})

    def test_repeated_config_values_fail_before_any_run(self, tmp_path, capsys):
        config = {"seeds": [0, 0], "policies": ["EquityRank", "EquityRank"], "alpha_grid": [0.1, 0.1]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "must not repeat a value" in json.loads(capsys.readouterr().err.strip())["message"]
        assert not (tmp_path / "out").exists()


class TestConfigValueTypes:
    """Config values are checked when the plan is resolved, not coerced: a
    truncated seed or worker count ran silently, and a bad alpha or list
    size failed once per run in failures.csv."""

    BASE = {"generator": {"n_users": 10, "n_items": 20, "n_providers": 3, "seed": 1}, "seeds": [0]}

    def resolve_config(self, tmp_path, **extra):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.BASE, **extra}))
        return resolve_plan(sweep_args("--config", str(path), "--out", str(tmp_path / "out")))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"seeds": [0.5, 1.5]}, "seeds must be a whole number, got 0.5"),
            ({"seeds": [True]}, "seeds must be a number, got True"),
            ({"seeds": ["1"]}, "seeds must be a number, got '1'"),
            ({"seeds": [-1]}, "seeds must be nonnegative"),
            ({"seeds": 3}, "seeds must be a list, got 3"),
            ({"workers": 2.9}, "workers must be a whole number, got 2.9"),
            ({"workers": True}, "workers must be a number, got True"),
            ({"workers": "2"}, "workers must be a number, got '2'"),
            ({"alpha_grid": ["0.1"]}, "alpha_grid must be a number, got '0.1'"),
            ({"alpha_grid": [float("nan")]}, "alpha_grid values must be finite and nonnegative, got nan"),
            ({"alpha_grid": [float("inf")]}, "alpha_grid values must be finite and nonnegative, got inf"),
            ({"alpha_grid": [0.1, -1]}, "alpha_grid values must be finite and nonnegative, got -1"),
            ({"alpha_grid": [False]}, "alpha_grid must be a number, got False"),
            ({"sim": {"list_size": 2.5}}, "sim list_size must be a whole number, got 2.5"),
            ({"sim": {"total_steps": True}}, "sim total_steps must be a number, got True"),
            ({"sim": {"cutoff": "2"}}, "sim cutoff must be a number, got '2'"),
            ({"sim": {"prefilter_size": 20.5}}, "sim prefilter_size must be a whole number, got 20.5"),
            ({"sim": {"checkpoint_every": 1e3 + 0.5}}, "sim checkpoint_every must be a whole number, got 1000.5"),
            ({"sim": {"gamma": "0.9"}}, "sim gamma must be a number, got '0.9'"),
            ({"sim": [1]}, "the sim config must be a JSON object, got [1]"),
            (
                {"generator": {"n_users": 10.5, "n_items": 20, "n_providers": 3}},
                "generator n_users must be a whole number, got 10.5",
            ),
            ({"generator": {"sparsity": "0.2"}}, "generator sparsity must be a number, got '0.2'"),
            ({"scenario": 5}, "unknown scenario 5; expected one of ['common', 'exp1st', 'sale1st']"),
            ({"sim": {"record_ndcg": "no"}}, "sim record_ndcg must be true or false, got 'no'"),
            ({"sim": {"record_ndcg": 1}}, "sim record_ndcg must be true or false, got 1"),
            (
                {"sim": {"record_ndcg": True}},
                "sim record_ndcg must be false in a sweep: no sweep file holds the NDCG series",
            ),
        ],
    )
    def test_bad_value_fails_with_error_line_before_any_run(self, tmp_path, capsys, extra, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.BASE, **extra}))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip()) == {"status": "error", "message": message}
        assert not (tmp_path / "out").exists()

    def test_generate_rejects_a_scenario_that_is_not_a_name(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.BASE, "scenario": 5}))
        rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "ds")])
        assert rc == 2
        message = "unknown scenario 5; expected one of ['common', 'exp1st', 'sale1st']"
        assert json.loads(capsys.readouterr().err.strip()) == {"status": "error", "message": message}
        assert not (tmp_path / "ds").exists()

    def test_whole_floats_are_read_as_integers(self, tmp_path):
        plan = self.resolve_config(
            tmp_path, seeds=[1.0, 2], workers=2.0, alpha_grid=[0, 0.5], sim={"list_size": 3.0, "total_steps": 1e3}
        )
        assert plan.seeds == (1, 2) and all(type(s) is int for s in plan.seeds)
        assert plan.workers == 2 and type(plan.workers) is int
        assert plan.alpha_grid == (0.0, 0.5) and all(type(a) is float for a in plan.alpha_grid)
        assert plan.sim.list_size == 3 and type(plan.sim.list_size) is int
        assert plan.sim.total_steps == 1000 and type(plan.sim.total_steps) is int

    def test_nan_alpha_flag_is_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.BASE))
        with pytest.raises(ValueError, match="alpha_grid values must be finite"):
            resolve_plan(sweep_args("--config", str(path), "--out", "o", "--alpha", "nan"))

    BAD_ALPHA = "alpha_grid values must be finite and nonnegative"

    @pytest.mark.parametrize(
        "field, values, message",
        [
            pytest.param("seeds", (0, -2), "seeds must be nonnegative", id="negative-seed"),
            pytest.param("alpha_grid", (math.nan, -1.0), f"{BAD_ALPHA}, got nan", id="nan-alpha"),
            pytest.param("alpha_grid", (0.1, math.inf), f"{BAD_ALPHA}, got inf", id="inf-alpha"),
            pytest.param("alpha_grid", (0.1, -1.0), f"{BAD_ALPHA}, got -1", id="negative-alpha"),
        ],
    )
    def test_negative_seed_fails_in_the_plan(self, tmp_path, field, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_plan(tmp_path, **{field: values})


CONFIG_FIELDS = [
    pytest.param(section, f.name, id=f"{section or 'plan'}.{f.name}")
    for cls, section in ((ExperimentPlan, None), (SimConfig, "sim"), (GeneratorSpec, "generator"))
    for f in dataclasses.fields(cls)
]


class TestConfigFields:
    """Every field of every config section follows the same rules, read off
    the dataclasses: null is the default, and a value of the wrong type
    fails before any run."""

    BASE = {"generator": {"n_users": 10, "n_items": 20, "n_providers": 3, "seed": 1}, "seeds": [0]}

    def config_with(self, section, name, value):
        config = json.loads(json.dumps(self.BASE))
        target = config if section is None else config.setdefault(section, {})
        target[name] = value
        return config, target

    @pytest.mark.parametrize("section, name", CONFIG_FIELDS)
    def test_null_is_the_default_and_a_wrong_type_fails(self, tmp_path, capsys, monkeypatch, section, name):
        def write(config):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            return str(path)

        with_null, _ = self.config_with(section, name, None)
        without, target = self.config_with(section, name, None)
        del target[name]
        out = ("--out", str(tmp_path / "out"))
        assert resolve_plan(sweep_args("--config", write(with_null), *out)) == resolve_plan(
            sweep_args("--config", write(without), *out)
        )

        # a list holding null has the wrong type for every field, and its
        # null is not read as a default
        wrong, _ = self.config_with(section, name, [None])
        wrong.setdefault("out_dir", str(tmp_path / "out"))
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", write(wrong)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["status"] == "error" and name in payload["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
