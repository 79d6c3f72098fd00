"""The benchmark's own test: every workload at a tiny size, in-process.

    python3 -m pytest benchmarks

It is kept out of the tier-1 suite (``testpaths`` names only ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import run  # puts the checkout's src/ first on sys.path
import tracer
import workloads

TINY_DATA = dict(n_users=12, n_items=40, n_providers=4, group_size_skew=0.8, latent_dim=4, sparsity=0.25)
TINY = {
    "offline-sweep": workloads.OfflineSweep(generator=TINY_DATA),
    "online-desk": workloads.OnlineRun(generator=TINY_DATA, steps=300),
    "online-providers": workloads.OnlineRun(generator=dict(TINY_DATA, n_items=60, n_providers=30), steps=300),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def reference(monkeypatch, tmp_path):
    """Tiny workloads, with their own default-seed results as the reference."""
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    values = {}
    for name, workload in TINY.items():
        workdir = tmp_path / f"ref-{name}"
        workdir.mkdir()
        outcome = workload.unit(workload.setup(workloads.DEFAULT_SEED, workdir), workloads.DEFAULT_SEED, workdir, 0)
        assert not outcome.failed
        values[name] = {key: list(outcome.values[key]) for key in outcome.planned}
    monkeypatch.setattr(workloads, "load_reference", lambda: values)
    return values


def _run(capsys, name: str, trace: int, seed: int = workloads.DEFAULT_SEED) -> tuple[dict, str]:
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, out


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 5])
def test_end_to_end_metrics_printed_with_units(reference, capsys, name, seed):
    result, out = _run(capsys, name, trace=0, seed=seed)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {m: e["unit"] for m, e in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert result["metrics"][metric]["value"] > 0
        assert any(line.startswith(f"{name}: {metric} ") and line.endswith(f" {unit}") for line in out.splitlines())
    assert f"{name}: failed_frac    0 " in out


@pytest.mark.parametrize("name", list(TINY))
def test_perturbed_reference_counts_as_failed(reference, capsys, name):
    key = sorted(reference[name])[-1]
    reference[name][key][1] *= 1 + 1e-6
    result, out = _run(capsys, name, trace=0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert f"({result['failed']} of {result['attempted']} runs)" in out
    assert f"{name}: failed_frac    0 " not in out


def test_within_tolerance_reference_passes(reference, capsys):
    key = sorted(reference["online-desk"])[0]
    reference["online-desk"][key][1] *= 1 + 1e-12
    result, _ = _run(capsys, "online-desk", trace=0)
    assert result["correct"]


@pytest.mark.parametrize("name", list(TINY))
def test_trace_reports_every_layer_function(reference, capsys, name):
    result, out = _run(capsys, name, trace=1)
    assert result["correct"]
    assert [m for m in result["metrics"]] == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(isinstance(result["metrics"][f"{fn}.calls"]["value"], int) for fn in tracer.TRACED)
    assert "absent" not in out


def test_trace_lists_missing_function_as_absent(reference, capsys, monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "core.gone", ("equityrank.core", "gone"))
    result, out = _run(capsys, "online-desk", trace=1)
    assert "absent: core.gone" in out
    assert not any(m.startswith("core.gone") for m in result["metrics"])


def test_trace_restores_library_functions(reference):
    from equityrank import core, rankers, sim

    before = (sim.run_online, rankers.provider_arrays, core.RelevanceTable.get)
    with tracer.traced(tracer.Tracer()):
        assert sim.run_online is not before[0] and rankers.provider_arrays is not before[1]
    assert (sim.run_online, rankers.provider_arrays, core.RelevanceTable.get) == before


def test_host_speed_helper_samples_and_stops(tmp_path):
    with hostspeed.HostSpeed(tmp_path / "samples.txt") as host:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert host._proc.poll() is not None
    assert len(host.samples) >= 2
    assert host.speed(start, end) > 0
    assert host.speed(end + 100, end + 101) > 0  # the nearest sample when none fell inside


def _rows(runs: dict[str, tuple[str, ...]]) -> list[dict[str, str]]:
    rows = []
    for key, values in runs.items():
        policy, alpha, seed = key.split(",")
        rows.append(dict(mode="offline", policy=policy, alpha=alpha, seed=seed, **dict(zip(workloads.VALUE_FIELDS, values))))
    return rows


def test_sweep_checks_need_no_reference():
    sweep = TINY["offline-sweep"]
    planned = sweep.planned(0)
    topk, poork = ("1", "2.5", "3", "0.5"), ("0.5", "1.5", "2", "0.25")
    runs = {key: ("0.7", "1", "1", "0.1") for key in planned}
    for seed in (0, 1):
        runs[workloads.run_key("TopK", 0.0, seed)] = topk
        runs[workloads.run_key("PoorK", 0.0, seed)] = poork
        runs[workloads.run_key("MMFStar", 1.0, seed)] = poork
        for policy in workloads.COLLAPSE_TO_TOPK:
            runs[workloads.run_key(policy, 0.0, seed)] = topk
    # vertical allocation sums the same gains in another order
    runs[workloads.run_key("EquityRankV", 0.0, 1)] = ("1", "2.5000000000000004", "3", "0.5")
    _, failed = workloads.check_sweep_rows(_rows(runs), planned, [0, 1])
    assert failed == {}

    broken = dict(runs)
    del broken[workloads.run_key("FairCoStar", 0.1, 0)]
    broken[workloads.run_key("EquityRank", 0.0, 1)] = ("1", "2.5000000000000004", "3", "0.5")
    broken[workloads.run_key("MMFStar", 1.0, 0)] = topk
    _, failed = workloads.check_sweep_rows(_rows(broken), planned, [0, 1])
    assert set(failed) == {
        workloads.run_key("FairCoStar", 0.1, 0),
        workloads.run_key("EquityRank", 0.0, 1),
        workloads.run_key("MMFStar", 1.0, 0),
    }

    _, failed = workloads.check_sweep_rows(_rows(runs) * 2, planned, [0, 1])
    assert set(failed) == set(planned)


@pytest.mark.parametrize(
    "values",
    [(float("nan"), 1.0, 1.0, 0.5), (10.0, -1e-9, 1.0, 0.5), (200.5, 1.0, 1.0, 0.5)],
)
def test_online_checks_reject_impossible_results(values):
    assert workloads.check_online_values(values) is not None


def test_fails_without_library_sources(tmp_path):
    """A checkout holding only the benchmark exits nonzero and prints no result."""
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "benchmarks/run.py", "--workload", "online-desk", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_git_commit_found_in_packed_refs(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n" + "a" * 40 + " refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run._git_commit() == "a" * 40
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert run._git_commit() == "b" * 40
