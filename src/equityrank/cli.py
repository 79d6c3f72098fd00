"""Experiment driver: dataset generation, runs, alpha sweeps, and reports.

``generate``, ``run`` and ``sweep`` read one config shape, the fields of
``ExperimentPlan`` as JSON, with CLI flags laid over the ``--config`` file
and the dataclasses' defaults filling the rest. Each value is coerced to
its field's annotated type at this boundary; README "Plans and configs"
has the rules, and "Sweep outputs" the files a sweep writes. A sweep serves
each class of runs that provably equal one another once (``_sources``:
EquityRank, FairCo* and offline MMF* at alpha 0 are TopK's run where they
provably are, MMF* at alpha 1 is PoorK's) and writes the other members from
that run's outcome. It deals each policy's served offline runs out to its
workers, one unit per share, and a served online run is a unit alone; the
mode's ``sim`` driver serves each unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .metrics import RESULT_FIELDS, RunResult, tradeoff_envelope
from .plots import write_tradeoff_svg
from .core import PositionModel, provider_arrays
from .rankers import POLICY_KINDS, ratios_stay_finite, spans_stay_finite
from .sim import SimConfig, _check_dataset, _offline_field, run_offline, run_offline_batch, run_online, run_online_batch
from .synth import Dataset, GeneratorSpec, ScenarioSpec, generate_dataset, load_dataset, save_dataset
from .synth import _read_rows, _write_rows

__all__ = [
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_SEEDS",
    "ExperimentPlan",
    "cmd_generate",
    "cmd_report",
    "cmd_run",
    "cmd_sweep",
    "effective_alpha_grid",
    "main",
]

DEFAULT_ALPHA_GRID = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DETERMINISTIC_FIELDS = RESULT_FIELDS[:-1]  # wall_ms lives in timings.csv
TIMINGS_HEADER = ("policy", "alpha", "seed", "wall_ms")
FAILURES_HEADER = ("policy", "alpha", "seed", "error")
SERIES_HEADER = ("step", "cndcg", "unfairness")
ENVELOPE_HEADER = ("threshold", "effectiveness")
# after mode, policy and alpha, the columns are keys of _group_stats
SUMMARY_HEADER = tuple(
    "mode,policy,alpha,runs,effectiveness_mean,effectiveness_std,unfairness_mean,unfairness_std,msd_mean,pearson_mean"
    .split(",")
)
MIN_UNFAIRNESS_HEADER = ("policy", "alpha", "unfairness_mean", "unfairness_std", "effectiveness_mean", "wall_ms_mean")
ALIGNMENT_HEADER = ("policy", "alpha", "msd_mean", "pearson_mean")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce a sweep."""

    out_dir: str
    dataset: str | None = None
    generator: GeneratorSpec | None = None
    scenario: str = "common"
    policies: tuple[str, ...] = POLICY_KINDS
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    sim: SimConfig = SimConfig()
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.policies or not self.alpha_grid or not self.seeds:
            raise ValueError("policies, alpha_grid, and seeds must be nonempty")
        for policy in self.policies:
            if policy not in POLICY_KINDS:
                raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_KINDS}")
        if self.dataset is None and self.generator is None:
            raise ValueError("plan needs either a dataset path or a generator spec")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if min(self.seeds) < 0:
            raise ValueError("seeds must be nonnegative")
        if self.sim.record_ndcg:
            raise ValueError("sim record_ndcg must be false in a sweep: no sweep file holds the NDCG series")
        for alpha in self.alpha_grid:
            if not (math.isfinite(alpha) and alpha >= 0):
                raise ValueError(f"alpha_grid values must be finite and nonnegative, got {alpha:g}")
        for name in ("policies", "alpha_grid", "seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def effective_alpha_grid(policy: str, grid: Sequence[float]) -> list[float]:
    """The alpha values actually run for a policy.

    TopK and PoorK take no balance parameter (single run at 0); MMFStar is
    only defined on [0, 1].
    """
    if policy in ("TopK", "PoorK"):
        return [0.0]
    if policy == "MMFStar":
        return [a for a in grid if 0.0 <= a <= 1.0]
    return list(grid)


# ---------------------------------------------------------------------------
# Plan resolution
# ---------------------------------------------------------------------------


def _typed_fields(cls: type, config, section: str | None = None) -> dict:
    """The fields of dataclass ``cls`` given in the JSON object ``config``,
    each coerced to its annotated type; a null field is left out, so it
    takes its default. ``section`` names the object in error messages."""
    what = section or "top-level"
    if not isinstance(config, dict):
        raise ValueError(f"the {what} config must be a JSON object, got {config!r}")
    unknown = set(config) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} config keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    return {
        name: _coerce(hints[name], value, f"{section} {name}" if section else name)
        for name, value in config.items()
        if value is not None
    }


def _coerce(hint, value, label: str):
    """A JSON value as the type ``hint``: an int takes a whole number, a float
    any real (neither a bool), a tuple a list, a dataclass an object."""
    if get_origin(hint) in (Union, UnionType):  # X | None, and value is not null
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{label} must be a list, got {value!r}")
        return tuple(_coerce(get_args(hint)[0], item, label) for item in value)
    if is_dataclass(hint):
        return hint(**_typed_fields(hint, value, label))
    if hint is bool or hint is str:
        if not isinstance(value, hint):
            kind = "true or false" if hint is bool else "a string"
            raise ValueError(f"{label} must be {kind}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    if hint is float:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{label} is too large, got {value!r}") from None
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{label} must be a whole number, got {value!r}")
    return int(value)


def _config_fields(args: argparse.Namespace) -> dict:
    """The typed top-level fields of a command's ``--config`` file, with its
    CLI flags laid over the file's values (see README "Plans and configs")."""
    config = {}
    if getattr(args, "config", None) is not None:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must contain a JSON object")

    def flag(name):
        return getattr(args, name, None)

    seed = flag("seed")
    has_dataset = "dataset" in args and bool(flag("dataset") or config.get("dataset"))  # generate has none
    overrides = {
        "dataset": flag("dataset"),
        "out_dir": flag("out"),
        "scenario": flag("scenario"),
        "workers": flag("workers"),
        "policies": [flag("policy")] if flag("policy") else None,
        "alpha_grid": None if flag("alpha") is None else [flag("alpha")],
        "seeds": [seed] if seed is not None and has_dataset else None,
    }
    config.update((key, value) for key, value in overrides.items() if value is not None)
    for section, key, value in (
        ("sim", "mode", flag("mode")),
        ("sim", "total_steps", flag("steps")),
        ("generator", "seed", None if has_dataset else seed),
    ):
        if value is not None:
            if config.get(section) is None:
                config[section] = {}
            if isinstance(config[section], dict):  # anything else fails its coercion below
                config[section][key] = value
    if config.get("scenario") is not None:  # before coercion: a non-string is an unknown scenario too
        ScenarioSpec.by_name(config["scenario"])
    return _typed_fields(ExperimentPlan, config)


def resolve_plan(args: argparse.Namespace) -> ExperimentPlan:
    given = _config_fields(args)
    if not given.get("out_dir"):
        raise ValueError("an output directory is required (--out or config out_dir)")
    if given.get("dataset"):
        given["generator"] = None
    else:
        given.setdefault("generator", GeneratorSpec())
    if "policies" not in given and given.get("sim", SimConfig()).mode == "online":
        given["policies"] = tuple(p for p in POLICY_KINDS if p != "EquityRankV")
    return ExperimentPlan(**given)


def _plan_dataset(plan: ExperimentPlan) -> Dataset:
    if plan.dataset is not None:
        return load_dataset(plan.dataset)
    return generate_dataset(plan.generator, ScenarioSpec.by_name(plan.scenario))


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------

_POOL_DATASET: Dataset | None = None
_POOL_SIM: SimConfig | None = None


def _pool_init(dataset: Dataset, sim: SimConfig) -> None:
    global _POOL_DATASET, _POOL_SIM
    _POOL_DATASET = dataset
    _POOL_SIM = sim


def ProcessPoolExecutor(**kwargs):  # noqa: N802 - a stand-in for the class it builds
    """A ``concurrent.futures.ProcessPoolExecutor``, imported on first use: the import
    loads ``multiprocessing``, which only a sweep with workers > 1 needs."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(**kwargs)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pool_run(unit: tuple[tuple[str, float, int], ...]) -> list[tuple]:
    """Each run's outcome, ("ok", result, checkpoints) or ("err", message, None).

    The mode's driver serves the unit, runs of one policy (``_units``); they fail one by one.
    """
    driver = run_online_batch if _POOL_SIM.mode == "online" else run_offline_batch
    try:
        outcomes = driver(_POOL_DATASET, unit[0][0], [(alpha, seed) for _, alpha, seed in unit], _POOL_SIM)
    except Exception as exc:  # noqa: BLE001 - failures are recorded, sweep continues
        outcomes = [exc] * len(unit)
    rows = []
    for outcome in outcomes:  # an online run's (result, trace), an offline run's result, or an exception
        result, trace = outcome if isinstance(outcome, tuple) else (outcome, None)
        rows.append(("err", _error(result), None) if isinstance(result, Exception) else ("ok", result, trace and trace.checkpoints))
    return rows


def _units(specs: list[tuple[str, float, int]], mode: str, workers: int) -> list[list[int]]:
    """The runs of ``specs``, the sweep's served runs (one per class of
    ``_sources``), as pool units, lists of indices into ``specs``.

    Online, each run is a unit; ``sim.run_online_batch`` batches nothing.
    The units go seed by seed, in the order the seeds first appear in
    ``specs`` and in spec order within a seed, so that the runs of a seed
    follow one another and share its prefiltered rows
    (``sim.make_online_state``). Offline,
    each policy's runs are dealt out to the ``workers``, so that every
    worker gets a share, and each nonempty share is a unit;
    ``sim.run_offline_batch`` picks how its runs are served. The longest
    units come first, so they start first.
    """
    if mode == "online":
        first: dict = {}
        for _, _, seed in specs:
            first.setdefault(seed, len(first))
        return [[i] for i in sorted(range(len(specs)), key=lambda i: first[specs[i][2]])]
    groups: dict[str, list[int]] = {}
    for i, (policy, _, _) in enumerate(specs):
        groups.setdefault(policy, []).append(i)
    shares = [group[w::workers] for group in groups.values() for w in range(workers)]
    return sorted((share for share in shares if share), key=len, reverse=True)


def _sources(dataset: Dataset, specs: list[tuple[str, float, int]], sim: SimConfig) -> list[int]:
    """For each spec, the index of the first spec whose run it provably equals, itself if none.

    Runs of one seed that equal one another form a class: TopK's holds
    EquityRank at alpha 0, which ranks by relevance alone; FairCo* at alpha 0 when no
    gain-to-target ratio can overflow (``rankers.ratios_stay_finite``); and,
    offline, MMF* at alpha 0 when its span check cannot fail
    (``rankers.spans_stay_finite``). PoorK's holds MMF* at alpha 1, the same
    plan. Each is the same run under another name: the same lists, ledger,
    draws and failures. A dataset that the drivers refuse makes no class, so
    each run fails with the driver's message.
    """
    try:
        _check_dataset(dataset, sim)
    except Exception:  # noqa: BLE001 - the drivers refuse it again, run by run
        return list(range(len(specs)))
    topk, offline = {"TopK", "EquityRank"}, sim.mode == "offline"
    if any(policy == "FairCoStar" and alpha == 0.0 for policy, alpha, _ in specs):
        probs = PositionModel.logarithmic(sim.list_size).probs.tolist()
        lists, purchases = (dataset.relevance.user_count, sum(probs)) if offline else (sim.total_steps, sim.list_size)
        if ratios_stay_finite(provider_arrays(dataset.profiles), probs, lists, purchases):
            topk.add("FairCoStar")
    if offline and any(policy == "MMFStar" and alpha == 0.0 for policy, alpha, _ in specs):
        if spans_stay_finite(_offline_field(dataset, sim.list_size), sim.list_size):
            topk.add("MMFStar")

    def key(policy: str, alpha: float, seed: int) -> tuple:
        if policy == "PoorK" or (policy == "MMFStar" and alpha == 1.0):
            return "PoorK", seed
        if policy == "TopK" or (policy in topk and alpha == 0.0):
            return "TopK", seed
        return policy, alpha, seed

    first: dict[tuple, int] = {}
    return [first.setdefault(key(*spec), i) for i, spec in enumerate(specs)]


def _copy(outcome: tuple, policy: str, alpha: float) -> tuple:
    """A source run's outcome as that of its class's run of ``policy`` at ``alpha``."""
    status, payload, checkpoints = outcome
    return (status, replace(payload, policy=policy, alpha=alpha) if status == "ok" else payload, checkpoints)


def cmd_sweep(plan: ExperimentPlan) -> Path:
    """Execute every (policy, alpha, seed) run of the plan and write outputs.

    Each class of runs that provably equal one another (``_sources``) is
    served once, as its first spec in plan order; every other member is
    written from that run's outcome under its own policy and alpha, with its
    wall time.
    """
    dataset = _plan_dataset(plan)
    out = Path(plan.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(plan.to_json(), encoding="utf-8")

    specs = [
        (policy, alpha, seed)
        for policy in plan.policies
        for alpha in effective_alpha_grid(policy, plan.alpha_grid)
        for seed in plan.seeds
    ]
    if not specs:
        raise ValueError("plan produced no runs (alpha grid empty after per-policy restriction)")
    sources = _sources(dataset, specs, plan.sim)
    served = [i for i, source in enumerate(sources) if source == i]
    # ProcessPoolExecutor starts all of max_workers at the first submit.
    workers = min(plan.workers, len(served), os.cpu_count() or 1)
    units = [[served[i] for i in unit] for unit in _units([specs[i] for i in served], plan.sim.mode, workers)]
    jobs = [tuple(specs[i] for i in unit) for unit in units]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init, initargs=(dataset, plan.sim)) as pool:
            done = list(pool.map(_pool_run, jobs))
    else:
        _pool_init(dataset, plan.sim)
        try:
            done = [_pool_run(job) for job in jobs]
        finally:
            _pool_init(None, None)  # the dataset and its derived arrays go with this sweep
    by_index = {i: outcome for unit, outcomes in zip(units, done) for i, outcome in zip(unit, outcomes)}
    outcomes = [
        by_index[i] if source == i else _copy(by_index[source], policy, alpha)
        for i, ((policy, alpha, _), source) in enumerate(zip(specs, sources))
    ]

    results: list[RunResult] = []
    failures: list[tuple[str, float, int, str]] = []
    series_dir = out / "series"
    for (policy, alpha, seed), (status, payload, checkpoints) in zip(specs, outcomes):
        if status == "ok":
            results.append(payload)
            if checkpoints:
                series_dir.mkdir(exist_ok=True)
                _write_rows(series_dir / f"{policy}_a{alpha!r}_s{seed}.csv", SERIES_HEADER, checkpoints)
        else:
            failures.append((policy, alpha, seed, payload))

    _write_rows(out / "results.csv", DETERMINISTIC_FIELDS, (r.deterministic_values() for r in results))
    timings = ((r.policy, r.alpha, r.seed, r.wall_time * 1000.0) for r in results)
    _write_rows(out / "timings.csv", TIMINGS_HEADER, timings)
    stats = _group_stats(results)
    summary = (
        (s["mode"], policy, alpha, *(s[key] for key in SUMMARY_HEADER[3:]))
        for (policy, alpha), s in sorted(stats.items())
    )
    _write_rows(out / "summary.csv", SUMMARY_HEADER, summary)
    for policy, envelope in _envelopes(stats).items():
        _write_rows(out / f"envelope_{policy}.csv", ENVELOPE_HEADER, envelope)
    if failures:
        _write_rows(out / "failures.csv", FAILURES_HEADER, failures)
    return out


def _group_stats(results: list[RunResult]) -> dict[tuple[str, float], dict[str, float]]:
    groups: dict[tuple[str, float], list[RunResult]] = {}
    for r in results:
        groups.setdefault((r.policy, r.alpha), []).append(r)
    stats = {}
    for key, rs in groups.items():
        eff = np.array([r.effectiveness for r in rs])
        unf = np.array([r.unfairness for r in rs])
        msd = np.array([r.msd for r in rs])
        rho = np.array([r.pearson for r in rs])
        # an infinite value makes its mean inf and its std nan, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            stats[key] = {
                "runs": len(rs),
                "mode": rs[0].mode,
                "effectiveness_mean": float(eff.mean()),
                "effectiveness_std": float(eff.std(ddof=1)) if len(rs) > 1 else 0.0,
                "unfairness_mean": float(unf.mean()),
                "unfairness_std": float(unf.std(ddof=1)) if len(rs) > 1 else 0.0,
                "msd_mean": float(np.nanmean(msd)) if not np.isnan(msd).all() else math.nan,
                "pearson_mean": float(np.nanmean(rho)) if not np.isnan(rho).all() else math.nan,
            }
    return stats


def _envelopes(stats: dict[tuple[str, float], dict[str, float]]) -> dict[str, list[tuple[float, float]]]:
    """Per-policy trade-off envelopes of the seed-averaged points, by policy name."""
    envelopes = {}
    for policy in sorted({policy for policy, _ in stats}):
        points = [
            (s["unfairness_mean"], s["effectiveness_mean"])
            for (p, _), s in sorted(stats.items())
            if p == policy and not math.isnan(s["unfairness_mean"])
        ]
        if points:
            envelopes[policy] = tradeoff_envelope(points)
    return envelopes


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(spec: GeneratorSpec, scenario: ScenarioSpec, out_dir: str | Path, force: bool = False) -> Path:
    """Generate a synthetic dataset directory with a manifest."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise ValueError(f"output directory {out} is not empty; pass --force to overwrite")
    dataset = generate_dataset(spec, scenario)
    save_dataset(dataset, out)
    manifest = {"generator": asdict(spec), "scenario": scenario.name}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


def cmd_run(
    dataset: Dataset,
    policy: str,
    alpha: float,
    seed: int,
    sim: SimConfig,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute one run; optionally write result.csv (and series.csv online)."""
    if sim.record_ndcg:
        raise ValueError("sim record_ndcg must be false in a run: no run file holds the NDCG series")
    if sim.mode == "online":
        result, trace = run_online(dataset, policy, alpha, seed, sim)
        checkpoints = trace.checkpoints
    else:
        result, checkpoints = run_offline(dataset, policy, alpha, seed, sim), None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_rows(out / "result.csv", RESULT_FIELDS, [(*result.deterministic_values(), result.wall_time * 1000.0)])
        if checkpoints:
            _write_rows(out / "series.csv", SERIES_HEADER, checkpoints)
    return result


def cmd_report(results_dir: str | Path, out_dir: str | Path | None = None) -> Path:
    """Summarize a sweep: ranking tables and the trade-off SVG."""
    results_dir = Path(results_dir)
    out = Path(out_dir) if out_dir is not None else results_dir
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for _, (mode, policy, alpha, seed, *values) in _read_rows(results_dir / "results.csv", DETERMINISTIC_FIELDS):
        results.append(RunResult(mode, policy, float(alpha), int(seed), *map(float, values), wall_time=0.0))
    if not results:
        raise ValueError(f"no runs recorded in {results_dir / 'results.csv'}")
    timings: dict[tuple[str, float], list[float]] = {}
    timings_path = results_dir / "timings.csv"
    if timings_path.is_file():
        for _, (policy, alpha, _seed, wall_ms) in _read_rows(timings_path, TIMINGS_HEADER):
            timings.setdefault((policy, float(alpha)), []).append(float(wall_ms))

    stats = _group_stats(results)
    policies = sorted({policy for policy, _ in stats})

    # Minimum-unfairness operating point per policy, with alignment there:
    # NaN unfairness orders after every number, so it is the point only
    # when all of a policy's points are NaN, and such policies list last.
    def unfairness_key(s: dict[str, float]) -> tuple[bool, float]:
        u = s["unfairness_mean"]
        return (True, 0.0) if math.isnan(u) else (False, u)

    best: dict[str, tuple[float, dict[str, float]]] = {}
    for policy in policies:
        candidates = [(alpha, s) for (p, alpha), s in stats.items() if p == policy]
        best[policy] = min(candidates, key=lambda kv: (unfairness_key(kv[1]), kv[0]))

    rows = []
    for policy, (alpha_star, s) in sorted(best.items(), key=lambda kv: unfairness_key(kv[1][1])):
        wall = timings.get((policy, alpha_star))
        wall_mean = sum(wall) / len(wall) if wall else math.nan
        rows.append((policy, alpha_star, s["unfairness_mean"], s["unfairness_std"], s["effectiveness_mean"], wall_mean))
    _write_rows(out / "report_min_unfairness.csv", MIN_UNFAIRNESS_HEADER, rows)
    alignment = ((policy, alpha, s["msd_mean"], s["pearson_mean"]) for policy, (alpha, s) in best.items())
    _write_rows(out / "report_alignment.csv", ALIGNMENT_HEADER, alignment)

    write_tradeoff_svg(out / "tradeoff.svg", _envelopes(stats))
    return out


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equityrank", description="Fairness-aware ranking experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset directory")
    gen.add_argument("--config", help="JSON config with a 'generator' section")
    gen.add_argument("--out", required=True, help="dataset output directory")
    gen.add_argument("--scenario", choices=["common", "exp1st", "sale1st"], default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--force", action="store_true", help="overwrite an existing non-empty directory")

    run = sub.add_parser("run", help="execute a single (policy, alpha, seed) run")
    run.add_argument("--config", help="JSON config (sim section applies)")
    run.add_argument("--dataset", required=True, help="dataset directory")
    run.add_argument("--policy", required=True, choices=list(POLICY_KINDS))
    run.add_argument("--alpha", type=float, default=0.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mode", choices=["offline", "online"], default=None)
    run.add_argument("--steps", type=int, default=None, help="online steps override")
    run.add_argument("--out", default=None, help="optional output directory")

    sweep = sub.add_parser("sweep", help="run a full (policy x alpha x seed) sweep")
    sweep.add_argument("--config", help="JSON plan config")
    sweep.add_argument("--dataset", default=None, help="dataset directory (else generated from config)")
    sweep.add_argument("--out", default=None, help="output directory")
    sweep.add_argument("--scenario", choices=["common", "exp1st", "sale1st"], default=None)
    sweep.add_argument("--mode", choices=["offline", "online"], default=None)
    sweep.add_argument("--policy", default=None, help="restrict the sweep to one policy")
    sweep.add_argument("--alpha", type=float, default=None, help="restrict the sweep to one alpha")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.add_argument("--workers", type=int, default=None, help="worker processes (default: config, else 1)")

    report = sub.add_parser("report", help="summarize sweep outputs into tables and an SVG")
    report.add_argument("--results", required=True, help="directory containing results.csv")
    report.add_argument("--out", default=None, help="report output directory (default: results dir)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            config = _config_fields(args)
            scenario = ScenarioSpec.by_name(config.get("scenario", "common"))
            out = cmd_generate(config.get("generator", GeneratorSpec()), scenario, args.out, args.force)
            print(f"dataset written to {out}")
        elif args.command == "run":
            sim = _config_fields(args).get("sim", SimConfig())
            dataset = load_dataset(args.dataset)
            result = cmd_run(dataset, args.policy, args.alpha, args.seed, sim, args.out)
            print(",".join(RESULT_FIELDS))
            print(result.csv_row())
        elif args.command == "sweep":
            plan = resolve_plan(args)
            out = cmd_sweep(plan)
            print(f"sweep outputs written to {out}")
        elif args.command == "report":
            out = cmd_report(args.results, args.out)
            print(f"report written to {out}")
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"status": "error", "message": str(exc)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
