"""Experiment driver: dataset generation, runs, alpha sweeps, and reports.

``generate``, ``run`` and ``sweep`` read one config shape, the fields of
``ExperimentPlan`` as JSON, with CLI flags laid over the ``--config`` file
and the dataclasses' defaults filling the rest. Each value is coerced to
its field's annotated type at this boundary; README "Plans and configs"
has the rules, and "Sweep outputs" the files a sweep writes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .metrics import RESULT_FIELDS, RunResult, format_float, tradeoff_envelope
from .plots import write_tradeoff_svg
from .rankers import POLICY_KINDS
from .sim import SimConfig, run_offline, run_online
from .synth import Dataset, GeneratorSpec, ScenarioSpec, _read_rows, generate_dataset, load_dataset, save_dataset

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


def _execute_run(dataset: Dataset, sim: SimConfig, policy: str, alpha: float, seed: int):
    if sim.mode == "online":
        result, trace = run_online(dataset, policy, alpha, seed, sim)
        return result, trace.checkpoints
    return run_offline(dataset, policy, alpha, seed, sim), None


def _pool_run(spec: tuple[str, float, int]):
    policy, alpha, seed = spec
    try:
        result, checkpoints = _execute_run(_POOL_DATASET, _POOL_SIM, policy, alpha, seed)
        return ("ok", result, checkpoints)
    except Exception as exc:  # noqa: BLE001 - failures are recorded, sweep continues
        return ("err", f"{type(exc).__name__}: {exc}", None)


def _series_filename(policy: str, alpha: float, seed: int) -> str:
    return f"{policy}_a{alpha!r}_s{seed}.csv"


def _write_series(path: Path, checkpoints: list[tuple[int, float, float]]) -> None:
    lines = ["step,cndcg,unfairness"]
    lines += [f"{t},{format_float(c)},{format_float(u)}" for t, c, u in checkpoints]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_sweep(plan: ExperimentPlan) -> Path:
    """Execute every (policy, alpha, seed) run of the plan and write outputs."""
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
    # ProcessPoolExecutor starts all of max_workers at the first submit.
    workers = min(plan.workers, len(specs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init, initargs=(dataset, plan.sim)) as pool:
            outcomes = list(pool.map(_pool_run, specs))
    else:
        _pool_init(dataset, plan.sim)
        outcomes = [_pool_run(spec) for spec in specs]
        _pool_init(None, None)  # the dataset and its derived arrays go with this sweep

    results: list[RunResult] = []
    failures: list[tuple[str, float, int, str]] = []
    series_dir = out / "series"
    for (policy, alpha, seed), outcome in zip(specs, outcomes):
        status, payload, checkpoints = outcome
        if status == "ok":
            results.append(payload)
            if checkpoints:
                series_dir.mkdir(exist_ok=True)
                _write_series(series_dir / _series_filename(policy, alpha, seed), checkpoints)
        else:
            failures.append((policy, alpha, seed, payload))

    _write_results(out, results)
    _write_summary_and_envelopes(out, results)
    if failures:
        lines = ["policy,alpha,seed,error"]
        lines += [f"{p},{format_float(a)},{s},{json.dumps(msg)}" for p, a, s, msg in failures]
        (out / "failures.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _write_results(out: Path, results: list[RunResult]) -> None:
    rows = [",".join(DETERMINISTIC_FIELDS)]
    timing_rows = ["policy,alpha,seed,wall_ms"]
    for r in results:
        rows.append(",".join(r.deterministic_values()))
        timing_rows.append(f"{r.policy},{format_float(r.alpha)},{r.seed},{format_float(r.wall_time * 1000.0)}")
    (out / "results.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (out / "timings.csv").write_text("\n".join(timing_rows) + "\n", encoding="utf-8")


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


def _write_summary_and_envelopes(out: Path, results: list[RunResult]) -> None:
    stats = _group_stats(results)
    lines = [
        "mode,policy,alpha,runs,effectiveness_mean,effectiveness_std,"
        "unfairness_mean,unfairness_std,msd_mean,pearson_mean"
    ]
    for (policy, alpha), s in sorted(stats.items()):
        lines.append(
            f"{s['mode']},{policy},{format_float(alpha)},{s['runs']},"
            f"{format_float(s['effectiveness_mean'])},{format_float(s['effectiveness_std'])},"
            f"{format_float(s['unfairness_mean'])},{format_float(s['unfairness_std'])},"
            f"{format_float(s['msd_mean'])},{format_float(s['pearson_mean'])}"
        )
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    for policy, envelope in _envelopes(stats).items():
        rows = ["threshold,effectiveness"]
        rows += [f"{format_float(u)},{format_float(e)}" for u, e in envelope]
        (out / f"envelope_{policy}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


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
    result, checkpoints = _execute_run(dataset, sim, policy, alpha, seed)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.csv").write_text(RunResult.csv_header() + "\n" + result.csv_row() + "\n", encoding="utf-8")
        if checkpoints:
            _write_series(out / "series.csv", checkpoints)
    return result


def cmd_report(results_dir: str | Path, out_dir: str | Path | None = None) -> Path:
    """Summarize a sweep: ranking tables and the trade-off SVG."""
    results_dir = Path(results_dir)
    out = Path(out_dir) if out_dir is not None else results_dir
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for _, (mode, policy, alpha, seed, *values) in _read_rows(results_dir / "results.csv", list(DETERMINISTIC_FIELDS)):
        results.append(RunResult(mode, policy, float(alpha), int(seed), *map(float, values), wall_time=0.0))
    if not results:
        raise ValueError(f"no runs recorded in {results_dir / 'results.csv'}")
    timings: dict[tuple[str, float], list[float]] = {}
    timings_path = results_dir / "timings.csv"
    if timings_path.is_file():
        for _, (policy, alpha, _seed, wall_ms) in _read_rows(timings_path, ["policy", "alpha", "seed", "wall_ms"]):
            timings.setdefault((policy, float(alpha)), []).append(float(wall_ms))

    stats = _group_stats(results)
    policies = sorted({policy for policy, _ in stats})

    # Minimum-unfairness operating point per policy, with alignment there.
    best: dict[str, tuple[float, dict[str, float]]] = {}
    for policy in policies:
        candidates = [(alpha, s) for (p, alpha), s in stats.items() if p == policy]
        alpha_star, s_star = min(candidates, key=lambda kv: (kv[1]["unfairness_mean"], kv[0]))
        best[policy] = (alpha_star, s_star)

    lines = ["policy,alpha,unfairness_mean,unfairness_std,effectiveness_mean,wall_ms_mean"]
    for policy in sorted(best, key=lambda p: best[p][1]["unfairness_mean"]):
        alpha_star, s = best[policy]
        wall = timings.get((policy, alpha_star))
        wall_mean = sum(wall) / len(wall) if wall else math.nan
        lines.append(
            f"{policy},{format_float(alpha_star)},{format_float(s['unfairness_mean'])},"
            f"{format_float(s['unfairness_std'])},{format_float(s['effectiveness_mean'])},"
            f"{format_float(wall_mean)}"
        )
    (out / "report_min_unfairness.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["policy,alpha,msd_mean,pearson_mean"]
    for policy in policies:
        alpha_star, s = best[policy]
        lines.append(f"{policy},{format_float(alpha_star)},{format_float(s['msd_mean'])},{format_float(s['pearson_mean'])}")
    (out / "report_alignment.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

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
            print(RunResult.csv_header())
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
