"""The benchmark's workloads: their inputs, the timed call, and output checks.

Each workload is a closed loop with one client in one Python process: a
unit of work starts when the previous one ends. Inputs are generated from
the workload seed; the library receives only those inputs. README.md in
this directory says why each workload was chosen and which layer should
move which end-to-end metric on it.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from equityrank import cli, sim, synth

# Reference results are committed for this workload seed only.
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Loose enough for an exact reformulation that reorders float sums, tight
# enough that any change of ranking decisions shows.
REL_TOL = 1e-9
ABS_TOL = 1e-12

POLICIES = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
VALUE_FIELDS = ("effectiveness", "unfairness", "msd", "pearson")
# Policies whose alpha = 0 lists are TopK's lists.
COLLAPSE_TO_TOPK = ("EquityRank", "EquityRankV", "FairCoStar", "MMFStar")
LIST_SIZE = 5
GAMMA = 0.995
ALPHA_GRID = (0.0, 1e-3, 1e-1, 1.0)
# Offline run seeds are the workload seed and the next RUN_SEEDS - 1.
RUN_SEEDS = 2
ONLINE_POLICY = "EquityRank"
ONLINE_ALPHA = 1e-4

DESK = dict(n_users=500, n_items=1000, n_providers=20, group_size_skew=0.8, latent_dim=8, sparsity=0.05)
PROVIDER_SCALE = dict(n_users=300, n_items=4000, n_providers=2000, group_size_skew=0.8, latent_dim=8, sparsity=0.05)


def run_key(policy: str, alpha: float, seed: int) -> str:
    return f"{policy},{float(alpha)!r},{int(seed)}"


@dataclass
class Outcome:
    """One timed unit of work and the verdict on its outputs."""

    wall: float
    steps: int
    planned: list[str]
    values: dict[str, tuple[float, ...]] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return len(self.planned) - len(self.failed)

    def compare(self, expected: dict[str, list[float]]) -> None:
        """Fail every run whose values differ from ``expected`` beyond tolerance."""
        for key in self.planned:
            if key in self.failed:
                continue
            want = expected.get(key)
            if want is None:
                self.failed[key] = "no expected values"
            elif not all(_close(a, b) for a, b in zip(self.values[key], want, strict=True)):
                self.failed[key] = f"values {self.values[key]} differ from expected {tuple(want)}"


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_TOL)


def _cli(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"equityrank {argv[0]} exited with {code}")


@dataclass(frozen=True)
class OfflineSweep:
    """``generate -> sweep --mode offline -> report`` through the CLI.

    Set-up is ``generate`` (which saves the dataset) plus loading it. The
    timed unit is ``sweep`` plus ``report`` on that dataset.
    """

    generator: dict

    def run_seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(RUN_SEEDS)]

    def planned(self, seed: int) -> list[str]:
        keys = []
        for policy in POLICIES:
            if policy in ("TopK", "PoorK"):
                alphas = [0.0]
            elif policy == "MMFStar":
                alphas = [a for a in ALPHA_GRID if 0.0 <= a <= 1.0]
            else:
                alphas = list(ALPHA_GRID)
            keys += [run_key(policy, a, s) for a in alphas for s in self.run_seeds(seed)]
        return keys

    def setup(self, seed: int, workdir: Path) -> Path:
        dataset_dir = workdir / "dataset"
        gen_config = workdir / "generator.json"
        gen_config.write_text(json.dumps({"generator": self.generator, "scenario": "common"}), encoding="utf-8")
        _cli("generate", "--config", str(gen_config), "--out", str(dataset_dir), "--seed", str(seed), "--force")
        synth.load_dataset(dataset_dir)
        return dataset_dir

    def unit(self, dataset_dir: Path, seed: int, workdir: Path, index: int) -> Outcome:
        plan = workdir / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "policies": list(POLICIES),
                    "alpha_grid": list(ALPHA_GRID),
                    "seeds": self.run_seeds(seed),
                    "sim": {"list_size": LIST_SIZE},
                }
            ),
            encoding="utf-8",
        )
        out = workdir / f"sweep-{index}"
        start = time.perf_counter()
        _cli("sweep", "--config", str(plan), "--dataset", str(dataset_dir), "--out", str(out), "--mode", "offline")
        _cli("report", "--results", str(out))
        wall = time.perf_counter() - start
        planned = self.planned(seed)
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        outcome = Outcome(wall, len(planned) * self.generator["n_users"], planned)
        outcome.values, outcome.failed = check_sweep_rows(rows, planned, self.run_seeds(seed))
        return outcome


def check_sweep_rows(
    rows: list[dict[str, str]], planned: list[str], seeds: list[int]
) -> tuple[dict[str, tuple[float, ...]], dict[str, str]]:
    """Reference-free checks on a sweep's results.csv rows.

    Returns the parsed values per run and the failed runs with a reason.
    """
    texts: dict[str, tuple[str, ...]] = {}
    failed: dict[str, str] = {}
    unexpected = 0
    for row in rows:
        key = run_key(row["policy"], float(row["alpha"]), int(row["seed"]))
        if key not in planned or key in texts or row["mode"] != "offline":
            unexpected += 1
        else:
            texts[key] = tuple(row[f] for f in VALUE_FIELDS)
    if unexpected:
        # rows that belong to no planned run cannot be attributed to one
        reason = f"results.csv has {len(rows)} rows for {len(planned)} planned runs"
        return {}, {key: reason for key in planned}
    for key in planned:
        if key not in texts:
            failed[key] = "missing from results.csv"

    def differs(key: str, ref_key: str, exact: bool) -> bool:
        if key not in texts or ref_key not in texts:
            return False
        if exact:
            return texts[key] != texts[ref_key]
        # the lists (hence effectiveness) match bit for bit; the ledger is
        # summed in another order, so gains match to rounding
        a, b = texts[key], texts[ref_key]
        return a[0] != b[0] or not all(_close(float(x), float(y)) for x, y in zip(a[1:], b[1:]))

    for seed in seeds:
        topk = run_key("TopK", 0.0, seed)
        for policy in COLLAPSE_TO_TOPK:
            key = run_key(policy, 0.0, seed)
            if differs(key, topk, exact=policy != "EquityRankV"):
                failed[key] = "alpha = 0 result differs from TopK"
        key = run_key("MMFStar", 1.0, seed)
        if differs(key, run_key("PoorK", 0.0, seed), exact=True):
            failed[key] = "alpha = 1 result differs from PoorK"
    values = {key: tuple(float(x) for x in text) for key, text in texts.items()}
    return values, failed


@dataclass(frozen=True)
class OnlineRun:
    """One ``run_online`` call of EquityRank at protocol defaults.

    Set-up is ``generate_dataset``. The timed unit is the ``run_online`` call.
    """

    generator: dict
    steps: int

    def planned(self, seed: int) -> list[str]:
        return [run_key(ONLINE_POLICY, ONLINE_ALPHA, seed)]

    def setup(self, seed: int, workdir: Path) -> synth.Dataset:
        spec = synth.GeneratorSpec(**self.generator, seed=seed)
        return synth.generate_dataset(spec, synth.ScenarioSpec.common())

    def unit(self, dataset: synth.Dataset, seed: int, workdir: Path, index: int) -> Outcome:
        cfg = sim.SimConfig(
            list_size=LIST_SIZE,
            total_steps=self.steps,
            gamma=GAMMA,
            prefilter_size=20,
            checkpoint_every=1000,
            mode="online",
        )
        start = time.perf_counter()
        result, _ = sim.run_online(dataset, ONLINE_POLICY, ONLINE_ALPHA, seed, cfg)
        wall = time.perf_counter() - start
        key = run_key(ONLINE_POLICY, ONLINE_ALPHA, seed)
        outcome = Outcome(wall, self.steps, [key])
        outcome.values[key] = tuple(float(getattr(result, f)) for f in VALUE_FIELDS)
        reason = check_online_values(outcome.values[key])
        if reason:
            outcome.failed[key] = reason
        return outcome


def check_online_values(values: tuple[float, ...]) -> str | None:
    """Reference-free checks on one online RunResult; a reason if it fails."""
    effectiveness, unfairness = values[0], values[1]
    if not all(math.isfinite(v) for v in values):
        return f"non-finite result {values}"
    if unfairness < 0:
        return f"negative unfairness {unfairness}"
    # cNDCG sums gamma^(T-t) * NDCG_t with NDCG_t in [0, 1]
    if not 0.0 <= effectiveness <= 1.0 / (1.0 - GAMMA):
        return f"cNDCG {effectiveness} outside [0, 1/(1-gamma)]"
    return None


WORKLOADS = {
    "offline-sweep": OfflineSweep(generator=DESK),
    "online-desk": OnlineRun(generator=DESK, steps=10_000),
    "online-providers": OnlineRun(generator=PROVIDER_SCALE, steps=2_000),
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
