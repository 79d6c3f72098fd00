"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The qualitative reproduction criteria (5-7) run a full offline sweep on the
default desk-scale Common dataset (500 users, 1000 items, 20 providers,
5 seeds); criterion 6 adds the Exp1st and Sale1st scenario sweeps. Sweep
outputs are produced through the CLI pipeline so the checked numbers are
the shipped artifacts.
"""

import csv
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from equityrank import (
    Catalog,
    GainLedger,
    GeneratorSpec,
    PolicyConfig,
    PositionModel,
    ProviderProfile,
    RankList,
    RelevanceTable,
    ScenarioSpec,
    SimConfig,
    apply_expected_feedback,
    apply_feedback,
    equityrank_scores,
    estimate_relevance,
    exposure_unfairness,
    fairness_gradient,
    generate_dataset,
    offline_rank_user,
    online_step_rank,
    rank_by_scores,
    rank_poork,
    rank_mmf_star,
    run_online,
    tradeoff_envelope,
    unfairness,
)
from equityrank.cli import ExperimentPlan, cmd_sweep
from equityrank.sim import make_online_state
from oracles import reference_poork

# Dense log grid: the vertical allocator's trade-off regime sits at very
# small alpha on this dataset because the gain scales make the fairness
# term large; the grid must trace the transition for the envelope checks.
ACCEPT_ALPHA_GRID = (
    0.0, 1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7,
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)
SCENARIO_ALPHA_GRID = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
SEEDS = (0, 1, 2, 3, 4)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def read_results(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("alpha", "effectiveness", "unfairness", "msd", "pearson"):
            row[key] = float(row[key])
        row["seed"] = int(row["seed"])
    return rows


def seed_mean_stats(rows: list[dict]) -> dict[tuple[str, float], dict[str, float]]:
    groups: dict[tuple[str, float], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["policy"], row["alpha"]), []).append(row)
    return {
        key: {
            "unfairness": float(np.mean([r["unfairness"] for r in rs])),
            "effectiveness": float(np.mean([r["effectiveness"] for r in rs])),
            "msd": float(np.mean([r["msd"] for r in rs])),
            "pearson": float(np.mean([r["pearson"] for r in rs])),
        }
        for key, rs in groups.items()
    }


def best_by_unfairness(stats, policy):
    candidates = [(s["unfairness"], alpha, s) for (p, alpha), s in stats.items() if p == policy]
    unfair, alpha, s = min(candidates)
    return alpha, s


def run_sweep(tmp_factory, name, scenario, policies, grid):
    plan = ExperimentPlan(
        out_dir=str(tmp_factory.mktemp(name)),
        generator=GeneratorSpec(),
        scenario=scenario,
        policies=policies,
        alpha_grid=grid,
        seeds=SEEDS,
        sim=SimConfig(list_size=5, mode="offline"),
    )
    start = time.perf_counter()
    out = cmd_sweep(plan)
    elapsed = time.perf_counter() - start
    return out, elapsed


@pytest.fixture(scope="module")
def common_sweep(tmp_path_factory):
    out, elapsed = run_sweep(
        tmp_path_factory, "common", "common", ("TopK", "PoorK", "FairCoStar", "EquityRankV"), ACCEPT_ALPHA_GRID
    )
    return out, elapsed, seed_mean_stats(read_results(out))


@pytest.fixture(scope="module")
def scenario_sweeps(tmp_path_factory):
    sweeps = {}
    for scenario in ("exp1st", "sale1st"):
        out, _ = run_sweep(
            tmp_path_factory, scenario, scenario, ("PoorK", "FairCoStar", "EquityRankV"), SCENARIO_ALPHA_GRID
        )
        sweeps[scenario] = seed_mean_stats(read_results(out))
    return sweeps


# ---------------------------------------------------------------------------
# Criterion 1: analytic fairness gradient vs central finite differences
# ---------------------------------------------------------------------------


def test_c1_gradient_matches_finite_differences():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        gains = rng.random(m) * 4 + 0.05
        targets = rng.random(m) + 0.05
        grad = fairness_gradient(gains, targets)
        for g in range(m):
            h = 1e-6 * max(1.0, abs(gains[g]))
            up, down = gains.copy(), gains.copy()
            up[g] += h
            down[g] -= h
            fd = (unfairness(down, targets) - unfairness(up, targets)) / (2 * h)
            rel_err = abs(grad[g] - fd) / max(abs(grad[g]), abs(fd), 1e-9)
            worst = max(worst, rel_err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    report("1 gradient-oracle", ok, f"1000 instances, max rel err {worst:.3g} (tol 1e-5), {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-5
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criterion 2: exposure-fairness reduction equivalence
# ---------------------------------------------------------------------------


def _direct_exposure_unfairness(lists, catalog, rel, pm):
    """Independent oracle evaluated from the raw served-list history."""
    item_exposure = np.zeros(catalog.item_count)
    for rl in lists:
        for k0, item in enumerate(rl.positions):
            item_exposure[item] += pm.probs[k0]
    group_mean_exposure = np.array([item_exposure[items].mean() for items in catalog.items_of])
    item_rel = np.array(
        [sum(rel.get(u, i) for u in range(rel.user_count)) / rel.user_count for i in range(catalog.item_count)]
    )
    group_rel = np.array([item_rel[items].mean() for items in catalog.items_of])
    gains = catalog.group_sizes * group_mean_exposure / len(lists)
    m = catalog.provider_count
    total = 0.0
    for i in range(m):
        for j in range(m):
            total += (gains[i] * group_rel[j] - gains[j] * group_rel[i]) ** 2
    return total / (m * (m - 1))


def test_c2_reduction_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 4, 40))
        n_users = int(rng.integers(2, 8))
        groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        rng.shuffle(groups)
        catalog = Catalog.from_assignments(groups, m)
        rel = RelevanceTable(
            n_users, [(u, i, float(rng.random() * 0.9 + 0.05)) for u in range(n_users) for i in range(n)]
        )
        profiles = [ProviderProfile(1.0, 0.0, 1.0) for _ in range(m)]
        pm = PositionModel.logarithmic(int(rng.integers(2, 5)))
        ledger = GainLedger.empty(m)
        lists = []
        for _ in range(int(rng.integers(5, 40))):
            user = int(rng.integers(n_users))
            items = rng.choice(n, size=pm.list_size, replace=False)
            rl = RankList(tuple(int(i) for i in items), user)
            apply_expected_feedback(rl, user, rel, profiles, catalog, ledger, pm)
            lists.append(rl)
        targets = np.array([rel.item_mean_relevance(catalog.item_count)[items].mean() for items in catalog.items_of])
        generic = unfairness(ledger.averaged_gains(), targets)
        library = exposure_unfairness(ledger, catalog, rel)
        oracle = _direct_exposure_unfairness(lists, catalog, rel, pm)
        for pair in ((generic, oracle), (library, oracle), (library, generic)):
            worst = max(worst, abs(pair[0] - pair[1]) / max(abs(pair[1]), 1e-300))
    ok = worst <= 1e-9
    report("2 reduction-equivalence", ok, f"100 random ledgers, max rel err {worst:.3g} (tol 1e-9)")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# Criterion 3: collapse identities
# ---------------------------------------------------------------------------


def _random_ranking_state(rng, k=5):
    m = int(rng.integers(2, 7))
    n = int(rng.integers(max(k, m) + 4, 40))
    groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    rng.shuffle(groups)
    catalog = Catalog.from_assignments(groups, m)
    profiles = [
        ProviderProfile(float(rng.random() * 8 + 0.1), float(rng.random() * 50), float(rng.random() * 5 + 0.1))
        for _ in range(m)
    ]
    rel = RelevanceTable(1, [(0, i, float(rng.random())) for i in range(n)])
    ledger = GainLedger.empty(m)
    ledger.exposure_gain[:] = rng.random(m) * 20
    ledger.purchase_gain[:] = rng.random(m) * 100
    ledger.step_count = int(rng.integers(1, 50))
    candidates = np.sort(rng.choice(n, size=int(rng.integers(k + 1, n + 1)), replace=False))
    return catalog, profiles, rel, ledger, candidates


def test_c3_collapse_identities():
    rng = np.random.default_rng(1003)
    pm = PositionModel.logarithmic(5)
    mismatches = 0
    for _ in range(100):
        catalog, profiles, rel, ledger, candidates = _random_ranking_state(rng)
        topk = online_step_rank(PolicyConfig("TopK"), candidates, 0, rel, ledger, catalog, profiles, pm)
        for kind in ("EquityRank", "FairCoStar", "MMFStar"):
            onl = online_step_rank(PolicyConfig(kind, 0.0), candidates, 0, rel, ledger, catalog, profiles, pm)
            off = offline_rank_user(PolicyConfig(kind, 0.0), candidates, 0, rel, ledger, catalog, profiles, pm)
            mismatches += (onl.positions != topk.positions) + (off.positions != topk.positions)
        poork = rank_poork(candidates, 0, rel, ledger, catalog, profiles, pm)
        mmf1 = rank_mmf_star(candidates, 0, rel, ledger, catalog, profiles, 1.0, pm)
        mismatches += mmf1.positions != poork.positions
        # both against the independent queue-based PoorK
        want = reference_poork(candidates, 0, rel, ledger, catalog, profiles, pm)
        mismatches += (poork.positions != want) + (mmf1.positions != want)
    ok = mismatches == 0
    report("3 collapse-identities", ok, f"100 random states, {mismatches} list mismatches (need 0)")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# Criterion 4: micro-instance optimality gap
# ---------------------------------------------------------------------------


def _delta_objective(order, rel_row, groups, gains_before, ve, vb, y, alpha, pm):
    """Exact one-step objective change: discounted relevance gain plus
    alpha times the change in fairness of raw cumulative gains."""
    d_eff = sum(rel_row[item] * pm.probs[k] for k, item in enumerate(order))
    gains_after = gains_before.copy()
    for k, item in enumerate(order):
        g = groups[item]
        gains_after[g] += pm.probs[k] * (ve[g] + rel_row[item] * vb[g])
    d_fair = unfairness(gains_before, y) - unfairness(gains_after, y)
    return d_eff + alpha * d_fair


def test_c4_micro_instance_optimality_gap():
    # Instance distribution: n in [4,7], K=3, m=2, gain weights and targets
    # uniform on [0.2, 2], a warm ledger from 2-10 previously served lists,
    # and alpha log-uniform on 10^[-2, 0.5] so fairness-dominated cases are
    # well represented.
    rng = np.random.default_rng(1004)
    pm = PositionModel.logarithmic(3)
    start = time.perf_counter()
    gaps = []
    for _ in range(100):
        n = int(rng.integers(4, 8))
        groups = np.concatenate([np.array([0, 1]), rng.integers(0, 2, n - 2)])
        rng.shuffle(groups)
        catalog = Catalog.from_assignments(groups, 2)
        profiles = [
            ProviderProfile(float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2)))
            for _ in range(2)
        ]
        rel = RelevanceTable(1, [(0, i, float(rng.random())) for i in range(n)])
        ledger = GainLedger.empty(2)
        for _ in range(int(rng.integers(2, 11))):
            items = rng.choice(n, 3, replace=False)
            apply_expected_feedback(RankList(tuple(int(i) for i in items), 0), 0, rel, profiles, catalog, ledger, pm)
        alpha = float(10 ** rng.uniform(-2, 0.5))
        ve = np.array([p.exposure_value for p in profiles])
        vb = np.array([p.purchase_value for p in profiles])
        y = np.array([p.gain_target for p in profiles])
        rel_row = rel.dense_row(0, n)
        gains = ledger.raw_gains()
        ranked = offline_rank_user(
            PolicyConfig("EquityRank", alpha), np.arange(n), 0, rel, ledger, catalog, profiles, pm
        )
        achieved = _delta_objective(ranked.positions, rel_row, groups, gains, ve, vb, y, alpha, pm)
        optimum = max(
            _delta_objective(order, rel_row, groups, gains, ve, vb, y, alpha, pm)
            for order in itertools.permutations(range(n), 3)
        )
        gaps.append((optimum - achieved) / max(abs(optimum), 1e-12))
    elapsed = time.perf_counter() - start
    gaps = np.array(gaps)
    within = int((gaps <= 0.05).sum())
    percentiles = np.percentile(gaps, [50, 90, 99, 100])
    print(
        "criterion 4 gap distribution: p50=%.4g p90=%.4g p99=%.4g max=%.4g"
        % (percentiles[0], percentiles[1], percentiles[2], percentiles[3])
    )
    ok = within >= 90 and elapsed < 30.0
    report("4 optimality-gap", ok, f"{within}/100 within 5% of brute-force optimum (need >= 90), {elapsed:.2f}s (< 30s)")
    assert within >= 90
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criteria 5-7: qualitative reproduction on the default synthetic datasets
# ---------------------------------------------------------------------------


def test_c5_min_unfairness_ordering(common_sweep):
    out, elapsed, stats = common_sweep
    _, eqv = best_by_unfairness(stats, "EquityRankV")
    _, poork = best_by_unfairness(stats, "PoorK")
    _, topk = best_by_unfairness(stats, "TopK")
    ok = (
        eqv["unfairness"] <= 1.5 * poork["unfairness"]
        and topk["unfairness"] >= 10.0 * eqv["unfairness"]
        and elapsed < 300.0
    )
    report(
        "5 table2-ordering",
        ok,
        f"min unfair: EquityRankV {eqv['unfairness']:.4g} vs PoorK {poork['unfairness']:.4g} "
        f"(need <= 1.5x), TopK {topk['unfairness']:.4g} (need >= 10x EqV); sweep {elapsed:.1f}s (< 300s)",
    )
    assert eqv["unfairness"] <= 1.5 * poork["unfairness"]
    assert topk["unfairness"] >= 10.0 * eqv["unfairness"]
    assert elapsed < 300.0


def test_c6_alignment_ordering(common_sweep, scenario_sweeps):
    _, _, common_stats = common_sweep
    all_stats = {"common": common_stats, **scenario_sweeps}
    failures = []
    details = []
    for scenario, stats in all_stats.items():
        _, eqv = best_by_unfairness(stats, "EquityRankV")
        _, poork = best_by_unfairness(stats, "PoorK")
        _, fairco = best_by_unfairness(stats, "FairCoStar")
        details.append(
            f"{scenario}: msd EqV {eqv['msd']:.3g} | PoorK {poork['msd']:.3g} | FairCo* {fairco['msd']:.3g}; "
            f"rho EqV {eqv['pearson']:.3f} | PoorK {poork['pearson']:.3f} | FairCo* {fairco['pearson']:.3f}"
        )
        if not (eqv["msd"] < poork["msd"] and eqv["msd"] < fairco["msd"]):
            failures.append(f"{scenario} msd")
        if not (eqv["pearson"] > poork["pearson"] and eqv["pearson"] > fairco["pearson"]):
            failures.append(f"{scenario} pearson")
    ok = not failures
    report("6 table4-ordering", ok, "; ".join(details) + (f" FAILED: {failures}" if failures else ""))
    assert not failures


def _envelope_value(envelope, threshold):
    value = None
    for t, e in envelope:
        if t <= threshold:
            value = e
        else:
            break
    return value


def test_c7_envelope_dominance(common_sweep):
    _, _, stats = common_sweep
    envelopes = {}
    for policy in ("EquityRankV", "FairCoStar"):
        points = [(s["unfairness"], s["effectiveness"]) for (p, _), s in stats.items() if p == policy]
        envelopes[policy] = tradeoff_envelope(points)
    for policy, env in envelopes.items():
        values = [e for _, e in env]
        assert all(a <= b for a, b in zip(values, values[1:])), f"{policy} envelope not monotone"
    lower = max(env[0][0] for env in envelopes.values())
    thresholds = sorted({t for env in envelopes.values() for t, _ in env if t >= lower})
    worst_deficit = -math.inf
    for u in thresholds:
        eqv = _envelope_value(envelopes["EquityRankV"], u)
        fairco = _envelope_value(envelopes["FairCoStar"], u)
        worst_deficit = max(worst_deficit, fairco - eqv)
    ok = worst_deficit <= 0.02
    report(
        "7 envelope-dominance",
        ok,
        f"{len(thresholds)} shared thresholds, worst EquityRankV deficit vs FairCo* "
        f"{worst_deficit:.4f} (allowed 0.02); both envelopes monotone",
    )
    assert worst_deficit <= 0.02


# ---------------------------------------------------------------------------
# Criterion 8: online protocol at paper defaults
# ---------------------------------------------------------------------------


def test_c8_online_protocol(tmp_path):
    dataset = generate_dataset(GeneratorSpec(), ScenarioSpec.common())
    cfg = SimConfig(
        list_size=5, total_steps=250_000, gamma=0.995, prefilter_size=20, mode="online", record_ndcg=True
    )
    start = time.perf_counter()
    result, trace = run_online(dataset, "EquityRank", 1e-4, 0, cfg)
    elapsed = time.perf_counter() - start

    series = trace.ndcg_series
    T = series.size
    direct = float(np.sum(0.995 ** (T - np.arange(1, T + 1)) * series))
    cndcg_err = abs(result.effectiveness - direct) / max(abs(direct), 1e-12)

    # estimator convergence harness: item 0 served alone at the top slot,
    # r = 0.4; the candidate set holds both items, so item 0 is one of them
    harness = generate_dataset(GeneratorSpec(n_users=1, n_items=2, n_providers=2, sparsity=1.0, seed=3),
                               ScenarioSpec.common())
    true_r = harness.relevance.get(0, 0)
    state = make_online_state(harness, 11, SimConfig(list_size=1, prefilter_size=2, prefilter_noise=0.0,
                                                     total_steps=0, mode="online"))
    pm1 = PositionModel.logarithmic(1)
    for _ in range(2000):
        apply_feedback(RankList((0,), 0), 0, harness.relevance, harness.profiles, harness.catalog, state, pm1)
    estimate = estimate_relevance(0, 0, state)
    converged = abs(estimate - true_r) <= 0.05 and state.exposure[0, state.slot(0, 0)] >= 200

    ok = elapsed < 600.0 and cndcg_err <= 1e-6 and converged
    report(
        "8 online-protocol",
        ok,
        f"250k steps in {elapsed:.1f}s (< 600s); cNDCG vs direct evaluation rel err {cndcg_err:.3g} "
        f"(tol 1e-6); estimator |r_hat - r| = {abs(estimate - true_r):.4f} after 2000 exposures (tol 0.05)",
    )
    assert elapsed < 600.0
    assert cndcg_err <= 1e-6
    assert converged


# ---------------------------------------------------------------------------
# Criterion 9: complexity scaling
# ---------------------------------------------------------------------------


class _DenseRelevance:
    def __init__(self, values):
        self.values = values

    def relevance_of(self, user, items):
        return self.values[items]


def _step_latency(n, m, reps=15):
    rng = np.random.default_rng(12345)
    groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    catalog = Catalog.from_assignments(groups, m)
    profiles = [
        ProviderProfile(float(rng.uniform(1, 10)), float(rng.uniform(10, 100)), float(rng.uniform(10, 90)))
        for _ in range(m)
    ]
    ledger = GainLedger.empty(m)
    ledger.exposure_gain[:] = rng.random(m) * 100
    ledger.purchase_gain[:] = rng.random(m) * 1000
    ledger.step_count = 10
    rel = _DenseRelevance(rng.random(n))
    candidates = np.arange(n, dtype=np.int64)
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        sv = equityrank_scores(candidates, 0, rel, ledger, catalog, profiles, 1e-4)
        rank_by_scores(sv, 5)
        best = min(best, time.perf_counter() - start)
    return best


def test_c9_complexity_scaling():
    n_sizes = (10**3, 10**4, 10**5)
    n_times = [_step_latency(n, 20) for n in n_sizes]
    slope_n = float(np.polyfit(np.log(n_sizes), np.log(n_times), 1)[0])

    m_sizes = (10, 10**2, 10**3)
    m_times = [_step_latency(2000, m) for m in m_sizes]
    slope_m = float(np.polyfit(np.log(m_sizes), np.log(m_times), 1)[0])

    ok = slope_n <= 1.15 and slope_m <= 2.0
    report(
        "9 complexity",
        ok,
        f"n-scaling slope {slope_n:.3f} (<= 1.15) over {[f'{t*1e3:.2f}ms' for t in n_times]}; "
        f"m-scaling slope {slope_m:.3f} (<= 2.0) over {[f'{t*1e3:.2f}ms' for t in m_times]}",
    )
    assert slope_n <= 1.15
    assert slope_m <= 2.0


# ---------------------------------------------------------------------------
# Criterion 10: sweep determinism
# ---------------------------------------------------------------------------


def test_c10_sweep_determinism(tmp_path):
    def plan(out):
        return ExperimentPlan(
            out_dir=str(out),
            generator=GeneratorSpec(n_users=100, n_items=200, n_providers=8, latent_dim=6, sparsity=0.1, seed=21),
            scenario="common",
            policies=("TopK", "PoorK", "EquityRank", "EquityRankV"),
            alpha_grid=(0.0, 1e-3, 1.0),
            seeds=(0, 1),
            sim=SimConfig(list_size=5, mode="offline"),
        )

    a = cmd_sweep(plan(tmp_path / "a"))
    b = cmd_sweep(plan(tmp_path / "b"))
    compared = []
    identical = True
    for name in ("results.csv", "summary.csv", "envelope_TopK.csv", "envelope_EquityRankV.csv"):
        same = (a / name).read_bytes() == (b / name).read_bytes()
        compared.append(f"{name}:{'=' if same else '!='}")
        identical = identical and same
    report("10 determinism", identical, f"two identical plans -> {' '.join(compared)}")
    assert identical
