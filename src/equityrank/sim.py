"""Offline and online ranking-service simulation loops.

Offline mode serves every user exactly once with true relevance labels and
accrues expected gains. Online mode serves one uniformly sampled user per
step: the ranker sees only relevance estimated from past feedback
(cumulative purchases over accumulated exposure), purchases are Bernoulli
samples of examination probability times true relevance, and exposure gain
accrues deterministically from the expected examination mass.

An offline run serves each list by position in the user's segment of the
dataset's offline field, and reads nothing else. An online run fixes each
user's prefiltered candidate set when it starts, and a step
(``online_step``: estimate -> score -> top-K -> feedback -> DCG) works by
candidate slot, an item's position in that sorted set, with the estimates
and raw gains that ``OnlineState`` keeps current. The id-level
``RankList``, ``apply_feedback``, ``apply_expected_feedback`` and
``metrics.andcg`` are the checked boundary; no run goes through them.

Every run owns its own seeded random generator and gain ledger, so runs are
reproducible bit for bit and can execute concurrently without sharing state.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, RelevanceTable, provider_arrays
from .metrics import (
    GainLedger,
    RunResult,
    alignment_diagnostics,
    cndcg_update,
    discounted_sum,
    ideal_dcg,
    ndcg_from,
    unfairness,
)
from .rankers import PolicyConfig, PolicyPlan, _allocate_vertical, offline_field, top_k_order

__all__ = [
    "OnlineState",
    "OnlineTrace",
    "SimConfig",
    "apply_expected_feedback",
    "apply_feedback",
    "estimate_relevance",
    "make_online_state",
    "online_step",
    "prefilter_candidates",
    "run_offline",
    "run_online",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol parameters.

    ``cutoff`` (the evaluation prefix) defaults to the full list size.
    ``checkpoint_every`` controls how often the online loop records a
    (step, cndcg, unfairness) sample; the final step is always recorded.
    """

    list_size: int = 5
    total_steps: int = 250_000
    gamma: float = 0.995
    cutoff: int | None = None
    prefilter_size: int = 20
    prefilter_noise: float = 0.1
    checkpoint_every: int = 1000
    mode: str = "offline"
    record_ndcg: bool = False

    def __post_init__(self) -> None:
        if self.list_size < 1:
            raise ValueError("list_size must be positive")
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.cutoff is not None and not 1 <= self.cutoff <= self.list_size:
            raise ValueError("cutoff must lie in [1, list_size]")
        if self.prefilter_size < self.list_size:
            raise ValueError("prefilter_size must be at least list_size")
        if not (math.isfinite(self.prefilter_noise) and self.prefilter_noise >= 0):
            raise ValueError("prefilter_noise must be finite and nonnegative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if self.mode not in ("offline", "online"):
            raise ValueError("mode must be 'offline' or 'online'")
        if not isinstance(self.record_ndcg, bool):
            raise ValueError(f"record_ndcg must be true or false, got {self.record_ndcg!r}")

    @property
    def eval_cutoff(self) -> int:
        return self.cutoff if self.cutoff is not None else self.list_size


@dataclass
class OnlineState:
    """Mutable state of one online run: ledger, candidate sets, estimator, rng.

    ``candidate_sets`` holds one row of distinct item ids per user, all rows
    the same length; the constructor sorts each row ascending, and an item's
    index in its user's row is its candidate slot (see ``slot``). The
    estimator's counters are arrays of the same (users x candidates) shape,
    indexed by slot: ``exposure`` accumulates examination probability and
    ``purchases`` counts purchases. The provider-level gains live on the
    ledger; this object adds the running discounted effectiveness and the
    step counter.

    The feedback stage keeps two derived arrays current at the slots and
    providers it touches, so a step reads them without recomputing:
    ``estimate``, every slot's ``relevance_of``, and ``gains``, the ledger's
    ``raw_gains``. Writing the counters or the ledger directly bypasses them.

    Item-to-slot lookups (``slots``) search the user's sorted row, for
    callers holding item ids; the online step uses slots.
    """

    ledger: GainLedger
    candidate_sets: np.ndarray
    rng: np.random.Generator
    cndcg: float = 0.0
    step: int = 0
    ideal_cache: np.ndarray | None = None
    exposure: np.ndarray = field(init=False, repr=False)
    purchases: np.ndarray = field(init=False, repr=False)
    estimate: np.ndarray = field(init=False, repr=False)
    gains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sets = np.asarray(self.candidate_sets, dtype=np.int64)
        if sets.ndim != 2 or sets.shape[1] == 0:
            raise ValueError("candidate sets must be nonempty rows of equal length, one per user")
        sets = np.sort(sets, axis=1)
        if sets[:, 0].min() < 0:
            raise ValueError("candidate sets contain a negative item id")
        if np.any(sets[:, 1:] == sets[:, :-1]):
            raise ValueError("a candidate set repeats an item id")
        self.candidate_sets = sets
        self.exposure = np.zeros(sets.shape, dtype=np.float64)
        self.purchases = np.zeros(sets.shape, dtype=np.int64)
        self.estimate = np.ones(sets.shape, dtype=np.float64)
        self.gains = self.ledger.raw_gains()

    def slots(self, user: int, items) -> list[int]:
        """Candidate slots of ``items`` (a sequence of item ids) for ``user``.

        Raises ValueError if any item is not one of the user's candidates.
        """
        row, items = self.candidate_sets[user], np.asarray(items)
        slots = row.searchsorted(items)
        missing = row[np.minimum(slots, row.size - 1)] != items
        if missing.any():
            raise ValueError(f"item {items[missing][0]} is not a candidate of user {user}")
        return slots.tolist()

    def slot(self, user: int, item: int) -> int:
        """Candidate slot of one item (the scalar view of ``slots``)."""
        return self.slots(user, [item])[0]

    def relevance_of(self, user: int, items) -> np.ndarray:
        """Estimated relevance of candidate ``items`` (see estimate_relevance)."""
        slots = self.slots(user, items)
        exposure, purchases = self.exposure[user].take(slots), self.purchases[user].take(slots)
        estimate = np.ones(exposure.size, dtype=np.float64)
        np.divide(purchases, exposure, out=estimate, where=exposure > 0.0)
        return np.minimum(estimate, 1.0, out=estimate)


def estimate_relevance(user: int, item: int, state: OnlineState) -> float:
    """Unbiased estimator cumB / E, clamped to [0, 1].

    Never-exposed pairs read the optimistic prior 1.0, which guarantees that
    every candidate is eventually tried without an explicit exploration
    bonus. The clamp is needed because exposure accrues in fractional
    examination-probability units while purchases are whole events, so the
    raw ratio can transiently exceed 1. This is the scalar view of
    ``OnlineState.relevance_of``; ``item`` must be one of the user's
    candidates.
    """
    return float(state.relevance_of(user, [item])[0])


def _feedback(state: OnlineState, user: int, slots, at, provider, exposure_value, purchase_value, relevance, probs):
    """The feedback stage of one served list, given by candidate slot.

    Position k serves slot ``slots[k]``; its provider, the provider's weights
    v_e and v_b, and its true relevance r are entry ``at[k]`` of ``provider``,
    ``exposure_value``, ``purchase_value`` and ``relevance``. It pays p_k v_e
    of exposure gain and p_k of examination mass, and with probability p_k r
    (one uniform draw) a purchase worth v_b; the slot's counters, the kept
    gains and the estimate follow, top position first. Returns the served
    relevances and the purchase outcomes.
    """
    draws = state.rng.random(len(slots)).tolist()
    ledger, gains = state.ledger, state.gains
    exposure_gain, purchase_gain, group_exposure = ledger.exposure_gain, ledger.purchase_gain, ledger.group_exposure
    exposure, purchases, estimate = state.exposure[user], state.purchases[user], state.estimate[user]
    served, bought = [], []
    # a few positions per list: scalar updates in position order beat
    # vectorised ones here, and add repeated providers' gains in list order.
    # Each entry is read once with item() and summed as a Python float: the
    # same IEEE operations as numpy's, without numpy's per-scalar overhead.
    for slot, i, p_k, draw in zip(slots, at, probs, draws):
        g, r = provider.item(i), relevance.item(i)
        paid = exposure_gain.item(g) + p_k * exposure_value.item(i)
        exposure_gain[g] = paid
        sold, count = purchase_gain.item(g), purchases.item(slot)
        hit = draw < p_k * r
        if hit:
            sold += purchase_value.item(i)
            purchase_gain[g] = sold
            count += 1
            purchases[slot] = count
        seen = exposure.item(slot) + p_k
        exposure[slot] = seen
        group_exposure[g] = group_exposure.item(g) + p_k
        gains[g] = paid + sold
        ratio = count / seen
        estimate[slot] = 1.0 if ratio > 1.0 else ratio
        served.append(r)
        bought.append(hit)
    ledger.step_count += 1
    return served, bought


def apply_feedback(
    ranklist: RankList,
    user: int,
    rel: RelevanceTable,
    profiles: Sequence[ProviderProfile],
    catalog: Catalog,
    state: OnlineState,
    pm: PositionModel,
    *,
    relevance: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate one user's interaction with a served list.

    Exposure gain accrues deterministically (examination probability times
    the provider's exposure value); purchases are Bernoulli draws with
    probability p_k * relevance, paying the provider's purchase value. The
    estimator's counters grow at the served items' candidate slots; serving
    an item that is not one of the user's candidates raises ValueError.
    ``relevance`` is the served items' true relevance, one per position, for
    a caller that already read it. Returns the per-position purchase outcomes.
    """
    user = int(user)
    items = ranklist.positions
    if len(items) > pm.list_size:
        raise ValueError(f"rank list has {len(items)} items, more than the {pm.list_size} positions")
    slots = state.slots(user, items)
    if relevance is None:
        relevance = rel.relevance_of(user, items)
    elif len(relevance) != len(items):
        raise ValueError(f"got {len(relevance)} relevances for {len(items)} served items")
    groups = catalog.group_of[list(items)]
    ve, vb, _ = provider_arrays([profiles[g] for g in groups])
    at = range(len(items))
    _, bought = _feedback(state, user, slots, at, groups, ve, vb, np.asarray(relevance), pm.probs.tolist())
    return np.array(bought, dtype=bool)


def apply_expected_feedback(
    ranklist: RankList,
    user: int,
    rel: RelevanceTable,
    profiles: Sequence[ProviderProfile],
    catalog: Catalog,
    ledger: GainLedger,
    pm: PositionModel,
) -> None:
    """Accrue one served list's expected gains, by item id (no sampling).

    Raises ValueError, before any ledger write, for a list longer than the
    position model.
    """
    items = ranklist.positions
    if len(items) > pm.list_size:
        raise ValueError(f"rank list has {len(items)} items, more than the {pm.list_size} positions")
    served = zip(catalog.group_of[list(items)].tolist(), pm.probs.tolist(), rel.relevance_of(user, items).tolist())
    for g, p_k, r in served:
        ledger.accrue(g, p_k, p_k * r, profiles[g])
    ledger.step_count += 1


def prefilter_candidates(
    user: int,
    rel: RelevanceTable,
    item_count: int,
    size: int,
    noise_sd: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Coarse-ranking stand-in: top ``size`` items by noisy true relevance.

    The degraded signal is the true relevance plus zero-mean Gaussian noise;
    with noise_sd = 0 it is exactly the true top ``size``. Equal signals go
    to the lower item id. Returns the chosen ids ascending; the result is
    fixed for the run (callers draw it once per user). A ``size`` outside
    [1, item_count] raises ValueError before any noise is drawn.
    """
    if not 1 <= size <= item_count:
        raise ValueError(f"prefilter size {size} must lie in [1, item count {item_count}]")
    noisy = rel.dense_row(user, item_count) + rng.normal(0.0, noise_sd, item_count)
    return np.sort(top_k_order((-noisy,), size)).astype(np.int64)


@dataclass
class OnlineTrace:
    """Per-run time series: (step, cndcg, unfairness) checkpoints."""

    checkpoints: list[tuple[int, float, float]] = field(default_factory=list)
    ndcg_series: np.ndarray | None = None


def _result(
    mode: str,
    policy: str,
    alpha: float,
    seed: int,
    effectiveness: float,
    ledger: GainLedger,
    profiles: Sequence[ProviderProfile],
    wall: float,
) -> RunResult:
    if ledger.step_count > 0:
        unfair = unfairness(ledger.averaged_gains(), provider_arrays(profiles)[2])
    else:
        unfair = math.nan
    try:
        diag = alignment_diagnostics(ledger, profiles)
        msd, pearson = diag.msd, diag.pearson
    except ValueError:
        msd, pearson = math.nan, math.nan
    return RunResult(
        mode=mode,
        policy=policy,
        alpha=alpha,
        seed=seed,
        effectiveness=effectiveness,
        unfairness=unfair,
        msd=msd,
        pearson=pearson,
        wall_time=wall,
    )


def _check_dataset(dataset, cfg: SimConfig) -> tuple[Catalog, list[ProviderProfile], RelevanceTable]:
    catalog, profiles, rel = dataset.catalog, dataset.profiles, dataset.relevance
    if len(profiles) != catalog.provider_count:
        raise ValueError("profile list does not match the catalog's provider count")
    # every run reports the pairwise unfairness; refuse before ranking anyone
    if catalog.provider_count < 2:
        raise ValueError("pairwise unfairness needs at least two providers")
    if catalog.item_count < cfg.list_size:
        raise ValueError("catalog has fewer items than the list size")
    if rel.max_item_id() >= catalog.item_count:
        raise ValueError("relevance table references items beyond the catalog")
    return catalog, profiles, rel


def _derived(dataset, key: tuple, build):
    """``build()``, kept in ``dataset.derived`` under ``key`` for later runs on the same object."""
    if key not in dataset.derived:
        dataset.derived[key] = build()
    return dataset.derived[key]


def run_offline(dataset, policy: str, alpha: float, seed: int, cfg: SimConfig) -> RunResult:
    """Serve every user once with true relevance and expected-gain accrual.

    Users are visited in a seeded shuffled order (the same order feeds the
    vertical allocator, which revisits it level by level). Effectiveness is
    the mean NDCG at the evaluation cutoff, taken once every list is served;
    unfairness is computed on per-list averaged gains.

    Each list is ranked from the user's segment of the dataset's offline
    field (``rankers.offline_field``), whose lists are the whole catalog's.
    The field and the users' ideal DCGs are built on the first offline run
    on a dataset object and shared by its later runs with the same list
    size (and cutoff).
    """
    catalog, profiles, rel = _check_dataset(dataset, cfg)
    pm = PositionModel.logarithmic(cfg.list_size)
    policy_cfg = PolicyConfig(kind=policy, alpha=alpha)
    user_order = np.random.default_rng(seed).permutation(rel.user_count)
    # the visit order is a pure function of the run seed; log its head so a
    # run can be cross-checked without rerunning
    logger.debug("offline run policy=%s alpha=%s seed=%s user order head=%s", policy, alpha, seed, user_order[:8])

    start = time.perf_counter()
    ledger = GainLedger.empty(catalog.provider_count)
    k, cutoff, probs = cfg.list_size, cfg.eval_cutoff, pm.probs.tolist()
    field = _derived(dataset, ("offline_field", k), lambda: offline_field(rel, catalog, k))
    if policy == "EquityRankV":
        _, served = _allocate_vertical(user_order, ledger, catalog, profiles, alpha, pm, field)
    else:
        plan = PolicyPlan(policy_cfg, np.arange(catalog.item_count)[None, :], catalog, profiles, slotwise=True)
        gains, served = ledger.raw_gains(), []
        for user in user_order.tolist():
            base, values = field.indptr[user], []
            for p_k, at in zip(probs, plan.rank_segment(field, user, gains, probs)):
                g, r = field.provider.item(base + at), field.relevance.item(base + at)
                gains[g] = ledger.accrue(g, p_k, p_k * r, profiles[g])
                values.append(r)
            served.append(values)
        ledger.step_count += len(user_order)
    ideal = _derived(dataset, ("ideal_dcg", k, cutoff), lambda: _ideal_dcgs(rel, cutoff, pm))
    ndcgs = [ndcg_from(discounted_sum(r, probs, cutoff), ideal[u]) for u, r in zip(user_order, served)]
    effectiveness = sum(ndcgs) / len(ndcgs)
    wall = time.perf_counter() - start
    return _result("offline", policy, alpha, seed, effectiveness, ledger, profiles, wall)


def _ideal_dcgs(rel: RelevanceTable, cutoff: int, pm: PositionModel) -> np.ndarray:
    """Every user's ideal DCG at ``cutoff``, indexed by user id."""
    return np.array([ideal_dcg(rel.user_values(u), cutoff, pm) for u in range(rel.user_count)])


def make_online_state(dataset, seed: int, cfg: SimConfig) -> OnlineState:
    """Initialize an online run: seeded rng, prefiltered candidate sets, caches.

    The prefilter size is capped at the catalog size so small datasets can
    run with the protocol defaults. The prefilter draws candidates from the
    catalog's own ids, so the step loop trusts them without rechecking.
    """
    catalog, profiles, rel = _check_dataset(dataset, cfg)
    pm = PositionModel.logarithmic(cfg.list_size)
    rng = np.random.default_rng(seed)
    size = min(cfg.prefilter_size, catalog.item_count)
    candidate_sets = [
        prefilter_candidates(u, rel, catalog.item_count, size, cfg.prefilter_noise, rng)
        for u in range(rel.user_count)
    ]
    return OnlineState(
        ledger=GainLedger.empty(catalog.provider_count),
        candidate_sets=candidate_sets,
        rng=rng,
        ideal_cache=_ideal_dcgs(rel, cfg.eval_cutoff, pm),
    )


def online_step(
    plan: PolicyPlan, state: OnlineState, user: int, true_rel: np.ndarray, probs: list[float], cutoff: int
) -> tuple[list[int], float]:
    """One request of an online run, by candidate slot.

    Ranks ``user``'s candidates with ``plan`` from the state's estimate row
    and raw gains, serves the list with sampled feedback (see ``_feedback``),
    and returns the served slots, top first, and their DCG at ``cutoff``.
    ``true_rel`` is the user's true relevance in slot order and ``probs`` the
    examination probabilities as floats.
    """
    slots = plan.rank(user, state.estimate[user], state.gains, probs)
    ve, vb = plan.exposure_value[user], plan.purchase_value[user]
    served, _ = _feedback(state, user, slots, slots, plan.provider[user], ve, vb, true_rel, probs)
    return slots, discounted_sum(served, probs, cutoff)


def run_online(dataset, policy: str, alpha: float, seed: int, cfg: SimConfig) -> tuple[RunResult, OnlineTrace]:
    """Simulate the online service loop for ``cfg.total_steps`` steps.

    Each step samples a user uniformly, ranks their prefiltered candidates
    with estimated relevance, applies sampled feedback, and updates the
    discounted cumulative NDCG (computed against true relevance). Emits the
    final result plus the checkpoint time series.
    """
    if policy == "EquityRankV":
        raise ValueError("EquityRankV requires offline mode (vertical allocation needs all users at once)")
    policy_cfg = PolicyConfig(kind=policy, alpha=alpha)
    cutoff = cfg.eval_cutoff
    probs = PositionModel.logarithmic(cfg.list_size).probs.tolist()

    start = time.perf_counter()
    # make_online_state checks the dataset before any list is served
    state = make_online_state(dataset, seed, cfg)
    profiles, rel = dataset.profiles, dataset.relevance
    ledger, candidate_sets, ideal_dcgs = state.ledger, state.candidate_sets, state.ideal_cache
    plan = PolicyPlan(policy_cfg, candidate_sets, dataset.catalog, profiles)
    # true relevance over every user's candidate row, read once: a step takes
    # its served items' values by candidate slot, with no table lookup
    true_rel = np.array([rel.relevance_of(u, row) for u, row in enumerate(candidate_sets)])
    trace = OnlineTrace()
    ndcg_series = np.empty(cfg.total_steps, dtype=np.float64) if cfg.record_ndcg else None

    for t in range(1, cfg.total_steps + 1):
        user = int(state.rng.integers(rel.user_count))
        _, dcg = online_step(plan, state, user, true_rel[user], probs, cutoff)
        ndcg_t = ndcg_from(dcg, ideal_dcgs[user])
        state.cndcg = cndcg_update(state.cndcg, ndcg_t, cfg.gamma)
        state.step = t
        if ndcg_series is not None:
            ndcg_series[t - 1] = ndcg_t
        if t % cfg.checkpoint_every == 0 or t == cfg.total_steps:
            trace.checkpoints.append((t, state.cndcg, unfairness(ledger.averaged_gains(), plan.targets)))

    wall = time.perf_counter() - start
    trace.ndcg_series = ndcg_series
    result = _result("online", policy, alpha, seed, state.cndcg, ledger, profiles, wall)
    return result, trace
