"""Offline and online ranking-service simulation loops.

Offline mode serves every user exactly once with true relevance labels and
accrues expected gains. Online mode serves one uniformly sampled user per
step: the ranker sees only relevance estimated from past feedback
(cumulative purchases over accumulated exposure), purchases are Bernoulli
samples of examination probability times true relevance, and exposure gain
accrues deterministically from the expected examination mass.

``run_offline_batch`` and ``run_online_batch`` are the drivers;
``run_offline`` and ``run_online`` are their calls with one run. A driver
checks the dataset once and stacks the weights once (``provider_arrays``),
and returns per run its outcome or the exception it raised: a run fails
alone. Every run owns its seeded generator and gain ledger, so runs are
reproducible bit for bit and can execute concurrently: what they share, the
dataset's derived arrays, no run writes. The id-level ``RankList``,
``apply_feedback``, ``apply_expected_feedback`` and ``metrics.andcg`` are
the checked boundary for callers holding item ids; no run goes through
them. README: "Offline engines" and "The online loop" for the mechanism,
"Exactness rules" for the bits.
"""

from __future__ import annotations

import logging
import math
import operator
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, RelevanceTable, _finite, _whole_id, _whole_ids, provider_arrays
from .metrics import (
    GainLedger,
    RunResult,
    _alignment,
    discounted_sum,
    ideal_dcg,
    ndcg_from,
    unfairness,
)
from .rankers import PolicyConfig, PolicyPlan, offline_field, serve_offline, top_k_order

__all__ = [
    "OnlineState",
    "OnlineTrace",
    "SimConfig",
    "apply_expected_feedback",
    "apply_feedback",
    "estimate_relevance",
    "make_online_state",
    "prefilter_candidates",
    "run_offline",
    "run_offline_batch",
    "run_online",
    "run_online_batch",
    "step_draws",
]

logger = logging.getLogger(__name__)
# step_draws draws an online run's randomness this many steps at a time; a
# block's uniforms are held as Python lists, so a larger block costs memory
DRAW_BLOCK = 512
_LOW32 = np.uint64(0xFFFFFFFF)


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
        for name in ("list_size", "total_steps", "cutoff", "prefilter_size", "checkpoint_every"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _whole_id(getattr(self, name), name))
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
        if not (_finite(self.prefilter_noise) and self.prefilter_noise >= 0):
            raise ValueError("prefilter_noise must be finite and nonnegative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if self.mode not in ("offline", "online"):
            raise ValueError("mode must be 'offline' or 'online'")
        if not isinstance(self.record_ndcg, bool):
            raise ValueError(f"record_ndcg must be true or false, got {self.record_ndcg!r}")
        for name in ("gamma", "prefilter_noise"):  # as Python floats, so a run computes in float64
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def eval_cutoff(self) -> int:
        return self.cutoff if self.cutoff is not None else self.list_size


@dataclass(eq=False)
class OnlineState:
    """Mutable state of one online run: ledger, candidate sets, estimator, rng.

    ``candidate_sets`` holds one row of distinct item ids per user, all rows
    the same length; the constructor sorts each row ascending, and an item's
    index in its user's row is its candidate slot (see ``slot``). The
    estimator's counters are arrays of the same (users x candidates) shape,
    indexed by slot: ``exposure`` accumulates examination probability and
    ``purchases`` counts purchases. The provider-level gains live on the
    ledger. The state holds only what the feedback stage writes; the run
    that owns it keeps its plan, position model, ideal DCGs and cNDCG.

    The feedback stage keeps two derived arrays current at the slots and
    providers it touches: ``estimate``, every slot's ``relevance_of``, and
    ``gains``, the ledger's ``raw_gains``. Writing the counters or the
    ledger directly bypasses them. A caller may replace any of these four
    arrays with a C-contiguous array of its shape and dtype; later feedback
    writes into the replacement. A state copies and pickles as a dataclass
    does, and equals only itself. ``slots`` maps item ids to slots.
    """

    ledger: GainLedger
    candidate_sets: np.ndarray
    rng: np.random.Generator
    exposure: np.ndarray = field(init=False, repr=False)
    purchases: np.ndarray = field(init=False, repr=False)
    estimate: np.ndarray = field(init=False, repr=False)
    gains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sets = _whole_ids(self.candidate_sets, "item id")
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


def _flat_view(a: np.ndarray) -> memoryview:
    """A 1-d memoryview of C-contiguous ``a``'s own buffer; TypeError for any other ``a``."""
    view = memoryview(a)
    return view.cast("B").cast(view.format)


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


def _feedback_views(state: OnlineState) -> tuple:
    """Flat views of the state's exposure, purchases, estimate and gains, as ``_feedback`` writes them."""
    return tuple(_flat_view(a) for a in (state.exposure, state.purchases, state.estimate, state.gains))


def _feedback(state: OnlineState, views, user: int, slots, truth, weights, probs, draws):
    """The feedback stage of one served list, given by candidate slot.

    Position k serves slot ``slots[k]``, entry i = user * C + slot of the
    state's (users x C) arrays for C candidates a user, written through
    ``views``, their ``_feedback_views``. ``truth`` is a pair (relevance,
    provider) read at entry i: the slot's true relevance r and provider g.
    It is bought when the uniform ``draws[k]`` falls below p_k r, and pays
    g by ``GainLedger.accrue`` at ``weights``, ``GainLedger.pay``'s (v_e, v_b)
    indexed by provider id, 0 or 1 bought; the slot's counters, the kept gains
    and the estimate follow, top position first. Returns the served relevances and purchases.
    """
    (exposure, purchases, estimate, gains), (relevance, provider), (ve, vb) = views, truth, weights
    accrue, base, served, bought = state.ledger.accrue, user * state.candidate_sets.shape[1], [], []
    # a few positions per list: scalar updates in position order, on Python floats and ints
    # through the views (README, "Exactness rules"), beat vectorised ones here
    for slot, p_k, draw in zip(slots, probs, draws):
        i = base + slot
        g, r = provider[i], relevance[i]
        hit = draw < p_k * r
        gains[g] = accrue(g, p_k, 1.0 if hit else 0.0, ve[g], vb[g])
        count = purchases[i] + hit
        if hit:
            purchases[i] = count
        exposure[i] = seen = exposure[i] + p_k
        ratio = count / seen
        estimate[i] = 1.0 if ratio > 1.0 else ratio
        served.append(r)
        bought.append(hit)
    state.ledger.step_count += 1
    return served, bought


def _served_weights(profiles: Sequence[ProviderProfile], providers: list[int]) -> tuple[dict, dict]:
    """The served ``providers``' (v_e, v_b) as Python floats, keyed by provider id: at most K profiles."""
    served = list(dict.fromkeys(providers))
    return tuple(dict(zip(served, a.tolist())) for a in provider_arrays([profiles[g] for g in served])[:2])


def apply_feedback(
    ranklist: RankList,
    user: int,
    rel: RelevanceTable,
    profiles: Sequence[ProviderProfile],
    catalog: Catalog,
    state: OnlineState,
    pm: PositionModel,
) -> np.ndarray:
    """Simulate one user's interaction with a served list.

    Exposure gain accrues deterministically (examination probability times
    the provider's exposure value); purchases are Bernoulli draws with
    probability p_k * relevance, paying the provider's purchase value, and
    the estimator's counters grow at the served items' candidate slots. A
    list that ``RankList.items_for`` refuses, or an item not among the
    user's candidates, raises ValueError before any write. Returns the
    per-position purchase outcomes.
    """
    items, groups = ranklist.items_for(user, catalog, pm.list_size)
    user = int(user)
    slots = state.slots(user, items)
    # the served entries' truth, keyed as _feedback reads it
    at = [user * state.candidate_sets.shape[1] + slot for slot in slots]
    truth = dict(zip(at, rel.relevance_of(user, items).tolist())), dict(zip(at, groups))
    draws = state.rng.random(len(items)).tolist()
    weights = _served_weights(profiles, groups)
    _, bought = _feedback(state, _feedback_views(state), user, slots, truth, weights, pm.probs.tolist(), draws)
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

    A list that ``RankList.items_for`` refuses raises ValueError before any ledger write.
    """
    items, groups = ranklist.items_for(user, catalog, pm.list_size)
    ledger.pay(groups, pm.probs.tolist(), rel.relevance_of(user, items).tolist(), *_served_weights(profiles, groups))
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
    fixed for the run (callers draw it once per user). A ``size`` that is
    not a whole number in [1, item_count], or a ``noise_sd`` that is not
    finite and nonnegative, raises ValueError before any noise is drawn.
    """
    size = _whole_id(size, "prefilter size")
    if not 1 <= size <= item_count:
        raise ValueError(f"prefilter size {size} must lie in [1, item count {item_count}]")
    if not (_finite(noise_sd) and noise_sd >= 0):
        raise ValueError("prefilter_noise must be finite and nonnegative")
    noisy = rel.dense_row(user, item_count) + rng.normal(0.0, noise_sd, item_count)
    return np.sort(top_k_order((-noisy,), size)).astype(np.int64)


@dataclass(eq=False)
class OnlineTrace:
    """Per-run time series: (step, cndcg, unfairness) checkpoints, and with
    ``record_ndcg`` each step's NDCG. A trace equals only itself."""

    checkpoints: list[tuple[int, float, float]] = field(default_factory=list)
    ndcg_series: np.ndarray | None = None


def _result(
    mode: str,
    policy: str,
    alpha: float,
    seed: int,
    effectiveness: float,
    ledger: GainLedger,
    arrays: tuple,
    wall: float,
) -> RunResult:
    """A run's ``RunResult``, given its profiles' ``provider_arrays`` (v_e, v_b, y) as ``arrays``."""
    ve, vb, targets = arrays
    unfair = unfairness(ledger.averaged_gains(), targets) if ledger.step_count > 0 else math.nan
    try:
        diag = _alignment(ledger, ve, vb)
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

    This is ``run_offline_batch`` of the one run, and raises the exception
    that its outcome holds.
    """
    (outcome,) = run_offline_batch(dataset, policy, [(alpha, seed)], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_offline_batch(dataset, policy: str, runs: Sequence[tuple[float, int]], cfg: SimConfig) -> list:
    """``run_offline`` of ``policy`` at each (alpha, seed) of ``runs``, each served by the
    engine ``rankers.serve_offline`` picks for it, with the lists, ledger and result it
    gets alone.

    Returns, per run, its ``RunResult`` or the exception it raised, such as
    a ``ValueError`` for a seed it refuses: a run fails alone. A dataset
    that no run can use raises. README, "Offline engines", says how the runs
    are served and what a dataset object keeps for later calls.
    """
    catalog, profiles, rel = _check_dataset(dataset, cfg)
    if not runs:
        return []
    pm, arrays = PositionModel.logarithmic(cfg.list_size), provider_arrays(profiles)
    k, cutoff, probs = cfg.list_size, cfg.eval_cutoff, pm.probs.tolist()
    field = _derived(dataset, ("offline_field", k), lambda: offline_field(rel, catalog, k))
    ideal = _derived(dataset, ("ideal_dcg", k, cutoff), lambda: _ideal_dcgs(rel, cutoff, pm))

    def finish(i, order, served, ledger, wall):
        """Run i's result from ``served``, its users' relevances, a row per user of
        ``order``, top first: each user's NDCG by ``discounted_sum`` and ``ndcg_from``'s
        operations, in their order, for all users at once, and their mean."""
        alpha, seed = runs[i]
        ledger.step_count += len(served)
        dcg = np.zeros(len(served))
        for column, p_k in zip(served[:, :cutoff].T, probs):
            dcg += column * p_k
        ideals = ideal[order]
        ndcgs = np.divide(dcg, ideals, out=np.ones_like(dcg), where=ideals != 0.0).tolist()
        # Python's sum, as andcg's: np.sum adds in another order
        return _result("offline", policy, alpha, seed, sum(ndcgs) / len(ndcgs), ledger, arrays, wall)

    outcomes: list = [None] * len(runs)
    ready = []  # the runs that pass their checks; run ready[r] visits users orders[r]
    orders = np.empty((len(runs), rel.user_count), dtype=np.int64)
    for i, (alpha, seed) in enumerate(runs):
        try:
            order = orders[len(ready)] = np.random.default_rng(seed).permutation(rel.user_count)
        except Exception as exc:  # noqa: BLE001 - the run fails alone
            outcomes[i] = exc
            continue
        # the visit order is a pure function of the run seed; log its head
        # so a run can be cross-checked without rerunning
        logger.debug("offline run policy=%s alpha=%s seed=%s user order head=%s", policy, alpha, seed, order[:8])
        ready.append(i)
    orders = orders[: len(ready)]
    ledgers = [GainLedger.empty(catalog.provider_count) for _ in ready]
    picks, walls, failed = serve_offline(policy, [runs[i][0] for i in ready], field, orders, ledgers, arrays, probs)
    for r, (i, order, ledger) in enumerate(zip(ready, orders, ledgers)):
        if r in failed:
            outcomes[i] = failed[r]
            continue
        try:
            served = field.relevance[field.indptr[order][:, None] + picks[r]]
            outcomes[i] = finish(i, order, served, ledger, walls[r])
        except Exception as exc:  # noqa: BLE001 - the run fails alone
            outcomes[i] = exc
    return outcomes


def _ideal_dcgs(rel: RelevanceTable, cutoff: int, pm: PositionModel) -> np.ndarray:
    """Every user's ideal DCG at ``cutoff``, indexed by user id."""
    return np.array([ideal_dcg(rel.user_values(u), cutoff, pm) for u in range(rel.user_count)])


def make_online_state(dataset, seed: int, cfg: SimConfig) -> OnlineState:
    """Initialize an online run's state: its seeded rng, prefiltered candidate sets and empty ledger.

    The prefilter size is capped at the catalog size so small datasets can
    run with the protocol defaults. The candidate sets of an integer seed
    are kept on the dataset object and shared by later states and runs of
    that seed (``_OnlineRows``); each state gets its own arrays and generator.
    """
    _check_dataset(dataset, cfg)
    return _online_state(dataset, seed, cfg)[0]


@dataclass(frozen=True)
class _OnlineRows:
    """The set-up of an online run, the same for every run of its ``key``: (seed, capped
    prefilter size, noise), or None for a seed that is not an integer, whose rows are never kept.

    ``candidate_sets`` are the prefiltered rows, sorted; ``relevance`` and ``providers`` the
    true relevance and the provider at each of their entries; ``rng_state`` the generator's
    ``bit_generator.state`` after the prefilter. The arrays are read-only.
    """

    key: tuple | None
    candidate_sets: np.ndarray
    relevance: np.ndarray
    providers: np.ndarray
    rng_state: dict


def _online_state(dataset, seed: int, cfg: SimConfig) -> tuple[OnlineState, _OnlineRows]:
    """``make_online_state`` on a dataset already checked, beside the run's ``_OnlineRows``: the
    rows kept for its key, its generator restored to their state and no prefilter drawn, or
    else rows drawn and read here, kept for an integer seed."""
    catalog, rel = dataset.catalog, dataset.relevance
    size, rows = min(cfg.prefilter_size, catalog.item_count), dataset.derived.get("online_rows")
    try:
        key = operator.index(seed), size, cfg.prefilter_noise
    except TypeError:  # default_rng hands a Generator seed back itself, which a restore would rewind
        key = None
    rng = np.random.default_rng(seed)
    if key is not None and rows is not None and rows.key == key:
        rng.bit_generator.state = rows.rng_state
        candidate_sets = rows.candidate_sets
    else:
        rows, candidate_sets = None, [
            prefilter_candidates(u, rel, catalog.item_count, size, cfg.prefilter_noise, rng)
            for u in range(rel.user_count)
        ]
    state = OnlineState(ledger=GainLedger.empty(catalog.provider_count), candidate_sets=candidate_sets, rng=rng)
    if rows is None:
        sets = state.candidate_sets
        arrays = sets.copy(), np.array([rel.relevance_of(u, row) for u, row in enumerate(sets)]), catalog.group_of[sets]
        for a in arrays:
            a.flags.writeable = False
        rows = _OnlineRows(key, *arrays, rng.bit_generator.state)
        if key is not None:
            dataset.derived["online_rows"] = rows
    return state, rows


def step_draws(rng: np.random.Generator, users: int, k: int, steps: int):
    """Yield the randomness of ``steps`` online steps, in blocks of at most ``DRAW_BLOCK`` steps.

    A block is a pair of lists: each step's user, and its ``k`` purchase
    uniforms. They are bit for bit what the alternating calls
    ``int(rng.integers(users))`` and ``rng.random(k).tolist()`` return, and
    after each block ``rng`` is where those calls leave it (README, "The
    online loop"; ``_pcg64_block``). ``users`` 1, whose draw takes nothing,
    goes through the calls.
    """
    bitgen = rng.bit_generator
    from_raw = type(bitgen) is np.random.PCG64 and 2 <= users < 2**32
    while steps > 0:
        size = min(DRAW_BLOCK, steps)
        who, draws = _pcg64_block(bitgen, users, k, size) if from_raw else ([], [])
        if len(who) < size:
            from_raw = False
            for _ in range(size - len(who)):
                who.append(int(rng.integers(users)))
                draws.append(rng.random(k).tolist())
        steps -= size
        yield who, draws


def _pcg64_block(bitgen: np.random.PCG64, users: int, k: int, steps: int) -> tuple[list[int], list[list[float]]]:
    """``step_draws``' users and uniforms of up to ``steps`` steps, from one ``random_raw`` call.

    This follows numpy's PCG64 and ``Generator`` internals, which
    ``tests/test_step_draws.py`` checks against the real calls:

    - a 32-bit request takes the low half of a fresh 64-bit word and keeps
      the high half for the next one (``has_uint32`` and ``uinteger`` in
      the state);
    - ``integers(users)`` is Lemire's draw on one 32-bit value x: it
      returns the high 32 bits of x * users, and accepts when their low 32
      bits are at least (2**32 - users) mod users, else draws again;
    - ``random()`` is (word >> 11) * 2**-53 of a fresh word.

    So past a kept half, steps go in pairs of 1 + 2k words: the word whose
    halves are the two users, then each step's k uniforms. The draw stops
    before the first rejected user, with ``bitgen`` where the calls leave it
    before that step (the saved state advanced by the words taken before
    it), so the caller goes on with the calls themselves.
    """
    saved = bitgen.state
    kept = saved["has_uint32"]  # 1: the first step's user reads the kept half
    pairs = (steps - kept + 1) // 2
    words = bitgen.random_raw(steps * k + pairs)
    body = np.zeros((pairs, 1 + 2 * k), dtype=np.uint64)
    body.ravel()[: words.size - kept * k] = words[kept * k :]
    halves = np.stack((body[:, 0] & _LOW32, body[:, 0] >> 32), axis=1).ravel()[: steps - kept]
    uniforms = body[:, 1:].reshape(2 * pairs, k)[: steps - kept]
    if kept:
        halves = np.concatenate((np.array([saved["uinteger"]], dtype=np.uint64), halves))
        uniforms = np.concatenate((words[None, :k], uniforms))
    scaled = halves * np.uint64(users)
    rejected = np.flatnonzero((scaled & _LOW32) < (2**32 - users) % users)
    done = int(rejected[0]) if rejected.size else steps
    taken = (done - kept + 1) // 2  # user words the first `done` steps take
    if done < steps:
        bitgen.state = saved
        bitgen.advance(done * k + taken)
    state = bitgen.state
    state["has_uint32"] = (done - kept) % 2
    state["uinteger"] = int(body[taken - 1, 0] >> 32) if taken else saved["uinteger"]
    bitgen.state = state
    return (scaled[:done] >> 32).tolist(), ((uniforms[:done] >> 11) * 2.0**-53).tolist()


def run_online(dataset, policy: str, alpha: float, seed: int, cfg: SimConfig) -> tuple[RunResult, OnlineTrace]:
    """Simulate the online service loop for ``cfg.total_steps`` steps.

    Each step samples a user uniformly, ranks their prefiltered candidates
    with estimated relevance, applies sampled feedback, and updates the
    discounted cumulative NDCG (computed against true relevance). Emits the
    final result plus the checkpoint time series.

    This is ``run_online_batch`` of the one run, and raises the exception
    that its outcome holds.
    """
    (outcome,) = run_online_batch(dataset, policy, [(alpha, seed)], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_online_batch(dataset, policy: str, runs: Sequence[tuple[float, int]], cfg: SimConfig) -> list:
    """``run_online`` of ``policy`` at each (alpha, seed) of ``runs``, one run after another.

    Returns, per run, its ``(RunResult, OnlineTrace)`` or the exception it
    raised, such as a ``ValueError`` for EquityRankV, a bad alpha or a seed
    it refuses: a run fails alone. A dataset that no run can use raises.
    """
    _, profiles, _ = _check_dataset(dataset, cfg)
    arrays, outcomes = provider_arrays(profiles), []
    for alpha, seed in runs:
        try:
            outcomes.append(_online_run(dataset, policy, alpha, seed, cfg, arrays))
        except Exception as exc:  # noqa: BLE001 - the run fails alone
            outcomes.append(exc)
    return outcomes


def _online_run(dataset, policy: str, alpha: float, seed: int, cfg: SimConfig, arrays: tuple) -> tuple[RunResult, OnlineTrace]:
    """One run of ``run_online_batch``, given the ``provider_arrays`` its plan and feedback
    read (README, "The online loop"). Its wall time starts before its plan, the run's one
    policy check, and its cNDCG follows ``cndcg_update``'s recurrence."""
    start = time.perf_counter()
    rel, plan = dataset.relevance, PolicyPlan(PolicyConfig(kind=policy, alpha=alpha), arrays)
    pm, cutoff = PositionModel.logarithmic(cfg.list_size), cfg.eval_cutoff
    # as Python floats, so that each step's NDCG and the running cndcg are floats too, as is each gain paid
    probs, weights = pm.probs.tolist(), (plan.ve.tolist(), plan.vb.tolist())
    ideal_dcgs = _derived(dataset, ("ideal_dcg", cfg.list_size, cutoff), lambda: _ideal_dcgs(rel, cutoff, pm)).tolist()
    state, rows = _online_state(dataset, seed, cfg)  # run_online_batch has checked the dataset
    ledger, estimate, gains = state.ledger, state.estimate, state.gains
    truth, views = (_flat_view(rows.relevance), _flat_view(rows.providers)), _feedback_views(state)
    # each step hands the step ranker a view of the user's estimate row
    rank_row, estimates = plan.row_ranker(rows.providers, probs), list(estimate)
    trace = OnlineTrace()
    ndcg_series = np.empty(cfg.total_steps, dtype=np.float64) if cfg.record_ndcg else None

    cndcg, gamma, every, steps = 0.0, cfg.gamma, cfg.checkpoint_every, cfg.total_steps
    blocks = step_draws(state.rng, rel.user_count, cfg.list_size, steps)
    for t, (user, draws) in enumerate(chain.from_iterable(zip(*block) for block in blocks), 1):
        slots = rank_row(user, estimates[user], gains)
        served, _ = _feedback(state, views, user, slots, truth, weights, probs, draws)
        ndcg_t = ndcg_from(discounted_sum(served, probs, cutoff), ideal_dcgs[user])
        cndcg = gamma * cndcg + ndcg_t  # cndcg_update's recurrence; SimConfig has checked gamma
        if ndcg_series is not None:
            ndcg_series[t - 1] = ndcg_t
        if t % every == 0 or t == steps:
            trace.checkpoints.append((t, cndcg, unfairness(ledger.averaged_gains(), plan.targets)))

    wall = time.perf_counter() - start
    trace.ndcg_series = ndcg_series
    return _result("online", policy, alpha, seed, cndcg, ledger, arrays, wall), trace
