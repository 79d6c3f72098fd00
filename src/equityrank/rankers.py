"""Ranking policies behind a single dispatch interface.

All policies consume a candidate set, a relevance source (true labels or an
online estimator), and a gain ledger snapshot, and emit a top-K list:

* ``TopK``       -- pure relevance ordering.
* ``PoorK``      -- slot by slot, serve the provider with the lowest
                    gain-to-target ratio, picking its most relevant item.
* ``FairCoStar`` -- proportional-controller boost for lagging providers.
* ``MMFStar``    -- per-slot blend of normalized relevance and a worst-off
                    provider indicator; degrades to PoorK at alpha = 1.
* ``EquityRank`` -- relevance plus the analytic fairness gradient of each
                    item's provider, scaled by the item's gain weights.
* ``EquityRankV``-- EquityRank with vertical allocation: offline only, all
                    users' slot k is filled before any slot k+1.

Rankers read raw cumulative gains (no per-step averaging) and recompute the
fairness gradient from scratch on every request; the provider count is small
compared to the item count, so this is cheap. The per-run provider constants
come from a ``ProviderContext``: the simulation loops build one per run and
pass it as ``ctx``; a ranker called without one builds it, and checks its
candidate ids, at its own boundary. A caller passing ``ctx`` must pass
candidate ids it has already checked against the catalog (the loops check
each candidate set once, when they build it): with ``ctx`` the ids are only
converted to int64, not bounds-checked.

PoorK, MMF*, offline EquityRank and EquityRankV share one slot-greedy
kernel: each slot takes the best remaining candidate under the policy's
score, then adds its expected gain p_k (v_e + r v_b) to the provider gains
before the next slot is scored.

Tie-breaking is deterministic everywhere and has a single rule: score
descending, then relevance descending, then item id ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, provider_arrays
from .metrics import GainLedger, fairness_gradient_unchecked

__all__ = [
    "POLICY_KINDS",
    "PolicyConfig",
    "ProviderContext",
    "ScoreVector",
    "allocate_vertical",
    "equityrank_scores",
    "offline_rank_user",
    "online_step_rank",
    "rank_by_scores",
    "rank_fairco_star",
    "rank_mmf_star",
    "rank_poork",
    "top_k_order",
]

POLICY_KINDS = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
# Below this many candidates one full sort is cheaper than narrowing the
# field with a partition first (measured for k = 5: the two cost the same
# near 200 candidates); both select the same list.
PARTITION_MIN_CANDIDATES = 200


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")


@dataclass(frozen=True)
class PolicyConfig:
    """A ranking policy selection with its balance parameter."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class ProviderContext:
    """Per-run provider constants that every ranking step reads.

    Built once from the provider profiles, so the step loops neither rebuild
    the provider arrays nor recompute the gradient's constants. ``target_sq`` is y . y and
    ``gradient_scale`` is 4 / (m (m-1)): the constants of the fairness
    gradient (NaN for a single provider, which has no gradient).
    """

    exposure_value: np.ndarray
    purchase_value: np.ndarray
    gain_target: np.ndarray
    target_sq: float
    gradient_scale: float

    @classmethod
    def of(cls, profiles: Sequence[ProviderProfile]) -> ProviderContext:
        ve, vb, y = provider_arrays(profiles)
        m = y.size
        return cls(
            exposure_value=ve,
            purchase_value=vb,
            gain_target=y,
            target_sq=float(y @ y),
            gradient_scale=4.0 / (m * (m - 1)) if m > 1 else math.nan,
        )

    def fairness_gradient(self, gains: np.ndarray) -> np.ndarray:
        """``metrics.fairness_gradient`` of raw gains against these targets."""
        if self.gain_target.size < 2:
            raise ValueError("pairwise unfairness needs at least two providers")
        return fairness_gradient_unchecked(gains, self.gain_target, self.target_sq, self.gradient_scale)


@dataclass(frozen=True)
class ScoreVector:
    """Per-candidate scores plus the relevance used for tie-breaking."""

    item_ids: np.ndarray
    scores: np.ndarray
    relevance: np.ndarray

    def __post_init__(self) -> None:
        if not (self.item_ids.shape == self.scores.shape == self.relevance.shape):
            raise ValueError("item_ids, scores, and relevance must align")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite")


def _context(
    candidates, catalog: Catalog, profiles: Sequence[ProviderProfile], ctx: ProviderContext | None
) -> tuple[np.ndarray, ProviderContext]:
    """Candidate ids and provider context at a public ranker's boundary.

    A caller passing ``ctx`` (a simulation loop) checked its candidate ids
    once, when it built its candidate sets, so they are only converted here;
    for any other caller the ids are checked and the context built here.
    """
    ids = np.asarray(candidates, dtype=np.int64)
    if ctx is not None:
        return ids, ctx
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("candidates must be a nonempty 1-d sequence of item ids")
    if ids.min() < 0 or ids.max() >= catalog.item_count:
        raise ValueError("candidate set contains an unknown item id")
    return ids, ProviderContext.of(profiles)


def top_k_order(keys: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Indices of the first ``k`` entries in ``np.lexsort(keys)`` order.

    As for ``np.lexsort``, the keys are listed least significant first and
    ties on every key keep index order. When k is small relative to a large
    count, an O(n) partition narrows the field to the entries at or below
    the k-th value of the last key (ties included) before the sort, without
    changing the result.
    """
    primary = keys[-1]
    if primary.size >= PARTITION_MIN_CANDIDATES and 4 * k <= primary.size:
        kth = np.partition(primary, k - 1)[k - 1]
        keep = np.flatnonzero(primary <= kth)
        return keep[np.lexsort([key[keep] for key in keys])[:k]]
    return np.lexsort(keys)[:k]


def rank_by_scores(sv: ScoreVector, k: int) -> np.ndarray:
    """Top-``k`` item ids by descending score with deterministic tie-breaking.

    Ties go to the higher relevance, then to the lower id.
    """
    ids = sv.item_ids
    if ids.size < k:
        raise ValueError(f"need at least {k} candidates, got {ids.size}")
    return ids[top_k_order((ids, -sv.relevance, -sv.scores), k)]


# Scores of the still-available candidates, given their relevance, their
# providers and the current provider gains.
SlotScore = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _pick(
    ids: np.ndarray, rel: np.ndarray, groups: np.ndarray, avail: np.ndarray, gains: np.ndarray, score: SlotScore
) -> int:
    """Take the best available candidate and return its index.

    Best is the highest ``score``, ties broken by relevance descending, then
    id ascending. The pick is marked unavailable in ``avail``.
    """
    idxs = np.flatnonzero(avail)
    r = rel[idxs]
    scores = score(r, groups[idxs], gains)
    tied = np.flatnonzero(scores == scores.max())
    if tied.size > 1:
        tied = tied[np.lexsort((ids[idxs[tied]], -r[tied]))]
    best = int(idxs[tied[0]])
    avail[best] = False
    return best


def _greedy_fill(
    ids: np.ndarray,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    ctx: ProviderContext,
    pm: PositionModel,
    score: SlotScore,
) -> RankList:
    """Fill one user's list slot by slot with ``_pick``.

    After each slot the placed item's expected gain p_k (v_e + r v_b) is
    added to a slot-local copy of the ledger's gains, which the next slot's
    scores read; the ledger itself is not changed.
    """
    if ids.size < pm.list_size:
        raise ValueError(f"need at least {pm.list_size} candidates, got {ids.size}")
    rel = rel_source.relevance_of(user, ids)
    groups = catalog.group_of[ids]
    gains = ledger.raw_gains()
    avail = np.ones(ids.size, dtype=bool)
    chosen: list[int] = []
    for p_k in pm.probs:
        pick = _pick(ids, rel, groups, avail, gains, score)
        g = groups[pick]
        gains[g] += p_k * (ctx.exposure_value[g] + rel[pick] * ctx.purchase_value[g])
        chosen.append(int(ids[pick]))
    return RankList(tuple(chosen), user)


# ---------------------------------------------------------------------------
# EquityRank
# ---------------------------------------------------------------------------


def _equity_score_values(
    rel: np.ndarray, groups: np.ndarray, raw_gains: np.ndarray, ctx: ProviderContext, alpha: float
) -> np.ndarray:
    if alpha == 0.0:
        return rel.copy()
    b = ctx.fairness_gradient(raw_gains)
    return rel + alpha * b[groups] * (ctx.exposure_value[groups] + rel * ctx.purchase_value[groups])


def equityrank_scores(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    *,
    ctx: ProviderContext | None = None,
) -> ScoreVector:
    """Gradient scores: relevance plus the provider's fairness gradient scaled
    by the item's marginal gain per unit exposure.

    The fairness gradient is computed once per call from the ledger's raw
    cumulative gains, then broadcast to candidates through their groups.

    With ``ctx``, ``candidates`` must be ids already checked against the catalog.
    """
    _check_alpha(alpha)
    ids, ctx = _context(candidates, catalog, profiles, ctx)
    rel = rel_source.relevance_of(user, ids)
    scores = _equity_score_values(rel, catalog.group_of[ids], ledger.raw_gains(), ctx, alpha)
    return ScoreVector(item_ids=ids, scores=scores, relevance=rel)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def rank_poork(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    pm: PositionModel,
    *,
    ctx: ProviderContext | None = None,
) -> RankList:
    """Serve the poorest provider first.

    Each slot goes to the provider with the smallest gain-to-target ratio
    among providers that still have candidates (ties: lowest provider id),
    filled with that provider's most relevant remaining item (ties: lowest
    item id). The placed item's expected gain, weighted by the slot's
    examination probability, is added to a slot-local gain copy before the
    next slot is decided.

    This is MMF*'s score at alpha = 1, where the blend reduces to the
    worst-off provider indicator.

    With ``ctx``, ``candidates`` must be ids already checked against the catalog.
    """
    ids, ctx = _context(candidates, catalog, profiles, ctx)
    score = partial(_mmf_score_values, ctx=ctx, alpha=1.0)
    return _greedy_fill(ids, user, rel_source, ledger, catalog, ctx, pm, score)


def rank_fairco_star(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    pm: PositionModel,
    *,
    ctx: ProviderContext | None = None,
) -> RankList:
    """Proportional-controller scoring under the gain-to-target metric.

    A provider lagging behind the currently best-served provider gets its
    items boosted by alpha times the ratio shortfall; the error term is
    clipped at zero so no item scores below its own relevance.

    With ``ctx``, ``candidates`` must be ids already checked against the catalog.
    """
    _check_alpha(alpha)
    ids, ctx = _context(candidates, catalog, profiles, ctx)
    rel = rel_source.relevance_of(user, ids)
    groups = catalog.group_of[ids]
    ratios = ledger.raw_gains() / ctx.gain_target
    err = np.maximum(0.0, ratios.max() - ratios)
    sv = ScoreVector(item_ids=ids, scores=rel + alpha * err[groups], relevance=rel)
    return _rank_scored(sv, user, pm)


def rank_mmf_star(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    pm: PositionModel,
    *,
    ctx: ProviderContext | None = None,
) -> RankList:
    """Per-slot blend of normalized relevance and a worst-off provider bonus.

    score = (1 - alpha) * minmax(relevance) + alpha * [provider is worst off],
    recomputed per slot over the remaining candidates with the same
    slot-local gain updates as PoorK. alpha = 0 reproduces TopK; alpha = 1
    reproduces PoorK.

    With ``ctx``, ``candidates`` must be ids already checked against the catalog.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1] for this policy")
    ids, ctx = _context(candidates, catalog, profiles, ctx)
    score = partial(_mmf_score_values, ctx=ctx, alpha=alpha)
    return _greedy_fill(ids, user, rel_source, ledger, catalog, ctx, pm, score)


def _mmf_score_values(
    rel: np.ndarray, groups: np.ndarray, raw_gains: np.ndarray, ctx: ProviderContext, alpha: float
) -> np.ndarray:
    # the worst-off provider has the smallest gain-to-target ratio among the
    # providers with a candidate left (ties: lowest provider id)
    lo, hi = rel.min(), rel.max()
    norm = (rel - lo) / (hi - lo) if hi > lo else np.zeros_like(rel)
    live = np.unique(groups)
    worst = live[np.argmin(raw_gains[live] / ctx.gain_target[live])]
    return (1.0 - alpha) * norm + alpha * (groups == worst)


# ---------------------------------------------------------------------------
# Vertical allocation
# ---------------------------------------------------------------------------


def allocate_vertical(
    users: Sequence[int],
    rel,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    pm: PositionModel,
    *,
    ctx: ProviderContext | None = None,
) -> list[RankList]:
    """Fill slot k for every user before any slot k+1 (offline only).

    Iterates position levels top to bottom, visiting users in the given
    order within each level. Every assignment takes the item with the
    largest current gradient among the user's unassigned items and
    immediately commits its expected gain (weighted by the level's
    examination probability) to the ledger, so later assignments see the
    updated provider balance. ``users`` must be distinct ids. Returns one
    list per user, in input order.
    """
    _check_alpha(alpha)
    n = catalog.item_count
    if n < pm.list_size:
        raise ValueError(f"need at least {pm.list_size} items, got {n}")
    user_ids = [int(u) for u in users]
    if len(set(user_ids)) != len(user_ids):
        raise ValueError("users must be distinct ids")
    if ctx is None:
        ctx = ProviderContext.of(profiles)
    ids = np.arange(n, dtype=np.int64)
    groups = catalog.group_of
    rows = [rel.relevance_of(u, ids) for u in user_ids]
    avail = [np.ones(n, dtype=bool) for _ in user_ids]
    slots: list[list[int]] = [[] for _ in user_ids]
    score = partial(_equity_score_values, ctx=ctx, alpha=alpha)

    for p_k in pm.probs:
        for row, free, chosen in zip(rows, avail, slots):
            item = _pick(ids, row, groups, free, ledger.raw_gains(), score)
            ledger.accrue((groups[item],), (p_k,), (p_k * row[item],), profiles)
            chosen.append(item)
    ledger.step_count += len(user_ids)
    return [RankList(tuple(chosen), u) for u, chosen in zip(user_ids, slots)]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _rank_scored(sv: ScoreVector, user: int, pm: PositionModel) -> RankList:
    return RankList(tuple(rank_by_scores(sv, pm.list_size).tolist()), user)


def online_step_rank(
    policy: PolicyConfig,
    candidates,
    user: int,
    estimator,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    pm: PositionModel,
    *,
    ctx: ProviderContext | None = None,
) -> RankList:
    """Rank one user's candidates with estimated relevance (online mode).

    With ``ctx``, ``candidates`` must be ids already checked against the catalog.
    """
    if policy.kind == "EquityRankV":
        raise ValueError("EquityRankV requires offline mode (vertical allocation needs all users at once)")
    ids, ctx = _context(candidates, catalog, profiles, ctx)
    if policy.kind == "TopK":
        rel = estimator.relevance_of(user, ids)
        return _rank_scored(ScoreVector(item_ids=ids, scores=rel, relevance=rel), user, pm)
    if policy.kind == "EquityRank":
        sv = equityrank_scores(ids, user, estimator, ledger, catalog, profiles, policy.alpha, ctx=ctx)
        return _rank_scored(sv, user, pm)
    if policy.kind == "FairCoStar":
        return rank_fairco_star(ids, user, estimator, ledger, catalog, profiles, policy.alpha, pm, ctx=ctx)
    if policy.kind == "PoorK":
        return rank_poork(ids, user, estimator, ledger, catalog, profiles, pm, ctx=ctx)
    if policy.kind == "MMFStar":
        return rank_mmf_star(ids, user, estimator, ledger, catalog, profiles, policy.alpha, pm, ctx=ctx)
    raise ValueError(f"unknown policy kind {policy.kind!r}")


def offline_rank_user(
    policy: PolicyConfig,
    candidates,
    user: int,
    rel,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    pm: PositionModel,
    *,
    ctx: ProviderContext | None = None,
) -> RankList:
    """Rank one user's candidates with true relevance (offline mode).

    EquityRank refreshes its gradient per slot here; the other policies
    behave exactly as in the online dispatch.

    With ``ctx``, ``candidates`` must be ids already checked against the catalog.
    """
    if policy.kind == "EquityRankV":
        raise ValueError("EquityRankV lists are built jointly; use allocate_vertical")
    ids, ctx = _context(candidates, catalog, profiles, ctx)
    if policy.kind == "EquityRank":
        score = partial(_equity_score_values, ctx=ctx, alpha=policy.alpha)
        return _greedy_fill(ids, user, rel, ledger, catalog, ctx, pm, score)
    return online_step_rank(policy, ids, user, rel, ledger, catalog, profiles, pm, ctx=ctx)
