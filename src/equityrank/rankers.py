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

Tie-breaking is deterministic everywhere: score descending, then relevance
descending, then item id ascending ("relevance_then_id"); the "id" rule
skips the relevance key.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, provider_arrays
from .metrics import GainLedger, fairness_gradient_unchecked

__all__ = [
    "POLICY_KINDS",
    "TIE_BREAK_RULES",
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
]

POLICY_KINDS = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
TIE_BREAK_RULES = ("relevance_then_id", "id")
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
    tie_break: str = "relevance_then_id"

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        _check_alpha(self.alpha)
        if self.tie_break not in TIE_BREAK_RULES:
            raise ValueError(f"unknown tie-break rule {self.tie_break!r}")


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


def _candidate_array(candidates: Sequence[int] | np.ndarray, catalog: Catalog) -> np.ndarray:
    ids = np.asarray(candidates, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("candidates must be a nonempty 1-d sequence of item ids")
    if ids.min() < 0 or ids.max() >= catalog.item_count:
        raise ValueError("candidate set contains an unknown item id")
    return ids


def _context(
    candidates, catalog: Catalog, profiles: Sequence[ProviderProfile], ctx: ProviderContext | None
) -> tuple[np.ndarray, ProviderContext]:
    """Candidate ids and provider context at a public ranker's boundary.

    A caller passing ``ctx`` (a simulation loop) checked its candidate ids
    once, when it built its candidate sets, so they are only converted here;
    for any other caller the ids are checked and the context built here.
    """
    if ctx is None:
        return _candidate_array(candidates, catalog), ProviderContext.of(profiles)
    return np.asarray(candidates, dtype=np.int64), ctx


def _sorted_order(ids: np.ndarray, scores: np.ndarray, rel: np.ndarray, tie_break: str) -> np.ndarray:
    # np.lexsort sorts by the last key first, so keys are listed least
    # significant to most significant.
    if tie_break == "relevance_then_id":
        return np.lexsort((ids, -rel, -scores))
    if tie_break == "id":
        return np.lexsort((ids, -scores))
    raise ValueError(f"unknown tie-break rule {tie_break!r}")


def rank_by_scores(sv: ScoreVector, k: int, tie_break: str = "relevance_then_id") -> np.ndarray:
    """Top-``k`` item ids by descending score with deterministic tie-breaking.

    When k is small relative to a large candidate count, an O(n) partition
    narrows the field to the candidates at or above the k-th score (ties
    included) before the full sort, without changing the selected list.
    """
    ids, scores, rel = sv.item_ids, sv.scores, sv.relevance
    size = ids.size
    if size < k:
        raise ValueError(f"need at least {k} candidates, got {size}")
    if size >= PARTITION_MIN_CANDIDATES and 4 * k <= size:
        neg = -scores
        kth = np.partition(neg, k - 1)[k - 1]
        keep = np.flatnonzero(neg <= kth)
        ids, scores, rel = ids[keep], scores[keep], rel[keep]
    return ids[_sorted_order(ids, scores, rel, tie_break)[:k]]


def _argbest(ids: np.ndarray, scores: np.ndarray, rel: np.ndarray) -> int:
    """Index of the single best entry under (score desc, rel desc, id asc)."""
    tied = np.flatnonzero(scores == scores.max())
    if tied.size == 1:
        return int(tied[0])
    sub = tied[np.lexsort((ids[tied], -rel[tied]))]
    return int(sub[0])


def _relevance_scores(ids: np.ndarray, user: int, rel_source) -> ScoreVector:
    """TopK scoring of checked candidate ids: the score of an item is its relevance."""
    rel = rel_source.relevance_of(user, ids)
    return ScoreVector(item_ids=ids, scores=rel, relevance=rel)


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

    With ``ctx``, ``candidates`` must be ids already checked against the catalog.
    """
    ids, ctx = _context(candidates, catalog, profiles, ctx)
    k_slots = pm.list_size
    if ids.size < k_slots:
        raise ValueError(f"need at least {k_slots} candidates, got {ids.size}")
    rel = rel_source.relevance_of(user, ids)
    groups = catalog.group_of[ids]
    ve, vb, y = ctx.exposure_value, ctx.purchase_value, ctx.gain_target
    gains = ledger.raw_gains().copy()

    queues: dict[int, deque[int]] = {}
    for idx in np.lexsort((ids, -rel)):
        queues.setdefault(int(groups[idx]), deque()).append(int(idx))

    chosen: list[int] = []
    for k0 in range(k_slots):
        live = [g for g in sorted(queues) if queues[g]]
        ratios = [gains[g] / y[g] for g in live]
        g_star = live[int(np.argmin(ratios))]
        idx = queues[g_star].popleft()
        chosen.append(int(ids[idx]))
        gains[g_star] += pm.probs[k0] * (ve[g_star] + rel[idx] * vb[g_star])
    return RankList(tuple(chosen), user)


def rank_fairco_star(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    pm: PositionModel,
    tie_break: str = "relevance_then_id",
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
    return _rank_scored(sv, user, pm, tie_break)


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
    k_slots = pm.list_size
    if ids.size < k_slots:
        raise ValueError(f"need at least {k_slots} candidates, got {ids.size}")
    rel = rel_source.relevance_of(user, ids)
    groups = catalog.group_of[ids]
    ve, vb, y = ctx.exposure_value, ctx.purchase_value, ctx.gain_target
    gains = ledger.raw_gains().copy()
    avail = np.ones(ids.size, dtype=bool)

    chosen: list[int] = []
    for k0 in range(k_slots):
        idxs = np.flatnonzero(avail)
        r = rel[idxs]
        lo, hi = r.min(), r.max()
        norm = (r - lo) / (hi - lo) if hi > lo else np.zeros_like(r)
        live = np.unique(groups[idxs])
        worst = int(live[int(np.argmin(gains[live] / y[live]))])
        scores = (1.0 - alpha) * norm + alpha * (groups[idxs] == worst)
        pick = int(idxs[_argbest(ids[idxs], scores, r)])
        chosen.append(int(ids[pick]))
        gains[groups[pick]] += pm.probs[k0] * (ve[groups[pick]] + rel[pick] * vb[groups[pick]])
        avail[pick] = False
    return RankList(tuple(chosen), user)


def _rank_equityrank_slotwise(
    ids: np.ndarray,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    ctx: ProviderContext,
    alpha: float,
    pm: PositionModel,
) -> RankList:
    """Offline EquityRank: refresh the gradient after every filled slot."""
    k_slots = pm.list_size
    if ids.size < k_slots:
        raise ValueError(f"need at least {k_slots} candidates, got {ids.size}")
    rel = rel_source.relevance_of(user, ids)
    groups = catalog.group_of[ids]
    ve, vb = ctx.exposure_value, ctx.purchase_value
    gains = ledger.raw_gains().copy()
    avail = np.ones(ids.size, dtype=bool)

    chosen: list[int] = []
    for k0 in range(k_slots):
        idxs = np.flatnonzero(avail)
        r = rel[idxs]
        scores = _equity_score_values(r, groups[idxs], gains, ctx, alpha)
        pick = int(idxs[_argbest(ids[idxs], scores, r)])
        chosen.append(int(ids[pick]))
        gains[groups[pick]] += pm.probs[k0] * (ve[groups[pick]] + rel[pick] * vb[groups[pick]])
        avail[pick] = False
    return RankList(tuple(chosen), user)


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
    updated provider balance. Returns one list per user, in input order.
    """
    _check_alpha(alpha)
    n = catalog.item_count
    if n < pm.list_size:
        raise ValueError(f"need at least {pm.list_size} items, got {n}")
    user_ids = [int(u) for u in users]
    rows = {u: rel.relevance_of(u, np.arange(n, dtype=np.int64)) for u in user_ids}
    groups = catalog.group_of
    if ctx is None:
        ctx = ProviderContext.of(profiles)
    ve, vb = ctx.exposure_value, ctx.purchase_value
    avail = {u: np.ones(n, dtype=bool) for u in user_ids}
    slots: dict[int, list[int]] = {u: [] for u in user_ids}

    for k0 in range(pm.list_size):
        p_k = pm.probs[k0]
        for u in user_ids:
            idxs = np.flatnonzero(avail[u])
            r = rows[u][idxs]
            scores = _equity_score_values(r, groups[idxs], ledger.raw_gains(), ctx, alpha)
            item = int(idxs[_argbest(idxs, scores, r)])
            g = int(groups[item])
            r_item = float(rows[u][item])
            ledger.exposure_gain[g] += p_k * ve[g]
            ledger.purchase_gain[g] += p_k * r_item * vb[g]
            ledger.group_exposure[g] += p_k
            avail[u][item] = False
            slots[u].append(item)
    ledger.step_count += len(user_ids)
    return [RankList(tuple(slots[u]), u) for u in user_ids]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _rank_scored(sv: ScoreVector, user: int, pm: PositionModel, tie_break: str) -> RankList:
    return RankList(tuple(rank_by_scores(sv, pm.list_size, tie_break).tolist()), user)


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
        sv = _relevance_scores(ids, user, estimator)
        return _rank_scored(sv, user, pm, policy.tie_break)
    if policy.kind == "EquityRank":
        sv = equityrank_scores(ids, user, estimator, ledger, catalog, profiles, policy.alpha, ctx=ctx)
        return _rank_scored(sv, user, pm, policy.tie_break)
    if policy.kind == "FairCoStar":
        return rank_fairco_star(
            ids, user, estimator, ledger, catalog, profiles, policy.alpha, pm, policy.tie_break, ctx=ctx
        )
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
        return _rank_equityrank_slotwise(ids, user, rel, ledger, catalog, ctx, policy.alpha, pm)
    return online_step_rank(policy, ids, user, rel, ledger, catalog, profiles, pm, ctx=ctx)
