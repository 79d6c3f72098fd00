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

A ``PolicyPlan`` resolves one policy once, over rows of candidate slots: a
candidate's slot is its index in its row of ascending item ids, so slot
order is id order. The plan holds each candidate's provider and that
provider's weights in the rows' shape and ranks by slot. The simulation
loops build one plan per run; the public rankers below check and sort their
candidates and build a one-row plan per call. Rankers read raw cumulative
gains (no per-step averaging).

Each policy has one scorer, over any slots of a row. TopK, FairCo* and
online EquityRank score every slot once; PoorK, MMF*, offline EquityRank and
EquityRankV share one slot-greedy kernel that gathers a list's slots once,
then at each position scores them all, takes the best not yet placed, and
adds its expected gain p_k (v_e + r v_b) to the provider gains. EquityRank
takes the fairness gradient at the scored slots' providers only.

Tie-breaking is deterministic everywhere and has a single rule: score
descending, then relevance descending, then item id ascending. The greedy
kernel sorts a list's slots stably by relevance descending, so that
``argmax``'s first maximum is the rule's pick.

Offline runs rank each user's *offline field* (``offline_field``) instead of
the whole catalog, with the same lists as a result. Every policy scores an
item from its relevance, its provider and the run state alone, so the items
of one (provider, relevance) class always tie, and the lowest ids win. A
list takes at most K items, so the K lowest ids of each class hold every
pick. A class with more than K members also keeps an unpicked member in
the field at every position, so the relevance minimum and maximum and the
set of providers that MMF* reads from the remaining items do not change.
The field is every item stored for the user (nonzero relevance, or a stored
0) plus each provider's K lowest-id items of relevance 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, RelevanceTable, provider_arrays
from .metrics import GainLedger

__all__ = [
    "ALL_SLOTS",
    "POLICY_KINDS",
    "PolicyConfig",
    "PolicyPlan",
    "ScoreVector",
    "allocate_vertical",
    "equityrank_scores",
    "offline_field",
    "offline_rank_user",
    "online_step_rank",
    "rank_by_scores",
    "rank_fairco_star",
    "rank_mmf_star",
    "rank_poork",
    "top_k_order",
]

POLICY_KINDS = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
# the ``at`` of a plan's scorer that selects every slot of the row
ALL_SLOTS = slice(None)
# Below this many candidates one full sort is cheaper than narrowing the
# field with a partition first (measured for k = 5: the two cost the same
# near 200 candidates); both select the same list.
PARTITION_MIN_CANDIDATES = 200


@dataclass(frozen=True)
class PolicyConfig:
    """A ranking policy selection with its balance parameter."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and nonnegative")


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


def _candidates(candidates, catalog: Catalog) -> np.ndarray:
    """A public ranker's candidate ids, checked against the catalog and sorted,
    so that slot order, the last tie-break, is id order."""
    ids = np.asarray(candidates, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("candidates must be a nonempty 1-d sequence of item ids")
    if ids.min() < 0 or ids.max() >= catalog.item_count:
        raise ValueError("candidate set contains an unknown item id")
    return np.sort(ids)


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

    Ties go to the higher relevance, then to the lower id. ``k`` must lie in
    [1, candidate count].
    """
    ids = sv.item_ids
    if k < 1:
        raise ValueError(f"list size {k} must be positive")
    if ids.size < k:
        raise ValueError(f"need at least {k} candidates, got {ids.size}")
    return ids[top_k_order((ids, -sv.relevance, -sv.scores), k)]


@dataclass(eq=False, slots=True)
class _Columns:
    """What scorers read of some slots of a row besides relevance and weights:
    each slot's provider and its gain target, and for MMF* the number of
    slots left to each provider and the relevance range of the slots left."""

    provider: np.ndarray
    target: np.ndarray
    live: np.ndarray | None = None
    lo: float = 0.0
    hi: float = 0.0


class PolicyPlan:
    """One ranking policy resolved once, over rows of candidate slots.

    ``rows`` holds ascending candidate ids, one row per user or one row that
    every user shares; a candidate's slot is its index in its row, so slot
    order is id order. ``provider``, ``exposure_value``, ``purchase_value``
    and ``gain_target`` have the rows' shape: each candidate's provider and
    that provider's weights and target. ``targets`` holds every provider's
    gain target.

    Each policy has one scorer: ``score(row, at, rel, gains)`` returns the
    scores of slots ``at`` of ``row`` (an index array, or ``ALL_SLOTS``)
    from their relevance ``rel`` and the raw provider gains.

    ``rank(row, rel, gains, probs, field)`` returns the slots of one list
    of ``len(probs)`` positions, top first, from the relevance of the row's
    candidates in slot order, the raw provider gains and the examination
    probabilities, and changes none of them. ``field``, a bool mask over the
    row, limits the list to the marked slots (default: every slot). TopK,
    FairCo* and EquityRank score every slot of the field once, check that
    the scores are finite, and take the top slots by score, then relevance,
    then slot. PoorK, MMF* and, with ``slotwise`` (offline mode),
    EquityRank fill the list with the slot-greedy kernel: it sorts the
    field's slots stably by relevance descending once; each position scores
    them all, checks the scores are finite and takes ``argmax``'s first
    maximum among the slots not yet placed, which is the tie rule's pick.
    """

    def __init__(
        self,
        policy: PolicyConfig,
        rows: np.ndarray,
        catalog: Catalog,
        profiles: Sequence[ProviderProfile],
        slotwise: bool = False,
    ) -> None:
        kind, alpha = policy.kind, policy.alpha
        ve, vb, y = provider_arrays(profiles)
        m = y.size
        if kind == "EquityRankV":
            raise ValueError("EquityRankV lists are built jointly by allocate_vertical (offline mode)")
        if kind == "MMFStar" and alpha > 1.0:
            raise ValueError("alpha must lie in [0, 1] for this policy")
        if kind == "EquityRank" and alpha != 0.0 and m < 2:
            raise ValueError("pairwise unfairness needs at least two providers")
        # PoorK is MMF*'s score at alpha = 1
        self.alpha = 1.0 if kind == "PoorK" else alpha
        self.targets = y
        # the fairness gradient's constants y . y and 4 / (m (m-1))
        self._target_sq, self._scale = float(y @ y), 4.0 / (m * (m - 1)) if m > 1 else math.nan
        self.provider = provider = catalog.group_of[rows]
        self.exposure_value, self.purchase_value, self.gain_target = ve[provider], vb[provider], y[provider]
        self._zeros = np.zeros(rows.shape[1])
        # a plain function, not a bound method: a bound method kept on the
        # plan is a reference cycle, which would hold each run's arrays until
        # the cyclic garbage collector ran
        scorers = {"TopK": PolicyPlan._relevance, "FairCoStar": PolicyPlan._fairco, "EquityRank": PolicyPlan._equity}
        self._score_fn = scorers.get(kind, PolicyPlan._mmf)  # PoorK and MMF*
        self._greedy = kind in ("PoorK", "MMFStar") or (kind == "EquityRank" and slotwise)
        self._rows = [_Columns(p, t) for p, t in zip(provider, self.gain_target)]  # for whole rows
        self._weighted = self._greedy or (kind == "EquityRank" and alpha != 0.0)  # greedy fills accrue by weight

    def score(self, row: int, at, rel: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """The scores of slots ``at`` of ``row``, whose relevance is ``rel``."""
        cols = _Columns(self.provider[row, at], self.gain_target[row, at])
        if self._score_fn is PolicyPlan._mmf:
            cols.live = np.bincount(cols.provider, minlength=self.targets.size)
            cols.lo, cols.hi = rel.min(), rel.max()
        return self._score_fn(self, cols, rel, self._weight((row, at), rel), gains)

    def rank(self, row: int, rel: np.ndarray, gains: np.ndarray, probs, field: np.ndarray | None = None) -> list[int]:
        """The slots of one list, top first (see the class docstring)."""
        if self._greedy:
            return self._fill(row, rel, gains, probs, field)
        if field is None:
            at, zeros, cols = row, self._zeros, self._rows[row]
        else:
            slots = np.flatnonzero(field)
            at, rel, zeros = (row, slots), rel[slots], self._zeros[: slots.size]
            cols = _Columns(self.provider[at], self.gain_target[at])
        scores = self._score_fn(self, cols, rel, self._weight(at, rel), gains)
        # x * 0 is zero for every finite x and NaN otherwise: one dot product
        # with zeros checks the row, at a third of isfinite().all()'s cost
        if scores.dot(zeros) != 0.0:
            raise ValueError("scores must be finite")
        top = top_k_order((-rel, -scores), len(probs))
        return top.tolist() if field is None else slots[top].tolist()

    def _weight(self, at, rel: np.ndarray) -> np.ndarray | None:
        """Item weights v_e + r v_b where read; ``at`` indexes (rows x slots)."""
        return rel * self.purchase_value[at] + self.exposure_value[at] if self._weighted else None

    def _relevance(self, cols: _Columns, rel: np.ndarray, weight, gains: np.ndarray) -> np.ndarray:
        return rel

    def _fairco(self, cols: _Columns, rel: np.ndarray, weight, gains: np.ndarray) -> np.ndarray:
        # a provider lagging behind the best-served one, by gain-to-target
        # ratio, gets alpha times the shortfall, clipped at zero so that no
        # item scores below its own relevance
        ratios = gains / self.targets
        return rel + self.alpha * np.maximum(0.0, ratios.max() - ratios[cols.provider])

    def _equity(self, cols: _Columns, rel: np.ndarray, weight: np.ndarray, gains: np.ndarray) -> np.ndarray:
        # rel + alpha b w with the item weight w = v_e + rel v_b and the
        # fairness gradient b = scale (y G.y - G |y|^2) taken at the slots'
        # providers only; the elementwise operations of
        # metrics.fairness_gradient, so the same bits, done in place
        if self.alpha == 0.0:
            return rel
        b = cols.target * gains.dot(self.targets)
        b -= gains[cols.provider] * self._target_sq
        b *= self._scale
        b *= self.alpha
        b *= weight
        b += rel
        return b

    def _mmf(self, cols: _Columns, rel: np.ndarray, weight, gains: np.ndarray) -> np.ndarray:
        # the worst-off provider has the smallest gain-to-target ratio among
        # the live providers (ties: lowest provider id); only when every live
        # ratio overflows to +inf does argmin meet a dead provider first
        live = cols.live > 0
        worst = np.where(live, gains / self.targets, np.inf).argmin()
        if not live[worst]:
            worst = live.argmax()
        lo, hi = cols.lo, cols.hi
        norm = (rel - lo) / (hi - lo) if hi > lo else np.zeros_like(rel)
        return (1.0 - self.alpha) * norm + self.alpha * (cols.provider == worst)

    def _gather(self, row: int, rel: np.ndarray, field: np.ndarray | None, k: int):
        """``row``'s field in greedy order: slots, relevance, columns, weights, zeros for picks."""
        at = np.arange(rel.size) if field is None else np.flatnonzero(field)
        at = at[np.argsort(-rel[at], kind="stable")]
        if at.size < k:
            raise ValueError(f"need at least {k} candidates, got {at.size}")
        r, where = rel[at], (row, at)
        cols = _Columns(self.provider[where], self.gain_target[where])
        return at, r, cols, self._weight(where, r), np.zeros(r.size)

    def _best(self, cols: _Columns, rel: np.ndarray, weight, gains: np.ndarray, placed: np.ndarray) -> int:
        """The first maximum of the finite scores over the gathered slots whose
        ``placed`` entry is 0; the pick's entry becomes -inf."""
        scores = self._score_fn(self, cols, rel, weight, gains)
        if scores.dot(self._zeros[: rel.size]) != 0.0:
            raise ValueError("scores must be finite")
        best = int((scores + placed).argmax())
        placed[best] = -np.inf
        return best

    def _fill(self, row: int, rel: np.ndarray, gains: np.ndarray, probs, field: np.ndarray | None) -> list[int]:
        # picks add p_k (v_e + r v_b) to a gains copy; MMF*'s slots left span top..bottom
        at, r, cols, weight, placed = self._gather(row, rel, field, len(probs))
        gains, chosen, top, bottom = gains.copy(), [], 0, r.size - 1
        if mmf := self._score_fn is PolicyPlan._mmf:
            cols.live = np.bincount(cols.provider, minlength=self.targets.size)
        for p_k in probs:
            if mmf:
                while placed[top]:
                    top += 1
                while placed[bottom]:
                    bottom -= 1
                cols.lo, cols.hi = r[bottom], r[top]
            i = self._best(cols, r, weight, gains, placed)
            g = cols.provider[i]
            gains[g] += p_k * weight[i]
            if mmf:
                cols.live[g] -= 1
            chosen.append(i)
        return at[chosen].tolist()


def _rank_one(policy, candidates, user, rel_source, ledger, catalog, profiles, pm, slotwise=False) -> RankList:
    """One user's list through a one-row plan over ``candidates``."""
    ids = _candidates(candidates, catalog)
    if ids.size < pm.list_size:
        raise ValueError(f"need at least {pm.list_size} candidates, got {ids.size}")
    plan = PolicyPlan(policy, ids[None, :], catalog, profiles, slotwise)
    slots = plan.rank(0, rel_source.relevance_of(user, ids), ledger.raw_gains(), pm.probs)
    return RankList(tuple(ids[slots].tolist()), user)


# ---------------------------------------------------------------------------
# Public rankers
# ---------------------------------------------------------------------------


def equityrank_scores(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
) -> ScoreVector:
    """Gradient scores: relevance plus the provider's fairness gradient scaled
    by the item's marginal gain per unit exposure.

    The fairness gradient is taken from the ledger's raw cumulative gains at
    the candidates' providers. Returns the candidates ascending, with their
    scores and relevance.
    """
    ids = _candidates(candidates, catalog)
    plan = PolicyPlan(PolicyConfig("EquityRank", alpha), ids[None, :], catalog, profiles)
    rel = rel_source.relevance_of(user, ids)
    return ScoreVector(item_ids=ids, scores=plan.score(0, ALL_SLOTS, rel, ledger.raw_gains()), relevance=rel)


def rank_poork(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    pm: PositionModel,
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
    """
    return _rank_one(PolicyConfig("PoorK"), candidates, user, rel_source, ledger, catalog, profiles, pm)


def rank_fairco_star(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    pm: PositionModel,
) -> RankList:
    """Proportional-controller scoring under the gain-to-target metric.

    A provider lagging behind the currently best-served provider gets its
    items boosted by alpha times the ratio shortfall; the error term is
    clipped at zero so no item scores below its own relevance.
    """
    return _rank_one(PolicyConfig("FairCoStar", alpha), candidates, user, rel_source, ledger, catalog, profiles, pm)


def rank_mmf_star(
    candidates,
    user: int,
    rel_source,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    pm: PositionModel,
) -> RankList:
    """Per-slot blend of normalized relevance and a worst-off provider bonus.

    score = (1 - alpha) * minmax(relevance) + alpha * [provider is worst off],
    recomputed per slot over the remaining candidates with the same
    slot-local gain updates as PoorK. alpha = 0 reproduces TopK; alpha = 1
    reproduces PoorK.
    """
    return _rank_one(PolicyConfig("MMFStar", alpha), candidates, user, rel_source, ledger, catalog, profiles, pm)


def online_step_rank(
    policy: PolicyConfig,
    candidates,
    user: int,
    estimator,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    pm: PositionModel,
) -> RankList:
    """Rank one user's candidates with estimated relevance (online mode).

    This is one request of the online loop by item id; ``sim.run_online``
    runs the same plan by candidate slot.
    """
    return _rank_one(policy, candidates, user, estimator, ledger, catalog, profiles, pm)


def offline_rank_user(
    policy: PolicyConfig,
    candidates,
    user: int,
    rel,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    pm: PositionModel,
) -> RankList:
    """Rank one user's candidates with true relevance (offline mode).

    EquityRank refreshes its gradient per slot here; the other policies
    behave exactly as in the online dispatch.
    """
    return _rank_one(policy, candidates, user, rel, ledger, catalog, profiles, pm, slotwise=True)


# ---------------------------------------------------------------------------
# Offline fields
# ---------------------------------------------------------------------------


def offline_field(rel: RelevanceTable, catalog: Catalog, list_size: int) -> np.ndarray:
    """Every user's offline field, as a (users x items) bool mask.

    Row ``u`` marks every item stored for ``u`` in the relevance table
    ``rel`` and, for each provider, its ``list_size`` lowest-id items of
    relevance 0 for ``u`` (all of them, if it has fewer). An offline list of
    at most ``list_size`` positions ranked from the field equals the list
    ranked from the whole catalog (see the module docstring). The rows are
    built one at a time, so the build holds O(items) temporaries beside the
    mask.
    """
    n = catalog.item_count
    if list_size < 1:
        raise ValueError(f"list size {list_size} must be positive")
    if rel.max_item_id() >= n:
        raise ValueError("relevance table references items beyond the catalog")
    # items grouped by provider, ids ascending within each group, and for
    # each grouped position the position where its group starts
    by_group = np.argsort(catalog.group_of, kind="stable")
    sizes = np.bincount(catalog.group_of, minlength=catalog.provider_count)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    field = np.zeros((rel.user_count, n), dtype=bool)
    for user, row in enumerate(field):
        stored = slice(rel.indptr[user], rel.indptr[user + 1])
        items = rel.indices[stored]
        zero = np.ones(n, dtype=bool)
        zero[items[rel.values[stored] != 0.0]] = False
        zero = zero[by_group]
        # the 1-based rank of each zero among its provider's zeros
        seen = np.cumsum(zero)
        rank = seen - (seen[start] - zero[start])
        row[by_group[zero & (rank <= list_size)]] = True
        row[items] = True
    return field


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
    field: np.ndarray | None = None,
) -> list[RankList]:
    """Fill slot k for every user before any slot k+1 (offline only).

    Iterates position levels top to bottom, visiting users in the given
    order within each level. Every assignment takes the item with the
    largest current gradient among the user's unassigned items and
    immediately commits its expected gain (weighted by the level's
    examination probability) to the ledger, so later assignments see the
    updated provider balance. ``users`` must be distinct ids. Each user
    picks from their row of ``field``, the table's offline field (see
    ``offline_field``), built here when not given; the lists are those of
    the whole catalog. Returns one list per user, in input order.
    """
    user_ids, lists, _ = _allocate_vertical(users, rel, ledger, catalog, profiles, alpha, pm, field)
    return [RankList(tuple(items.tolist()), u) for u, items in zip(user_ids, lists)]


def _allocate_vertical(users, rel, ledger, catalog, profiles, alpha, pm, field):
    """The user ids, and each one's items, top first, and their relevance."""
    n = catalog.item_count
    if n < pm.list_size:
        raise ValueError(f"need at least {pm.list_size} items, got {n}")
    user_ids = [int(u) for u in users]
    if len(set(user_ids)) != len(user_ids):
        raise ValueError("users must be distinct ids")
    plan = PolicyPlan(PolicyConfig("EquityRank", alpha), np.arange(n, dtype=np.int64)[None, :], catalog, profiles)
    if field is None:
        field = offline_field(rel, catalog, pm.list_size)
    fills = [(*plan._gather(0, rel.dense_row(u, n), field[u], pm.list_size), []) for u in user_ids]
    for p_k in pm.probs:
        for _, r, cols, weight, placed, chosen in fills:
            i = plan._best(cols, r, weight, ledger.raw_gains(), placed)
            ledger.accrue((cols.provider[i],), (p_k,), (p_k * r[i],), profiles)
            chosen.append(i)
    ledger.step_count += len(user_ids)
    return user_ids, [at[chosen] for at, *_, chosen in fills], [r[chosen] for _, r, *_, chosen in fills]
