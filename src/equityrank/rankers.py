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

A ``PolicyPlan`` ranks rows of candidate slots (online runs and the public
rankers) or segments of an ``OfflineField`` (offline runs) from raw gains.
Ties go by score, then relevance, descending, then id ascending: in *greedy
order* (relevance descending, then id ascending), the first of equal
scores. TopK, FairCo* and online EquityRank score every candidate once and
take the top K. The rest work in greedy order, where a segment is and a row
gets by one stable sort. Offline EquityRank and EquityRankV score every
entry at each slot, check the scores are finite, take ``argmax``'s first
maximum among the entries left and add its expected gain p_k (v_e + r v_b)
to the gains. PoorK and MMF* pick among provider heads: MMF*'s score
(1 - alpha) (r - lo) / (hi - lo) + alpha [provider is worst off], lo and hi
spanning the entries left, is made of monotone float operations, so in
greedy order it does not increase within the worst-off provider's entries
or within the rest. The best entry left is A, the first one left, if
score(A) >= score(W), else W, the worst-off provider's first one left
(PoorK, alpha = 1: always W). So each pick is a provider's head and changes
one entry of the gain-to-target ratios, kept with dead providers at +inf.

An offline field (``offline_field``) holds every item stored for a user
plus each provider's K lowest-id items of relevance 0, and gives the whole
catalog's lists: every policy scores an item from its relevance, provider
and the run state alone, so a (provider, relevance) class ties and its K
lowest ids hold every pick of a K-item list; a larger class keeps an
unpicked member in the field, so the relevance range and the live
providers that MMF* reads do not change either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, RelevanceTable, provider_arrays
from .metrics import GainLedger

__all__ = [
    "ALL_SLOTS",
    "OfflineField",
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
    """A public ranker's candidate ids, checked against the catalog and for
    repeats, and sorted, so that slot order, the last tie-break, is id order."""
    ids = np.asarray(candidates, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("candidates must be a nonempty 1-d sequence of item ids")
    if ids.min() < 0 or ids.max() >= catalog.item_count:
        raise ValueError("candidate set contains an unknown item id")
    ids = np.sort(ids)
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError("a candidate set repeats an item id")
    return ids


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


def _provider_heads(provider: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``provider``'s positions grouped stably by provider, and the m + 1 group offsets."""
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(provider, minlength=m), out=offsets[1:])
    return np.argsort(provider, kind="stable"), offsets


class PolicyPlan:
    """One ranking policy resolved once (see the module docstring).

    ``rows`` holds ascending candidate ids, one row per user or one shared
    row; a candidate's slot is its index in its row. ``provider``,
    ``exposure_value``, ``purchase_value`` and ``gain_target`` hold each
    slot's provider, weights and target, and ``targets`` every provider's.
    ``score(row, at, rel, gains)`` returns the TopK, FairCo* or EquityRank
    scores of slots ``at`` of ``row`` (an index array, or ``ALL_SLOTS``).
    ``rank(row, rel, gains, probs)`` returns the slots of one list, top
    first, from the row's relevance, the raw gains and the examination
    probabilities, changing none; ``rank_segment(field, user, gains, probs)``
    ranks ``user``'s segment of ``field``, by position in it. With
    ``slotwise`` (offline mode) EquityRank fills its list in greedy order.
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
        self.kind, self.alpha = kind, 1.0 if kind == "PoorK" else alpha
        self.targets, self._ve, self._vb = y, ve, vb
        # the fairness gradient's constants y . y and 4 / (m (m-1))
        self._target_sq, self._scale = float(y @ y), 4.0 / (m * (m - 1)) if m > 1 else math.nan
        self.provider = provider = catalog.group_of[rows]
        self.exposure_value, self.purchase_value, self.gain_target = ve[provider], vb[provider], y[provider]
        self._zeros = np.zeros(rows.shape[1])
        # a plain function, not a bound method: a bound method kept on the
        # plan is a reference cycle, which would hold each run's arrays until
        # the cyclic garbage collector ran. PoorK and MMF* have none.
        scorers = {"TopK": PolicyPlan._relevance, "FairCoStar": PolicyPlan._fairco, "EquityRank": PolicyPlan._equity}
        self._score_fn = scorers.get(kind)
        self._greedy = kind == "EquityRank" and slotwise
        self._rows = list(zip(provider, self.gain_target))  # for whole rows
        self._weighted = self._greedy or (kind == "EquityRank" and alpha != 0.0)  # greedy fills accrue by weight

    def score(self, row: int, at, rel: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """The scores of slots ``at`` of ``row``, whose relevance is ``rel``."""
        if self._score_fn is None:
            raise ValueError(f"{self.kind} picks among provider heads and scores no slot")
        provider = self.provider[row, at]
        target, weight = self._columns(rel, provider)
        return self._score_fn(self, provider, target, rel, weight, gains)

    def rank(self, row: int, rel: np.ndarray, gains: np.ndarray, probs) -> list[int]:
        """The slots of one list, top first (see the class docstring)."""
        if self._score_fn is None or self._greedy:
            at = np.argsort(-rel, kind="stable")
            return at[self._ordered(rel[at], self.provider[row, at], None, gains, probs)].tolist()
        weight = rel * self.purchase_value[row] + self.exposure_value[row] if self._weighted else None
        scores = self._score_fn(self, *self._rows[row], rel, weight, gains)
        # x * 0 is zero for every finite x and NaN otherwise: one dot product
        # with zeros checks the scores, at a third of isfinite().all()'s cost
        if scores.dot(self._zeros) != 0.0:
            raise ValueError("scores must be finite")
        return top_k_order((-rel, -scores), len(probs)).tolist()

    def rank_segment(self, field: OfflineField, user: int, gains: np.ndarray, probs) -> list[int]:
        """The positions in ``user``'s segment of ``field`` of one list, top first."""
        seg = field.segment(user)
        heads = field.by_provider[seg], field.offsets[user]
        return self._ordered(field.relevance[seg], field.provider[seg], heads, gains, probs)

    def _ordered(self, rel: np.ndarray, provider: np.ndarray, heads, gains: np.ndarray, probs) -> list[int]:
        """One list's positions, top first, over entries in greedy order;
        ``heads`` is ``_provider_heads(provider, m)``, or None to build it."""
        k = len(probs)
        if rel.size < k:
            raise ValueError(f"need at least {k} candidates, got {rel.size}")
        if self._score_fn is None:
            by_provider, offsets = heads or _provider_heads(provider, self.targets.size)
            return self._pick_heads(rel, provider, by_provider, offsets, gains, probs)
        if self.kind == "TopK":
            return list(range(k))
        target, weight = self._columns(rel, provider)
        if self._greedy:
            return self._fill(provider, target, rel, weight, gains, probs)
        scores = self._score_fn(self, provider, target, rel, weight, gains)
        if scores.dot(self._zeros[: rel.size]) != 0.0:
            raise ValueError("scores must be finite")
        return top_k_order((-scores,), k).tolist()

    def _columns(self, rel: np.ndarray, p: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The gain targets and item weights v_e + r v_b of entries with providers ``p``, where read."""
        return (self.targets[p], rel * self._vb[p] + self._ve[p]) if self._weighted else (None, None)

    def _relevance(self, provider, target, rel: np.ndarray, weight, gains: np.ndarray) -> np.ndarray:
        return rel

    def _fairco(self, provider: np.ndarray, target, rel: np.ndarray, weight, gains: np.ndarray) -> np.ndarray:
        # a provider lagging behind the best-served one, by gain-to-target
        # ratio, gets alpha times the shortfall, clipped at zero so that no
        # item scores below its own relevance
        ratios = gains / self.targets
        return rel + self.alpha * np.maximum(0.0, ratios.max() - ratios[provider])

    def _equity(self, provider: np.ndarray, target, rel: np.ndarray, weight, gains: np.ndarray) -> np.ndarray:
        # rel + alpha b w with the item weight w = v_e + rel v_b and the
        # fairness gradient b = scale (y G.y - G |y|^2) at the scored providers:
        # metrics.fairness_gradient's elementwise operations, so its bits
        if self.alpha == 0.0:
            return rel
        b = target * gains.dot(self.targets)
        b -= gains[provider] * self._target_sq
        b *= self._scale
        b *= self.alpha
        b *= weight
        b += rel
        return b

    def _best(self, provider, target, rel: np.ndarray, weight, gains: np.ndarray, placed: np.ndarray) -> int:
        """The first maximum of the finite scores where ``placed`` is 0; it becomes -inf there."""
        scores = self._score_fn(self, provider, target, rel, weight, gains)
        if scores.dot(self._zeros[: rel.size]) != 0.0:
            raise ValueError("scores must be finite")
        best = int((scores + placed).argmax())
        placed[best] = -np.inf
        return best

    def _fill(self, provider, target, rel: np.ndarray, weight, gains: np.ndarray, probs) -> list[int]:
        # each pick adds p_k (v_e + r v_b) to a gains copy
        gains, placed, chosen = gains.copy(), np.zeros(rel.size), []
        for p_k in probs:
            chosen.append(self._best(provider, target, rel, weight, gains, placed))
            gains[provider[chosen[-1]]] += p_k * weight[chosen[-1]]
        return chosen

    def _pick_heads(self, rel, provider, by_provider, offsets, gains: np.ndarray, probs) -> list[int]:
        """PoorK's or MMF*'s list in greedy order: A or W at each pick (module
        docstring), whose p_k (v_e + r v_b) goes to a gains copy."""
        # the worst-off provider: the lowest ratio among live providers, ties to the lowest id;
        # argmin meets a dead one first only when every live ratio overflows to +inf
        ratio = np.where(offsets[1:] > offsets[:-1], gains / self.targets, np.inf)
        head, end, gains, chosen = offsets[:-1].tolist(), offsets[1:].tolist(), gains.copy(), []
        top, bottom, highest, lowest, alpha = 0, rel.size - 1, rel.item(0), rel.item(-1), self.alpha
        for p_k in probs:
            while top in chosen:
                top += 1
            while bottom in chosen:
                bottom -= 1
            worst = int(ratio.argmin())
            if head[worst] == end[worst]:
                worst = next(g for g, (h, e) in enumerate(zip(head, end)) if h < e)
            pick, w, hi, lo = top, by_provider.item(head[worst]), rel.item(top), rel.item(bottom)
            score_a, score_w = 0.0, alpha
            if hi > lo:
                # the normalised relevance is monotone: finite at both ends, finite everywhere
                span = hi - lo
                if not (math.isfinite((highest - lo) / span) and math.isfinite((lowest - lo) / span)):
                    raise ValueError("scores must be finite")
                score_a, score_w = (1.0 - alpha) * (span / span), (1.0 - alpha) * ((rel.item(w) - lo) / span) + alpha
            if pick != w and score_a < score_w:
                pick = w
            g = provider.item(pick)
            head[g] += 1
            gains[g] = paid = gains.item(g) + p_k * (rel.item(pick) * self._vb.item(g) + self._ve.item(g))
            ratio[g] = paid / self.targets.item(g) if head[g] < end[g] else math.inf
            chosen.append(pick)
        return chosen


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
    """Gradient scores: relevance plus the provider's fairness gradient, from
    the ledger's raw gains, scaled by the item's marginal gain per unit
    exposure. Returns the candidates ascending, with scores and relevance.
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
    """Serve the poorest provider first (MMF* at alpha = 1): each slot goes to
    the provider with the smallest gain-to-target ratio among those with
    candidates left (ties: lowest id), filled with its most relevant item
    left (ties: lowest id), whose expected gain goes to a slot-local copy.
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
    """Proportional-controller scoring under the gain-to-target metric: a
    provider lagging behind the best-served one, by ratio, gets its items
    boosted by alpha times the shortfall (never below their relevance).
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
    """Per-slot blend of normalized relevance and a worst-off provider bonus:
    (1 - alpha) * minmax(relevance) + alpha * [provider is worst off] over the
    remaining candidates, with PoorK's slot-local gain updates. alpha = 0
    reproduces TopK; alpha = 1 reproduces PoorK.
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
# Offline fields and vertical allocation
# ---------------------------------------------------------------------------


class OfflineField(NamedTuple):
    """Every user's offline field as one CSR in greedy order (``offline_field``):
    user u's segment ``indptr[u]:indptr[u + 1]`` holds its ``items``, their
    ``relevance`` and ``provider``, and ``by_provider``, the segment's
    positions grouped by provider, provider g's at ``offsets[u, g]:offsets[u, g + 1]``.
    """

    indptr: np.ndarray
    items: np.ndarray
    relevance: np.ndarray
    provider: np.ndarray
    by_provider: np.ndarray
    offsets: np.ndarray

    def segment(self, user: int) -> slice:
        return slice(self.indptr[user], self.indptr[user + 1])


def offline_field(rel: RelevanceTable, catalog: Catalog, list_size: int) -> OfflineField:
    """Every user's offline field, in greedy order, as one ``OfflineField``.

    User ``u``'s field holds every item stored for ``u`` in ``rel`` and each
    provider's ``list_size`` lowest-id items of relevance 0 for ``u`` (all,
    if it has fewer). Built user by user and joined column by column, the
    build peaks near 1.3 times the field's bytes.
    """
    n, m = catalog.item_count, catalog.provider_count
    if list_size < 1:
        raise ValueError(f"list size {list_size} must be positive")
    if rel.max_item_id() >= n:
        raise ValueError("relevance table references items beyond the catalog")
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    group = catalog.group_of.astype(index)
    # items grouped by provider, ids ascending within each group, and for
    # each grouped position the position where its group starts
    by_group, bounds = _provider_heads(group, m)
    start = np.repeat(bounds[:-1], np.diff(bounds))
    offsets = np.zeros((rel.user_count, m + 1), dtype=index)
    items, relevance, by_provider = [], [], []
    for user in range(rel.user_count):
        stored = slice(rel.indptr[user], rel.indptr[user + 1])
        ids, values = rel.indices[stored], rel.values[stored]
        zero = np.ones(n, dtype=bool)
        zero[ids[values != 0.0]] = False
        zero = zero[by_group]
        # the 1-based rank of each zero among its provider's zeros
        seen = np.cumsum(zero)
        rank = seen - (seen[start] - zero[start])
        at = np.union1d(ids, by_group[zero & (rank <= list_size)])
        r = np.zeros(at.size)
        r[at.searchsorted(ids)] = values
        order = np.argsort(-r, kind="stable")
        at, r = at[order], r[order]
        grouped, offsets[user] = _provider_heads(group[at], m)
        items.append(at.astype(index))
        relevance.append(r)
        by_provider.append(grouped.astype(index))
    indptr = np.cumsum([0] + [r.size for r in relevance])
    relevance = np.concatenate(relevance)
    items = np.concatenate(items)
    by_provider = np.concatenate(by_provider)
    return OfflineField(indptr, items, relevance, group[items], by_provider, offsets)


def allocate_vertical(
    users: Sequence[int],
    rel,
    ledger: GainLedger,
    catalog: Catalog,
    profiles: Sequence[ProviderProfile],
    alpha: float,
    pm: PositionModel,
) -> list[RankList]:
    """Fill slot k for every user before any slot k+1 (offline only).

    Visits the given users in order at each position level, top to bottom.
    Each assignment takes the item with the largest current gradient among
    the user's unassigned items and commits its expected gain p_k (v_e +
    r v_b) to the ledger at once. ``users`` must be distinct whole-number
    ids of ``rel``'s users; each picks from their offline field, built
    here. Returns one list per user, in input order.
    """
    if catalog.item_count < pm.list_size:
        raise ValueError(f"need at least {pm.list_size} items, got {catalog.item_count}")
    for u in users:
        if not (float(u).is_integer() and 0 <= u < rel.user_count):
            raise ValueError(f"user id {u} out of range or not a whole number")
    if len(set(map(int, users))) != len(users):
        raise ValueError("users must be distinct ids")
    field = offline_field(rel, catalog, pm.list_size)
    users = [int(u) for u in users]
    lists, _ = _allocate_vertical(users, ledger, catalog, profiles, alpha, pm, field)
    return [RankList(tuple(items.tolist()), u) for u, items in zip(users, lists)]


def _allocate_vertical(users, ledger, catalog, profiles, alpha, pm, field: OfflineField):
    """Each user's items, top first, and their relevance, from their segments of ``field``."""
    plan = PolicyPlan(PolicyConfig("EquityRank", alpha), np.arange(catalog.item_count)[None, :], catalog, profiles)
    fills = []
    for u in users:
        seg = field.segment(u)
        r, p = field.relevance[seg], field.provider[seg]
        fills.append((seg, p, *plan._columns(r, p), r, np.zeros(r.size), []))
    gains = ledger.raw_gains()
    for p_k in pm.probs.tolist():
        for _, p, target, weight, r, placed, chosen in fills:
            i = plan._best(p, target, r, weight, gains, placed)
            g = p.item(i)
            gains[g] = ledger.accrue(g, p_k, p_k * r.item(i), profiles[g])
            chosen.append(i)
    ledger.step_count += len(users)
    return [field.items[seg][chosen] for seg, *_, chosen in fills], [r[chosen].tolist() for *_, r, _, chosen in fills]
