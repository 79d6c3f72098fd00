"""Ranking policies behind a single dispatch interface.

All policies consume a candidate set, a relevance source (true labels or an
online estimator), a gain ledger snapshot and ``provider_arrays``' weights, and emit a top-K list:

* ``TopK``       -- pure relevance ordering.
* ``PoorK``      -- slot by slot, serve the provider with the lowest
                    gain-to-target ratio, picking its most relevant item.
* ``FairCoStar`` -- proportional-controller boost for lagging providers.
* ``MMFStar``    -- per-slot blend of normalized relevance and a worst-off
                    provider indicator; PoorK at alpha = 1.
* ``EquityRank`` -- relevance plus the analytic fairness gradient of each
                    item's provider, scaled by the item's gain weights.
* ``EquityRankV``-- EquityRank with vertical allocation: offline only, all
                    users' slot k is filled before any slot k+1.

At alpha 0 every policy but PoorK and EquityRankV runs TopK's plan, and
MMF* at alpha 1 runs PoorK's (``plan_of``).

A ``PolicyPlan`` ranks one list's entries from raw gains: a candidate row in
slot order (online runs, and the public rankers but ``offline_rank_user``)
or a user's segment of an ``OfflineField`` in greedy order (offline PoorK
and MMF* runs). Ties go by score, then relevance, descending, then id
ascending: in *greedy order* (relevance descending, then id ascending), the
first of equal scores. TopK, FairCo* and EquityRank score every entry once
and take the top K by score and relevance, then position, the same items in
either order. An online run resolves its plan once for all its candidate
rows (``PolicyPlan.row_ranker``): the policy, the row width against K, the
top-K selection, and EquityRank's y, v_b and v_e gathered at every row, so
that a step scores its row by array-by-array operations into buffers
allocated once, computing minus the scores, which is exact, as the sort
key. ``score`` gathers the same operands for one row at each call and runs
the same operations, so the two give the same bits.

``serve_offline`` serves every offline run (``sim.run_offline_batch``;
``allocate_vertical`` and ``offline_rank_user`` serve runs of one), and it
alone picks a run's engine, from its policy and alpha. A ledger-blind run
(``ledger_blind``: TopK's plan, and EquityRankV at alpha 0) ranks by
relevance alone, so it is served whole: one gather takes every user's first
K segment entries, which in greedy order are the list ``PolicyPlan.rank``
would take, and the run pays them in its own order, level by level for
EquityRankV. PoorK and MMF* runs go list by list. Every other run goes
through ``_lockstep``, the one offline fill of FairCo*, EquityRank and
EquityRankV, in near-equal batches of at most ``BATCH_RUNS``, a batch of one
included. The runs' current segments, padded with their last entry, form
(R x L) rows, scored with each run's gains and alpha by one list's elementwise
operations and one ``np.vecdot`` for the runs' G.y, which takes each row's
dot by the kernel of ``row.dot`` (a matrix product rounds some rows
differently); one matrix-vector product with zeros checks every row, so a
run whose scores are not finite fails alone. So each run's scores, lists and
ledger are the bits it gets alone. EquityRank takes ``argmax(axis=1)``'s
first maximum among the entries left, paying p_k (v_e + r v_b) to a gains
copy, or for EquityRankV, level by level, to the ledger; FairCo* takes the
first K of one stable ``argsort(axis=-1)`` by score, the pads last: in
greedy order that is the (score, relevance, position) order. Every engine
pays a list's expected gains through ``GainLedger.pay``. PoorK and MMF* work
in greedy order, where a segment is and a row gets by one stable sort, and
pick among provider heads: MMF*'s score (1 - alpha) (r - lo) / (hi - lo) +
alpha [provider is worst off], lo and hi spanning the entries left, is made
of monotone float operations, so in greedy order it does not increase within
the worst-off provider's entries or within the rest. The best entry left is
A, the first one left, if score(A) >= score(W), else W, the worst-off
provider's first one left (PoorK, alpha = 1: always W). So each pick is a
provider's head and changes one entry of the gain-to-target ratios, kept
with dead providers at +inf.

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
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, RelevanceTable, provider_arrays
from .core import _finite, _provider_heads, _whole_id, _whole_ids
from .metrics import GainLedger

__all__ = [
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
    "serve_offline",
    "top_k_order",
]

POLICY_KINDS = ("TopK", "PoorK", "FairCoStar", "MMFStar", "EquityRank", "EquityRankV")
# Below this many candidates one full sort is cheaper than narrowing the
# field with a partition first (measured for k = 5: the two cost the same
# near 200 candidates); both select the same list.
PARTITION_MIN_CANDIDATES = 200
# serve_offline advances the offline runs that go in lockstep in batches of
# at most BATCH_RUNS, which bounds a batch's (runs x segment) arrays
BATCH_RUNS = 64


@dataclass(frozen=True)
class PolicyConfig:
    """A ranking policy selection with its balance parameter."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if not (_finite(self.alpha) and self.alpha >= 0):
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
            raise _not_finite()


def _not_finite() -> ValueError:  # every check's failure of scores that are not all finite
    return ValueError("scores must be finite")


def _candidates(candidates, catalog: Catalog) -> np.ndarray:
    """A public ranker's candidate ids, checked to be whole numbers in the catalog, none
    repeated, and sorted, so that slot order, the last tie-break, is id order."""
    ids = _whole_ids(candidates, "item id")
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
    if _partitions(keys[-1].size, k):
        return _partitioned(keys, k)
    return np.lexsort(keys)[:k]


def _partitions(count: int, k: int) -> bool:
    """Whether ``top_k_order`` narrows ``count`` entries with a partition before it sorts."""
    return count >= PARTITION_MIN_CANDIDATES and 4 * k <= count


def _partitioned(keys: Sequence[np.ndarray], k: int) -> np.ndarray:
    primary = keys[-1]
    kth = np.partition(primary, k - 1)[k - 1]
    keep = np.flatnonzero(primary <= kth)
    return keep[np.lexsort([key[keep] for key in keys])[:k]]


def rank_by_scores(sv: ScoreVector, k: int) -> np.ndarray:
    """Top-``k`` item ids by descending score with deterministic tie-breaking.

    Ties go to the higher relevance, then to the lower id. ``k`` must be a
    whole number in [1, candidate count].
    """
    ids, k = sv.item_ids, _whole_id(k, "list size")
    if k < 1:
        raise ValueError(f"list size {k} must be positive")
    if ids.size < k:
        raise ValueError(f"need at least {k} candidates, got {ids.size}")
    return ids[top_k_order((ids, -sv.relevance, -sv.scores), k)]


class PolicyPlan:
    """One ranking policy resolved once (see the module docstring).

    It holds the policy, every provider's v_e, v_b and y (``ve``, ``vb`` and
    ``targets``: the ``provider_arrays`` it is given) and the gradient's
    constants. Entries come as relevance ``rel`` and provider ids ``provider``:
    a candidate row in slot order, or a segment in greedy order with ``heads``,
    its ``(by_provider, offsets)`` in an ``OfflineField``. ``score(rel, provider, gains)`` gives
    their TopK, FairCo* or EquityRank scores, ``rank(rel, provider, gains,
    probs, heads)`` one list's positions among them, top first; PoorK's and
    MMF*'s picks pay a gains copy. ``row_ranker(providers, probs)`` is
    ``rank`` resolved once for the (users x C) candidate rows of an online
    run: it returns the run's step ranker, which ranks a user's row from the
    operands gathered once for all rows, with the same bits.
    """

    def __init__(self, policy: PolicyConfig, arrays: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        kind, alpha = policy.kind, policy.alpha
        self.ve, self.vb, self.targets = ve, vb, y = arrays
        m = y.size
        if kind == "EquityRankV":
            raise ValueError("EquityRankV lists are built jointly, for all users, by serve_offline (offline mode)")
        if kind == "MMFStar" and alpha > 1.0:
            raise ValueError("alpha must lie in [0, 1] for this policy")
        self.kind, self.alpha = plan_of(kind, alpha)
        if self.kind == "EquityRank" and m < 2:
            raise ValueError("pairwise unfairness needs at least two providers")
        # the fairness gradient's constants y . y and 4 / (m (m-1))
        self._target_sq, self._scale = float(y @ y), 4.0 / (m * (m - 1)) if m > 1 else math.nan
        self._zeros = np.zeros(0)  # grown to the longest list of entries checked

    def score(self, rel: np.ndarray, provider: np.ndarray, gains: np.ndarray, alpha=None) -> np.ndarray:
        """The scores of the entries with relevance ``rel`` and providers ``provider``.

        FairCo* also scores (R x L) rows of lockstep runs: ``gains`` holds the
        runs' (R x m) gains, ``alpha`` is a column of their alphas and
        ``provider`` holds flat indices into the gains.
        """
        if self.kind == "FairCoStar":
            # a provider lagging the best-served one by gain-to-target ratio gets
            # alpha times the shortfall, clipped at zero: no item scores below its relevance
            ratios = gains / self.targets
            shortfall = np.maximum(0.0, ratios.max(axis=-1, keepdims=True) - ratios.take(provider))
            return rel + (self.alpha if alpha is None else alpha) * shortfall
        if self.kind in ("PoorK", "MMFStar"):
            raise ValueError(f"{self.kind} picks among provider heads and scores no slot")
        if self.kind == "TopK":
            return rel
        # the operands of this one row, as row_ranker gathers them for a run's rows
        y, operands = self.targets, (provider, self.targets[provider], self.vb[provider], self.ve[provider])
        return _equity_row(rel, gains, y, operands, (self._target_sq, self._scale, self.alpha), np.empty((3, rel.size)), np.add)

    def rank(self, rel: np.ndarray, provider: np.ndarray, gains: np.ndarray, probs, heads=None) -> list[int]:
        """One list's positions among the entries, top first (see the class docstring)."""
        k = len(probs)
        if rel.size < k:
            raise ValueError(f"need at least {k} candidates, got {rel.size}")
        if self.kind not in ("PoorK", "MMFStar"):
            # (score desc, relevance desc, position asc) picks the same
            # entries from a row in slot order and from a segment in greedy
            # order: both put equal relevance in id order
            scores = self._finite(self.score(rel, provider, gains))
            return top_k_order((-rel, -scores), k).tolist()
        if heads is None:
            return self._pick_row(rel, provider, gains, probs)
        return self._pick_heads(rel, provider, *heads, gains.copy(), probs)

    def row_ranker(self, providers: np.ndarray, probs) -> Callable[[int, np.ndarray, np.ndarray], list[int]]:
        """This plan resolved once for a run's candidate rows: ``providers`` is a
        (users x C) array, each user's row of providers in slot order.

        Returns ``rank_row(user, rel, gains)``: ``rank(rel, providers[user],
        gains, probs)``, the same positions and the same ``ValueError``s, for a
        row ``rel`` of C float64 relevances. Resolved here, once: the policy,
        the check that a row holds at least K entries, whether the top-K
        selection partitions (``top_k_order``), and for EquityRank the
        gradient's operands, y, v_b and v_e gathered at every row's providers.
        A call checks only that its scores are finite. TopK, FairCo* and
        EquityRank compute minus the scores into buffers allocated here, as
        ``score`` computes the scores; PoorK and MMF* take ``rank``'s row path.
        """
        k, width = len(probs), providers.shape[1]
        if width < k:
            raise ValueError(f"need at least {k} candidates, got {width}")
        if self.kind in ("PoorK", "MMFStar"):
            pick_row, rows = self._pick_row, list(providers)
            return lambda user, rel, gains: pick_row(rel, rows[user], gains, probs)
        out, neg_rel, zeros = np.empty(width), np.empty(width), np.zeros(width)
        negative, lexsort, partition = np.negative, np.lexsort, _partitions(width, k)
        if self.kind == "FairCoStar":
            score, rows = self.score, list(providers)
            negated = lambda user, rel, gains: negative(score(rel, rows[user], gains), out=out)  # noqa: E731
        elif self.kind == "TopK":
            negated = lambda user, rel, gains: negative(rel, out=out)  # noqa: E731
        else:
            # y, v_b and v_e gathered at every row's providers, and y . y, 4 / (m (m-1))
            # and minus alpha held as C-long rows, so that each elementwise
            # operation of a call takes two arrays
            y, rows = self.targets, list(providers)
            operands = list(zip(rows, *(list(a[providers]) for a in (y, self.vb, self.ve))))
            buffers = np.empty((6, width))
            buffers[:3].T[:] = self._target_sq, self._scale, -self.alpha
            consts, scratch, subtract = tuple(buffers[:3]), tuple(buffers[3:]), np.subtract
            negated = lambda user, rel, gains: _equity_row(rel, gains, y, operands[user], consts, scratch, subtract)  # noqa: E731

        def rank_row(user: int, rel: np.ndarray, gains: np.ndarray) -> list[int]:
            # rank's keys, (-rel, -scores), and its finite check, as _check's
            key = negated(user, rel, gains)
            if key.dot(zeros) != 0.0:
                raise _not_finite()
            keys = negative(rel, out=neg_rel), key
            return (_partitioned(keys, k) if partition else lexsort(keys)[:k]).tolist()

        return rank_row

    def _pick_row(self, rel: np.ndarray, provider: np.ndarray, gains: np.ndarray, probs) -> list[int]:
        """PoorK's or MMF*'s list from a row in slot order: into greedy order and back."""
        order = np.argsort(-rel, kind="stable")
        rel, provider = rel[order], provider[order]
        heads = _provider_heads(provider, self.targets.size)
        return order[self._pick_heads(rel, provider, *heads, gains.copy(), probs)].tolist()

    def _finite(self, scores: np.ndarray) -> np.ndarray:
        if self._check(scores) != 0.0:
            raise _not_finite()
        return scores

    def _check(self, scores: np.ndarray):
        # x * 0 is zero for every finite x and NaN otherwise: one dot product
        # with zeros checks the scores, at a third of isfinite().all()'s cost.
        # Rows of scores get one check each, so a NaN fails only its own row
        size = scores.shape[-1]
        if size > self._zeros.size:
            self._zeros = np.zeros(size)
        return scores.dot(self._zeros[:size])

    def _equity(self, rel: np.ndarray, provider: np.ndarray, target, weight, gains: np.ndarray, alpha) -> np.ndarray:
        # _equity_row's scores of (R x L) rows of lockstep runs, with the runs'
        # (R x m) gains, an alpha column, every provider's ``target`` and
        # ``provider`` as flat indices into the gains: alpha b for each (run,
        # provider) first, by the same operations on the same operands, then
        # read at the entries. vecdot takes each run's G.y by the row dot's
        # own kernel (tests/test_lockstep.py pins it), where a matrix product
        # or einsum rounds some rows differently
        b = target * np.vecdot(gains, self.targets)[:, None]
        b -= gains * self._target_sq
        b *= self._scale
        b *= alpha
        b = b.take(provider)
        b *= weight
        b += rel
        return b

    def _pick_heads(self, rel, provider, by_provider, offsets, gains: np.ndarray, probs) -> list[int]:
        """PoorK's or MMF*'s list in greedy order: A or W at each pick (module
        docstring), each paying p_k (v_e + r v_b) to its provider in ``gains``."""
        # the worst-off provider: the lowest ratio among live providers, ties to the lowest id;
        # argmin meets a dead one first only when every live ratio overflows to +inf
        ratio = np.where(offsets[1:] > offsets[:-1], gains / self.targets, np.inf)
        head, end, chosen = offsets[:-1].tolist(), offsets[1:].tolist(), []
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
                    raise _not_finite()
                score_a, score_w = (1.0 - alpha) * (span / span), (1.0 - alpha) * ((rel.item(w) - lo) / span) + alpha
            if pick != w and score_a < score_w:
                pick = w
            g, r = provider.item(pick), rel.item(pick)
            head[g] += 1
            gains[g] = paid = gains.item(g) + p_k * (r * self.vb.item(g) + self.ve.item(g))
            ratio[g] = paid / self.targets.item(g) if head[g] < end[g] else math.inf
            chosen.append(pick)
        return chosen


def _equity_row(rel: np.ndarray, gains: np.ndarray, y: np.ndarray, operands, consts, out, last) -> np.ndarray:
    """``last`` (``np.add``, or ``np.subtract`` with alpha negated) of alpha b w
    and ``rel``: the EquityRank scores, or minus them, of one row of entries
    with relevance ``rel``, in ``out[0]``.

    ``operands`` are the row's providers and their y, v_b and v_e, ``consts``
    y . y, 4 / (m (m-1)) and alpha, as floats or rows, and ``out`` three
    buffers of the row's width. The item weight is w = v_e + rel v_b and the
    fairness gradient b = scale (y G.y - G |y|^2) at the row's providers:
    metrics.fairness_gradient's elementwise operations, so its bits. Round to
    nearest is symmetric under negation, so a negated alpha gives minus the
    scores exactly.
    """
    own, target, vb, ve = operands
    target_sq, scale, alpha = consts
    b, scaled, weight = out
    multiply, subtract = np.multiply, np.subtract
    multiply(target, gains.dot(y), out=b)
    multiply(gains[own], target_sq, out=scaled)
    subtract(b, scaled, out=b)
    multiply(b, scale, out=b)
    multiply(b, alpha, out=b)
    multiply(rel, vb, out=weight)
    np.add(weight, ve, out=weight)
    multiply(b, weight, out=b)
    return last(b, rel, out=b)


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
    plan = PolicyPlan(PolicyConfig("EquityRank", alpha), provider_arrays(profiles))
    rel = rel_source.relevance_of(user, ids)
    return ScoreVector(item_ids=ids, scores=plan.score(rel, catalog.group_of[ids], ledger.raw_gains()), relevance=rel)


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
    return online_step_rank(PolicyConfig("PoorK"), candidates, user, rel_source, ledger, catalog, profiles, pm)


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
    At alpha 0 this is TopK's list (``plan_of``).
    """
    return online_step_rank(PolicyConfig("FairCoStar", alpha), candidates, user, rel_source, ledger, catalog, profiles, pm)


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
    remaining candidates, with PoorK's slot-local gain updates. At alpha 0
    this is TopK's list, at alpha 1 PoorK's (``plan_of``).
    """
    return online_step_rank(PolicyConfig("MMFStar", alpha), candidates, user, rel_source, ledger, catalog, profiles, pm)


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
    ids = _candidates(candidates, catalog)
    plan = PolicyPlan(policy, provider_arrays(profiles))
    slots = plan.rank(estimator.relevance_of(user, ids), catalog.group_of[ids], ledger.raw_gains(), pm.probs)
    return RankList(tuple(ids[slots].tolist()), user)


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

    This is the list an offline run serves the user at ``ledger``:
    ``serve_offline``'s run of one over a one-user offline field of the
    candidates, paying a copy of ``ledger``. EquityRankV, whose lists are
    built for all users jointly, is refused as in the online dispatch.
    """
    ids, arrays = _candidates(candidates, catalog), provider_arrays(profiles)
    PolicyPlan(policy, arrays)  # refuses the policy's bad alpha, and EquityRankV, before any read
    relevance, k = rel.relevance_of(user, ids), pm.list_size
    if ids.size < k:
        raise ValueError(f"need at least {k} candidates, got {ids.size}")
    order = np.argsort(-relevance, kind="stable")
    items, provider = ids[order], catalog.group_of[ids[order]]
    by_provider, offsets = _provider_heads(provider, catalog.provider_count)
    field = OfflineField(np.array([0, ids.size]), items, relevance[order], provider, by_provider, offsets[None])
    one = np.zeros((1, 1), dtype=np.intp)  # one run, visiting the field's one user
    own = ledger.exposure_gain, ledger.purchase_gain, ledger.group_exposure
    copied = GainLedger(*(a.copy() for a in own), ledger.step_count)  # the copy the run pays
    picks, _, failed = serve_offline(policy.kind, [policy.alpha], field, one, [copied], arrays, pm.probs.tolist())
    if failed:
        raise failed[0]
    return RankList(tuple(items[picks[0, 0]].tolist()), user)


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

    def heads(self, users: np.ndarray, k: int) -> np.ndarray:
        """The field indices of the first ``k`` entries of each of ``users``' segments, a row
        per user: in greedy order, the list that relevance alone ranks (``rankers.ledger_blind``)."""
        return self.indptr[users][:, None] + np.arange(k)


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
        keep = np.zeros(n, dtype=bool)
        keep[ids] = True
        keep[by_group[zero & (rank <= list_size)]] = True
        at = np.flatnonzero(keep)
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
    users = [_whole_id(u, "user id") for u in users]
    for u in users:
        if not 0 <= u < rel.user_count:
            raise ValueError(f"user id {u} out of range")
    if len(set(users)) != len(users):
        raise ValueError("users must be distinct ids")
    field, order = offline_field(rel, catalog, pm.list_size), np.array(users, dtype=np.int64)
    arrays, probs = provider_arrays(profiles), pm.probs.tolist()
    picks, _, failed = serve_offline("EquityRankV", [alpha], field, order[None], [ledger], arrays, probs)
    if failed:
        raise failed[0]
    ledger.step_count += len(users)
    lists = field.items[field.indptr[order][:, None] + picks[0]]
    return [RankList(tuple(items), u) for u, items in zip(users, lists.tolist())]


def plan_of(policy: str, alpha: float) -> tuple[str, float]:
    """The (kind, alpha) of the plan that ``policy`` runs at ``alpha``: TopK's, PoorK's or its own.

    At alpha 0 every policy but PoorK ranks by relevance alone and runs
    TopK's plan. Where FairCo*'s or MMF*'s own plan finishes there, it is
    TopK's run bit for bit: FairCo* adds 0 x shortfall = 0.0, and MMF*
    scores A at span / span = 1 and every other entry at most 1; where 0
    times an overflowing ratio, or a subnormal span, makes NaN, its own
    plan fails and TopK's does not. EquityRankV keeps its own plan, as it
    pays level by level. MMF* at alpha 1 runs PoorK's plan.
    """
    if policy == "PoorK" or (policy == "MMFStar" and alpha == 1.0):
        return "PoorK", 1.0
    if policy == "TopK" or (alpha == 0.0 and policy != "EquityRankV"):
        return "TopK", 0.0
    return policy, alpha


def ledger_blind(policy: str, alpha: float) -> bool:
    """Whether ``policy`` at ``alpha`` ranks every offline list without reading the ledger:
    its plan (``plan_of``) runs at alpha 0, TopK's or EquityRankV's, so each list is the
    first K entries of the user's segment (``OfflineField.heads``)."""
    return plan_of(policy, alpha)[1] == 0.0


def serve_offline(policy: str, alphas, field: OfflineField, orders: np.ndarray, ledgers, arrays, probs):
    """Serve R offline runs of ``policy``, each by the engine its alpha picks (module docstring).

    Run r visits users ``orders[r]``, a row of the (R x users) ``orders``, at
    ``alphas[r]``, and pays ``ledgers[r]``; the caller counts the lists. A
    run whose ``PolicyConfig`` is refused fails before it is served.
    ``arrays`` are the ``provider_arrays``, ``probs`` the K examination
    probabilities as floats. Returns the picks (R x users x K, in the
    field's index dtype, int32 where it fits), the positions of run r's j-th
    user's list in its segment, top first; each run's wall time in seconds,
    that of its own serving, or for a lockstep run its batch's divided by
    the batch's runs; and by run the exception of each run that failed: it
    stops paying there, and its picks mean nothing.
    """
    runs, users = orders.shape
    k, vertical = len(probs), policy == "EquityRankV"
    picks = np.zeros((runs, users, k), dtype=field.items.dtype)
    walls, failed, lockstep = [0.0] * runs, {}, []
    ve, vb = arrays[0].tolist(), arrays[1].tolist()  # the weights as GainLedger.pay reads them
    for r, (alpha, order, ledger) in enumerate(zip(alphas, orders, ledgers)):
        try:
            config = PolicyConfig(policy, alpha)  # refuses an unknown policy or a bad alpha
        except Exception as exc:  # noqa: BLE001 - the run fails alone
            failed[r] = exc
            continue
        blind = ledger_blind(policy, alpha)
        if not blind and policy not in ("PoorK", "MMFStar"):
            lockstep.append(r)
            continue
        start = time.perf_counter()
        try:
            if blind:
                # pay the segments' heads user by user, top position first, or level by level, each position's
                # probability the one float object of ``probs`` repeated, from views of the gathered entries
                if vertical:
                    paid, levels = field.heads(order, k).T.ravel(), list(chain.from_iterable([p_k] * users for p_k in probs))
                else:
                    paid, levels = field.heads(order, k).ravel(), list(probs) * users
                ledger.pay(memoryview(field.provider[paid]), levels, memoryview(field.relevance[paid]), ve, vb)
                picks[r] = np.arange(k)
            else:
                plan, gains = PolicyPlan(config, arrays), ledger.raw_gains()
                for j, user in enumerate(order.tolist()):
                    seg = field.segment(user)
                    relevance, provider = field.relevance[seg], field.provider[seg]
                    at = picks[r, j] = plan.rank(relevance, provider, gains, probs, (field.by_provider[seg], field.offsets[user]))
                    ledger.pay(provider[at].tolist(), probs, relevance[at].tolist(), ve, vb, gains)
        except Exception as exc:  # noqa: BLE001 - the run fails alone
            failed[r] = exc
        walls[r] = time.perf_counter() - start
    count = -(-len(lockstep) // BATCH_RUNS)
    for batch in (lockstep[b::count] for b in range(count)):
        start = time.perf_counter()
        try:
            # EquityRankV's picks are EquityRank's scores' best, paid level by level
            plan = PolicyPlan(PolicyConfig("EquityRank" if vertical else policy, alphas[batch[0]]), arrays)
            alpha, paying = np.array([alphas[r] for r in batch]), [ledgers[r] for r in batch]
            picks[batch], bad = _lockstep(plan, field, orders[batch], alpha, paying, probs, vertical)
            failed.update({batch[i]: exc for i, exc in bad.items()})
        except Exception as exc:  # noqa: BLE001 - the batch's runs fail, the call goes on
            failed.update(dict.fromkeys(batch, exc))
        wall = (time.perf_counter() - start) / len(batch)
        for r in batch:
            walls[r] = wall
    return picks, walls, failed


def _lockstep(plan: PolicyPlan, field: OfflineField, orders: np.ndarray, alpha: np.ndarray, ledgers, probs, vertical: bool):
    """R offline runs of ``plan``'s FairCo* or EquityRank, or EquityRankV with ``vertical``, in lockstep.

    Run r visits users ``orders[r]`` at ``alpha[r]`` and pays ``ledgers[r]`` by ``GainLedger.pay``,
    each pick of EquityRankV at once, each other list once it is filled; the caller counts the lists.
    At each step every run scores its list's segment, padded with its last entry (module docstring).
    Returns the picks (R x users x K, in the field's index dtype), the positions of run r's
    j-th user's list in its segment, top first, and by run the failure of each run whose scores
    were not finite: it stops paying there, and its later picks mean nothing.
    """
    runs, users = orders.shape
    k = len(probs)
    first = field.indptr[orders]  # run r's j-th user's segment, first and last entry
    width = np.diff(field.indptr)[orders]
    last = first + width - 1
    spans = width.max(axis=0).tolist()
    cols = np.arange(max(spans, default=0))
    weight = field.relevance * plan.vb[field.provider] + plan.ve[field.provider]
    gains = np.stack([ledger.raw_gains() for ledger in ledgers])
    kept = list(gains)  # each run's raw gains as a run alone keeps them: views that GainLedger.pay writes
    ve, vb = plan.ve.tolist(), plan.vb.tolist()
    offset = np.arange(runs)[:, None] * plan.targets.size  # a provider's flat index in a run's gains row
    column, every = alpha.reshape(-1, 1).copy(), np.arange(runs)
    picks = np.zeros((runs, users, k), dtype=field.items.dtype)
    failed: dict[int, ValueError] = {}
    paying = list(range(runs))

    def segments(j):
        """The runs' j-th segments: field indices, relevance, flat provider indices, weights and pads at -inf."""
        c = cols[: spans[j]]
        at = np.minimum(first[:, j, None] + c, last[:, j, None])
        placed = np.where(c < width[:, j, None], 0.0, -np.inf)
        return at, field.relevance[at], field.provider[at] + offset, weight[at], placed

    def checked(scores):
        nonlocal paying
        check = plan._check(scores)
        if check.any():
            # a failed run stops paying and goes on at alpha 0; its picks mean nothing
            bad = check != 0.0
            failed.update({run: _not_finite() for run in np.flatnonzero(bad).tolist() if run not in failed})
            paying = [run for run in paying if run not in failed]
            column[bad] = 0.0
        return scores

    def pick(rel, flat, w, placed, gains):
        scores = checked(plan._equity(rel, flat, plan.targets, w, gains, column))
        scores += placed
        return scores.argmax(axis=1)

    def pay(served, probs):
        """Each paying run's ``served`` field indices, a row per run, top first, at ``probs``."""
        providers, values = field.provider[served].tolist(), field.relevance[served].tolist()
        for run in paying:
            ledgers[run].pay(providers[run], probs, values[run], ve, vb, kept[run])

    if vertical:
        for level, p_k in enumerate(probs):
            for j in range(users):
                at, rel, flat, w, placed = segments(j)
                if level:
                    placed[every[:, None], picks[:, j, :level]] = -np.inf
                best = picks[:, j, level] = pick(rel, flat, w, placed, gains)
                pay(at[every, best, None], [p_k])
        return picks, failed
    for j in range(users):
        at, rel, flat, w, placed = segments(j)
        if plan.kind == "FairCoStar":
            # rank's (score desc, relevance desc, position asc): a segment is in greedy
            # order, so among equal scores relevance never rises with the position, and
            # a stable sort by score alone gives that order; pads at -inf sort last
            scores = checked(plan.score(rel, flat, gains, column)) + placed
            picks[:, j] = np.argsort(-scores, axis=-1, kind="stable")[:, :k]
        else:
            copy = gains.copy()  # the gains a list pays into as it fills
            for level, p_k in enumerate(probs):
                best = picks[:, j, level] = pick(rel, flat, w, placed, copy)
                chosen = every, best
                placed[chosen] = -np.inf
                copy.reshape(-1)[flat[chosen]] += p_k * w[chosen]
        pay(at[every[:, None], picks[:, j]], probs)
    return picks, failed
