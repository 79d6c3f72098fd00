"""Evaluation mathematics for fairness-aware ranking.

Effectiveness is measured with position-discounted gain (DCG/NDCG and its
offline average / online discounted-cumulative forms). Provider-side
fairness compares accrued gains against each provider's declared
gain target: the system is perfectly fair when gains are proportional to
targets, and the unfairness score is the mean squared cross-provider
disparity of target-weighted gains. The analytic gradient of fairness with
respect to each provider's gain drives the gradient-based rankers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import Catalog, PositionModel, ProviderProfile, RankList, RelevanceTable, provider_arrays

__all__ = [
    "AlignmentDiagnostics",
    "GainLedger",
    "RunResult",
    "RESULT_FIELDS",
    "alignment_diagnostics",
    "andcg",
    "cndcg_update",
    "dcg",
    "discounted_sum",
    "expected_gain",
    "exposure_unfairness",
    "fairness_gradient",
    "format_float",
    "ideal_dcg",
    "ndcg",
    "ndcg_from",
    "tradeoff_envelope",
    "unfairness",
]


@dataclass(eq=False)
class GainLedger:
    """Running accumulators for provider gains.

    A ledger is owned and mutated by exactly one simulation run; metric code
    only reads it. ``exposure_gain`` and ``purchase_gain`` accrue the two
    gain components per provider, ``group_exposure`` the raw examination
    mass per provider, and ``step_count`` counts served lists. The online
    relevance estimator's per-(user, candidate) counters are not provider
    quantities; they live on ``sim.OnlineState``.

    The three arrays must be 1-d float64 arrays of one length, writable, or
    the constructor raises ValueError. They are fixed at construction:
    ``accrue`` writes them through memoryviews it builds then, so a caller
    may write into them but replaces the ledger, not its arrays. A deep copy
    or an unpickled ledger builds views of its own arrays. A ledger equals
    only itself.
    """

    exposure_gain: np.ndarray
    purchase_gain: np.ndarray
    group_exposure: np.ndarray
    step_count: int = 0
    _views: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arrays = (self.exposure_gain, self.purchase_gain, self.group_exposure)
        for a in arrays:
            if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.float64 and a.flags.writeable):
                raise ValueError("ledger arrays must be writable 1-d float64 arrays")
        if len({a.size for a in arrays}) != 1:
            raise ValueError("ledger arrays must have one length")
        # a view reads the Python float item() gives, and writes one, at half numpy's cost
        self._views = tuple(memoryview(a) for a in arrays)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_views"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def empty(cls, provider_count: int) -> GainLedger:
        if provider_count < 1:
            raise ValueError("need at least one provider")
        zeros = lambda: np.zeros(provider_count, dtype=np.float64)  # noqa: E731
        return cls(exposure_gain=zeros(), purchase_gain=zeros(), group_exposure=zeros())

    @property
    def provider_count(self) -> int:
        return self.exposure_gain.size

    def accrue(self, g: int, p_k: float, bought: float, v_e: float, v_b: float) -> float:
        """Add one served position's gains to provider ``g``; return its raw gain.

        The position pays p_k * v_e of exposure gain, ``bought`` * v_b of
        purchase gain and p_k of examination mass, at g's weights as floats;
        a list accrues its positions top first. ``bought`` is the expected
        purchases p_k * relevance, or the sampled 0 or 1 (0 keeps the purchase
        gain's bits). The caller counts the served list in ``step_count``.
        """
        exposure_gain, purchase_gain, group_exposure = self._views
        exposure_gain[g] = paid = exposure_gain[g] + p_k * v_e
        purchase_gain[g] = sold = purchase_gain[g] + bought * v_b
        group_exposure[g] += p_k
        return paid + sold

    def pay(self, providers, probs, relevances, ve, vb, kept=None) -> None:
        """Accrue served positions' expected gains, one ``accrue`` per position, in the order given.

        Position i pays provider g = ``providers[i]``, at the float weights ``ve[g]`` and
        ``vb[g]`` (lists of every provider's, or dicts keyed by the paid providers' ids),
        probability ``probs[i]`` and expected purchases ``probs[i] * relevances[i]``;
        ``kept`` (1-d float64), if given, takes each raw gain as ``accrue`` returns it.
        The caller counts the lists.
        """
        accrue, kept = self.accrue, None if kept is None else memoryview(kept)
        for g, p_k, r in zip(providers, probs, relevances):
            paid = accrue(g, p_k, p_k * r, ve[g], vb[g])
            if kept is not None:
                kept[g] = paid

    def raw_gains(self) -> np.ndarray:
        """Cumulative provider gains without the 1/T averaging."""
        return self.exposure_gain + self.purchase_gain

    def averaged_gains(self) -> np.ndarray:
        """Per-step averaged provider gains; requires at least one served list."""
        if self.step_count <= 0:
            raise ValueError("ledger has no served lists yet")
        return self.raw_gains() / self.step_count


# ---------------------------------------------------------------------------
# Effectiveness
# ---------------------------------------------------------------------------


def dcg(ranklist: RankList, rel: RelevanceTable, k_c: int, pm: PositionModel) -> float:
    """Position-discounted gain of the top ``k_c`` positions of one list."""
    if not 1 <= k_c <= pm.list_size:
        raise ValueError(f"cutoff {k_c} must lie in [1, {pm.list_size}]")
    values = rel.relevance_of(ranklist.user, ranklist.positions[:k_c]).tolist()
    return discounted_sum(values, pm.probs, k_c)


def discounted_sum(values: Sequence[float], probs: Sequence[float], k_c: int) -> float:
    """DCG of already-read relevances ``values``, listed in position order.

    ``probs`` are the examination probabilities (``PositionModel.probs``, or
    the same values as a list). Adds one position at a time, top first, so
    the result does not depend on where the relevances were read from.
    """
    total = 0.0
    for k0 in range(min(k_c, len(values))):
        total += values[k0] * probs[k0]
    return total


def ideal_dcg(relevances: np.ndarray, k_c: int, pm: PositionModel) -> float:
    """DCG of the best possible ordering of ``relevances`` (descending sort)."""
    if not 1 <= k_c <= pm.list_size:
        raise ValueError(f"cutoff {k_c} must lie in [1, {pm.list_size}]")
    values = np.sort(np.asarray(relevances, dtype=np.float64))[::-1][:k_c]
    if values.size == 0:
        return 0.0
    return float(values @ pm.probs[: values.size])


def ndcg_from(dcg_value: float, ideal: float) -> float:
    """NDCG from a list's DCG and its user's ideal DCG; 1.0 when the ideal is
    0, for a user with no relevant items."""
    return 1.0 if ideal == 0.0 else dcg_value / ideal


def ndcg(ranklist: RankList, rel: RelevanceTable, k_c: int, pm: PositionModel) -> float:
    """Normalized DCG in [0, 1]; defined as 1.0 for users with no relevant items."""
    return ndcg_from(dcg(ranklist, rel, k_c, pm), ideal_dcg(rel.user_values(ranklist.user), k_c, pm))


def andcg(lists: Sequence[RankList], rel: RelevanceTable, k_c: int, pm: PositionModel) -> float:
    """Mean NDCG over one list per user (offline effectiveness)."""
    if len(lists) == 0:
        raise ValueError("need at least one rank list")
    return sum(ndcg(rl, rel, k_c, pm) for rl in lists) / len(lists)


def cndcg_update(prev: float, ndcg_t: float, gamma: float) -> float:
    """One step of the discounted cumulative NDCG recurrence.

    Applying this per step yields sum_t gamma^(T-t) * NDCG_t at every T.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    return gamma * prev + ndcg_t


# ---------------------------------------------------------------------------
# Provider gain and fairness
# ---------------------------------------------------------------------------


def expected_gain(
    g: int,
    ranklist: RankList,
    user: int,
    catalog: Catalog,
    profile: ProviderProfile,
    rel: RelevanceTable,
    pm: PositionModel,
) -> float:
    """Expected gain provider ``g`` harvests from one served list.

    Each of g's listed items contributes its examination probability times
    (relevance * purchase_value + exposure_value); unlisted providers get 0.
    A list that ``RankList.items_for`` refuses raises ValueError.
    """
    items, groups = ranklist.items_for(user, catalog, pm.list_size)
    total = 0.0
    for p_k, owner, r in zip(pm.probs.tolist(), groups, rel.relevance_of(user, items).tolist()):
        if owner == g:
            total += p_k * (r * profile.purchase_value + profile.exposure_value)
    return total


def _check_gain_args(gains: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gains = np.asarray(gains, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if gains.shape != targets.shape or gains.ndim != 1:
        raise ValueError("gains and targets must be 1-d arrays of equal length")
    if gains.size < 2:
        raise ValueError("pairwise unfairness needs at least two providers")
    if np.any(targets <= 0):
        raise ValueError("gain targets must be strictly positive")
    return gains, targets


def unfairness(gains: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared cross-provider disparity of target-weighted gains.

    Zero exactly when gains are proportional to targets. The definition sums
    (G_i y_j - G_j y_i)^2 over ordered provider pairs, divided by m (m-1).
    That sum equals 2 |y|^2 |G - (G.y / |y|^2) y|^2: twice |y|^2 times the
    squared residual of the gains after projecting out the targets. This
    form is O(m) in time and memory; the pairwise one builds m x m arrays.

    The equal Lagrange form 2 (|G|^2 |y|^2 - (G.y)^2) is not used: it
    subtracts two nearly equal numbers when gains are nearly proportional to
    targets, which is the fair end of every trade-off curve, and loses most
    of its relative accuracy there. The residual is formed per provider, so
    its error stays near rounding of the gains themselves. The rounded
    coefficient G.y / |y|^2 leaves a few ulps of the targets in the residual,
    which dominate it when the gains are proportional to rounding; a second
    projection of the residual takes that part out.
    """
    gains, targets = _check_gain_args(gains, targets)
    m = gains.size
    # gains or targets near the float range give inf or nan, the value itself, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        target_sq = float(targets @ targets)
        residual = gains - (float(gains @ targets) / target_sq) * targets
        residual -= (float(residual @ targets) / target_sq) * targets
        return 2.0 * target_sq * float(residual @ residual) / (m * (m - 1))


def fairness_gradient(gains: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Analytic derivative of fairness (= -unfairness) w.r.t. each provider's gain.

    Closed form: (4 / (m (m-1))) * (y_g * sum(G y) - G_g * sum(y^2)); positive
    entries mark under-served providers whose gain should grow.
    """
    gains, targets = _check_gain_args(gains, targets)
    m = gains.size
    return 4.0 / (m * (m - 1)) * (targets * float(gains @ targets) - gains * float(targets @ targets))


def exposure_unfairness(ledger: GainLedger, catalog: Catalog, rel: RelevanceTable) -> float:
    """Classic exposure unfairness as the unit-gain special case.

    Setting every exposure value to 1 and purchase value to 0 makes a
    provider's gain its accumulated examination mass, and taking each
    group's mean relevance as its gain target recovers the
    exposure-proportional-to-merit criterion.
    """
    if ledger.step_count <= 0:
        raise ValueError("ledger has no served lists yet")
    item_rel = rel.item_mean_relevance(catalog.item_count)
    targets = np.array([item_rel[items].mean() for items in catalog.items_of])
    if np.any(targets <= 0):
        bad = int(np.flatnonzero(targets <= 0)[0])
        raise ValueError(f"group {bad} has zero mean relevance; exposure target undefined")
    gains = ledger.group_exposure / ledger.step_count
    return unfairness(gains, targets)


# ---------------------------------------------------------------------------
# Alignment diagnostics and trade-off curves
# ---------------------------------------------------------------------------


class AlignmentDiagnostics(NamedTuple):
    msd: float
    pearson: float
    excluded: int


def alignment_diagnostics(ledger: GainLedger, profiles: Sequence[ProviderProfile]) -> AlignmentDiagnostics:
    """How well realized gain ratios match the providers' declared preferences.

    Compares each provider's purchase/exposure gain ratio with its
    purchase_value/exposure_value weight ratio: ``msd`` is the mean squared
    difference, ``pearson`` the correlation of the two ratio vectors.
    Providers whose realized exposure gain (or exposure weight) is zero have
    no defined ratio; they are excluded and counted rather than failing the
    run. Pearson is NaN when either ratio vector is constant.
    """
    return _alignment(ledger, *provider_arrays(profiles)[:2])


def _alignment(ledger: GainLedger, ve: np.ndarray, vb: np.ndarray) -> AlignmentDiagnostics:
    """``alignment_diagnostics`` from the providers' exposure and purchase values ``ve`` and ``vb``."""
    exposure = ledger.exposure_gain
    kept = ~((exposure <= 0) | (ve <= 0))
    if not kept.any():
        raise ValueError("every provider lacks exposure gain; diagnostics undefined")
    # ratios near the float range give an inf or nan msd or pearson without a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        realized = ledger.purchase_gain[kept] / exposure[kept]
        declared = vb[kept] / ve[kept]
        msd = float(np.mean((realized - declared) ** 2))
        if realized.size < 2 or np.ptp(realized) == 0 or np.ptp(declared) == 0:
            pearson = math.nan
        else:
            pearson = float(np.corrcoef(realized, declared)[0, 1])
    return AlignmentDiagnostics(msd=msd, pearson=pearson, excluded=kept.size - int(np.count_nonzero(kept)))


def tradeoff_envelope(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Best effectiveness achievable under each unfairness ceiling.

    For every distinct unfairness value, in ascending order, emits the
    maximum effectiveness among points at or below that ceiling; the result
    is nondecreasing in effectiveness.
    """
    if len(points) == 0:
        raise ValueError("need at least one (unfairness, effectiveness) point")
    best: dict[float, float] = {}
    for u, e in points:
        if u not in best or e > best[u]:
            best[u] = e
    envelope = []
    running = -math.inf
    for u in sorted(best):
        running = max(running, best[u])
        envelope.append((u, running))
    return envelope


# ---------------------------------------------------------------------------
# Run results
# ---------------------------------------------------------------------------

RESULT_FIELDS = ("mode", "policy", "alpha", "seed", "effectiveness", "unfairness", "msd", "pearson", "wall_ms")


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (exact round trip; NaN is ``nan``)."""
    return format(x, ".17g")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (policy, alpha, seed) simulation run."""

    mode: str
    policy: str
    alpha: float
    seed: int
    effectiveness: float
    unfairness: float
    msd: float
    pearson: float
    wall_time: float

    def deterministic_values(self) -> tuple[str, ...]:
        """The serialised fields of ``RESULT_FIELDS`` before ``wall_ms``.

        These are the bytes a rerun reproduces; the wall time is not.
        """
        return (
            self.mode,
            self.policy,
            format_float(self.alpha),
            str(self.seed),
            format_float(self.effectiveness),
            format_float(self.unfairness),
            format_float(self.msd),
            format_float(self.pearson),
        )

    def csv_row(self) -> str:
        return ",".join((*self.deterministic_values(), format_float(self.wall_time * 1000.0)))
