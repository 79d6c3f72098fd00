"""Core domain types shared by every part of the simulator.

Items are partitioned into provider groups, providers declare how much they
value exposure versus purchases, and a position-bias model maps rank
positions to examination probabilities. All types here are immutable after
construction and safe to share across concurrent runs; the operations are
pure functions.

Item, user, and provider ids are dense 0-based integers. When a dataset is
ingested from files, the original external ids are kept in a side lookup
(see ``synth.DatasetLabels``) and never enter the hot loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Catalog",
    "PositionModel",
    "ProviderProfile",
    "RankList",
    "RelevanceTable",
    "examination_prob",
    "provider_arrays",
]


@dataclass(frozen=True)
class Catalog:
    """A partition of items into provider groups.

    ``group_of[item]`` is the owning provider of ``item``; ``items_of[g]``
    lists every item owned by provider ``g``. The two views always describe
    the same partition: every item belongs to exactly one provider and every
    provider owns at least one item.
    """

    item_count: int
    provider_count: int
    group_of: np.ndarray
    items_of: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n, m = self.item_count, self.provider_count
        if n < 1 or m < 1:
            raise ValueError("catalog needs at least one item and one provider")
        if self.group_of.shape != (n,):
            raise ValueError("group_of must assign a provider to every item")
        if len(self.items_of) != m:
            raise ValueError("items_of must have one entry per provider")
        if self.group_of.min() < 0 or self.group_of.max() >= m:
            raise ValueError("group_of contains an unknown provider id")
        total = 0
        for g, items in enumerate(self.items_of):
            if items.size == 0:
                raise ValueError(f"provider {g} owns no items")
            if not np.all(self.group_of[items] == g):
                raise ValueError(f"items_of[{g}] disagrees with group_of")
            total += items.size
        if total != n:
            raise ValueError("items_of is not a partition of the item set")

    @classmethod
    def from_assignments(cls, group_of: Iterable[int], provider_count: int | None = None) -> Catalog:
        """Build a catalog from an item -> provider assignment array."""
        groups = np.asarray(list(group_of) if not isinstance(group_of, np.ndarray) else group_of, dtype=np.int64)
        if groups.ndim != 1 or groups.size == 0:
            raise ValueError("group assignments must be a nonempty 1-d sequence")
        m = int(provider_count) if provider_count is not None else int(groups.max()) + 1
        items_of = tuple(np.flatnonzero(groups == g).astype(np.int64) for g in range(m))
        return cls(item_count=groups.size, provider_count=m, group_of=groups, items_of=items_of)

    @property
    def group_sizes(self) -> np.ndarray:
        return np.array([items.size for items in self.items_of], dtype=np.int64)


@dataclass(frozen=True)
class ProviderProfile:
    """Per-provider gain weights.

    ``exposure_value`` is the gain per unit of expected examination,
    ``purchase_value`` the gain per realized purchase, and ``gain_target``
    the provider's expected-gain weight: the system is fair when accrued
    gains are proportional to ``gain_target`` across providers.
    """

    exposure_value: float
    purchase_value: float
    gain_target: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.exposure_value, self.purchase_value, self.gain_target)):
            raise ValueError("gain weights and gain_target must be finite")
        if self.exposure_value < 0 or self.purchase_value < 0:
            raise ValueError("gain weights must be nonnegative")
        if not self.gain_target > 0:
            raise ValueError("gain_target must be strictly positive")


def provider_arrays(profiles: Sequence[ProviderProfile]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack profiles into (exposure_value, purchase_value, gain_target) arrays."""
    ve = np.array([p.exposure_value for p in profiles], dtype=np.float64)
    vb = np.array([p.purchase_value for p in profiles], dtype=np.float64)
    y = np.array([p.gain_target for p in profiles], dtype=np.float64)
    return ve, vb, y


@dataclass(frozen=True)
class PositionModel:
    """Examination probabilities for the positions of a length-K rank list.

    ``probs[k-1]`` is the probability that a user examines position ``k``;
    positions beyond ``list_size`` are never examined. The probabilities are
    precomputed once and reused by every hot loop.
    """

    list_size: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.list_size < 1:
            raise ValueError("list_size must be positive")
        if self.probs.shape != (self.list_size,):
            raise ValueError("need exactly one probability per position")
        if self.probs[0] != 1.0:
            raise ValueError("the top position must be examined with probability 1")
        if np.any(self.probs <= 0) or np.any(self.probs > 1):
            raise ValueError("examination probabilities must lie in (0, 1]")
        if np.any(np.diff(self.probs) >= 0):
            raise ValueError("examination probabilities must be strictly decreasing")

    @classmethod
    def logarithmic(cls, list_size: int) -> PositionModel:
        """The standard 1 / (log2(k) + 1) position-bias curve."""
        ks = np.arange(1, list_size + 1, dtype=np.float64)
        return cls(list_size=list_size, probs=1.0 / (np.log2(ks) + 1.0))


def examination_prob(k: int, pm: PositionModel) -> float:
    """Probability that position ``k`` (1-based) is examined; 0 beyond the list."""
    if k < 1:
        raise ValueError("position index must be >= 1")
    if k > pm.list_size:
        return 0.0
    return float(pm.probs[k - 1])


@dataclass(frozen=True)
class RankList:
    """An ordered list of distinct item ids served to one user."""

    positions: tuple[int, ...]
    user: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(map(int, self.positions)))
        if len(self.positions) == 0:
            raise ValueError("rank list must not be empty")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("rank list contains a repeated item id")

    def validate_for(self, catalog: Catalog, list_size: int) -> None:
        """Check length and id validity against a catalog."""
        if len(self.positions) != list_size:
            raise ValueError(f"rank list has {len(self.positions)} items, expected {list_size}")
        for item in self.positions:
            if item < 0 or item >= catalog.item_count:
                raise ValueError(f"item id {item} is not in the catalog")


class RelevanceTable:
    """Sparse (user, item) -> relevance map with values in [0, 1].

    Lookups for absent pairs return 0. The table is immutable after
    construction; per-user value arrays are cached for ideal-ranking
    computations.
    """

    def __init__(self, user_count: int, entries: Iterable[tuple[int, int, float]] = ()) -> None:
        if user_count < 1:
            raise ValueError("user_count must be positive")
        self.user_count = int(user_count)
        rows: dict[int, dict[int, float]] = {}
        for user, item, value in entries:
            user, item, value = int(user), int(item), float(value)
            if user < 0 or user >= self.user_count:
                raise ValueError(f"user id {user} out of range")
            if item < 0:
                raise ValueError(f"item id {item} out of range")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"relevance {value} outside [0, 1]")
            rows.setdefault(user, {})[item] = value
        self._rows = rows
        self._sorted_values: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelevanceTable):
            return NotImplemented
        return self.user_count == other.user_count and self._rows == other._rows

    def get(self, user: int, item: int) -> float:
        row = self._rows.get(int(user))
        if row is None:
            return 0.0
        return row.get(int(item), 0.0)

    def relevance_of(self, user: int, items: np.ndarray) -> np.ndarray:
        """Vector of relevances for ``items``, absent pairs reading 0."""
        row = self._rows.get(int(user))
        if row is None:
            return np.zeros(len(items), dtype=np.float64)
        return np.fromiter((row.get(int(i), 0.0) for i in items), dtype=np.float64, count=len(items))

    def dense_row(self, user: int, item_count: int) -> np.ndarray:
        out = np.zeros(item_count, dtype=np.float64)
        for item, value in self._rows.get(int(user), {}).items():
            out[item] = value
        return out

    def user_values(self, user: int) -> np.ndarray:
        """Stored relevances of one user, sorted descending (cached)."""
        user = int(user)
        cached = self._sorted_values.get(user)
        if cached is None:
            values = np.array(sorted(self._rows.get(user, {}).values(), reverse=True), dtype=np.float64)
            self._sorted_values[user] = cached = values
        return cached

    def item_mean_relevance(self, item_count: int) -> np.ndarray:
        """Per-item relevance averaged over all users (absent pairs count as 0)."""
        totals = np.zeros(item_count, dtype=np.float64)
        for row in self._rows.values():
            for item, value in row.items():
                totals[item] += value
        return totals / self.user_count

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        for user in sorted(self._rows):
            row = self._rows[user]
            for item in sorted(row):
                yield user, item, row[item]

    def max_item_id(self) -> int:
        return max((max(row) for row in self._rows.values() if row), default=-1)
