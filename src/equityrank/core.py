"""Core domain types shared by every part of the simulator.

Items are partitioned into provider groups (a ``Catalog`` stores only the
item -> provider array and derives every other view), providers declare how
much they value exposure versus purchases, and a position-bias model maps
rank positions to examination probabilities. All types here are immutable
after construction and safe to share across concurrent runs; catalogs and
relevance tables compare by value, and the operations are pure functions.

Item, user, and provider ids are dense 0-based integers. When a dataset is
ingested from files, the original external ids are kept in a side lookup
(see ``synth.DatasetLabels``) and never enter the hot loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Catalog",
    "PositionModel",
    "ProviderProfile",
    "RankList",
    "RelevanceTable",
    "provider_arrays",
]


def _whole_ids(ids, what: str) -> np.ndarray:
    """``ids`` as an int64 array; ValueError at the first that is not a whole number."""
    try:
        values = np.asarray(ids, dtype=np.float64)
    except OverflowError:
        raise _too_large(what) from None
    bad = ~(np.isfinite(values) & (values == np.floor(values)))
    if bad.any():
        raise ValueError(f"{what} {values[bad][0]:g} is not a whole number")
    return np.asarray(ids, dtype=np.int64)


def _whole_id(value, what: str) -> int:
    """``value`` as an int; ValueError, worded as ``_whole_ids``', unless it is a whole number."""
    try:
        number = float(value)
    except OverflowError:
        raise _too_large(what) from None
    if not number.is_integer():
        raise ValueError(f"{what} {number:g} is not a whole number")
    return int(value)


def _too_large(what: str) -> ValueError:  # an int beyond every float, where a whole number is read
    return ValueError(f"{what} is too large, beyond every float")


def _finite(value) -> bool:
    """``math.isfinite(value)``, False rather than OverflowError for an int beyond every float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _provider_heads(provider: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``provider``'s positions grouped stably by provider, and the m + 1 group offsets."""
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(provider, minlength=m), out=offsets[1:])
    return np.argsort(provider, kind="stable"), offsets


@dataclass(frozen=True, eq=False)
class Catalog:
    """A partition of items into provider groups, stored once, as ``group_of``.

    ``group_of[item]`` is the provider of ``item``, an int64 id in ``[0,
    provider_count)``, and every provider owns an item; the catalog holds a
    read-only copy of the array it is given. ``item_count``,
    ``group_sizes`` and ``items_of`` (``items_of[g]``: provider g's items
    ascending, built on first read) are derived. Catalogs compare by value.
    """

    group_of: np.ndarray
    provider_count: int

    def __post_init__(self) -> None:
        groups, m = np.asarray(self.group_of), self.provider_count
        if groups.ndim != 1 or groups.size == 0:
            raise ValueError("group assignments must be a nonempty 1-d sequence")
        if not np.issubdtype(groups.dtype, np.integer):
            raise ValueError(f"group_of must hold integer provider ids, got {groups.dtype}")
        if groups.min() < 0 or groups.max() >= m:
            raise ValueError("group_of contains an unknown provider id")
        groups = groups.astype(np.int64)  # the catalog's own copy, as RelevanceTable's arrays
        groups.flags.writeable = False
        object.__setattr__(self, "group_of", groups)
        empty = np.flatnonzero(self.group_sizes == 0)
        if empty.size:
            raise ValueError(f"provider {empty[0]} owns no items")

    @classmethod
    def from_assignments(cls, group_of: Iterable[int], provider_count: int | None = None) -> Catalog:
        """Build a catalog from an item -> provider assignment array."""
        groups = _whole_ids(list(group_of) if not isinstance(group_of, np.ndarray) else group_of, "provider id")
        # initial=-1: an empty array reaches the constructor, which refuses it
        m = _whole_id(provider_count, "provider count") if provider_count is not None else int(groups.max(initial=-1)) + 1
        return cls(groups, m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        return self.provider_count == other.provider_count and np.array_equal(self.group_of, other.group_of)

    @property
    def item_count(self) -> int:
        return self.group_of.size

    @property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.group_of, minlength=self.provider_count)

    @cached_property
    def items_of(self) -> tuple[np.ndarray, ...]:
        by_provider, offsets = _provider_heads(self.group_of, self.provider_count)
        return tuple(np.split(by_provider, offsets[1:-1]))


@dataclass(frozen=True)
class ProviderProfile:
    """Per-provider gain weights.

    ``exposure_value`` is the gain per unit of expected examination,
    ``purchase_value`` the gain per realized purchase, and ``gain_target``
    the provider's expected-gain weight: the system is fair when accrued
    gains are proportional to ``gain_target`` across providers. All three are held as floats.
    """

    exposure_value: float
    purchase_value: float
    gain_target: float

    def __post_init__(self) -> None:
        for name in ("exposure_value", "purchase_value", "gain_target"):
            # held as floats, the values provider_arrays stacks; isfinite refuses a string
            object.__setattr__(self, name, float(getattr(self, name)) if _finite(getattr(self, name)) else math.inf)
        if not all(math.isfinite(v) for v in (self.exposure_value, self.purchase_value, self.gain_target)):
            raise ValueError("gain weights and gain_target must be finite")
        if self.exposure_value < 0 or self.purchase_value < 0:
            raise ValueError("gain weights must be nonnegative")
        if not self.gain_target > 0:
            raise ValueError("gain_target must be strictly positive")


def provider_arrays(profiles: Sequence[ProviderProfile]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack profiles into float64 (exposure_value, purchase_value, gain_target) arrays, the weights' one inner form."""
    ve = np.array([p.exposure_value for p in profiles], dtype=np.float64)
    vb = np.array([p.purchase_value for p in profiles], dtype=np.float64)
    y = np.array([p.gain_target for p in profiles], dtype=np.float64)
    return ve, vb, y


@dataclass(frozen=True)
class PositionModel:
    """Examination probabilities for the positions of a length-K rank list.

    ``probs[k-1]`` is the probability that a user examines position ``k``;
    positions beyond ``list_size`` are never examined. ``probs`` may be any
    array-like; the model holds a read-only float64 copy, precomputed once
    and reused by every hot loop.
    """

    list_size: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        size = _whole_id(self.list_size, "list size")
        if size < 1:
            raise ValueError("list_size must be positive")
        probs = np.array(self.probs, dtype=np.float64)
        if probs.shape != (size,):
            raise ValueError("need exactly one probability per position")
        if probs[0] != 1.0:
            raise ValueError("the top position must be examined with probability 1")
        # written so that a NaN, which fails every comparison, fails it too
        if not ((probs > 0) & (probs <= 1)).all():
            raise ValueError("examination probabilities must lie in (0, 1]")
        if np.any(np.diff(probs) >= 0):
            raise ValueError("examination probabilities must be strictly decreasing")
        probs.flags.writeable = False
        object.__setattr__(self, "list_size", size)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def logarithmic(cls, list_size: int) -> PositionModel:
        """The standard 1 / (log2(k) + 1) position-bias curve."""
        ks = np.arange(1, list_size + 1, dtype=np.float64)
        return cls(list_size=list_size, probs=1.0 / (np.log2(ks) + 1.0))


@dataclass(frozen=True)
class RankList:
    """An ordered list of distinct item ids served to one user; ids must be whole numbers."""

    positions: tuple[int, ...]
    user: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(_whole_id(i, "item id") for i in self.positions))
        object.__setattr__(self, "user", _whole_id(self.user, "user id"))
        if len(self.positions) == 0:
            raise ValueError("rank list must not be empty")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("rank list contains a repeated item id")
        if min(self.positions) < 0:
            raise ValueError("rank list contains a negative item id")

    def items_for(self, user, catalog: Catalog, list_size: int) -> tuple[tuple[int, ...], list[int]]:
        """The one check of a served list: its items and their providers, for ``user`` in ``catalog``
        at ``list_size`` positions; ValueError for another user, more items or an item beyond the catalog."""
        if user != self.user:
            raise ValueError(f"user {user} does not match the list's user {self.user}")
        if len(self.positions) > list_size:
            raise ValueError(f"rank list has {len(self.positions)} items, more than the {list_size} positions")
        if max(self.positions) >= catalog.item_count:
            raise ValueError(f"item id {max(self.positions)} out of range")
        return self.positions, catalog.group_of[list(self.positions)].tolist()


class RelevanceTable:
    """Sparse (user, item) -> relevance table with values in [0, 1].

    Stored as three CSR arrays: user ``u``'s entries are
    ``indices[indptr[u]:indptr[u + 1]]`` (item ids, ascending) with their
    ``values`` at the same positions. Every read goes through one
    ``searchsorted`` over the user's item slice; absent pairs read 0 and a
    user outside ``[0, user_count)`` raises ValueError. ``entries`` are
    (user, item, value) triples, as an iterable or an (nnz, 3) array; a
    repeated (user, item) pair keeps its last value. The table and its
    arrays are immutable after construction.
    """

    def __init__(self, user_count: int, entries: Iterable[tuple[int, int, float]] = ()) -> None:
        if user_count < 1:
            raise ValueError("user_count must be positive")
        self.user_count = int(user_count)
        if not isinstance(entries, np.ndarray):
            entries = list(entries)
        triples = np.asarray(entries, dtype=np.float64)
        if triples.size and (triples.ndim != 2 or triples.shape[1] != 3):
            raise ValueError("entries must be (user, item, value) triples")
        triples = triples.reshape(-1, 3)
        users, items, values = triples.T
        # checked as floats, so a NaN, infinite or fractional id is rejected before the cast
        bad = ~((users >= 0) & (users < self.user_count) & (users == np.floor(users)))
        if bad.any():
            raise ValueError(f"user id {users[bad][0]:g} out of range or not a whole number")
        bad = ~((items >= 0) & np.isfinite(items) & (items == np.floor(items)))
        if bad.any():
            raise ValueError(f"item id {items[bad][0]:g} out of range or not a whole number")
        bad = ~((values >= 0.0) & (values <= 1.0))
        if bad.any():
            raise ValueError(f"relevance {float(values[bad][0])} outside [0, 1]")
        users, items = users.astype(np.int64), items.astype(np.int64)
        # a stable sort by (user, item) keeps repeated pairs in entry order,
        # so the last of each run is the value that wins
        order = np.lexsort((items, users))
        users, items, values = users[order], items[order], values[order]
        last = np.ones(users.size, dtype=bool)
        last[:-1] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
        self.indptr = np.zeros(self.user_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(users[last], minlength=self.user_count), out=self.indptr[1:])
        self.indices = items[last]
        self.values = values[last]
        for array in (self.indptr, self.indices, self.values):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.indices.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelevanceTable):
            return NotImplemented
        return (
            self.user_count == other.user_count
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def _row(self, user: int) -> slice:
        user = int(user)
        if not 0 <= user < self.user_count:
            raise ValueError(f"user id {user} out of range")
        return slice(self.indptr[user], self.indptr[user + 1])

    def relevance_of(self, user: int, items) -> np.ndarray:
        """Vector of relevances for ``items``, absent pairs reading 0."""
        row = self._row(user)
        stored, values = self.indices[row], self.values[row]
        items = np.asarray(items, dtype=np.int64)
        if stored.size == 0:
            return np.zeros(items.size, dtype=np.float64)
        # an item past the user's last stored id gets pos == size; "clip"
        # reads the last entry there, whose id differs, so it reads 0
        pos = stored.searchsorted(items)
        return np.where(stored.take(pos, mode="clip") == items, values.take(pos, mode="clip"), 0.0)

    def get(self, user: int, item: int) -> float:
        """Relevance of one pair (the scalar view of ``relevance_of``)."""
        return float(self.relevance_of(user, (item,))[0])

    def dense_row(self, user: int, item_count: int) -> np.ndarray:
        row = self._row(user)
        out = np.zeros(item_count, dtype=np.float64)
        out[self.indices[row]] = self.values[row]
        return out

    def user_values(self, user: int) -> np.ndarray:
        """Stored relevances of one user, sorted descending."""
        return np.sort(self.values[self._row(user)])[::-1]

    def item_mean_relevance(self, item_count: int) -> np.ndarray:
        """Per-item relevance averaged over all users (absent pairs count as 0)."""
        if self.max_item_id() >= item_count:
            raise ValueError(f"the table holds item ids beyond {item_count - 1}")
        return np.bincount(self.indices, weights=self.values, minlength=item_count) / self.user_count

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        """Every stored (user, item, value), users ascending, then items."""
        users = np.repeat(np.arange(self.user_count), np.diff(self.indptr))
        return zip(users.tolist(), self.indices.tolist(), self.values.tolist())

    def max_item_id(self) -> int:
        return int(self.indices.max()) if self.indices.size else -1
