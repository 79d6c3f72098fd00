"""Synthetic dataset generation and dataset file I/O.

Provider gain weights are sampled from scenario-specific normal
distributions (rejecting non-positive draws): the Common scenario draws
exposure values around 10 and purchase values around 100; Exp1st draws both
from the purchase-scale distribution (exposure-hungry providers); Sale1st
inflates purchase values tenfold (sale-season providers). Relevance comes
from a latent-factor model squashed through a logistic, sparsified per user.
Generation holds one full (users x items) array, the latent factors' score
product, and frees it once each user's kept entries are gathered from it; the
logistic runs on the kept entries alone.

Datasets round-trip through a three-file CSV directory::

    catalog.csv     item_id,provider_id
    providers.csv   provider_id,v_e,v_b,y
    relevance.csv   user_id,item_id,relevance

External ids may be arbitrary strings; they are mapped to dense 0-based ids
in file order and kept in a side lookup for reporting. Loading streams
relevance.csv: it keeps each row's (user, item, value) in one float64 array
and its row number in an int array, so it holds the id maps and about 32
bytes a row, never the rows' text.

Every table the package writes or reads, these three and the CLI's sweep,
run and report tables, goes through ``_write_rows`` and ``_iter_rows`` (or
``_read_rows``, its list form): UTF-8 CSV, fields quoted only where needed,
floats written by ``metrics.format_float`` with 17 significant digits so
save -> load reproduces every value bit for bit.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from collections import deque
from dataclasses import astuple, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Catalog, ProviderProfile, RelevanceTable
from .metrics import format_float

__all__ = [
    "Dataset",
    "DatasetError",
    "DatasetLabels",
    "GeneratorSpec",
    "ScenarioSpec",
    "assign_groups",
    "generate_dataset",
    "generate_relevance",
    "load_dataset",
    "sample_profiles",
    "save_dataset",
]

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    """A dataset directory is missing, malformed, or violates an invariant."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Normal-distribution parameters for provider gain weights."""

    name: str
    ve_mean: float
    ve_sd: float
    vb_mean: float
    vb_sd: float
    y_mean: float
    y_sd: float

    def __post_init__(self) -> None:
        if min(self.ve_mean, self.vb_mean, self.y_mean) <= 0:
            raise ValueError("all scenario means must be positive")
        if min(self.ve_sd, self.vb_sd, self.y_sd) < 0:
            raise ValueError("scenario standard deviations must be nonnegative")

    @classmethod
    def common(cls) -> ScenarioSpec:
        return cls("Common", 10.0, 2.5, 100.0, 25.0, 50.0, 25.0)

    @classmethod
    def exp1st(cls) -> ScenarioSpec:
        return cls("Exp1st", 100.0, 25.0, 100.0, 25.0, 50.0, 25.0)

    @classmethod
    def sale1st(cls) -> ScenarioSpec:
        return cls("Sale1st", 10.0, 2.5, 1000.0, 250.0, 50.0, 25.0)

    @classmethod
    def by_name(cls, name: str) -> ScenarioSpec:
        table = {"common": cls.common, "exp1st": cls.exp1st, "sale1st": cls.sale1st}
        make = table.get(name.lower()) if isinstance(name, str) else None
        if make is None:
            raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(table)}")
        return make()


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the synthetic dataset generator (desk-scale defaults)."""

    n_users: int = 500
    n_items: int = 1000
    n_providers: int = 20
    group_size_skew: float = 0.8
    latent_dim: int = 8
    sparsity: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_users, self.n_items, self.n_providers, self.latent_dim) < 1:
            raise ValueError("counts and latent_dim must be positive")
        if self.n_providers > self.n_items:
            raise ValueError("cannot have more providers than items")
        if not (math.isfinite(self.group_size_skew) and self.group_size_skew >= 0):
            raise ValueError("group_size_skew must be finite and nonnegative")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in (0, 1]")


@dataclass(frozen=True)
class DatasetLabels:
    """Original external ids, indexed by dense id."""

    users: tuple[str, ...]
    items: tuple[str, ...]
    providers: tuple[str, ...]


@dataclass(frozen=True)
class Dataset:
    """A complete simulation input: catalog, provider profiles, relevance.

    ``derived`` caches arrays that the simulation derives from the data on
    first use and shares across the runs on this object (such as the
    offline fields of ``sim.run_offline``); it is not part of the data and
    takes no part in equality.
    """

    catalog: Catalog
    profiles: tuple[ProviderProfile, ...]
    relevance: RelevanceTable
    labels: DatasetLabels | None = None
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _positive_normal(rng: np.random.Generator, mean: float, sd: float) -> float:
    # Rejection keeps the draw strictly positive without the point mass at 0
    # that clamping would create.
    while True:
        x = rng.normal(mean, sd)
        if x > 0:
            return float(x)


def sample_profiles(m: int, scenario: ScenarioSpec, rng: np.random.Generator) -> list[ProviderProfile]:
    """Draw ``m`` provider profiles from the scenario's distributions."""
    if m < 2:
        raise ValueError("need at least two providers")
    return [
        ProviderProfile(
            exposure_value=_positive_normal(rng, scenario.ve_mean, scenario.ve_sd),
            purchase_value=_positive_normal(rng, scenario.vb_mean, scenario.vb_sd),
            gain_target=_positive_normal(rng, scenario.y_mean, scenario.y_sd),
        )
        for _ in range(m)
    ]


def generate_relevance(spec: GeneratorSpec, rng: np.random.Generator) -> RelevanceTable:
    """Latent-factor relevance: logistic(user . item / sqrt(dim)), sparsified.

    Each user keeps a random ``sparsity`` fraction of items (at least one);
    the rest read as 0. Retained values are strictly inside (0, 1).
    """
    users = rng.normal(size=(spec.n_users, spec.latent_dim))
    items = rng.normal(size=(spec.n_items, spec.latent_dim))
    keep = max(1, round(spec.sparsity * spec.n_items))
    picked = np.array([rng.choice(spec.n_items, size=keep, replace=False) for _ in range(spec.n_users)]).ravel()
    rows = np.repeat(np.arange(spec.n_users), keep)
    # One product of the whole catalog, so each kept score has the bits the
    # BLAS kernel gives it there (a block of rows can round differently);
    # the division and logistic then run on the kept scores alone, the same
    # elementwise operations in the order of 1 / (1 + exp(-score / sqrt(dim))).
    values = (users @ items.T)[rows, picked]
    values /= math.sqrt(spec.latent_dim)
    np.negative(values, out=values)
    np.exp(values, out=values)
    values += 1.0
    np.divide(1.0, values, out=values)
    return RelevanceTable(spec.n_users, np.column_stack((rows, picked, values)))


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer sizes proportional to weights, each >= 1, summing to total."""
    m = weights.size
    if total < m:
        raise ValueError(f"cannot give {m} groups at least one of {total} items")
    raw = weights / weights.sum() * total
    sizes = np.maximum(1, np.floor(raw).astype(np.int64))
    remainders = raw - np.floor(raw)
    order = np.lexsort((np.arange(m), -remainders))
    i = 0
    while sizes.sum() < total:
        sizes[order[i % m]] += 1
        i += 1
    while sizes.sum() > total:
        candidates = np.flatnonzero(sizes > 1)
        sizes[candidates[np.argmax(sizes[candidates])]] -= 1
    return sizes


def assign_groups(n_items: int, n_providers: int, skew: float, rng: np.random.Generator) -> Catalog:
    """Partition items into groups with rank-power-law sizes.

    Group g's size is proportional to (g+1)^-skew (skew 0 gives an even
    split); items are laid out contiguously per group and then shuffled so
    group membership is independent of item id.
    """
    if n_providers > n_items:
        raise ValueError("cannot have more providers than items")
    if not (math.isfinite(skew) and skew >= 0):
        raise ValueError("skew must be finite and nonnegative")
    weights = np.arange(1, n_providers + 1, dtype=np.float64) ** (-skew)
    sizes = _apportion(weights, n_items)
    contiguous = np.repeat(np.arange(n_providers, dtype=np.int64), sizes)
    return Catalog.from_assignments(rng.permutation(contiguous), n_providers)


def generate_dataset(spec: GeneratorSpec, scenario: ScenarioSpec) -> Dataset:
    """Generate a full synthetic dataset; pure function of (spec, scenario)."""
    rng = np.random.default_rng(spec.seed)
    catalog = assign_groups(spec.n_items, spec.n_providers, spec.group_size_skew, rng)
    profiles = tuple(sample_profiles(spec.n_providers, scenario, rng))
    relevance = generate_relevance(spec, rng)
    return Dataset(catalog=catalog, profiles=profiles, relevance=relevance)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

CATALOG_FILE = "catalog.csv"
PROVIDERS_FILE = "providers.csv"
RELEVANCE_FILE = "relevance.csv"
CATALOG_HEADER = ("item_id", "provider_id")
PROVIDERS_HEADER = ("provider_id", "v_e", "v_b", "y")
RELEVANCE_HEADER = ("user_id", "item_id", "relevance")


def save_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write the three-file CSV layout, under the dataset's labels if it has
    them and its dense ids otherwise."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels = dataset.labels
    items = labels.items if labels else range(dataset.catalog.item_count)
    providers = labels.providers if labels else range(len(dataset.profiles))
    groups = map(providers.__getitem__, dataset.catalog.group_of.tolist())
    _write_rows(directory / CATALOG_FILE, CATALOG_HEADER, zip(items, groups))
    profiles = ((g, *astuple(p)) for g, p in zip(providers, dataset.profiles))  # fields in header order
    _write_rows(directory / PROVIDERS_FILE, PROVIDERS_HEADER, profiles)
    entries = dataset.relevance.iter_entries()
    if labels:
        entries = ((labels.users[u], items[i], v) for u, i, v in entries)
    _write_rows(directory / RELEVANCE_FILE, RELEVANCE_HEADER, entries)


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then each row as one CSV table; ``_read_rows``
    reads it back.

    A float is written by ``format_float`` (17 significant digits, so it
    reads back bit for bit) and any other value by ``str``. A field is
    quoted only where CSV needs it: a comma, a quote or a line break.
    """
    rows = iter(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # A block of rows at a time, by column: a column without floats takes
        # no per-value test, and a whole relevance table of rows is never alive.
        while block := list(islice(rows, 512)):
            writer.writerows(zip(*map(_column_text, zip(*block))))


def _column_text(column: tuple) -> Sequence:
    if any(issubclass(kind, float) for kind in set(map(type, column))):
        return [format_float(value) if isinstance(value, float) else str(value) for value in column]
    return column  # the CSV writer writes a value that is not a string as str gives it


def _iter_rows(path: Path, expected_header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Each nonblank row of the CSV table at ``path`` after its header, with
    its 1-based row number, as it is read; a missing file, an empty one, a
    wrong header or a row of the wrong width is a ``DatasetError``."""
    if not path.is_file():
        raise DatasetError(f"missing file {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path.name} is empty") from None
        if header != list(expected_header):
            raise DatasetError(f"{path.name} row 1: expected header {','.join(expected_header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise DatasetError(f"{path.name} row {lineno}: expected {len(expected_header)} columns")
            yield lineno, row


def _read_rows(path: Path, expected_header: Sequence[str]) -> list[tuple[int, list[str]]]:
    """``_iter_rows`` read whole: every row is checked before any is returned."""
    return list(_iter_rows(path, expected_header))


def _parse_float(text: str, path: str, lineno: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DatasetError(f"{path} row {lineno}: {column} {text!r} is not a number") from None


def _relevance_value(item: str, text: str, item_ids: dict[str, int], lineno: int, strict: bool) -> float:
    """A relevance.csv row's value, once its item and value pass the row checks."""
    if item not in item_ids:
        raise DatasetError(f"{RELEVANCE_FILE} row {lineno}: unknown item id {item!r}")
    value = _parse_float(text, RELEVANCE_FILE, lineno, "relevance")
    if not math.isfinite(value):
        raise DatasetError(f"{RELEVANCE_FILE} row {lineno}: relevance {value} is not finite")
    if value < 0:
        raise DatasetError(f"{RELEVANCE_FILE} row {lineno}: relevance {value} is negative")
    if value > 1 and strict:
        raise DatasetError(f"{RELEVANCE_FILE} row {lineno}: relevance {value} exceeds 1 (strict mode)")
    return value


def load_dataset(directory: str | Path, strict: bool = False) -> Dataset:
    """Load a dataset directory, mapping external ids to dense ids.

    Relevance values must land in [0, 1]. A user whose values exceed 1 has
    the whole row divided by its maximum (logged); under ``strict`` any
    out-of-range value is an error instead. Negative relevance, and a
    (user, item) pair given twice, are always errors. All failures cite the
    file and row number.
    """
    directory = Path(directory)

    # providers.csv row order defines the dense provider ids, so a saved
    # dataset loads back with identical ids.
    provider_ids: dict[str, int] = {}
    profile_list: list[ProviderProfile] = []
    for lineno, (provider, *weights) in _read_rows(directory / PROVIDERS_FILE, PROVIDERS_HEADER):
        if provider in provider_ids:
            raise DatasetError(f"{PROVIDERS_FILE} row {lineno}: duplicate provider {provider!r}")
        values = [_parse_float(text, PROVIDERS_FILE, lineno, name) for text, name in zip(weights, PROVIDERS_HEADER[1:])]
        try:
            profile_list.append(ProviderProfile(*values))
        except ValueError as exc:
            raise DatasetError(f"{PROVIDERS_FILE} row {lineno}: {exc}") from None
        provider_ids[provider] = len(provider_ids)

    item_ids: dict[str, int] = {}
    group_assignments: list[int] = []
    for lineno, (item, provider) in _read_rows(directory / CATALOG_FILE, CATALOG_HEADER):
        if item in item_ids:
            raise DatasetError(f"{CATALOG_FILE} row {lineno}: duplicate item id {item!r}")
        if provider not in provider_ids:
            raise DatasetError(f"{CATALOG_FILE} row {lineno}: unknown provider id {provider!r}")
        item_ids[item] = len(item_ids)
        group_assignments.append(provider_ids[provider])

    user_ids: dict[str, int] = {}
    # the rows stream in: each row's (user, item, value) goes into one flat
    # float64 array, the table's (nnz, 3) input, and its row number into an
    # int array; no row's text outlives its checks
    flat, linenos = array("d"), array("q")
    rows = _iter_rows(directory / RELEVANCE_FILE, RELEVANCE_HEADER)
    for lineno, (user, item, value_text) in rows:
        try:
            value = _relevance_value(item, value_text, item_ids, lineno, strict)
        except DatasetError:
            # a row of the wrong width further down is the error to report,
            # as when every row was read before any was checked
            deque(rows, maxlen=0)
            raise
        flat.extend((user_ids.setdefault(user, len(user_ids)), item_ids[item], value))
        linenos.append(lineno)
    if not user_ids:
        raise DatasetError(f"{RELEVANCE_FILE}: contains no relevance rows")
    labels = DatasetLabels(users=tuple(user_ids), items=tuple(item_ids), providers=tuple(provider_ids))

    entries = np.frombuffer(flat).reshape(-1, 3)
    user_col, item_col, value_col = entries[:, 0].astype(np.int64), entries[:, 1].astype(np.int64), entries[:, 2]
    # a repeated (user, item) pair: its first repeat in file order, found
    # from one stable sort of the pairs' keys
    keys = user_col * len(item_ids) + item_col
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        first = int(repeats.min())
        user, item = labels.users[user_col[first]], labels.items[item_col[first]]
        raise DatasetError(
            f"{RELEVANCE_FILE} row {linenos[first]}: duplicate relevance for user {user!r} and item {item!r}"
        )
    row_max = np.zeros(len(user_ids), dtype=np.float64)
    np.maximum.at(row_max, user_col, value_col)
    rescaled = row_max > 1.0
    if rescaled.any():
        logger.warning("rescaled relevance rows of %d user(s) whose maximum exceeded 1", int(rescaled.sum()))
        value_col /= np.where(rescaled, row_max, 1.0)[user_col]

    try:
        catalog = Catalog.from_assignments(np.array(group_assignments, dtype=np.int64), len(provider_ids))
    except ValueError as exc:
        raise DatasetError(f"{CATALOG_FILE}: {exc}") from None
    relevance = RelevanceTable(len(user_ids), entries)
    return Dataset(catalog=catalog, profiles=tuple(profile_list), relevance=relevance, labels=labels)
