"""Shared domain types: neighborhood records, datasets, weights, rankings.

Everything here is immutable after construction and validated on
construction; downstream modules can rely on the invariants without
re-checking them. Most types are ``NamedTuple``s, so they also unpack,
iterate and compare equal to plain tuples of their field values. The types
with a length of their own, :class:`AliasTable`, :class:`CityDataset`,
:class:`PriorityRanking` and :class:`AllocationPlan`, are slotted
:class:`Value` classes instead; the last three hold their neighborhoods as
columns, one per field, not as records. A checked type of either kind has
one constructor, its class call: a ``NamedTuple`` under :func:`validated`,
a :class:`Value` through :meth:`Value._init`, and both run its
``__post_init__``. Neither kind uses ``dataclasses``: importing it and
building frozen dataclasses would cost more than the rest of the CLI's
start-up.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from itertools import compress, islice, repeat
from operator import eq, ge, le
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    DomainValidationError,
    InvalidNameError,
    LeadAllocError,
    UnknownCityError,
)

# Canonical CSV column names for the three core metrics.
COL_NEIGHBORHOOD = "neighborhood"
COL_PREVALENCE = "prevalence_per_1000"
COL_UNTESTED = "untested_pct"
COL_COVERAGE = "public_coverage_pct"
CORE_COLUMNS = (COL_NEIGHBORHOOD, COL_PREVALENCE, COL_UNTESTED, COL_COVERAGE)


def validated(cls):
    """Make every construction of the ``NamedTuple`` ``cls`` run its ``__post_init__``.

    ``__post_init__`` raises on a broken invariant. It returns None, or an
    instance with normalized fields (a tuple for any iterable, a read-only
    view of a mapping's copy), which construction returns instead; it builds
    that instance with ``tuple.__new__``, which runs no check. ``_make`` and
    ``_replace`` construct through the same path, so no instance skips the
    checks. A construction that normalizes builds the tuple twice, which
    is cheap for the few values the CLI builds this way.
    """
    make_fields = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = make_fields(klass, *args, **kwargs)
        normalized = self.__post_init__()
        return self if normalized is None else normalized

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls


class Value:
    """Base of the immutable types that cannot be tuples because they have a length.

    A subclass names its fields in ``_fields`` and keeps each in the slot of
    the same name: ``__slots__ == _fields``. Its class call, the one way to
    build it, sets the slots with :meth:`_init`, which checks the value with
    ``__post_init__``; any later assignment raises ``AttributeError``.
    Equality and hashing go by :meth:`_key`, and ``repr`` and ``_replace``
    by :meth:`_values`; both are the field values unless a subclass says
    otherwise.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self._fields))

    def _key(self) -> tuple:
        return self._values()

    def _init(self, *values) -> None:
        """Set the slots, in ``__slots__`` order, then check the value with ``__post_init__``."""
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)
        self.__post_init__()

    def _replace(self, **changes):
        """A copy with the named fields changed, built and checked as a new value is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class _Columnar(Value):
    """A value that holds one entry per neighborhood as columns; ``len()`` counts them.

    ``names``, a tuple of the canonical names in the value's order, is one
    of its fields.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.names)


def is_zip_code(name: str) -> bool:
    """Whether a canonical name is a 5-digit ZIP code."""
    return len(name) == 5 and name.isdecimal()


def canonicalize_name(raw: str, aliases: "AliasTable | None" = None) -> str:
    """Normalize a neighborhood name to its canonical matching form.

    Lowercases, folds every punctuation or dash character (any Unicode
    variant) to a space, collapses whitespace, then applies the alias
    table, if any. Idempotent: canonical forms map to themselves. A name
    whose words are all alphanumeric already, the usual case, needs no fold.
    """
    lowered = raw.lower()
    words = lowered.split()
    if not all(map(str.isalnum, words)):
        # In a str pattern, \w is str.isalnum() plus the underscore.
        words = re.sub(r"[\W_]+", " ", lowered).split()
    name = " ".join(words)
    if not name:
        raise InvalidNameError(f"name is empty after normalization: {raw!r}")
    if aliases is not None:
        name = aliases.resolve(name)
    return name


class AliasTable(Value):
    """Maps alternate neighborhood spellings onto their canonical name.

    Every key and value must be canonical already, and no key may also be a
    value, so resolution is a single, idempotent lookup. Build a table from
    a ``{"canonical": ["alias", ...]}`` mapping with :meth:`from_mapping`,
    which normalizes both sides first.
    """

    __slots__ = _fields = ("alias_to_canonical",)

    def __init__(self, alias_to_canonical: Mapping[str, str] = MappingProxyType({})) -> None:
        self._init(MappingProxyType(dict(alias_to_canonical)))

    def __post_init__(self) -> None:
        table = self.alias_to_canonical
        for name in (*table, *table.values()):
            canonical = canonicalize_name(name)
            if canonical != name:
                raise DomainValidationError(
                    f"alias table name {name!r} is not canonical; its canonical form is "
                    f"{canonical!r}"
                )
        chained = table.keys() & set(table.values())
        if chained:
            raise DomainValidationError(
                f"canonical names also appear as aliases (chained mapping): {sorted(chained)}"
            )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[str]]) -> "AliasTable":
        alias_to_canonical: dict[str, str] = {}
        canonicals = set()
        for canonical_raw, alias_list in mapping.items():
            canonical = canonicalize_name(canonical_raw)
            canonicals.add(canonical)
            for alias_raw in alias_list:
                alias = canonicalize_name(alias_raw)
                if alias == canonical:
                    continue
                existing = alias_to_canonical.get(alias)
                if existing is not None and existing != canonical:
                    raise DomainValidationError(
                        f"alias {alias!r} maps to both {existing!r} and {canonical!r}"
                    )
                alias_to_canonical[alias] = canonical
        chained = canonicals & alias_to_canonical.keys()
        if chained:
            raise DomainValidationError(
                f"canonical names also appear as aliases (chained mapping): {sorted(chained)}"
            )
        return cls(alias_to_canonical)

    @classmethod
    def from_file(cls, path: str | Path) -> "AliasTable":
        from .ingest import load_json  # deferred: ingest imports this module

        mapping = load_json(path)
        if not isinstance(mapping, dict) or not all(
            isinstance(names, list) and all(isinstance(name, str) for name in names)
            for names in mapping.values()
        ):
            raise DomainValidationError(f"alias file {path}: expected a JSON object of name lists")
        try:
            return cls.from_mapping(mapping)
        except LeadAllocError as exc:
            raise DomainValidationError(f"alias file {path}: {exc}") from None

    def resolve(self, normalized_name: str) -> str:
        return self.alias_to_canonical.get(normalized_name, normalized_name)

    def __len__(self) -> int:
        return len(self.alias_to_canonical)


class UnitKind(Enum):
    NAMED_AREA = "named_area"
    ZIP_CODE = "zip_code"


class WeightVariant(Enum):
    """Which of the two supported weight-derivation rules is in force."""

    TEXT = "text"
    ALGORITHM = "algorithm"


class Strategy(Enum):
    PROPORTIONAL = "proportional"
    TOP_K_EQUAL = "top_k_equal"
    RANK_WEIGHTED = "rank_weighted"


class CityProfile(NamedTuple):
    city: str
    unit_kind: UnitKind
    bll_threshold_ug_dl: float


_CITY_REGISTRY: dict[str, CityProfile] = {
    "chicago": CityProfile("chicago", UnitKind.NAMED_AREA, 5.0),
    "nyc": CityProfile("nyc", UnitKind.NAMED_AREA, 5.0),
    "dc": CityProfile("dc", UnitKind.ZIP_CODE, 3.5),
    # Ships with the synthetic demo dataset; not a real jurisdiction.
    "demo": CityProfile("demo", UnitKind.NAMED_AREA, 5.0),
}


def known_cities() -> tuple[str, ...]:
    return tuple(_CITY_REGISTRY)


def city_profile(city: str) -> CityProfile:
    key = city.strip().lower()
    try:
        return _CITY_REGISTRY[key]
    except KeyError:
        raise UnknownCityError(
            f"unknown city {city!r}; known cities: {', '.join(_CITY_REGISTRY)}"
        ) from None


def register_city(
    city: str, unit_kind: UnitKind, bll_threshold_ug_dl: float, *, replace: bool = False
) -> CityProfile:
    """Add a city to the registry so its datasets can be parsed."""
    key = city.strip().lower()
    if not key:
        raise DomainValidationError("city identifier must be non-empty")
    if key in _CITY_REGISTRY and not replace:
        raise DomainValidationError(f"city {key!r} is already registered")
    profile = CityProfile(key, unit_kind, float(bll_threshold_ug_dl))
    _CITY_REGISTRY[key] = profile
    return profile


@validated
class NeighborhoodRecord(NamedTuple):
    """One neighborhood's raw metrics.

    ``name`` is expected in canonical form (see :func:`canonicalize_name`);
    ``extra_factors`` holds any additional named numeric columns, kept as a
    read-only copy. Every value must be finite.
    """

    name: str
    prevalence: float
    untested_pct: float
    public_coverage_pct: float
    extra_factors: Mapping[str, float] = MappingProxyType({})

    def __post_init__(self) -> NeighborhoodRecord:
        name, prevalence, untested_pct, public_coverage_pct, extra_factors = self
        if not name.strip():
            raise InvalidNameError("neighborhood name must be non-empty")
        if not math.isfinite(prevalence) or prevalence < 0:
            raise DomainValidationError(
                f"{name}: prevalence must be a non-negative real, got {prevalence}"
            )
        # Comparisons with NaN are false, so the range test also rejects non-finite values.
        for label, value in ((COL_UNTESTED, untested_pct), (COL_COVERAGE, public_coverage_pct)):
            if not 0 <= value <= 100:
                raise DomainValidationError(f"{name}: {label} out of range [0,100], got {value}")
        extra_factors = dict(extra_factors)
        for factor, value in extra_factors.items():
            if not math.isfinite(value):
                raise DomainValidationError(
                    f"{name}: extra factor {factor!r} must be finite, got {value}"
                )
        return tuple.__new__(type(self), (*self[:4], MappingProxyType(extra_factors)))


class CityDataset(_Columnar):
    """Validated neighborhoods of one city, held as columns.

    ``names`` is a tuple of the canonical names in dataset order.
    ``prevalence``, ``untested_pct`` and ``public_coverage_pct`` hold the
    core metrics, and ``extra_columns`` maps each extra factor to its values,
    NaN where a neighborhood lacks the factor. Each column is a read-only
    view of an ``array('d')`` with one value per name, so a value costs 8
    bytes, not a float object. The columns hold floats, so integral values
    given come back as floats.

    The class call copies the columns given and checks them once (see
    :meth:`__post_init__`). Equality and hashing compare each column's
    bytes, so every blank cell holds the same NaN, and -0.0 differs from
    0.0. ``records`` builds the records afresh on every access, in O(n): it
    is for callers that want rows, not for hot paths.
    """

    __slots__ = _fields = (
        "city",
        "names",
        "prevalence",
        "untested_pct",
        "public_coverage_pct",
        "extra_columns",
        "bll_threshold_ug_dl",
        "unit_kind",
    )

    def __init__(
        self,
        city: str,
        names: Iterable[str],
        prevalence: Iterable[float],
        untested_pct: Iterable[float],
        public_coverage_pct: Iterable[float],
        extra_columns: Mapping[str, Iterable[float]] = MappingProxyType({}),
        *,
        bll_threshold_ug_dl: float,
        unit_kind: UnitKind,
    ) -> None:
        from array import array  # deferred: only building columns needs it

        def frozen(values: Iterable[float]) -> memoryview:
            column = array("d", values)
            for row in compress(range(len(column)), map(math.isnan, column)):
                column[row] = math.nan  # one NaN for every blank cell, as _key needs
            return memoryview(column).toreadonly()

        extras = {factor: frozen(values) for factor, values in extra_columns.items()}
        self._init(
            city,
            tuple(names),
            frozen(prevalence),
            frozen(untested_pct),
            frozen(public_coverage_pct),
            # A factor no neighborhood has is no column, as it is no record's factor.
            MappingProxyType(
                {
                    factor: values
                    for factor, values in extras.items()
                    if not all(map(math.isnan, values))
                }
            ),
            bll_threshold_ug_dl,
            unit_kind,
        )

    def _values(self) -> tuple:
        """The fields with each column as a list and the extra columns in factor order.

        A memoryview's ``repr`` is its address, and equality ignores the order of the extras.
        """
        city, names, *core, extras, threshold, unit_kind = super()._values()
        lists = {factor: extras[factor].tolist() for factor in sorted(extras)}
        return city, names, *(values.tolist() for values in core), lists, threshold, unit_kind

    def _key(self) -> tuple:
        """The fields with each column as bytes: memoryviews do not hash, and NaN is unequal."""
        city, names, *core, extras, threshold, unit_kind = super()._values()
        extra_bytes = frozenset((factor, values.tobytes()) for factor, values in extras.items())
        return city, names, *map(memoryview.tobytes, core), extra_bytes, threshold, unit_kind

    def __post_init__(self) -> None:
        """Raise on a broken invariant; the common, valid case takes C-level passes only."""
        names = self.names
        if not names:
            raise DomainValidationError(f"{self.city}: dataset has no records")
        columns = (self.prevalence, self.untested_pct, self.public_coverage_pct)
        if any(len(values) != len(names) for values in (*columns, *self.extra_columns.values())):
            raise DomainValidationError(f"{self.city}: every column needs one value per name")
        # A dict, not a set: at 20,000 names a set's table takes 2 MB, a dict 0.4 MB.
        if len(dict.fromkeys(names)) != len(names):
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise DomainValidationError(f"{self.city}: duplicate neighborhood {name!r}")
                seen.add(name)
        if self.unit_kind is UnitKind.ZIP_CODE and not all(map(is_zip_code, names)):
            name = next(name for name in names if not is_zip_code(name))
            raise DomainValidationError(f"{self.city}: {name!r} is not a 5-digit ZIP code")
        for label, values, upper in zip(CORE_COLUMNS[1:], columns, (math.inf, 100, 100)):
            if not all(map(math.isfinite, values)) or min(values) < 0 or max(values) > upper:
                row = next(
                    i for i, value in enumerate(values)
                    if not (math.isfinite(value) and 0 <= value <= upper)
                )
                self._reject(row, f"{label} out of range [0, {upper}], got {values[row]}")
        for factor, values in self.extra_columns.items():
            if any(map(math.isinf, values)):
                row = next(i for i, value in enumerate(values) if math.isinf(value))
                self._reject(row, f"extra factor {factor!r} must be finite, got {values[row]}")

    def _reject(self, row: int, problem: str) -> None:
        raise DomainValidationError(f"{self.city}: {self.names[row]}: {problem}")

    @property
    def records(self) -> tuple[NeighborhoodRecord, ...]:
        """The neighborhoods as records, built afresh on each access in O(n)."""
        factors = tuple(self.extra_columns)
        return tuple(
            NeighborhoodRecord(
                name,
                prevalence,
                untested,
                coverage,
                {factor: value for factor, value in zip(factors, values) if not math.isnan(value)},
            )
            for name, prevalence, untested, coverage, *values in zip(
                self.names,
                self.prevalence,
                self.untested_pct,
                self.public_coverage_pct,
                *self.extra_columns.values(),
            )
        )

    def column(self, factor: str) -> Sequence[float]:
        """The values of a core metric or extra factor, NaN where a neighborhood lacks it."""
        core = {
            COL_PREVALENCE: self.prevalence,
            COL_UNTESTED: self.untested_pct,
            COL_COVERAGE: self.public_coverage_pct,
        }
        return core[factor] if factor in core else self.extra_columns[factor]

    def factor_names(self) -> tuple[str, ...]:
        """Core metric columns plus every extra factor, sorted."""
        return (COL_UNTESTED, COL_COVERAGE, *sorted(self.extra_columns))


def derived_beta_gamma(r: float, alpha: float, variant: WeightVariant) -> tuple[float, float]:
    """(beta, gamma) under ``variant``'s rule, with ``r`` clamped to [0, 1].

    ``text``: gamma = r * (1 - alpha); ``algorithm``: gamma = r; in both,
    beta = (1 - alpha) * (1 - gamma).
    """
    r_clamped = min(max(r, 0.0), 1.0)
    gamma = r_clamped * (1 - alpha) if variant is WeightVariant.TEXT else r_clamped
    return (1 - alpha) * (1 - gamma), gamma


@validated
class WeightConfig(NamedTuple):
    """Priority-score weights plus the correlation they were derived from."""

    alpha: float
    beta: float
    gamma: float
    variant: WeightVariant
    source_correlation: float
    normalized: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise DomainValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.beta < 0 or self.gamma < 0:
            raise DomainValidationError("beta and gamma must be non-negative")
        if not -1 <= self.source_correlation <= 1:
            raise DomainValidationError(
                f"source correlation must lie in [-1, 1], got {self.source_correlation}"
            )
        if self.normalized:
            total = self.alpha + self.beta + self.gamma
            if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
                raise DomainValidationError(
                    f"normalized weights must sum to 1, got {total}"
                )
        else:
            expected_beta, expected_gamma = derived_beta_gamma(
                self.source_correlation, self.alpha, self.variant
            )
            if not (
                math.isclose(self.gamma, expected_gamma, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(self.beta, expected_beta, rel_tol=1e-9, abs_tol=1e-12)
            ):
                raise DomainValidationError(
                    f"weights (beta={self.beta}, gamma={self.gamma}) do not follow the "
                    f"{self.variant.value} derivation rule for r={self.source_correlation}, "
                    f"alpha={self.alpha}"
                )

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "variant": self.variant.value,
            "source_correlation": self.source_correlation,
            "normalized": self.normalized,
        }


class RankingEntry(NamedTuple):
    name: str
    raw_score: float
    scaled_score: float


class PriorityRanking(_Columnar):
    """Descending-ordered priority list for one city, held as columns.

    ``names``, ``raw_scores`` and ``scaled_scores`` are tuples in ranking
    order; a tuple given is held, not copied. :meth:`__post_init__` checks
    the ranking once, over the columns. ``entries`` builds the
    ``RankingEntry`` tuples on every access, in O(n): it is not for hot
    paths. ``len()`` is the number of entries.
    """

    __slots__ = _fields = ("city", "weights", "names", "raw_scores", "scaled_scores")

    def __init__(
        self, city: str, weights: WeightConfig, names: Iterable[str],
        raw_scores: Iterable[float], scaled_scores: Iterable[float],
    ) -> None:
        self._init(city, weights, tuple(names), tuple(raw_scores), tuple(scaled_scores))

    def __post_init__(self) -> None:
        """Raise on a broken invariant, as checking entry by entry would, in C-level passes."""
        names, raw, scaled = self.names, self.raw_scores, self.scaled_scores
        if not names:
            raise DomainValidationError(f"{self.city}: ranking has no entries")
        if not len(raw) == len(scaled) == len(names):
            raise DomainValidationError(f"{self.city}: every column needs one score per name")
        # min and max cannot order NaN, so NaN scaled scores are looked for first.
        if not all(map(math.isfinite, raw)) or min(raw) < 0 or any(map(math.isnan, scaled)) or not (
            0 <= min(scaled) and max(scaled) <= 10
        ):
            for name, raw_score, scaled_score in zip(names, raw, scaled):
                if not math.isfinite(raw_score) or raw_score < 0:
                    raise DomainValidationError(
                        f"{self.city}: non-finite or negative raw score for {name!r}"
                    )
                if not 0 <= scaled_score <= 10:
                    raise DomainValidationError(
                        f"{self.city}: scaled score out of [0, 10] for {name!r}"
                    )
        # Raw scores descending, and names ascending within each run of equal raw scores.
        tied = list(map(eq, raw, islice(raw, 1, None)))
        if not (
            all(map(ge, raw, islice(raw, 1, None)))
            and all(map(le, compress(names, tied), compress(islice(names, 1, None), tied)))
        ):
            raise DomainValidationError(
                f"{self.city}: entries are not sorted by raw score descending "
                "with canonical-name tie-break"
            )
        del tied
        # A dict, not a set: at 20,000 names a set's table takes 2 MB, a dict 0.4 MB.
        if len(dict.fromkeys(names)) != len(names):
            ((name, _),) = Counter(names).most_common(1)
            raise DomainValidationError(f"{self.city}: duplicate neighborhood {name!r}")
        if raw[0] > 0:
            top = max(scaled)
            if top != 10.0:
                raise DomainValidationError(
                    f"{self.city}: top scaled score must be exactly 10.0, got {top}"
                )
            if not all(map(ge, scaled, islice(scaled, 1, None))):
                raise DomainValidationError(
                    f"{self.city}: scaled ordering disagrees with raw ordering"
                )
        elif any(scaled):
            raise DomainValidationError(
                f"{self.city}: all-zero raw scores require all-zero scaled scores"
            )

    @property
    def entries(self) -> tuple[RankingEntry, ...]:
        return tuple(map(RankingEntry, self.names, self.raw_scores, self.scaled_scores))


class AllocationEntry(NamedTuple):
    name: str
    kits: int


class AllocationPlan(_Columnar):
    """Integer kit assignment mirroring the ranking it was derived from, held as columns.

    ``names`` is the ranking's own tuple of names, shared, and ``kits`` a
    tuple of their kit counts; a tuple given is held, not copied.
    ``allocations`` builds the ``AllocationEntry`` tuples on every access,
    in O(n). ``len()`` is the number of entries.
    """

    __slots__ = _fields = ("city", "total_kits", "names", "kits", "strategy")

    def __init__(
        self, city: str, total_kits: int, names: Iterable[str], kits: Iterable[int],
        strategy: Strategy,
    ) -> None:
        self._init(city, total_kits, tuple(names), tuple(kits), strategy)

    def __post_init__(self) -> None:
        """Raise on a broken invariant, in two C-level passes over the kits."""
        if self.total_kits < 1:
            raise DomainValidationError(f"total_kits must be >= 1, got {self.total_kits}")
        if len(self.kits) != len(self.names):
            raise DomainValidationError(f"{self.city}: every name needs one kit count")
        if min(self.kits, default=0) < 0:
            raise DomainValidationError("kit counts must be non-negative")
        assigned = sum(self.kits)
        if assigned != self.total_kits:
            raise DomainValidationError(
                f"allocations sum to {assigned}, expected {self.total_kits}"
            )

    @property
    def allocations(self) -> tuple[AllocationEntry, ...]:
        return tuple(map(AllocationEntry, self.names, self.kits))

    @property
    def apportionment(self) -> str:
        """How the kits were apportioned, which follows from ``strategy``."""
        return "even_split" if self.strategy is Strategy.TOP_K_EQUAL else "largest_remainder"


class Recommendation(NamedTuple):
    name: str
    kits: int


@validated
class ModelRun(NamedTuple):
    """One recorded allocation recommendation, in recommendation order."""

    model: str
    mode: str
    per_city: Mapping[str, tuple[Recommendation, ...]]

    def __post_init__(self) -> ModelRun:
        frozen = {
            city: tuple(Recommendation(*rec) for rec in recs)
            for city, recs in self.per_city.items()
        }
        for city, recs in frozen.items():
            for rec in recs:
                if rec.kits < 0:
                    raise DomainValidationError(
                        f"{self.model} ({self.mode}), {city}: negative kits for {rec.name!r}"
                    )
        return tuple.__new__(type(self), (self.model, self.mode, MappingProxyType(frozen)))

    @property
    def label(self) -> str:
        return f"{self.model} ({self.mode})"


@validated
class TargetSet(NamedTuple):
    """Per-city sets of empirically highest-risk neighborhoods."""

    per_city: Mapping[str, frozenset[str]]

    def __post_init__(self) -> TargetSet:
        frozen = {city: frozenset(names) for city, names in self.per_city.items()}
        if not frozen:
            raise DomainValidationError("target set lists no cities")
        for city, names in frozen.items():
            if not names:
                raise DomainValidationError(f"target set for {city!r} is empty")
        return tuple.__new__(type(self), (MappingProxyType(frozen),))

    def cities(self) -> tuple[str, ...]:
        return tuple(self.per_city)

    def total_targets(self) -> int:
        return sum(len(names) for names in self.per_city.values())
