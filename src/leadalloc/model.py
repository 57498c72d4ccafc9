"""Shared domain types: datasets, weights, rankings, plans and recorded runs.

Everything here is immutable after construction and checked on
construction; downstream modules can rely on the invariants without
re-checking them. Every checked type is a slotted :class:`Value`: its class
call, the one constructor, normalizes what it is given and sets the slots
through :meth:`Value._init`, which runs the type's ``__post_init__``. The
types with a length of their own, :class:`AliasTable`, :class:`CityDataset`,
:class:`PriorityRanking` and :class:`AllocationPlan`, say so with
``__len__``; the last three hold their neighborhoods as columns, one per
field, not as records. Names, and a plan's kit counts, which are unbounded
ints, are tuples; a dataset's metrics and a ranking's scores are read-only
float64 views of an ``array('d')``, 8 bytes a value, compared by their bytes
(see :class:`_Columnar`). Every value hashes; a mapping field compares as a
set of pairs and prints, and is copied, as a dict in key order (see
:class:`Value`). No type is a named tuple or a dataclass:
building either kind of class at import costs more than the rest of the
CLI's start-up.

Each input rule lives here once, and every reader or type that checks it
words its faults here: the metric bounds in :data:`METRIC_CAPS` and
:func:`value_fault`; the name rules, non-blank and distinct, in
:class:`_Columnar` and :func:`duplicate_name`; the ZIP rule in
:func:`zip_fault`; the alias rule, no canonical name also an alias, in
:func:`chained_aliases`; the counts ``k`` and ``total_kits``, ints of at least
1, in :func:`check_count`; the weight limits, ``alpha`` in (0, 1) and ``r`` in
[-1, 1], in :func:`check_alpha` and :func:`check_correlation`; the weight
derivation, normalized or not, in :func:`derived_weights`, which
:class:`WeightConfig` checks its weights against.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from itertools import compress, islice, repeat
from operator import eq, ge, le, mul, truediv
from pathlib import Path
from types import MappingProxyType

from .errors import DomainValidationError, InvalidNameError, UnknownCityError, located

# Canonical CSV column names for the three core metrics.
COL_NEIGHBORHOOD = "neighborhood"
COL_PREVALENCE = "prevalence_per_1000"
COL_UNTESTED = "untested_pct"
COL_COVERAGE = "public_coverage_pct"
CORE_COLUMNS = (COL_NEIGHBORHOOD, COL_PREVALENCE, COL_UNTESTED, COL_COVERAGE)
# The bounds of the core metrics, in CSV column order: every value is finite and
# at least 0; prevalence has no cap, and a percentage is at most 100.
METRIC_CAPS = MappingProxyType({COL_PREVALENCE: math.inf, COL_UNTESTED: 100.0, COL_COVERAGE: 100.0})
# Defaults of alpha, top_k_equal's group size and the audit's top k (the parser reads them here).
DEFAULT_ALPHA, DEFAULT_TOP_K, DEFAULT_K = 0.5, 3, 3


def value_fault(column: str, value: float, cap: float | None = None) -> str | None:
    """Why ``value`` may not stand in ``column``, or None: every value fault is worded here.

    A core metric's value lies in [0, ``cap``], its cap in :data:`METRIC_CAPS`
    or that cap in a file's own unit. With no cap, ``column`` is an extra
    factor, whose value need only be finite.
    """
    if math.isfinite(value) and (cap is None or 0 <= value <= cap):
        return None
    if cap is None:
        return f"extra factor {column!r} must be finite, got {value}"
    return f"{column} out of range [0, {cap:g}{')' if cap == math.inf else ']'}, got {value}"


def duplicate_name(name: str) -> str:
    """The fault of a name that repeats in one value, worded once for every check of it."""
    return f"duplicate neighborhood {name!r}"


class Value:
    """Base of every immutable domain type.

    A subclass names its fields in ``_fields`` and keeps each in the slot of
    the same name: ``__slots__ == _fields``. Its class call, the one way to
    build it, normalizes what it is given and sets the slots with
    :meth:`_init`, which checks the value with ``__post_init__``; any later
    assignment raises ``AttributeError``. A value is no tuple: it does not
    index, unpack or equal one. Its fields have two views, the same for
    every type: equality and hashing go by :meth:`_key`, and ``repr``,
    ``_replace``, ``copy`` and ``pickle`` by :meth:`_values`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        """The fields as the class call takes them: see :func:`_plain`."""
        return tuple(map(_plain, map(getattr, repeat(self), self._fields)))

    def _key(self) -> tuple:
        """The fields as they compare and hash: see :func:`_hashable`."""
        return tuple(map(_hashable, map(getattr, repeat(self), self._fields)))

    def _init(self, *values) -> None:
        """Set the slots, in ``__slots__`` order, then check the value with ``__post_init__``."""
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Raise on a broken invariant; a type with no rule keeps this one, which has none."""

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

    def __reduce__(self):
        """Rebuild through the class call, so ``copy`` and ``pickle`` check the copy anew."""
        return _rebuilt, (type(self), dict(zip(self._fields, self._values())))


def _rebuilt(cls: type, fields: dict) -> Value:
    """``cls`` built from its fields by keyword, as :meth:`Value.__reduce__` asks."""
    return cls(**fields)


def _plain(value):
    """A field value as a class call takes it: a mapping as a dict in key order, a column a list."""
    if isinstance(value, Mapping):
        return {key: _plain(value[key]) for key in sorted(value)}
    return value.tolist() if isinstance(value, memoryview) else value


def _hashable(value):
    """A field value as it compares and hashes: a mapping as a set of pairs, a column as bytes.

    A mapping's order does not count. A column's bytes hash, and its NaNs are equal.
    """
    if isinstance(value, Mapping):
        return frozenset(zip(value.keys(), map(_hashable, value.values())))
    return value.tobytes() if isinstance(value, memoryview) else value


class _Columnar(Value):
    """A value that holds one entry per neighborhood as columns; ``len()`` counts them.

    ``names``, a tuple of the canonical names in the value's order, is one
    of its fields. The name rules live here and bind every columnar type:
    :meth:`_init` refuses a blank name before the subclass's own checks
    and a repeated name after them, so a ranking reports a bad score, then
    its order, then a repeat. A failing neighborhood's index is the error's
    ``at``.

    Each float column is a read-only view of an ``array('d')`` made by
    :meth:`_column`, so a value costs 8 bytes, not a float object; a field
    may also be a mapping of such columns. :class:`Value` compares and hashes
    each column by its bytes, so -0.0 differs from 0.0, and prints and copies
    it as a list.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        names = values[self.__slots__.index("names")]
        if not all(map(str.strip, names)):
            index = next(i for i, name in enumerate(names) if not name.strip())
            raise InvalidNameError("neighborhood name must be non-empty", at=(index,))
        super()._init(*values)
        self._check_distinct()

    @staticmethod
    def _column(values: Iterable[float]) -> memoryview:
        """A read-only float64 column copied from ``values``, with one NaN for every NaN given.

        Equality compares bytes, so every NaN is made the same NaN.
        """
        from array import array  # deferred: only building columns needs it

        column = array("d", values)
        for row in compress(range(len(column)), map(math.isnan, column)):
            column[row] = math.nan
        return memoryview(column).toreadonly()

    def __len__(self) -> int:
        return len(self.names)

    def _reject(self, row: int, problem: str) -> None:
        raise DomainValidationError(f"{self.city}: {self.names[row]}: {problem}", at=(row,))

    def _check_distinct(self) -> None:
        """Raise on a repeated name, naming the first repeat, as ingest does."""
        names = self.names
        # A dict, not a set: at 20,000 names a set's table takes 2 MB, a dict 0.4 MB.
        if len(dict.fromkeys(names)) != len(names):
            seen: set[str] = set()
            for index, name in enumerate(names):
                if name in seen:
                    raise DomainValidationError(f"{self.city}: {duplicate_name(name)}", at=(index,))
                seen.add(name)


def zip_fault(name: str) -> str | None:
    """Why a canonical name is no 5-digit ZIP code, or None: the ZIP rule is worded here."""
    return None if len(name) == 5 and name.isdecimal() else f"{name!r} is not a 5-digit ZIP code"


def chained_aliases(names: Iterable[str]) -> str:
    """The fault of canonical names that are also aliases, worded once for every check of it."""
    return f"canonical names also appear as aliases (chained mapping): {sorted(names)}"


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
        if chained := table.keys() & set(table.values()):
            raise DomainValidationError(chained_aliases(chained))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[str]]) -> "AliasTable":
        alias_to_canonical: dict[str, str] = {}
        canonicals: dict[str, str] = {}  # each canonical name's first key
        for canonical_raw, alias_list in mapping.items():
            canonical = located((canonical_raw,), canonicalize_name, canonical_raw)
            canonicals.setdefault(canonical, canonical_raw)
            for position, alias_raw in enumerate(alias_list):
                alias = located((canonical_raw, position), canonicalize_name, alias_raw)
                if alias == canonical:
                    continue
                existing = alias_to_canonical.get(alias)
                if existing is not None and existing != canonical:
                    raise DomainValidationError(
                        f"alias {alias!r} maps to both {existing!r} and {canonical!r}",
                        at=(canonical_raw, position),
                    )
                alias_to_canonical[alias] = canonical
        if chained := [name for name in canonicals if name in alias_to_canonical]:
            raise DomainValidationError(chained_aliases(chained), at=(canonicals[chained[0]],))
        return cls(alias_to_canonical)

    @classmethod
    def from_file(cls, path: str | Path) -> "AliasTable":
        from .ingest import parse_aliases  # deferred: ingest imports this module

        return parse_aliases(path)

    def resolve(self, normalized_name: str) -> str:
        return self.alias_to_canonical.get(normalized_name, normalized_name)

    def __len__(self) -> int:
        return len(self.alias_to_canonical)


def _refuse_unknown(cls: type[Enum], value):
    """The ``_missing_`` of each enum here: an unknown value is a fault named in words.

    ``UnitKind("postcode")`` raises ``unknown unit kind 'postcode'``. A shared
    function, not a memberless base enum: one more enum class costs every
    call's start-up about 60 us.
    """
    kind = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
    raise DomainValidationError(f"unknown {kind} {value!r}")


class UnitKind(Enum):
    NAMED_AREA = "named_area"
    ZIP_CODE = "zip_code"
    _missing_ = classmethod(_refuse_unknown)


class WeightVariant(Enum):
    """Which of the two supported weight-derivation rules is in force."""

    TEXT = "text"
    ALGORITHM = "algorithm"
    _missing_ = classmethod(_refuse_unknown)


class Strategy(Enum):
    PROPORTIONAL = "proportional"
    TOP_K_EQUAL = "top_k_equal"
    RANK_WEIGHTED = "rank_weighted"
    _missing_ = classmethod(_refuse_unknown)


class CityProfile(Value):
    """How one city's datasets are read: its unit kind and blood-lead threshold in ug/dL."""

    __slots__ = _fields = ("city", "unit_kind", "bll_threshold_ug_dl")

    def __init__(self, city: str, unit_kind: UnitKind | str, bll_threshold_ug_dl: float) -> None:
        self._init(city, UnitKind(unit_kind), bll_threshold_ug_dl)

    def __post_init__(self) -> None:
        threshold = self.bll_threshold_ug_dl
        if not (math.isfinite(threshold) and threshold > 0):
            raise DomainValidationError(
                f"{self.city}: blood-lead threshold must be finite and positive, got {threshold}"
            )


_CITY_REGISTRY: dict[str, CityProfile] = {
    "chicago": CityProfile("chicago", UnitKind.NAMED_AREA, 5.0),
    "nyc": CityProfile("nyc", UnitKind.NAMED_AREA, 5.0),
    "dc": CityProfile("dc", UnitKind.ZIP_CODE, 3.5),
    # Ships with the synthetic demo dataset; not a real jurisdiction.
    "demo": CityProfile("demo", UnitKind.NAMED_AREA, 5.0),
}


def city_profile(city: str) -> CityProfile:
    key = city.strip().lower()
    try:
        return _CITY_REGISTRY[key]
    except KeyError:
        raise UnknownCityError(
            f"unknown city {city!r}; known cities: {', '.join(_CITY_REGISTRY)}"
        ) from None


def register_city(
    city: str, unit_kind: UnitKind | str, bll_threshold_ug_dl: float, *, replace: bool = False
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


class CityDataset(_Columnar):
    """Validated neighborhoods of one city, held as columns.

    ``names`` is a tuple of the canonical names in dataset order.
    ``prevalence``, ``untested_pct`` and ``public_coverage_pct`` hold the
    core metrics, and ``extra_columns`` maps each extra factor to its values,
    NaN where a neighborhood lacks the factor. Each column is a read-only
    view of an ``array('d')`` with one value per name, so a value costs 8
    bytes, not a float object. The columns hold floats, so integral values
    given come back as floats.

    The class call checks the city, unit kind and threshold by building
    their :class:`CityProfile`, then copies the columns given and checks
    them once (see :meth:`__post_init__`). Equality and hashing compare
    each column's bytes, so every blank cell holds the same NaN, and -0.0
    differs from 0.0. ``records`` builds rows afresh on every access, in
    O(n): it is not for hot paths.
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
        unit_kind: UnitKind | str,
    ) -> None:
        profile = CityProfile(city, unit_kind, bll_threshold_ug_dl)
        extras = {factor: self._column(values) for factor, values in extra_columns.items()}
        self._init(
            city,
            tuple(names),
            self._column(prevalence),
            self._column(untested_pct),
            self._column(public_coverage_pct),
            # A factor no neighborhood has is no column, as it is no record's factor.
            MappingProxyType(
                {
                    factor: values
                    for factor, values in extras.items()
                    if not all(map(math.isnan, values))
                }
            ),
            profile.bll_threshold_ug_dl,
            profile.unit_kind,
        )

    def __post_init__(self) -> None:
        """Raise on a broken invariant; the common, valid case takes C-level passes only."""
        names = self.names
        if not names:
            raise DomainValidationError(f"{self.city}: dataset has no records")
        columns = (self.prevalence, self.untested_pct, self.public_coverage_pct)
        if any(len(values) != len(names) for values in (*columns, *self.extra_columns.values())):
            raise DomainValidationError(f"{self.city}: every column needs one value per name")
        zip_faults = map(zip_fault, names) if self.unit_kind is UnitKind.ZIP_CODE else ()
        if fault := next(filter(None, zip_faults), None):
            raise DomainValidationError(f"{self.city}: {fault}")
        for (label, cap), values in zip(METRIC_CAPS.items(), columns):
            if not all(map(math.isfinite, values)) or min(values) < 0 or max(values) > cap:
                faults = map(value_fault, repeat(label), values, repeat(cap))
                self._reject(*next((row, f) for row, f in enumerate(faults) if f))
        for factor, values in self.extra_columns.items():
            # NaN is a blank cell, so only an infinity breaks the rule.
            if any(map(math.isinf, values)):
                row = next(i for i, value in enumerate(values) if math.isinf(value))
                self._reject(row, value_fault(factor, values[row]))

    @property
    def records(self) -> tuple[tuple, ...]:
        """Rows ``(name, prevalence, untested_pct, public_coverage_pct, {factor: value})``.

        A blank extra cell is left out of its row's mapping. The rows are
        zipped from the columns, unchecked, on each access.
        """
        factors = tuple(self.extra_columns)
        return tuple(
            (
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


def check_count(name: str, value: int) -> None:
    """Reject a count, ``k`` or ``total_kits``, that is no int or is below 1; a bool is no int."""
    if type(value) is not int or value < 1:
        raise DomainValidationError(f"{name} must be an int >= 1, got {value!r}")


def check_alpha(alpha: float) -> None:
    """Reject a prevalence weight that is not an int or float in (0, 1), before any use of it."""
    if not (isinstance(alpha, (int, float)) and 0 < alpha < 1):
        raise DomainValidationError(f"alpha must be in (0, 1), got {alpha}")


def check_correlation(r: float) -> None:
    """Reject a source correlation that is not an int or float in [-1, 1]; a bool is neither."""
    if isinstance(r, bool) or not (isinstance(r, (int, float)) and -1 <= r <= 1):
        raise DomainValidationError(f"source correlation must lie in [-1, 1], got {r}")


def derived_weights(
    r: float, alpha: float, variant: WeightVariant, normalize: bool = False
) -> tuple[float, float, float]:
    """(alpha, beta, gamma) under ``variant``'s rule, with ``r`` clamped to [0, 1].

    ``text``: gamma = r * (1 - alpha); ``algorithm``: gamma = r; in both,
    beta = (1 - alpha) * (1 - gamma). ``normalize`` divides all three by
    their sum, which neither rule makes 1.
    """
    r_clamped = min(max(r, 0.0), 1.0)
    gamma = r_clamped * (1 - alpha) if variant is WeightVariant.TEXT else r_clamped
    beta = (1 - alpha) * (1 - gamma)
    if not normalize:
        return alpha, beta, gamma
    total = alpha + beta + gamma
    return alpha / total, beta / total, gamma / total


class WeightConfig(Value):
    """Priority-score weights, each what :func:`derived_weights` gives to 1e-9 relative."""

    __slots__ = _fields = ("alpha", "beta", "gamma", "variant", "source_correlation", "normalized")

    def __init__(
        self, alpha: float, beta: float, gamma: float, variant: WeightVariant,
        source_correlation: float, normalized: bool = False,
    ) -> None:
        self._init(alpha, beta, gamma, variant, source_correlation, normalized)

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        check_correlation(self.source_correlation)
        alpha, r = self.alpha, min(max(self.source_correlation, 0.0), 1.0)
        if self.normalized:  # recover the alpha that was divided by alpha + beta + gamma
            q = 1 - alpha * r
            text = self.variant is WeightVariant.TEXT
            alpha /= (q + math.sqrt(q * q + 4 * alpha * alpha * r)) / 2 if text else q
            alpha = min(alpha, 1.0)  # past 1: by rounding it passes as 1, by more it fails
        derived = derived_weights(r, alpha, self.variant, self.normalized)
        pairs = zip((self.alpha, self.beta, self.gamma), derived)
        if not all(math.isclose(*pair, rel_tol=1e-9, abs_tol=1e-12) for pair in pairs):
            raise DomainValidationError(
                f"weights (alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}, normalized="
                f"{self.normalized}) do not follow the {self.variant.value} derivation rule for "
                f"r={self.source_correlation}"
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


class PriorityRanking(_Columnar):
    """Descending-ordered priority list for one city, held as columns.

    ``names`` is a tuple in ranking order; a tuple given is held, not
    copied. ``raw_scores`` is a read-only float64 view of an ``array('d')``
    copied from the scores given, as a :class:`CityDataset` holds its
    columns: compare it with ``list(...)``, and equality and hashing compare
    its bytes. :meth:`__post_init__` checks the ranking once, over the
    columns. ``scaled_scores``, a column of the same kind, and ``entries``
    are derived from them on every access, in O(n): they are not for hot
    paths. ``len()`` is the number of entries.
    """

    __slots__ = _fields = ("city", "weights", "names", "raw_scores")

    def __init__(
        self, city: str, weights: WeightConfig, names: Iterable[str], raw_scores: Iterable[float]
    ) -> None:
        self._init(city, weights, tuple(names), self._column(raw_scores))

    def __post_init__(self) -> None:
        """Raise on a broken invariant, as checking entry by entry would; ``at`` names the entry."""
        names, raw = self.names, self.raw_scores
        if not names:
            raise DomainValidationError(f"{self.city}: ranking has no entries")
        if len(raw) != len(names):
            raise DomainValidationError(f"{self.city}: every column needs one score per name")
        if not all(map(math.isfinite, raw)) or min(raw) < 0:
            index = next(i for i, score in enumerate(raw) if not math.isfinite(score) or score < 0)
            raise DomainValidationError(
                f"{self.city}: non-finite or negative raw score for {names[index]!r}", at=(index,)
            )
        # Raw scores descending, and names ascending within each run of equal raw scores.
        tied = list(map(eq, raw, islice(raw, 1, None)))
        if not (
            all(map(ge, raw, islice(raw, 1, None)))
            and all(map(le, compress(names, tied), compress(islice(names, 1, None), tied)))
        ):
            index = next(
                i for i in range(1, len(raw))
                if raw[i] > raw[i - 1] or (raw[i] == raw[i - 1] and names[i] < names[i - 1])
            )
            raise DomainValidationError(
                f"{self.city}: entries are not sorted by raw score descending "
                "with canonical-name tie-break",
                at=(index,),
            )

    @property
    def scaled_scores(self) -> memoryview:
        """The 0-10 display scores, ``10.0 * (raw / top raw)``: the top reads exactly 10.0.

        If the top raw score is 0, every scaled score is 0.0.
        """
        raw = self.raw_scores
        top = raw[0]
        if not top:
            return self._column(repeat(0.0, len(raw)))
        return self._column(map(mul, repeat(10.0), map(truediv, raw, repeat(top))))

    @property
    def entries(self) -> tuple[tuple[str, float, float], ...]:
        """Rows ``(name, raw_score, scaled_score)``, zipped from the columns."""
        return tuple(zip(self.names, self.raw_scores, self.scaled_scores))


class AllocationPlan(_Columnar):
    """Integer kit assignment mirroring the ranking it was derived from, held as columns.

    ``names`` is the ranking's own tuple of names, shared, and ``kits`` a
    tuple of their kit counts; a tuple given is held, not copied.
    ``allocations`` zips them into ``(name, kits)`` rows on every access,
    in O(n). ``len()`` is the number of entries.
    """

    __slots__ = _fields = ("city", "total_kits", "names", "kits", "strategy")

    def __init__(
        self, city: str, total_kits: int, names: Iterable[str], kits: Iterable[int],
        strategy: Strategy,
    ) -> None:
        self._init(city, total_kits, tuple(names), tuple(kits), strategy)

    def __post_init__(self) -> None:
        """Raise on a broken invariant, in three C-level passes over the kits."""
        check_count("total_kits", self.total_kits)
        kits = self.kits
        if len(kits) != len(self.names):
            raise DomainValidationError(f"{self.city}: every name needs one kit count")
        if not set(map(type, kits)) <= {int} or min(kits, default=0) < 0:
            index = next(i for i, kit in enumerate(kits) if type(kit) is not int or kit < 0)
            self._reject(index, f"kit counts must be non-negative ints, got {kits[index]!r}")
        assigned = sum(kits)
        if assigned != self.total_kits:
            raise DomainValidationError(
                f"allocations sum to {assigned}, expected {self.total_kits}"
            )

    @property
    def allocations(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.names, self.kits))

    @property
    def apportionment(self) -> str:
        """How the kits were apportioned, which follows from ``strategy``."""
        return "even_split" if self.strategy is Strategy.TOP_K_EQUAL else "largest_remainder"


class Recommendation(Value):
    """One neighborhood's kits in a recorded run, never negative."""

    __slots__ = _fields = ("name", "kits")

    def __init__(self, name: str, kits: int) -> None:
        self._init(name, kits)

    def __post_init__(self) -> None:
        if self.kits < 0:
            message = f"negative kits for {self.name!r}: {self.kits}"
            raise DomainValidationError(message, at=("kits",))


class ModelRun(Value):
    """One recorded allocation recommendation by a named model and mode, in order."""

    __slots__ = _fields = ("model", "mode", "per_city")

    def __init__(
        self, model: str, mode: str, per_city: Mapping[str, Iterable[Recommendation]]
    ) -> None:
        frozen = {city: tuple(recommendations) for city, recommendations in per_city.items()}
        self._init(model, mode, MappingProxyType(frozen))

    def __post_init__(self) -> None:
        for field in ("model", "mode"):
            if not getattr(self, field).strip():
                raise DomainValidationError(f"{field} must not be blank", at=(field,))
        for city, recommendations in self.per_city.items():
            for position, item in enumerate(recommendations):
                if not isinstance(item, Recommendation):
                    raise DomainValidationError(
                        f"{city}: item {position} is not a Recommendation: {item!r}",
                        at=(city, position),
                    )


class TargetSet(Value):
    """Per-city non-empty sets of empirically highest-risk neighborhoods."""

    __slots__ = _fields = ("per_city",)

    def __init__(self, per_city: Mapping[str, Iterable[str]]) -> None:
        self._init(MappingProxyType({city: frozenset(names) for city, names in per_city.items()}))

    def __post_init__(self) -> None:
        if not self.per_city:
            raise DomainValidationError("target set lists no cities")
        for city, names in self.per_city.items():
            if not names:
                raise DomainValidationError(f"target set for {city!r} is empty", at=(city,))

    def total_targets(self) -> int:
        return sum(len(names) for names in self.per_city.values())
