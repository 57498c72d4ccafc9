"""Domain types: name canonicalization, alias tables, container invariants."""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    check_ranking_entry_by_entry,
    dataset,
    dataset_of_records,
    metric,
    plan_of_allocations,
    ranking_of_entries,
    record,
)
from leadalloc import resources
from leadalloc.errors import (
    DatasetValidationError,
    DomainValidationError,
    InvalidNameError,
    UnknownCityError,
)
from leadalloc.evaluation import AccuracyReport, RunAccuracy
from leadalloc.ingest import ValidationIssue, ValidationReport
from leadalloc.model import (
    AliasTable,
    AllocationEntry,
    AllocationPlan,
    CityDataset,
    CityProfile,
    ModelRun,
    NeighborhoodRecord,
    PriorityRanking,
    RankingEntry,
    Recommendation,
    Strategy,
    TargetSet,
    UnitKind,
    Value,
    WeightConfig,
    WeightVariant,
    canonicalize_name,
    city_profile,
    known_cities,
    register_city,
)
from leadalloc.scoring import derive_weights


def _fold_each_character(raw, aliases=None):
    """The name fold one character at a time: the reference for the regular expression."""
    folded = "".join(ch if ch.isalnum() else " " for ch in raw.lower())
    name = " ".join(folded.split())
    if not name:
        raise InvalidNameError(raw)
    return name if aliases is None else aliases.resolve(name)


class TestCanonicalizeName:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("Englewood", "englewood"),
            ("  Englewood ", "englewood"),
            ("Bedford-Stuyvesant", "bedford stuyvesant"),
            ("Hunts Point – Mott Haven", "hunts point mott haven"),  # en dash
            ("Hunts Point—Mott Haven", "hunts point mott haven"),  # em dash
            ("Williamsburg - Bushwick", "williamsburg bushwick"),
            ("GREATER   GRAND  CROSSING", "greater grand crossing"),
            ("O'Hare", "o hare"),
            ("20011", "20011"),
            ("St. Louis Park", "st louis park"),
            ("Ｗｅｓｔ－Ｅｎｄ", "ｗｅｓｔ ｅｎｄ"),  # full-width letters and hyphen
            ("Stra\u00dfe", "stra\u00dfe"),  # sharp s stays as it is
            ("\u0130stanbul", "i stanbul"),  # lowercases to i and a combining dot above
            ("Cafe\u0301 Bar", "cafe bar"),  # a combining acute accent is not alphanumeric
            ("Caf\u00e9 Bar", "caf\u00e9 bar"),  # the precomposed letter is
        ],
    )
    def test_folds_case_punctuation_whitespace(self, raw, expected):
        assert canonicalize_name(raw) == expected

    @given(
        st.one_of(st.text(), st.text(alphabet="Bb Cc-.\u2013\u00df\u0130\u0301\uff21")),
        st.booleans(),
    )
    def test_matches_the_per_character_fold(self, raw, with_aliases):
        aliases = AliasTable.from_mapping({"b": ["c", "b c"]}) if with_aliases else None
        try:
            expected = _fold_each_character(raw, aliases)
        except InvalidNameError:
            with pytest.raises(InvalidNameError):
                canonicalize_name(raw, aliases)
        else:
            assert canonicalize_name(raw, aliases) == expected

    def test_empty_after_normalization_rejected(self):
        with pytest.raises(InvalidNameError):
            canonicalize_name(" --- ")

    def test_alias_resolution_applies_after_normalization(self):
        table = AliasTable.from_mapping({"bedford stuyvesant": ["bed-stuy", "Bed Stuy"]})
        assert canonicalize_name("Bed-Stuy", table) == "bedford stuyvesant"
        assert canonicalize_name("BED  STUY", table) == "bedford stuyvesant"
        assert canonicalize_name("Bedford-Stuyvesant", table) == "bedford stuyvesant"

    @given(st.text(min_size=1, max_size=60))
    def test_idempotent(self, raw):
        try:
            once = canonicalize_name(raw)
        except InvalidNameError:
            return
        assert canonicalize_name(once) == once


class TestAliasTable:
    def test_conflicting_alias_rejected(self):
        with pytest.raises(DomainValidationError, match="maps to both"):
            AliasTable.from_mapping({"a town": ["old name"], "b town": ["old name"]})

    def test_chained_alias_rejected(self):
        with pytest.raises(DomainValidationError, match="chained"):
            AliasTable.from_mapping({"a town": ["b town"], "b town": ["c town"]})

    def test_self_alias_is_dropped(self):
        table = AliasTable.from_mapping({"a town": ["Old A-Town", "A-Town", "a town"]})
        assert len(table) == 1
        assert table.resolve("old a town") == "a town"
        assert table.resolve("a town") == "a town"

    def test_the_constructor_accepts_only_what_from_mapping_can_make(self):
        with pytest.raises(DomainValidationError):
            AliasTable({"a": "b", "b": "c", "Old-Town": "x"})
        with pytest.raises(DomainValidationError, match=r"chained mapping\): \['b'\]"):
            AliasTable({"a": "b", "b": "c"})
        with pytest.raises(DomainValidationError, match="'Old-Town' is not canonical"):
            AliasTable({"Old-Town": "x"})
        with pytest.raises(DomainValidationError, match="'New-Town' is not canonical"):
            AliasTable({"old town": "New-Town"})
        assert len(AliasTable()) == 0
        bundled = AliasTable.from_file(resources.aliases_path())
        assert len(bundled) > 0 and AliasTable(bundled.alias_to_canonical) == bundled

    def test_from_file_rejects_non_object(self, write_file):
        path = write_file('["not", "a", "mapping"]', "aliases.json")
        with pytest.raises(DomainValidationError, match="JSON object"):
            AliasTable.from_file(path)

    def test_from_file_rejects_malformed_json(self, write_file):
        path = write_file("{nope", "aliases.json")
        with pytest.raises(DatasetValidationError, match="malformed JSON"):
            AliasTable.from_file(path)


class TestCityRegistry:
    def test_known_cities_include_the_three_supported_plus_demo(self):
        assert set(known_cities()) >= {"chicago", "nyc", "dc", "demo"}

    def test_profiles(self):
        assert city_profile("chicago").bll_threshold_ug_dl == 5.0
        assert city_profile("DC").unit_kind is UnitKind.ZIP_CODE
        assert city_profile("dc").bll_threshold_ug_dl == 3.5

    def test_unknown_city(self):
        with pytest.raises(UnknownCityError, match="unknown city"):
            city_profile("atlantis")

    def test_register_city(self):
        profile = register_city("rivertown", UnitKind.NAMED_AREA, 5.0)
        assert city_profile("rivertown") == profile
        with pytest.raises(DomainValidationError, match="already registered"):
            register_city("chicago", UnitKind.NAMED_AREA, 5.0)
        register_city("rivertown", UnitKind.ZIP_CODE, 3.5, replace=True)
        assert city_profile("rivertown").unit_kind is UnitKind.ZIP_CODE


class TestNeighborhoodRecord:
    def test_valid_record_with_extras(self):
        rec = record("englewood", 12.4, 48.0, 41.0, avg_turbidity=1.9)
        assert metric(rec, "prevalence_per_1000") == 12.4
        assert metric(rec, "untested_pct") == 48.0
        assert metric(rec, "public_coverage_pct") == 41.0
        assert metric(rec, "avg_turbidity") == 1.9
        assert metric(rec, "absent_column") is None

    def test_extras_may_be_negative(self):
        rec = record("austin", 1.0, 2.0, 3.0, income_delta=-4.5)
        assert metric(rec, "income_delta") == -4.5

    def test_extras_are_immutable(self):
        rec = record("austin", 1.0, 2.0, 3.0, f=1.0)
        with pytest.raises(TypeError):
            rec.extra_factors["f"] = 2.0

    def test_extras_are_a_mapping_equal_to_the_dict_given(self):
        given_factors = {"f": 1.0, "g": -2.5}
        extras = record("austin", 1.0, 2.0, 3.0, **given_factors).extra_factors
        assert isinstance(extras, Mapping)
        assert extras == given_factors and given_factors == extras
        assert extras == MappingProxyType(given_factors)
        assert not extras != given_factors
        assert extras != {"f": 1.0} and extras != {"f": 1.0, "g": 2.5}
        assert (len(extras), list(extras), list(extras.values())) == (2, ["f", "g"], [1.0, -2.5])
        assert ("g" in extras, "h" in extras, extras.get("h")) == (True, False, None)
        with pytest.raises(KeyError):
            extras["h"]
        with pytest.raises(TypeError):
            hash(extras)
        with pytest.raises(TypeError):
            extras < extras

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_prevalence_must_be_non_negative_real(self, bad):
        with pytest.raises(DomainValidationError, match="prevalence"):
            record("austin", bad, 2.0, 3.0)

    @pytest.mark.parametrize("bad", [-1.0, 120.0, float("nan")])
    def test_percentages_bounded(self, bad):
        with pytest.raises(DomainValidationError, match="out of range"):
            record("austin", 1.0, bad, 3.0)
        with pytest.raises(DomainValidationError, match="out of range"):
            record("austin", 1.0, 2.0, bad)

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidNameError):
            record("  ", 1.0, 2.0, 3.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_extras_must_be_finite(self, bad):
        with pytest.raises(DomainValidationError, match="austin: extra factor 'g' must be finite"):
            record("austin", 1.0, 2.0, 3.0, f=1.0, g=bad)

    @pytest.mark.parametrize("build", ["keyword", "positional", "_make", "_replace"])
    @pytest.mark.parametrize(
        ("fields", "error", "message"),
        [
            (("  ", 1.0, 2.0, 3.0, {}), InvalidNameError, "neighborhood name must be non-empty"),
            (
                ("austin", -0.1, 2.0, 3.0, {}),
                DomainValidationError,
                "austin: prevalence must be a non-negative real, got -0.1",
            ),
            (
                ("austin", 1.0, 120.0, 3.0, {}),
                DomainValidationError,
                "austin: untested_pct out of range [0,100], got 120.0",
            ),
            (
                ("austin", 1.0, 2.0, math.nan, {}),
                DomainValidationError,
                "austin: public_coverage_pct out of range [0,100], got nan",
            ),
            (
                ("austin", 1.0, 2.0, 3.0, {"f": 1.0, "g": math.inf}),
                DomainValidationError,
                "austin: extra factor 'g' must be finite, got inf",
            ),
            (
                ("austin", -0.1, 120.0, 3.0, {}),
                DomainValidationError,
                "austin: prevalence must be a non-negative real, got -0.1",
            ),
        ],
        ids=["empty-name", "prevalence", "untested", "nan-coverage", "extra", "first-check-wins"],
    )
    def test_every_construction_reports_the_same_message(self, build, fields, error, message):
        by_name = dict(zip(NeighborhoodRecord._fields, fields))
        construct = {
            "keyword": lambda: NeighborhoodRecord(**by_name),
            "positional": lambda: NeighborhoodRecord(*fields),
            "_make": lambda: NeighborhoodRecord._make(fields),
            "_replace": lambda: NeighborhoodRecord("valid", 1.0, 2.0, 3.0)._replace(**by_name),
        }[build]
        with pytest.raises(error) as raised:
            construct()
        assert type(raised.value) is error
        assert str(raised.value) == message


class TestCityDataset:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainValidationError, match="duplicate"):
            dataset([("austin", 1, 2, 3), ("austin", 4, 5, 6)])

    def test_empty_rejected(self):
        with pytest.raises(DomainValidationError, match="no records"):
            dataset([])

    def test_zip_city_requires_zip_names(self):
        with pytest.raises(DomainValidationError, match="ZIP"):
            dataset_of_records(
                city="dc",
                records=(record("georgetown", 1, 2, 3),),
                bll_threshold_ug_dl=3.5,
                unit_kind=UnitKind.ZIP_CODE,
            )
        ok = dataset_of_records(
            city="dc",
            records=(record("20011", 1, 2, 3),),
            bll_threshold_ug_dl=3.5,
            unit_kind=UnitKind.ZIP_CODE,
        )
        assert ok.names == ("20011",)

    def test_factor_names_are_core_plus_sorted_extras(self):
        ds = dataset(
            [
                ("a", 1, 2, 3, {"zeta": 1.0, "alpha": 2.0}),
                ("b", 4, 5, 6, {"alpha": 3.0}),
            ]
        )
        assert ds.factor_names() == (
            "untested_pct",
            "public_coverage_pct",
            "alpha",
            "zeta",
        )


class TestWeightConfig:
    def test_consistent_text_weights_accepted(self):
        config = WeightConfig(0.5, 0.35, 0.30, WeightVariant.TEXT, 0.6)
        assert config.as_dict()["variant"] == "text"

    def test_inconsistent_weights_rejected(self):
        with pytest.raises(DomainValidationError, match="derivation rule"):
            WeightConfig(0.5, 0.25, 0.25, WeightVariant.TEXT, 0.6)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_open_interval(self, alpha):
        with pytest.raises(DomainValidationError, match="alpha"):
            WeightConfig(alpha, 0.35, 0.30, WeightVariant.TEXT, 0.6)

    def test_normalized_weights_must_sum_to_one(self):
        with pytest.raises(DomainValidationError, match="sum to 1"):
            WeightConfig(0.5, 0.4, 0.3, WeightVariant.TEXT, 0.6, normalized=True)
        config = derive_weights(0.6, normalize=True)
        assert config.normalized
        assert config.alpha + config.beta + config.gamma == pytest.approx(1.0, abs=1e-12)


class TestPriorityRanking:
    def test_entries_must_be_sorted_desc_with_name_tiebreak(self):
        weights = derive_weights(0.6)
        with pytest.raises(DomainValidationError, match="not sorted"):
            ranking_of_entries(
                city="demo",
                weights=weights,
                entries=(RankingEntry("a", 1.0, 5.0), RankingEntry("b", 2.0, 10.0)),
            )
        with pytest.raises(DomainValidationError, match="not sorted"):
            ranking_of_entries(
                city="demo",
                weights=weights,
                entries=(RankingEntry("z", 2.0, 10.0), RankingEntry("a", 2.0, 10.0)),
            )

    def test_top_scaled_score_must_be_exactly_ten(self):
        weights = derive_weights(0.6)
        with pytest.raises(DomainValidationError, match="exactly 10.0"):
            ranking_of_entries(
                city="demo",
                weights=weights,
                entries=(RankingEntry("a", 2.0, 9.99), RankingEntry("b", 1.0, 5.0)),
            )

    def test_all_zero_scores_allowed_when_scaled_all_zero(self):
        weights = derive_weights(0.6)
        ranking = ranking_of_entries(
            city="demo",
            weights=weights,
            entries=(RankingEntry("a", 0.0, 0.0), RankingEntry("b", 0.0, 0.0)),
        )
        assert ranking.names == ("a", "b")
        with pytest.raises(DomainValidationError, match="all-zero"):
            ranking_of_entries(
                city="demo",
                weights=weights,
                entries=(RankingEntry("a", 0.0, 3.0), RankingEntry("b", 0.0, 0.0)),
            )

    def test_negative_raw_score_rejected(self):
        with pytest.raises(DomainValidationError, match="negative raw score"):
            ranking_of_entries(
                city="demo",
                weights=derive_weights(0.6),
                entries=(RankingEntry("a", -1.0, 10.0),),
            )


class TestAllocationPlan:
    def test_kits_must_sum_to_total(self):
        with pytest.raises(DomainValidationError, match="sum to"):
            plan_of_allocations(
                city="demo",
                total_kits=10,
                allocations=(AllocationEntry("a", 4), AllocationEntry("b", 4)),
                strategy=Strategy.PROPORTIONAL,
            )

    def test_negative_kits_rejected(self):
        with pytest.raises(DomainValidationError, match="non-negative"):
            plan_of_allocations(
                city="demo",
                total_kits=1,
                allocations=(AllocationEntry("a", 2), AllocationEntry("b", -1)),
                strategy=Strategy.PROPORTIONAL,
            )


class TestModelRunAndTargets:
    def test_label(self):
        run = ModelRun(
            model="ChatGPT 5",
            mode="Agent mode",
            per_city={"chicago": (Recommendation("austin", 300),)},
        )
        assert run.label == "ChatGPT 5 (Agent mode)"

    def test_negative_recommendation_kits_rejected(self):
        with pytest.raises(DomainValidationError, match="negative kits"):
            ModelRun(
                model="m",
                mode="d",
                per_city={"chicago": (Recommendation("austin", -1),)},
            )

    def test_target_set_counts(self):
        targets = TargetSet(
            per_city={"chicago": frozenset({"a", "b", "c"}), "dc": frozenset({"20011"})}
        )
        assert set(targets.cities()) == {"chicago", "dc"}
        assert targets.total_targets() == 4

    def test_empty_target_city_rejected(self):
        with pytest.raises(DomainValidationError, match="empty"):
            TargetSet(per_city={"chicago": frozenset()})


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["", "a", "ab", "b", "B"]),
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, 3.0]) | st.floats(0, 4),
        ),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
)
def test_ranking_order_check_accepts_exactly_what_a_sort_leaves_unchanged(pairs, presort):
    """The one-pass order check agrees with comparing the entries to their sorted copy.

    A sorted ranking that repeats a name is rejected for the repeat.
    """
    if presort:
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    # Equal scaled scores keep the scaled-score checks out of the way.
    top = 10.0 if max(raw for _, raw in pairs) > 0 else 0.0
    entries = [RankingEntry(name, raw, top) for name, raw in pairs]
    unchanged_by_sort = entries == sorted(entries, key=lambda e: (-e.raw_score, e.name))
    names_repeat = len({name for name, _ in pairs}) < len(pairs)
    try:
        ranking_of_entries(city="demo", weights=derive_weights(0.6), entries=entries)
    except DomainValidationError as exc:
        if "duplicate neighborhood" in str(exc):
            assert unchanged_by_sort and names_repeat
        else:
            assert "not sorted" in str(exc)
            assert not unchanged_by_sort
    else:
        assert unchanged_by_sort and not names_repeat


_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.nan, math.inf, -1.0]) | st.floats(0, 4)


@given(
    st.lists(st.tuples(st.sampled_from(["", "a", "ab", "b", "B"]), _SCORES), max_size=8),
    st.booleans(),
    st.one_of(
        st.none(),
        st.lists(st.sampled_from([0.0, -0.0, 5.0, 9.99, 10.0, 10.5, math.nan]) | st.floats(0, 10)),
    ),
)
def test_columnar_check_agrees_with_the_entry_by_entry_check(pairs, presort, scaled):
    """Both checks accept the same rankings and reject the others with the same message.

    The cases cover ties, -0.0, NaN, repeated names, unsorted entries and
    top scaled scores other than 10.0; without ``scaled`` given, scaled
    scores follow the raw scores as ``score_city`` makes them.
    """
    if presort:
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    if scaled is None:
        top = max((raw for _, raw in pairs), default=0.0)
        scaled = [10.0 * (raw / top) if top > 0 else 0.0 for _, raw in pairs]
    entries = [(name, raw, scaled_score) for (name, raw), scaled_score in zip(pairs, scaled)]

    def outcome(check):
        try:
            check()
        except DomainValidationError as exc:
            return str(exc)
        return None

    expected = outcome(lambda: check_ranking_entry_by_entry("demo", entries))
    weights = derive_weights(0.6)
    columns = [[entry[field] for entry in entries] for field in range(3)]
    assert outcome(lambda: PriorityRanking("demo", weights, *columns)) == expected


def test_ranking_and_plan_hold_columns():
    weights = derive_weights(0.6)
    ranking = PriorityRanking("demo", weights, ["b", "a"], [2.0, 1.0], [10.0, 5.0])
    assert ranking.names == ("b", "a")
    assert (ranking.raw_scores, ranking.scaled_scores) == ((2.0, 1.0), (10.0, 5.0))
    assert ranking.entries == (RankingEntry("b", 2.0, 10.0), RankingEntry("a", 1.0, 5.0))
    assert ranking == PriorityRanking("demo", weights, ("b", "a"), (2.0, 1.0), (10.0, 5.0))
    assert len(ranking) == 2 and not isinstance(ranking, tuple)
    names = ranking.names
    plan = AllocationPlan("demo", 3, names, [2, 1], Strategy.PROPORTIONAL)
    assert plan.names is names
    assert plan.kits == (2, 1)
    assert plan.allocations == (AllocationEntry("b", 2), AllocationEntry("a", 1))
    assert len(plan) == 2 and not isinstance(plan, tuple)
    with pytest.raises(DomainValidationError, match="one score per name"):
        PriorityRanking("demo", weights, ["b", "a"], [2.0], [10.0, 5.0])
    with pytest.raises(DomainValidationError, match="one kit count"):
        AllocationPlan("demo", 3, names, [3], Strategy.PROPORTIONAL)
    assert plan._replace(kits=(3, 0)).kits == (3, 0)
    with pytest.raises(DomainValidationError, match="sum to"):
        plan._replace(kits=(3, 1))


def _value_cases():
    """(type, keyword fields, fields that make a different valid value) per immutable type."""
    weights = dict(
        alpha=0.5, beta=0.35, gamma=0.30, variant=WeightVariant.TEXT, source_correlation=0.6
    )
    run_fields = dict(
        model="m",
        mode="d",
        hits_per_city={"chicago": 1},
        total_hits=1,
        denominator=3,
        accuracy_exact=Fraction(1, 3),
        accuracy_display="0.33",
    )
    run = RunAccuracy(**run_fields)
    return [
        (
            AliasTable,
            dict(alias_to_canonical={"old town": "new town"}),
            dict(alias_to_canonical={}),
        ),
        (
            CityProfile,
            dict(city="x", unit_kind=UnitKind.NAMED_AREA, bll_threshold_ug_dl=5.0),
            dict(bll_threshold_ug_dl=3.5),
        ),
        (
            NeighborhoodRecord,
            dict(
                name="a",
                prevalence=1.0,
                untested_pct=2.0,
                public_coverage_pct=3.0,
                extra_factors={"f": 1.0},
            ),
            dict(extra_factors={"f": 2.0}),
        ),
        (
            CityDataset,
            dict(
                city="demo",
                names=("a", "b"),
                prevalence=[1.0, 4.0],
                untested_pct=[2.0, 5.0],
                public_coverage_pct=[3.0, 6.0],
                extra_columns={"f": [1.0, -2.5]},
                bll_threshold_ug_dl=5.0,
                unit_kind=UnitKind.NAMED_AREA,
            ),
            dict(names=("a",), prevalence=[1.0], untested_pct=[2.0], public_coverage_pct=[3.0],
                 extra_columns={}),
        ),
        (WeightConfig, weights, dict(variant=WeightVariant.ALGORITHM, beta=0.2, gamma=0.6)),
        (
            PriorityRanking,
            dict(
                city="demo",
                weights=WeightConfig(**weights),
                names=("b", "a"),
                raw_scores=(2.0, 1.0),
                scaled_scores=(10.0, 5.0),
            ),
            dict(names=("b",), raw_scores=(2.0,), scaled_scores=(10.0,)),
        ),
        (
            AllocationPlan,
            dict(
                city="demo",
                total_kits=3,
                names=("b", "a"),
                kits=(2, 1),
                strategy=Strategy.PROPORTIONAL,
            ),
            dict(strategy=Strategy.RANK_WEIGHTED),
        ),
        (
            ModelRun,
            dict(model="m", mode="d", per_city={"chicago": (Recommendation("a", 1),)}),
            dict(per_city={"chicago": (Recommendation("a", 2),)}),
        ),
        (TargetSet, dict(per_city={"chicago": frozenset({"a"})}), dict(per_city={"dc": {"20011"}})),
        (RunAccuracy, run_fields, dict(hits_per_city={"chicago": 0})),
        (
            AccuracyReport,
            dict(
                k=3,
                per_run=(run,),
                pooled_hits=1,
                pooled_denominator=3,
                overall_mean_exact=Fraction(1, 3),
                overall_mean_display="0.33",
                run_mean_exact=Fraction(1, 3),
                run_mean_display="0.33",
            ),
            dict(k=5),
        ),
    ]


def _plain(value):
    """A field value as the dict or list it was given as: mappings and columns are views."""
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, memoryview) else value


@pytest.mark.parametrize(
    ("cls", "fields", "changed"),
    [pytest.param(*case, id=case[0].__name__) for case in _value_cases()],
)
class TestValueTypes:
    def test_keyword_construction_keeps_field_values(self, cls, fields, changed):
        value = cls(**fields)
        for name, expected in fields.items():
            assert _plain(getattr(value, name)) == expected

    def test_fields_cannot_be_assigned(self, cls, fields, changed):
        value = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.unknown_field = 1

    def test_mappings_are_read_only(self, cls, fields, changed):
        value = cls(**fields)
        for name, given_value in fields.items():
            if isinstance(given_value, dict):
                with pytest.raises(TypeError):
                    getattr(value, name)["new key"] = 0

    def test_equality_is_by_field_values(self, cls, fields, changed):
        assert cls(**fields) == cls(**fields)
        assert cls(**fields) != cls(**{**fields, **changed})

    def test_repr_names_the_type(self, cls, fields, changed):
        assert repr(cls(**fields)).startswith(f"{cls.__name__}(")


def test_each_value_field_is_the_slot_of_its_name():
    types, unseen = set(), [Value]
    while unseen:
        cls = unseen.pop()
        unseen.extend(cls.__subclasses__())
        if cls._fields:
            types.add(cls)
    assert types == {AliasTable, CityDataset, PriorityRanking, AllocationPlan}
    for cls in types:
        assert cls.__slots__ == cls._fields


def test_sized_types_keep_their_length():
    assert len(dataset([("a", 1, 2, 3), ("b", 4, 5, 6)])) == 2
    assert len(AliasTable({"old town": "new town"})) == 1
    assert len(AliasTable()) == 0


def test_construction_runs_post_init_which_tracing_can_replace(monkeypatch):
    calls = []
    original = PriorityRanking.__post_init__

    def traced(self):
        calls.append(self.city)
        return original(self)

    monkeypatch.setattr(PriorityRanking, "__post_init__", traced)
    PriorityRanking("demo", derive_weights(0.6), ["a"], [1.0], [10.0])
    assert calls == ["demo"]
    assert isinstance(vars(AliasTable)["from_file"], classmethod)


def test_replace_validates_like_construction():
    ranking = PriorityRanking("demo", derive_weights(0.6), ["a"], [1.0], [10.0])
    assert type(ranking.entries[0]) is RankingEntry
    with pytest.raises(DomainValidationError, match="no entries"):
        ranking._replace(names=(), raw_scores=(), scaled_scores=())
    plan = AllocationPlan("demo", 1, ["a"], [1], Strategy.PROPORTIONAL)
    with pytest.raises(DomainValidationError, match="sum to"):
        plan._replace(total_kits=2)
    neighborhood = record("a", 1.0, 2.0, 3.0, f=1.0)
    assert type(neighborhood._replace(prevalence=2.0).extra_factors) is type(
        neighborhood.extra_factors
    )
    with pytest.raises(DomainValidationError, match="prevalence"):
        neighborhood._replace(prevalence=-1.0)
    with pytest.raises(DomainValidationError, match="out of range"):
        NeighborhoodRecord._make(("a", 1.0, 2.0, 101.0, {}))


def test_validation_report_is_a_mutable_record():
    report = ValidationReport(strict=True, source="city.csv")
    report.warning("row excluded", row=3)
    assert report.issues == [ValidationIssue("error", 3, "row excluded")]
    assert report == ValidationReport(True, "city.csv", list(report.issues))
    assert report != ValidationReport(strict=True, source="other.csv", issues=report.issues)
    assert repr(ValidationReport()) == "ValidationReport(strict=False, source=None, issues=[])"
    report.source = "renamed.csv"
    assert report.describe(report.issues[0]) == "renamed.csv: error [row 3]: row excluded"


@st.composite
def small_rankings(draw):
    """Rankings from a space small enough that two draws are often equal, with raw-score ties."""
    n = draw(st.integers(1, 3))
    names = draw(st.permutations(["a", "b", "c"]))[:n]
    raws = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n))
    entries = sorted(zip(names, raws), key=lambda entry: (-entry[1], entry[0]))
    top = entries[0][1]
    weights = derive_weights(draw(st.sampled_from([0.2, 0.6])))
    return ranking_of_entries(
        "demo", weights, [(name, raw, 10.0 * (raw / top) if top else 0.0) for name, raw in entries]
    )


@st.composite
def small_plans(draw):
    n = draw(st.integers(1, 3))
    names = draw(st.permutations(["a", "b", "c"]))[:n]
    kits = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
    return AllocationPlan("demo", sum(kits), names, kits, draw(st.sampled_from(list(Strategy))))


@pytest.mark.parametrize(
    ("values", "rows"),
    [
        (small_rankings(), lambda ranking: (ranking.city, ranking.weights, ranking.entries)),
        (
            small_plans(),
            lambda plan: (plan.city, plan.total_kits, plan.allocations, plan.strategy),
        ),
    ],
    ids=["PriorityRanking", "AllocationPlan"],
)
@given(data=st.data())
def test_equality_and_hash_agree_with_the_rows(values, rows, data):
    """``==`` over the columns is ``==`` over the entries or allocations."""
    value, other = data.draw(values), data.draw(values)
    equal = rows(value) == rows(other)
    assert (value == other) is (other == value) is equal
    if equal:
        assert hash(value) == hash(other)
        assert repr(value) == repr(other)
