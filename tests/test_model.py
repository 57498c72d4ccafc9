"""Domain types: name canonicalization, alias tables, container invariants."""

from __future__ import annotations

import copy
import math
import pickle
import pkgutil
from collections.abc import Mapping
from importlib import import_module

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    check_ranking_entry_by_entry,
    dataset,
    dataset_of_rows,
    plan_of_allocations,
    ranking_of_entries,
    extra_factors,
    row,
    rows_of,
)
import leadalloc.model
from leadalloc import resources
from leadalloc.errors import (
    DatasetValidationError,
    DomainValidationError,
    InvalidNameError,
    UnknownCityError,
)
from leadalloc.evaluation import AccuracyReport, RunAccuracy
from leadalloc.ingest import ValidationIssue, ValidationReport, parse_city_dataset
from leadalloc.model import (
    AliasTable,
    AllocationPlan,
    CityDataset,
    CityProfile,
    ModelRun,
    PriorityRanking,
    Recommendation,
    Strategy,
    TargetSet,
    UnitKind,
    Value,
    WeightConfig,
    WeightVariant,
    _Columnar,
    canonicalize_name,
    city_profile,
    register_city,
)
from leadalloc.scoring import derive_weights
from leadalloc.stats import CorrelationResult


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
        with pytest.raises(InvalidNameError) as caught:
            canonicalize_name(" --- ")
        # A name fault is a domain fault: one except clause catches every fault of a value.
        assert isinstance(caught.value, DomainValidationError)

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
        with pytest.raises(DatasetValidationError) as rejected:
            AliasTable.from_file(path)
        assert str(rejected.value) == (
            f"error: {path}: must be a JSON object, got ['not', 'a', 'mapping']"
        )

    def test_from_file_rejects_malformed_json(self, write_file):
        path = write_file("{nope", "aliases.json")
        with pytest.raises(DatasetValidationError, match="malformed JSON"):
            AliasTable.from_file(path)


class TestCityRegistry:
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

    def test_a_unit_kind_named_by_its_string_keeps_the_zip_rule(self, monkeypatch, write_file):
        monkeypatch.setattr(leadalloc.model, "_CITY_REGISTRY", dict(leadalloc.model._CITY_REGISTRY))
        assert register_city("zz", "zip_code", 3.5).unit_kind is UnitKind.ZIP_CODE
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            not a zip,1,2,3
            another,4,5,6
            """
        )
        with pytest.raises(DatasetValidationError, match="'not a zip' is not a 5-digit ZIP"):
            parse_city_dataset(path, "zz")
        with pytest.raises(DomainValidationError, match="'b' is not a 5-digit ZIP"):
            CityDataset(
                "zz", ["b"], [1.0], [2.0], [3.0], bll_threshold_ug_dl=3.5, unit_kind="zip_code"
            )

    def test_an_unknown_unit_kind_is_rejected(self):
        with pytest.raises(DomainValidationError, match="^unknown unit kind 'postcode'$"):
            register_city("zz", "postcode", 3.5)
        with pytest.raises(DomainValidationError, match="unknown unit kind"):
            CityProfile("zz", "zip", 3.5)
        assert "zz" not in leadalloc.model._CITY_REGISTRY

    @pytest.mark.parametrize(
        ("choice", "words"),
        [(UnitKind, "unit kind"), (WeightVariant, "weight variant"), (Strategy, "strategy")],
    )
    def test_each_enum_refuses_an_unknown_value_naming_itself(self, choice, words):
        with pytest.raises(DomainValidationError, match=f"^unknown {words} 'nope'$"):
            choice("nope")

    @pytest.mark.parametrize("threshold", [0.5, 1.0])
    def test_a_threshold_of_at_most_one_is_accepted(self, monkeypatch, threshold):
        monkeypatch.setattr(leadalloc.model, "_CITY_REGISTRY", dict(leadalloc.model._CITY_REGISTRY))
        assert register_city("zz", UnitKind.NAMED_AREA, threshold).bll_threshold_ug_dl == threshold

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -3.5])
    def test_a_threshold_that_is_not_finite_and_positive_is_rejected(self, threshold):
        with pytest.raises(DomainValidationError, match="threshold must be finite and positive"):
            register_city("zz", UnitKind.NAMED_AREA, threshold)
        assert "zz" not in leadalloc.model._CITY_REGISTRY


class TestNeighborhoodValues:
    def test_valid_record_with_extras(self):
        rec = rows_of(dataset([("englewood", 12.4, 48.0, 41.0, {"avg_turbidity": 1.9})]))[0]
        assert rec.get("prevalence_per_1000") == 12.4
        assert rec.get("untested_pct") == 48.0
        assert rec.get("public_coverage_pct") == 41.0
        assert rec.get("avg_turbidity") == 1.9
        assert rec.get("absent_column") is None

    def test_extras_may_be_negative(self):
        rec = rows_of(dataset([("austin", 1.0, 2.0, 3.0, {"income_delta": -4.5})]))[0]
        assert rec.get("income_delta") == -4.5

    def test_extras_are_immutable(self):
        extras = dataset([("austin", 1.0, 2.0, 3.0, {"f": 1.0})]).extra_columns
        with pytest.raises(TypeError):
            extras["f"] = [2.0]
        with pytest.raises(TypeError):
            extras["f"][0] = 2.0

    def test_extras_are_a_mapping_equal_to_the_dict_given(self):
        given_factors = {"f": [1.0], "g": [-2.5]}
        extras = dataset([("austin", 1.0, 2.0, 3.0, {"f": 1.0, "g": -2.5})]).extra_columns
        assert isinstance(extras, Mapping)
        assert {factor: column.tolist() for factor, column in extras.items()} == given_factors
        assert (len(extras), list(extras)) == (2, ["f", "g"])
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
            dataset([("austin", bad, 2.0, 3.0)])

    @pytest.mark.parametrize("bad", [-1.0, 120.0, float("nan")])
    def test_percentages_bounded(self, bad):
        with pytest.raises(DomainValidationError, match="out of range"):
            dataset([("austin", 1.0, bad, 3.0)])
        with pytest.raises(DomainValidationError, match="out of range"):
            dataset([("austin", 1.0, 2.0, bad)])

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidNameError):
            dataset([("  ", 1.0, 2.0, 3.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_extras_must_be_finite(self, bad, tmp_path):
        path = tmp_path / "city.csv"
        path.write_text(f"neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct,f,g\n"
                        f"austin,1,2,3,1,{bad!r}\n", encoding="utf-8")
        with pytest.raises(DatasetValidationError) as raised:
            parse_city_dataset(path, "demo")
        fault = f"extra factor 'g' must be finite, got {bad}"
        assert [issue.message for issue in raised.value.report.errors()] == [fault]
        if math.isnan(bad):
            # In a dataset's column NaN is a blank cell: the row lacks the factor.
            built = dataset([("austin", 1.0, 2.0, 3.0, {"f": 1.0, "g": bad})])
            assert extra_factors(rows_of(built)[0]) == {"f": 1.0}
        else:
            with pytest.raises(DomainValidationError, match=f"austin: {fault}"):
                dataset([("austin", 1.0, 2.0, 3.0, {"f": 1.0, "g": bad})])

    @pytest.mark.parametrize("build", ["keyword", "positional", "_replace"])
    @pytest.mark.parametrize(
        ("fields", "error", "message"),
        [
            (("  ", 1.0, 2.0, 3.0, {}), InvalidNameError, "neighborhood name must be non-empty"),
            (
                ("austin", -0.1, 2.0, 3.0, {}),
                DomainValidationError,
                "demo: austin: prevalence_per_1000 out of range [0, inf), got -0.1",
            ),
            (
                ("austin", 1.0, 120.0, 3.0, {}),
                DomainValidationError,
                "demo: austin: untested_pct out of range [0, 100], got 120.0",
            ),
            (
                ("austin", 1.0, 2.0, math.nan, {}),
                DomainValidationError,
                "demo: austin: public_coverage_pct out of range [0, 100], got nan",
            ),
            (
                ("austin", 1.0, 2.0, 3.0, {"f": 1.0, "g": math.inf}),
                DomainValidationError,
                "demo: austin: extra factor 'g' must be finite, got inf",
            ),
            (
                ("austin", -0.1, 120.0, 3.0, {}),
                DomainValidationError,
                "demo: austin: prevalence_per_1000 out of range [0, inf), got -0.1",
            ),
        ],
        ids=["empty-name", "prevalence", "untested", "nan-coverage", "extra", "first-check-wins"],
    )
    def test_every_construction_reports_the_same_message(self, build, fields, error, message):
        *cells, extras = fields
        by_name = dict(
            zip(("names", "prevalence", "untested_pct", "public_coverage_pct"), zip(cells)),
            extra_columns={factor: [value] for factor, value in extras.items()},
        )
        profile = dict(bll_threshold_ug_dl=5.0, unit_kind=UnitKind.NAMED_AREA)
        construct = {
            "keyword": lambda: CityDataset("demo", **by_name, **profile),
            "positional": lambda: CityDataset("demo", *by_name.values(), **profile),
            "_replace": lambda: dataset([("valid", 1.0, 2.0, 3.0)])._replace(**by_name),
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
            dataset_of_rows(
                city="dc",
                rows=(row("georgetown", 1, 2, 3),),
                bll_threshold_ug_dl=3.5,
                unit_kind=UnitKind.ZIP_CODE,
            )
        ok = dataset_of_rows(
            city="dc",
            rows=(row("20011", 1, 2, 3),),
            bll_threshold_ug_dl=3.5,
            unit_kind=UnitKind.ZIP_CODE,
        )
        assert ok.names == ("20011",)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_the_threshold_rule_is_the_city_profile_rule(self, threshold):
        with pytest.raises(DomainValidationError) as from_profile:
            CityProfile("x", UnitKind.NAMED_AREA, threshold)
        with pytest.raises(DomainValidationError) as from_dataset:
            CityDataset(
                "x", ["a", "b"], [1, 2], [3, 4], [5, 6],
                bll_threshold_ug_dl=threshold, unit_kind="named_area",
            )
        assert str(from_dataset.value) == str(from_profile.value) == (
            f"x: blood-lead threshold must be finite and positive, got {threshold}"
        )

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

    def test_normalized_weights_must_follow_the_derivation(self):
        # Summing to 1 is not enough: no alpha gives these weights under the text rule.
        with pytest.raises(DomainValidationError) as rejected:
            WeightConfig(0.5, 0.5, 0.0, WeightVariant.TEXT, 0.6, normalized=True)
        assert str(rejected.value) == (
            "weights (alpha=0.5, beta=0.5, gamma=0.0, normalized=True) do not follow the text "
            "derivation rule for r=0.6"
        )
        config = derive_weights(0.6, normalize=True)
        assert config.normalized
        assert config.alpha + config.beta + config.gamma == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_weights_are_the_derived_ones_to_1e_9_relative(self, normalize):
        weights = derive_weights(0.6, normalize=normalize).as_dict()
        variant = WeightVariant(weights.pop("variant"))
        for key, factor in (("beta", 1 + 1e-10), ("gamma", 1 - 1e-10)):
            WeightConfig(**{**weights, key: weights[key] * factor, "variant": variant})
        for key, factor in (("beta", 1 + 1e-8), ("gamma", 1 - 1e-8)):
            with pytest.raises(DomainValidationError, match="derivation rule"):
                WeightConfig(**{**weights, key: weights[key] * factor, "variant": variant})

    def test_normalized_weights_of_an_alpha_past_1_rejected(self):
        # alpha = 9 under the algorithm rule at r = 1: (9, 0, 1), divided by 10.
        with pytest.raises(DomainValidationError, match="derivation rule"):
            WeightConfig(0.9, 0.0, 0.1, WeightVariant.ALGORITHM, 1.0, normalized=True)
        # The largest alpha below 1 comes back as 1.0 or more by rounding (text at r = 0.5,
        # algorithm at 0.75), and is no fault.
        for variant in WeightVariant:
            for r in (0.0, 0.5, 0.75, 1.0):
                assert derive_weights(r, 1 - 2**-53, variant, normalize=True).normalized


class TestPriorityRanking:
    def test_entries_must_be_sorted_desc_with_name_tiebreak(self):
        weights = derive_weights(0.6)
        with pytest.raises(DomainValidationError, match="not sorted"):
            ranking_of_entries(city="demo", weights=weights, entries=(("a", 1.0), ("b", 2.0)))
        with pytest.raises(DomainValidationError, match="not sorted"):
            ranking_of_entries(city="demo", weights=weights, entries=(("z", 2.0), ("a", 2.0)))

    def test_scaled_scores_are_ten_times_raw_over_top_raw(self):
        ranking = ranking_of_entries(
            city="demo", weights=derive_weights(0.6), entries=(("a", 2.0), ("b", 1.0), ("c", 0.3))
        )
        assert list(ranking.scaled_scores) == [10.0, 5.0, 10.0 * (0.3 / 2.0)]
        assert PriorityRanking._fields == ("city", "weights", "names", "raw_scores")

    def test_all_zero_raw_scores_scale_to_all_zero(self):
        ranking = ranking_of_entries(
            city="demo", weights=derive_weights(0.6), entries=(("a", 0.0), ("b", 0.0))
        )
        assert ranking.names == ("a", "b")
        assert list(ranking.scaled_scores) == [0.0, 0.0]

    def test_negative_raw_score_rejected(self):
        with pytest.raises(DomainValidationError, match="negative raw score"):
            ranking_of_entries(city="demo", weights=derive_weights(0.6), entries=(("a", -1.0),))


class TestRankingColumns:
    def test_columns_are_read_only_float64_copies(self):
        raw = [2.0, 1.0]
        ranking = PriorityRanking("demo", derive_weights(0.6), ["b", "a"], raw)
        raw[0] = 5.0
        assert list(ranking.raw_scores) == [2.0, 1.0]
        for column in (ranking.raw_scores, ranking.scaled_scores):
            assert type(column) is memoryview and column.format == "d" and column.readonly
            with pytest.raises(TypeError):
                column[0] = 0.0

    def test_equality_and_hash_agree(self):
        weights = derive_weights(0.6)
        ranking = PriorityRanking("demo", weights, ["b", "a"], [2.0, 1.0])
        again = PriorityRanking("demo", weights, ("b", "a"), (2, 1))
        assert ranking == again and again == ranking
        assert hash(ranking) == hash(again)
        assert ranking != PriorityRanking("demo", weights, ["b", "a"], [2.0, 0.5])
        assert len({ranking, again}) == 1

    def test_a_signed_zero_makes_the_columns_unequal(self):
        weights = derive_weights(0.6)
        zero = PriorityRanking("demo", weights, ["a", "b"], [1.0, 0.0])
        negative_zero = PriorityRanking("demo", weights, ["a", "b"], [1.0, -0.0])
        assert zero.names == negative_zero.names
        assert list(zero.raw_scores) == list(negative_zero.raw_scores)
        assert list(zero.scaled_scores) == list(negative_zero.scaled_scores)
        assert zero != negative_zero

    def test_repr_shows_the_columns_as_lists(self):
        ranking = PriorityRanking("demo", derive_weights(0.6), ["b", "a"], [2.0, 1.0])
        assert repr(ranking).startswith("PriorityRanking(city='demo', weights=WeightConfig(")
        assert repr(ranking).endswith("names=('b', 'a'), raw_scores=[2.0, 1.0])")


class TestAllocationPlan:
    def test_kits_must_sum_to_total(self):
        with pytest.raises(DomainValidationError, match="sum to"):
            plan_of_allocations(
                city="demo",
                total_kits=10,
                allocations=(("a", 4), ("b", 4)),
                strategy=Strategy.PROPORTIONAL,
            )

    def test_negative_kits_rejected(self):
        with pytest.raises(DomainValidationError, match="non-negative"):
            plan_of_allocations(
                city="demo",
                total_kits=1,
                allocations=(("a", 2), ("b", -1)),
                strategy=Strategy.PROPORTIONAL,
            )

    @pytest.mark.parametrize(
        ("kits", "index", "shown"),
        [((2, -1, 0, -3), 1, "-1"), ((6.5, 3.5, 0, 0), 0, "6.5"), ((1, 0, True, 0), 2, "True"),
         ((1, 1.0, 0, 0), 1, "1.0")],
    )
    def test_a_kit_that_is_no_non_negative_int_is_named(self, kits, index, shown):
        names = ["a", "b", "c", "d"]
        with pytest.raises(DomainValidationError) as raised:
            AllocationPlan("demo", 1, names, kits, Strategy.PROPORTIONAL)
        assert str(raised.value) == (
            f"demo: {names[index]}: kit counts must be non-negative ints, got {shown}"
        )
        assert raised.value.at == (index,)


class TestModelRunAndTargets:
    def test_model_and_mode(self):
        run = ModelRun(
            model="ChatGPT 5",
            mode="Agent mode",
            per_city={"chicago": (Recommendation("austin", 300),)},
        )
        assert (run.model, run.mode) == ("ChatGPT 5", "Agent mode")

    def test_negative_recommendation_kits_rejected(self):
        with pytest.raises(DomainValidationError, match="negative kits"):
            ModelRun(
                model="m",
                mode="d",
                per_city={"chicago": (Recommendation("austin", -1),)},
            )

    def test_an_item_that_is_not_a_recommendation_is_rejected(self):
        # A pair once built a run that build_report then failed on with AttributeError.
        with pytest.raises(DomainValidationError) as raised:
            ModelRun("m", "d", {"chicago": [Recommendation("a", 1), ("b", -1)]})
        assert str(raised.value) == "chicago: item 1 is not a Recommendation: ('b', -1)"
        assert raised.value.at == ("chicago", 1)

    def test_target_set_counts(self):
        targets = TargetSet(
            per_city={"chicago": frozenset({"a", "b", "c"}), "dc": frozenset({"20011"})}
        )
        assert set(targets.per_city) == {"chicago", "dc"}
        assert targets.total_targets() == 4

    def test_empty_target_city_rejected(self):
        with pytest.raises(DomainValidationError, match="empty"):
            TargetSet(per_city={"chicago": frozenset()})


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "a", "ab", "b", "B"]),
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
    unchanged_by_sort = pairs == sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
    names_repeat = len({name for name, _ in pairs}) < len(pairs)
    try:
        ranking_of_entries(city="demo", weights=derive_weights(0.6), entries=pairs)
    except DomainValidationError as exc:
        if "duplicate neighborhood" in str(exc):
            assert unchanged_by_sort and names_repeat
        else:
            assert "not sorted" in str(exc)
            assert not unchanged_by_sort
    else:
        assert unchanged_by_sort and not names_repeat


def test_dataset_and_ranking_report_the_first_repeated_name():
    """Both name the first name that repeats, as ingest does, not the most common one."""
    names = ["a", "b", "b", "a", "a"]
    with pytest.raises(DomainValidationError) as from_dataset:
        CityDataset(
            "demo", names, [1.0] * 5, [2.0] * 5, [3.0] * 5,
            bll_threshold_ug_dl=5.0, unit_kind=UnitKind.NAMED_AREA,
        )
    with pytest.raises(DomainValidationError) as from_ranking:
        PriorityRanking("demo", derive_weights(0.6), names, [5.0, 4.0, 3.0, 2.0, 1.0])
    assert str(from_dataset.value) == str(from_ranking.value) == "demo: duplicate neighborhood 'b'"


_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.nan, math.inf, -1.0]) | st.floats(0, 4)


@given(
    st.lists(st.tuples(st.sampled_from(["A", "a", "ab", "b", "B"]), _SCORES), max_size=8),
    st.booleans(),
)
def test_columnar_check_agrees_with_the_entry_by_entry_check(pairs, presort):
    """Both checks accept the same rankings and reject the others with the same message and entry.

    The cases cover ties, -0.0, NaN, repeated names and unsorted entries.
    """
    if presort:
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))

    def outcome(check):
        try:
            check()
        except DomainValidationError as exc:
            return str(exc), exc.at
        return None

    expected = outcome(lambda: check_ranking_entry_by_entry("demo", pairs))
    weights = derive_weights(0.6)
    columns = [[pair[field] for pair in pairs] for field in range(2)]
    assert outcome(lambda: PriorityRanking("demo", weights, *columns)) == expected


@given(
    st.lists(st.floats(0, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, 1.0, 3.0]), min_size=1),
)
def test_scaled_scores_anchor_the_top_at_ten_and_never_increase(raws):
    raws.sort(reverse=True)
    names = [f"n{i:03d}" for i in range(len(raws))]
    scaled = PriorityRanking("demo", derive_weights(0.6), names, raws).scaled_scores
    assert len(scaled) == len(raws)
    if raws[0] > 0:
        assert scaled[0] == 10.0
    else:
        assert set(scaled) == {0.0}
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))
    assert all(0.0 <= score <= 10.0 for score in scaled)


def test_ranking_and_plan_hold_columns():
    weights = derive_weights(0.6)
    ranking = PriorityRanking("demo", weights, ["b", "a"], [2.0, 1.0])
    assert ranking.names == ("b", "a")
    assert (list(ranking.raw_scores), list(ranking.scaled_scores)) == ([2.0, 1.0], [10.0, 5.0])
    assert ranking == PriorityRanking("demo", weights, ("b", "a"), (2.0, 1.0))
    assert len(ranking) == 2 and not isinstance(ranking, tuple)
    names = ranking.names
    plan = AllocationPlan("demo", 3, names, [2, 1], Strategy.PROPORTIONAL)
    assert plan.names is names
    assert plan.kits == (2, 1)
    assert len(plan) == 2 and not isinstance(plan, tuple)
    with pytest.raises(DomainValidationError, match="one score per name"):
        PriorityRanking("demo", weights, ["b", "a"], [2.0])
    with pytest.raises(DomainValidationError, match="one kit count"):
        AllocationPlan("demo", 3, names, [3], Strategy.PROPORTIONAL)
    assert plan._replace(kits=(3, 0)).kits == (3, 0)
    with pytest.raises(DomainValidationError, match="sum to"):
        plan._replace(kits=(3, 1))


def test_rows_are_plain_tuples_zipped_from_the_columns_with_no_check(monkeypatch):
    data = CityDataset(
        "demo", ["a", "b"], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0],
        {"f": [math.nan, 7.0], "g": [0.5, -1.0]},
        bll_threshold_ug_dl=5.0, unit_kind=UnitKind.NAMED_AREA,
    )
    ranking = PriorityRanking("demo", derive_weights(0.6), ["b", "a"], [2.0, 1.0])
    plan = AllocationPlan("demo", 3, ranking.names, [2, 1], Strategy.PROPORTIONAL)

    def checked(*args):
        raise AssertionError("a row's value was checked")

    monkeypatch.setattr(leadalloc.model, "value_fault", checked)
    f, g = data.extra_columns["f"], data.extra_columns["g"]
    assert data.records == (
        (data.names[0], data.prevalence[0], data.untested_pct[0], data.public_coverage_pct[0],
         {"g": g[0]}),
        (data.names[1], data.prevalence[1], data.untested_pct[1], data.public_coverage_pct[1],
         {"f": f[1], "g": g[1]}),
    ) == (("a", 1.0, 3.0, 5.0, {"g": 0.5}), ("b", 2.0, 4.0, 6.0, {"f": 7.0, "g": -1.0}))
    assert ranking.entries == tuple(zip(ranking.names, ranking.raw_scores, ranking.scaled_scores))
    assert ranking.entries == (("b", 2.0, 10.0), ("a", 1.0, 5.0))
    assert plan.allocations == tuple(zip(plan.names, plan.kits)) == (("b", 2), ("a", 1))
    rows = (*data.records, *ranking.entries, *plan.allocations)
    assert {type(row) for row in rows} == {tuple}


EACH_COLUMNAR_TYPE = pytest.mark.parametrize(
    "build",
    [
        lambda names: CityDataset(
            "demo", names, [1.0] * len(names), [2.0] * len(names), [3.0] * len(names),
            bll_threshold_ug_dl=5.0, unit_kind=UnitKind.NAMED_AREA,
        ),
        lambda names: PriorityRanking("demo", derive_weights(0.6), names, [0.0] * len(names)),
        lambda names: AllocationPlan(
            "demo", len(names), names, [1] * len(names), Strategy.PROPORTIONAL
        ),
    ],
    ids=["dataset", "ranking", "plan"],
)


@EACH_COLUMNAR_TYPE
@pytest.mark.parametrize("names", [["", "Old-Town"], ["b", " "], ["a", "\t\n", "b"]])
def test_columnar_values_refuse_a_blank_name(build, names):
    # Refused at construction, before the type's own checks of its columns.
    with pytest.raises(InvalidNameError, match="^neighborhood name must be non-empty$"):
        build(names)


@EACH_COLUMNAR_TYPE
def test_columnar_values_refuse_a_repeated_name_through_one_check(build, monkeypatch):
    checks = []
    check_distinct = _Columnar._check_distinct
    monkeypatch.setattr(
        _Columnar, "_check_distinct", lambda self: checks.append(check_distinct(self))
    )
    build(["a", "b", "c"])
    assert len(checks) == 1
    with pytest.raises(DomainValidationError) as raised:
        build(["a", "b", "b"])
    assert (str(raised.value), raised.value.at) == ("demo: duplicate neighborhood 'b'", (2,))


def _value_cases():
    """(type, keyword fields, fields that make a different valid value) per immutable type."""
    weights = dict(
        alpha=0.5, beta=0.35, gamma=0.30, variant=WeightVariant.TEXT, source_correlation=0.6
    )
    run_fields = dict(model="m", mode="d", hits_per_city={"chicago": 1}, denominator=3)
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
                raw_scores=[2.0, 1.0],
            ),
            dict(names=("b",), raw_scores=(2.0,)),
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
        (Recommendation, dict(name="a", kits=1), dict(kits=2)),
        (RunAccuracy, run_fields, dict(hits_per_city={"chicago": 0})),
        (AccuracyReport, dict(k=3, per_run=(run,)), dict(k=5)),
        (CorrelationResult, dict(factor="f", r=0.5, n=3), dict(r=-0.5)),
        (
            ValidationIssue,
            dict(severity="error", location="row 2", message="m"),
            dict(location=None),
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

    def test_equal_values_hash_alike(self, cls, fields, changed):
        value = cls(**fields)
        assert hash(value) == hash(cls(**fields))
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert hash(copied) == hash(value)

    def test_copies_and_pickles_are_rebuilt_equal(self, cls, fields, changed):
        value = cls(**fields)
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is cls
            assert copied == value
            assert repr(copied) == repr(value)


_MAPPING_CASES = [
    (AliasTable, dict(alias_to_canonical={"old town": "new town", "east": "west"})),
    (
        CityDataset,
        dict(
            city="demo", names=("a",), prevalence=[1.0], untested_pct=[2.0],
            public_coverage_pct=[3.0], extra_columns={"f": [1.0], "g": [-0.0]},
            bll_threshold_ug_dl=5.0, unit_kind=UnitKind.NAMED_AREA,
        ),
    ),
    (ModelRun, dict(model="m", mode="d", per_city={"dc": (), "chicago": [Recommendation("a", 1)]})),
    (TargetSet, dict(per_city={"chicago": frozenset({"a"}), "dc": frozenset({"20011"})})),
    (RunAccuracy, dict(model="m", mode="d", hits_per_city={"dc": 0, "chicago": 1}, denominator=3)),
]


@pytest.mark.parametrize(
    ("cls", "fields"), [pytest.param(*case, id=case[0].__name__) for case in _MAPPING_CASES]
)
def test_a_mapping_in_another_order_makes_an_equal_value(cls, fields):
    """Equal values hash and print alike, and copies hold their mappings in key order."""
    name, mapping = next((name, item) for name, item in fields.items() if isinstance(item, dict))
    value = cls(**fields)
    other = cls(**{**fields, name: dict(reversed(mapping.items()))})
    assert list(getattr(value, name)) == list(reversed(getattr(other, name)))
    assert value == other and hash(value) == hash(other) and repr(value) == repr(other)
    for copied in (value._replace(), copy.copy(other), pickle.loads(pickle.dumps(value))):
        assert list(getattr(copied, name)) == sorted(mapping)


def _value_types():
    """Every subclass of :class:`Value` that has fields, however deep."""
    types, unseen = set(), [Value]
    while unseen:
        cls = unseen.pop()
        unseen.extend(cls.__subclasses__())
        if cls._fields:
            types.add(cls)
    return types


def test_each_value_field_is_the_slot_of_its_name():
    types = _value_types()
    assert types == {
        AliasTable, CityProfile, CityDataset, WeightConfig, PriorityRanking, AllocationPlan,
        Recommendation, ModelRun, TargetSet, RunAccuracy, AccuracyReport, CorrelationResult,
        ValidationIssue,
    }
    for cls in types:
        assert cls.__slots__ == cls._fields


def test_the_value_cases_cover_every_value_type():
    # A new type is checked by TestValueTypes, or this fails.
    assert {case[0] for case in _value_cases()} == _value_types()


def test_no_class_of_the_package_is_a_tuple():
    # Every domain value is a Value; none is a tuple that indexes, unpacks or equals a tuple.
    modules = [
        import_module(f"leadalloc.{info.name}")
        for info in pkgutil.iter_modules(leadalloc.__path__)
        if info.name != "__main__"
    ]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    assert len(modules) >= 9 and Value in classes
    assert [cls.__name__ for cls in classes if issubclass(cls, tuple)] == []


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
    PriorityRanking("demo", derive_weights(0.6), ["a"], [1.0])
    assert calls == ["demo"]
    assert isinstance(vars(AliasTable)["from_file"], classmethod)


def test_replace_validates_like_construction():
    ranking = PriorityRanking("demo", derive_weights(0.6), ["a"], [1.0])
    with pytest.raises(DomainValidationError, match="no entries"):
        ranking._replace(names=(), raw_scores=())
    plan = AllocationPlan("demo", 1, ["a"], [1], Strategy.PROPORTIONAL)
    with pytest.raises(DomainValidationError, match="sum to"):
        plan._replace(total_kits=2)
    neighborhood = dataset([("a", 1.0, 2.0, 3.0, {"f": 1.0})])
    assert type(neighborhood._replace(prevalence=[2.0]).extra_columns) is type(
        neighborhood.extra_columns
    )
    with pytest.raises(DomainValidationError, match="prevalence"):
        neighborhood._replace(prevalence=[-1.0])
    with pytest.raises(DomainValidationError, match="out of range"):
        neighborhood._replace(public_coverage_pct=[101.0])
    with pytest.raises(DomainValidationError, match="negative kits"):
        Recommendation("a", 1)._replace(kits=-1)


def test_validation_report_is_a_mutable_record():
    report = ValidationReport(strict=True, source="city.csv")
    report.warning("row excluded", "row 3")
    assert report.issues == [ValidationIssue("error", "row 3", "row excluded")]
    assert report == ValidationReport(True, "city.csv", list(report.issues))
    assert report != ValidationReport(strict=True, source="other.csv", issues=report.issues)
    assert repr(ValidationReport()) == "ValidationReport(strict=False, source=None, issues=[])"
    report.source = "renamed.csv"
    assert report.describe(report.issues[0]) == "error: renamed.csv: row 3: row excluded"


@st.composite
def small_rankings(draw):
    """Rankings from a space small enough that two draws are often equal, with raw-score ties."""
    n = draw(st.integers(1, 3))
    names = draw(st.permutations(["a", "b", "c"]))[:n]
    raws = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n))
    entries = sorted(zip(names, raws), key=lambda entry: (-entry[1], entry[0]))
    weights = derive_weights(draw(st.sampled_from([0.2, 0.6])))
    return ranking_of_entries("demo", weights, entries)


@st.composite
def small_plans(draw):
    n = draw(st.integers(1, 3))
    names = draw(st.permutations(["a", "b", "c"]))[:n]
    kits = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
    return AllocationPlan("demo", sum(kits), names, kits, draw(st.sampled_from(list(Strategy))))


@pytest.mark.parametrize(
    ("values", "rows"),
    [
        (
            small_rankings(),
            lambda ranking: (
                ranking.city,
                ranking.weights,
                list(zip(ranking.names, ranking.raw_scores, ranking.scaled_scores)),
            ),
        ),
        (
            small_plans(),
            lambda plan: (
                plan.city, plan.total_kits, list(zip(plan.names, plan.kits)), plan.strategy
            ),
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
