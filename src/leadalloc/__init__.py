"""Neighborhood lead-testing priority scores, kit apportionment, and
auditing of recorded allocation recommendations against empirical
high-risk target sets. Each public name loads its submodule on first use (PEP 562)."""

__version__ = "0.1.0"

_EXPORTS = {
    "allocation": ("allocate", "largest_remainder"),
    "errors": (
        "DataQualityWarning", "DatasetValidationError", "DomainValidationError", "InvalidNameError",
        "LeadAllocError", "UndefinedCorrelationError", "UnknownCityError",
    ),
    "evaluation": (
        "AccuracyReport", "RunAccuracy", "build_report", "city_hits", "format_report_table",
        "report_to_dict", "truncate_display",
    ),
    "ingest": (
        "ValidationIssue", "ValidationReport", "parse_city_dataset", "parse_model_runs",
        "parse_ranking", "parse_targets", "write_ranking",
    ),
    "model": (
        "AliasTable", "AllocationPlan", "CityDataset", "CityProfile", "ModelRun", "PriorityRanking",
        "Recommendation", "Strategy", "TargetSet", "UnitKind", "WeightConfig", "WeightVariant",
        "canonicalize_name", "city_profile", "register_city",
    ),
    "scoring": ("derive_weights", "score_city", "top_k"),
    "stats": ("CorrelationResult", "correlate_factors", "min_max_normalize", "pearson", "spearman"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
