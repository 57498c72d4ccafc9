"""Neighborhood lead-testing priority scores, kit apportionment, and
auditing of recorded allocation recommendations against empirical
high-risk target sets."""

from .allocation import allocate, largest_remainder
from .errors import (
    DataQualityWarning,
    DatasetValidationError,
    DomainValidationError,
    InvalidNameError,
    LeadAllocError,
    UndefinedCorrelationError,
    UnknownCityError,
)
from .evaluation import (
    AccuracyReport,
    RunAccuracy,
    build_report,
    city_hits,
    format_report_table,
    report_to_dict,
    truncate_display,
)
from .ingest import (
    ValidationIssue,
    ValidationReport,
    parse_city_dataset,
    parse_model_runs,
    parse_ranking,
    parse_targets,
    write_ranking,
)
from .model import (
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
    WeightConfig,
    WeightVariant,
    canonicalize_name,
    city_profile,
    register_city,
)
from .scoring import derive_weights, score_city, top_k
from .stats import CorrelationResult, correlate_factors, min_max_normalize, pearson, spearman

__version__ = "0.1.0"
