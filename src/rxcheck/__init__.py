"""rxcheck: historical-data-driven anomaly detection for radiotherapy
prescriptions.

A new treatment record is compared against an immutable per-technique
reference set through two dissimilarity metrics: a scaled Euclidean distance
between prescriptions and a Gower distance over the remaining mixed-type
features. Records whose group distances exceed trained thresholds are
flagged, with a numeric explanation attached to every verdict.
"""

__version__ = "0.1.0"

from .detector import (
    ModelParams,
    Verdict,
    detect,
    explain,
    thresholds,
    verdict_to_dict,
)
from .distance import (
    HistoricalDB,
    Histogram,
    IncomparablePair,
    QueryProfile,
    RxScaler,
    ScaledRx,
    closest_m_rx_distance,
    closest_n_feature_distance,
    gower_distance,
    pairwise_histograms,
    rx_distance,
    scale_rx,
)
from .evaluate import (
    ConfusionMatrix,
    LabeledPrediction,
    MacroMetrics,
    confusion,
    consensus_analysis,
    emit_report,
    macro_metrics,
)
from .ingest import (
    CohortConfig,
    build_historical_db,
    filter_cohort,
    normalize_dataset,
    parse_dataset,
)
from .ranges import (
    Boundaries,
    Quantile,
    RangeViolation,
    check_range,
    compute_bed,
    derive_boundaries,
    table_preset,
)
from .records import (
    FeatureSchema,
    FeatureSpec,
    Prescription,
    TreatmentRecord,
    default_schema,
    validate_record,
    write_records_csv,
)
from .simulate import (
    SimulatedAnomaly,
    generate_sa_set,
    mutate_features,
    swap_leading_digits,
    verify_rarity,
)
from .train import (
    SearchSpace,
    TrainingOutcome,
    f1_metric,
    f1_objective,
    search_parameters,
    split_holdout,
)

__all__ = [
    "Boundaries",
    "CohortConfig",
    "ConfusionMatrix",
    "FeatureSchema",
    "FeatureSpec",
    "Histogram",
    "HistoricalDB",
    "IncomparablePair",
    "LabeledPrediction",
    "MacroMetrics",
    "ModelParams",
    "Prescription",
    "Quantile",
    "QueryProfile",
    "RangeViolation",
    "RxScaler",
    "ScaledRx",
    "SearchSpace",
    "SimulatedAnomaly",
    "TrainingOutcome",
    "TreatmentRecord",
    "Verdict",
    "build_historical_db",
    "check_range",
    "closest_m_rx_distance",
    "closest_n_feature_distance",
    "compute_bed",
    "confusion",
    "consensus_analysis",
    "default_schema",
    "derive_boundaries",
    "detect",
    "emit_report",
    "explain",
    "f1_metric",
    "f1_objective",
    "filter_cohort",
    "generate_sa_set",
    "gower_distance",
    "macro_metrics",
    "mutate_features",
    "normalize_dataset",
    "pairwise_histograms",
    "parse_dataset",
    "rx_distance",
    "scale_rx",
    "search_parameters",
    "split_holdout",
    "swap_leading_digits",
    "table_preset",
    "thresholds",
    "validate_record",
    "verdict_to_dict",
    "verify_rarity",
    "write_records_csv",
]
