"""treetweak: minimum-cost feature tweaking for tree-ensemble classifiers.

Train a random forest (or bring a hand-built one), pick an instance the
model predicts negative, and compute the cheapest feature-vector change
that flips the prediction to positive, then render it as ranked,
human-readable recommendations.
"""

__version__ = "0.1.0"

from treetweak.feature_space import (
    ColumnSpec,
    FeatureMeta,
    FeatureSpace,
    Instance,
    OneHotMember,
    TableSchema,
    destandardize,
    fit_standardizer,
    load_instances,
    load_table,
    one_hot_encode,
    standardize,
)
from treetweak.forest import (
    Path,
    TreeEnsemble,
    extract_paths,
    load_model,
    predict_ensemble,
    route,
    save_model,
    trees_from_nodes,
)
from treetweak.costs import COST_FUNCTIONS, COST_NAMES, cost_by_name
from treetweak.trainer import (
    ClassifierMetrics,
    TrainConfig,
    evaluate_classifier,
    impurity,
    stratified_split,
    train_forest,
)
from treetweak.tweaker import (
    Found,
    NotCovered,
    Transformation,
    TweakOutcome,
    brute_force_tweak,
    build_positive_instance,
    candidate_set,
    sweep,
    tweak,
)
from treetweak.recommend import (
    RatingRecord,
    Recommendation,
    diff_to_recommendations,
    feature_frequency_report,
    helpfulness,
    rank_correlation,
    top_k_transformations,
)

__all__ = [
    "__version__",
    "COST_FUNCTIONS",
    "COST_NAMES",
    "ClassifierMetrics",
    "ColumnSpec",
    "FeatureMeta",
    "FeatureSpace",
    "Found",
    "Instance",
    "NotCovered",
    "OneHotMember",
    "Path",
    "RatingRecord",
    "Recommendation",
    "TableSchema",
    "TrainConfig",
    "Transformation",
    "TreeEnsemble",
    "TweakOutcome",
    "brute_force_tweak",
    "build_positive_instance",
    "candidate_set",
    "cost_by_name",
    "destandardize",
    "diff_to_recommendations",
    "evaluate_classifier",
    "extract_paths",
    "feature_frequency_report",
    "fit_standardizer",
    "helpfulness",
    "impurity",
    "load_instances",
    "load_model",
    "load_table",
    "one_hot_encode",
    "predict_ensemble",
    "rank_correlation",
    "route",
    "save_model",
    "standardize",
    "stratified_split",
    "sweep",
    "top_k_transformations",
    "train_forest",
    "trees_from_nodes",
    "tweak",
]
