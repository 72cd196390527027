"""Margin-based transfer-risk bounds for meta-learned multiclass
classifiers, plus a synthetic task-environment simulator that checks
them empirically."""

from .bounds import (
    BoundInputs,
    BoundReport,
    InfeasibleError,
    constants_c1_c2,
    covering_transfer_bound,
    gaussian_transfer_bound,
    kway_sshot_complexity_term,
    sample_efficiency_min_m,
    surrogate_multimargin_bound,
    vc_transfer_bound,
)
from .complexity import (
    ComplexityEstimate,
    FunctionValueMatrix,
    build_pi1f_restriction,
    dudley_bound,
    episode_restrictions,
    entropy_integral,
    gaussian_complexity_mc,
    greedy_epsilon_cover,
    massart_bound,
    rademacher_complexity_mc,
)
from .core import (
    EnvironmentSpec,
    EpisodeBatch,
    EpisodeShape,
    SeedPolicy,
    TaskSpec,
    sample_episode,
    sample_episode_batches,
    sample_kway_sshot_episode,
    sample_meta_sample,
    sample_task,
)
from .harness import (
    ExperimentConfig,
    FamilyGroup,
    FamilySpec,
    LearnerSpec,
    ResultRow,
    TransferRiskEstimate,
    bound_validity_experiment,
    estimate_transfer_risk,
    query_split_accuracy,
    sweep,
    write_result_rows,
)
from .learners import (
    CentroidScorer,
    FeatureFamily,
    FeatureMap,
    LinearScorer,
    NumericError,
    Selection,
    linear_multimargin_learn,
    linear_softmax_learn,
    make_feature_family,
    meta_erm_select,
    nearest_centroid_learn,
)
from .losses import (
    ScoringFunction,
    episode_losses,
    margin_terms,
)

__version__ = "0.1.0"
