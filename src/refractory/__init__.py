"""Refractory-cohort analysis pipeline on synthetic event streams.

Event generation and IO, cohort construction, count featurization,
dimensionality reduction (PCA / kernel PCA / ICA / ISOMAP), clustering
(k-means / GMM / spectral / Ward), classifiers (logistic regression, CART,
AdaBoost, GBDT, SVMs), and the scoring stack (ARI, AMI, ROC/AUC, stratified
k-fold CV). Everything is deterministic given a seed.
"""

from .classify import (
    CLASSIFIERS,
    ClassifierSpec,
    FeatureImportance,
    TrainedClassifier,
    binomial_deviance,
    feature_importance,
    fit_classifier,
    gbdt_fit,
    model_summary,
    predict,
    predict_proba,
    pseudo_residuals,
)
from .cluster import (
    CLUSTER_METHODS,
    ClusterAssignment,
    ClusterConfig,
    SweepCell,
    clustering_sweep,
    fit_clusters,
    write_sweep,
)
from .cohort import (
    CASE,
    CONTROL,
    LabeledCohort,
    LabeledPatient,
    PatientTimeline,
    build_timelines,
    label_patient,
    label_timelines,
    pre_index_events,
    read_cohort,
    sample_cohort,
    write_cohort,
)
from .errors import (
    CapacityError,
    ConnectivityError,
    ConvergenceError,
    DependencyError,
    ParseError,
)
from .events import EVENT_KINDS, EventRecord, EventTable, read_events, write_events
from .featurize import (
    FeatureMatrix,
    FeatureVocabulary,
    build_vocabulary,
    featurize,
    read_matrix,
    write_matrix,
)
from .linalg import default_gamma, pairwise_sq_dists, rbf_gram, symmetric_eig
from .metrics import (
    ContingencyTable,
    CvReport,
    RocCurve,
    accuracy,
    adjusted_mutual_info,
    adjusted_rand,
    auc,
    contingency_table,
    cross_val_proba,
    expected_mutual_info,
    kfold_cv,
    mutual_info,
    roc_curve,
    stratified_folds,
    write_cv_report,
    write_roc,
)
from .reduce import (
    REDUCERS,
    Embedding,
    KernelSpec,
    ReducerModel,
    center_kernel,
    fit_reducer,
    kernel_gram,
    max_components,
    read_embedding,
    transform,
    write_embedding,
)
from .synth import GeneratorConfig, generate_events
from .tree import (
    ENTROPY,
    VARIANCE,
    TreeNode,
    accumulate_importance,
    fit_tree,
    predict_tree,
    tree_depth,
)

__version__ = "0.1.0"
