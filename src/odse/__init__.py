"""Optimized dissimilarity-space embedding for symbol sequences.

Sequences are embedded as vectors of alignment dissimilarities to a set
of prototypes; the prototype set and the alignment parameters are tuned
by a genetic algorithm, and a feature-space classifier works on the
embedded vectors.  The package also ships the input-space reference
classifiers and a resampled evaluation harness.
"""

from .alignment import (
    BY_MAX_LENGTH,
    RAW,
    AlignmentCostModel,
    SimilarityMatrix,
    build_cost_model,
    dissimilarities_to_targets,
    dissimilarity_table,
    load_similarity_matrix,
    pam120_path,
    parse_similarity_matrix,
)
from .classifiers import (
    MEDIAN_HEURISTIC,
    KnnConfig,
    SvmConfig,
    TrainedSvm,
    knn_label_from_distances,
    svm_decision,
    svm_predict,
    svm_train,
)
from .datasets import (
    DS200,
    DS1811,
    DS1811_2,
    LabeledSequence,
    SplitSpec,
    k_medoids,
    load_dataset,
    make_ds200,
    make_ds1811,
    make_ds1811_2,
    make_split,
    read_solubility_table,
)
from .embedding import (
    EXPANSION_MEDOID,
    INITIAL,
    DissimilarityMatrix,
    RepresentationSet,
    compute_matrix,
    embed_one,
    euclidean_distances,
    matrix_to_csv,
)
from .entropy import (
    MST,
    QRE,
    EntropyValue,
    EstimatorConfig,
    column_scores,
    mst_entropy,
    normalized_column_entropy,
    normalized_vector_entropy,
    qre_entropy,
)
from .errors import (
    CostModelError,
    DatasetError,
    MatrixFormatError,
    OdseError,
    SymbolError,
    SynthesisError,
    TrainingError,
)
from .experiment import (
    ALL_SYSTEMS,
    INPUT_KNN,
    INPUT_SVM,
    ODSE_KNN,
    ODSE_SVM,
    EvaluationReport,
    ExperimentConfig,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_experiment,
    welch_t_test,
)
from .model import (
    FitnessWeights,
    GaConfig,
    GenerationStat,
    OdseGenome,
    OdseModel,
    classify_all,
    compress,
    expand,
    ga_optimize,
    load_model,
    model_from_json,
    model_to_json,
    repair_genome,
    save_model,
    synthesize_instance,
)
from .sequences import Sequence, parse_fasta, read_fasta

__version__ = "0.1.0"
