"""Transfer learning for time series classification.

Pre-train a 1-D fully convolutional classifier on a source dataset, swap
its softmax head, fine-tune the whole network on a target dataset, and pick
the source by a warping-distance similarity between datasets reduced to
per-class barycenter prototypes.
"""

from .core import (
    DataValidationError,
    Dataset,
    LabeledSeries,
    UcrParseError,
    as_series,
    find_ucr_pair,
    group_by_class,
    load_ucr_dataset,
    save_ucr_dataset,
    z_normalize,
)
from .dba import dba_average, dba_averages, dba_iteration
from .dtw import dtw_distance, dtw_path, medoid, pairwise_dtw_matrix
from .fcn import (
    AdamState,
    FcnModel,
    TrainConfig,
    TrainHistory,
    adam_step,
    build_model,
    clone_model,
    evaluate,
    forward,
    init_adam_state,
    layer_spec,
    loss_and_gradients,
    train,
)
from .harness import (
    PairResult,
    VariationMatrix,
    accuracy_variation,
    aggregate,
    compare_selection,
    derive_seed,
    load_matrix_results,
    run_matrix,
    run_pair,
    write_report,
    write_variation_csv,
)
from .similarity import (
    ClassPrototypes,
    SimilarityMatrix,
    SourceRanking,
    dataset_distance,
    rank_sources,
    read_matrix_csv,
    reduce_dataset,
    similarity_matrix,
    write_matrix_csv,
    write_ranking_json,
)
from .transfer import (
    ModelFileError,
    fine_tune,
    load_model,
    save_model,
    swap_head,
)

__version__ = "0.1.0"
