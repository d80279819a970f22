"""Incremental example mining for streaming segmentation datasets.

The package keeps a pool of annotated examples with per-example error
bookkeeping, selects balanced hard/easy training subsets as new chunks
arrive, and drops persistent outliers. A small per-pixel logistic
segmentation model, a synthetic shifted-stream data generator, and a
four-strategy comparison harness make the loop runnable end to end on a
laptop.
"""

from .errors import DataError, IEMError, NumericError
from .metrics import (
    MetricsBreakdown,
    binarize,
    connected_components,
    error_term,
    evaluate_detection,
    evaluate_example,
    jaccard_index,
    match_lesions,
    mean_cross_entropy,
)
from .pgm import ImageCache, read_mask_pgm, read_pgm, write_mask_pgm, write_pgm
from .pool import (
    ExampleRecord,
    PoolState,
    add_chunk,
    load_state,
    record_training_update,
    refresh_errors,
    save_state,
)
from .selection import (
    SelectedSubset,
    SelectionConfig,
    compute_partition_number,
    partition_number_for,
    select_subset,
)
from .synth import (
    ChunkSpec,
    Scenario,
    default_scenario,
    generate_chunk,
    generate_scenario,
    read_manifest,
    render_chunk,
    write_manifest,
)
from .trainer import (
    AugmentRecipe,
    ModelParams,
    TrainConfig,
    forward,
    gradient,
    incremental_step,
    init_params,
    load_params,
    save_params,
    train_on_subset,
)
from .harness import (
    STRATEGIES,
    StageResult,
    StrategyReport,
    evaluate_model,
    run_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentRecipe", "ChunkSpec", "DataError", "ExampleRecord", "IEMError",
    "ImageCache", "MetricsBreakdown", "ModelParams", "NumericError",
    "PoolState", "STRATEGIES", "Scenario", "SelectedSubset", "SelectionConfig",
    "StageResult", "StrategyReport", "TrainConfig",
    "add_chunk", "binarize", "compute_partition_number", "connected_components",
    "default_scenario", "error_term", "evaluate_detection", "evaluate_example",
    "evaluate_model", "forward", "generate_chunk", "generate_scenario",
    "gradient", "incremental_step", "init_params", "jaccard_index",
    "load_params", "load_state", "match_lesions", "mean_cross_entropy",
    "partition_number_for", "read_manifest", "read_mask_pgm", "read_pgm",
    "record_training_update", "refresh_errors", "render_chunk", "run_strategy",
    "save_params", "save_state", "select_subset", "train_on_subset",
    "write_manifest", "write_mask_pgm", "write_pgm",
]
