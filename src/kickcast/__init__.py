"""Benchmark toolkit for anticipating ball actions in football broadcasts.

The pipeline, end to end: parse per-game annotation files
(:mod:`~kickcast.annotations`), derive evaluation and training windows
(:mod:`~kickcast.windowing`), assign ground truth to prediction slots
(:mod:`~kickcast.targets`), check training losses against scalar references
(:mod:`~kickcast.losses`), decode and score predictions with tolerance-window
mAP (:mod:`~kickcast.metrics`), and probe the whole thing with synthetic
baselines (:mod:`~kickcast.baselines`).
"""

from .annotations import (
    ActionClass,
    ActionInstance,
    AnnotationError,
    ClassStats,
    GameAnnotations,
    RETAINED_CLASSES,
    class_stats,
    filter_classes,
    parse_annotations,
    stats_from_counts,
    write_annotations,
)
from .baselines import BaselineSpec, run_baseline
from .config import BenchConfig
from .losses import (
    LossParts,
    SlotOutput,
    loss_class,
    loss_detection,
    loss_segmentation,
    loss_time,
    total_loss,
)
from .metrics import (
    DEFAULT_DELTAS,
    EvalReport,
    Prediction,
    average_precision,
    decode_predictions,
    evaluate,
    match_window,
)
from .targets import Assignment, HeadVariant, SlotTarget, assign_for_variant, hungarian
from .timecodec import decode_time, encode_time
from .windowing import (
    EvalClip,
    GtAction,
    SegGrid,
    TrainClip,
    make_eval_clips,
    make_train_clips,
    segmentation_targets,
)

__version__ = "0.1.0"

__all__ = [
    "ActionClass",
    "ActionInstance",
    "AnnotationError",
    "Assignment",
    "BaselineSpec",
    "BenchConfig",
    "ClassStats",
    "DEFAULT_DELTAS",
    "EvalClip",
    "EvalReport",
    "GameAnnotations",
    "GtAction",
    "HeadVariant",
    "LossParts",
    "Prediction",
    "RETAINED_CLASSES",
    "SegGrid",
    "SlotOutput",
    "SlotTarget",
    "TrainClip",
    "assign_for_variant",
    "average_precision",
    "class_stats",
    "decode_predictions",
    "decode_time",
    "encode_time",
    "evaluate",
    "filter_classes",
    "hungarian",
    "loss_class",
    "loss_detection",
    "loss_segmentation",
    "loss_time",
    "make_eval_clips",
    "make_train_clips",
    "match_window",
    "parse_annotations",
    "run_baseline",
    "segmentation_targets",
    "stats_from_counts",
    "total_loss",
    "write_annotations",
    "__version__",
]
