"""quadflora: multi-label species prediction for quadrat surveys.

Turns per-tile single-label classifier logits into per-quadrat species
sets via taxonomy fusion, multi-scale tile aggregation, and calibrated
thresholding, and scores predictions with the transect-averaged F1.
"""

from .ensemble import HeadSelection, bag, compose_model, kernel_smooth
from .errors import QuadfloraError
from .fusion import FusedScores, TileLogits, fuse, log_softmax, top1_rows
from .geometry import CropSpec, GridSpec, Rect, TileRef, central_crop, tile_grid
from .metric import GroundTruthTable, ScoreReport, quadrat_f1, score
from .pipeline import RunConfig, infer_corpus, infer_quadrat, run, select_predictions
from .selection import (
    CandidateSet,
    PredictionSet,
    SelectionConfig,
    apply_threshold,
    bisect_threshold,
    collect_candidates,
    mean_prediction_length,
    metadata_merge,
    zscore_normalize,
)
from .synthworld import (
    HeadRegistry,
    LinearHead,
    Quadrat,
    SynthConfig,
    ToyModel,
    TwoLayerHead,
    gen_world,
    head_logits,
    tile_features,
)
from .taxonomy import TaxonomyTable, load_taxonomy, write_taxonomy_csv

__version__ = "0.1.0"

__all__ = [
    "QuadfloraError",
    "TaxonomyTable", "load_taxonomy", "write_taxonomy_csv",
    "Rect", "CropSpec", "GridSpec", "TileRef", "central_crop", "tile_grid",
    "SynthConfig", "Quadrat", "ToyModel", "LinearHead", "TwoLayerHead", "HeadRegistry",
    "gen_world", "tile_features", "head_logits",
    "TileLogits", "FusedScores", "log_softmax", "fuse", "top1_rows",
    "HeadSelection", "bag", "compose_model", "kernel_smooth",
    "CandidateSet", "SelectionConfig", "PredictionSet", "collect_candidates",
    "zscore_normalize", "apply_threshold", "bisect_threshold",
    "mean_prediction_length", "metadata_merge",
    "GroundTruthTable", "ScoreReport", "quadrat_f1", "score",
    "RunConfig", "infer_quadrat", "infer_corpus", "select_predictions", "run",
    "__version__",
]
