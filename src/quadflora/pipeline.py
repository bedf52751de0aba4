"""End-to-end inference: crop, tile, score, smooth, bag, fuse, select.

Per quadrat, every (crop, model, level) gives one block of logits: a
tiles x classes array over every scale's tiles in (scale, row, col)
order. Each block is kernel-smoothed on each scale's grid if
configured; the blocks of all (crop, model) members are then averaged
(bagging), fused row-wise through the taxonomy, and each row's top-1
candidate is max-merged across the quadrat. Threshold calibration is
corpus-global: one threshold serves the whole test set.

Each head runs once per (crop, scale) grid, as one GEMM over the
grid's pooled tile features, and every freshly computed block is
rounded to 9 significant digits (the logit cache's text precision)
before use, so runs that read a warm cache are bit-identical to the
runs that filled it. The batch is always a whole grid, so a cached row
does not depend on which other scales, crops or rows a run computes.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._util import canonical9, fmt9
from .ensemble import HeadSelection, ModelOutput, bag, compose_model, smooth_grid
from .ensemble import kernel_smooth  # noqa: F401  not called; the benchmark tracer wraps it
from .errors import ConfigError, QuadfloraError, ShapeError
from .fusion import TileLogits, fuse
from .geometry import CropSpec, GridSpec, Rect, central_crop, tile_grid
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
from .synthworld import LEVELS, Quadrat, ToyModel, head_logits, tile_features
from .taxonomy import TaxonomyTable


@dataclass(frozen=True)
class RunConfig:
    """Full inference configuration for one run.

    head_combos names registry variants to assemble into models; leave
    None when passing ready-made models to run(). seed is carried for
    provenance, the pipeline itself draws no random numbers.
    """

    scales: tuple
    crop_fracs: tuple = (0.0,)
    overlap_frac: float = 0.0
    head_combos: Optional[tuple] = None
    kernel_w: Optional[float] = None
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    seed: int = 0

    def __post_init__(self):
        if not self.scales:
            raise ConfigError("at least one tiling scale is required")
        if not self.crop_fracs:
            raise ConfigError("at least one crop fraction is required")
        for s in self.scales:
            GridSpec(s, self.overlap_frac)  # validates both
        for f in self.crop_fracs:
            CropSpec(f)
        if self.kernel_w is not None and not self.kernel_w >= 0:
            raise ConfigError(f"kernel_w must be >= 0, got {self.kernel_w}")


def _logit_block(model, level, quadrat, crop, grids, cache, features) -> np.ndarray:
    """(tiles x classes) logits of one model level over the crop's grids.

    Per (crop, scale) grid, rows come from the cache where present. If
    any row misses, the head runs once on the whole grid (one GEMM), the
    result is rounded by one canonical9 call, and only the missing rows
    are put. The batch is always the whole grid because GEMM's last bits
    can depend on the batch size; so a row's value depends on its cache
    key alone, whatever else a run asks for or the cache holds.

    features is the crop's list, shared by every model and level; the
    first cache miss puts the crop's (tiles x D) pooled features in it.
    """
    rows = []
    for grid in grids:
        keys = [
            (model.model_id, quadrat.quadrat_id, crop, t.scale, t.row, t.col, level)
            for t in grid
        ]
        got = [cache.get(key) for key in keys] if cache is not None else [None] * len(keys)
        missing = [i for i, r in enumerate(got) if r is None]
        if missing:
            if quadrat.cells is None:
                raise QuadfloraError(
                    f"quadrat {quadrat.quadrat_id} has no features and the cache "
                    f"lacks {keys[missing[0]]}"
                )
            if not features:
                features.append(np.array([tile_features(quadrat, t) for g in grids for t in g]))
            batch = features[0][len(rows) : len(rows) + len(grid)]
            fresh = canonical9(head_logits(model, level, batch))
            for i in missing:
                got[i] = fresh[i]
                if cache is not None:
                    cache.put(keys[i], fresh[i])
        rows += got
    if any(r.shape != rows[0].shape for r in rows):
        raise ShapeError(f"{level} logits of {model.model_id} differ in length across tiles")
    return np.vstack(rows)


def infer_quadrat(
    quadrat: Quadrat,
    cfg: RunConfig,
    tax: TaxonomyTable,
    models: Sequence[ToyModel],
    cache=None,
) -> CandidateSet:
    """Candidate species for one quadrat under the configured pipeline."""
    if not models:
        raise ConfigError("at least one model is required")
    scales = sorted(set(cfg.scales))
    image = Rect(0, 0, quadrat.grid_cells, quadrat.grid_cells)
    members = []
    for crop_frac in cfg.crop_fracs:
        crop = fmt9(100.0 * crop_frac)
        region = central_crop(image, CropSpec(crop_frac))
        grids = [tile_grid(region, GridSpec(s, cfg.overlap_frac)) for s in scales]
        tiles = tuple(t for grid in grids for t in grid)
        features = []
        for model in models:
            blocks = {}
            for level in LEVELS:
                if model.head_for(level) is None:
                    continue
                block = _logit_block(model, level, quadrat, crop, grids, cache, features)
                if cfg.kernel_w:
                    start = 0
                    for n in scales:
                        stop = start + n * n
                        block[start:stop] = smooth_grid(block[start:stop], cfg.kernel_w, n)
                        start = stop
                blocks[level] = block
            block = TileLogits(tile=tiles, **blocks)
            members.append(ModelOutput(f"{model.model_id}|crop={crop}", {"block": block}))
    scored = bag(members).tiles["block"]
    if cfg.selection.channel == "fused":
        scored = fuse(scored, tax)
    return collect_candidates([scored], cfg.selection, quadrat.quadrat_id)


def infer_corpus(
    corpus: Sequence[Quadrat],
    cfg: RunConfig,
    tax: TaxonomyTable,
    models: Sequence[ToyModel],
    cache=None,
) -> list[CandidateSet]:
    """Candidate sets for every quadrat, in input order."""
    return [infer_quadrat(q, cfg, tax, models, cache) for q in corpus]


def select_predictions(
    candidates: Sequence[CandidateSet],
    cfg: RunConfig,
    groups=None,
) -> tuple[list[PredictionSet], float, float]:
    """Calibrate (if configured), threshold, and optionally merge.

    Returns (predictions, threshold, achieved mean prediction length).
    """
    sel = cfg.selection
    if sel.zscore:
        candidates = [zscore_normalize(c) for c in candidates]
    if sel.target_mean_len is not None:
        tau = bisect_threshold(candidates, sel.target_mean_len, sel)
    elif sel.min_logit is not None:
        tau = sel.min_logit
    else:
        tau = float("-inf")
    preds = [apply_threshold(c, tau, sel) for c in candidates]
    achieved = mean_prediction_length(candidates, tau, sel)
    if sel.merge_k is not None:
        if groups is None:
            raise ConfigError("metadata merging needs a quadrat -> group mapping")
        preds = metadata_merge(preds, groups, sel.merge_k)
    return preds, tau, achieved


def run(
    corpus: Sequence[Quadrat],
    cfg: RunConfig,
    tax: TaxonomyTable,
    models: Optional[Sequence[ToyModel]] = None,
    registry=None,
    cache=None,
) -> list[PredictionSet]:
    """Full corpus inference; models come either ready-made or composed
    from a head registry via cfg.head_combos."""
    if models is None:
        if registry is None or cfg.head_combos is None:
            raise ConfigError("run() needs models, or a registry plus cfg.head_combos")
        models = [compose_model(registry, sel) for sel in cfg.head_combos]
    candidates = infer_corpus(corpus, cfg, tax, models, cache)
    groups = {q.quadrat_id: q.transect_id for q in corpus}
    preds, _, _ = select_predictions(candidates, cfg, groups)
    return preds


__all__ = [
    "RunConfig",
    "infer_quadrat",
    "infer_corpus",
    "select_predictions",
    "run",
    "HeadSelection",
]
