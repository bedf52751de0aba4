"""The per-quadrat form of selection, kept as test oracles.

Each candidate set is z-scored, ranked, thresholded and merged on its
own, through Python dicts and sorts, and calibration builds its step
function from one sort per quadrat. The library runs the same steps over
flat arrays of a whole corpus instead; tests compare it against these.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from quadflora.errors import (
    ConfigError,
    MissingGroupError,
    SelectionError,
    UnattainableTargetError,
)
from quadflora.selection import CandidateSet, PredictionSet, SelectionConfig


def zscore_normalize(c: CandidateSet) -> CandidateSet:
    """Replace scores by (x - mean) / std (population std) per quadrat.

    Sets with fewer than two entries are returned unchanged; a zero-std
    set maps to all zeros.
    """
    if len(c.entries) < 2:
        return c
    ids = sorted(c.entries)
    x = np.array([c.entries[s] for s in ids], dtype=np.float64)
    std = float(x.std())
    z = np.zeros_like(x) if std == 0.0 else (x - x.mean()) / std
    return CandidateSet(quadrat_id=c.quadrat_id, entries=dict(zip(ids, z.tolist())))


def _ranked(items):
    return sorted(items, key=lambda p: (-p[1], p[0]))


def _check_threshold(tau: float) -> None:
    if math.isnan(tau):
        raise ConfigError("threshold must be a number, got nan")


def apply_threshold(c: CandidateSet, tau: float, cfg: SelectionConfig) -> PredictionSet:
    """Keep species scoring strictly above tau, then enforce length bounds."""
    _check_threshold(tau)
    kept = _ranked([(s, sc) for s, sc in c.entries.items() if sc > tau])
    if cfg.max_len is not None:
        kept = kept[: cfg.max_len]
    if len(kept) < cfg.min_len:
        for s, sc in _ranked([(s, sc) for s, sc in c.entries.items() if sc <= tau]):
            if len(kept) >= cfg.min_len:
                break
            kept.append((s, sc))
    return PredictionSet(
        quadrat_id=c.quadrat_id, species=tuple(sorted(s for s, _ in kept))
    )


def length_steps(corpus: Sequence[CandidateSet], cfg: SelectionConfig):
    """The corpus's prediction-length step function, as (base, extra)."""
    if not corpus:
        raise SelectionError("empty corpus")
    base, extra = 0, []
    for c in corpus:
        if not c.entries:
            raise SelectionError(f"empty candidate set for {c.quadrat_id}")
        ranked = np.sort(np.fromiter(c.entries.values(), np.float64))[::-1]
        base += min(len(ranked), cfg.min_len)
        extra.append(ranked[cfg.min_len : cfg.max_len])
    return base, np.sort(np.concatenate(extra))


def mean_prediction_length(corpus, tau, cfg, steps=None) -> float:
    _check_threshold(tau)
    base, extra = length_steps(corpus, cfg) if steps is None else steps
    above = len(extra) - int(np.searchsorted(extra, tau, side="right"))
    return (base + above) / len(corpus)


def bisect_threshold(corpus, target, cfg, steps=None) -> float:
    """The closed-form calibrated threshold over the per-quadrat steps."""
    if not math.isfinite(target):
        raise ConfigError(f"target_mean_len must be a finite number, got {target}")
    base, extra = length_steps(corpus, cfg) if steps is None else steps
    if target < cfg.min_len:
        raise ConfigError(f"target {target} below min_len {cfg.min_len}")
    levels = (base + np.arange(len(extra) + 1)) / len(corpus)
    k = int(np.searchsorted(levels, target, side="left"))
    if k > len(extra):
        raise UnattainableTargetError(
            f"target mean length {target} exceeds what keeping all candidates yields"
        )
    if k == 0:
        return float(np.concatenate([c.scores() for c in corpus]).max())
    return float(np.nextafter(extra[len(extra) - k], -np.inf))


def metadata_merge(
    preds: Sequence[PredictionSet], groups: Mapping[str, str], k: int
) -> list[PredictionSet]:
    """Within each group, broadcast species predicted in more than k members."""
    counts: dict[str, dict[int, int]] = {}
    for p in preds:
        if p.quadrat_id not in groups:
            raise MissingGroupError(f"no group for quadrat {p.quadrat_id}")
        per_group = counts.setdefault(groups[p.quadrat_id], {})
        for s in p.species:
            per_group[s] = per_group.get(s, 0) + 1
    out = []
    for p in preds:
        shared = {s for s, n in counts[groups[p.quadrat_id]].items() if n > k}
        merged = tuple(sorted(set(p.species) | shared))
        out.append(PredictionSet(quadrat_id=p.quadrat_id, species=merged))
    return out


def select_predictions(candidates, sel: SelectionConfig, groups=None):
    """Calibrate, threshold and merge one quadrat at a time.

    Returns (predictions, threshold, achieved mean prediction length).
    """
    if sel.zscore:
        candidates = [zscore_normalize(c) for c in candidates]
    steps = length_steps(candidates, sel)
    if sel.target_mean_len is not None:
        tau = bisect_threshold(candidates, sel.target_mean_len, sel, steps)
    elif sel.min_logit is not None:
        tau = sel.min_logit
    else:
        tau = float("-inf")
    preds = [apply_threshold(c, tau, sel) for c in candidates]
    achieved = mean_prediction_length(candidates, tau, sel, steps)
    if sel.merge_k is not None:
        if groups is None:
            raise ConfigError("metadata merging needs a quadrat -> group mapping")
        preds = metadata_merge(preds, groups, sel.merge_k)
    return preds, tau, achieved
