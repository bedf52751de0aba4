"""Turn per-tile candidates into final per-quadrat species sets.

Each tile contributes at most one species (its top-1); per quadrat the
candidates keep the maximum contributing score per species. Selection
then applies a score threshold (a static minimum, or one calibrated
against a target mean prediction length), a hard cap on prediction
count, a floor of at least min_len species per quadrat, and optionally
z-score normalization and cross-quadrat metadata merging. Calibration
needs no search: one sort of the scores lists every step of the mean
length, so the threshold comes in closed form.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    MissingGroupError,
    SelectionError,
    UnattainableTargetError,
)
from .fusion import FusedScores, TileLogits, top1_rows

CHANNELS = ("fused", "raw")


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for candidate scoring and final selection.

    channel picks which score feeds selection: "fused" uses the
    taxonomy-fused log-scores, "raw" the species head logits alone.
    Exactly one of min_logit / target_mean_len may be set; with neither,
    every candidate survives (subject to max_len).
    """

    channel: str = "fused"
    min_logit: Optional[float] = None
    target_mean_len: Optional[float] = None
    max_len: Optional[int] = None  # None = unbounded
    min_len: int = 1
    zscore: bool = False
    merge_k: Optional[int] = None

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ConfigError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        thresholds = {"min_logit": self.min_logit, "target_mean_len": self.target_mean_len}
        for key, value in thresholds.items():
            if value is not None and math.isnan(value):
                raise ConfigError(f"{key} must be a number, got nan")
        if self.min_logit is not None and self.target_mean_len is not None:
            raise ConfigError("set at most one of min_logit and target_mean_len")
        if self.min_len < 1:
            raise ConfigError("min_len must be >= 1")
        if self.max_len is not None and self.max_len < self.min_len:
            raise ConfigError(f"max_len {self.max_len} below min_len {self.min_len}")
        if self.target_mean_len is not None and self.target_mean_len < self.min_len:
            raise ConfigError(
                f"target mean length {self.target_mean_len} below min_len {self.min_len}"
            )
        if self.merge_k is not None and self.merge_k < 1:
            raise ConfigError("merge_k must be >= 1")


@dataclass(frozen=True)
class CandidateSet:
    """Per-quadrat species candidates with their best per-tile scores."""

    quadrat_id: str
    entries: dict  # species id -> score

    def scores(self) -> np.ndarray:
        return np.array([self.entries[s] for s in sorted(self.entries)], dtype=np.float64)


@dataclass(frozen=True)
class PredictionSet:
    """Final species set for one quadrat, ascending ids."""

    quadrat_id: str
    species: tuple

    def __post_init__(self):
        if not self.species:
            raise SelectionError(f"empty prediction for {self.quadrat_id}")
        if any(b <= a for a, b in zip(self.species, self.species[1:])):
            raise SelectionError(f"prediction ids not strictly ascending: {self.species}")


def collect_candidates(
    tiles: Sequence, cfg: SelectionConfig, quadrat_id: str = ""
) -> CandidateSet:
    """Max-merge the top-1 species of every tile into one candidate set.

    For the fused channel, tiles are FusedScores; for the raw channel,
    TileLogits (scored by their species head logits). Either may be a
    block, whose rows are tiles.
    """
    if not tiles:
        raise SelectionError("no tiles to collect candidates from")
    if cfg.channel == "fused":
        if not all(isinstance(t, FusedScores) for t in tiles):
            raise SelectionError("fused channel expects FusedScores tiles")
        blocks = [t.score for t in tiles]
    else:
        if not all(isinstance(t, TileLogits) for t in tiles):
            raise SelectionError("raw channel expects TileLogits tiles")
        blocks = [t.species for t in tiles]
    entries: dict[int, float] = {}
    for block in blocks:
        species_ids, scores = top1_rows(np.atleast_2d(np.asarray(block, dtype=np.float64)))
        for species, score in zip(species_ids.tolist(), scores.tolist()):
            if species not in entries or score > entries[species]:
                entries[species] = score
    return CandidateSet(quadrat_id=quadrat_id, entries=dict(sorted(entries.items())))


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


def _ranked(items: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    return sorted(items, key=lambda p: (-p[1], p[0]))


def apply_threshold(c: CandidateSet, tau: float, cfg: SelectionConfig) -> PredictionSet:
    """Keep species scoring strictly above tau, then enforce length bounds.

    Survivors are truncated to max_len by descending score (ties to the
    lower id); if fewer than min_len survive, the best-scoring excluded
    candidates are added back until the floor is met.
    """
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


def _length_steps(corpus: Sequence[CandidateSet], cfg: SelectionConfig):
    """The corpus's prediction-length step function, as (base, extra).

    A quadrat keeps min(n_q, max(min_len, min(max_len, #{s > tau})))
    species, so the corpus keeps base = sum_q min(n_q, min_len) plus the
    extra scores above tau: those whose rank in their quadrat (1 = best)
    lies in (min_len, max_len], here sorted ascending.
    """
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


def mean_prediction_length(
    corpus: Sequence[CandidateSet], tau: float, cfg: SelectionConfig
) -> float:
    """Mean over quadrats of the selected species count at threshold tau."""
    base, extra = _length_steps(corpus, cfg)
    above = len(extra) - int(np.searchsorted(extra, tau, side="right"))
    return (base + above) / len(corpus)


def bisect_threshold(
    corpus: Sequence[CandidateSet], target: float, cfg: SelectionConfig
) -> float:
    """Find a threshold whose mean prediction length best meets target.

    The mean length is a non-increasing step function of the threshold,
    so an exact target is generally unattainable; the threshold returned
    achieves the closest step level at or above the target (more
    predictions rather than fewer). Raises if even keeping every
    candidate is too few.

    With k the fewest extra scores (see _length_steps) that lift the
    mean to the target, tau is the float just below the k-th largest of
    them (so exactly the extra scores >= that one are kept); with k = 0
    it is the largest candidate score.
    """
    if math.isnan(target):
        raise ConfigError("target_mean_len must be a number, got nan")
    base, extra = _length_steps(corpus, cfg)
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
    preds: Sequence[PredictionSet],
    groups: Mapping[str, str],
    k: int,
) -> list[PredictionSet]:
    """Within each group, broadcast species predicted in more than k members.

    Counting uses the incoming predictions only (one pass), so applying
    the merge twice changes nothing. Length caps are not re-enforced.
    """
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
