"""Turn per-tile candidates into final per-quadrat species sets.

Each tile (a row of the quadrat's score block) contributes at most one
species (its top-1); per quadrat the candidates keep the maximum
contributing score per species. Selection then applies a score
threshold (a static minimum, or one calibrated against a target mean
prediction length), a hard cap on prediction count, a floor of at least
min_len species per quadrat, and optionally z-score normalization and
cross-quadrat metadata merging.

select_corpus does all of it for a whole corpus at once. The corpus is
flattened once into three arrays, quadrat index, species id and score,
ordered by (quadrat, id), and each step is a few numpy passes over them:

- z-scores: quadrats with equal candidate counts n form one (g x n)
  array, and its row reductions give every mean and std. A row
  reduction sums in the same order as the 1-D x.mean() and x.std() of
  one quadrat, so the bits are the same; a segmented sum
  (np.add.reduceat) would sum in another order.
- ranks: one stable sort by (quadrat, -score, id). Quadrat q keeps its
  first min(n_q, max(min_len, min(#{s > tau}, max_len))) candidates in
  that order.
- calibration needs no search: the ranks list every step of the mean
  prediction length (length_steps), so tau comes in closed form.
- merging counts (group, species) keys with np.unique.

zscore_normalize, apply_threshold, length_steps and metadata_merge are
thin wrappers over the same array code, for one set or one corpus.
"""

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    MissingGroupError,
    SelectionError,
    UnattainableTargetError,
)
from .fusion import top1_rows

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
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {value}")
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


def collect_candidates(scores: np.ndarray, quadrat_id: str) -> CandidateSet:
    """Max-merge the top-1 species of every row of a (tiles x species)
    score block into one candidate set."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if len(scores) == 0:
        raise SelectionError("no tiles to collect candidates from")
    entries: dict[int, float] = {}
    species_ids, best = top1_rows(scores)
    for species, score in zip(species_ids.tolist(), best.tolist()):
        if species not in entries or score > entries[species]:
            entries[species] = score
    return CandidateSet(quadrat_id=quadrat_id, entries=dict(sorted(entries.items())))


# ------------------------------------------------------------ flat arrays

@dataclass(frozen=True)
class _Flat:
    """Candidate sets as flat arrays, ordered by (quadrat, species id)."""

    quadrat_ids: list  # one per quadrat, in corpus order
    counts: np.ndarray  # (Q,) entries per quadrat
    starts: np.ndarray  # (Q,) offset of each quadrat's first entry
    quadrat: np.ndarray  # (N,) quadrat index of each entry
    ids: np.ndarray  # (N,) species ids
    scores: np.ndarray  # (N,)

    def positions(self) -> np.ndarray:
        """Each entry's offset within its quadrat."""
        return np.arange(len(self.ids)) - self.starts[self.quadrat]


def _flatten(corpus: Sequence[CandidateSet]) -> _Flat:
    if not corpus:
        raise SelectionError("empty corpus")
    counts = np.fromiter(map(len, [c.entries for c in corpus]), np.int64, len(corpus))
    if not counts.all():
        raise SelectionError(f"empty candidate set for {corpus[counts.argmin()].quadrat_id}")
    n = int(counts.sum())
    ids = np.fromiter(chain.from_iterable(c.entries for c in corpus), np.int64, n)
    scores = np.fromiter(
        chain.from_iterable(c.entries.values() for c in corpus), np.float64, n
    )
    quadrat = np.repeat(np.arange(len(corpus)), counts)
    finite = np.isfinite(scores)
    if not finite.all():
        bad = corpus[quadrat[finite.argmin()]].quadrat_id
        raise SelectionError(f"non-finite candidate score for {bad}")
    if not ((ids[1:] > ids[:-1]) | (quadrat[1:] != quadrat[:-1])).all():
        order = np.lexsort((ids, quadrat))
        ids, scores = ids[order], scores[order]
    starts = np.cumsum(counts) - counts
    return _Flat([c.quadrat_id for c in corpus], counts, starts, quadrat, ids, scores)


def _zscored(flat: _Flat) -> _Flat:
    """(x - mean) / std per quadrat of two or more entries; zero std gives 0."""
    counts = flat.counts
    scores = flat.scores.copy()
    for n in np.unique(counts[counts >= 2]).tolist():
        idx = flat.starts[counts == n][:, None] + np.arange(n)
        x = flat.scores[idx]
        std = x.std(axis=1)
        flat_rows = std == 0.0
        std[flat_rows] = 1.0
        z = (x - x.mean(axis=1, keepdims=True)) / std[:, None]
        z[flat_rows] = 0.0
        scores[idx] = z
    return replace(flat, scores=scores)


def _ranking(flat: _Flat) -> np.ndarray:
    """Entry order by quadrat, then descending score, then ascending id.

    Each quadrat's entries keep their place in the flat arrays, so the
    entry at flat position i has rank positions()[i] in its quadrat.
    Dense ranks of the negated scores (equal scores, -0.0 and 0.0
    included, share one) make (quadrat, -score) a single integer key,
    and a stable sort keeps tied entries in id order. It gives the
    order of np.lexsort((ids, -scores, quadrat)) in a third of the time.
    """
    dense = np.unique(-flat.scores, return_inverse=True)[1]
    return np.argsort(flat.quadrat * (dense.max() + 1) + dense, kind="stable")


def _steps(flat: _Flat, order: np.ndarray, cfg: SelectionConfig):
    rank = flat.positions()
    extra = rank >= cfg.min_len
    if cfg.max_len is not None:
        extra &= rank < cfg.max_len
    base = int(np.minimum(flat.counts, cfg.min_len).sum())
    return base, np.sort(flat.scores[order][extra])


def _kept(flat: _Flat, order: np.ndarray, tau: float, cfg: SelectionConfig) -> np.ndarray:
    """Mask of the kept entries, in flat order."""
    above = np.bincount(flat.quadrat[flat.scores > tau], minlength=len(flat.quadrat_ids))
    if cfg.max_len is not None:
        above = np.minimum(above, cfg.max_len)
    keep = np.minimum(flat.counts, np.maximum(above, cfg.min_len))
    kept = np.empty(len(order), dtype=bool)
    kept[order] = flat.positions() < keep[flat.quadrat]
    return kept


def _group_index(quadrat_ids, groups: Mapping[str, str]) -> np.ndarray:
    index: dict = {}
    try:
        return np.fromiter(
            (index.setdefault(groups[q], len(index)) for q in quadrat_ids),
            np.int64,
            len(quadrat_ids),
        )
    except KeyError as e:
        raise MissingGroupError(f"no group for quadrat {e.args[0]}") from None


def _merge(quadrat, ids, group, k: int):
    """Add to every quadrat the species that more than k quadrats of its
    group hold. Pairs come in and go out sorted by (quadrat, id)."""
    species, dense = np.unique(ids, return_inverse=True)  # keys stay below Q x N
    span = max(len(species), 1)
    keys, members = np.unique(group[quadrat] * span + dense, return_counts=True)
    shared = keys[members > k]
    shared_group = shared // span
    per_group = np.bincount(shared_group, minlength=len(group))
    first = np.cumsum(per_group) - per_group
    added = per_group[group]
    to = np.repeat(np.arange(len(group)), added)
    within = np.arange(len(to)) - np.repeat(np.cumsum(added) - added, added)
    added_species = shared[first[group[to]] + within] % span
    merged = np.unique(np.concatenate([quadrat * span + dense, to * span + added_species]))
    return merged // span, species[merged % span]


def _predictions(quadrat_ids, quadrat, ids) -> list[PredictionSet]:
    ends = np.cumsum(np.bincount(quadrat, minlength=len(quadrat_ids))).tolist()
    species = ids.tolist()
    out, start = [], 0
    for qid, end in zip(quadrat_ids, ends):
        out.append(PredictionSet(quadrat_id=qid, species=tuple(species[start:end])))
        start = end
    return out


def _mean_length(steps, n_quadrats: int, tau: float) -> float:
    base, extra = steps
    above = len(extra) - int(np.searchsorted(extra, tau, side="right"))
    return (base + above) / n_quadrats


def _closed_form(steps, n_quadrats: int, target: float, scores: np.ndarray) -> float:
    base, extra = steps
    levels = (base + np.arange(len(extra) + 1)) / n_quadrats
    k = int(np.searchsorted(levels, target, side="left"))
    if k > len(extra):
        raise UnattainableTargetError(
            f"target mean length {target} exceeds what keeping all candidates yields"
        )
    if k == 0:
        return float(scores.max())
    return float(np.nextafter(extra[len(extra) - k], -np.inf))


def select_corpus(
    corpus: Sequence[CandidateSet],
    cfg: SelectionConfig,
    groups: Optional[Mapping[str, str]] = None,
) -> tuple[list[PredictionSet], float, float]:
    """Calibrate (if configured), threshold and optionally merge a corpus.

    Returns (predictions, threshold, achieved mean prediction length).
    Raises SelectionError, naming the quadrat, for an empty candidate
    set or a non-finite score.
    """
    flat = _flatten(corpus)
    if cfg.zscore:
        flat = _zscored(flat)
    order = _ranking(flat)
    steps = _steps(flat, order, cfg)
    if cfg.target_mean_len is not None:
        tau = _closed_form(steps, len(corpus), cfg.target_mean_len, flat.scores)
    elif cfg.min_logit is not None:
        tau = cfg.min_logit
    else:
        tau = float("-inf")
    kept = _kept(flat, order, tau, cfg)
    quadrat, ids = flat.quadrat[kept], flat.ids[kept]
    if cfg.merge_k is not None:
        if groups is None:
            raise ConfigError("metadata merging needs a quadrat -> group mapping")
        group = _group_index(flat.quadrat_ids, groups)
        quadrat, ids = _merge(quadrat, ids, group, cfg.merge_k)
    preds = _predictions(flat.quadrat_ids, quadrat, ids)
    return preds, tau, _mean_length(steps, len(corpus), tau)


# ------------------------------------------- per-set and per-step wrappers

def zscore_normalize(c: CandidateSet) -> CandidateSet:
    """Replace scores by (x - mean) / std (population std) per quadrat.

    Sets with fewer than two entries are returned unchanged; a zero-std
    set maps to all zeros.
    """
    if len(c.entries) < 2:
        return c
    flat = _zscored(_flatten([c]))
    return CandidateSet(
        quadrat_id=c.quadrat_id, entries=dict(zip(flat.ids.tolist(), flat.scores.tolist()))
    )


def apply_threshold(c: CandidateSet, tau: float, cfg: SelectionConfig) -> PredictionSet:
    """Keep species scoring strictly above tau, then enforce length bounds.

    Survivors are truncated to max_len by descending score (ties to the
    lower id); if fewer than min_len survive, the best-scoring excluded
    candidates are added back until the floor is met. tau may be -inf
    (keep everything), not NaN.
    """
    _check_threshold(tau)
    flat = _flatten([c])
    kept = _kept(flat, _ranking(flat), tau, cfg)
    return _predictions(flat.quadrat_ids, flat.quadrat[kept], flat.ids[kept])[0]


def _check_threshold(tau: float) -> None:
    if math.isnan(tau):
        raise ConfigError("threshold must be a number, got nan")


def length_steps(corpus: Sequence[CandidateSet], cfg: SelectionConfig):
    """The corpus's prediction-length step function, as (base, extra).

    A quadrat keeps min(n_q, max(min_len, min(max_len, #{s > tau})))
    species, so the corpus keeps base = sum_q min(n_q, min_len) plus the
    extra scores above tau: those whose rank in their quadrat (1 = best)
    lies in (min_len, max_len], here sorted ascending.
    """
    flat = _flatten(corpus)
    return _steps(flat, _ranking(flat), cfg)


def mean_prediction_length(
    corpus: Sequence[CandidateSet], tau: float, cfg: SelectionConfig, steps=None
) -> float:
    """Mean over quadrats of the selected species count at threshold tau.

    steps is length_steps(corpus, cfg), if the caller already built it.
    """
    _check_threshold(tau)
    return _mean_length(
        length_steps(corpus, cfg) if steps is None else steps, len(corpus), tau
    )


def bisect_threshold(
    corpus: Sequence[CandidateSet], target: float, cfg: SelectionConfig, steps=None
) -> float:
    """Find a threshold whose mean prediction length best meets target.

    The mean length is a non-increasing step function of the threshold,
    so an exact target is generally unattainable; the threshold returned
    achieves the closest step level at or above the target (more
    predictions rather than fewer). Raises if even keeping every
    candidate is too few.

    With k the fewest extra scores (see length_steps) that lift the
    mean to the target, tau is the float just below the k-th largest of
    them (so exactly the extra scores >= that one are kept); with k = 0
    it is the largest candidate score. steps is length_steps(corpus,
    cfg), if the caller already built it.
    """
    if not math.isfinite(target):
        raise ConfigError(f"target_mean_len must be a finite number, got {target}")
    flat = _flatten(corpus)
    if steps is None:
        steps = _steps(flat, _ranking(flat), cfg)
    if target < cfg.min_len:
        raise ConfigError(f"target {target} below min_len {cfg.min_len}")
    return _closed_form(steps, len(corpus), target, flat.scores)


def metadata_merge(
    preds: Sequence[PredictionSet],
    groups: Mapping[str, str],
    k: int,
) -> list[PredictionSet]:
    """Within each group, broadcast species predicted in more than k members.

    Counting uses the incoming predictions only (one pass), so applying
    the merge twice changes nothing. Length caps are not re-enforced.
    """
    quadrat_ids = [p.quadrat_id for p in preds]
    group = _group_index(quadrat_ids, groups)
    counts = [len(p.species) for p in preds]
    quadrat = np.repeat(np.arange(len(preds)), counts)
    ids = np.fromiter(chain.from_iterable(p.species for p in preds), np.int64, sum(counts))
    return _predictions(quadrat_ids, *_merge(quadrat, ids, group, k))
