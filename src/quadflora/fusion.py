"""Taxonomy-fused per-species scores from multi-head tile logits.

Each head's logits become log-probabilities via a stable log-softmax;
the fused score of a species is the sum of its own log-probability and
the log-probabilities of its genus and family, i.e. the log of the
product of the three head probabilities restricted to hierarchy-valid
(species, genus, family) triples. Invalid triples never score.

All functions work row-wise on (tiles x classes) blocks: each row gets
exactly the arithmetic of a single tile's 1-d vector.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .taxonomy import TaxonomyTable


def log_softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ShapeError("log_softmax of an empty vector")
    m = v.max(axis=-1, keepdims=True)
    return v - (m + np.log(np.exp(v - m).sum(axis=-1, keepdims=True)))


@dataclass(frozen=True)
class TileLogits:
    """Raw head outputs as per-level blocks with one tile per row;
    genus/family heads are optional."""

    species: np.ndarray
    genus: Optional[np.ndarray] = None
    family: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FusedScores:
    """Per-species fused log-probabilities (entries <= 0), one tile per row."""

    score: np.ndarray


def fuse(t: TileLogits, tax: TaxonomyTable) -> FusedScores:
    """Combine species/genus/family logits into per-species log-scores.

    An absent genus or family head contributes nothing (0 in log space).
    Present blocks must have the species block's rows.
    """
    sizes = {"species": tax.n_species, "genus": tax.n_genera, "family": tax.n_families}
    rows = t.species.shape[:-1]
    for level, size in sizes.items():
        v = getattr(t, level)
        if v is not None and v.shape != rows + (size,):
            raise ShapeError(f"{level} logits have shape {v.shape}, expected {rows + (size,)}")
    # np.take keeps a block's rows contiguous; a[..., idx] would not
    score = log_softmax(t.species)
    if t.genus is not None:
        score = score + np.take(log_softmax(t.genus), tax.species_to_genus, axis=-1)
    if t.family is not None:
        score = score + np.take(log_softmax(t.family), tax.species_to_family, axis=-1)
    return FusedScores(score=score)


def top1_rows(score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax species and its score per row; ties go to the lowest id."""
    if score.size == 0:
        raise ShapeError("top-1 of an empty score vector")
    ids = np.argmax(score, axis=-1)
    return ids, np.take_along_axis(score, ids[..., None], axis=-1)[..., 0]
