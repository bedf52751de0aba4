"""Transect-averaged per-quadrat F1, the survey benchmark score.

Per quadrat, F1 compares the predicted species set with the true set:
2 * |pred & truth| / (|pred| + |truth|). Quadrat scores are averaged
within each transect, and the final score is the unweighted mean of the
transect averages, so small transects count as much as large ones.
"""

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DuplicatePredictionError, MetricError
from .selection import PredictionSet


@dataclass(frozen=True)
class GroundTruthTable:
    """quadrat id -> (transect id, true species set); truth never empty."""

    quadrats: dict  # str -> (str, frozenset[int])

    def __post_init__(self):
        for qid, (tid, truth) in self.quadrats.items():
            if not truth:
                raise MetricError(f"empty truth set for quadrat {qid}")
            if not isinstance(tid, str) or not tid:
                raise MetricError(f"quadrat {qid} has no transect id")


@dataclass(frozen=True)
class ScoreReport:
    final: float
    per_transect: dict  # transect id -> mean quadrat F1
    per_quadrat: dict  # quadrat id -> F1
    missing_quadrats: tuple = field(default_factory=tuple)
    unknown_quadrats: tuple = field(default_factory=tuple)


def quadrat_f1(pred: Iterable[int], truth: Iterable[int]) -> float:
    """Set F1 of one quadrat; an empty prediction scores 0."""
    pred = set(pred)
    truth = set(truth)
    if not pred:
        return 0.0
    return 2.0 * len(pred & truth) / (len(pred) + len(truth))


def score(preds: Sequence[PredictionSet], gt: GroundTruthTable) -> ScoreReport:
    """Evaluate predictions against ground truth, per the survey formula.

    Every ground-truth quadrat must appear exactly once; a missing
    prediction counts as empty (F1 0) and a prediction for an unknown
    quadrat is ignored, both with a warning. Sums run in sorted-id order
    so reported values are reproducible bit for bit.
    """
    if not gt.quadrats:
        raise MetricError("ground truth has no quadrats")
    by_quadrat: dict[str, PredictionSet] = {}
    for p in preds:
        if p.quadrat_id in by_quadrat:
            raise DuplicatePredictionError(f"duplicate prediction for {p.quadrat_id}")
        by_quadrat[p.quadrat_id] = p

    unknown = tuple(sorted(set(by_quadrat) - set(gt.quadrats)))
    missing = tuple(sorted(set(gt.quadrats) - set(by_quadrat)))
    if unknown:
        warnings.warn(f"ignoring predictions for unknown quadrats: {unknown}")
    if missing:
        warnings.warn(f"missing predictions scored as empty: {missing}")

    per_quadrat = {}
    members: dict[str, list[str]] = {}
    for qid in sorted(gt.quadrats):
        tid, truth = gt.quadrats[qid]
        pred = by_quadrat.get(qid)
        per_quadrat[qid] = quadrat_f1(pred.species if pred else (), truth)
        members.setdefault(tid, []).append(qid)

    per_transect = {
        tid: sum(per_quadrat[qid] for qid in qids) / len(qids)
        for tid, qids in sorted(members.items())
    }
    final = sum(per_transect[tid] for tid in sorted(per_transect)) / len(per_transect)
    return ScoreReport(
        final=final,
        per_transect=per_transect,
        per_quadrat=per_quadrat,
        missing_quadrats=missing,
        unknown_quadrats=unknown,
    )
