"""Seeded synthetic candidate sets for the calibration workload.

Inference is bypassed: each quadrat gets a ``CandidateSet`` built
directly, as ``collect_candidates`` would return it, plus its true
species set. Per quadrat there are 3-6 true species scoring near 0 and
4-30 distractors scoring below all of them. Scores are quantised to a
fixed step, so exact ties occur across (and within) quadrats, as they do
in real fused scores. The spread of the distractors, and an occasional
far outlier, vary from quadrat to quadrat, so that after per-quadrat
z-scoring some quadrats have more than ``max_len`` candidates above the
calibrated threshold and some fewer than ``min_len``.
"""

import numpy as np

from quadflora.metric import GroundTruthTable
from quadflora.selection import CandidateSet

SCORE_STEP = 1.0 / 64.0
N_SPECIES = 2000


def _quantise(x: np.ndarray) -> np.ndarray:
    return np.round(x / SCORE_STEP) * SCORE_STEP


def gen_candidates(seed: int, n_quadrats: int, per_transect: int = 10):
    """Return (candidate sets, ground truth, quadrat -> transect map)."""
    rng = np.random.default_rng(seed)
    candidates = []
    truth = {}
    groups = {}
    for i in range(n_quadrats):
        qid = f"q{i:05d}"
        tid = f"t{i // per_transect:04d}"
        n_true = int(rng.integers(3, 7))
        n_dis = int(rng.integers(4, 31))
        ids = rng.choice(N_SPECIES, size=n_true + n_dis, replace=False)
        true_scores = _quantise(-np.abs(rng.normal(0.0, 0.4, n_true)))
        spread = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        gap = float(rng.uniform(2.0, 40.0)) * SCORE_STEP
        dis_scores = true_scores.min() - gap - rng.exponential(spread, n_dis)
        if rng.random() < 0.2:
            dis_scores[0] -= rng.uniform(6.0, 12.0)
        scores = np.concatenate([true_scores, _quantise(dis_scores)])
        entries = {int(s): float(v) for s, v in sorted(zip(ids.tolist(), scores.tolist()))}
        candidates.append(CandidateSet(quadrat_id=qid, entries=entries))
        truth[qid] = (tid, frozenset(int(s) for s in ids[:n_true]))
        groups[qid] = tid
    return candidates, GroundTruthTable(quadrats=truth), groups
