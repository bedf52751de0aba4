#!/usr/bin/env python3
"""Walkthrough: calibrating a score threshold to a mean prediction length.

Candidate scores per quadrat induce a step function: as the threshold
rises, the mean number of kept species per quadrat falls. Exact
targets are generally unattainable, so calibration returns the
threshold achieving the closest attainable level at or above the
target (more species rather than fewer). One sort lists every step, so
that threshold comes in closed form: the float just below the score
whose inclusion first lifts the mean to the target.
"""

import numpy as np

from quadflora import CandidateSet, SelectionConfig, apply_threshold, bisect_threshold
from quadflora.selection import mean_prediction_length

rng = np.random.default_rng(7)

# ------------------------------------------------------------------
# Synthetic candidate sets: 30 quadrats, 2..9 scored species each.
# ------------------------------------------------------------------
corpus = []
for i in range(30):
    n = int(rng.integers(2, 10))
    species = rng.choice(50, size=n, replace=False)
    scores = rng.normal(loc=0.0, scale=1.0, size=n)
    corpus.append(
        CandidateSet(
            quadrat_id=f"q{i:02d}",
            entries={int(s): float(v) for s, v in zip(species, scores)},
        )
    )

cfg = SelectionConfig()

# ------------------------------------------------------------------
# The mean-length step function, probed at every candidate score.
# ------------------------------------------------------------------
scores = np.unique(np.concatenate([c.scores() for c in corpus]))
probes = np.concatenate([[scores[0] - 1.0], scores[:: len(scores) // 8]])
print("threshold -> mean prediction length (non-increasing):")
for t in probes:
    print(f"  {t:+8.3f} -> {mean_prediction_length(corpus, float(t), cfg):6.3f}")

# ------------------------------------------------------------------
# Calibrate for several targets, mirroring a mean-length sweep.
# ------------------------------------------------------------------
print("\ncalibration:")
print(f"{'target':>8} {'threshold':>12} {'achieved':>9}")
for target in (2.0, 3.0, 4.0, 4.2):
    tau = bisect_threshold(corpus, target, cfg)
    achieved = mean_prediction_length(corpus, tau, cfg)
    print(f"{target:>8.2f} {tau:>12.5f} {achieved:>9.4f}")

# ------------------------------------------------------------------
# Applying the threshold: species above tau survive, capped at
# max_len, never fewer than min_len per quadrat.
# ------------------------------------------------------------------
tau = bisect_threshold(corpus, 4.0, cfg)
capped = SelectionConfig(max_len=9)
preds = [apply_threshold(c, tau, capped) for c in corpus]
lengths = [len(p.species) for p in preds]
print(f"\nfinal selections at target 4.0: mean {np.mean(lengths):.3f},",
      f"min {min(lengths)}, max {max(lengths)}")
print("first three quadrats:", [(p.quadrat_id, p.species) for p in preds[:3]])
