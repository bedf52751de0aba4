import numpy as np
import pytest

from quadflora.errors import DuplicatePredictionError, MetricError
from quadflora.metric import GroundTruthTable, quadrat_f1, score
from quadflora.selection import PredictionSet


def brute_force_score(pred_sets, gt_rows):
    """Independent re-evaluation of the survey formula with plain loops.

    gt_rows: list of (quadrat_id, transect_id, truth set).
    """
    pred_by_q = {p.quadrat_id: set(p.species) for p in pred_sets}
    transects = {}
    for qid, tid, truth in gt_rows:
        pred = pred_by_q.get(qid, set())
        inter = len(pred & set(truth))
        f1 = 0.0 if not pred else 2.0 * inter / (len(pred) + len(truth))
        transects.setdefault(tid, []).append(f1)
    total = 0.0
    for tid in transects:
        total += sum(transects[tid]) / len(transects[tid])
    return total / len(transects)


def gt_table(rows):
    return GroundTruthTable(quadrats={q: (t, frozenset(s)) for q, t, s in rows})


class TestQuadratF1:
    def test_perfect(self):
        assert quadrat_f1({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert quadrat_f1({1, 2}, {3, 4}) == 0.0

    def test_half(self):
        # oracle: 2 * 1 / (2 + 2)
        assert quadrat_f1({1, 2}, {2, 3}) == 0.5

    def test_empty_prediction(self):
        assert quadrat_f1(set(), {1}) == 0.0


class TestScore:
    def test_one_transect_two_quadrats(self):
        gt = gt_table([("q0", "t0", {1, 2}), ("q1", "t0", {1})])
        preds = [
            PredictionSet("q0", (1, 3)),  # f1 = 2*1/(2+2) = 0.5
            PredictionSet("q1", (1,)),  # f1 = 1.0
        ]
        report = score(preds, gt)
        assert report.per_quadrat["q0"] == 0.5
        assert report.per_transect["t0"] == 0.75
        assert report.final == 0.75

    def test_transects_weighted_equally(self):
        gt = gt_table(
            [("q0", "t0", {1}), ("q1", "t0", {1}), ("q2", "t0", {1}), ("q3", "t1", {1})]
        )
        preds = [
            PredictionSet("q0", (1,)),
            PredictionSet("q1", (1,)),
            PredictionSet("q2", (1,)),
            PredictionSet("q3", (2,)),
        ]
        assert score(preds, gt).final == 0.5

    def test_all_perfect(self):
        gt = gt_table([(f"q{i}", f"t{i % 2}", {i, i + 1}) for i in range(6)])
        preds = [PredictionSet(f"q{i}", (i, i + 1)) for i in range(6)]
        assert score(preds, gt).final == 1.0

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rows = []
            preds = []
            for t in range(int(rng.integers(1, 6))):
                for q in range(int(rng.integers(1, 6))):
                    qid = f"q{t}_{q}"
                    truth = set(
                        rng.choice(10, size=int(rng.integers(1, 5)), replace=False).tolist()
                    )
                    rows.append((qid, f"t{t}", truth))
                    pred = set(
                        rng.choice(10, size=int(rng.integers(1, 5)), replace=False).tolist()
                    )
                    preds.append(PredictionSet(qid, tuple(sorted(pred))))
            got = score(preds, gt_table(rows)).final
            expected = brute_force_score(preds, rows)
            assert abs(got - expected) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        rows = [
            (f"q{i}", f"t{i % 3}", set(rng.choice(8, 3, replace=False).tolist()))
            for i in range(9)
        ]
        preds = [
            PredictionSet(f"q{i}", tuple(sorted(rng.choice(8, 2, replace=False).tolist())))
            for i in range(9)
        ]
        a = score(preds, gt_table(rows))
        b = score(preds[::-1], gt_table(rows[::-1]))
        assert a.final == b.final
        assert a.per_transect == b.per_transect

    def test_adding_mean_quadrat_keeps_transect_mean(self):
        gt = gt_table([("q0", "t0", {1, 2}), ("q1", "t0", {1, 2})])
        preds = [PredictionSet("q0", (1, 3)), PredictionSet("q1", (2, 3))]
        before = score(preds, gt).per_transect["t0"]
        assert before == 0.5
        gt2 = gt_table(
            [("q0", "t0", {1, 2}), ("q1", "t0", {1, 2}), ("q2", "t0", {1, 2})]
        )
        preds2 = preds + [PredictionSet("q2", (1, 3))]  # another f1 = 0.5 quadrat
        assert score(preds2, gt2).per_transect["t0"] == before

    def test_duplicate_prediction(self):
        gt = gt_table([("q0", "t0", {1})])
        with pytest.raises(DuplicatePredictionError):
            score([PredictionSet("q0", (1,)), PredictionSet("q0", (2,))], gt)

    def test_missing_prediction_warns_and_scores_zero(self):
        gt = gt_table([("q0", "t0", {1}), ("q1", "t0", {1})])
        with pytest.warns(UserWarning, match="missing"):
            report = score([PredictionSet("q0", (1,))], gt)
        assert report.per_quadrat["q1"] == 0.0
        assert report.missing_quadrats == ("q1",)
        assert report.final == 0.5

    def test_unknown_prediction_warns_and_is_ignored(self):
        gt = gt_table([("q0", "t0", {1})])
        with pytest.warns(UserWarning, match="unknown"):
            report = score(
                [PredictionSet("q0", (1,)), PredictionSet("zz", (5,))], gt
            )
        assert report.final == 1.0
        assert report.unknown_quadrats == ("zz",)

    def test_empty_truth_rejected(self):
        with pytest.raises(MetricError):
            gt_table([("q0", "t0", set())])

    def test_ground_truth_without_quadrats_rejected(self):
        with pytest.raises(MetricError, match="^ground truth has no quadrats$"):
            score([], gt_table([]))

    def test_final_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rows = [
                (f"q{i}", f"t{i % 2}", set(rng.choice(6, 2, replace=False).tolist()))
                for i in range(6)
            ]
            preds = [
                PredictionSet(
                    f"q{i}", tuple(sorted(rng.choice(6, 3, replace=False).tolist()))
                )
                for i in range(6)
            ]
            assert 0.0 <= score(preds, gt_table(rows)).final <= 1.0
