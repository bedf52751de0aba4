"""Acceptance suite: one test per release criterion.

Each test prints a [PASS]/[FAIL] line (visible with pytest -s) and
pins its tolerance and runtime budget. Expected values are computed by
independent in-test oracles: plain-loop re-evaluation for the metric,
triple enumeration for fusion, and an exhaustive threshold sweep for
calibration.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import per_quadrat
import quadflora as qf
from quadflora.cli import main
from quadflora.ensemble import bag, kernel_smooth
from quadflora.fusion import TileLogits
from quadflora.geometry import GridSpec, Rect, tile_grid
from quadflora.selection import CandidateSet, mean_prediction_length
from quadflora.taxonomy import TaxonomyTable


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    print(f"[PASS] criterion {num}: {text}")


def random_taxonomy(rng, max_species=20):
    n_s = int(rng.integers(1, max_species + 1))
    n_g = int(rng.integers(1, n_s + 1))
    n_f = int(rng.integers(1, n_g + 1))
    s2g = np.concatenate([rng.permutation(n_g), rng.integers(0, n_g, n_s - n_g)])
    g2f = np.concatenate([rng.permutation(n_f), rng.integers(0, n_f, n_g - n_f)])
    return TaxonomyTable.from_dense(s2g, g2f, n_families=n_f)


class TestCriterion1MetricOracle:
    @staticmethod
    def brute_force(preds_by_qid, rows):
        per_transect = {}
        for qid, tid, truth in rows:
            pred = preds_by_qid.get(qid, set())
            if not pred:
                f1 = 0.0
            else:
                f1 = 2.0 * len(pred & truth) / (len(pred) + len(truth))
            per_transect.setdefault(tid, []).append(f1)
        return sum(sum(v) / len(v) for v in per_transect.values()) / len(per_transect)

    def test_metric_matches_brute_force(self):
        with criterion(1, "metric equals brute-force formula on 100 instances @1e-12"):
            rng = np.random.default_rng(1001)
            start = time.perf_counter()
            for _ in range(100):
                rows, preds = [], []
                for t in range(int(rng.integers(1, 6))):
                    for q in range(int(rng.integers(1, 6))):
                        qid = f"q{t}_{q}"
                        truth = frozenset(
                            rng.choice(10, int(rng.integers(1, 6)), replace=False).tolist()
                        )
                        rows.append((qid, f"t{t}", truth))
                        pred = tuple(
                            sorted(rng.choice(10, int(rng.integers(1, 6)), replace=False).tolist())
                        )
                        preds.append(qf.PredictionSet(qid, pred))
                gt = qf.GroundTruthTable(
                    quadrats={qid: (tid, truth) for qid, tid, truth in rows}
                )
                got = qf.score(preds, gt).final
                expected = self.brute_force(
                    {p.quadrat_id: set(p.species) for p in preds}, rows
                )
                assert abs(got - expected) < 1e-12
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"took {elapsed:.2f}s"


class TestCriterion2FusionBruteForce:
    @staticmethod
    def enumerate_triples(species, genus, family, tax):
        def softmax(v):
            e = [math.exp(x - max(v)) for x in v]
            z = sum(e)
            return [x / z for x in e]

        ps, pg, pf = softmax(species), softmax(genus), softmax(family)
        out = []
        for s in range(len(species)):
            best = None
            for g in range(len(genus)):
                for f in range(len(family)):
                    if g == int(tax.species_to_genus[s]) and f == int(
                        tax.genus_to_family[g]
                    ):
                        p = ps[s] * pg[g] * pf[f]
                        best = p if best is None else max(best, p)
            out.append(math.log(best))
        return np.array(out)

    def test_fusion_matches_enumeration(self):
        with criterion(2, "fusion equals triple enumeration on 100 taxonomies @1e-9"):
            rng = np.random.default_rng(2002)
            start = time.perf_counter()
            for _ in range(100):
                tax = random_taxonomy(rng)
                t = TileLogits(
                    species=rng.standard_normal(tax.n_species) * 4,
                    genus=rng.standard_normal(tax.n_genera) * 4,
                    family=rng.standard_normal(tax.n_families) * 4,
                )
                got = qf.fuse(t, tax).score
                expected = self.enumerate_triples(t.species, t.genus, t.family, tax)
                np.testing.assert_allclose(got, expected, atol=1e-9)
                assert int(np.argmax(got)) == int(np.argmax(expected))
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"took {elapsed:.2f}s"


class TestCriterion3WorkedFusionExample:
    def test_worked_example(self):
        with criterion(3, "worked fusion example scores and argmax"):
            tax = TaxonomyTable.from_dense([0, 0, 1], [0, 0], n_families=1)
            t = TileLogits(
                species=np.array([1.0, 2.0, 1.5]),
                genus=np.array([0.0, 2.0]),
                family=np.array([0.0]),
            )
            got = qf.fuse(t, tax).score
            oracle = TestCriterion2FusionBruteForce.enumerate_triples(
                t.species, t.genus, t.family, tax
            )
            np.testing.assert_allclose(got, oracle, atol=1e-9)
            np.testing.assert_allclose(got, [-3.807, -2.807, -1.307], atol=1e-3)
            assert int(np.argmax(got)) == 2


class TestCriterion4Calibration:
    def test_bisection_against_sweep(self):
        with criterion(4, "bisection calibration matches exhaustive sweep, 200 quadrats"):
            rng = np.random.default_rng(4004)
            corpus = [
                CandidateSet(
                    quadrat_id=f"q{i}",
                    entries={
                        int(s): float(v)
                        for s, v in zip(
                            rng.choice(400, int(rng.integers(3, 13)), replace=False),
                            rng.standard_normal(12),
                        )
                    },
                )
                for i in range(200)
            ]
            cfg = qf.SelectionConfig()
            start = time.perf_counter()
            tau = qf.bisect_threshold(corpus, 4.0, cfg)
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"took {elapsed:.2f}s"

            # the sweep runs the per-quadrat apply_threshold, code apart
            # from the library's array path
            def oracle_mean_length(t):
                return float(
                    np.mean(
                        [len(per_quadrat.apply_threshold(c, t, cfg).species) for c in corpus]
                    )
                )

            achieved = oracle_mean_length(tau)
            assert achieved >= 4.0
            assert mean_prediction_length(corpus, tau, cfg) == achieved
            assert [qf.apply_threshold(c, tau, cfg) for c in corpus] == [
                per_quadrat.apply_threshold(c, tau, cfg) for c in corpus
            ]

            scores = np.unique(
                np.concatenate([c.scores() for c in corpus])
            )
            probes = np.concatenate([[scores[0] - 1.0], scores])
            levels = [oracle_mean_length(float(t)) for t in probes]
            # the step function never increases
            assert all(a >= b for a, b in zip(levels, levels[1:]))
            # bisection lands on the closest attainable level at/above target
            assert achieved == min(v for v in levels if v >= 4.0)


class TestCriterion5NoiselessRecovery:
    def test_end_to_end_recovery(self):
        with criterion(5, "noiseless 500-species world recovers truth, score >= 0.95"):
            start = time.perf_counter()
            cfg = qf.SynthConfig(
                n_species=500,
                n_genera=50,
                n_families=10,
                n_quadrats=200,
                quadrats_per_transect=10,
                grid_cells=20,
                feature_dim=512,
                noise_sigma=0.0,
                richness_min=4,
                richness_max=4,
                patch_align=4,  # scale-5 tiles are 4x4 cells: purity guaranteed
                orthogonal_prototypes=True,
                seed=101,
            )
            tax, quads, registry = qf.gen_world(cfg)
            models = [qf.compose_model(registry, qf.HeadSelection("lin1", "mlp2", "mlp2"))]
            rc = qf.RunConfig(
                scales=(4, 5),
                crop_fracs=(0.0,),
                selection=qf.SelectionConfig(target_mean_len=4.0),
            )
            preds = qf.run(quads, rc, tax, models=models)
            gt = qf.GroundTruthTable(
                quadrats={q.quadrat_id: (q.transect_id, q.truth) for q in quads}
            )
            final = qf.score(preds, gt).final
            elapsed = time.perf_counter() - start
            assert final >= 0.95, f"score {final:.5f}"
            assert elapsed < 60.0, f"took {elapsed:.1f}s"


class TestCriterion6NoiseOrdering:
    @staticmethod
    def run_world(sigma, channel):
        cfg = qf.SynthConfig(
            n_species=200,
            n_genera=40,
            n_families=8,
            n_quadrats=60,
            quadrats_per_transect=6,
            grid_cells=20,
            feature_dim=256,
            noise_sigma=sigma,
            richness_min=4,
            richness_max=4,
            patch_align=4,
            orthogonal_prototypes=True,
            seed=202,
        )
        tax, quads, registry = qf.gen_world(cfg)
        # the confusable species head: its pairwise mistakes are what the
        # genus and family heads can correct
        models = [qf.compose_model(registry, qf.HeadSelection("lin1c", "mlp2", "mlp2"))]
        rc = qf.RunConfig(
            scales=(4, 5),
            crop_fracs=(0.0,),
            selection=qf.SelectionConfig(target_mean_len=4.0, channel=channel),
        )
        preds = qf.run(quads, rc, tax, models=models)
        gt = qf.GroundTruthTable(
            quadrats={q.quadrat_id: (q.transect_id, q.truth) for q in quads}
        )
        return qf.score(preds, gt).final

    def test_degradation_and_fusion_gain(self):
        with criterion(6, "scores degrade with noise; fusion beats species-only"):
            fused = {s: self.run_world(s, "fused") for s in (0.0, 0.5, 1.0)}
            assert fused[0.0] >= fused[0.5] >= fused[1.0], fused
            raw_half = self.run_world(0.5, "raw")
            assert fused[0.5] >= raw_half, (fused[0.5], raw_half)


GEN_CFG = """\
n_species = 40
n_genera = 10
n_families = 4
n_quadrats = 9
quadrats_per_transect = 3
grid_cells = 20
feature_dim = 24
noise_sigma = 0.25
richness_min = 3
richness_max = 5
patch_align = 4
seed = 77
"""

RUN_CFG = """\
scales = 4,5
crop_fracs = 0.10
models = lin1+mlp2+mlp2
target_mean_len = 3.0
max_len = 9
"""


class TestCriterion7Determinism:
    def test_full_cli_runs_byte_identical(self, tmp_path):
        with criterion(7, "gen+infer+eval twice: byte-identical submission and report"):
            outputs = []
            for name in ("one", "two"):
                root = tmp_path / name
                root.mkdir()
                (root / "gen.cfg").write_text(GEN_CFG)
                (root / "run.cfg").write_text(RUN_CFG)
                data = root / "data"
                assert main(["gen", "--config", str(root / "gen.cfg"), "--out", str(data)]) == 0
                sub = root / "submission.csv"
                assert main(
                    ["infer", "--config", str(root / "run.cfg"), "--data", str(data),
                     "--out", str(sub)]
                ) == 0
                report = root / "report.json"
                assert main(
                    ["eval", str(sub), str(data / "groundtruth.csv"),
                     "--report", str(report)]
                ) == 0
                outputs.append((sub.read_bytes(), report.read_bytes()))
            assert outputs[0][0] == outputs[1][0]
            assert outputs[0][1] == outputs[1][1]
            json.loads(outputs[0][1].decode())  # report is valid JSON


class TestCriterion8PartitionExactness:
    def test_random_partitions(self):
        with criterion(8, "1000 random (region, scale) pairs partition exactly"):
            rng = np.random.default_rng(8008)
            for _ in range(1000):
                w = int(rng.integers(1, 48))
                h = int(rng.integers(1, 48))
                scale = int(rng.integers(1, min(w, h) + 1))
                x0 = int(rng.integers(0, 8))
                y0 = int(rng.integers(0, 8))
                region = Rect(x0, y0, x0 + w, y0 + h)
                covered = np.zeros((h, w), dtype=np.int32)
                for t in tile_grid(region, GridSpec(scale)):
                    covered[
                        t.rect.y0 - y0 : t.rect.y1 - y0, t.rect.x0 - x0 : t.rect.x1 - x0
                    ] += 1
                assert (covered == 1).all()


class TestCriterion9EnsembleIdentities:
    def test_bag_and_kernel_identities(self):
        with criterion(9, "bag of identical models and zero-weight kernel are identities"):
            rng = np.random.default_rng(9009)
            n = 3 * 3  # the tiles of one 3 x 3 grid, one per row
            block = TileLogits(
                species=rng.standard_normal((n, 17)) * 3.7 + 0.1,
                genus=rng.standard_normal((n, 5)),
                family=rng.standard_normal((n, 2)),
            )
            for k in (2, 3, 5):
                bagged = bag([("m", block)] * k)
                for level in ("species", "genus", "family"):
                    np.testing.assert_array_equal(
                        getattr(bagged, level), getattr(block, level)
                    )
            for level in ("species", "genus", "family"):
                np.testing.assert_array_equal(
                    kernel_smooth(getattr(block, level), 0.0, (3,)), getattr(block, level)
                )


class TestCriterion10PaperScaleTaxonomy:
    def test_paper_scale_fixture(self, tmp_path):
        with criterion(10, "7806/1446/181 taxonomy validates; 20-quadrat infer pass"):
            start = time.perf_counter()
            cfg = qf.SynthConfig(
                n_species=7806,
                n_genera=1446,
                n_families=181,
                n_quadrats=20,
                quadrats_per_transect=5,
                grid_cells=20,
                feature_dim=64,
                noise_sigma=0.5,
                richness_min=3,
                richness_max=6,
                patch_align=4,
                seed=55,
            )
            tax, quads, registry = qf.gen_world(cfg)
            path = tmp_path / "taxonomy.csv"
            qf.write_taxonomy_csv(tax, path)
            loaded = qf.load_taxonomy(path)
            assert (loaded.n_species, loaded.n_genera, loaded.n_families) == (
                7806,
                1446,
                181,
            )
            assert loaded == tax
            models = [qf.compose_model(registry, qf.HeadSelection("lin1", "mlp2", "mlp2"))]
            rc = qf.RunConfig(
                scales=(4, 5),
                crop_fracs=(0.10,),
                selection=qf.SelectionConfig(max_len=9),
            )
            preds = qf.run(quads, rc, loaded, models=models)
            assert len(preds) == 20
            assert all(1 <= len(p.species) <= 9 for p in preds)
            elapsed = time.perf_counter() - start
            assert elapsed < 120.0, f"took {elapsed:.1f}s"
