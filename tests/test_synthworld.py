import numpy as np
import pytest

from quadflora.errors import ConfigError, ShapeError
from quadflora.geometry import GridSpec, Rect, tile_grid
from quadflora.synthworld import (
    LinearHead,
    Quadrat,
    SynthConfig,
    ToyModel,
    TwoLayerHead,
    gen_world,
    head_logits,
    tile_features,
)


def small_cfg(**overrides):
    base = dict(
        n_species=12,
        n_genera=5,
        n_families=2,
        n_quadrats=4,
        quadrats_per_transect=2,
        grid_cells=20,
        feature_dim=16,
        noise_sigma=0.0,
        patch_align=4,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_richness_exceeds_species(self):
        with pytest.raises(ConfigError):
            small_cfg(richness_min=13, richness_max=13)

    def test_hierarchy_ordering(self):
        with pytest.raises(ConfigError):
            small_cfg(n_genera=20)

    def test_patch_align_must_divide(self):
        with pytest.raises(ConfigError):
            small_cfg(patch_align=3)

    def test_orthogonal_needs_wide_features(self):
        with pytest.raises(ConfigError):
            small_cfg(orthogonal_prototypes=True, feature_dim=4)

    def test_richness_must_fit_patches(self):
        with pytest.raises(ConfigError):
            small_cfg(patch_align=10, richness_min=5, richness_max=5)


class TestDeterminism:
    def test_same_seed_identical(self):
        tax_a, quads_a, reg_a = gen_world(small_cfg())
        tax_b, quads_b, reg_b = gen_world(small_cfg())
        assert tax_a == tax_b
        for a, b in zip(quads_a, quads_b):
            assert a.quadrat_id == b.quadrat_id
            assert a.truth == b.truth
            assert a.cells.tobytes() == b.cells.tobytes()
        for level in ("species", "genus", "family"):
            assert sorted(reg_a.heads[level]) == sorted(reg_b.heads[level])
            for hid in reg_a.heads[level]:
                ha, hb = reg_a.heads[level][hid], reg_b.heads[level][hid]
                if isinstance(ha, LinearHead):
                    assert ha.weight.tobytes() == hb.weight.tobytes()
                else:
                    assert ha.w2.tobytes() == hb.w2.tobytes()

    def test_sigma_scales_same_noise_draw(self):
        # same seed, different sigma: layout identical, noise proportional
        quads0 = gen_world(small_cfg(noise_sigma=0.0))[1]
        quads1 = gen_world(small_cfg(noise_sigma=0.5))[1]
        quads2 = gen_world(small_cfg(noise_sigma=1.0))[1]
        for q0, q1, q2 in zip(quads0, quads1, quads2):
            assert q0.truth == q1.truth == q2.truth
            np.testing.assert_allclose(
                q2.cells - q0.cells, 2.0 * (q1.cells - q0.cells), atol=1e-12
            )


class TestWorldStructure:
    def test_noiseless_cells_argmax_is_planted(self):
        cfg = small_cfg(orthogonal_prototypes=True, n_species=12, feature_dim=16)
        tax, quads, reg = gen_world(cfg)
        weights = reg.heads["species"]["lin1"].weight
        for q in quads:
            logits = q.cells @ weights.T  # oracle: per-cell dot products
            winners = logits.argmax(axis=2)
            planted = np.unique(winners)
            assert set(planted.tolist()) == set(q.truth)
            # every cell belongs to its patch species exactly
            cell_norms = np.linalg.norm(
                q.cells - weights[winners], axis=2
            )
            assert cell_norms.max() < 1e-9

    def test_fixed_richness_mean(self):
        cfg = small_cfg(richness_min=4, richness_max=4, n_quadrats=25)
        _, quads, _ = gen_world(cfg)
        assert float(np.mean([len(q.truth) for q in quads])) == 4.0

    def test_taxonomy_surjective(self):
        tax, _, _ = gen_world(small_cfg())
        tax.validate()
        assert set(tax.species_to_genus.tolist()) == set(range(tax.n_genera))
        assert set(tax.genus_to_family.tolist()) == set(range(tax.n_families))

    def test_every_species_has_pure_aligned_tile(self):
        # patch_align 4 on a 20-cell grid guarantees purity at scale 5
        cfg = small_cfg(orthogonal_prototypes=True, richness_min=4, richness_max=4)
        tax, quads, reg = gen_world(cfg)
        weights = reg.heads["species"]["lin1"].weight
        for q in quads:
            winners = (q.cells @ weights.T).argmax(axis=2)
            pure = set()
            for t in tile_grid(Rect(0, 0, 20, 20), GridSpec(5)):
                block = winners[t.rect.y0 : t.rect.y1, t.rect.x0 : t.rect.x1]
                if (block == block.flat[0]).all():
                    pure.add(int(block.flat[0]))
            assert set(q.truth) <= pure

    def test_transect_grouping(self):
        _, quads, _ = gen_world(small_cfg(n_quadrats=5, quadrats_per_transect=2))
        assert [q.transect_id for q in quads] == ["t000", "t000", "t001", "t001", "t002"]

    def test_registry_has_swappable_variants(self):
        _, _, registry = gen_world(small_cfg())
        for level in ("species", "genus", "family"):
            assert len(registry.variant_ids(level)) >= 2


class TestTileFeatures:
    def test_singleton_tile(self):
        q = Quadrat("q", "t", 2, np.arange(2 * 2 * 3, dtype=float).reshape(2, 2, 3), frozenset({0}))
        (t,) = tile_grid(Rect(1, 1, 2, 2), GridSpec(1))
        np.testing.assert_array_equal(tile_features(q, t), q.cells[1, 1])

    def test_two_cell_mean(self):
        cells = np.zeros((2, 2, 2))
        cells[0, 0] = [1.0, 3.0]
        cells[0, 1] = [5.0, 7.0]
        q = Quadrat("q", "t", 2, cells, frozenset({0}))
        (t,) = tile_grid(Rect(0, 0, 2, 1), GridSpec(1))
        np.testing.assert_array_equal(tile_features(q, t), [3.0, 5.0])

    def test_full_tile_averages_prototypes(self):
        cfg = small_cfg(richness_min=4, richness_max=4, orthogonal_prototypes=True)
        tax, quads, reg = gen_world(cfg)
        protos = reg.heads["species"]["lin1"].weight
        q = quads[0]
        (t,) = tile_grid(Rect(0, 0, 20, 20), GridSpec(1))
        winners = (q.cells @ protos.T).argmax(axis=2)
        expected = protos[winners.ravel()].mean(axis=0)  # oracle: direct average
        np.testing.assert_allclose(tile_features(q, t), expected, atol=1e-12)


class TestHeadLogits:
    def test_zero_feature_zero_bias(self):
        model = ToyModel("m", LinearHead(np.ones((4, 3)), np.zeros(4)))
        np.testing.assert_array_equal(
            head_logits(model, "species", np.zeros(3)), np.zeros(4)
        )

    def test_prototype_head_peaks_at_own_species(self):
        cfg = small_cfg(orthogonal_prototypes=True)
        _, _, reg = gen_world(cfg)
        protos = reg.heads["species"]["lin1"].weight
        model = ToyModel("m", reg.heads["species"]["lin1"])
        for s in (0, 3, 11):
            logits = head_logits(model, "species", 2.5 * protos[s])
            assert int(np.argmax(logits)) == s

    def test_two_layer_equals_linear_map(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((5, 8))
        d = 8
        eye = np.eye(d)
        two = TwoLayerHead(
            w1=np.concatenate([eye, -eye]),
            b1=np.zeros(2 * d),
            w2=np.concatenate([w, -w], axis=1),
            b2=np.zeros(5),
        )
        model = ToyModel("m", LinearHead(w, np.zeros(5)), genus_head=two)
        for _ in range(10):
            f = rng.standard_normal(d)
            np.testing.assert_allclose(
                head_logits(model, "genus", f), w @ f, atol=1e-12
            )

    def test_rectifier_inactive_on_nonnegative(self):
        # identity first layer, nonnegative input: two-layer == composed linear
        w2 = np.array([[1.0, -2.0], [0.5, 4.0]])
        two = TwoLayerHead(np.eye(2), np.zeros(2), w2, np.zeros(2))
        model = ToyModel("m", LinearHead(np.eye(2), np.zeros(2)), genus_head=two)
        f = np.array([0.3, 2.0])
        np.testing.assert_array_equal(head_logits(model, "genus", f), w2 @ f)

    def test_dimension_mismatch(self):
        model = ToyModel("m", LinearHead(np.ones((4, 3)), np.zeros(4)))
        with pytest.raises(ShapeError):
            head_logits(model, "species", np.zeros(5))

    def test_row_matrix_gives_row_per_tile(self):
        _, _, reg = gen_world(small_cfg())
        model = ToyModel("m", reg.heads["species"]["lin1"], reg.heads["genus"]["mlp2"])
        f = np.random.default_rng(5).standard_normal((7, 16))
        assert head_logits(model, "species", f).shape == (7, 12)
        assert head_logits(model, "genus", f).shape == (7, 5)

    @pytest.mark.parametrize("shape", [(16, 5), (2, 3, 16), (3, 4, 5)])
    def test_matrix_of_wrong_shape(self, shape):
        _, _, reg = gen_world(small_cfg())
        model = ToyModel("m", reg.heads["species"]["lin1"], reg.heads["genus"]["mlp2"])
        for level in ("species", "genus"):
            with pytest.raises(ShapeError):
                head_logits(model, level, np.zeros(shape))

    def test_rows_match_vector_calls(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((9, 16))
        b = rng.standard_normal(9)
        d = 16
        eye = np.eye(d)
        two = TwoLayerHead(
            w1=np.concatenate([eye, -eye]),
            b1=rng.standard_normal(2 * d),
            w2=np.concatenate([w, -w], axis=1),
            b2=b,
        )
        model = ToyModel("m", LinearHead(w, b), genus_head=two)
        f = rng.standard_normal((25, d))
        for level in ("species", "genus"):
            block = head_logits(model, level, f)
            for row, vec in zip(block, f):
                np.testing.assert_allclose(row, head_logits(model, level, vec), rtol=1e-12)
