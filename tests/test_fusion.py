import math

import numpy as np
import pytest

from quadflora.errors import ShapeError
from quadflora.fusion import TileLogits, fuse, log_softmax, top1_rows
from quadflora.taxonomy import TaxonomyTable

# The 3-species fixture: s0,s1 -> g0, s2 -> g1; both genera -> f0.
TAX3 = TaxonomyTable.from_dense([0, 0, 1], [0, 0], n_families=1)


def enumerate_triples(species, genus, family, tax):
    """Independent oracle: brute-force products of head probabilities
    over all (species, genus, family) triples, invalid ones excluded."""

    def softmax(v):
        e = [math.exp(x) for x in v]
        z = sum(e)
        return [x / z for x in e]

    ps, pg, pf = softmax(species), softmax(genus), softmax(family)
    out = []
    for s in range(len(species)):
        best = None
        for g in range(len(genus)):
            for f in range(len(family)):
                valid = (
                    g == int(tax.species_to_genus[s])
                    and f == int(tax.genus_to_family[g])
                )
                if valid:
                    p = ps[s] * pg[g] * pf[f]
                    best = p if best is None else max(best, p)
        out.append(math.log(best))
    return np.array(out)


class TestLogSoftmax:
    def test_two_zeros(self):
        np.testing.assert_allclose(log_softmax([0.0, 0.0]), [-math.log(2)] * 2)

    def test_hand_logsumexp(self):
        v = [1.0, 2.0, 1.5]
        lse = math.log(sum(math.exp(x) for x in v))
        expected = [x - lse for x in v]
        got = log_softmax(v)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, [-1.680, -0.680, -1.180], atol=1e-3)

    def test_constant_vector(self):
        for c in (-40.0, 0.0, 3.25, 1e6):
            np.testing.assert_allclose(
                log_softmax([c, c, c]), [-math.log(3)] * 3, atol=1e-12
            )

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 40)) * 50
            assert abs(np.exp(log_softmax(v)).sum() - 1.0) < 1e-9

    def test_preserves_differences(self):
        v = np.array([3.0, -1.0, 0.5])
        o = log_softmax(v)
        np.testing.assert_allclose(o[0] - o[1], v[0] - v[1], atol=1e-12)

    def test_empty(self):
        with pytest.raises(ShapeError):
            log_softmax([])

    def test_singleton_is_zero(self):
        np.testing.assert_array_equal(log_softmax([123.0]), [0.0])


class TestFuse:
    def worked_example(self):
        return TileLogits(
            species=np.array([1.0, 2.0, 1.5]),
            genus=np.array([0.0, 2.0]),
            family=np.array([0.0]),
        )

    def test_worked_example_matches_oracle(self):
        t = self.worked_example()
        expected = enumerate_triples(t.species, t.genus, t.family, TAX3)
        got = fuse(t, TAX3).score
        np.testing.assert_allclose(got, expected, atol=1e-9)
        np.testing.assert_allclose(got, [-3.807, -2.807, -1.307], atol=1e-3)
        # fusion flips the winner from the species-only argmax
        assert int(np.argmax(t.species)) == 1
        assert int(np.argmax(got)) == 2

    def test_uniform_other_heads_preserve_argmax(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            species = rng.standard_normal(3)
            t = TileLogits(
                species=species, genus=np.zeros(2), family=np.zeros(1)
            )
            assert int(np.argmax(fuse(t, TAX3).score)) == int(np.argmax(species))

    def test_absent_heads_reduce_to_log_softmax(self):
        species = np.array([0.3, -1.2, 4.0])
        t = TileLogits(species=species)
        np.testing.assert_array_equal(fuse(t, TAX3).score, log_softmax(species))

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        t = self.worked_example()
        base = fuse(t, TAX3).score
        for _ in range(20):
            a, b, c = rng.standard_normal(3) * 100
            shifted = TileLogits(
                species=t.species + a, genus=t.genus + b, family=t.family + c
            )
            np.testing.assert_allclose(fuse(shifted, TAX3).score, base, atol=1e-9)

    def test_brute_force_equivalence_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n_s = int(rng.integers(1, 21))
            n_g = int(rng.integers(1, n_s + 1))
            n_f = int(rng.integers(1, n_g + 1))
            s2g = np.concatenate([rng.permutation(n_g), rng.integers(0, n_g, n_s - n_g)])
            g2f = np.concatenate([rng.permutation(n_f), rng.integers(0, n_f, n_g - n_f)])
            tax = TaxonomyTable.from_dense(s2g, g2f, n_families=n_f)
            t = TileLogits(
                species=rng.standard_normal(n_s) * 5,
                genus=rng.standard_normal(n_g) * 5,
                family=rng.standard_normal(n_f) * 5,
            )
            got = fuse(t, tax).score
            expected = enumerate_triples(t.species, t.genus, t.family, tax)
            np.testing.assert_allclose(got, expected, atol=1e-9)
            assert int(np.argmax(got)) == int(np.argmax(expected))

    def test_block_rows_equal_single_tiles(self):
        # a (tiles x classes) block gets, row by row, exactly the per-tile
        # result, and that result is the scalar-reduction log-softmax
        rng = np.random.default_rng(23)
        tax = TaxonomyTable.from_dense(np.arange(300) % 40, np.arange(40) % 7, n_families=7)
        sizes = {"species": 300, "genus": 40, "family": 7}
        block = TileLogits(
            **{lvl: rng.standard_normal((9, n)) * 10 for lvl, n in sizes.items()},
        )
        fused = fuse(block, tax).score
        for i in range(9):
            row = {lvl: getattr(block, lvl)[i].copy() for lvl in sizes}
            np.testing.assert_array_equal(fused[i], fuse(TileLogits(**row), tax).score)
            v = row["species"]
            reference = v - (v.max() + np.log(np.exp(v - v.max()).sum()))
            np.testing.assert_array_equal(log_softmax(block.species)[i], reference)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(TileLogits(species=np.zeros(4)), TAX3)
        with pytest.raises(ShapeError):
            fuse(TileLogits(species=np.zeros(3), genus=np.zeros(3)), TAX3)

    @pytest.mark.parametrize("level, size", [("genus", 2), ("family", 1)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_block_rows_mismatch(self, level, size, rows):
        # a (1 x G) block would broadcast over the species rows, a (3 x G)
        # one fail inside numpy; both are shape errors
        t = TileLogits(species=np.zeros((4, 3)), **{level: np.zeros((rows, size))})
        with pytest.raises(ShapeError, match=level):
            fuse(t, TAX3)
        with pytest.raises(ShapeError, match=level):
            fuse(TileLogits(species=np.zeros(3), **{level: np.zeros((rows, size))}), TAX3)


class TestTileTop1:
    def test_from_worked_example(self):
        scores = fuse(
            TileLogits(
                species=np.array([1.0, 2.0, 1.5]),
                genus=np.array([0.0, 2.0]),
                family=np.array([0.0]),
            ),
            TAX3,
        )
        species, value = top1_rows(scores.score)
        assert species == 2
        assert value == pytest.approx(-1.307, abs=1e-3)

    def test_tie_breaks_to_lowest_id(self):
        species, value = top1_rows(np.array([-1.5, -1.5, -1.5]))
        assert (int(species), float(value)) == (0, -1.5)

    def test_single_species_taxonomy(self):
        tax1 = TaxonomyTable.from_dense([0], [0], n_families=1)
        f = fuse(TileLogits(species=np.array([7.0])), tax1)
        species, value = top1_rows(f.score)
        assert (int(species), float(value)) == (0, 0.0)
