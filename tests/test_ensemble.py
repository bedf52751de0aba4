import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_tile
from quadflora.ensemble import HeadSelection, bag, compose_model, kernel_smooth
from quadflora.errors import (
    ConfigError,
    IncompleteGridError,
    IncongruentMembersError,
    UnknownHeadError,
)
from quadflora.formats import LogitCache
from quadflora.fusion import TileLogits, fuse
from quadflora.geometry import GridSpec, Rect, tile_grid
from quadflora.pipeline import RunConfig, crop_key, infer_quadrat
from quadflora.selection import collect_candidates
from quadflora.synthworld import LEVELS, gen_world, head_logits


def grid_member(member_id, scale, values_fn):
    """A (member_id, blocks) bag member: one species row per tile of a
    scale x scale grid, row-major."""
    rows = [values_fn(r, c) for r in range(scale) for c in range(scale)]
    return member_id, TileLogits(species=np.array(rows, dtype=np.float64))


class TestBag:
    def test_single_member_identity(self):
        m = grid_member("a", 2, lambda r, c: np.array([r + c, 1.0]))
        assert bag([m]) is m[1]

    def test_two_member_mean(self):
        a = grid_member("a", 1, lambda r, c: np.array([1.0, 3.0]))
        b = grid_member("b", 1, lambda r, c: np.array([3.0, 1.0]))
        out = bag([a, b])
        # oracle: element-wise mean
        np.testing.assert_array_equal(out.species, [[2.0, 2.0]])

    def test_duplicate_members_exact_idempotence(self):
        awkward = np.array([0.1, 0.2, 0.3, -1.7, 5.000000001])
        m = grid_member("m", 2, lambda r, c: awkward + r + 10 * c)
        for k in (2, 3, 5, 7):
            out = bag([m] * k)
            np.testing.assert_array_equal(out.species, m[1].species)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(0)
        members = [
            grid_member(f"m{i}", 2, lambda r, c, i=i: rng.standard_normal(4))
            for i in range(4)
        ]
        forward = bag(members)
        backward = bag(members[::-1])
        np.testing.assert_array_equal(forward.species, backward.species)

    def test_mismatched_tile_sets(self):
        a = grid_member("a", 2, lambda r, c: np.zeros(2))
        b = grid_member("b", 3, lambda r, c: np.zeros(2))
        with pytest.raises(IncongruentMembersError):
            bag([a, b])

    def test_mismatched_lengths(self):
        a = grid_member("a", 2, lambda r, c: np.zeros(2))
        b = grid_member("b", 2, lambda r, c: np.zeros(3))
        with pytest.raises(IncongruentMembersError):
            bag([a, b])

    def test_mismatched_level_presence(self):
        a = ("a", TileLogits(np.zeros((1, 2)), genus=np.zeros((1, 1))))
        b = ("b", TileLogits(np.zeros((1, 2))))
        with pytest.raises(IncongruentMembersError):
            bag([a, b])

    def test_empty(self):
        with pytest.raises(IncongruentMembersError):
            bag([])


@pytest.fixture(scope="module")
def world():
    from quadflora.synthworld import SynthConfig

    return gen_world(
        SynthConfig(
            n_species=10, n_genera=4, n_families=2,
            n_quadrats=1, grid_cells=8, feature_dim=8, patch_align=1, seed=3,
        )
    )


class TestComposeModel:

    def test_same_selection_identical_logits(self, world):
        _, _, registry = world
        sel = HeadSelection("lin1", "mlp2", "mlp2")
        m1, m2 = compose_model(registry, sel), compose_model(registry, sel)
        rng = np.random.default_rng(4)
        for _ in range(5):
            f = rng.standard_normal(8)
            for level in ("species", "genus", "family"):
                np.testing.assert_array_equal(
                    head_logits(m1, level, f), head_logits(m2, level, f)
                )

    def test_genus_swap_changes_only_genus(self, world):
        _, _, registry = world
        a = compose_model(registry, HeadSelection("lin1", "lin1", "lin1"))
        b = compose_model(registry, HeadSelection("lin1", "mlp2", "lin1"))
        f = np.random.default_rng(5).standard_normal(8)
        np.testing.assert_array_equal(
            head_logits(a, "species", f), head_logits(b, "species", f)
        )
        np.testing.assert_array_equal(
            head_logits(a, "family", f), head_logits(b, "family", f)
        )
        assert not np.array_equal(
            head_logits(a, "genus", f), head_logits(b, "genus", f)
        )

    def test_best_known_shape_composes(self, world):
        # one-layer species head with two-layer genus and family heads
        _, _, registry = world
        m = compose_model(registry, HeadSelection("lin1", "mlp2", "mlp2"))
        assert m.genus_head is not None and m.family_head is not None

    def test_unknown_head(self, world):
        _, _, registry = world
        with pytest.raises(UnknownHeadError):
            compose_model(registry, HeadSelection("nope"))

    def test_absent_levels(self, world):
        _, _, registry = world
        m = compose_model(registry, HeadSelection("lin1"))
        assert m.genus_head is None and m.family_head is None
        assert m.model_id == "lin1+-+-"


class TestKernelSmooth:
    def four_tiles(self):
        # the 2 x 2 grid, row-major: (0,0)=1, (0,1)=2, (1,0)=3, (1,1)=4
        return np.array([[1.0], [2.0], [3.0], [4.0]])

    def test_zero_weight_identity(self):
        block = self.four_tiles()
        out = kernel_smooth(block, 0.0, (2,))
        np.testing.assert_array_equal(out, block)

    def test_two_by_two_half_weight(self):
        out = kernel_smooth(self.four_tiles(), 0.5, (2,))
        # oracle: 1 + 0.5*(2+3), and symmetrically for the others
        np.testing.assert_allclose(out[0], [1 + 0.5 * (2 + 3)])
        np.testing.assert_allclose(out[1], [2 + 0.5 * (1 + 4)])
        np.testing.assert_allclose(out[2], [3 + 0.5 * (1 + 4)])
        np.testing.assert_allclose(out[3], [4 + 0.5 * (2 + 3)])

    def test_single_tile_any_weight(self):
        out = kernel_smooth(np.array([[5.0]]), 2.0, (1,))
        np.testing.assert_array_equal(out, [[5.0]])

    def test_single_pass_no_cascade(self):
        # 3x3 grid: the middle tile uses raw inputs only
        block = np.arange(9.0)[:, None]
        out = kernel_smooth(block, 1.0, (3,))
        center = 4.0
        expected = center + (1.0 + 3.0 + 5.0 + 7.0)  # unsmoothed neighbors
        np.testing.assert_allclose(out[4], [expected])

    def test_linearity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((9, 4))
        sa = kernel_smooth(a, 0.7, (3,))
        sb = kernel_smooth(b, 0.7, (3,))
        sboth = kernel_smooth(a + b, 0.7, (3,))
        np.testing.assert_allclose(sboth, sa + sb, atol=1e-9)

    def test_neighbors_added_in_fixed_order(self):
        # bit-exact against one accumulation per neighbor, in the order
        # the per-tile neighbors lists them (up, down, left, right)
        rng = np.random.default_rng(12)
        spec = GridSpec(4)
        tiles = {
            per_tile.tile_key(t): per_tile.PerTileLogits(
                t, rng.standard_normal(64) * 10.0 ** rng.integers(-8, 8, size=64)
            )
            for t in tile_grid(Rect(0, 0, 8, 8), spec)
        }
        block = np.vstack([tiles[key].species for key in sorted(tiles)])
        out = kernel_smooth(block, 0.3, (4,))
        per_tile_out = per_tile.kernel_smooth(tiles, 0.3, spec)
        for i, key in enumerate(sorted(tiles)):
            tl = tiles[key]
            acc = tl.species.copy()
            for r, c in per_tile.neighbors(tl.tile, spec):
                acc += 0.3 * tiles[(4, r, c)].species
            np.testing.assert_array_equal(per_tile_out[key].species, acc)
            np.testing.assert_array_equal(out[i], acc)

    @staticmethod
    def old_kernel_smooth(block, w, scales):
        """The earlier kernel_smooth body, the oracle: each grid smoothed
        by per_tile.smooth_grid into a fresh array."""
        if w == 0:
            return block
        out = np.empty(block.shape)
        start = 0
        for n in scales:
            out[start : start + n * n] = per_tile.smooth_grid(block[start : start + n * n], w, n)
            start += n * n
        return out

    @pytest.mark.parametrize("w", [0.0, 0.3, 1.7])
    @pytest.mark.parametrize("scales,cols", [((1,), 1), ((3,), 7), ((1, 2, 5), 3), ((4, 7), 11)])
    def test_products_taken_once_are_bit_identical(self, w, scales, cols):
        rng = np.random.default_rng(len(scales) * 100 + cols)
        tiles = sum(n * n for n in scales)
        values = rng.standard_normal((tiles, cols)) * 10.0 ** rng.integers(-6, 6, (tiles, cols))
        values[0, 0] = -0.0
        # C-ordered, Fortran-ordered and column-sliced blocks
        for block in (values, np.asfortranarray(values), np.hstack([values, values])[:, ::2]):
            out = kernel_smooth(block, w, scales)
            assert out.tobytes() == self.old_kernel_smooth(block, w, scales).tobytes()

    def test_incomplete_grid(self):
        with pytest.raises(IncompleteGridError):
            kernel_smooth(self.four_tiles()[:3], 0.5, (2,))

    def test_negative_weight(self):
        for w in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                kernel_smooth(self.four_tiles(), w, (2,))


def smoothed(t: TileLogits, w, scales) -> TileLogits:
    """kernel_smooth on each present level."""
    levels = [lvl for lvl in LEVELS if getattr(t, lvl) is not None]
    return TileLogits(**{lvl: kernel_smooth(getattr(t, lvl), w, scales) for lvl in levels})


def smoothed_members_bagged(q, cfg, tax, models, cache):
    """infer_quadrat as it was before, over the cached grids: each member's
    blocks kernel-smoothed, then bagged, fused and collected."""
    scales, overlap = sorted(set(cfg.scales)), float(cfg.overlap_frac)
    members = []
    for crop_frac in cfg.crop_fracs:
        crop = crop_key(crop_frac)
        for model in models:
            blocks = {
                lvl: np.vstack(
                    [
                        cache.get((model.model_id, q.quadrat_id, crop, overlap, n, lvl))
                        for n in scales
                    ]
                )
                for lvl in LEVELS
                if model.head_for(lvl) is not None
            }
            member = smoothed(TileLogits(**blocks), cfg.kernel_w, scales)
            members.append((f"{model.model_id}|crop={crop}", member))
    return collect_candidates(fuse(bag(members), tax).score, q.quadrat_id)


class TestSmoothAfterBagging:
    """The pipeline smooths the bag of its members once per level. Both
    steps are linear, so this equals bagging the smoothed members, the
    order it used before, up to rounding, and bit for bit when there is
    nothing to average or to smooth."""

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 4),
        scales=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        cols=st.integers(1, 6),
        w=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        genus=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=1, scales=[3], cols=4, w=0.7, genus=True, seed=0)
    @example(k=4, scales=[2, 3], cols=4, w=0.0, genus=True, seed=0)
    def test_smoothing_the_bag_equals_bagging_the_smoothed(self, k, scales, cols, w, genus, seed):
        rng = np.random.default_rng(seed)
        tiles = sum(n * n for n in scales)
        members = [
            (f"m{i}", TileLogits(
                species=rng.uniform(-10, 10, (tiles, cols)),
                genus=rng.uniform(-10, 10, (tiles, 2)) if genus else None,
            ))
            for i in range(k)
        ]
        after = smoothed(bag(members), w, scales)
        before = bag([(member_id, smoothed(t, w, scales)) for member_id, t in members])
        for lvl in LEVELS:
            a, b = getattr(after, lvl), getattr(before, lvl)
            if b is None:
                assert a is None
            elif k == 1 or w == 0:
                assert a.tobytes() == b.tobytes()
            else:
                assert a == pytest.approx(b, rel=1e-12)

    def test_one_member_run_keeps_its_bits(self, world):
        tax, quads, registry = world
        models = [compose_model(registry, HeadSelection("lin1", "mlp2", "mlp2"))]
        cfg = RunConfig(scales=(2, 3), crop_fracs=(0.10,), kernel_w=0.6)
        cache = LogitCache()
        for q in quads:
            got = infer_quadrat(q, cfg, tax, models, cache)
            before = smoothed_members_bagged(q, cfg, tax, models, cache)
            assert {s: v.hex() for s, v in got.entries.items()} == {
                s: v.hex() for s, v in before.entries.items()
            }
