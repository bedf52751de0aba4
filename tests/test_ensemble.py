import numpy as np
import pytest

from quadflora.ensemble import (
    HeadSelection,
    ModelOutput,
    bag,
    compose_model,
    kernel_smooth,
    tile_key,
)
from quadflora.errors import (
    ConfigError,
    IncompleteGridError,
    IncongruentMembersError,
    UnknownHeadError,
)
from quadflora.fusion import TileLogits
from quadflora.geometry import GridSpec, Rect, neighbors, tile_grid
from quadflora.synthworld import gen_world, head_logits


def grid_output(model_id, scale, values_fn, side=8):
    tiles = {}
    for t in tile_grid(Rect(0, 0, side, side), GridSpec(scale)):
        tiles[tile_key(t)] = TileLogits(tile=t, species=values_fn(t.row, t.col))
    return ModelOutput(model_id=model_id, tiles=tiles)


class TestBag:
    def test_single_member_identity(self):
        m = grid_output("a", 2, lambda r, c: np.array([r + c, 1.0]))
        assert bag([m]) is m

    def test_two_member_mean(self):
        a = grid_output("a", 1, lambda r, c: np.array([1.0, 3.0]))
        b = grid_output("b", 1, lambda r, c: np.array([3.0, 1.0]))
        out = bag([a, b])
        key = next(iter(out.tiles))
        # oracle: element-wise mean
        np.testing.assert_array_equal(out.tiles[key].species, [2.0, 2.0])

    def test_duplicate_members_exact_idempotence(self):
        awkward = np.array([0.1, 0.2, 0.3, -1.7, 5.000000001])
        m = grid_output("m", 2, lambda r, c: awkward + r + 10 * c)
        for k in (2, 3, 5, 7):
            out = bag([m] * k)
            for key in m.tiles:
                np.testing.assert_array_equal(
                    out.tiles[key].species, m.tiles[key].species
                )

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(0)
        members = [
            grid_output(f"m{i}", 2, lambda r, c, i=i: rng.standard_normal(4))
            for i in range(4)
        ]
        forward = bag(members)
        backward = bag(members[::-1])
        assert forward.model_id == backward.model_id
        for key in forward.tiles:
            np.testing.assert_array_equal(
                forward.tiles[key].species, backward.tiles[key].species
            )

    def test_mismatched_tile_sets(self):
        a = grid_output("a", 2, lambda r, c: np.zeros(2))
        b = grid_output("b", 3, lambda r, c: np.zeros(2), side=9)
        with pytest.raises(IncongruentMembersError):
            bag([a, b])

    def test_mismatched_lengths(self):
        a = grid_output("a", 2, lambda r, c: np.zeros(2))
        b = grid_output("b", 2, lambda r, c: np.zeros(3))
        with pytest.raises(IncongruentMembersError):
            bag([a, b])

    def test_mismatched_level_presence(self):
        base = tile_grid(Rect(0, 0, 4, 4), GridSpec(1))[0]
        a = ModelOutput(
            "a", {tile_key(base): TileLogits(base, np.zeros(2), genus=np.zeros(1))}
        )
        b = ModelOutput("b", {tile_key(base): TileLogits(base, np.zeros(2))})
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
        values = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0}
        tiles = {}
        for t in tile_grid(Rect(0, 0, 4, 4), GridSpec(2)):
            tiles[tile_key(t)] = TileLogits(
                tile=t, species=np.array([values[(t.row, t.col)]])
            )
        return tiles

    def test_zero_weight_identity(self):
        tiles = self.four_tiles()
        out = kernel_smooth(tiles, 0.0, GridSpec(2))
        for key in tiles:
            np.testing.assert_array_equal(out[key].species, tiles[key].species)

    def test_two_by_two_half_weight(self):
        out = kernel_smooth(self.four_tiles(), 0.5, GridSpec(2))
        # oracle: 1 + 0.5*(2+3), and symmetrically for the others
        np.testing.assert_allclose(out[(2, 0, 0)].species, [1 + 0.5 * (2 + 3)])
        np.testing.assert_allclose(out[(2, 0, 1)].species, [2 + 0.5 * (1 + 4)])
        np.testing.assert_allclose(out[(2, 1, 0)].species, [3 + 0.5 * (1 + 4)])
        np.testing.assert_allclose(out[(2, 1, 1)].species, [4 + 0.5 * (2 + 3)])

    def test_single_tile_any_weight(self):
        (t,) = tile_grid(Rect(0, 0, 4, 4), GridSpec(1))
        tiles = {tile_key(t): TileLogits(tile=t, species=np.array([5.0]))}
        out = kernel_smooth(tiles, 2.0, GridSpec(1))
        np.testing.assert_array_equal(out[(1, 0, 0)].species, [5.0])

    def test_single_pass_no_cascade(self):
        # 3x1-ish: use a 3x3 grid, check the middle tile uses raw inputs only
        tiles = {}
        for t in tile_grid(Rect(0, 0, 9, 9), GridSpec(3)):
            tiles[tile_key(t)] = TileLogits(
                tile=t, species=np.array([float(t.row * 3 + t.col)])
            )
        out = kernel_smooth(tiles, 1.0, GridSpec(3))
        center = 4.0
        expected = center + (1.0 + 3.0 + 5.0 + 7.0)  # unsmoothed neighbors
        np.testing.assert_allclose(out[(3, 1, 1)].species, [expected])

    def test_linearity(self):
        rng = np.random.default_rng(8)
        grid = tile_grid(Rect(0, 0, 6, 6), GridSpec(3))
        a = {tile_key(t): TileLogits(t, rng.standard_normal(4)) for t in grid}
        b = {tile_key(t): TileLogits(t, rng.standard_normal(4)) for t in grid}
        both = {
            k: TileLogits(a[k].tile, a[k].species + b[k].species) for k in a
        }
        sa = kernel_smooth(a, 0.7, GridSpec(3))
        sb = kernel_smooth(b, 0.7, GridSpec(3))
        sboth = kernel_smooth(both, 0.7, GridSpec(3))
        for k in a:
            np.testing.assert_allclose(
                sboth[k].species, sa[k].species + sb[k].species, atol=1e-9
            )

    def test_neighbors_added_in_fixed_order(self):
        # bit-exact against one accumulation per neighbor, in the order
        # geometry.neighbors lists them (up, down, left, right)
        rng = np.random.default_rng(12)
        spec = GridSpec(4)
        tiles = {
            tile_key(t): TileLogits(
                t, rng.standard_normal(64) * 10.0 ** rng.integers(-8, 8, size=64)
            )
            for t in tile_grid(Rect(0, 0, 8, 8), spec)
        }
        out = kernel_smooth(tiles, 0.3, spec)
        for key, tl in tiles.items():
            acc = tl.species.copy()
            for r, c in neighbors(tl.tile, spec):
                acc += 0.3 * tiles[(4, r, c)].species
            np.testing.assert_array_equal(out[key].species, acc)

    def test_incomplete_grid(self):
        tiles = self.four_tiles()
        tiles.pop((2, 1, 1))
        with pytest.raises(IncompleteGridError):
            kernel_smooth(tiles, 0.5, GridSpec(2))

    def test_negative_weight(self):
        with pytest.raises(ConfigError):
            kernel_smooth(self.four_tiles(), -0.1, GridSpec(2))
