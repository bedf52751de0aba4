import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_tile import neighbors
from quadflora.errors import ConfigError, GeometryError
from quadflora.geometry import (
    CropSpec,
    GridSpec,
    Rect,
    bands,
    central_crop,
    tile_grid,
)


class TestRect:
    def test_dimensions(self):
        r = Rect(1, 2, 4, 7)
        assert (r.width, r.height) == (3, 5)

    @pytest.mark.parametrize("bad", [(0, 0, 0, 1), (2, 0, 1, 1), (-1, 0, 1, 1)])
    def test_degenerate(self, bad):
        with pytest.raises(GeometryError):
            Rect(*bad)


class TestCentralCrop:
    def test_ten_percent_of_20(self):
        out = central_crop(Rect(0, 0, 20, 20), CropSpec(0.10))
        assert out == Rect(2, 2, 18, 18)

    def test_zero_is_identity(self):
        r = Rect(3, 5, 40, 21)
        assert central_crop(r, CropSpec(0.0)) == r

    def test_five_percent_of_1000x800(self):
        out = central_crop(Rect(0, 0, 1000, 800), CropSpec(0.05))
        assert out == Rect(50, 40, 950, 760)
        assert (out.width, out.height) == (900, 720)

    def test_idempotent_after_zero(self):
        r = central_crop(Rect(0, 0, 33, 17), CropSpec(0.12))
        assert central_crop(r, CropSpec(0.0)) == r

    def test_frac_bounds(self):
        with pytest.raises(ConfigError):
            CropSpec(0.3)
        with pytest.raises(ConfigError):
            CropSpec(-0.01)


class TestTileGrid:
    def test_even_division(self):
        tiles = tile_grid(Rect(0, 0, 16, 16), GridSpec(4))
        assert len(tiles) == 16
        assert all(t.rect.width == 4 and t.rect.height == 4 for t in tiles)
        covered = np.zeros((16, 16), dtype=int)
        for t in tiles:
            covered[t.rect.y0 : t.rect.y1, t.rect.x0 : t.rect.x1] += 1
        assert (covered == 1).all()

    def test_uneven_division_matches_floor_boundaries(self):
        # oracle: boundaries at floor(i*16/5), widths are their differences
        bounds = [(i * 16) // 5 for i in range(6)]
        widths = [b - a for a, b in zip(bounds, bounds[1:])]
        tiles = tile_grid(Rect(0, 0, 16, 16), GridSpec(5))
        row0 = [t for t in tiles if t.row == 0]
        assert [t.rect.width for t in sorted(row0, key=lambda t: t.col)] == widths
        assert widths == [3, 3, 3, 3, 4]

    def test_scale_one_is_region(self):
        region = Rect(2, 3, 19, 11)
        (tile,) = tile_grid(region, GridSpec(1))
        assert tile.rect == region and (tile.row, tile.col) == (0, 0)

    def test_scale_too_large(self):
        with pytest.raises(GeometryError):
            tile_grid(Rect(0, 0, 4, 4), GridSpec(5))

    def test_overlap_enlarges_and_clamps(self):
        tiles = {
            (t.row, t.col): t for t in tile_grid(Rect(0, 0, 16, 16), GridSpec(4, 0.25))
        }
        assert tiles[(0, 0)].rect == Rect(0, 0, 5, 5)
        assert tiles[(1, 1)].rect == Rect(3, 3, 9, 9)
        assert tiles[(3, 3)].rect == Rect(11, 11, 16, 16)

    def test_bands_floor_then_grow_and_clamp(self):
        assert bands(0, 16, 5) == [(0, 3), (3, 6), (6, 9), (9, 12), (12, 16)]
        assert bands(0, 16, 4, 0.25) == [(0, 5), (3, 9), (7, 13), (11, 16)]
        assert bands(2, 9, 2, 0.49) == [(2, 6), (4, 9)]  # each grown by 1, clamped to [2, 9)

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        x0=st.integers(0, 5),
        y0=st.integers(0, 5),
        scale=st.integers(1, 12),
        overlap=st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.49]),
    )
    def test_rects_are_row_band_by_column_band(self, w, h, x0, y0, scale, overlap):
        if scale > min(w, h):
            return
        region = Rect(x0, y0, x0 + w, y0 + h)
        ys = bands(y0, y0 + h, scale, overlap)
        xs = bands(x0, x0 + w, scale, overlap)
        tiles = tile_grid(region, GridSpec(scale, overlap))
        assert [(t.scale, t.row, t.col, t.rect) for t in tiles] == [
            (scale, row, col, Rect(xa, ya, xb, yb))
            for row, (ya, yb) in enumerate(ys)
            for col, (xa, xb) in enumerate(xs)
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.integers(2, 40),
        h=st.integers(2, 40),
        x0=st.integers(0, 5),
        y0=st.integers(0, 5),
        scale=st.integers(1, 12),
    )
    def test_partition_exactness(self, w, h, x0, y0, scale):
        if scale > min(w, h):
            return
        region = Rect(x0, y0, x0 + w, y0 + h)
        covered = np.zeros((h, w), dtype=int)
        for t in tile_grid(region, GridSpec(scale)):
            covered[
                t.rect.y0 - y0 : t.rect.y1 - y0, t.rect.x0 - x0 : t.rect.x1 - x0
            ] += 1
        assert (covered == 1).all()


class TestNeighbors:
    def test_corner_in_2x2(self):
        tiles = tile_grid(Rect(0, 0, 8, 8), GridSpec(2))
        corner = next(t for t in tiles if (t.row, t.col) == (0, 0))
        assert sorted(neighbors(corner, GridSpec(2))) == [(0, 1), (1, 0)]

    def test_center_in_3x3(self):
        tiles = tile_grid(Rect(0, 0, 9, 9), GridSpec(3))
        center = next(t for t in tiles if (t.row, t.col) == (1, 1))
        assert len(neighbors(center, GridSpec(3))) == 4

    def test_singleton_grid(self):
        (tile,) = tile_grid(Rect(0, 0, 4, 4), GridSpec(1))
        assert neighbors(tile, GridSpec(1)) == []

    def test_symmetry(self):
        spec = GridSpec(4)
        tiles = {(t.row, t.col): t for t in tile_grid(Rect(0, 0, 16, 16), spec)}
        for key, t in tiles.items():
            for other in neighbors(t, spec):
                assert key in neighbors(tiles[other], spec)
