"""Crop rectangles and multi-scale tile grids.

Coordinates are integer cell units with half-open rectangles; an n x n
grid partitions a region exactly (boundaries at floor(i * extent / n)),
so no cells are discarded however unevenly the division falls.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, GeometryError


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle [x0, x1) x [y0, y1) in cell units."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if not (0 <= self.x0 < self.x1 and 0 <= self.y0 < self.y1):
            raise GeometryError(f"degenerate rectangle {self!r}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def contains(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and other.x1 <= self.x1
            and other.y1 <= self.y1
        )


@dataclass(frozen=True)
class CropSpec:
    """Fraction of width/height removed from each of the four sides."""

    frac: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.frac <= 0.25:
            raise ConfigError(f"crop fraction {self.frac} outside [0, 0.25]")


@dataclass(frozen=True)
class GridSpec:
    """An n x n tile grid; overlap_frac symmetrically enlarges tiles."""

    scale: int
    overlap_frac: float = 0.0

    def __post_init__(self):
        if self.scale < 1:
            raise ConfigError(f"grid scale must be >= 1, got {self.scale}")
        if not 0.0 <= self.overlap_frac < 0.5:
            raise ConfigError(f"overlap fraction {self.overlap_frac} outside [0, 0.5)")


@dataclass(frozen=True)
class TileRef:
    scale: int
    row: int
    col: int
    rect: Rect


def central_crop(image_rect: Rect, spec: CropSpec) -> Rect:
    """Remove floor(frac * extent) cells from all four sides."""
    dx = math.floor(spec.frac * image_rect.width)
    dy = math.floor(spec.frac * image_rect.height)
    if image_rect.width - 2 * dx <= 0 or image_rect.height - 2 * dy <= 0:
        raise GeometryError(f"crop frac={spec.frac} empties {image_rect!r}")
    return Rect(image_rect.x0 + dx, image_rect.y0 + dy, image_rect.x1 - dx, image_rect.y1 - dy)


def check_fits(region: Rect, n: int) -> None:
    """A GeometryError unless an n x n grid fits the region, one cell per tile at least."""
    if n > min(region.width, region.height):
        raise GeometryError(f"scale {n} too large for {region.width}x{region.height} region")


def tile_grid(region: Rect, spec: GridSpec) -> list[TileRef]:
    """All scale^2 tiles of the region, row-major.

    With overlap_frac = 0 the tiles partition the region exactly. With
    overlap, each tile grows by floor(overlap_frac * its size) per side,
    clamped to the region.
    """
    n = spec.scale
    check_fits(region, n)
    xs = [region.x0 + (i * region.width) // n for i in range(n + 1)]
    ys = [region.y0 + (i * region.height) // n for i in range(n + 1)]
    tiles = []
    for row in range(n):
        for col in range(n):
            x0, x1 = xs[col], xs[col + 1]
            y0, y1 = ys[row], ys[row + 1]
            if spec.overlap_frac > 0.0:
                gx = math.floor(spec.overlap_frac * (x1 - x0))
                gy = math.floor(spec.overlap_frac * (y1 - y0))
                x0 = max(region.x0, x0 - gx)
                x1 = min(region.x1, x1 + gx)
                y0 = max(region.y0, y0 - gy)
                y1 = min(region.y1, y1 + gy)
            tiles.append(TileRef(n, row, col, Rect(x0, y0, x1, y1)))
    return tiles
