"""Crop rectangles and multi-scale tile grids.

Coordinates are integer cell units with half-open rectangles; an n x n
grid partitions a region exactly (boundaries at floor(i * extent / n)),
so no cells are discarded however unevenly the division falls.
"""

import itertools
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


def bands(lo: int, hi: int, n: int, overlap_frac: float = 0.0) -> list[tuple[int, int]]:
    """The n bands [a, b) of one axis of a tile grid on [lo, hi): boundaries
    at lo + floor(i * (hi - lo) / n), each band grown by floor(overlap_frac
    * its size) per side, clamped to [lo, hi)."""
    edges = [lo + (i * (hi - lo)) // n for i in range(n + 1)]
    grow = [math.floor(overlap_frac * (b - a)) for a, b in zip(edges, edges[1:])]
    return [(max(lo, a - g), min(hi, b + g)) for a, b, g in zip(edges, edges[1:], grow)]


def tile_grid(region: Rect, spec: GridSpec) -> list[TileRef]:
    """All scale^2 tiles of the region, row-major, each one row band by one
    column band (bands). With overlap_frac = 0 they partition the region."""
    n = spec.scale
    check_fits(region, n)
    ys = bands(region.y0, region.y1, n, spec.overlap_frac)
    xs = bands(region.x0, region.x1, n, spec.overlap_frac)
    cells = itertools.product(enumerate(ys), enumerate(xs))
    return [TileRef(n, r, c, Rect(x0, y0, x1, y1)) for (r, (y0, y1)), (c, (x0, x1)) in cells]
