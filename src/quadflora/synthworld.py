"""Deterministic synthetic quadrat corpus and toy classifier heads.

A quadrat is a square grid of feature vectors rather than pixels: each
planted species owns one axis-aligned rectangular patch (from a
recursive split of the grid), and every cell carries that species'
prototype vector plus Gaussian noise. This keeps the tiling/aggregation
structure of real survey imagery while making ground truth exact, so
the whole inference pipeline can be verified end to end.

Patches can be forced onto a coarse alignment grid (``patch_align``),
which guarantees that fine tile grids whose tile size equals the
alignment contain at least one single-species tile per patch; with zero
noise such tiles are classified perfectly by the prototype heads.

Everything is a pure function of SynthConfig: the noise draw does not
depend on noise_sigma (it only scales it), so corpora generated from
the same seed differ only in noise magnitude.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, GeometryError, QuadfloraError, ShapeError, UnknownHeadError
from .geometry import Rect, TileRef
from .taxonomy import TaxonomyTable

LEVELS = ("species", "genus", "family")


@dataclass(frozen=True)
class SynthConfig:
    n_species: int
    n_genera: int
    n_families: int
    n_quadrats: int = 16
    quadrats_per_transect: int = 4
    grid_cells: int = 20
    feature_dim: int = 32
    noise_sigma: float = 0.0
    richness_min: int = 4
    richness_max: int = 4
    patch_align: int = 1
    orthogonal_prototypes: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.n_species >= self.n_genera >= self.n_families >= 1:
            raise ConfigError("need n_species >= n_genera >= n_families >= 1")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_quadrats < 1 or self.quadrats_per_transect < 1:
            raise ConfigError("need at least one quadrat and one per transect")
        if not 1 <= self.richness_min <= self.richness_max:
            raise ConfigError("need 1 <= richness_min <= richness_max")
        if self.richness_max > self.n_species:
            raise ConfigError(
                f"richness {self.richness_max} exceeds n_species {self.n_species}"
            )
        if self.patch_align < 1 or self.grid_cells % self.patch_align != 0:
            raise ConfigError("patch_align must be >= 1 and divide grid_cells")
        quanta = self.grid_cells // self.patch_align
        if self.richness_max > quanta * quanta:
            raise ConfigError(
                f"richness {self.richness_max} does not fit "
                f"{quanta}x{quanta} aligned patches"
            )
        if self.orthogonal_prototypes and self.feature_dim < self.n_species:
            raise ConfigError("orthogonal prototypes need feature_dim >= n_species")


@dataclass(frozen=True)
class Quadrat:
    """One synthetic plot.

    Generated quadrats hold their cells. A quadrat read from a features
    file has cells None and a load_cells that parses them, by region, as
    first needed (see formats.load_quadrat_features). With neither, it is
    a feature-less stub whose logits come entirely from a cache.
    """

    quadrat_id: str
    transect_id: str
    grid_cells: int
    cells: Optional[np.ndarray]  # (grid, grid, feature_dim)
    truth: frozenset = field(default_factory=frozenset)
    load_cells: Optional[Callable[[Optional[Rect]], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def features(self, region: Optional[Rect] = None) -> Optional[np.ndarray]:
        """The (grid, grid, feature_dim) cells, None for a stub. A quadrat
        read from a file parses every cell, or with a region those of the
        region alone: its cells outside the region may then be NaN."""
        if self.cells is None and self.load_cells is not None:
            return self.load_cells(region)
        return self.cells


@dataclass(frozen=True)
class LinearHead:
    weight: np.ndarray  # (n_out, feature_dim)
    bias: np.ndarray  # (n_out,)

    @property
    def in_dim(self) -> int:
        return int(self.weight.shape[1])

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Logits of a (D,) feature vector or of each row of a (T x D) matrix."""
        return f @ self.weight.T + self.bias


@dataclass(frozen=True)
class TwoLayerHead:
    """Two linear layers with a ReLU between them: apply(f) is out(hidden(f))."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def in_dim(self) -> int:
        return int(self.w1.shape[1])

    def hidden(self, f: np.ndarray) -> np.ndarray:
        return np.maximum(f @ self.w1.T + self.b1, 0.0)

    def out(self, h: np.ndarray) -> np.ndarray:
        return h @ self.w2.T + self.b2

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Logits of a (D,) feature vector or of each row of a (T x D) matrix."""
        return self.out(self.hidden(f))


Head = Union[LinearHead, TwoLayerHead]


@dataclass(frozen=True)
class ToyModel:
    """One head per taxonomy level over the shared tile feature."""

    model_id: str
    species_head: Head
    genus_head: Optional[Head] = None
    family_head: Optional[Head] = None

    def head_for(self, level: str) -> Optional[Head]:
        if level not in LEVELS:
            raise QuadfloraError(f"unknown taxonomy level {level!r}")
        return getattr(self, f"{level}_head")


def head_logits(model: ToyModel, level: str, f: np.ndarray, memo: Optional[dict] = None):
    """Apply the model's head for one level to a tile feature vector (D,),
    or to a (T x D) matrix of them at once, giving (C,) or (T x C).

    The matrix form is one GEMM; its last bits can depend on T, so a row
    need not equal the vector call on that row to the ulp.

    memo, a dict for this f alone, keeps a TwoLayerHead's hidden(f) for
    the next head with its (w1, b1) arrays (compose_model shares them if
    bit-equal): the same GEMM of the same bits, as apply(f) would run.
    """
    head = model.head_for(level)
    if head is None:
        raise QuadfloraError(f"model {model.model_id} has no {level} head")
    f = np.asarray(f, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1] != head.in_dim:
        raise ShapeError(
            f"feature has shape {f.shape}, head expects ({head.in_dim},) "
            f"or (T, {head.in_dim})"
        )
    if memo is None or not isinstance(head, TwoLayerHead):
        return head.apply(f)
    key = (id(head.w1), id(head.b1))  # the model holds both while memo lives
    if key not in memo:
        memo[key] = head.hidden(f)
    return head.out(memo[key])


@dataclass(frozen=True)
class HeadRegistry:
    """Pool of trained head variants, by level and variant id."""

    heads: dict  # level -> {head_id: Head}
    records: Optional[dict] = None  # "level/head_id" -> its lines' record (formats)

    def get(self, level: str, head_id: str) -> Head:
        try:
            return self.heads[level][head_id]
        except KeyError:
            raise UnknownHeadError(f"no {level} head {head_id!r} in registry") from None

    def variant_ids(self, level: str) -> tuple[str, ...]:
        return tuple(sorted(self.heads.get(level, {})))


def tile_features(q: Quadrat, t: TileRef) -> np.ndarray:
    """Mean of the cell feature vectors inside the tile's rectangle."""
    r = t.rect
    cells = q.features(r)
    if cells is None:
        raise QuadfloraError(f"quadrat {q.quadrat_id} has no feature grid")
    if not Rect(0, 0, q.grid_cells, q.grid_cells).contains(r):
        raise GeometryError(f"tile {r!r} outside quadrat {q.quadrat_id}")
    return cells[r.y0 : r.y1, r.x0 : r.x1].mean(axis=(0, 1))


def _two_layer_of(weight: np.ndarray) -> TwoLayerHead:
    # Exact ReLU factorization: W f = W relu(f) - W relu(-f).
    d = weight.shape[1]
    eye = np.eye(d)
    return TwoLayerHead(
        w1=np.concatenate([eye, -eye], axis=0),
        b1=np.zeros(2 * d),
        w2=np.concatenate([weight, -weight], axis=1),
        b2=np.zeros(weight.shape[0]),
    )


def _surjective_assignment(n_from: int, n_to: int, rng) -> np.ndarray:
    """Random total map hitting every target at least once."""
    head = rng.permutation(n_to)
    tail = rng.integers(0, n_to, size=n_from - n_to)
    out = np.concatenate([head, tail]).astype(np.int64)
    rng.shuffle(out)
    return out


def _prototypes(cfg: SynthConfig, rng) -> np.ndarray:
    if cfg.orthogonal_prototypes:
        a = rng.standard_normal((cfg.feature_dim, cfg.n_species))
        q, r = np.linalg.qr(a)
        q = q * np.sign(np.diag(r))  # canonical sign, determinism aid
        return np.ascontiguousarray(q[:, : cfg.n_species].T)
    v = rng.standard_normal((cfg.n_species, cfg.feature_dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _group_mean_rows(protos: np.ndarray, assign: np.ndarray, n_groups: int) -> np.ndarray:
    out = np.zeros((n_groups, protos.shape[1]))
    counts = np.bincount(assign, minlength=n_groups).astype(np.float64)
    np.add.at(out, assign, protos)
    return out / counts[:, None]


def _split_patches(width: int, height: int, k: int, rng) -> list[tuple[int, int, int, int]]:
    """Recursively split a width x height rectangle into k rectangles,
    each with both sides >= 1, in grid-quantum units.

    The longer axis is cut at a random position and the patch budget is
    divided proportionally, clamped so both halves stay feasible.
    """
    if width * height < k:
        raise ConfigError(f"cannot place {k} patches in {width}x{height}")
    if k == 1:
        return [(0, 0, width, height)]
    length, other = (width, height) if width >= height else (height, width)
    t = int(rng.integers(1, length))
    k1 = int(round(k * t / length))
    k1 = max(k1, k - (length - t) * other, 1)
    k1 = min(k1, t * other, k - 1)
    if width >= height:
        first = _split_patches(t, height, k1, rng)
        second = _split_patches(width - t, height, k - k1, rng)
        return first + [(x + t, y, w, h) for (x, y, w, h) in second]
    first = _split_patches(width, t, k1, rng)
    second = _split_patches(width, height - t, k - k1, rng)
    return first + [(x, y + t, w, h) for (x, y, w, h) in second]


def gen_world(cfg: SynthConfig) -> tuple[TaxonomyTable, list[Quadrat], HeadRegistry]:
    """Generate taxonomy, quadrat corpus, and head registry from a seed."""
    rng = np.random.default_rng(cfg.seed)

    s2g = _surjective_assignment(cfg.n_species, cfg.n_genera, rng)
    g2f = _surjective_assignment(cfg.n_genera, cfg.n_families, rng)
    tax = TaxonomyTable.from_dense(s2g, g2f, n_families=cfg.n_families)

    protos = _prototypes(cfg, rng)
    genus_w = _group_mean_rows(protos, tax.species_to_genus, cfg.n_genera)
    family_w = _group_mean_rows(genus_w, tax.genus_to_family, cfg.n_families)
    # lin1c emulates an imperfectly trained head: every species' weight row
    # leaks a fraction of one other species' prototype (a derangement), the
    # kind of pairwise confusion the genus/family heads can correct.
    cycle = rng.permutation(cfg.n_species)
    partner = np.empty(cfg.n_species, dtype=np.int64)
    partner[cycle] = cycle[np.roll(np.arange(cfg.n_species), -1)]
    registry = HeadRegistry(
        heads={
            "species": {
                "lin1": LinearHead(protos.copy(), np.zeros(cfg.n_species)),
                "lin1h": LinearHead(0.5 * protos, np.zeros(cfg.n_species)),
                "lin1c": LinearHead(
                    protos + 0.75 * protos[partner], np.zeros(cfg.n_species)
                ),
            },
            "genus": {
                "lin1": LinearHead(genus_w.copy(), np.zeros(cfg.n_genera)),
                "mlp2": _two_layer_of(1.5 * genus_w),
            },
            "family": {
                "lin1": LinearHead(family_w.copy(), np.zeros(cfg.n_families)),
                "mlp2": _two_layer_of(1.5 * family_w),
            },
        }
    )

    quanta = cfg.grid_cells // cfg.patch_align
    quadrats = []
    for qi in range(cfg.n_quadrats):
        richness = int(rng.integers(cfg.richness_min, cfg.richness_max + 1))
        planted = np.sort(rng.choice(cfg.n_species, size=richness, replace=False))
        order = rng.permutation(richness)
        cells_species = np.empty((cfg.grid_cells, cfg.grid_cells), dtype=np.int64)
        for patch, which in zip(_split_patches(quanta, quanta, richness, rng), order):
            px, py, pw, ph = (v * cfg.patch_align for v in patch)
            cells_species[py : py + ph, px : px + pw] = planted[which]
        noise = rng.standard_normal((cfg.grid_cells, cfg.grid_cells, cfg.feature_dim))
        cells = protos[cells_species] + cfg.noise_sigma * noise
        quadrats.append(
            Quadrat(
                quadrat_id=f"q{qi:04d}",
                transect_id=f"t{qi // cfg.quadrats_per_transect:03d}",
                grid_cells=cfg.grid_cells,
                cells=cells,
                truth=frozenset(int(s) for s in planted),
            )
        )
    return tax, quadrats, registry


def synth_summary(tax: TaxonomyTable, quadrats: list[Quadrat]) -> str:
    transects = {q.transect_id for q in quadrats}
    mean_richness = float(np.mean([len(q.truth) for q in quadrats]))
    return (
        f"generated {tax.n_species} species, {tax.n_genera} genera, "
        f"{tax.n_families} families; {len(quadrats)} quadrats in "
        f"{len(transects)} transects, mean richness {mean_richness:.4f}"
    )
