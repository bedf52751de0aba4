"""Species -> genus -> family hierarchy: loading, validation, lookups.

The table is immutable after load.
External ids are remapped to dense 0..n-1 indices per level at load time
so that classifier logit vectors can be indexed directly; the original
labels are kept for serialization and for translating predictions back
to the id space of the input files.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text, bad_id, read_row_lines
from .errors import (
    DanglingReferenceError,
    FormatError,
    TaxonomyContradictionError,
    UnknownSpeciesError,
)

TAXONOMY_HEADER = ["species_id", "genus_id", "family_id"]
_INT64_MAX = int(np.iinfo(np.int64).max)  # ids are held as int64


@dataclass(frozen=True, eq=False)
class TaxonomyTable:
    """Dense functional maps up the hierarchy.

    species_to_genus[s] is the genus index of species index s;
    genus_to_family[g] the family index of genus index g. The *_labels
    arrays give the original integer ids, ascending, so dense index i
    corresponds to label species_labels[i] (and analogously per level).
    """

    species_to_genus: np.ndarray
    genus_to_family: np.ndarray
    species_labels: np.ndarray
    genus_labels: np.ndarray
    family_labels: np.ndarray

    @property
    def n_species(self) -> int:
        return int(self.species_to_genus.shape[0])

    @property
    def n_genera(self) -> int:
        return int(self.genus_to_family.shape[0])

    @property
    def n_families(self) -> int:
        return int(self.family_labels.shape[0])

    @classmethod
    def from_dense(cls, species_to_genus, genus_to_family, n_families=None):
        """Build a table whose labels are the dense indices themselves."""
        s2g = np.asarray(species_to_genus, dtype=np.int64)
        g2f = np.asarray(genus_to_family, dtype=np.int64)
        if n_families is None:
            n_families = int(g2f.max()) + 1 if g2f.size else 0
        table = cls(
            species_to_genus=s2g,
            genus_to_family=g2f,
            species_labels=np.arange(s2g.shape[0], dtype=np.int64),
            genus_labels=np.arange(g2f.shape[0], dtype=np.int64),
            family_labels=np.arange(n_families, dtype=np.int64),
        )
        table.validate()
        return table

    def validate(self) -> None:
        s2g, g2f = self.species_to_genus, self.genus_to_family
        if s2g.ndim != 1 or g2f.ndim != 1:
            raise FormatError("hierarchy maps must be 1-d arrays")
        for name, labels, expected in (
            ("species", self.species_labels, s2g.shape[0]),
            ("genus", self.genus_labels, g2f.shape[0]),
            ("family", self.family_labels, self.family_labels.shape[0]),
        ):
            if labels.shape[0] != expected:
                raise FormatError(f"{name} label count does not match map size")
            if labels.size and (np.diff(labels) <= 0).any():
                raise FormatError(f"{name} labels must be strictly ascending")
            if labels.size and labels.min() < 0:
                raise FormatError(f"{name} labels must be nonnegative")
        if s2g.size and (s2g.min() < 0 or s2g.max() >= self.n_genera):
            raise DanglingReferenceError("species maps to a genus with no family row")
        if g2f.size and (g2f.min() < 0 or g2f.max() >= self.n_families):
            raise DanglingReferenceError("genus maps to an unknown family")

    def genus_of(self, species: int) -> int:
        if not 0 <= species < self.n_species:
            raise UnknownSpeciesError(f"unknown species index {species}")
        return int(self.species_to_genus[species])

    def family_of(self, species: int) -> int:
        return int(self.genus_to_family[self.genus_of(species)])

    @functools.cached_property
    def species_to_family(self) -> np.ndarray:
        """Composed dense map, species index -> family index; built once."""
        return self.genus_to_family[self.species_to_genus]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaxonomyTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in (
                "species_to_genus",
                "genus_to_family",
                "species_labels",
                "genus_labels",
                "family_labels",
            )
        )


def load_taxonomy(path) -> TaxonomyTable:
    """Load and validate a taxonomy CSV (header species_id,genus_id,family_id).

    Duplicate identical rows are tolerated; a species listed under two
    genera (or a genus under two families) is a contradiction error.
    """
    species_genus: dict[int, int] = {}
    genus_family: dict[int, int] = {}
    for lineno, row, _ in read_row_lines(path, TAXONOMY_HEADER):
        try:
            s, g, f = (int(field) for field in row)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {bad_id(row)}") from exc
        if min(s, g, f) < 0:
            raise FormatError(f"{path}:{lineno}: negative id")
        if max(s, g, f) > _INT64_MAX:
            raise FormatError(f"{path}:{lineno}: id larger than {_INT64_MAX}")
        if species_genus.get(s, g) != g:
            raise TaxonomyContradictionError(
                f"species {s} listed under genera {species_genus[s]} and {g}"
            )
        if genus_family.get(g, f) != f:
            raise TaxonomyContradictionError(
                f"genus {g} listed under families {genus_family[g]} and {f}"
            )
        species_genus[s] = g
        genus_family[g] = f
    if not species_genus:
        raise FormatError(f"no taxonomy rows in {path}")

    species_labels = np.array(sorted(species_genus), dtype=np.int64)
    genus_labels = np.array(sorted(genus_family), dtype=np.int64)
    family_labels = np.array(sorted(set(genus_family.values())), dtype=np.int64)
    genus_index = {int(g): i for i, g in enumerate(genus_labels)}
    family_index = {int(f): i for i, f in enumerate(family_labels)}

    table = TaxonomyTable(
        species_to_genus=np.array(
            [genus_index[species_genus[int(s)]] for s in species_labels], dtype=np.int64
        ),
        genus_to_family=np.array(
            [family_index[genus_family[int(g)]] for g in genus_labels], dtype=np.int64
        ),
        species_labels=species_labels,
        genus_labels=genus_labels,
        family_labels=family_labels,
    )
    table.validate()
    return table


def write_taxonomy_csv(table: TaxonomyTable, path) -> None:
    """Serialize with original labels, one row per species, ascending."""
    lines = [",".join(TAXONOMY_HEADER)]
    for i in range(table.n_species):
        g = table.species_to_genus[i]
        lines.append(
            f"{table.species_labels[i]},{table.genus_labels[g]},"
            f"{table.family_labels[table.genus_to_family[g]]}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
