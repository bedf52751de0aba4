import numpy as np
import pytest

from quadflora.errors import (
    DanglingReferenceError,
    FormatError,
    TaxonomyContradictionError,
    UnknownSpeciesError,
)
from quadflora.taxonomy import TaxonomyTable, load_taxonomy, write_taxonomy_csv

HEADER = "species_id,genus_id,family_id\n"


def write_csv(path, rows):
    path.write_text(HEADER + "".join(f"{s},{g},{f}\n" for s, g, f in rows))
    return path


class TestLoad:
    def test_three_row_fixture_counts(self, tmp_path):
        p = write_csv(tmp_path / "tax.csv", [(0, 10, 100), (1, 10, 100), (2, 11, 100)])
        t = load_taxonomy(p)
        assert (t.n_species, t.n_genera, t.n_families) == (3, 2, 1)

    def test_contradictory_species_rows(self, tmp_path):
        p = write_csv(tmp_path / "tax.csv", [(0, 0, 0), (0, 1, 0)])
        with pytest.raises(TaxonomyContradictionError):
            load_taxonomy(p)

    def test_contradictory_genus_rows(self, tmp_path):
        p = write_csv(tmp_path / "tax.csv", [(0, 0, 0), (1, 0, 1)])
        with pytest.raises(TaxonomyContradictionError):
            load_taxonomy(p)

    def test_duplicate_identical_rows_tolerated(self, tmp_path):
        p = write_csv(tmp_path / "tax.csv", [(0, 0, 0), (0, 0, 0), (1, 0, 0)])
        assert load_taxonomy(p).n_species == 2

    def test_bad_header(self, tmp_path):
        p = tmp_path / "tax.csv"
        p.write_text("species,genus,family\n0,0,0\n")
        with pytest.raises(FormatError):
            load_taxonomy(p)

    def test_non_integer_field(self, tmp_path):
        p = tmp_path / "tax.csv"
        p.write_text(HEADER + "a,0,0\n")
        with pytest.raises(FormatError):
            load_taxonomy(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "tax.csv"
        p.write_text(HEADER)
        with pytest.raises(FormatError):
            load_taxonomy(p)

    def test_deterministic(self, tmp_path):
        rows = [(5, 2, 9), (3, 2, 9), (8, 4, 9), (1, 7, 11)]
        a = load_taxonomy(write_csv(tmp_path / "a.csv", rows))
        b = load_taxonomy(write_csv(tmp_path / "b.csv", rows))
        assert a == b


class TestLookups:
    @pytest.fixture
    def fixture(self, tmp_path):
        return load_taxonomy(
            write_csv(tmp_path / "tax.csv", [(0, 0, 0), (1, 0, 0), (2, 1, 0)])
        )

    def test_genus_of(self, fixture):
        assert fixture.genus_of(2) == 1

    def test_family_of_composes(self, fixture):
        assert fixture.family_of(2) == 0
        for s in range(fixture.n_species):
            assert fixture.family_of(s) == int(
                fixture.genus_to_family[fixture.genus_of(s)]
            )

    def test_unknown_species(self, fixture):
        with pytest.raises(UnknownSpeciesError):
            fixture.genus_of(99)
        with pytest.raises(UnknownSpeciesError):
            fixture.family_of(-1)


class TestInvariants:
    def test_round_trip(self, tmp_path):
        rows = [(5, 20, 300), (7, 20, 300), (9, 21, 301), (12, 22, 301)]
        table = load_taxonomy(write_csv(tmp_path / "tax.csv", rows))
        out = tmp_path / "out.csv"
        write_taxonomy_csv(table, out)
        assert load_taxonomy(out) == table

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n_s = int(rng.integers(1, 30))
            n_g = int(rng.integers(1, n_s + 1))
            n_f = int(rng.integers(1, n_g + 1))
            s2g = np.concatenate(
                [rng.permutation(n_g), rng.integers(0, n_g, n_s - n_g)]
            )
            g2f = np.concatenate(
                [rng.permutation(n_f), rng.integers(0, n_f, n_g - n_f)]
            )
            table = TaxonomyTable.from_dense(s2g, g2f, n_families=n_f)
            out = tmp_path / f"t{trial}.csv"
            write_taxonomy_csv(table, out)
            assert load_taxonomy(out) == table

    def test_dangling_reference(self):
        with pytest.raises(DanglingReferenceError):
            TaxonomyTable.from_dense([0, 5], [0], n_families=1)
        with pytest.raises(DanglingReferenceError):
            TaxonomyTable.from_dense([0], [3], n_families=1)

    def test_species_to_family_composition(self, tmp_path):
        table = load_taxonomy(
            write_csv(tmp_path / "tax.csv", [(0, 0, 0), (1, 1, 1), (2, 1, 1)])
        )
        np.testing.assert_array_equal(table.species_to_family, [0, 1, 1])
        assert table.species_to_family is table.species_to_family  # built once
