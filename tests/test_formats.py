import base64
import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadflora import formats
from quadflora._util import canonical9, fmt9_array, fmt9_rows
from quadflora.cli import main
from quadflora.ensemble import HeadSelection
from quadflora.errors import ConfigError, DuplicatePredictionError, FormatError, ShapeError
from quadflora.metric import GroundTruthTable
from quadflora.selection import PredictionSet
from quadflora.synthworld import SynthConfig, gen_world
from quadflora.taxonomy import TAXONOMY_HEADER


class TestCanonicalFloats:
    """canonical9, float('%.9g' % x), and the block writer fmt9_rows against
    per-value '%.9g' text where its digits come from _digits9."""

    def test_round_trip_is_fixed_point(self):
        rng = np.random.default_rng(0)
        v = np.concatenate(
            [
                rng.standard_normal(5000) * 10.0 ** rng.integers(-12, 12, 5000),
                [0.0, -0.0, 1e-310, -1e-310, 1e300, -1e300, 0.1, 1 / 3],
            ]
        )
        once = canonical9(v)
        np.testing.assert_array_equal(canonical9(once), once)
        assert fmt9_array(once) == fmt9_array(v)

    def test_parse_of_rendering_recovers_canonical(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(2000) * 1e6
        rendered = fmt9_array(canonical9(v))
        np.testing.assert_array_equal(np.array(rendered, dtype=np.float64), canonical9(v))

    def test_precision_within_nine_digits(self):
        v = np.array([123456789.123, -0.000123456789123, 3.141592653589793])
        np.testing.assert_allclose(canonical9(v), v, rtol=5e-9)

    def test_bit_identical_to_text_on_adversarial_values(self):
        powers = np.array([10.0**p for p in range(-320, 309)])
        powers = powers[powers != 0]
        below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
        tiny = np.finfo(np.float64).tiny
        n = np.arange(-50_000, 50_000)
        rng = np.random.default_rng(5)
        nine_digit_ties = (rng.integers(10**8, 10**9, 2000) + 0.5) * 10.0 ** rng.integers(
            -45, 45, 2000
        )
        v = np.concatenate(
            [
                powers, below, above, np.nextafter(below, 0), np.nextafter(above, np.inf),
                [5e-324, 1e-310, tiny, np.nextafter(tiny, 0), np.finfo(np.float64).max],
                [np.inf, np.nan, 0.0, 0.5, 9.999999995],
                (n + 0.5) / 2**10,
                [123456789.5, 999999999.5, 99999999.5, 100000000.5, 0.1234567895],
                nine_digit_ties,
                # m * 10**23 halfway between two doubles, for m = 2**27..2**29
                [134217728e23, 268435456e23, 536870912e23],
            ]
        )
        v = np.concatenate([v, -v])
        assert_renders_as_text(v)

    def test_bit_identical_to_text_on_random_magnitudes(self):
        rng = np.random.default_rng(6)
        for scale in 10.0 ** np.arange(-46, 56, 2):
            v = rng.standard_normal(20_000) * scale
            assert_renders_as_text(v)

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.builds(
                    lambda digits, exp: (digits + 0.5) * 10.0**exp,
                    st.integers(-(10**9), 10**9),
                    st.integers(-50, 55),
                ),
            ),
        )
    )
    def test_bit_identical_to_text_property(self, v):
        assert_renders_as_text(v)


def assert_renders_as_text(v):
    """fmt9_rows writes the values as one row, as '%.9g' does each value."""
    assert fmt9_rows(v.reshape(1, -1)) == [";".join(fmt9_array(v))]


@pytest.fixture(scope="module")
def world():
    return gen_world(
        SynthConfig(
            n_species=15,
            n_genera=6,
            n_families=3,
            n_quadrats=4,
            grid_cells=8,
            feature_dim=6,
            noise_sigma=0.3,
            richness_min=2,
            richness_max=3,
            seed=12,
        )
    )


class TestGroundTruth:
    def test_round_trip(self, world, tmp_path):
        _, quads, _ = world
        gt = GroundTruthTable(
            quadrats={q.quadrat_id: (q.transect_id, q.truth) for q in quads}
        )
        path = tmp_path / "gt.csv"
        formats.write_ground_truth(gt, path)
        assert formats.load_ground_truth(path).quadrats == gt.quadrats

    def test_byte_identical_rewrite(self, world, tmp_path):
        _, quads, _ = world
        gt = GroundTruthTable(
            quadrats={q.quadrat_id: (q.transect_id, q.truth) for q in quads}
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        formats.write_ground_truth(gt, a)
        formats.write_ground_truth(gt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_duplicate_quadrat_rejected(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\nq0,t0,2\n")
        with pytest.raises(FormatError):
            formats.load_ground_truth(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("id,transect,species\nq0,t0,1\n")
        with pytest.raises(FormatError):
            formats.load_ground_truth(p)

    def test_ids_must_ascend(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("quadrat_id,transect_id,species_ids\nq0,t0,3;1\n")
        with pytest.raises(FormatError):
            formats.load_ground_truth(p)


class TestSubmission:
    def test_round_trip(self, tmp_path):
        preds = [PredictionSet("q1", (2, 5)), PredictionSet("q0", (1,))]
        path = tmp_path / "sub.csv"
        formats.write_submission(preds, path)
        loaded = formats.load_submission(path)
        assert [(p.quadrat_id, p.species) for p in loaded] == [
            ("q0", (1,)),
            ("q1", (2, 5)),
        ]

    def test_label_translation(self, tmp_path):
        labels = np.array([100, 200, 300])
        path = tmp_path / "sub.csv"
        formats.write_submission(
            [PredictionSet("q0", (0, 2))], path, species_labels=labels
        )
        assert "q0,100;300" in path.read_text()

    def test_label_out_of_range(self, tmp_path):
        labels = np.array([100])
        with pytest.raises(FormatError):
            formats.write_submission(
                [PredictionSet("q0", (0, 5))], tmp_path / "s.csv", species_labels=labels
            )

    def test_duplicate_rows_rejected(self, tmp_path):
        p = tmp_path / "sub.csv"
        p.write_text("quadrat_id,species_ids\nq0,1\nq0,2\n")
        with pytest.raises(DuplicatePredictionError):
            formats.load_submission(p)


class TestFeatures:
    def test_round_trip(self, world, tmp_path):
        _, quads, _ = world
        path = tmp_path / "feat.csv"
        formats.write_quadrat_features(quads, path)
        loaded = formats.load_quadrat_features(path)
        assert [q.quadrat_id for q in loaded] == [q.quadrat_id for q in quads]
        for a, b in zip(loaded, quads):
            assert a.transect_id == b.transect_id
            # written at 9 significant digits
            np.testing.assert_allclose(a.features(), b.cells, rtol=1e-8)

    def test_loaded_features_are_canonical(self, world, tmp_path):
        _, quads, _ = world
        path = tmp_path / "feat.csv"
        formats.write_quadrat_features(quads, path)
        once = formats.load_quadrat_features(path)
        formats.write_quadrat_features(once, tmp_path / "feat2.csv")
        assert path.read_bytes() == (tmp_path / "feat2.csv").read_bytes()

    def test_values_parsed_on_first_use(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text(
            "quadrat_id,transect_id,grid_cells,feature_dim,row,col,values\n"
            "q0,t0,1,2,0,0,1.5;2\n"
            "q1,t0,1,2,0,0,1.5;nan\n"
        )
        q0, q1 = formats.load_quadrat_features(p)
        assert q0.cells is None and q1.cells is None
        np.testing.assert_array_equal(q0.features(), [[[1.5, 2.0]]])
        with pytest.raises(FormatError, match=f"^{p}:3: non-finite value$"):
            q1.features()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("q0,t0,1,2,0,0,1.5", "expected 2 values, got 1"),
            ("q0,t0,1,2,0,1,1;2", r"cell \(0,1\) outside 1x1 grid"),
            ("q0,t0,0,2,0,0,1;2", "grid size and feature dim must be >= 1"),
            ("q0,t0,1,x,0,0,1;2", "bad integer field"),
        ],
    )
    def test_rows_checked_on_load(self, tmp_path, row, message):
        p = tmp_path / "feat.csv"
        p.write_text("quadrat_id,transect_id,grid_cells,feature_dim,row,col,values\n" + row + "\n")
        with pytest.raises(FormatError, match=f"^{p}:2: {message}"):
            formats.load_quadrat_features(p)

    def test_digest_follows_each_quadrats_text(self, world, tmp_path):
        _, quads, _ = world
        path = tmp_path / "feat.csv"
        formats.write_quadrat_features(quads, path)

        def digests():
            return [q.load_cells.record["sha256"] for q in formats.load_quadrat_features(path)]

        before = digests()
        assert digests() == before and len(set(before)) == len(before)
        lines = path.read_text().splitlines(keepends=True)
        qid = quads[1].quadrat_id
        # the sha256 and byte count of the quadrat's lines, with their line ends
        raw = "".join(line for line in lines if line.startswith(qid + ",")).encode()
        record = formats.load_quadrat_features(path)[1].load_cells.record
        assert record == {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
        i = next(i for i, line in enumerate(lines) if line.startswith(qid + ","))
        head, values = lines[i].rsplit(",", 1)
        lines[i] = head + "," + "0;" + values.split(";", 1)[1]
        path.write_text("".join(lines))
        after = digests()
        assert [a != b for a, b in zip(after, before)] == [q.quadrat_id == qid for q in quads]

    @pytest.mark.parametrize(
        "change, unchecked, same_records",
        [
            ("none", True, True),
            ("quadrats_reordered", True, True),
            ("blank_line", False, True),
            ("interleaved", False, True),
            ("crlf", False, False),
            ("value_changed", False, False),
            ("digits_changed", False, False),
        ],
    )
    def test_recorded_lines_are_taken_unchecked(
        self, world, tmp_path, change, unchecked, same_records
    ):
        _, quads, _ = world
        path = tmp_path / "feat.csv"
        formats.write_quadrat_features(quads, path)
        checked = formats.load_quadrat_features(path)
        records = {q.quadrat_id: q.load_cells.record for q in checked}
        header, *rows = path.read_bytes().splitlines(keepends=True)
        n = len(rows) // len(quads)
        blocks = [rows[i : i + n] for i in range(0, len(rows), n)]
        if change == "quadrats_reordered":
            rows = [row for block in blocks[::-1] for row in block]
        elif change == "blank_line":
            rows.insert(n + 3, b"\n")
        elif change == "interleaved":
            rows = [row for pair in zip(*blocks[:2]) for row in pair] + rows[2 * n :]
        elif change == "crlf":
            rows = [row.replace(b"\n", b"\r\n") for row in rows]
        elif change == "value_changed":
            head, values = rows[n].rsplit(b",", 1)
            rows[n] = head + b",0;" + values.split(b";", 1)[1]
        elif change == "digits_changed":  # the same byte count
            head, values = rows[n].rsplit(b",", 1)
            rows[n] = head + b"," + values.translate(bytes.maketrans(b"0123456789", b"1234567890"))
        path.write_bytes(b"".join([header, *rows]))
        loaded = formats.load_quadrat_features(path, records)
        assert [q.load_cells.span is not None for q in loaded] == [unchecked] * len(quads)
        assert ({q.quadrat_id: q.load_cells.record for q in loaded} == records) == same_records
        for q, expected in zip(loaded, checked):
            assert (q.quadrat_id, q.transect_id) == (expected.quadrat_id, expected.transect_id)
            if change not in ("value_changed", "digits_changed"):
                np.testing.assert_array_equal(q.features(), expected.features())
        # each quadrat's first use checks its lines
        assert all(q.load_cells.span is None for q in loaded)

    def test_a_recorded_quadrat_checks_only_its_own_lines(self, world, tmp_path, monkeypatch):
        _, quads, _ = world
        path = tmp_path / "feat.csv"
        formats.write_quadrat_features(quads, path)
        checked = formats.load_quadrat_features(path)
        records = {q.quadrat_id: q.load_cells.record for q in checked}
        read, read_row_lines = [], formats.read_row_lines

        def counting_reader(*args):
            for lineno, fields, line in read_row_lines(*args):
                read.append(lineno)
                yield lineno, fields, line

        monkeypatch.setattr(formats, "read_row_lines", counting_reader)
        loaded = formats.load_quadrat_features(path, records)
        assert read == []
        q = loaded[1]
        np.testing.assert_array_equal(q.features(), checked[1].features())
        lines = path.read_text().splitlines()
        assert read == [
            lineno for lineno, line in enumerate(lines, start=1)
            if line.startswith(q.quadrat_id + ",")
        ]
        assert [p.load_cells.span is not None for p in loaded] == [p is not q for p in loaded]

    def test_recorded_lines_holding_another_quadrat_are_an_error(self, world, tmp_path):
        # Records edited by hand: the first quadrat's vouches for its lines
        # and the second quadrat's first line, the second's for the rest.
        _, quads, _ = world
        path = tmp_path / "feat.csv"
        formats.write_quadrat_features(quads, path)
        header, *rows = path.read_bytes().splitlines(keepends=True)
        n = len(rows) // len(quads)
        records = {q.quadrat_id: q.load_cells.record for q in formats.load_quadrat_features(path)}
        a, b = sorted(records)[:2]
        for qid, lines in ((a, rows[: n + 1]), (b, rows[n + 1 : 2 * n])):
            data = b"".join(lines)
            records[qid] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        loaded = formats.load_quadrat_features(path, records)
        assert all(q.load_cells.span is not None for q in loaded)
        with pytest.raises(FormatError, match=f"^{path}:{n + 2}: quadrat {b} inside another's"):
            loaded[0].features()
        with pytest.raises(FormatError, match=f"^{path}: quadrat {b} is missing cells"):
            loaded[1].features()

    @pytest.mark.parametrize(
        "change, message",
        [
            ("quadrat_duplicated", r"duplicate cell \(0,0\)"),
            # the last quadrat written without a final LF, then moved first:
            # its span hashes to its record but ends inside a line
            ("line_end_dropped", "expected 7 fields"),
        ],
    )
    def test_recorded_spans_that_break_the_file_are_checked(
        self, world, tmp_path, change, message
    ):
        _, quads, _ = world
        path = tmp_path / "feat.csv"
        formats.write_quadrat_features(quads, path)
        header, *rows = path.read_bytes().splitlines(keepends=True)
        n = len(rows) // len(quads)
        if change == "line_end_dropped":
            rows = rows[n:] + rows[:n]
            rows[-1] = rows[-1].rstrip(b"\n")
        path.write_bytes(b"".join([header, *rows]))
        records = {q.quadrat_id: q.load_cells.record for q in formats.load_quadrat_features(path)}
        if change == "quadrat_duplicated":
            rows += rows[:n]
        else:
            rows = rows[-n:] + rows[:-n]
        path.write_bytes(b"".join([header, *rows]))
        with pytest.raises(FormatError, match=message):
            formats.load_quadrat_features(path, records)

    def test_missing_cell_rejected(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text(
            "quadrat_id,transect_id,grid_cells,feature_dim,row,col,values\n"
            "q0,t0,2,1,0,0,1.5\n"
        )
        with pytest.raises(FormatError, match="missing cells"):
            formats.load_quadrat_features(p)


class TestHeadRegistry:
    def test_round_trip(self, world, tmp_path):
        _, _, registry = world
        path = tmp_path / "heads.csv"
        formats.write_head_registry(registry, path)
        loaded = formats.load_head_registry(path)
        assert set(loaded.heads) == set(registry.heads)
        for level in registry.heads:
            assert sorted(loaded.heads[level]) == sorted(registry.heads[level])
        lin = loaded.heads["species"]["lin1"]
        np.testing.assert_allclose(
            lin.weight, registry.heads["species"]["lin1"].weight, rtol=1e-8
        )
        two = loaded.heads["genus"]["mlp2"]
        np.testing.assert_allclose(
            two.w2, registry.heads["genus"]["mlp2"].w2, rtol=1e-8
        )

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["species,h,b,0,0;0", "species,h,w,0,1;2", "species,h,w,1,3"], "differ in length"),
            (["species,h,b,0,0;0;0", "species,h,w,0,1;2", "species,h,w,1,3;4"], "inconsistent"),
            (
                ["genus,h,b1,0,0", "genus,h,w1,0,1;2", "genus,h,b2,0,0", "genus,h,w2,0,1;2"],
                "inconsistent",
            ),
            # extra bias rows used to be dropped silently
            (
                ["species,h,b,0,0;0", "species,h,b,1,5;5",
                 "species,h,w,0,1;2", "species,h,w,1,3;4"],
                "head species/h has 2 rows of bias b$",
            ),
            (
                ["genus,h,b1,0,0", "genus,h,b1,1,0", "genus,h,b1,2,0", "genus,h,w1,0,1;2",
                 "genus,h,b2,0,0", "genus,h,w2,0,1"],
                "head genus/h has 3 rows of bias b1$",
            ),
        ],
    )
    def test_mismatched_arrays_rejected(self, tmp_path, rows, message):
        # these used to end in a numpy ValueError, at load or at inference
        p = tmp_path / "heads.csv"
        p.write_text("level,head_id,param,row,values\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError, match=message):
            formats.load_head_registry(p)

    def test_unknown_param_rejected(self, tmp_path):
        p = tmp_path / "heads.csv"
        p.write_text("level,head_id,param,row,values\nspecies,h,w3,0,1.0\n")
        with pytest.raises(FormatError):
            formats.load_head_registry(p)

    def test_only_used_heads_are_parsed(self, world, tmp_path):
        _, _, registry = world
        path = tmp_path / "heads.csv"
        formats.write_head_registry(registry, path)
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("genus,lin1,w,"))
        lines[i] = lines[i].rsplit(";", 1)[0] + ";x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f":{i + 1}: bad values field$"):
            formats.load_head_registry(path)
        used = {("species", "lin1"), ("genus", "mlp2")}
        loaded = formats.load_head_registry(path, used)
        assert {(level, h) for level, heads in loaded.heads.items() for h in heads} == used
        # an unused head's rows still get the row checks
        lines[i] = lines[i].replace(",w,", ",w3,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f":{i + 1}: unknown param 'w3'$"):
            formats.load_head_registry(path, used)

    def test_records_are_each_heads_lines(self, world, tmp_path):
        _, _, registry = world
        path = tmp_path / "heads.csv"
        formats.write_head_registry(registry, path)
        # one head's rows interleaved with another's: its lines in file order
        header, *lines = path.read_text().splitlines(keepends=True)
        lines[0], lines[-1] = lines[-1], lines[0]
        path.write_text("".join([header, *lines]))
        assert formats.load_head_registry(path).records is None
        used = {("species", "lin1"), ("genus", "mlp2"), ("family", "lin1")}
        for heads in (used, None):
            records = formats.load_head_registry(path, heads, {}).records
            expected = {}
            for line in lines:
                level, head_id = line.split(",")[:2]
                if heads is None or (level, head_id) in heads:
                    expected[f"{level}/{head_id}"] = expected.get(f"{level}/{head_id}", "") + line
            expected = {name: text.encode() for name, text in expected.items()}
            assert records == {
                name: {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
                for name, raw in expected.items()
            }

    def test_recorded_heads_are_parsed_on_first_apply(self, world, tmp_path, monkeypatch):
        _, quads, registry = world
        path = tmp_path / "heads.csv"
        formats.write_head_registry(registry, path)
        used = {("species", "lin1"), ("genus", "mlp2"), ("family", "lin1")}
        eager = formats.load_head_registry(path, used)
        records = formats.load_head_registry(path, used, {}).records
        # one value of genus/mlp2 changed: its record no longer holds
        lines = path.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith("genus,mlp2,w2,0,"))
        head, values = lines[i].rsplit(",", 1)
        lines[i] = head + ",0.125;" + values.split(";", 1)[1]
        path.write_text("".join(lines))
        parsed = []
        parse_block = formats._parse_block

        def counting_parse(rows):
            parsed.extend(where for where, _ in rows)
            return parse_block(rows)

        monkeypatch.setattr(formats, "_parse_block", counting_parse)
        loaded = formats.load_head_registry(path, used, records)
        assert parsed and all(
            lines[int(where.rsplit(":", 1)[1]) - 1].startswith("genus,mlp2,") for where in parsed
        )
        assert loaded.records["genus/mlp2"] != records["genus/mlp2"]
        assert {k: v for k, v in loaded.records.items() if k != "genus/mlp2"} == {
            k: v for k, v in records.items() if k != "genus/mlp2"
        }
        parsed.clear()
        features = quads[0].features().reshape(-1, quads[0].features().shape[-1])
        for level, head_id in sorted(used - {("genus", "mlp2")}):
            lazy = loaded.heads[level][head_id]
            assert parsed == []
            logits = lazy.apply(features)
            assert parsed and all(f"{path}:" in where for where in parsed)
            parsed.clear()
            assert logits.tobytes() == eager.heads[level][head_id].apply(features).tobytes()
            lazy.apply(features)
            assert parsed == []  # parsed once

    def test_recorded_registry_round_trips(self, world, tmp_path):
        _, _, registry = world
        path = tmp_path / "heads.csv"
        formats.write_head_registry(registry, path)
        records = formats.load_head_registry(path, None, {}).records
        loaded = formats.load_head_registry(path, None, records)
        assert isinstance(loaded.heads["genus"]["mlp2"], formats._RecordedHead)
        formats.write_head_registry(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def b64(values) -> str:
    """A cache line's values field: base64 of the little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


class TestCache:
    def test_round_trip_and_stability(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache = formats.LogitCache(path)
        rng = np.random.default_rng(3)
        for i in range(5):
            key = ("m", f"q{i}", "10", 2, "species")
            cache.put(key, canonical9(rng.standard_normal((4, 7))))
        cache.save()
        loaded = formats.LogitCache.load(path)
        assert len(loaded) == 20
        for key, block in cache._data.items():
            np.testing.assert_array_equal(loaded.get(key), block)
        copy = formats.LogitCache(tmp_path / "cache2.csv")
        for key in cache._data:
            copy.put(key, loaded.get(key))
        copy.save()
        assert path.read_bytes() == (tmp_path / "cache2.csv").read_bytes()

    def test_file_lines_sorted_by_grid_key(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache = formats.LogitCache(path)
        cache.put(("m", "q0", "0", 2, "species"), np.array([[1.0], [2.0], [3.0], [4.0]]))
        cache.put(("m", "q0", "0", 2, "genus"), np.array([[5.0], [6.0], [7.0], [8.0]]))
        cache.put(("m", "q0", "0", 1, "species"), np.array([[0.5, 0.25]]))
        cache.put(("a", "q1", "0", 1, "species"), np.array([[0.0, -1.0]]))
        cache.save()
        assert path.read_text().splitlines() == [
            "model_id,quadrat_id,crop_pct,scale,level,values_f64le_b64",
            f"a,q1,0,1,species,{b64([0, -1])}",
            f"m,q0,0,1,species,{b64([0.5, 0.25])}",
            f"m,q0,0,2,genus,{b64([5, 6, 7, 8])}",
            f"m,q0,0,2,species,{b64([1, 2, 3, 4])}",
        ]
        assert len(formats.LogitCache.load(path)) == 10

    @pytest.mark.parametrize("edit", ["drop", "duplicate", "wrong_length", "bad_scale"])
    def test_incomplete_grid_is_dropped_on_load(self, tmp_path, edit):
        path = tmp_path / "cache.csv"
        cache = formats.LogitCache(path)
        cache.put(("m", "q0", "0", 2, "species"), np.arange(8.0).reshape(4, 2))
        cache.put(("m", "q1", "0", 2, "species"), np.arange(8.0).reshape(4, 2))
        cache.save()
        lines = path.read_text().splitlines()
        assert lines[1] == f"m,q0,0,2,species,{b64(range(8))}"
        lines[1:2] = {
            "drop": [],  # an absent grid is a plain miss
            "duplicate": [lines[1], f"m,q0,0,2,species,{b64(range(7, -1, -1))}"],
            "wrong_length": [f"m,q0,0,2,species,{b64(range(7))}"],
            "bad_scale": [f"m,q0,0,0,species,{b64(range(8))}"],
        }[edit]
        path.write_text("\n".join(lines) + "\n")
        if edit == "drop":
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = formats.LogitCache.load(path)
        else:
            why = "repeated keys" if edit == "duplicate" else "wrong value counts"
            with pytest.warns(UserWarning, match=rf"dropped 1 of 2 grids \(1 for {why}\)"):
                loaded = formats.LogitCache.load(path)
        assert loaded.get(("m", "q0", "0", 2, "species")) is None
        assert len(loaded) == 4 and loaded._dirty == (edit != "drop")
        np.testing.assert_array_equal(
            loaded.get(("m", "q1", "0", 2, "species")), np.arange(8.0).reshape(4, 2)
        )

    @pytest.mark.parametrize(
        "damage, outcome",
        [
            ("alphabet", "bad values field"),  # a character outside base64's alphabet
            ("padding", "bad values field"),  # one '=' of two dropped
            ("not_8_bytes", "dropped"),  # 63 bytes
            ("not_8_scale2_bytes", "dropped"),  # 5 values for a 2 x 2 grid
            ("nan", "non-finite value"),
            ("inf", "non-finite value"),
            ("-inf", "non-finite value"),
            ("truncated", "bad values field"),  # the last line cut mid-quantum
            ("truncated_at_quantum", "dropped"),  # ... or after a whole one
        ],
    )
    def test_damaged_values_field(self, tmp_path, damage, outcome):
        path = tmp_path / "cache.csv"
        cache = formats.LogitCache(path)
        keys = [("m", "q0", "0", 2, "species"), ("m", "q1", "0", 2, "species")]
        for i, key in enumerate(keys):
            cache.put(key, np.arange(8.0 * i, 8.0 * i + 8).reshape(4, 2))
        cache.save()
        text = path.read_text()
        field = text.splitlines()[2].rsplit(",", 1)[1]
        assert field == b64(range(8, 16)) and field.endswith("==")
        if damage in ("nan", "inf", "-inf"):
            damaged = text.replace(field, b64([8, float(damage)] + list(range(10, 16))))
        else:
            damaged = {
                "alphabet": text.replace(field, field[:5] + "!" + field[6:]),
                "padding": text.replace(field, field[:-1]),
                "not_8_bytes": text.replace(
                    field, base64.b64encode(np.arange(8.0, 16).tobytes()[:-1]).decode()
                ),
                "not_8_scale2_bytes": text.replace(field, b64(range(5))),
                "truncated": text[:-6],
                "truncated_at_quantum": text[:-5],
            }[damage]
        assert damaged != text
        path.write_text(damaged)
        if outcome == "dropped":
            why = r"dropped 1 of 2 grids \(1 for wrong value counts\)"
            with pytest.warns(UserWarning, match=why):
                loaded = formats.LogitCache.load(path)
            assert loaded.get(keys[1]) is None
            assert loaded.get(keys[0]).tobytes() == np.arange(8.0).tobytes()
        else:
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: {outcome}$"):
                formats.LogitCache.load(path)

    def test_block_must_fill_its_grid(self):
        cache = formats.LogitCache()
        for block in (np.zeros((3, 2)), np.zeros(4), np.zeros((4, 2, 1))):
            with pytest.raises(ShapeError):
                cache.put(("m", "q0", "0", 2, "species"), block)

    def test_missing_file_is_empty(self, tmp_path):
        assert len(formats.LogitCache.load(tmp_path / "nope.csv")) == 0

    def test_row_over_csv_default_field_limit_round_trips(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache = formats.LogitCache(path)
        row = np.random.default_rng(4).standard_normal(13_000)
        cache.put(("m", "q0", "0", 1, "species"), row[None, :])
        cache.save()
        assert path.stat().st_size > 131072
        loaded = formats.LogitCache.load(path)
        got = loaded.get(("m", "q0", "0", 1, "species"))
        np.testing.assert_array_equal(got.view(np.int64), row[None, :].view(np.int64))
        copy = formats.LogitCache(tmp_path / "cache2.csv")
        copy.put(("m", "q0", "0", 1, "species"), loaded.get(("m", "q0", "0", 1, "species")))
        copy.save()
        assert path.read_bytes() == (tmp_path / "cache2.csv").read_bytes()

    def test_csv_error_is_one_error_line(self, tmp_path, capsys):
        # Fields are never quoted: a quote, a NUL or a CR inside a line ends
        # in one error line naming the file and line. CRLF line ends read.
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\nq1,t0,2\n")
        sub = tmp_path / "sub.csv"
        for field, what in [
            ('"2"', "quote"), ("2\0", "NUL character"), ("2\r;3", "carriage return"),
        ]:
            sub.write_bytes(f"quadrat_id,species_ids\r\nq0,1\r\nq1,{field}\r\n".encode())
            assert main(["eval", str(sub), str(gt)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"error: {sub}:3: unexpected {what}")
        sub.write_bytes(b"quadrat_id,species_ids\r\nq0,1\r\nq1,2\r\n")
        assert main(["eval", str(sub), str(gt)]) == 0
        assert "final 1.00000" in capsys.readouterr().out

    def test_clean_save_skips_rewrite(self, tmp_path):
        import os

        path = tmp_path / "cache.csv"
        cache = formats.LogitCache(path)
        cache.put(("m", "q0", "10", 1, "species"), np.array([[1.0, 2.0]]))
        cache.save()
        inode = os.stat(path).st_ino
        warm = formats.LogitCache.load(path)
        warm.save()  # nothing changed: the file must not be replaced
        assert os.stat(path).st_ino == inode
        warm.put(("m", "q1", "10", 1, "species"), np.array([[3.0]]))
        warm.save()
        assert os.stat(path).st_ino != inode
        assert len(formats.LogitCache.load(path)) == 2


class TestConfigs:
    def test_parse_text(self):
        text = "# comment\nn_species = 5\n\nn_genera=2  # tail\nn_families = 1\n"
        assert formats.parse_config_text(text) == {
            "n_species": "5",
            "n_genera": "2",
            "n_families": "1",
        }

    def test_duplicate_key(self):
        with pytest.raises(FormatError):
            formats.parse_config_text("a = 1\na = 2\n")

    def test_synth_config(self):
        cfg = formats.synth_config_from(
            {"n_species": "10", "n_genera": "4", "n_families": "2", "seed": "3"}
        )
        assert cfg.n_species == 10 and cfg.seed == 3

    def test_synth_config_unknown_key(self):
        with pytest.raises(ConfigError):
            formats.synth_config_from({"n_specie": "10"})

    def test_run_config(self):
        cfg = formats.run_config_from(
            {
                "scales": "4,5",
                "crop_fracs": "0.10",
                "models": "lin1+mlp2+mlp2, lin1h+-+-",
                "target_mean_len": "4.2",
                "max_len": "9",
            }
        )
        assert cfg.scales == (4, 5)
        assert cfg.crop_fracs == (0.10,)
        assert cfg.head_combos == (
            HeadSelection("lin1", "mlp2", "mlp2"),
            HeadSelection("lin1h", None, None),
        )
        assert cfg.selection.target_mean_len == 4.2
        assert cfg.selection.max_len == 9

    def test_run_config_table_style_static_threshold(self):
        cfg = formats.run_config_from(
            {
                "scales": "4,5",
                "crop_fracs": "0.10",
                "min_logit": "0.02",
                "max_len": "10",
                "channel": "raw",
            }
        )
        assert cfg.selection.min_logit == 0.02
        assert cfg.selection.max_len == 10

    def test_run_config_unbounded_max(self):
        cfg = formats.run_config_from({"scales": "4", "max_len": "inf"})
        assert cfg.selection.max_len is None

    def test_run_config_contradiction(self):
        with pytest.raises(ConfigError):
            formats.run_config_from(
                {"scales": "4", "min_logit": "0.1", "target_mean_len": "4"}
            )

    def test_run_config_needs_scales(self):
        with pytest.raises(ConfigError):
            formats.run_config_from({})


def test_every_header_is_documented():
    # Each *_HEADER, comma-joined, is in README's "File formats" table and
    # in the table of the formats module docstring.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    readme_table = [line for line in section.splitlines() if line.startswith("|")]
    doc_table = formats.__doc__.split("Formats\n-------\n", 1)[1].split("\n\n", 1)[0]
    headers = {name: value for name, value in vars(formats).items() if name.endswith("_HEADER")}
    headers["TAXONOMY_HEADER"] = TAXONOMY_HEADER
    assert len(headers) >= 6
    for name, header in headers.items():
        joined = ",".join(header)
        assert any(f"| `{joined}`" in line for line in readme_table), name
        assert any(joined in line.split() for line in doc_table.splitlines()), name
