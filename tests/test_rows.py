"""The line reader against the csv-module reader it replaced, and value
blocks parsed whole that give the per-row parse's values and errors."""

import contextlib
import io
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cache_file
import csv_rows
from quadflora import formats
from quadflora._util import read_row_lines
from quadflora.cli import main
from quadflora.errors import FormatError
from quadflora.taxonomy import TAXONOMY_HEADER

HEADERS = [
    TAXONOMY_HEADER,
    formats.SUBMISSION_HEADER,
    formats.FEATURES_HEADER,
    ["target", "threshold", "mean_len", "score"],
]
# Characters only the new reader refuses: a quote, a NUL, and a CR that
# does not end a line.
FORBIDDEN = re.compile(rb'["\0]|\r(?!\n)')


def read_rows(path, header, text=None):
    """read_row_lines' (line number, fields) pairs, in the oracle's shape."""
    return [(lineno, fields) for lineno, fields, _ in read_row_lines(path, header, text)]


def outcome(reader, path, header, text=None):
    """The reader's (line, fields) list, or its FormatError text."""
    try:
        return list(reader(path, header, text))
    except FormatError as exc:
        return str(exc)


def assert_same_rows(path, header):
    """The line reader gives the csv reader's rows or error for path."""
    data = path.read_bytes()
    got = outcome(read_rows, path, header)
    if FORBIDDEN.search(data):
        assert isinstance(got, str)
        return
    assert got == outcome(csv_rows.read_rows, path, header)
    if isinstance(got, list):
        text = data.decode("utf-8")
        assert outcome(read_rows, path, header, text) == got
        assert outcome(csv_rows.read_rows, path, header, text) == got


FIELD = st.one_of(
    st.text(alphabet="az09 .-;_é中  \x85\x0b\t", max_size=12),
    st.builds(
        lambda n, value: ";".join([value] * n),
        st.integers(1, 2000),
        st.sampled_from(["1.5", "-2e-07", "nan", "42"]),
    ),
)
LINE = st.one_of(
    st.lists(FIELD, min_size=1, max_size=6).map(",".join),
    st.sampled_from(["", " ", "\t", "  \t "]),
)


@st.composite
def files(draw):
    header = draw(st.sampled_from(HEADERS))
    first = draw(st.sampled_from([",".join(header), ",".join(header) + ",x", "", "id"]))
    lines = [first] + draw(st.lists(LINE, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    inject = draw(st.sampled_from([b"", b"", b"", b'"', b"\0", b"\r", b"\xff", b'"a,b"']))
    if inject:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + inject + data[at:]
    return header, data


class TestLineReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=files())
    @example(case=(TAXONOMY_HEADER, b""))
    @example(case=(TAXONOMY_HEADER, b"\nspecies_id,genus_id,family_id\n"))
    @example(case=(TAXONOMY_HEADER, b"species_id,genus_id,family_id\r\n\r\n1,2,3\r\n 1,2,3\n"))
    @example(case=(TAXONOMY_HEADER, b"species_id,genus_id,family_id\n1,2\n"))
    @example(case=(TAXONOMY_HEADER, b"species_id,genus_id,family_id\n1,2,3,4"))
    @example(case=(TAXONOMY_HEADER, b"species_id,genus_id,family_id\n1,2,3\r\r\n"))
    @example(case=(TAXONOMY_HEADER, b"species_id,genus_id,family_id\n\n\r"))
    def test_same_rows_as_csv_reader(self, tmp_path, case):
        header, data = case
        path = tmp_path / "rows.csv"
        path.write_bytes(data)
        assert_same_rows(path, header)


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


GEN_CFG = """\
n_species = 12
n_genera = 4
n_families = 2
n_quadrats = 4
quadrats_per_transect = 2
grid_cells = 6
feature_dim = 5
noise_sigma = 0.5
richness_min = 2
richness_max = 3
patch_align = 2
seed = 5
"""
RUN_CFG = "scales = 2,3\ncrop_fracs = 0,0.1\nmodels = lin1+mlp2+mlp2\ntarget_mean_len = 2.0\n"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Every CSV file of a gen + infer + sweep run, with its header (the
    run's logit cache, data/logit_cache.csv, is not CSV)."""
    base = tmp_path_factory.mktemp("corpus")
    (base / "gen.cfg").write_text(GEN_CFG)
    (base / "run.cfg").write_text(RUN_CFG)
    data = base / "data"
    run(["gen", "--config", base / "gen.cfg", "--out", data])
    run(["infer", "--config", base / "run.cfg", "--data", data, "--out", base / "sub.csv"])
    run(["sweep", "--config", base / "run.cfg", "--data", data, "--targets", "1,2,3",
         "--out", base / "sweep.csv"])
    return {
        data / "taxonomy.csv": TAXONOMY_HEADER,
        data / "groundtruth.csv": formats.GROUND_TRUTH_HEADER,
        data / "quadrats.csv": formats.FEATURES_HEADER,
        data / "heads.csv": formats.HEADS_HEADER,
        base / "sub.csv": formats.SUBMISSION_HEADER,
        base / "sweep.csv": ["target", "threshold", "mean_len", "score"],
    }


class TestCorpusParity:
    def test_every_written_file(self, corpus):
        for path, header in corpus.items():
            rows = list(read_rows(path, header))
            assert rows, path
            assert rows == list(csv_rows.read_rows(path, header)), path

    def test_crlf_copy_reads_the_same(self, corpus, tmp_path):
        for path, header in corpus.items():
            crlf = tmp_path / path.name
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            assert list(read_rows(crlf, header)) == list(read_rows(path, header)), path


def spoil(path, pick, token="x"):
    """Replace the second value of one row with token; return its line number."""
    lines = path.read_text().splitlines()
    i = pick(lines)
    head, values = lines[i].rsplit(",", 1)
    values = values.split(";")
    values[1] = token
    lines[i] = f"{head}," + ";".join(values)
    path.write_text("\n".join(lines) + "\n")
    return i + 1


def spoil_grid(path, scale, token):
    """In the cache file, set the second value of the first grid of this
    scale to float(token), or, for a token that is not a number, insert
    its bytes there; the header is rewritten to vouch for the result."""
    header, index, values = cache_file.parts(path.read_bytes())
    offset = 0
    for *_, grid_scale, _, rows, cols in index:
        if grid_scale == scale:
            break
        offset += 8 * rows * cols
    offset += 8
    try:
        spliced = np.array([float(token)], "<f8").tobytes()
        end = offset + 8
    except ValueError:
        spliced, end = token.encode(), offset
    path.write_bytes(cache_file.build(header, index, values[:offset] + spliced + values[end:]))


class TestValueBlocks:
    """One np.loadtxt call parses a whole block; a bad value in any row of
    it is still reported on that row's own line."""

    @pytest.mark.parametrize("token, message", [("x", "bad values field"),
                                                ("inf", "non-finite value")])
    def test_features(self, corpus, tmp_path, token, message):
        path = tmp_path / "quadrats.csv"
        path.write_bytes(next(p for p in corpus if p.name == "quadrats.csv").read_bytes())
        # the 8th row of the second quadrat
        lineno = spoil(path, lambda lines: 1 + 36 + 7, token)
        second = formats.load_quadrat_features(path)[1]
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{lineno}: {message}$"):
            second.features()

    @pytest.mark.parametrize("token, message", [("x", "bad values field"),
                                                ("nan", "non-finite value")])
    def test_head_parameter(self, corpus, tmp_path, token, message):
        path = tmp_path / "heads.csv"
        path.write_bytes(next(p for p in corpus if p.name == "heads.csv").read_bytes())
        # row 3 of the first head's weight matrix
        lineno = spoil(path, lambda lines: next(
            i for i, line in enumerate(lines) if line.split(",")[2:4] == ["w", "3"]
        ), token)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{lineno}: {message}$"):
            formats.load_head_registry(path)

    @pytest.mark.parametrize("token, message", [("x", "bytes of values"),
                                                ("-inf", "non-finite value")])
    def test_cache_grid(self, corpus, tmp_path, token, message):
        # Grids are raw float64 bytes: a value cannot be misspelled, but
        # inserted bytes or a non-finite value fail the whole file.
        path = tmp_path / "logit_cache.csv"
        data = next(iter(corpus)).parent
        path.write_bytes((data / "logit_cache.csv").read_bytes())
        spoil_grid(path, 3, token)  # a 3x3 grid
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{message}"):
            formats.LogitCache.load(path)


def per_row_parse(rows):
    """The oracle: each field by _parse_values, then None if the rows
    differ in length; the float64 bytes and shape, or the error text."""
    try:
        parsed = [formats._parse_values(field, where) for where, field in rows]
    except FormatError as exc:
        return str(exc)
    if any(len(p) != len(parsed[0]) for p in parsed):
        return None
    block = np.vstack(parsed)
    return block.shape, block.tobytes()


FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def respell(value, how):
    """value in a spelling float() reads as the same number."""
    if how == "underscore":  # 1_0: between the first two adjacent digits
        return re.sub(r"(\d)(\d)", r"\1_\2", value, count=1)
    if how == "full-width":
        return value.translate(FULL_WIDTH)
    if how == "arabic-indic":
        return value.translate(ARABIC_INDIC)
    if how == "padded":
        return f" \t{value}\t "
    return value


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from(["%.9g" % x, "%.17g" % x, repr(x)])
    ),
    st.sampled_from(["0", "-0", "1e308", "-1e308", "5e-324", "2.225e-308", "+1", ".5", "5."]),
)
TOKEN = st.one_of(
    st.builds(respell, NUMBER, st.sampled_from(
        ["plain", "plain", "underscore", "full-width", "arabic-indic", "padded"]
    )),
    st.sampled_from(["1_0", "４", "٣", " 1", "2\t", "", "inf", "-inf", "nan", "1e999", "#",
                     "0x1p3", "1#2", "\x1c1", "1\x1f"]),
)


@st.composite
def value_blocks(draw):
    """(where, field) rows, mostly of equal length, sometimes ragged or
    with a trailing ';'."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [draw(st.lists(TOKEN, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    if draw(st.booleans()):  # as in real files: every token a plain number
        rows = [[draw(NUMBER) for _ in row] for row in rows]
    fields = [";".join(row) for row in rows]
    change = draw(st.sampled_from(["none", "none", "ragged", "trailing ;"]))
    i = draw(st.integers(0, n_rows - 1))
    if change == "ragged":
        fields[i] = fields[i] + ";1" if n_cols == 1 else fields[i].rsplit(";", 1)[0]
    elif change == "trailing ;":
        fields[i] += ";"
    return [(f"f.csv:{2 + j}", field) for j, field in enumerate(fields)]


def numbered(rows):
    """("f.csv:<line>", field) rows as the path, line numbers and fields
    _parse_block takes."""
    linenos = [int(where.removeprefix("f.csv:")) for where, _ in rows]
    return "f.csv", linenos, [field for _, field in rows]


class TestBlockParse:
    """_parse_block equals the per-row parse: the same float64 bytes, the
    same error, or None for rows of different lengths."""

    @settings(max_examples=600, deadline=None)
    @given(rows=value_blocks())
    @example(rows=[("f.csv:2", "")])
    @example(rows=[("f.csv:2", "1;2"), ("f.csv:3", "")])
    @example(rows=[("f.csv:2", "1;2#junk")])
    @example(rows=[("f.csv:2", "1;;2")])
    @example(rows=[("f.csv:2", "1\x1c;2")])
    @example(rows=[("f.csv:2", "1_0;４;٣"), ("f.csv:3", " +1;.5;5.\t")])
    @example(rows=[("f.csv:2", "1"), ("f.csv:3", "2"), ("f.csv:4", "3")])
    def test_equals_the_per_row_parse(self, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                block = formats._parse_block(*numbered(rows))
                got = None if block is None else (block.shape, block.tobytes())
            except FormatError as exc:
                got = str(exc)
        assert got == per_row_parse(rows)

    def test_plain_block_is_parsed_whole(self, monkeypatch):
        def per_row(field, where):
            raise AssertionError(f"{where} parsed on its own")

        monkeypatch.setattr(formats, "_parse_values", per_row)
        rows = [(f"f.csv:{i}", f"{i}.5;-{i}e-7;0") for i in range(2, 6)]
        assert formats._parse_block(*numbered(rows)).tolist() == [
            [i + 0.5, -i * 1e-7, 0.0] for i in range(2, 6)
        ]


def cli(argv, capsys):
    """Run the CLI in-process: its exit code and stderr lines."""
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err.splitlines()


class TestFloatOnlySpellings:
    """Values that only the per-row parse reads give the plain file's
    answers, and bad ones its error line, with no warning."""

    @pytest.mark.parametrize("name", ["quadrats.csv", "heads.csv"])
    @pytest.mark.parametrize("how", ["underscore", "full-width"])
    def test_respelled_values_give_the_same_bytes(self, corpus, tmp_path, capsys, name, how):
        plain = next(p for p in corpus if p.name == "quadrats.csv").parent
        outputs = {}
        for label in ("plain", how):
            data = tmp_path / label
            shutil.copytree(plain, data, ignore=shutil.ignore_patterns("logit_cache*"))
            if label == how:  # every line's second value respelled
                lines = (data / name).read_text().splitlines()
                for i in range(1, len(lines)):
                    head, values = lines[i].rsplit(",", 1)
                    values = values.split(";")
                    values[1] = respell(values[1], how)
                    lines[i] = f"{head}," + ";".join(values)
                (data / name).write_text("\n".join(lines) + "\n")
            sub = tmp_path / f"{label}.csv"
            code, err = cli(["infer", "--config", plain.parent / "run.cfg", "--data", data,
                             "--out", sub], capsys)
            assert (code, err) == (0, [])
            # the cache's grids; its header records each file's own lines
            grids = (data / "logit_cache.csv").read_bytes().split(b"\n", 1)[1]
            outputs[label] = sub.read_bytes(), grids
        assert outputs[how] == outputs["plain"]

    @pytest.mark.parametrize("name, pick", [
        ("quadrats.csv", lambda lines: 1 + 36 + 7),  # the 8th row of the second quadrat
        ("heads.csv", lambda lines: next(  # one row alone: loadtxt warns of no data
            i for i, line in enumerate(lines) if line.startswith("species,lin1,b,0,")
        )),
    ])
    def test_empty_value_field(self, tmp_path, capsys, name, pick):
        (tmp_path / "gen.cfg").write_text(GEN_CFG.replace("feature_dim = 5", "feature_dim = 1"))
        (tmp_path / "run.cfg").write_text(RUN_CFG)
        data = tmp_path / "data"
        run(["gen", "--config", tmp_path / "gen.cfg", "--out", data])
        path = data / name
        lines = path.read_text().splitlines()
        i = pick(lines)
        lines[i] = lines[i].rsplit(",", 1)[0] + ","
        path.write_text("\n".join(lines) + "\n")
        code, err = cli(["infer", "--config", tmp_path / "run.cfg", "--data", data,
                         "--out", tmp_path / "sub.csv"], capsys)
        assert (code, err) == (2, [f"error: {path}:{i + 1}: bad values field"])
