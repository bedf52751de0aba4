"""The line reader against the csv-module reader it replaced, and value
blocks whose parse errors still name their own line."""

import base64
import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import csv_rows
from quadflora import formats
from quadflora._util import read_rows
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
    """Every CSV file of a gen + infer + sweep run, with its header."""
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
        data / "logit_cache.csv": formats.CACHE_HEADER,
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


def spoil_grid(path, pick, token):
    """In one cache line, set the second value to float(token), or, for a
    token that is not a number, splice it into the base64 text after its
    first quantum; return its line number."""
    lines = path.read_text().splitlines()
    i = pick(lines)
    head, field = lines[i].rsplit(",", 1)
    try:
        values = np.frombuffer(base64.b64decode(field, validate=True), "<f8").copy()
        values[1] = float(token)
        field = base64.b64encode(values.tobytes()).decode()
    except ValueError:
        field = field[:4] + token + field[4:]
    lines[i] = f"{head},{field}"
    path.write_text("\n".join(lines) + "\n")
    return i + 1


class TestValueBlocks:
    """One np.array call parses a whole block; a bad value in any row of it
    is still reported on that row's own line."""

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

    @pytest.mark.parametrize("token, message", [("x", "bad values field"),
                                                ("-inf", "non-finite value")])
    def test_cache_grid(self, corpus, tmp_path, token, message):
        path = tmp_path / "logit_cache.csv"
        path.write_bytes(next(p for p in corpus if p.name == "logit_cache.csv").read_bytes())
        # the line of a 3x3 grid
        lineno = spoil_grid(path, lambda lines: next(
            i for i, line in enumerate(lines) if line.split(",")[3] == "3"
        ), token)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{lineno}: {message}$"):
            formats.LogitCache.load(path)
