"""Inputs mutated before `infer`, `sweep`, `eval` and `taxonomy-validate`.

Whatever happens to the features, the heads, the taxonomy, the logit
cache or its fingerprint between a cold and a warm `infer` (or a
`sweep`), the warm run either fails with one `error:` line and writes
nothing, or gives the output of a fresh-cache run on the mutated data.
The same contract (exit 0 or 2, at most one `error:` line, no traceback,
no partly written output) holds for `eval` after the ground truth or the
submission is mutated, for `taxonomy-validate` after the taxonomy is,
for `infer` after the run config is, and for `sweep --targets` text,
given as `--targets=TEXT` or as a separate argument. A logit cache
whose base64 values field is damaged byte by byte holds it too, also
when its sidecar is rewritten to vouch for the damaged bytes, so that
the cache's own checks see them.
"""

import base64
import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadflora import formats
from quadflora.cli import main

GEN_CFG = """\
n_species = 12
n_genera = 4
n_families = 2
n_quadrats = 4
quadrats_per_transect = 2
grid_cells = 8
feature_dim = 6
noise_sigma = 0.5
richness_min = 2
richness_max = 3
patch_align = 4
seed = 3
"""

RUN_CFG = """\
scales = 2,4
crop_fracs = 0
models = lin1+mlp2+mlp2
target_mean_len = 2.0
max_len = 5
"""

FILES = (
    "quadrats.csv",
    "heads.csv",
    "taxonomy.csv",
    "logit_cache.csv",
    "logit_cache.csv.fingerprint",
)
KINDS = ("truncate", "flip", "duplicate", "token", "width", "swap")


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A corpus and run config after one cold infer (cache and sidecar written)."""
    base = tmp_path_factory.mktemp("fuzz")
    (base / "gen.cfg").write_text(GEN_CFG)
    (base / "run.cfg").write_text(RUN_CFG)
    assert run(["gen", "--config", base / "gen.cfg", "--out", base / "data"])[0] == 0
    cold_run = ["infer", "--config", base / "run.cfg", "--data", base / "data"]
    assert run(cold_run + ["--out", base / "cold.csv"]) == (0, "")
    return base


def mutate(data: bytes, kind: str, pos: int, bit: int, token: bytes) -> bytes:
    if kind == "truncate":
        return data[: pos % (len(data) + 1)]
    if kind == "flip":
        i = pos % len(data)
        return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1 :]
    lines = data.split(b"\n")
    i = pos % len(lines)
    if kind == "duplicate":
        return b"\n".join(lines[: i + 1] + lines[i:])
    if kind == "swap":  # two lines exchanged: reordered rows, interleaved quadrats
        j = (pos // len(lines)) % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    if kind == "width":  # one field more or one fewer on one line
        line = lines[i]
        lines[i] = line[: line.rfind(b",")] if bit % 2 and b"," in line else line + b"," + token
        return b"\n".join(lines)
    # replace the text after one separator of a line with a non-finite token
    line = lines[i]
    cuts = [j for j, ch in enumerate(line) if ch in b",;:"]
    if cuts:
        j = cuts[(pos // len(lines)) % len(cuts)] + 1
        end = min([k for k in cuts if k >= j] + [len(line)])
        lines[i] = line[:j] + token + line[end:]
    return b"\n".join(lines)


def holds_contract(code, err, tmp, output=None) -> bool:
    """Assert the error contract; True if the command succeeded."""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code in (0, 2)
    assert len(errors) == (code == 2)
    assert "Traceback" not in err
    assert not list(tmp.rglob(".tmp-*"))
    if output is not None:
        assert output.exists() == (code == 0)
    return code == 0


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(FILES),
    kind=st.sampled_from(KINDS),
    pos=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    token=st.sampled_from([b"nan", b"inf", b"-inf"]),
)
# A NaN as the first value of row 5 of the features file (258 lines: the
# header, 4 x 8 x 8 rows and the empty tail). The quadrat's text no longer
# matches its fingerprint, so it is parsed, and the run fails.
@example(name="quadrats.csv", kind="token", pos=6 * 258 + 5, bit=0, token=b"nan")
# Rows 10 and 100 exchanged, so the first two quadrats' lines interleave:
# both quadrats' lines are read again, and their grids recomputed.
@example(name="quadrats.csv", kind="swap", pos=258 * 100 + 10, bit=0, token=b"nan")
def test_warm_infer_after_mutation(cold, name, kind, pos, bit, token):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        shutil.copytree(cold / "data", data)
        target = data / name
        target.write_bytes(mutate(target.read_bytes(), kind, pos, bit, token))
        infer = ["infer", "--config", cold / "run.cfg", "--data", data]

        code, err = run(infer + ["--out", tmp / "warm.csv"])
        if not holds_contract(code, err, tmp, tmp / "warm.csv"):
            return
        fresh = tmp / "fresh"
        fresh.mkdir()
        code, _ = run(infer + ["--out", tmp / "fresh.csv", "--cache", fresh / "cache.csv"])
        assert code == 0
        assert (tmp / "warm.csv").read_bytes() == (tmp / "fresh.csv").read_bytes()


VALUE_DAMAGE = ("alphabet", "padding", "bytes", "grid", "nan", "inf", "-inf", "truncate")


def damage_values(data: bytes, kind: str, pos: int) -> bytes:
    """A cache file with one grid line's base64 values field damaged: a
    character outside the alphabet, a padding '=' dropped, a byte count
    that is not a multiple of 8 or of 8 scale^2, a NaN or an infinity's
    bit pattern, or the last line truncated."""
    lines = data.split(b"\n")  # the header, the grid lines, and b"" after the last LF
    if kind == "truncate":
        return b"\n".join(lines[:-2]) + b"\n" + lines[-2][: -1 - pos % 200]
    grids = range(1, len(lines) - 1)
    if kind == "padding":
        grids = [i for i in grids if lines[i].endswith(b"=")]
    i = grids[pos % len(grids)]
    head, field = lines[i].rsplit(b",", 1)
    raw = base64.b64decode(field, validate=True)
    if kind == "alphabet":
        j = pos % len(field)
        field = field[:j] + b"!" + field[j + 1 :]
    elif kind == "padding":
        field = field[:-1]
    else:
        if kind == "bytes":
            raw = raw[: -1 - pos % 7]
        elif kind == "grid":  # one value fewer: scales 2 and 4 leave a part row
            raw = raw[:-8]
        else:
            values = np.frombuffer(raw, "<f8").copy()
            values[pos % len(values)] = float(kind)
            raw = values.tobytes()
        field = base64.b64encode(raw)
    lines[i] = head + b"," + field
    return b"\n".join(lines)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kind=st.sampled_from(VALUE_DAMAGE), pos=st.integers(0, 2**32), vouched=st.booleans())
@example(kind="nan", pos=0, vouched=True)
@example(kind="alphabet", pos=0, vouched=True)
@example(kind="grid", pos=0, vouched=True)
@example(kind="truncate", pos=2, vouched=False)
def test_warm_infer_after_values_damage(cold, kind, pos, vouched):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        shutil.copytree(cold / "data", data)
        cache = data / "logit_cache.csv"
        cache.write_bytes(damage_values(cache.read_bytes(), kind, pos))
        if vouched:
            sidecar = data / "logit_cache.csv.fingerprint"
            record = json.loads(sidecar.read_text())
            record["cache_sha256"] = hashlib.sha256(cache.read_bytes()).hexdigest()
            sidecar.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        infer = ["infer", "--config", cold / "run.cfg", "--data", data]

        code, err = run(infer + ["--out", tmp / "warm.csv"])
        if not holds_contract(code, err, tmp, tmp / "warm.csv"):
            return
        assert err.startswith("warning: logit cache")
        fresh = tmp / "fresh"
        fresh.mkdir()
        code, _ = run(infer + ["--out", tmp / "fresh.csv", "--cache", fresh / "cache.csv"])
        assert code == 0
        assert (tmp / "warm.csv").read_bytes() == (tmp / "fresh.csv").read_bytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(FILES + ("groundtruth.csv",)),
    kind=st.sampled_from(KINDS),
    pos=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    token=st.sampled_from([b"nan", b"inf", b"-1", b'"', b""]),
)
def test_sweep_after_mutation(cold, name, kind, pos, bit, token):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        shutil.copytree(cold / "data", data)
        target = data / name
        target.write_bytes(mutate(target.read_bytes(), kind, pos, bit, token))
        sweep = ["sweep", "--config", cold / "run.cfg", "--data", data, "--targets", "1,2,3"]

        code, err = run(sweep + ["--out", tmp / "warm.csv"])
        if not holds_contract(code, err, tmp, tmp / "warm.csv"):
            return
        fresh = tmp / "fresh"
        fresh.mkdir()
        code, _ = run(sweep + ["--out", tmp / "fresh.csv", "--cache", fresh / "cache.csv"])
        assert code == 0
        assert (tmp / "warm.csv").read_bytes() == (tmp / "fresh.csv").read_bytes()


TARGET_PARTS = ("", " ", "3", " 4 ", "2.5", "inf", "-inf", "1e999", "-1", "0", "nan",
                "x", "+", "1_0", "\u0663", "\uff14", "1e308", "5e-324")


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    parts=st.lists(st.sampled_from(TARGET_PARTS), min_size=1, max_size=4),
    separate=st.booleans(),
)
@example(parts=["3", "", "4"], separate=False)
@example(parts=["\u0663"], separate=False)
@example(parts=["-inf"], separate=True)
@example(parts=["-0.5", "2"], separate=True)
def test_sweep_targets(cold, parts, separate):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(cold / "data", tmp / "data")
        out = tmp / "sweep.csv"
        # --targets=TEXT, or --targets TEXT, where argparse reads a TEXT that
        # starts with '-' (and is not a plain negative number) as an option
        text = ",".join(parts)
        targets = ["--targets", text] if separate else ["--targets=" + text]
        code, err = run(["sweep", "--config", cold / "run.cfg", "--data", tmp / "data",
                         *targets, "--out", out])
        holds_contract(code, err, tmp, out)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(KINDS),
    pos=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    token=st.sampled_from([b"-1", b"x", b"1" * 5000, b'"', b"\r", b""]),
)
def test_taxonomy_validate_after_mutation(cold, kind, pos, bit, token):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        taxonomy = tmp / "taxonomy.csv"
        taxonomy.write_bytes(
            mutate((cold / "data" / "taxonomy.csv").read_bytes(), kind, pos, bit, token)
        )
        code, err = run(["taxonomy-validate", taxonomy])
        holds_contract(code, err, tmp)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(["groundtruth.csv", "cold.csv"]),
    kind=st.sampled_from(KINDS),
    pos=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    token=st.sampled_from([b"nan", b"-1", b"x", b""]),
)
def test_eval_after_mutation(cold, name, kind, pos, bit, token):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for path in (cold / "cold.csv", cold / "data" / "groundtruth.csv"):
            shutil.copy(path, tmp)
        target = tmp / name
        target.write_bytes(mutate(target.read_bytes(), kind, pos, bit, token))
        report = tmp / "report.json"
        code, err = run(
            ["eval", tmp / "cold.csv", tmp / "groundtruth.csv", "--report", report]
        )
        holds_contract(code, err, tmp, report)


BAD_VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1e400", "x", "2,,4", "+", "- 1")


def infer_with_config(cold, tmp, text: bytes):
    (tmp / "run.cfg").write_bytes(text)
    shutil.copytree(cold / "data", tmp / "data")
    out = tmp / "out.csv"
    code, err = run(["infer", "--config", tmp / "run.cfg", "--data", tmp / "data", "--out", out])
    holds_contract(code, err, tmp, out)


@pytest.mark.parametrize("key", formats._RUN_KEYS + tuple(formats._RETIRED_RUN_KEYS))
def test_every_run_config_key(cold, key):
    lines = [line for line in RUN_CFG.splitlines() if not line.startswith(key + " ")]
    for value in BAD_VALUES:
        with tempfile.TemporaryDirectory() as tmp:
            text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
            infer_with_config(cold, Path(tmp), text.encode())


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(KINDS),
    pos=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    token=st.sampled_from([b"nan", b"-1", b"x", b"=", b""]),
)
def test_run_config_mutation(cold, kind, pos, bit, token):
    with tempfile.TemporaryDirectory() as tmp:
        infer_with_config(cold, Path(tmp), mutate(RUN_CFG.encode(), kind, pos, bit, token))


@pytest.mark.parametrize("key", tuple(formats._SYNTH_KEYS))
def test_every_gen_config_key(key):
    # A corpus that gen writes must read back: infer on it succeeds.
    lines = [line for line in GEN_CFG.splitlines() if not line.startswith(key + " ")]
    for value in BAD_VALUES:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "gen.cfg").write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
            (tmp / "run.cfg").write_text(RUN_CFG)
            code, err = run(["gen", "--config", tmp / "gen.cfg", "--out", tmp / "data"])
            if holds_contract(code, err, tmp, tmp / "data"):
                infer = ["infer", "--config", tmp / "run.cfg", "--data", tmp / "data"]
                assert run(infer + ["--out", tmp / "out.csv"])[0] == 0, (key, value)
