"""Inputs mutated between a cold and a warm `infer`.

Whatever happens to the features, the heads, the logit cache or its
fingerprint, the warm run either fails with one `error:` line and
writes nothing, or gives the submission of a fresh-cache run on the
mutated data.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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

FILES = ("quadrats.csv", "heads.csv", "logit_cache.csv", "logit_cache.csv.fingerprint")
KINDS = ("truncate", "flip", "duplicate", "token")


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
    # replace the text after one separator of a line with a non-finite token
    line = lines[i]
    cuts = [j for j, ch in enumerate(line) if ch in b",;:"]
    if cuts:
        j = cuts[(pos // len(lines)) % len(cuts)] + 1
        end = min([k for k in cuts if k >= j] + [len(line)])
        lines[i] = line[:j] + token + line[end:]
    return b"\n".join(lines)


@settings(
    max_examples=60,
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
def test_warm_infer_after_mutation(cold, name, kind, pos, bit, token):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        shutil.copytree(cold / "data", data)
        target = data / name
        target.write_bytes(mutate(target.read_bytes(), kind, pos, bit, token))
        infer = ["infer", "--config", cold / "run.cfg", "--data", data]

        code, err = run(infer + ["--out", tmp / "warm.csv"])
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code in (0, 2)
        assert len(errors) == (code == 2)
        assert "Traceback" not in err
        assert not list(tmp.rglob(".tmp-*"))
        if code == 2:
            assert not (tmp / "warm.csv").exists()
            return
        fresh = tmp / "fresh"
        fresh.mkdir()
        code, _ = run(infer + ["--out", tmp / "fresh.csv", "--cache", fresh / "cache.csv"])
        assert code == 0
        assert (tmp / "warm.csv").read_bytes() == (tmp / "fresh.csv").read_bytes()
