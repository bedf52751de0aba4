"""Block rendering (_util.fmt9_rows) against per-value '%.9g', and the
files the writers produce against the per-value writers they replaced
(tests/per_value_writers.py)."""

import contextlib
import io
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import per_value_writers
from quadflora import _util, formats, pipeline
from quadflora._util import fmt9_array, fmt9_rows
from quadflora.cli import main
from quadflora.ensemble import HeadSelection, compose_model
from quadflora.pipeline import infer_corpus
from quadflora.synthworld import gen_world


def oracle(matrix):
    return [";".join(fmt9_array(row)) for row in matrix]


def assert_renders_like_oracle(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    assert fmt9_rows(matrix) == oracle(matrix)


# Values on either side of every switch in %.9g's output, and every kind
# of value that fmt9_rows does not write numerically.
ADVERSARIAL = np.array(
    [
        # 9-digit half-way ties, and values a few ulps off them
        123456789.5, 123456788.5, 0.1234567895, 1.000000005, 9.999999995, 2.5e-10,
        np.nextafter(123456789.5, 0), np.nextafter(123456789.5, np.inf),
        # both sides of the switches between fixed and exponent form
        1e-4, 1e-5, np.nextafter(1e-4, 0), 9.99999999e-5, 9.999999995e-5,
        1e8, 1e9, 99999999.95, 999999999.5, 999999999.4, 999999998.5, 1e9 - 1,
        # a point after each digit position
        1.23456789, 12.3456789, 123.456789, 1234.56789, 12345.6789, 123456.789,
        1234567.89, 12345678.9,
        # trailing zeros
        1200, 0.5, 0.25, 100, 1e10, 1.5e-7, 120000000, 3e30, 0.001,
        # zeros, subnormals and the limits of a double
        0.0, -0.0, 5e-324, 1e-310, np.finfo(np.float64).tiny, np.finfo(np.float64).max,
        # non-finite
        np.nan, np.inf, -np.inf,
    ]
    + [10.0**p for p in range(-37, 54)]
)


class TestFmt9Rows:
    def test_adversarial_values(self):
        values = np.concatenate([ADVERSARIAL, -ADVERSARIAL])
        powers = np.array([10.0**p for p in range(-37, 54)])
        values = np.concatenate([values, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        assert_renders_like_oracle(values[None, :])
        assert_renders_like_oracle(values[:, None])
        assert_renders_like_oracle(values[: len(values) // 7 * 7].reshape(-1, 7))

    def test_empty_and_degenerate_shapes(self):
        assert fmt9_rows(np.zeros((0, 3))) == []
        assert fmt9_rows(np.zeros((2, 0))) == ["", ""]
        assert fmt9_rows(np.array([[-0.0]])) == ["-0"]
        with pytest.raises(ValueError):
            fmt9_rows(np.zeros(3))

    def test_every_layout(self):
        # every sign, exponent of the numeric path and count of trailing zeros
        rng = np.random.default_rng(8)
        values = [
            sign * float(f"{(rng.integers(10**8, 10**9) // 10**zeros) * 10**zeros}e{e - 8}")
            for sign in (1, -1)
            for e in range(_util._E_MIN, _util._E_MAX + 1)
            for zeros in range(9)
        ]
        assert_renders_like_oracle(np.array(values).reshape(-1, 9))

    def test_rows_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(_util, "_CHUNK_VALUES", 64)
        rng = np.random.default_rng(9)
        for shape in [(7, 100), (50, 9), (3, 64), (1, 1)]:
            assert_renders_like_oracle(rng.standard_normal(shape))

    def test_random_magnitudes(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((60, 50)) * 10.0 ** rng.integers(-45, 55, (60, 50))
        m[rng.random(m.shape) < 0.1] = 0.0
        assert_renders_like_oracle(m)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.uint64,
            st.tuples(st.integers(0, 6), st.integers(0, 12)),
            elements=st.integers(0, 2**64 - 1),
        )
    )
    def test_random_bit_patterns(self, bits):
        assert_renders_like_oracle(bits.view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 12)),
            elements=st.builds(
                lambda sign, exponent: sign * 10.0**exponent,
                st.sampled_from([1.0, -1.0]),
                st.floats(-16, 32),
            ),
        )
    )
    def test_values_from_1e_minus16_to_1e32(self, m):
        assert_renders_like_oracle(m)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 12)),
            elements=st.builds(
                lambda sign, exponent: sign * 10.0**exponent,
                st.sampled_from([1.0, -1.0]),
                st.floats(-40, 56),
            ),
        )
    )
    def test_values_from_1e_minus40_to_1e56(self, m):
        assert_renders_like_oracle(m)


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


README_GEN = """\
n_species = 120
n_genera = 24
n_families = 6
n_quadrats = 12
quadrats_per_transect = 6
grid_cells = 20
feature_dim = 128
noise_sigma = 0.5
richness_min = 4
richness_max = 4
patch_align = 4
orthogonal_prototypes = 1
seed = 11
"""
NOISELESS_GEN = """\
n_species = 30
n_genera = 8
n_families = 3
n_quadrats = 4
quadrats_per_transect = 2
grid_cells = 20
feature_dim = 32
noise_sigma = 0
richness_min = 3
richness_max = 4
patch_align = 4
orthogonal_prototypes = 1
seed = 7
"""
SMALL_GEN = """\
n_species = 12
n_genera = 4
n_families = 2
n_quadrats = 4
quadrats_per_transect = 2
grid_cells = 8
feature_dim = 16
noise_sigma = {sigma}
richness_min = 2
richness_max = 3
patch_align = 4
seed = 3
"""
RUN_CFG = "scales = 4,5\ncrop_fracs = 0.10\nmodels = lin1+mlp2+mlp2\ntarget_mean_len = 2.0\n"
WRITTEN = (
    "quadrats.csv", "heads.csv", "taxonomy.csv", "groundtruth.csv",
    "logit_cache.csv", "logit_cache.csv.fingerprint",
)


def gen_and_cold_infer(base, gen_cfg):
    """The files of a gen and a cold infer in base/data, by name."""
    base.mkdir()
    (base / "gen.cfg").write_text(gen_cfg)
    (base / "run.cfg").write_text(RUN_CFG)
    data = base / "data"
    run(["gen", "--config", base / "gen.cfg", "--out", data])
    run(["infer", "--config", base / "run.cfg", "--data", data, "--out", base / "sub.csv"])
    files = {name: (data / name).read_bytes() for name in WRITTEN}
    files["sub.csv"] = (base / "sub.csv").read_bytes()
    return files


# Features on both sides of the numeric path: noise below one ulp of the
# prototypes, and noise that puts a third of them at or above 1e31 (the
# old end of the numeric path) or 1e53.
SIGMAS = ("1e-20", "1e-6", "1e30", "1e31", "1e53")


@pytest.mark.parametrize(
    "gen_cfg",
    [README_GEN, NOISELESS_GEN] + [SMALL_GEN.format(sigma=s) for s in SIGMAS],
    ids=["readme", "noiseless"] + [f"sigma={s}" for s in SIGMAS],
)
def test_files_match_per_value_writers(tmp_path, monkeypatch, gen_cfg):
    files = gen_and_cold_infer(tmp_path / "blocks", gen_cfg)
    with monkeypatch.context() as patched:
        per_value_writers.install(patched)
        expected = gen_and_cold_infer(tmp_path / "per_value", gen_cfg)
    for name, data in expected.items():
        assert files[name] == data, name


def test_cache_of_round_off_zeros_matches_per_value_save(tmp_path):
    # Logits of a noiseless orthogonal world inferred from in-memory
    # features: most are round-off zeros below 1e-14, beside exact zeros.
    # The cache keeps their exact bits, which 9-digit text would not.
    cfg = formats.synth_config_from(formats.parse_config_text(NOISELESS_GEN))
    tax, quadrats, registry = gen_world(cfg)
    model = compose_model(registry, HeadSelection("lin1", "mlp2", "mlp2"))
    run_cfg = formats.run_config_from(formats.parse_config_text(RUN_CFG))
    cache = formats.LogitCache(tmp_path / "blocks.csv")
    infer_corpus(quadrats, run_cfg, tax, [model], cache)
    values = np.concatenate([block.ravel() for block in cache._data.values()])
    assert 0.5 < np.mean(np.abs(values) < 1e-14) < 1
    assert (_util.canonical9(values) != values).any()
    cache.save()
    per_value_writers.save(cache, tmp_path / "per_value.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "per_value.csv").read_bytes()
    loaded = formats.LogitCache.load(tmp_path / "blocks.csv")
    assert loaded._data.keys() == cache._data.keys()
    for key, block in cache._data.items():
        assert loaded.get(key).view(np.int64).tolist() == block.view(np.int64).tolist()


def on_numeric_path(x: float) -> bool:
    """Whether x is zero, or finite with |k| <= 44 (k = 8 - e, e its exact
    decimal exponent) and x * 10**k at least 1e-6 from a half-integer."""
    if x == 0:
        return True
    if not math.isfinite(x):
        return False
    k = 8 - Decimal(x).adjusted()
    t = Fraction(x) * Fraction(10) ** k
    return abs(k) <= 44 and abs(t - math.floor(t) - Fraction(1, 2)) >= Fraction(1, 10**6)


def test_round_off_zeros_take_no_text_path(monkeypatch):
    # The raw logits of a noiseless orthogonal world: round-off zeros
    # (|x| of about 1e-16 to 1e-20), exact zeros, and values near 1.
    cfg = formats.synth_config_from(formats.parse_config_text(NOISELESS_GEN))
    tax, quadrats, registry = gen_world(cfg)
    model = compose_model(registry, HeadSelection("lin1", "mlp2", "mlp2"))
    run_cfg = formats.run_config_from(formats.parse_config_text(RUN_CFG))
    raw = []
    with monkeypatch.context() as patched:
        head_logits = pipeline.head_logits
        patched.setattr(pipeline, "head_logits", lambda *a: raw.append(head_logits(*a)) or raw[-1])
        infer_corpus(quadrats, run_cfg, tax, [model], formats.LogitCache())
    values = np.concatenate([block.ravel() for block in raw])
    assert all(map(on_numeric_path, values.tolist()))
    assert (values == 0).any() and np.mean(np.abs(values) < 1e-14) > 0.5
    expected = oracle(values[None])
    calls = []
    monkeypatch.setattr(_util, "fmt9_array", lambda v: calls.append(v) or [])
    assert fmt9_rows(values[None]) == expected
    assert len(calls) == 0
