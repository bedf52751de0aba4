"""Raw float64 logits against the 9-digit rounding they replaced.

The pipeline once rounded every freshly computed logit block to its
'%.9g' value (canonical9), so that a warm run, which read its logits back
from 9-digit cache text, equalled the cold run. The cache now stores each
grid's exact bits and no logit is rounded. That rounding is kept here as
the oracle: the pipeline runs with pipeline.head_logits wrapped by
canonical9, and the raw path must give the same prediction sets, with τ
within 1e-8 relative, on the worlds of acceptance criteria 5, 6 and 10
and on the tiny shapes of the dense-bagged and wide-taxonomy benchmark
workloads.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from quadflora import formats, pipeline
from quadflora._util import canonical9
from quadflora.cli import main
from quadflora.ensemble import HeadSelection, compose_model
from quadflora.pipeline import RunConfig, infer_corpus, select_predictions
from quadflora.selection import SelectionConfig
from quadflora.synthworld import SynthConfig, gen_world

FUSED = HeadSelection("lin1", "mlp2", "mlp2")
CONFUSABLE = HeadSelection("lin1c", "mlp2", "mlp2")


def criterion6(sigma, channel):
    return (
        SynthConfig(200, 40, 8, n_quadrats=60, quadrats_per_transect=6, grid_cells=20,
                    feature_dim=256, noise_sigma=sigma, richness_min=4, richness_max=4,
                    patch_align=4, orthogonal_prototypes=True, seed=202),
        (CONFUSABLE,),
        RunConfig(scales=(4, 5), selection=SelectionConfig(target_mean_len=4.0, channel=channel)),
        None,
    )


# id: (world, head selections, run config, quadrats per calibrated survey or None for all)
WORLDS = {
    "criterion5": (
        SynthConfig(500, 50, 10, n_quadrats=200, quadrats_per_transect=10, grid_cells=20,
                    feature_dim=512, noise_sigma=0.0, richness_min=4, richness_max=4,
                    patch_align=4, orthogonal_prototypes=True, seed=101),
        (FUSED,),
        RunConfig(scales=(4, 5), selection=SelectionConfig(target_mean_len=4.0)),
        None,
    ),
    "criterion6-sigma0-fused": criterion6(0.0, "fused"),
    "criterion6-sigma0.5-fused": criterion6(0.5, "fused"),
    "criterion6-sigma1-fused": criterion6(1.0, "fused"),
    "criterion6-sigma0.5-raw": criterion6(0.5, "raw"),
    "criterion10": (
        SynthConfig(7806, 1446, 181, n_quadrats=20, quadrats_per_transect=5, grid_cells=20,
                    feature_dim=64, noise_sigma=0.5, richness_min=3, richness_max=6,
                    patch_align=4, seed=55),
        (FUSED,),
        RunConfig(scales=(4, 5), crop_fracs=(0.10,), selection=SelectionConfig(max_len=9)),
        None,
    ),
    "dense-bagged-tiny": (
        SynthConfig(40, 8, 4, n_quadrats=4, quadrats_per_transect=2, feature_dim=64,
                    noise_sigma=1.2, patch_align=4, orthogonal_prototypes=True, seed=3),
        (FUSED, HeadSelection("lin1c", "lin1", "lin1")),
        RunConfig(scales=(4, 5), crop_fracs=(0.0, 0.10), kernel_w=0.5,
                  selection=SelectionConfig(target_mean_len=4.0, max_len=9)),
        2,
    ),
    "wide-taxonomy-tiny": (
        SynthConfig(300, 60, 12, n_quadrats=4, quadrats_per_transect=2, feature_dim=16,
                    noise_sigma=0.5, patch_align=4, seed=3),
        (FUSED,),
        RunConfig(scales=(4,), crop_fracs=(0.10,),
                  selection=SelectionConfig(target_mean_len=4.0, max_len=9)),
        2,
    ),
}


def calibrated_surveys(quadrats, models, tax, cfg, survey_size):
    """(predictions, τ) per survey, each inferred and calibrated alone."""
    size = survey_size or len(quadrats)
    groups = {q.quadrat_id: q.transect_id for q in quadrats}
    out = []
    for start in range(0, len(quadrats), size):
        survey = quadrats[start : start + size]
        candidates = infer_corpus(survey, cfg, tax, models, formats.LogitCache())
        preds, tau, _ = select_predictions(candidates, cfg, groups)
        out.append((preds, tau))
    return out


@pytest.mark.parametrize("name", WORLDS)
def test_raw_logits_match_the_9_digit_oracle(name, monkeypatch):
    synth, heads, cfg, survey_size = WORLDS[name]
    tax, quadrats, registry = gen_world(synth)
    models = [compose_model(registry, h) for h in heads]
    got = calibrated_surveys(quadrats, models, tax, cfg, survey_size)
    head_logits = pipeline.head_logits
    monkeypatch.setattr(pipeline, "head_logits", lambda *a: canonical9(head_logits(*a)))
    expected = calibrated_surveys(quadrats, models, tax, cfg, survey_size)
    for (preds, tau), (want, want_tau) in zip(got, expected):
        assert preds == want
        assert math.isclose(tau, want_tau, rel_tol=1e-8, abs_tol=0.0), (tau, want_tau)


GEN_CFG = """\
n_species = 60
n_genera = 12
n_families = 4
n_quadrats = 6
quadrats_per_transect = 3
grid_cells = 20
feature_dim = 32
noise_sigma = 0.8
richness_min = 3
richness_max = 5
patch_align = 4
seed = 19
"""
RUN_CFG = "scales = 4,5\ncrop_fracs = 0,0.1\nkernel_w = 0.5\ntarget_mean_len = 3.0\n"


def test_warm_infer_reads_the_cold_runs_bits(tmp_path, monkeypatch):
    (tmp_path / "gen.cfg").write_text(GEN_CFG)
    (tmp_path / "run.cfg").write_text(RUN_CFG)
    data = tmp_path / "data"
    infer = ["infer", "--config", str(tmp_path / "run.cfg"), "--data", str(data), "--out"]
    put = formats.LogitCache.put
    computed = {}

    def recording_put(cache, key, block):
        computed[key] = block.copy()
        put(cache, key, block)

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(data)]) == 0
        monkeypatch.setattr(formats.LogitCache, "put", recording_put)
        assert main(infer + [str(tmp_path / "cold.csv")]) == 0
        assert computed
        cached = formats.LogitCache.load(data / "logit_cache.csv")
        assert cached._data.keys() == computed.keys()
        for key, block in computed.items():
            np.testing.assert_array_equal(cached.get(key).view(np.int64), block.view(np.int64))
        computed.clear()
        assert main(infer + [str(tmp_path / "warm.csv")]) == 0
    assert computed == {}
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
