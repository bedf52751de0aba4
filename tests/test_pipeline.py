import contextlib
import dataclasses
import importlib
import io
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cache_file
import per_tile
from quadflora import cli, pipeline, selection
from quadflora._util import canonical9
from quadflora.ensemble import HeadSelection, compose_model
from quadflora.errors import (
    ConfigError,
    GeometryError,
    IncongruentMembersError,
    QuadfloraError,
    ShapeError,
)
from quadflora.formats import LogitCache, write_head_registry
from quadflora.fusion import FusedScores, TileLogits, fuse
from quadflora.geometry import CropSpec, GridSpec, Rect, central_crop, tile_grid
from quadflora.pipeline import (
    RunConfig,
    crop_key,
    infer_corpus,
    infer_quadrat,
    run,
    select_predictions,
)
from quadflora.selection import (
    SelectionConfig,
    apply_threshold,
    bisect_threshold,
    mean_prediction_length,
    zscore_normalize,
)
from quadflora.synthworld import (
    LEVELS,
    HeadRegistry,
    Quadrat,
    SynthConfig,
    TwoLayerHead,
    gen_world,
    head_logits,
    tile_features,
)


@pytest.fixture(scope="module")
def world():
    cfg = SynthConfig(
        n_species=40,
        n_genera=10,
        n_families=4,
        n_quadrats=8,
        quadrats_per_transect=4,
        grid_cells=20,
        feature_dim=48,
        noise_sigma=0.0,
        richness_min=3,
        richness_max=4,
        patch_align=4,
        orthogonal_prototypes=True,
        seed=42,
    )
    return gen_world(cfg)


@pytest.fixture(scope="module")
def noisy_world():
    cfg = SynthConfig(
        n_species=40,
        n_genera=10,
        n_families=4,
        n_quadrats=4,
        quadrats_per_transect=2,
        grid_cells=20,
        feature_dim=48,
        noise_sigma=0.8,
        richness_min=3,
        richness_max=5,
        patch_align=4,
        orthogonal_prototypes=True,
        seed=43,
    )
    return gen_world(cfg)


@pytest.fixture(scope="module")
def bagged_world():
    cfg = SynthConfig(
        n_species=60,
        n_genera=12,
        n_families=4,
        n_quadrats=6,
        quadrats_per_transect=3,
        grid_cells=20,
        feature_dim=64,
        noise_sigma=1.2,
        richness_min=3,
        richness_max=5,
        patch_align=4,
        seed=44,
    )
    return gen_world(cfg)


def default_models(registry):
    return [compose_model(registry, HeadSelection("lin1", "mlp2", "mlp2"))]


def two_models(registry):
    return [
        compose_model(registry, HeadSelection("lin1", "mlp2", "mlp2")),
        compose_model(registry, HeadSelection("lin1c", "lin1", "lin1")),
    ]


def per_row_cache(quads, cfg, models):
    """A cache filled by the per-row logit path: each tile's heads applied
    to its feature vector (GEMV), each row rounded by its own canonical9,
    the rows of a grid stacked into its block.

    Inference that reads every grid from this cache is that path's
    result, so it serves as the oracle for the one-GEMM-per-grid path."""
    cache = LogitCache()
    overlap = float(cfg.overlap_frac)
    for q in quads:
        image = Rect(0, 0, q.grid_cells, q.grid_cells)
        for crop_frac in cfg.crop_fracs:
            crop = crop_key(crop_frac)
            region = central_crop(image, CropSpec(crop_frac))
            for scale in set(cfg.scales):
                grid = tile_grid(region, GridSpec(scale, cfg.overlap_frac))
                features = [tile_features(q, t) for t in grid]
                for model in models:
                    for level in LEVELS:
                        if model.head_for(level) is not None:
                            key = (model.model_id, q.quadrat_id, crop, overlap, scale, level)
                            rows = [canonical9(head_logits(model, level, f)) for f in features]
                            cache.put(key, np.vstack(rows))
    return cache


def per_tile_oracle(q, cfg, tax, models, cache, smooth_members=False):
    """The pipeline composed from the per-tile oracle functions over the
    cached logit rows, one tile at a time: the members are bagged, and the
    bag is kernel-smoothed on each scale's grid. smooth_members smooths
    each member before bagging instead, the order the pipeline used
    before; smoothing and bagging are linear, so the two orders agree up
    to rounding."""
    rows = per_tile.cache_rows(cache)
    image = Rect(0, 0, q.grid_cells, q.grid_cells)
    specs = [GridSpec(scale, cfg.overlap_frac) for scale in sorted(set(cfg.scales))]

    def smoothed(tiles):
        out = {}
        for spec in specs:
            grid = {key: t for key, t in tiles.items() if key[0] == spec.scale}
            out.update(per_tile.kernel_smooth(grid, cfg.kernel_w, spec))
        return out

    members = []
    for crop_frac in cfg.crop_fracs:
        crop = crop_key(crop_frac)
        region = central_crop(image, CropSpec(crop_frac))
        for model in models:
            tiles = {}
            for spec in specs:
                for t in tile_grid(region, spec):
                    levels = {
                        lvl: rows.get(
                            (model.model_id, q.quadrat_id, crop, float(cfg.overlap_frac),
                             t.scale, t.row, t.col, lvl)
                        )
                        for lvl in ("species", "genus", "family")
                    }
                    tiles[per_tile.tile_key(t)] = per_tile.PerTileLogits(tile=t, **levels)
            if smooth_members:
                tiles = smoothed(tiles)
            members.append(per_tile.ModelOutput(f"{model.model_id}|crop={crop}", tiles))
    bagged = per_tile.bag(members)
    tiles = bagged.tiles if smooth_members else smoothed(bagged.tiles)
    scored = [tiles[k] for k in sorted(tiles)]
    if cfg.selection.channel == "fused":
        scored = [fuse(t, tax) for t in scored]
    else:
        scored = [FusedScores(score=t.species) for t in scored]
    return per_tile.collect_candidates(scored, q.quadrat_id)


class TestInferQuadrat:
    def test_degenerate_composition_is_single_tile_top1(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        q = quads[0]
        cfg = RunConfig(scales=(1,), crop_fracs=(0.0,))
        got = infer_quadrat(q, cfg, tax, models)
        # direct composition oracle (note: pipeline rounds logits to 9
        # significant digits, so compare candidates, not raw floats)
        (tref,) = tile_grid(Rect(0, 0, q.grid_cells, q.grid_cells), GridSpec(1))
        f = tile_features(q, tref)
        tl = TileLogits(
            species=head_logits(models[0], "species", f),
            genus=head_logits(models[0], "genus", f),
            family=head_logits(models[0], "family", f),
        )
        species, value = per_tile.tile_top1(fuse(tl, tax))
        assert set(got.entries) == {species}
        assert got.entries[species] == pytest.approx(value, rel=1e-8)

    def test_noiseless_candidates_cover_truth(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(4, 5), crop_fracs=(0.0,))
        for q in quads:
            got = infer_quadrat(q, cfg, tax, models)
            assert q.truth <= set(got.entries)

    def test_duplicate_model_changes_nothing(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(2, 3), crop_fracs=(0.0,))
        single = infer_quadrat(quads[0], cfg, tax, models)
        doubled = infer_quadrat(quads[0], cfg, tax, models * 3)
        assert single.entries == doubled.entries

    def test_zero_kernel_single_member_equals_plain(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        plain = infer_quadrat(
            quads[1], RunConfig(scales=(3,), crop_fracs=(0.0,)), tax, models
        )
        smoothed = infer_quadrat(
            quads[1],
            RunConfig(scales=(3,), crop_fracs=(0.0,), kernel_w=0.0),
            tax,
            models,
        )
        assert plain.entries == smoothed.entries

    def test_scale_union_monotonicity(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        for q in quads[:4]:
            narrow = infer_quadrat(q, RunConfig(scales=(4,), crop_fracs=(0.0,)), tax, models)
            wide = infer_quadrat(q, RunConfig(scales=(4, 5), crop_fracs=(0.0,)), tax, models)
            assert set(narrow.entries) <= set(wide.entries)

    def test_matches_direct_composition(self, world):
        # component-wise oracle: crop -> tile -> features -> heads -> fuse ->
        # collect, written out by hand (without the pipeline's 9-digit
        # rounding, hence approximate score comparison)
        tax, quads, registry = world
        model = default_models(registry)[0]
        q = quads[2]
        cfg = RunConfig(scales=(4, 5), crop_fracs=(0.10,))
        got = infer_quadrat(q, cfg, tax, [model])

        from quadflora.geometry import CropSpec, central_crop

        region = central_crop(Rect(0, 0, q.grid_cells, q.grid_cells), CropSpec(0.10))
        scored = []
        for scale in (4, 5):
            for tref in tile_grid(region, GridSpec(scale)):
                f = tile_features(q, tref)
                tl = TileLogits(
                    species=head_logits(model, "species", f),
                    genus=head_logits(model, "genus", f),
                    family=head_logits(model, "family", f),
                )
                scored.append(fuse(tl, tax))
        expected = per_tile.collect_candidates(scored, q.quadrat_id)
        assert set(got.entries) == set(expected.entries)
        for s, v in expected.entries.items():
            assert got.entries[s] == pytest.approx(v, rel=1e-7, abs=1e-9)

    def test_multi_crop_bagging_runs(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(2,), crop_fracs=(0.08, 0.10, 0.12))
        got = infer_quadrat(quads[0], cfg, tax, models)
        assert len(got.entries) >= 1

    @pytest.mark.parametrize("channel", ["fused", "raw"])
    def test_block_path_equals_per_tile_composition(self, noisy_world, channel):
        tax, quads, registry = noisy_world
        models = two_models(registry)
        cfg = RunConfig(
            scales=(5, 2, 3, 2),  # unsorted, with a duplicate
            crop_fracs=(0.0, 0.05, 0.10),
            overlap_frac=0.3,
            kernel_w=0.7,
            selection=SelectionConfig(channel=channel),
        )
        cache = LogitCache()
        for q in quads:
            got = infer_quadrat(q, cfg, tax, models, cache)
            # the bag smoothed, as the block path does it: bit for bit
            assert got == per_tile_oracle(q, cfg, tax, models, cache)
            # the smoothed members bagged, the order before: equal up to rounding
            before = per_tile_oracle(q, cfg, tax, models, cache, smooth_members=True)
            assert list(got.entries) == list(before.entries)
            assert got.scores() == pytest.approx(before.scores(), rel=1e-12)
        # 25 + 4 + 9 distinct tiles, 3 levels, 2 models, 3 crops
        assert len(cache) == len(quads) * 38 * 3 * 2 * 3

    @pytest.mark.parametrize("world_name", ["noisy_world", "bagged_world"])
    @pytest.mark.parametrize("channel", ["fused", "raw"])
    def test_grid_gemm_equals_per_row_path(self, request, world_name, channel):
        tax, quads, registry = request.getfixturevalue(world_name)
        models = two_models(registry)
        cfg = RunConfig(
            scales=(4, 5),
            crop_fracs=(0.0, 0.10),
            kernel_w=0.5,
            selection=SelectionConfig(channel=channel, target_mean_len=4.0, max_len=9),
        )
        oracle = per_row_cache(quads, cfg, models)
        expected = infer_corpus(quads, cfg, tax, models, oracle)
        assert len(oracle) == len(quads) * 41 * 3 * 2 * 2  # every row was a hit
        got = infer_corpus(quads, cfg, tax, models)
        for a, b in zip(got, expected):
            assert set(a.entries) == set(b.entries)
            for s, v in b.entries.items():
                assert a.entries[s] == pytest.approx(v, rel=1e-8)
        groups = {q.quadrat_id: q.transect_id for q in quads}
        for merge_k in (None, 1):
            sel = dataclasses.replace(cfg.selection, merge_k=merge_k)
            c = dataclasses.replace(cfg, selection=sel)
            want, _, _ = select_predictions(expected, c, groups)
            assert select_predictions(got, c, groups)[0] == want

    def test_cached_rows_depend_on_key_alone(self, noisy_world, tmp_path):
        # GEMM bits can depend on the batch size, so each grid is always
        # one batch. Logits are not rounded: any other batching shows in
        # the bits.
        tax, quads, registry = noisy_world
        models = two_models(registry)
        cfg = RunConfig(scales=(4, 5), crop_fracs=(0.0, 0.10), kernel_w=0.5)
        ref = LogitCache(tmp_path / "ref.csv")
        infer_corpus(quads, cfg, tax, models, ref)
        ref_rows = per_tile.cache_rows(ref)

        def assert_rows_match_ref(cache, n_rows=len(ref_rows)):
            rows = per_tile.cache_rows(cache)
            assert len(rows) == len(cache) == n_rows
            for key, values in rows.items():
                np.testing.assert_array_equal(values.view(np.int64), ref_rows[key].view(np.int64))

        for changed in (
            dict(scales=(4,)),
            dict(scales=(5, 4)),
            dict(crop_fracs=(0.10, 0.0)),
        ):
            cache = LogitCache()
            infer_corpus(quads, dataclasses.replace(cfg, **changed), tax, models, cache)
            n_rows = sum(k[4] in changed.get("scales", (4, 5)) for k in ref_rows)
            assert_rows_match_ref(cache, n_rows)

        # A grid that lost its last row is dropped on load and recomputed
        # whole, with the same bits; whole grids are used as read.
        ref.save()
        header, index, values = cache_file.parts((tmp_path / "ref.csv").read_bytes())
        kept, offset = [], 0
        for i, entry in enumerate(index):
            rows, cols = entry[6:]
            kept.append(values[offset : offset + 8 * (rows - (i % 7 == 0)) * cols])
            entry[6] -= i % 7 == 0
            offset += 8 * rows * cols
        (tmp_path / "warm.csv").write_bytes(cache_file.build(header, index, b"".join(kept)))
        with pytest.warns(UserWarning, match="wrong shapes"):
            warm = LogitCache.load(tmp_path / "warm.csv")
        loaded = dict(warm._data)
        assert 0 < len(loaded) < len(ref._data)
        infer_corpus(quads, cfg, tax, models, warm)
        assert warm._data.keys() == ref._data.keys()
        for key, block in ref._data.items():
            if key in loaded:
                assert warm.get(key) is loaded[key]
            else:
                np.testing.assert_array_equal(warm.get(key).view(np.int64), block.view(np.int64))

    def test_models_with_different_levels_are_incongruent(self, world):
        tax, quads, registry = world
        models = [
            compose_model(registry, HeadSelection("lin1", "mlp2", "mlp2")),
            compose_model(registry, HeadSelection("lin1", "mlp2", None)),
        ]
        with pytest.raises(IncongruentMembersError):
            infer_quadrat(quads[0], RunConfig(scales=(2,)), tax, models)

    def test_needs_models(self, world):
        tax, quads, _ = world
        with pytest.raises(ConfigError):
            infer_quadrat(quads[0], RunConfig(scales=(2,)), tax, [])


class TestBenchmarkHooks:
    @pytest.mark.parametrize("module", ["candgen", "workloads"])
    def test_benchmark_modules_import(self, monkeypatch, module):
        # perfbench imports library names at module level; a deleted name
        # must fail here, not only in the benchmark's own smoke test
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        for name in ("candgen", "workloads"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        importlib.import_module(module)

    def test_traced_run_records_every_stage(self, noisy_world, monkeypatch):
        # perfbench's tracer wraps names bound in pipeline; each must be
        # the one the pipeline calls, and wrapping must not change results
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer_mod = importlib.import_module("tracer")
        tax, quads, registry = noisy_world
        models = two_models(registry)
        groups = {q.quadrat_id: q.transect_id for q in quads}

        def infer(channel, cache=None):
            cfg = RunConfig(
                scales=(2, 3),
                crop_fracs=(0.0, 0.10),
                kernel_w=0.5,
                selection=SelectionConfig(channel=channel, max_len=9),
            )
            candidates = pipeline.infer_corpus(quads, cfg, tax, models, cache)
            return candidates, pipeline.select_predictions(candidates, cfg, groups)

        filled = {}
        for channel in ("fused", "raw"):
            expected = infer(channel)
            # the raw run starts from the genus grids of the fused run
            cache = LogitCache()
            for key, block in filled.items():
                if key[5] == "genus":
                    cache.put(key, block)
            held = len(cache._data)
            tracer = tracer_mod.Tracer()
            tracer.install()
            try:
                got = infer(channel, cache)
            finally:
                tracer.uninstall()
            assert got == expected
            filled = dict(cache._data)
            calls = Counter(span[0] for span in tracer.spans)
            # one span per missed (model, level, grid), even where heads
            # share a first layer: 2 crops x 2 scales x 6 heads a quadrat
            assert len(cache._data) == len(quads) * 2 * 2 * 6
            assert calls["synthworld.head_logits"] == len(cache._data) - held
            assert held == (len(quads) * 2 * 2 * 2 if channel == "raw" else 0)
            # 3 levels of the bag of 2 crops x 2 models smoothed per quadrat
            assert calls["ensemble.kernel_smooth"] == len(quads) * 3
            for name in ("ensemble.bag", "selection.collect_candidates"):
                assert calls[name] == len(quads), name
            assert calls["fusion.fuse"] == (len(quads) if channel == "fused" else 0)


    # Every name perfbench/tracer.py patches on the selection path. The
    # tracer reads owner.__dict__[name], so an unbound name crashes every
    # traced benchmark run, which tier-1 does not start.
    TRACED_SELECTION_NAMES = {
        pipeline: (
            "zscore_normalize",
            "bisect_threshold",
            "mean_prediction_length",
            "apply_threshold",
            "metadata_merge",
        ),
        selection: ("mean_prediction_length", "apply_threshold"),
    }

    def test_traced_selection_names_bound(self):
        for owner, names in self.TRACED_SELECTION_NAMES.items():
            for name in names:
                assert callable(owner.__dict__.get(name)), f"{owner.__name__}.{name}"
                assert owner.__dict__[name] is selection.__dict__[name]

    # Spans per file-layer name the tracer patches in cli and formats, over
    # gen, a cold and a warm infer, and eval. Only the traced cli-cache
    # benchmark goes through these names, and tier-1 does not start it.
    TRACED_FILE_SPANS = {
        "cli.gen": 1,
        "cli.infer": 2,
        "cli.eval": 1,
        "taxonomy.load_taxonomy": 2,
        "formats.load_quadrat_features": 2,
        "formats.load_head_registry": 2,
        "formats.write_submission": 2,
        "formats.write_quadrat_features": 1,
        "formats.LogitCache.load": 2,
        "formats.LogitCache.save": 2,
    }

    def test_traced_cli_records_every_file_layer(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer_mod = importlib.import_module("tracer")

        def commands(work, tracer=None):
            work.mkdir()
            (work / "gen.cfg").write_text(
                "n_species = 12\nn_genera = 4\nn_families = 2\nn_quadrats = 4\n"
                "quadrats_per_transect = 2\ngrid_cells = 6\nfeature_dim = 5\nseed = 2\n"
            )
            (work / "run.cfg").write_text("scales = 2,3\ncrop_fracs = 0.1\ntarget_mean_len = 2\n")
            data = str(work / "data")
            infer = ["infer", "--config", str(work / "run.cfg"), "--data", data, "--out"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["gen", "--config", str(work / "gen.cfg"), "--out", data]) == 0
                for phase in ("cold", "warm"):
                    if tracer is not None:
                        tracer.phase = phase
                    assert cli.main(infer + [str(work / f"{phase}.csv")]) == 0
                assert cli.main(["eval", str(work / "cold.csv"), data + "/groundtruth.csv",
                                 "--report", str(work / "report.json")]) == 0
            return {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}

        expected = commands(tmp_path / "untraced")
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            got = commands(tmp_path / "traced", tracer)
        finally:
            tracer.uninstall()
        assert got == expected
        calls = Counter(span[0] for span in tracer.spans)
        assert {name: calls[name] for name in self.TRACED_FILE_SPANS} == self.TRACED_FILE_SPANS
        # LogitCache.get is counted, not spanned: every cold lookup misses,
        # every warm one hits.
        counts = tracer.counts
        assert counts["formats.cache_lookups.cold"] > 0
        assert counts["formats.cache_hits.cold"] == 0
        assert counts["formats.cache_hits.warm"] == counts["formats.cache_lookups.warm"] > 0


class TestSelectPredictions:
    @pytest.mark.parametrize(
        "sel",
        [
            SelectionConfig(target_mean_len=3.0, max_len=9),
            SelectionConfig(target_mean_len=2.5, min_len=2, zscore=True),
            SelectionConfig(min_logit=-9.0),
            SelectionConfig(),
        ],
    )
    def test_one_step_function_per_calibration(self, world, monkeypatch, sel):
        tax, quads, registry = world
        cfg = RunConfig(scales=(4, 5), crop_fracs=(0.0,), selection=sel)
        candidates = infer_corpus(quads, cfg, tax, default_models(registry))
        built = []
        ranking = selection._ranking

        def counting_ranking(*args):
            built.append(1)
            return ranking(*args)

        monkeypatch.setattr(selection, "_ranking", counting_ranking)
        preds, tau, achieved = select_predictions(candidates, cfg)
        assert len(built) == 1
        scored = [zscore_normalize(c) for c in candidates] if sel.zscore else candidates
        if sel.target_mean_len is not None:
            expected_tau = bisect_threshold(scored, sel.target_mean_len, sel)
        else:
            expected_tau = -np.inf if sel.min_logit is None else sel.min_logit
        expected = mean_prediction_length(scored, expected_tau, sel)
        assert np.float64(tau).view(np.int64) == np.float64(expected_tau).view(np.int64)
        assert np.float64(achieved).view(np.int64) == np.float64(expected).view(np.int64)
        assert preds == [apply_threshold(c, tau, sel) for c in scored]


class TestRun:
    def test_keep_everything_when_unconfigured(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(4,), crop_fracs=(0.0,))
        cands = infer_corpus(quads, cfg, tax, models)
        preds = run(quads, cfg, tax, models)
        for c, p in zip(cands, preds):
            assert p.species == tuple(sorted(c.entries))

    def test_target_mean_len_reached(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(
            scales=(4, 5),
            crop_fracs=(0.0,),
            selection=SelectionConfig(target_mean_len=3.0),
        )
        preds = run(quads, cfg, tax, models)
        mean_len = float(np.mean([len(p.species) for p in preds]))
        assert mean_len >= 3.0

    def test_deterministic(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(
            scales=(4, 5),
            crop_fracs=(0.10,),
            selection=SelectionConfig(target_mean_len=3.0, max_len=9),
        )
        a = run(quads, cfg, tax, models)
        b = run(quads, cfg, tax, models)
        assert [(p.quadrat_id, p.species) for p in a] == [
            (p.quadrat_id, p.species) for p in b
        ]

    def test_merge_needs_groups_only_when_enabled(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(
            scales=(4,),
            crop_fracs=(0.0,),
            selection=SelectionConfig(merge_k=3),
        )
        preds = run(quads, cfg, tax, models)  # groups from transect ids
        assert len(preds) == len(quads)

    def test_models_resolution_from_registry(self, world):
        tax, quads, registry = world
        cfg = RunConfig(
            scales=(4,),
            crop_fracs=(0.0,),
            head_combos=(HeadSelection("lin1", "mlp2", "mlp2"),),
        )
        preds = run(quads, cfg, tax, registry=registry)
        assert len(preds) == len(quads)
        with pytest.raises(ConfigError):
            run(quads, dataclasses.replace(cfg, head_combos=None), tax, registry=registry)


class TestCache:
    def test_cache_round_trip_bit_identical(self, world, tmp_path):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(4,), crop_fracs=(0.10,))
        cache = LogitCache(tmp_path / "cache.csv")
        cold = [infer_quadrat(q, cfg, tax, models, cache) for q in quads]
        cache.save()
        warm_cache = LogitCache.load(tmp_path / "cache.csv")
        assert len(warm_cache) == len(cache)
        warm = [infer_quadrat(q, cfg, tax, models, warm_cache) for q in quads]
        for a, b in zip(cold, warm):
            assert a.entries == b.entries

    def test_loaded_grids_are_read_only_views_of_the_file(self, noisy_world, tmp_path):
        # The file is read once: each loaded grid is a read-only view of its
        # bytes, at the offset the grid index gives it, and a warm run on
        # those views equals the cold run bit for bit.
        tax, quads, registry = noisy_world
        models = two_models(registry)
        cfg = RunConfig(scales=(2, 3), crop_fracs=(0.0, 0.10), kernel_w=0.5)
        cache = LogitCache(tmp_path / "cache.csv")
        cold = infer_corpus(quads, cfg, tax, models, cache)
        cache.save()
        data = (tmp_path / "cache.csv").read_bytes()
        _, index, values = cache_file.parts(data)
        warm_cache = LogitCache.load(tmp_path / "cache.csv")
        loaded = dict(warm_cache._data)
        assert len(loaded) == len(index) == len(cache._data)
        roots, offset = set(), len(data) - len(values)
        for *key, rows, cols in index:
            block = loaded[tuple(key)]
            root = block
            while isinstance(root, np.ndarray):
                root = root.base
            assert root == data and not block.flags.writeable and block.shape == (rows, cols)
            start = np.frombuffer(root, np.uint8).__array_interface__["data"][0]
            assert block.__array_interface__["data"][0] - start == offset
            roots.add(id(root))
            offset += 8 * rows * cols
        assert len(roots) == 1 and offset == len(data)
        warm = infer_corpus(quads, cfg, tax, models, warm_cache)
        assert not warm_cache._dirty
        assert all(warm_cache.get(key) is block for key, block in loaded.items())

        def hexed(corpus):
            return [{s: v.hex() for s, v in c.entries.items()} for c in corpus]

        assert hexed(warm) == hexed(cold)

    def test_one_row_per_tile_and_level(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(4, 5), crop_fracs=(0.0,))
        cache = LogitCache()
        cached = infer_corpus(quads, cfg, tax, models, cache=cache)
        uncached = infer_corpus(quads, cfg, tax, models)
        assert [c.entries for c in cached] == [c.entries for c in uncached]
        # 41 tiles x 3 levels per quadrat
        assert len(cache) == len(quads) * 41 * 3

    @pytest.mark.parametrize("channel", ["fused", "raw"])
    def test_raw_logits_match_rounded_oracle(self, noisy_world, monkeypatch, channel):
        # The oracle rounds each head's logits to their '%.9g' value, as
        # the pipeline did while the cache held 9-digit text.
        tax, quads, registry = noisy_world
        models = two_models(registry)
        cfg = RunConfig(
            scales=(2, 3),
            crop_fracs=(0.0, 0.10),
            kernel_w=0.5,
            selection=SelectionConfig(channel=channel, target_mean_len=2.0),
        )
        raw = LogitCache()
        got = infer_corpus(quads, cfg, tax, models, raw)
        monkeypatch.setattr(pipeline, "head_logits", lambda *a: canonical9(head_logits(*a)))
        rounded = LogitCache()
        expected = infer_corpus(quads, cfg, tax, models, rounded)
        assert raw._data.keys() == rounded._data.keys()
        for key, block in raw._data.items():
            assert canonical9(block).tobytes() == rounded.get(key).tobytes()
        for a, b in zip(got, expected):
            assert a.entries.keys() == b.entries.keys()
            for s, v in b.entries.items():
                assert a.entries[s] == pytest.approx(v, rel=1e-8)
        groups = {q.quadrat_id: q.transect_id for q in quads}
        preds, tau, _ = select_predictions(got, cfg, groups)
        want, want_tau, _ = select_predictions(expected, cfg, groups)
        assert preds == want and math.isclose(tau, want_tau, rel_tol=1e-8)

    @staticmethod
    def grids_computed(monkeypatch):
        """The (level, rows) of each pipeline.head_logits call from now on."""
        calls = []

        def spy(model, level, rows, memo=None):
            calls.append((level, len(rows)))
            return head_logits(model, level, rows, memo)

        monkeypatch.setattr(pipeline, "head_logits", spy)
        return calls

    def test_runs_at_two_overlaps_share_one_cache(self, noisy_world, monkeypatch):
        # One cache, run at overlap 0, then 0.3, then 0 again: the overlap
        # is part of each grid's key, so the second run computes its own
        # grids beside the first run's, and the third computes none.
        tax, quads, registry = noisy_world
        models = two_models(registry)
        cfg0, cfg3 = (
            RunConfig(scales=(2, 3), crop_fracs=(0.0, 0.10), overlap_frac=f, kernel_w=0.5)
            for f in (0.0, 0.3)
        )
        cache = LogitCache()
        first = infer_corpus(quads, cfg0, tax, models, cache)
        grids = len(quads) * 2 * 2 * 2 * 3  # crops x scales x models x levels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = infer_corpus(quads, cfg3, tax, models, cache)
            assert got == infer_corpus(quads, cfg3, tax, models, LogitCache())
            assert len(cache._data) == 2 * grids
            calls = self.grids_computed(monkeypatch)
            assert infer_corpus(quads, cfg0, tax, models, cache) == first
            assert infer_corpus(quads, cfg3, tax, models, cache) == got
        assert calls == []

    def test_library_cache_saved_at_one_overlap_serves_another(self, tmp_path, monkeypatch):
        # A cache filled at overlap 0.3, saved, then loaded without a
        # fingerprint and run at 0.0 gives the fresh-cache result, with no
        # warning; back at 0.3 it computes no grid.
        tax, quads, registry = gen_world(SynthConfig(
            40, 10, 4, n_quadrats=8, grid_cells=20, feature_dim=48, noise_sigma=0.8,
            patch_align=4, seed=3,
        ))
        models = default_models(registry)
        cfg3, cfg0 = (RunConfig(scales=(3, 4), overlap_frac=f) for f in (0.3, 0.0))
        path = tmp_path / "cache.bin"
        cache = LogitCache(path)
        at_03 = infer_corpus(quads, cfg3, tax, models, cache)
        cache.save()
        fresh = infer_corpus(quads, cfg0, tax, models)
        assert all(a.entries != b.entries for a, b in zip(fresh, at_03))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = LogitCache.load(path)
            assert infer_corpus(quads, cfg0, tax, models, loaded) == fresh
            calls = self.grids_computed(monkeypatch)
            assert infer_corpus(quads, cfg3, tax, models, loaded) == at_03
        assert calls == []
        assert run(quads, cfg0, tax, models, cache=loaded) == run(quads, cfg0, tax, models)

    def test_featureless_quadrats_run_from_cache(self, world, tmp_path):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(3,), crop_fracs=(0.0,))
        cache = LogitCache(tmp_path / "cache.csv")
        expected = [infer_quadrat(q, cfg, tax, models, cache) for q in quads]
        stubs = [
            Quadrat(q.quadrat_id, q.transect_id, q.grid_cells, None) for q in quads
        ]
        again = [infer_quadrat(s, cfg, tax, models, cache) for s in stubs]
        for a, b in zip(expected, again):
            assert a.entries == b.entries

    def test_cached_row_of_wrong_length_fails(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        cfg = RunConfig(scales=(2, 3), selection=SelectionConfig(channel="raw"))
        cache = LogitCache()
        infer_quadrat(quads[0], cfg, tax, models, cache)
        key = (models[0].model_id, quads[0].quadrat_id, "0", 0.0, 2, "species")
        with pytest.raises(ShapeError):
            cache.put(key, cache.get(key)[:-1])  # a row short of the 2 x 2 grid
        cache.put(key, cache.get(key)[:, :-1])
        with pytest.raises(ShapeError):
            infer_quadrat(quads[0], cfg, tax, models, cache)

    def test_one_grid_block_is_the_cached_read_only_block(self, world):
        tax, quads, registry = world
        model = default_models(registry)[0]
        region = Rect(0, 0, quads[0].grid_cells, quads[0].grid_cells)

        def pooled(scales):
            return lambda: pipeline._pooled(quads[0], region, scales, 0.0)

        cache = LogitCache()
        one = pipeline._logit_block(
            model, "species", quads[0], "0", 0.0, [2], cache, pooled([2]), {}
        )
        assert one is cache.get((model.model_id, quads[0].quadrat_id, "0", 0.0, 2, "species"))
        with pytest.raises(ValueError, match="read-only"):
            one[0, 0] = 0.0
        two = pipeline._logit_block(
            model, "species", quads[0], "0", 0.0, [2, 3], cache, pooled([2, 3]), {}
        )
        assert two.flags.writeable and two[:4].tobytes() == one.tobytes()

    def test_cached_grids_of_a_scale_too_large_still_fail(self, world):
        # a warm cache builds no tile grid, but a scale must still fit the crop
        tax, quads, registry = world
        models = default_models(registry)
        cache = LogitCache()
        for model in models:
            for level in LEVELS:
                if model.head_for(level) is not None:
                    key = (model.model_id, quads[0].quadrat_id, "25", 0.0, 11, level)
                    cache.put(key, np.zeros((121, 3)))
        cfg = RunConfig(scales=(11,), crop_fracs=(0.25,))
        with pytest.raises(GeometryError, match="^scale 11 too large for 10x10 region$"):
            infer_quadrat(quads[0], cfg, tax, models, cache)

    def test_featureless_quadrat_without_cache_fails(self, world):
        tax, quads, registry = world
        models = default_models(registry)
        stub = Quadrat("qX", "t0", 20, None)
        with pytest.raises(QuadfloraError, match="no features"):
            infer_quadrat(stub, RunConfig(scales=(2,)), tax, models)


class TestSharedFirstLayer:
    """Heads whose first layers are bit-equal share one product per grid."""

    SELECTION = HeadSelection("lin1", "mlp2", "mlp2")

    @staticmethod
    def hidden_calls(monkeypatch):
        """The row count of each TwoLayerHead.hidden call from now on."""
        calls = []
        hidden = TwoLayerHead.hidden

        def spy(head, f):
            calls.append(len(f))
            return hidden(head, f)

        monkeypatch.setattr(TwoLayerHead, "hidden", spy)
        return calls

    @pytest.mark.parametrize("scale", [4, 5])
    def test_shared_heads_keep_their_own_bits(self, noisy_world, scale):
        _, quads, registry = noisy_world
        model = compose_model(registry, self.SELECTION)
        genus, family = registry.get("genus", "mlp2"), registry.get("family", "mlp2")
        assert model.family_head.w1 is model.genus_head.w1 is genus.w1
        assert model.family_head.b1 is model.genus_head.b1 is genus.b1
        assert model.family_head.w2 is family.w2 and model.family_head.b2 is family.b2
        f = pipeline._pooled(quads[0], Rect(0, 0, 20, 20), [scale], 0.0)
        assert len(f) == scale * scale  # T = 16 and T = 25
        memo = {}
        for level, head_id in self.SELECTION.heads():
            got = head_logits(model, level, f, memo)
            assert got.tobytes() == registry.get(level, head_id).apply(f).tobytes(), level
        assert len(memo) == 1

    def test_one_hidden_product_per_grid(self, noisy_world, monkeypatch):
        tax, quads, registry = noisy_world
        calls = self.hidden_calls(monkeypatch)
        cfg = RunConfig(scales=(4, 5), crop_fracs=(0.0, 0.10))
        infer_quadrat(quads[0], cfg, tax, two_models(registry))
        # one per (crop, scale) grid, where the genus and family heads ran one each
        assert sorted(calls) == [16, 16, 25, 25]

    @pytest.mark.parametrize("change", ["signed zero in b1", "w1 one ulp off", "same NaN in w1"])
    def test_other_bits_are_not_shared(self, noisy_world, monkeypatch, change):
        _, quads, registry = noisy_world
        genus, family = registry.get("genus", "mlp2"), registry.get("family", "mlp2")
        w1, b1 = family.w1.copy(), family.b1.copy()
        if change == "signed zero in b1":
            w1 = genus.w1  # the very same w1: the memo tells heads apart by b1 too
            assert b1[3] == 0.0 and not np.signbit(b1[3])
            b1[3] = -0.0
        elif change == "w1 one ulp off":
            w1[1, 2] = np.nextafter(w1[1, 2], np.inf)
        else:
            w1[1, 2] = np.nan
            genus = dataclasses.replace(genus, w1=w1.copy())
        family = dataclasses.replace(family, w1=w1, b1=b1)
        heads = {**registry.heads, "genus": {"mlp2": genus}, "family": {"mlp2": family}}
        model = compose_model(HeadRegistry(heads=heads), self.SELECTION)
        assert model.family_head.w1 is w1 and model.family_head.b1 is b1
        f = pipeline._pooled(quads[0], Rect(0, 0, 20, 20), [4], 0.0)
        want = {level: model.head_for(level).apply(f).tobytes() for level in ("genus", "family")}
        calls = self.hidden_calls(monkeypatch)
        memo = {}
        for level in ("genus", "family"):
            got = head_logits(model, level, f, memo)
            if change != "same NaN in w1":
                assert got.tobytes() == want[level], level
        assert calls == [16, 16]

    def test_composing_leaves_the_registry_as_it_was(self, noisy_world, tmp_path):
        _, _, registry = noisy_world
        write_head_registry(registry, tmp_path / "before.csv")
        arrays = {
            (level, head_id): [id(a) for a in vars(head).values()]
            for level, heads in registry.heads.items()
            for head_id, head in heads.items()
        }
        first, second = (compose_model(registry, self.SELECTION) for _ in range(2))
        for level in LEVELS:
            a, b = vars(first.head_for(level)), vars(second.head_for(level))
            assert a.keys() == b.keys() and all(a[k] is b[k] for k in a)
        assert arrays == {
            (level, head_id): [id(a) for a in vars(head).values()]
            for level, heads in registry.heads.items()
            for head_id, head in heads.items()
        }
        assert registry.get("family", "mlp2").w1 is not registry.get("genus", "mlp2").w1
        write_head_registry(registry, tmp_path / "after.csv")
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()

    @pytest.mark.parametrize("missing", ["genus", "family"])
    def test_a_missing_level_is_filled_with_the_cold_bits(self, noisy_world, missing):
        tax, quads, registry = noisy_world
        models = two_models(registry)
        cfg = RunConfig(scales=(4, 5), crop_fracs=(0.0, 0.10), kernel_w=0.5)
        cold = LogitCache()
        expected = infer_corpus(quads, cfg, tax, models, cold)
        partial = LogitCache()
        for key, block in cold._data.items():
            if key[5] != missing:
                partial.put(key, block)
        assert infer_corpus(quads, cfg, tax, models, partial) == expected
        assert partial._data.keys() == cold._data.keys()
        for key, block in cold._data.items():
            assert partial.get(key).tobytes() == block.tobytes(), key


class TestRunConfig:
    def test_requires_scales(self):
        with pytest.raises(ConfigError):
            RunConfig(scales=())

    def test_validates_crop(self):
        with pytest.raises(ConfigError):
            RunConfig(scales=(2,), crop_fracs=(0.4,))

    def test_crop_needs_at_most_9_significant_digits(self):
        # 0.0999999999999 crops otherwise than 0.1, but its cache key is 10 too
        assert crop_key(0.0999999999999) == crop_key(0.1)
        with pytest.raises(ConfigError, match="more than 9 significant digits"):
            RunConfig(scales=(2,), crop_fracs=(0.1, 0.0999999999999))
        assert RunConfig(scales=(2,), crop_fracs=(0.123456789, 0.25)).crop_fracs[0] == 0.123456789

    def test_validates_kernel(self):
        with pytest.raises(ConfigError):
            RunConfig(scales=(2,), kernel_w=-1.0)

    def test_validates_overlap(self):
        with pytest.raises(ConfigError):
            RunConfig(scales=(2,), overlap_frac=0.7)
