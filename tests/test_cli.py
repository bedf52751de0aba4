import base64
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cache_file
import per_tile
import quadflora
from quadflora import formats
from quadflora._util import fmt9_array
from quadflora.cli import main
from quadflora.synthworld import LEVELS

SRC = str(Path(quadflora.__file__).resolve().parents[1])

GEN_CFG = """\
# small noiseless world with purity-aligned patches
n_species = 30
n_genera = 8
n_families = 3
n_quadrats = 6
quadrats_per_transect = 3
grid_cells = 20
feature_dim = 16
noise_sigma = 0
richness_min = 3
richness_max = 4
patch_align = 4
seed = 7
"""

RUN_CFG = """\
scales = 4,5
crop_fracs = 0
models = lin1+mlp2+mlp2
target_mean_len = 3.0
max_len = 9
"""


@pytest.fixture
def gen_dir(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CFG)
    out = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def run_cfg_file(tmp_path, text=RUN_CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def assert_cli_error(*args):
    """Run the CLI in a fresh interpreter; it must fail with exit 2 and
    exactly one error line, without a traceback."""
    pythonpath = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-m", "quadflora.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1
    return proc.stderr


class TestGen:
    def test_writes_expected_files(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG)
        out_dir = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out_dir)]) == 0
        for name in ("taxonomy.csv", "groundtruth.csv", "quadrats.csv", "heads.csv"):
            assert (out_dir / name).exists()
        out = capsys.readouterr().out
        assert "30 species" in out and "6 quadrats" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["gen", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("taxonomy.csv", "groundtruth.csv", "quadrats.csv", "heads.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG.replace("n_genera = 8", "n_genera = 99"))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", str(cfg), "--out", str(a), "--seed", "9"]) == 0
        assert main(["gen", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "quadrats.csv").read_bytes() != (b / "quadrats.csv").read_bytes()


class TestInfer:
    def test_submission_covers_every_quadrat_once(self, gen_dir, tmp_path):
        cfg = run_cfg_file(tmp_path)
        sub = tmp_path / "submission.csv"
        assert main(
            ["infer", "--config", str(cfg), "--data", str(gen_dir), "--out", str(sub)]
        ) == 0
        lines = sub.read_text().splitlines()
        assert lines[0] == "quadrat_id,species_ids"
        qids = [line.split(",")[0] for line in lines[1:]]
        assert qids == sorted(qids) and len(set(qids)) == len(qids) == 6
        assert (gen_dir / "logit_cache.csv").exists()

    def test_warm_cache_rerun_identical(self, gen_dir, tmp_path):
        cfg = run_cfg_file(tmp_path)
        first, second = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(
            ["infer", "--config", str(cfg), "--data", str(gen_dir), "--out", str(first)]
        ) == 0
        assert main(
            ["infer", "--config", str(cfg), "--data", str(gen_dir), "--out", str(second)]
        ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_contradictory_thresholds_exit_2(self, gen_dir, tmp_path, capsys):
        cfg = run_cfg_file(tmp_path, RUN_CFG + "min_logit = 0.02\n")
        code = main(
            ["infer", "--config", str(cfg), "--data", str(gen_dir),
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_data_dir_exit_2(self, tmp_path, capsys):
        cfg = run_cfg_file(tmp_path)
        code = main(
            ["infer", "--config", str(cfg), "--data", str(tmp_path / "nope"),
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_table_style_static_threshold_config(self, gen_dir, tmp_path):
        # a raw-channel static threshold with capped length is accepted verbatim
        cfg = run_cfg_file(
            tmp_path,
            "scales = 4,5\ncrop_fracs = 0.10\nmodels = lin1+mlp2+mlp2\n"
            "min_logit = 0.02\nmax_len = 10\nchannel = raw\n",
        )
        sub = tmp_path / "s.csv"
        assert main(
            ["infer", "--config", str(cfg), "--data", str(gen_dir), "--out", str(sub)]
        ) == 0
        assert sub.exists()

    def test_retired_bisect_iters_warns_once(self, gen_dir, tmp_path, capsys):
        # bisect_iters and seed: each retired key warns once and changes nothing
        plain = run_cfg_file(tmp_path)
        retired = tmp_path / "retired.cfg"
        retired.write_text(RUN_CFG + "bisect_iters = 64\nseed = 5\n")
        outputs = {}
        for cfg in (plain, retired):
            sub = tmp_path / f"{cfg.stem}.csv"
            sweep = tmp_path / f"{cfg.stem}.sweep.csv"
            assert main(
                ["infer", "--config", str(cfg), "--data", str(gen_dir), "--out", str(sub)]
            ) == 0
            infer = capsys.readouterr()
            assert main(
                ["sweep", "--config", str(cfg), "--data", str(gen_dir),
                 "--targets", "2.0,3.0", "--out", str(sweep)]
            ) == 0
            swept = capsys.readouterr()
            outputs[cfg.stem] = (sub.read_bytes(), sweep.read_bytes(), infer, swept)
        assert outputs["retired"][:2] == outputs["run"][:2]
        for captured in outputs["retired"][2:]:
            warned = [line for line in captured.err.splitlines() if line.startswith("warning:")]
            assert len(warned) == 2
            assert warned[0].startswith("warning: bisect_iters is ignored")
            assert warned[1].startswith("warning: seed is ignored")
        assert all(captured.err == "" for captured in outputs["run"][2:])


def infer_argv(cfg, data, out, *extra):
    return ["infer", "--config", str(cfg), "--data", str(data), "--out", str(out), *extra]


def test_readme_configs_run(tmp_path, capsys):
    # README's generator and run blocks, as written, and with the run
    # block's kernel_w line enabled at the target README gives for it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    gen, run_block = re.findall(r"```ini\n(.*?)```", readme, re.S)
    target = re.search(r"^# kernel_w = .*?(target_mean_len = [\d.]+)", run_block, re.S | re.M)
    kernel = re.sub(r"^target_mean_len = \S+", target.group(1), run_block, flags=re.M)
    kernel = kernel.replace("# kernel_w =", "kernel_w =")
    assert "\nkernel_w = " in kernel and kernel.count("target_mean_len") == 2
    (tmp_path / "gen.cfg").write_text(gen)
    data = tmp_path / "data"
    assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(data)]) == 0
    for name, text in (("readme", run_block), ("kernel", kernel)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert main(infer_argv(cfg, data, tmp_path / f"{name}.csv")) == 0, capsys.readouterr().err


def fresh_cache_submission(tmp_path, cfg, data, name="fresh"):
    """The submission of a run that starts from an empty logit cache."""
    out = tmp_path / f"{name}.csv"
    cache = tmp_path / f"{name}-cache" / "logit_cache.csv"
    cache.parent.mkdir()
    assert main(infer_argv(cfg, data, out, "--cache", str(cache))) == 0
    return out.read_bytes()


def old_model_digest(registry, model_id):
    """The sha256 of a model's head arrays that sidecar versions 1 to 3
    recorded per model."""
    sha = hashlib.sha256()
    for level, head_id in zip(LEVELS, model_id.split("+")):
        head = None if head_id == "-" else registry.get(level, head_id)
        sha.update(f"{level}:{type(head).__name__}\n".encode())
        if head is not None:
            for param, array in sorted(formats._head_params(head).items()):
                sha.update(f"{param}{array.shape}\n".encode())
                sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()


NOT_A_FINGERPRINT = f"its first line is not a format {formats.CACHE_VERSION} fingerprint"


def sidecar_path(cache) -> Path:
    """Where cache formats 1 to 5 kept their JSON fingerprint."""
    return Path(str(cache) + ".fingerprint")


def write_old_format(cache, features, version):
    """Rewrite the cache as format version 1 to 5 wrote it: a text file
    beside its JSON sidecar, sidecar_path(cache).

    The sidecar holds the record of the cache's header line, with the
    sha256 of the text file as cache_sha256. Versions 1 to 3: per model
    the sha256 of its head arrays, in place of the per-head line records.
    Version 1: no BLAS record, and per quadrat the sha256 of its metadata
    and of its rows rejoined without their line ends. The text holds
    '%.9g' values, one row per tile and level (1, 2) or one line per grid
    (3, 4), or one line per grid of base64 float64 bytes (5).
    """
    blocks = formats.LogitCache.load(cache)
    record = cache_file.parts(cache.read_bytes())[0]
    del record["sha256"]
    if version < 4:
        registry = formats.load_head_registry(features.with_name("heads.csv"))
        del record["heads"]
        record["models"] = {
            model_id: old_model_digest(registry, model_id)
            for model_id in {key[0] for key in blocks._data}
        }
    if version == 1:
        digests = {}
        for line in features.read_text().splitlines()[1:]:
            qid, tid, grid, dim, r, c, values = line.split(",")
            if qid not in digests:
                digests[qid] = hashlib.sha256(f"{tid!r},{grid},{dim}\n".encode())
            digests[qid].update(f"{r},{c},{values}\n".encode())
        del record["blas"]
        record["quadrats"] = {qid: sha.hexdigest() for qid, sha in digests.items()}
    if version <= 2:
        header = "model_id,quadrat_id,crop_pct,scale,row,col,level,values\n"
        rows = per_tile.cache_rows(blocks)
    else:
        header = "model_id,quadrat_id,crop_pct,scale,level,values"
        header += "_f64le_b64\n" if version == 5 else "\n"
        rows = blocks._data
    rows = sorted((key[:3] + key[4:], values) for key, values in rows.items())  # no overlap

    def field(values):
        if version == 5:
            return base64.b64encode(values.astype("<f8").tobytes()).decode()
        return ";".join(fmt9_array(values))

    lines = (",".join(map(str, key)) + "," + field(values) + "\n" for key, values in rows)
    cache.write_text(header + "".join(lines))
    record["cache_sha256"] = hashlib.sha256(cache.read_bytes()).hexdigest()
    record["version"] = version
    sidecar_path(cache).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def edit_head_value(path, prefix):
    """Set the first value of the first line that starts with prefix to 0.125."""
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    head, values = lines[i].rsplit(",", 1)
    lines[i] = head + ",0.125;" + values.split(";", 1)[1]
    path.write_text("".join(lines))


def file_states(*paths):
    return [(p.read_bytes(), os.stat(p).st_ino, os.stat(p).st_mtime_ns) for p in paths]


class TestCacheFingerprint:
    def test_regenerated_corpus_gets_fresh_logits(self, tmp_path, capsys):
        # gen seed 1 -> infer -> gen seed 2 into the same directory -> infer
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_CFG)
        data = tmp_path / "data"
        cfg = run_cfg_file(tmp_path)
        for seed in ("1", "2"):
            assert main(["gen", "--config", str(gen_cfg), "--out", str(data), "--seed", seed]) == 0
            capsys.readouterr()
            assert main(infer_argv(cfg, data, tmp_path / f"seed{seed}.csv")) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: logit cache")
        assert (tmp_path / "seed2.csv").read_bytes() == fresh_cache_submission(tmp_path, cfg, data)

    @pytest.mark.parametrize(
        "change",
        [
            "sidecar_deleted", "sidecar_version_1", "previous_format", "sidecar_version_3",
            "sidecar_version_4", "format_5", "binary_format_6", "saved_without_fingerprint",
            "other_version", "cache_edited", "heads_regenerated", "used_head_edited",
            "features_regenerated",
        ],
    )
    def test_stale_cache_is_dropped(self, gen_dir, tmp_path, capsys, change):
        # Old caches are text files of formats 1 to 5 beside a sidecar, or
        # (sidecar_deleted) a format-5 text file whose sidecar is gone, or
        # binary files of format 6, whose index names no overlap.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        old_format = change.startswith(("sidecar", "previous", "format"))
        if change == "sidecar_deleted":
            write_old_format(cache, gen_dir / "quadrats.csv", 5)
            os.remove(sidecar_path(cache))
        elif old_format:
            version = 2 if change == "previous_format" else int(change[-1])
            write_old_format(cache, gen_dir / "quadrats.csv", version)
        elif change == "saved_without_fingerprint":  # as a library run saves it
            loaded = formats.LogitCache.load(cache)
            loaded._dirty = True
            loaded.save()
        elif change == "binary_format_6":  # overlap_frac in the header, not in the keys
            header, index, values = cache_file.parts(cache.read_bytes())
            header.update(version=6, overlap_frac=0.0)
            index = [entry[:3] + entry[4:] for entry in index]
            cache.write_bytes(cache_file.build(header, index, values))
        elif change == "other_version":  # this layout, its sha256 vouching for it
            header, index, values = cache_file.parts(cache.read_bytes())
            version = formats.CACHE_VERSION + 1  # neither 6 nor 7
            cache.write_bytes(cache_file.build({**header, "version": version}, index, values))
        elif change == "cache_edited":
            header, index, values = cache_file.parts(cache.read_bytes())
            cache.write_bytes(cache_file.build(header, index, bytes(len(values)), vouched=False))
        elif change == "used_head_edited":
            edit_head_value(gen_dir / "heads.csv", "genus,mlp2,w2,")
        else:
            gen_cfg = tmp_path / "gen.cfg"
            gen_cfg.write_text(GEN_CFG)
            other = tmp_path / "other"
            assert main(["gen", "--config", str(gen_cfg), "--out", str(other), "--seed", "8"]) == 0
            name = "heads.csv" if change == "heads_regenerated" else "quadrats.csv"
            (gen_dir / name).write_bytes((other / name).read_bytes())
        capsys.readouterr()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        warned = capsys.readouterr().err.splitlines()
        assert len(warned) == 1 and warned[0].startswith(f"warning: logit cache {cache}")
        if old_format or change in (
            "binary_format_6", "saved_without_fingerprint", "other_version"
        ):
            assert warned[0].endswith(NOT_A_FINGERPRINT)
        if change == "cache_edited":
            assert warned[0].endswith("not used: it was changed after it was written")
        if change == "used_head_edited":
            assert re.search(r": dropped (\d+) of \1 grids \(\1 for changed heads\)$", warned[0])
        sidecar = sidecar_path(cache).read_bytes() if sidecar_path(cache).exists() else None
        fresh = fresh_cache_submission(tmp_path, cfg, gen_dir)
        assert (tmp_path / "warm.csv").read_bytes() == fresh
        assert cache.read_bytes() == (tmp_path / "fresh-cache" / "logit_cache.csv").read_bytes()
        # a sidecar is neither written nor removed
        assert not sidecar_path(tmp_path / "fresh-cache" / "logit_cache.csv").exists()
        assert (sidecar is not None) == (old_format and change != "sidecar_deleted")
        # the rewritten cache is trusted by the next run
        assert main(infer_argv(cfg, gen_dir, tmp_path / "again.csv")) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()

    def test_overlap_change_keeps_the_cache(self, gen_dir, tmp_path, capsys):
        # A run at another overlap_frac computes its own grids beside the
        # cached ones, with no warning; runs back at either overlap then
        # read every grid, and leave the cache file's bytes and mtime alone.
        cfg0 = run_cfg_file(tmp_path)
        cfg25 = tmp_path / "run25.cfg"
        cfg25.write_text(RUN_CFG + "overlap_frac = 0.25\n")
        assert main(infer_argv(cfg0, gen_dir, tmp_path / "cold.csv")) == 0
        capsys.readouterr()
        assert main(infer_argv(cfg25, gen_dir, tmp_path / "at25.csv")) == 0
        assert capsys.readouterr().err == ""
        fresh = fresh_cache_submission(tmp_path, cfg25, gen_dir)
        assert (tmp_path / "at25.csv").read_bytes() == fresh
        cache = gen_dir / "logit_cache.csv"
        before = file_states(cache)
        for cfg, want in ((cfg0, "cold.csv"), (cfg25, "at25.csv")):
            capsys.readouterr()
            assert main(infer_argv(cfg, gen_dir, tmp_path / "again.csv")) == 0
            assert capsys.readouterr().err == ""
            assert (tmp_path / "again.csv").read_bytes() == (tmp_path / want).read_bytes()
            assert file_states(cache) == before

    def old_text_cache_is_rewritten(self, gen_dir, tmp_path, capsys, version):
        """An old text cache beside its sidecar: infer and sweep drop it
        with one warning, recompute and write the cache anew, and leave the
        sidecar as it was; loaded without a fingerprint, it is one
        FormatError naming the file."""
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        written = cache.read_bytes()
        sweep = ["sweep", "--config", str(cfg), "--data", str(gen_dir), "--targets", "2,3"]
        for argv in (infer_argv(cfg, gen_dir, tmp_path / "warm.csv"),
                     sweep + ["--out", str(tmp_path / "sweep.csv")]):
            write_old_format(cache, gen_dir / "quadrats.csv", version)
            sidecar = file_states(sidecar_path(cache))
            bad_index = f"^{re.escape(str(cache))}: bad grid index$"
            with pytest.raises(formats.FormatError, match=bad_index):
                formats.LogitCache.load(cache)
            capsys.readouterr()
            assert main(argv) == 0
            warned = capsys.readouterr().err.splitlines()
            assert warned == [f"warning: logit cache {cache} not used: {NOT_A_FINGERPRINT}"]
            assert cache.read_bytes() == written
            assert file_states(sidecar_path(cache)) == sidecar
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        assert main(sweep + ["--out", str(tmp_path / "again.csv")]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_text_cache_of_format_4(self, gen_dir, tmp_path, capsys):
        # The 9-digit text cache of format 4, one line per grid.
        self.old_text_cache_is_rewritten(gen_dir, tmp_path, capsys, 4)

    def test_text_cache_of_format_5(self, gen_dir, tmp_path, capsys):
        # The base64 text cache of format 5, the last one with a sidecar.
        self.old_text_cache_is_rewritten(gen_dir, tmp_path, capsys, 5)

    def test_leftover_sidecar_is_never_read_or_written(self, gen_dir, tmp_path, capsys):
        # A <cache>.fingerprint of format 5 that vouches for other bytes, or
        # one that is not JSON: infer and sweep read neither, keep the cache
        # and leave the file as it was.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        assert not sidecar_path(cache).exists()
        written = cache.read_bytes()
        write_old_format(cache, gen_dir / "quadrats.csv", 5)
        cache.write_bytes(written)
        sweep = ["sweep", "--config", str(cfg), "--data", str(gen_dir), "--targets", "2,3"]
        for leftover in (sidecar_path(cache).read_bytes(), b"{not json"):
            sidecar_path(cache).write_bytes(leftover)
            before = file_states(cache, sidecar_path(cache))
            capsys.readouterr()
            assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
            assert main(sweep + ["--out", str(tmp_path / "sweep.csv")]) == 0
            assert capsys.readouterr().err == ""
            assert file_states(cache, sidecar_path(cache)) == before
            assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

    def test_stale_sidecar_without_cache_vouches_for_nothing(self, gen_dir, tmp_path, monkeypatch):
        # A deleted cache, as the benchmark's cold passes leave it, next to
        # a leftover sidecar whose records match the files: every feature
        # line is checked, and every used head parsed, at load.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        assert all(formats.cache_records(cache).values())
        write_old_format(cache, gen_dir / "quadrats.csv", 5)
        leftover = sidecar_path(cache).read_bytes()
        os.remove(cache)
        assert formats.cache_records(cache) == {"heads": {}, "quadrats": {}}
        at_load = {}
        load_features, load_heads = formats.load_quadrat_features, formats.load_head_registry

        def features_at_load(*args):
            quadrats = load_features(*args)
            at_load["unchecked"] = [q.load_cells.span is not None for q in quadrats]
            return quadrats

        def heads_at_load(*args):
            registry = load_heads(*args)
            at_load["heads"] = [h for by_id in registry.heads.values() for h in by_id.values()]
            return registry

        monkeypatch.setattr(formats, "load_quadrat_features", features_at_load)
        monkeypatch.setattr(formats, "load_head_registry", heads_at_load)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "again.csv")) == 0
        assert at_load["unchecked"] and not any(at_load["unchecked"])
        assert len(at_load["heads"]) == 3
        assert not any(isinstance(h, formats._RecordedHead) for h in at_load["heads"])
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        assert sidecar_path(cache).read_bytes() == leftover

    def test_library_load_keeps_every_grid_whatever_the_sidecar(self, gen_dir, tmp_path):
        # A load without a fingerprint reads neither the header line, the
        # fingerprint that the sidecar used to hold, nor a leftover sidecar:
        # a last grid dropped, with the header's sha256 and a sidecar's
        # cache_sha256 now stale, every other grid is kept.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        cold = formats.LogitCache.load(cache)
        header, index, values = cache_file.parts(cache.read_bytes())
        *_, rows, cols = index.pop()
        values = values[: -8 * rows * cols]
        cache.write_bytes(cache_file.build(header, index, values, vouched=False))
        sidecar_path(cache).write_text('{"cache_sha256": "0", "version": 5}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = formats.LogitCache.load(cache)
        keys = [tuple(entry[:6]) for entry in index]
        assert len(keys) > 1 and sorted(loaded._data) == keys
        for key in keys:
            np.testing.assert_array_equal(loaded.get(key), cold.get(key))

    def test_bad_feature_value_after_cold_run_fails(self, gen_dir, tmp_path):
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        written = cache.read_bytes()
        features = gen_dir / "quadrats.csv"
        lines = features.read_text().splitlines(keepends=True)
        head, values = lines[7].rsplit(",", 1)
        lines[7] = head + ",nan;" + values.split(";", 1)[1]
        features.write_text("".join(lines))
        out = tmp_path / "warm.csv"
        err = assert_cli_error(*infer_argv(cfg, gen_dir, out))
        assert f"error: {features}:8: non-finite value" in err
        assert not out.exists()
        assert cache.read_bytes() == written

    def test_warm_run_parses_no_features_and_writes_nothing(
        self, gen_dir, tmp_path, monkeypatch, capsys
    ):
        from quadflora import pipeline

        parsed, heads, read = [], [], []
        parse_block, head_logits = formats._parse_block, pipeline.head_logits

        def counting_parse(path, linenos, fields):
            parsed.extend(f"{path}:{lineno}" for lineno in linenos)
            return parse_block(path, linenos, fields)

        def counting_heads(*args):
            heads.append(args[1])
            return head_logits(*args)

        monkeypatch.setattr(formats, "_parse_block", counting_parse)
        monkeypatch.setattr(pipeline, "head_logits", counting_heads)
        # formats' one row reader: a file not read through it had no line
        # checked
        read_row_lines = formats.read_row_lines

        def counting_reader(path, *args):
            read.append(str(path))
            return read_row_lines(path, *args)

        monkeypatch.setattr(formats, "read_row_lines", counting_reader)
        # tile grids, and the quadrats whose tiles were pooled
        grids, pooled = [], set()
        tile_grid, tile_features = pipeline.tile_grid, pipeline.tile_features

        def counting_grid(*args):
            grids.append(args)
            return tile_grid(*args)

        def counting_pool(quadrat, tile):
            pooled.add(quadrat.quadrat_id)
            return tile_features(quadrat, tile)

        monkeypatch.setattr(pipeline, "tile_grid", counting_grid)
        monkeypatch.setattr(pipeline, "tile_features", counting_pool)
        features = str(gen_dir / "quadrats.csv")
        # the rows of heads the run's models (lin1+mlp2+mlp2) do not use
        heads_csv = gen_dir / "heads.csv"
        used = {("species", "lin1"), ("genus", "mlp2"), ("family", "mlp2")}
        unused_rows = {
            f"{heads_csv}:{lineno}"
            for lineno, line in enumerate(heads_csv.read_text().splitlines()[1:], start=2)
            if tuple(line.split(",")[:2]) not in used
        }
        assert unused_rows
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        assert any(where.startswith(features + ":") for where in parsed) and heads
        assert features in read and not unused_rows & set(parsed)
        qids = sorted({line.split(",")[0] for line in open(features).readlines()[1:]})
        assert len(grids) == 2 * len(qids) and pooled == set(qids)  # scales 4 and 5
        files = [gen_dir / "logit_cache.csv"]
        assert not sidecar_path(files[0]).exists()
        stats = [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in files]
        for seen in (parsed, heads, read, grids, pooled):
            seen.clear()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        assert parsed == []  # no feature or head value
        assert heads == []
        assert features not in read and not unused_rows & set(parsed)
        assert str(heads_csv) not in read  # no heads.csv line checked either
        assert grids == [] and pooled == set()
        assert [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in files] == stats
        assert not sidecar_path(files[0]).exists()
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        # one quadrat's features changed: its grids alone miss the cache
        edit_head_value(gen_dir / "quadrats.csv", f"{qids[1]},")
        capsys.readouterr()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "edited.csv")) == 0
        assert "dropped 6 of 36 grids (6 for changed features)" in capsys.readouterr().err
        assert len(grids) == 2 and pooled == {qids[1]}

    @pytest.mark.parametrize(
        "prefix, dropped",
        [("genus,lin1,w,", 36), ("family,mlp2,w1,", 72), ("species,lin1h,w,", 0)],
        ids=["other_model", "both_models", "neither_model"],
    )
    def test_edited_head_drops_the_grids_of_every_model_that_uses_it(
        self, gen_dir, tmp_path, capsys, prefix, dropped
    ):
        # Grids of two models (36 each), then one head edited: the next run,
        # of the first model alone, drops the grids of every model that uses
        # the head with one warning, whether it runs that model or not, and
        # renews the head's record; the second model's next run keeps what
        # is left and equals a fresh-cache run.
        first = run_cfg_file(tmp_path)
        second = tmp_path / "second.cfg"
        second.write_text(RUN_CFG.replace("lin1+mlp2+mlp2", "lin1c+lin1+mlp2"))
        both = tmp_path / "both.cfg"
        both.write_text(RUN_CFG.replace("lin1+mlp2+mlp2", "lin1+mlp2+mlp2,lin1c+lin1+mlp2"))
        assert main(infer_argv(both, gen_dir, tmp_path / "both.csv")) == 0
        cache, heads = gen_dir / "logit_cache.csv", gen_dir / "heads.csv"
        old = formats.cache_records(cache)["heads"]
        edit_head_value(heads, prefix)
        capsys.readouterr()
        assert main(infer_argv(first, gen_dir, tmp_path / "first.csv")) == 0
        warned = f"warning: logit cache {cache}: dropped {dropped} of 72 grids "
        warned += f"({dropped} for changed heads)\n"
        assert capsys.readouterr().err == (warned if dropped else "")
        renewed = formats.cache_records(cache)["heads"]
        assert renewed == formats.load_head_registry(heads).records
        assert {name for name in old if renewed[name] != old[name]} == {
            "/".join(prefix.split(",")[:2])
        }
        assert main(infer_argv(second, gen_dir, tmp_path / "second.csv")) == 0
        assert capsys.readouterr().err == ""
        for name, cfg in (("first", first), ("second", second)):
            fresh = fresh_cache_submission(tmp_path, cfg, gen_dir, f"fresh-{name}")
            assert (tmp_path / f"{name}.csv").read_bytes() == fresh

    def test_cold_run_records_every_heads_lines(self, gen_dir, tmp_path):
        # the heads the run's models do not use included
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        lines: dict[str, bytes] = {}
        for line in (gen_dir / "heads.csv").read_bytes().splitlines(keepends=True)[1:]:
            name = b"/".join(line.split(b",")[:2]).decode()
            lines[name] = lines.get(name, b"") + line
        assert len(lines) > 3
        assert formats.cache_records(gen_dir / "logit_cache.csv")["heads"] == {
            name: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
            for name, data in lines.items()
        }

    def test_unused_head_edit_keeps_the_grids_and_rewrites_the_header_once(
        self, gen_dir, tmp_path, capsys, monkeypatch
    ):
        # The first run after the edit keeps every grid and rewrites the
        # header, whose record of the edited head it renews; the second run
        # checks no heads.csv line at load and leaves the cache as it is.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        cold_header, *cold_grids = cache_file.parts(cache.read_bytes())
        edit_head_value(gen_dir / "heads.csv", "species,lin1c,w,")
        read = []
        read_row_lines = formats.read_row_lines

        def counting_reader(path, *args):
            read.append(str(path))
            return read_row_lines(path, *args)

        monkeypatch.setattr(formats, "read_row_lines", counting_reader)
        capsys.readouterr()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        assert capsys.readouterr().err == ""
        assert str(gen_dir / "heads.csv") in read
        header, *grids = cache_file.parts(cache.read_bytes())
        assert grids == cold_grids
        renewed = {k: v for k, v in header.items() if k != "heads"}
        assert renewed == {k: v for k, v in cold_header.items() if k != "heads"}
        assert header["heads"].keys() == cold_header["heads"].keys()
        changed = {n for n, r in header["heads"].items() if r != cold_header["heads"][n]}
        assert changed == {"species/lin1c"}
        before = file_states(cache)
        read.clear()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "again.csv")) == 0
        assert capsys.readouterr().err == ""
        assert str(gen_dir / "heads.csv") not in read
        assert file_states(cache) == before
        for out in ("warm.csv", "again.csv"):
            assert (tmp_path / out).read_bytes() == (tmp_path / "cold.csv").read_bytes()

    @pytest.mark.parametrize("removed", ["quadrat", "unused_head"])
    def test_removed_lines_keep_their_record_and_grids(
        self, gen_dir, tmp_path, capsys, monkeypatch, removed
    ):
        # One quadrat's lines, or those of a head no model of the run uses,
        # taken out after a cold run and then put back: the cache keeps the
        # record, and the grids, of what the files no longer hold, so each
        # run prints no warning, checks no line of either file and leaves
        # the cache as it is.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        path = gen_dir / ("quadrats.csv" if removed == "quadrat" else "heads.csv")
        text = path.read_bytes()
        header, *rows = text.splitlines(keepends=True)
        key = rows[0].split(b",")[0] + b"," if removed == "quadrat" else b"species,lin1c,"
        kept = [row for row in rows if not row.startswith(key)]
        assert 0 < len(kept) < len(rows)
        read = []
        read_row_lines = formats.read_row_lines

        def counting_reader(path, *args):
            read.append(str(path))
            return read_row_lines(path, *args)

        monkeypatch.setattr(formats, "read_row_lines", counting_reader)
        before = file_states(cache)
        capsys.readouterr()
        for run, data in (("removed", b"".join([header, *kept])), ("restored", text)):
            path.write_bytes(data)
            assert main(infer_argv(cfg, gen_dir, tmp_path / f"{run}.csv")) == 0
            assert capsys.readouterr().err == ""
            assert read == []
            assert file_states(cache) == before
        assert (tmp_path / "restored.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

    def test_interleaved_features_keep_the_cache(self, gen_dir, tmp_path, capsys):
        # Two quadrats' lines interleaved, each in its own order, and a blank
        # line: each quadrat's lines, taken in file order, are unchanged.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        features = gen_dir / "quadrats.csv"
        header, *rows = features.read_bytes().splitlines(keepends=True)
        qids = [row.split(b",")[0] for row in rows]
        first, second = list(dict.fromkeys(qids))[:2]
        a = [row for row, qid in zip(rows, qids) if qid == first]
        b = [row for row, qid in zip(rows, qids) if qid == second]
        rest = [row for row, qid in zip(rows, qids) if qid not in (first, second)]
        mixed = [row for pair in zip(a, b) for row in pair]
        features.write_bytes(b"".join([header, *mixed[:5], b"\n", *mixed[5:], *rest]))
        files = [gen_dir / "logit_cache.csv"]
        before = file_states(*files)
        capsys.readouterr()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        assert capsys.readouterr().err == ""
        assert file_states(*files) == before
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

    def test_other_blas_warns_and_keeps_the_cache(self, gen_dir, tmp_path, capsys, monkeypatch):
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        files = [gen_dir / "logit_cache.csv"]
        assert cache_file.parts(files[0].read_bytes())[0]["blas"] == formats.blas_record()
        before = file_states(*files)
        capsys.readouterr()
        monkeypatch.setattr(formats, "blas_record", lambda: "OtherBLAS 1.0 Haswell; 64 threads")
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        warned = capsys.readouterr().err.splitlines()
        assert len(warned) == 1 and warned[0].startswith(f"warning: logit cache {files[0]}")
        assert "OtherBLAS" in warned[0]
        assert file_states(*files) == before
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def spoil_first_cell(features, qid, token="nan"):
    """Set the first value of quadrat qid's cell (0, 0), a border cell, to
    token; return the line number."""
    lines = features.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if re.match(f"{qid},[^,]*,[^,]*,[^,]*,0,0,", line))
    head, values = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{token};" + values.split(";", 1)[1]
    features.write_text("".join(lines))
    return i + 1


class TestRegionParse:
    """A cold run parses the feature cells its crops cover, and no others."""

    CROPS = ["0", "0.05", "0.15", "0.05,0.15"]

    @pytest.mark.parametrize("crops", CROPS)
    def test_equals_a_full_parse(self, gen_dir, tmp_path, monkeypatch, crops):
        # The oracle: every quadrat's cells parsed at load, whole.
        text = RUN_CFG.replace("scales = 4,5", "scales = 3,4,5").replace(
            "crop_fracs = 0", f"crop_fracs = {crops}\noverlap_frac = 0.3\nkernel_w = 0.5"
        )
        cfg = run_cfg_file(tmp_path, text)
        region = infer_argv(cfg, gen_dir, tmp_path / "region.csv", "--cache")
        assert main(region + [str(tmp_path / "region.cache")]) == 0
        load = formats.load_quadrat_features

        def parsed_whole(*args):
            quadrats = load(*args)
            for q in quadrats:
                assert np.isfinite(q.features()).all()
            return quadrats

        monkeypatch.setattr(formats, "load_quadrat_features", parsed_whole)
        whole = infer_argv(cfg, gen_dir, tmp_path / "whole.csv", "--cache")
        assert main(whole + [str(tmp_path / "whole.cache")]) == 0
        for suffix in ("csv", "cache"):
            region, whole = (tmp_path / f"{name}.{suffix}" for name in ("region", "whole"))
            assert region.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("crops", CROPS + ["0.15,0.05"])
    def test_pooled_tiles_equal_a_full_parse_and_hold_no_nan(self, gen_dir, crops):
        from quadflora import pipeline
        from quadflora.geometry import CropSpec, Rect, central_crop

        lazy = formats.load_quadrat_features(gen_dir / "quadrats.csv")
        whole = formats.load_quadrat_features(gen_dir / "quadrats.csv")
        for q, full in zip(lazy, whole):
            full.features()
            image = Rect(0, 0, q.grid_cells, q.grid_cells)
            for frac in map(float, crops.split(",")):
                region = central_crop(image, CropSpec(frac))
                pooled = pipeline._pooled(q, region, (3, 4, 5), 0.3)
                assert np.isfinite(pooled).all()
                expected = pipeline._pooled(full, region, (3, 4, 5), 0.3)
                assert pooled.tobytes() == expected.tobytes()
            cells = q.features(region)
            assert np.isnan(cells).any() == (frac > 0)  # the border is left unparsed
            assert np.isfinite(cells[region.y0 : region.y1, region.x0 : region.x1]).all()

    @pytest.mark.parametrize("vouched", [False, True])
    def test_bad_value_in_a_border_cell_fails_the_first_run_that_covers_it(
        self, gen_dir, tmp_path, vouched
    ):
        features = gen_dir / "quadrats.csv"
        qid = features.read_text().splitlines()[1].split(",")[0]
        lineno = spoil_first_cell(features, qid)
        cropped = run_cfg_file(tmp_path, RUN_CFG.replace("crop_fracs = 0", "crop_fracs = 0.10"))
        assert main(infer_argv(cropped, gen_dir, tmp_path / "cropped.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        if vouched:  # the cache's records vouch for the lines as edited
            lines = [l for l in features.read_bytes().splitlines(keepends=True)
                     if l.startswith(f"{qid},".encode())]
            assert formats.cache_records(cache)["quadrats"][qid] == {
                "bytes": len(b"".join(lines)),
                "sha256": hashlib.sha256(b"".join(lines)).hexdigest(),
            }
            written = cache.read_bytes()
        else:  # no cache: every line is checked at load
            os.remove(cache)
        whole = tmp_path / "whole.cfg"
        whole.write_text(RUN_CFG)
        out = tmp_path / "whole.csv"
        err = assert_cli_error(*infer_argv(whole, gen_dir, out))
        assert err == f"error: {features}:{lineno}: non-finite value\n"
        assert not out.exists()
        if vouched:
            assert cache.read_bytes() == written
        else:
            assert not cache.exists()

    def test_library_features_parse_and_reject_every_cell(self, gen_dir):
        from quadflora.geometry import Rect

        features = gen_dir / "quadrats.csv"
        good = formats.load_quadrat_features(features)
        lineno = spoil_first_cell(features, good[1].quadrat_id)
        whole = formats.load_quadrat_features(features)
        for a, b in zip(good, whole):
            if a.quadrat_id != good[1].quadrat_id:
                assert a.features().tobytes() == b.features().tobytes()
                assert np.isfinite(b.features()).all()
        q = whole[1]
        inner = q.features(Rect(2, 2, 18, 18))[2:18, 2:18]
        assert inner.tobytes() == good[1].features()[2:18, 2:18].tobytes()
        for _ in range(2):  # the row stays unparsed, and is rejected again
            with pytest.raises(formats.FormatError, match=f"^{features}:{lineno}: non-finite value$"):
                q.features()


class TestEval:
    def test_perfect_score(self, gen_dir, tmp_path, capsys):
        gt = gen_dir / "groundtruth.csv"
        sub = tmp_path / "sub.csv"
        rows = [line.split(",") for line in gt.read_text().splitlines()[1:]]
        sub.write_text(
            "quadrat_id,species_ids\n"
            + "".join(f"{q},{ids}\n" for q, _, ids in rows)
        )
        assert main(["eval", str(sub), str(gt)]) == 0
        out = capsys.readouterr().out
        assert "final 1.00000" in out
        report = json.loads((tmp_path / "sub.csv.report.json").read_text())
        assert report["final"] == 1.0

    def test_worked_example_three_quarters(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text(
            "quadrat_id,transect_id,species_ids\nq0,t0,1;2\nq1,t0,1\n"
        )
        sub = tmp_path / "sub.csv"
        sub.write_text("quadrat_id,species_ids\nq0,1;3\nq1,1\n")
        assert main(["eval", str(sub), str(gt)]) == 0
        out = capsys.readouterr().out
        assert "final 0.75000" in out
        assert re.search(r"transect t0 0\.75000", out)

    def test_missing_quadrat_warns_scores_zero(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\nq1,t0,1\n")
        sub = tmp_path / "sub.csv"
        sub.write_text("quadrat_id,species_ids\nq0,1\n")
        assert main(["eval", str(sub), str(gt)]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "final 0.50000" in captured.out

    def test_duplicate_rows_exit_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\n")
        sub = tmp_path / "sub.csv"
        sub.write_text("quadrat_id,species_ids\nq0,1\nq0,2\n")
        assert main(["eval", str(sub), str(gt)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_path_option(self, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\n")
        sub = tmp_path / "sub.csv"
        sub.write_text("quadrat_id,species_ids\nq0,1\n")
        report = tmp_path / "r.json"
        assert main(["eval", str(sub), str(gt), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["final"] == 1.0


class TestSweep:
    def test_thresholds_non_increasing_in_target(self, gen_dir, tmp_path, capsys):
        cfg = run_cfg_file(tmp_path)
        assert main(
            ["sweep", "--config", str(cfg), "--data", str(gen_dir),
             "--targets", "1.5,2.5,3.0"]
        ) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
        taus = [float(r[1]) for r in rows]
        assert taus == sorted(taus, reverse=True)

    def test_single_target_matches_infer_plus_eval(self, gen_dir, tmp_path, capsys):
        cfg = run_cfg_file(tmp_path)
        sub = tmp_path / "sub.csv"
        assert main(
            ["infer", "--config", str(cfg), "--data", str(gen_dir), "--out", str(sub)]
        ) == 0
        capsys.readouterr()
        assert main(["eval", str(sub), str(gen_dir / "groundtruth.csv")]) == 0
        eval_final = re.search(r"final (\d\.\d{5})", capsys.readouterr().out).group(1)
        assert main(
            ["sweep", "--config", str(cfg), "--data", str(gen_dir), "--targets", "3.0"]
        ) == 0
        sweep_out = capsys.readouterr().out
        assert eval_final in sweep_out

    def test_unattainable_target_marked(self, gen_dir, tmp_path, capsys):
        cfg = run_cfg_file(tmp_path)
        assert main(
            ["sweep", "--config", str(cfg), "--data", str(gen_dir),
             "--targets", "2.0,30.0"]
        ) == 0
        assert "unattainable" in capsys.readouterr().out

    def test_target_below_min_len_exit_2(self, gen_dir, tmp_path, capsys):
        cfg = run_cfg_file(tmp_path)
        code = main(
            ["sweep", "--config", str(cfg), "--data", str(gen_dir), "--targets", "0.5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_out_csv(self, gen_dir, tmp_path):
        cfg = run_cfg_file(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--config", str(cfg), "--data", str(gen_dir),
             "--targets", "2.0,3.0", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "target,threshold,mean_len,score"
        assert len(lines) == 3


def test_written_files_honour_the_umask(tmp_path):
    # every file gen, infer, eval and sweep --out write gets the mode that
    # open(path, "w") gives a new file
    umask = os.umask(0o027)
    try:
        (tmp_path / "gen.cfg").write_text(GEN_CFG)
        data, sub, cfg = tmp_path / "data", tmp_path / "sub.csv", run_cfg_file(tmp_path)
        assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(data)]) == 0
        assert main(infer_argv(cfg, data, sub)) == 0
        assert main(["eval", str(sub), str(data / "groundtruth.csv")]) == 0
        sweep = ["sweep", "--config", str(cfg), "--data", str(data), "--targets", "3.0"]
        assert main(sweep + ["--out", str(tmp_path / "sweep.csv")]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: oct(p.stat().st_mode & 0o777) for p in tmp_path.rglob("*") if p.is_file()}
    assert modes == dict.fromkeys(
        ["gen.cfg", "run.cfg", "taxonomy.csv", "quadrats.csv", "heads.csv", "groundtruth.csv",
         "logit_cache.csv", "sub.csv", "sub.csv.report.json",
         "sweep.csv"],
        "0o640",
    )


class TestTaxonomyValidate:
    def test_ok(self, gen_dir, capsys):
        assert main(["taxonomy-validate", str(gen_dir / "taxonomy.csv")]) == 0
        assert "30 species" in capsys.readouterr().out

    def test_contradiction_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "tax.csv"
        bad.write_text("species_id,genus_id,family_id\n0,0,0\n0,1,0\n")
        assert main(["taxonomy-validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorContract:
    def test_crop_fraction_beyond_9_digits(self, gen_dir, tmp_path):
        # its cache key would be that of 0.1, whose grids it would reuse
        text = RUN_CFG.replace("crop_fracs = 0", "crop_fracs = 0.0999999999999")
        cfg = run_cfg_file(tmp_path, text)
        err = assert_cli_error(
            "infer", "--config", cfg, "--data", gen_dir, "--out", tmp_path / "s.csv"
        )
        assert "error: crop fraction 0.0999999999999 has more than 9 significant digits" in err
        assert not (gen_dir / "logit_cache.csv").exists() and not (tmp_path / "s.csv").exists()

    def test_bad_sweep_target(self, gen_dir, tmp_path):
        cfg = run_cfg_file(tmp_path)
        err = assert_cli_error(
            "sweep", "--config", cfg, "--data", gen_dir, "--targets", "4,abc"
        )
        assert "targets" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--targets", "-inf"], "argument --targets: expected one argument"),
            (["--targets", "-0.5,2"], "argument --targets: expected one argument"),
            (["--data"], "argument --data: expected one argument"),
        ],
        ids=["-inf", "-0.5,2", "no-value"],
    )
    def test_usage_error_in_sweep(self, gen_dir, tmp_path, capsys, argv, message):
        # a separate argument that starts with '-' is read as an option
        cfg = run_cfg_file(tmp_path)
        args = ["sweep", "--config", cfg, "--data", gen_dir, *argv]
        assert message in assert_cli_error(*args)
        assert main([str(a) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: quadflora sweep: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["infer", "--config", "run.cfg"], "quadflora infer: the following arguments are "
             "required: --data, --out"),
            (["bogus"], "quadflora: argument command: invalid choice: 'bogus'"),
            ([], "quadflora: the following arguments are required: command"),
            (["gen", "--config", "g.cfg", "--out", "x", "--seed", "1.5"],
             "quadflora gen: argument --seed: invalid int value: '1.5'"),
            (["eval", "a.csv", "b.csv", "--extra"], "quadflora: unrecognized arguments: --extra"),
        ],
        ids=["missing-option", "unknown-command", "no-command", "bad-int", "unknown-option"],
    )
    def test_usage_error(self, capsys, args, message):
        assert message in assert_cli_error(*args)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "-h"])
        assert exc.value.code == 0
        assert "--targets" in capsys.readouterr().out

    def test_non_utf8_csv(self, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\n")
        sub = tmp_path / "sub.csv"
        sub.write_bytes(b"quadrat_id,species_ids\nq0,1\n\xff\xfe,2\n")
        assert str(sub) in assert_cli_error("eval", sub, gt)

    def test_non_utf8_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_bytes(GEN_CFG.encode() + b"# caf\xe9\n")
        assert str(cfg) in assert_cli_error("gen", "--config", cfg, "--out", tmp_path / "x")

    def test_non_utf8_taxonomy(self, tmp_path):
        tax = tmp_path / "tax.csv"
        tax.write_bytes(b"species_id,genus_id,family_id\n0,0,0\n\x80,1,0\n")
        assert str(tax) in assert_cli_error("taxonomy-validate", tax)

    def test_nan_sweep_target(self, gen_dir, tmp_path):
        cfg = run_cfg_file(tmp_path)
        err = assert_cli_error(
            "sweep", "--config", cfg, "--data", gen_dir, "--targets", "3,nan"
        )
        assert "target_mean_len" in err

    @pytest.mark.parametrize(
        "key, text",
        [
            ("target_mean_len", RUN_CFG.replace("target_mean_len = 3.0", "target_mean_len = nan")),
            ("min_logit", RUN_CFG.replace("target_mean_len = 3.0", "min_logit = nan")),
            ("kernel_w", RUN_CFG + "kernel_w = nan\n"),
            ("target_mean_len", RUN_CFG.replace("target_mean_len = 3.0", "target_mean_len = inf")),
            ("min_logit", RUN_CFG.replace("target_mean_len = 3.0", "min_logit = inf")),
            ("min_logit", RUN_CFG.replace("target_mean_len = 3.0", "min_logit = -inf")),
            ("kernel_w", RUN_CFG + "kernel_w = inf\n"),
        ],
        ids=[
            "target_mean_len", "min_logit", "kernel_w",
            "target_mean_len=inf", "min_logit=inf", "min_logit=-inf", "kernel_w=inf",
        ],
    )
    def test_nan_setting_in_infer_config(self, gen_dir, tmp_path, key, text):
        # non-finite settings: NaN and, in the later cases, +-inf
        cfg = run_cfg_file(tmp_path, text)
        out = tmp_path / "sub.csv"
        err = assert_cli_error("infer", "--config", cfg, "--data", gen_dir, "--out", out)
        assert key in err
        assert "warning:" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (2, "x", "bad integer field"),
            (3, "x", "bad integer field"),
            (2, "0", "grid size and feature dim must be >= 1"),
        ],
        ids=["grid", "dim", "grid=0"],
    )
    def test_recorded_features_with_bad_metadata(self, gen_dir, tmp_path, field, value, message):
        # A cache header's record edited by hand to vouch for a quadrat whose
        # first line has a bad grid or dim: the file is checked line by line.
        cfg = run_cfg_file(tmp_path)
        out = tmp_path / "sub.csv"
        assert main(infer_argv(cfg, gen_dir, out)) == 0
        features = gen_dir / "quadrats.csv"
        header, *rows = features.read_bytes().splitlines(keepends=True)
        fields = rows[0].split(b",")
        fields[field] = value.encode()
        rows[0] = b",".join(fields)
        features.write_bytes(b"".join([header, *rows]))
        own = b"".join(row for row in rows if row.split(b",")[0] == fields[0])
        cache = gen_dir / "logit_cache.csv"
        record, index, values = cache_file.parts(cache.read_bytes())
        record["quadrats"][fields[0].decode()] = {
            "bytes": len(own), "sha256": hashlib.sha256(own).hexdigest()
        }
        cache.write_bytes(cache_file.build(record, index, values))
        err = assert_cli_error(*infer_argv(cfg, gen_dir, out))
        assert err == f"error: {features}:2: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows[:1] + ["order" + rows[1][len("species"):]] + rows[2:],
             "{heads}:2: unknown level 'order'"),
            (lambda rows: rows[:1] + [rows[1].replace(",b,0,", ",b,x,", 1)] + rows[2:],
             "{heads}:2: bad row index"),
            (lambda rows: rows[:2] + rows[1:], "{heads}:3: duplicate row 0 for b"),
            (lambda rows: rows[:1], "no head rows in {heads}"),
            (lambda rows: rows + [rows[2].replace(",w,0,", ",w1,0,", 1)],
             "{heads}: head species/lin1 has params ['b', 'w', 'w1']"),
        ],
        ids=["unknown-level", "bad-row-index", "duplicate-row", "no-rows", "extra-param"],
    )
    def test_bad_heads_file(self, gen_dir, tmp_path, capsys, edit, message):
        # every heads.csv row gets its row checks, and a used head its param check
        heads = gen_dir / "heads.csv"
        rows = heads.read_text().splitlines()
        assert rows[1].startswith("species,lin1,b,0,") and rows[2].startswith("species,lin1,w,0,")
        heads.write_text("\n".join(edit(rows)) + "\n")
        out = tmp_path / "sub.csv"
        assert main(infer_argv(run_cfg_file(tmp_path), gen_dir, out)) == 2
        assert capsys.readouterr().err == f"error: {message.format(heads=heads)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_write_error_names_the_path_given(self, gen_dir, tmp_path, capsys, target):
        # an error from the temp file's creation or rename names the path
        # asked for, not the temp file, and leaves no temp file behind
        cfg = run_cfg_file(tmp_path)
        if target == "missing_dir":
            path, why = tmp_path / "missing" / "x.csv", "[Errno 2] No such file or directory"
            argvs = [infer_argv(cfg, gen_dir, path)]
        else:
            path, why = tmp_path / "somedir", "[Errno 21] Is a directory"
            path.mkdir()
            assert main(infer_argv(cfg, gen_dir, tmp_path / "sub.csv")) == 0
            argvs = [
                infer_argv(cfg, gen_dir, path),
                ["eval", str(tmp_path / "sub.csv"), str(gen_dir / "groundtruth.csv"),
                 "--report", str(path)],
            ]
        capsys.readouterr()
        for argv in argvs:
            for _ in range(2):
                assert main(argv) == 2
                assert capsys.readouterr().err == f"error: {why}: '{path}'\n"
        assert list(tmp_path.rglob(".tmp-*")) == []

    def test_unwritable_cache_leaves_no_submission(self, gen_dir, tmp_path, capsys):
        cache, out = tmp_path / "missing" / "c.bin", tmp_path / "sub.csv"
        argv = infer_argv(run_cfg_file(tmp_path), gen_dir, out, "--cache", str(cache))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{cache}'\n"
        assert not out.exists()

    def test_no_model_is_a_config_error(self, gen_dir, tmp_path, capsys):
        # reported before any data file is read: a bad features line too
        features = gen_dir / "quadrats.csv"
        header, first, *rest = features.read_text().splitlines(keepends=True)
        features.write_text("".join([header, first.replace(",", ",x", 2), *rest]))
        cfg = run_cfg_file(tmp_path, RUN_CFG.replace("lin1+mlp2+mlp2", ","))
        out = tmp_path / "sub.csv"
        assert main(infer_argv(cfg, gen_dir, out)) == 2
        assert capsys.readouterr().err == "error: at least one model is required\n"
        assert not out.exists()

    def test_header_only_files(self, gen_dir, tmp_path, capsys):
        features = gen_dir / "quadrats.csv"
        features.write_text(features.read_text().split("\n", 1)[0] + "\n")
        out = tmp_path / "sub.csv"
        assert main(infer_argv(run_cfg_file(tmp_path), gen_dir, out)) == 2
        assert capsys.readouterr().err == f"error: no feature rows in {features}\n"
        assert not out.exists()
        gt, sub = tmp_path / "gt.csv", tmp_path / "sub.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\n")
        sub.write_text("quadrat_id,species_ids\n")
        assert main(["eval", str(sub), str(gt)]) == 2
        assert capsys.readouterr().err == f"error: no submission rows in {sub}\n"
        gt.write_text("quadrat_id,transect_id,species_ids\n")
        sub.write_text("quadrat_id,species_ids\nq0,1\n")
        assert main(["eval", str(sub), str(gt)]) == 2
        assert capsys.readouterr().err == f"error: no ground-truth rows in {gt}\n"

    def test_empty_id_list(self, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\nq1,t0,2\n")
        sub = tmp_path / "sub.csv"
        sub.write_text("quadrat_id,species_ids\nq0,1\nq1,\n")
        assert f"error: {sub}:3: empty species id list\n" in assert_cli_error("eval", sub, gt)
        sub.write_text("quadrat_id,species_ids\nq0,1\nq1,2\n")
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,\n")
        assert f"error: {gt}:2: empty species id list\n" in assert_cli_error("eval", sub, gt)

    def test_bad_id_in_long_id_list(self, tmp_path):
        # The error names the first bad id by a short prefix, not the field.
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\n")
        ids = ";".join(map(str, range(1, 2000))) + ";x" + "7" * 100 + ";"
        ids += ";".join(map(str, range(3000, 6000))) + ";zz"
        assert len(ids) > 20_000
        sub = tmp_path / "sub.csv"
        sub.write_text(f"quadrat_id,species_ids\nq0,{ids}\n")
        err = assert_cli_error("eval", sub, gt)
        assert f"{sub}:2: species id list: non-integer field: 'x7777777777777777777'..." in err
        assert "zz" not in err and len(err) < len(str(sub)) + 100

    def test_over_long_id_in_id_list(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        gt = tmp_path / "gt.csv"
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0,1\n")
        sub = tmp_path / "sub.csv"
        sub.write_text("quadrat_id,species_ids\nq0,1;" + "9" * (limit + 1) + ";x\n")
        err = assert_cli_error("eval", sub, gt)
        assert f"{sub}:2: species id list: id longer than {limit} digits: '9999" in err
        gt.write_text("quadrat_id,transect_id,species_ids\nq0,t0," + "8" * 20_000 + "\n")
        sub.write_text("quadrat_id,species_ids\nq0,1\n")
        err = assert_cli_error("eval", sub, gt)
        assert f"{gt}:2: species id list: id longer than {limit} digits: '8888" in err

    def test_csv_error_in_taxonomy(self, tmp_path):
        # A field of any width is read; a quote is an error on its line.
        tax = tmp_path / "tax.csv"
        tax.write_text("species_id,genus_id,family_id\n0,0,0\n1,0," + "0" * 140_000 + "\n")
        limit = sys.get_int_max_str_digits()
        err = assert_cli_error("taxonomy-validate", tax)
        assert f"{tax}:3: id longer than {limit} digits" in err
        tax.write_text("species_id,genus_id,family_id\n0,0,0\n1,0,x" + "0" * 140_000 + "\n")
        assert f"{tax}:3: non-integer field" in assert_cli_error("taxonomy-validate", tax)
        # long digit runs that int() refuses for their syntax, not their length
        for field in ["--" + "5" * 5000, "+-" + "5" * 5000, "5__5" * 2000, "5" * 5000 + "_"]:
            tax.write_text(f"species_id,genus_id,family_id\n0,0,0\n1,0,{field}\n")
            assert f"{tax}:3: non-integer field" in assert_cli_error("taxonomy-validate", tax)
        tax.write_text("species_id,genus_id,family_id\n0,0,0\n1,0,-" + "5_5" * 3000 + "\n")
        assert f"{tax}:3: id longer than {limit} digits" in assert_cli_error("taxonomy-validate", tax)
        tax.write_text('species_id,genus_id,family_id\n0,0,0\n1,0,"0"\n')
        assert f"{tax}:3: unexpected quote" in assert_cli_error("taxonomy-validate", tax)

    @pytest.mark.parametrize("row", ["99999999999999999999,2,3", "1,9223372036854775808,0"])
    def test_id_outside_int64(self, gen_dir, tmp_path, row):
        # ids are held as int64: a larger one is an error on its line, in
        # taxonomy-validate and in every command that loads the taxonomy
        tax = gen_dir / "taxonomy.csv"
        lines = tax.read_text().splitlines()
        tax.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        expected = f"error: {tax}:3: id larger than 9223372036854775807\n"
        assert assert_cli_error("taxonomy-validate", tax) == expected
        out = tmp_path / "sub.csv"
        assert assert_cli_error(*infer_argv(run_cfg_file(tmp_path), gen_dir, out)) == expected
        assert not out.exists()
        largest = "9223372036854775807," + lines[1].split(",", 1)[1]  # in the first's genus
        tax.write_text("\n".join(lines[:2] + [largest] + lines[2:]) + "\n")
        assert main(["taxonomy-validate", str(tax)]) == 0
