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


def write_old_format(cache, features, version):
    """Rewrite the cache's sidecar as format version 1, 2, 3 or 4 wrote it.

    Versions 1 to 3: per model the sha256 of its head arrays, in place of
    the per-head line records. Version 1: no BLAS record, and per quadrat
    the sha256 of its metadata and of its rows rejoined without their
    line ends. Versions 2 and 4: the cache file rewritten as '%.9g' text,
    with one row per tile and level (2) or one line per grid (4), and the
    sidecar's cache_sha256 of those bytes.
    """
    sidecar = Path(str(cache) + ".fingerprint")
    record = json.loads(sidecar.read_text())
    if version < 4:
        registry = formats.load_head_registry(features.with_name("heads.csv"))
        del record["heads"]
        record["models"] = {
            model_id: old_model_digest(registry, model_id)
            for model_id in {line.split(",", 1)[0] for line in cache.read_text().splitlines()[1:]}
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
    elif version in (2, 4):
        blocks = formats.LogitCache.load(cache)
        if version == 2:
            header = "model_id,quadrat_id,crop_pct,scale,row,col,level,values\n"
            rows = sorted(per_tile.cache_rows(blocks).items())
        else:
            header = "model_id,quadrat_id,crop_pct,scale,level,values\n"
            rows = sorted(blocks._data.items())
        cache.write_text(
            header
            + "".join(",".join(map(str, key)) + "," + ";".join(fmt9_array(values)) + "\n"
                      for key, values in rows)
        )
        record["cache_sha256"] = hashlib.sha256(cache.read_bytes()).hexdigest()
    record["version"] = version
    sidecar.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


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
            "sidecar_version_4", "cache_edited", "overlap_changed", "heads_regenerated", "used_head_edited",
            "features_regenerated",
        ],
    )
    def test_stale_cache_is_dropped(self, gen_dir, tmp_path, capsys, change):
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        if change == "sidecar_deleted":
            os.remove(str(cache) + ".fingerprint")
        elif change.startswith("sidecar_version"):
            write_old_format(cache, gen_dir / "quadrats.csv", int(change[-1]))
        elif change == "previous_format":  # the last format with one row per tile
            write_old_format(cache, gen_dir / "quadrats.csv", 2)
        elif change == "cache_edited":
            lines = cache.read_text().splitlines()
            for i, line in enumerate(lines[1:], start=1):
                head, values = line.rsplit(",", 1)
                lines[i] = head + "," + ";".join("0" for _ in values.split(";"))
            cache.write_text("\n".join(lines) + "\n")
        elif change == "overlap_changed":
            cfg = run_cfg_file(tmp_path, RUN_CFG + "overlap_frac = 0.25\n")
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
        if change.startswith(("sidecar_version", "previous")):
            assert warned[0].endswith(
                f"its fingerprint is not format version {formats.FINGERPRINT_VERSION}"
            )
        if change == "used_head_edited":
            assert re.search(r": dropped (\d+) of \1 grids \(\1 for changed heads\)$", warned[0])
        fresh = fresh_cache_submission(tmp_path, cfg, gen_dir)
        assert (tmp_path / "warm.csv").read_bytes() == fresh
        assert cache.read_bytes() == (tmp_path / "fresh-cache" / "logit_cache.csv").read_bytes()
        fresh_sidecar = tmp_path / "fresh-cache" / "logit_cache.csv.fingerprint"
        assert Path(str(cache) + ".fingerprint").read_bytes() == fresh_sidecar.read_bytes()
        # the rewritten cache is trusted by the next run
        assert main(infer_argv(cfg, gen_dir, tmp_path / "again.csv")) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()

    def test_text_cache_of_format_4(self, gen_dir, tmp_path, capsys):
        # The 9-digit text cache of format 4: beside its sidecar, infer and
        # sweep drop it with one warning and recompute; loaded without a
        # fingerprint, its header is one FormatError.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        sweep = ["sweep", "--config", str(cfg), "--data", str(gen_dir), "--targets", "2,3"]
        for argv in (infer_argv(cfg, gen_dir, tmp_path / "warm.csv"),
                     sweep + ["--out", str(tmp_path / "sweep.csv")]):
            write_old_format(cache, gen_dir / "quadrats.csv", 4)
            with pytest.raises(formats.FormatError, match="^bad header .*'values'"):
                formats.LogitCache.load(cache)
            capsys.readouterr()
            assert main(argv) == 0
            warned = capsys.readouterr().err.splitlines()
            assert warned == [f"warning: logit cache {cache} not used: its fingerprint is not "
                              f"format version {formats.FINGERPRINT_VERSION}"]
            assert cache.read_text().startswith(",".join(formats.CACHE_HEADER) + "\n")
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        assert main(sweep + ["--out", str(tmp_path / "again.csv")]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_stale_sidecar_without_cache_vouches_for_nothing(self, gen_dir, tmp_path, monkeypatch):
        # A deleted cache next to its sidecar, as the benchmark's cold passes
        # leave it: every feature line is checked, and every used head
        # parsed, at load.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        assert all(formats.sidecar_records(cache).values())
        os.remove(cache)
        assert formats.sidecar_records(cache) == {"heads": {}, "quadrats": {}}
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

    def test_library_load_keeps_every_grid_whatever_the_sidecar(self, gen_dir, tmp_path):
        # A load without a fingerprint does not read the sidecar, even one
        # that no longer matches the cache.
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        cold = formats.LogitCache.load(cache)
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[:-1]))
        record = json.loads(Path(str(cache) + ".fingerprint").read_text())
        assert record["cache_sha256"] != hashlib.sha256(cache.read_bytes()).hexdigest()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = formats.LogitCache.load(cache)
        keys = [line.split(",")[:5] for line in lines[1:-1]]
        keys = [(model, qid, crop, int(scale), level) for model, qid, crop, scale, level in keys]
        assert len(keys) > 1 and sorted(loaded._data) == sorted(keys)
        for key in keys:
            np.testing.assert_array_equal(loaded.get(key), cold.get(key))

    def test_bad_feature_value_after_cold_run_fails(self, gen_dir, tmp_path):
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        cache = gen_dir / "logit_cache.csv"
        sidecar = gen_dir / "logit_cache.csv.fingerprint"
        written = cache.read_bytes(), sidecar.read_bytes()
        features = gen_dir / "quadrats.csv"
        lines = features.read_text().splitlines(keepends=True)
        head, values = lines[7].rsplit(",", 1)
        lines[7] = head + ",nan;" + values.split(";", 1)[1]
        features.write_text("".join(lines))
        out = tmp_path / "warm.csv"
        err = assert_cli_error(*infer_argv(cfg, gen_dir, out))
        assert f"error: {features}:8: non-finite value" in err
        assert not out.exists()
        assert (cache.read_bytes(), sidecar.read_bytes()) == written

    def test_warm_run_parses_no_features_and_writes_nothing(
        self, gen_dir, tmp_path, monkeypatch
    ):
        from quadflora import pipeline

        parsed, heads, read = [], [], []
        parse_block, head_logits = formats._parse_block, pipeline.head_logits

        def counting_parse(rows):
            parsed.extend(where for where, _ in rows)
            return parse_block(rows)

        def counting_heads(*args):
            heads.append(args[1])
            return head_logits(*args)

        monkeypatch.setattr(formats, "_parse_block", counting_parse)
        monkeypatch.setattr(pipeline, "head_logits", counting_heads)
        # every row reader formats holds: a file read through none of them
        # had no line checked
        for name in ("read_rows", "read_row_lines"):
            def counting_reader(path, *args, reader=getattr(formats, name)):
                read.append(str(path))
                return reader(path, *args)

            monkeypatch.setattr(formats, name, counting_reader)
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
        files = [gen_dir / "logit_cache.csv", gen_dir / "logit_cache.csv.fingerprint"]
        stats = [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in files]
        parsed.clear()
        heads.clear()
        read.clear()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        assert parsed == []  # no feature or head value
        assert heads == []
        assert features not in read and not unused_rows & set(parsed)
        assert [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in files] == stats
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

    def test_unused_head_edit_keeps_the_cache(self, gen_dir, tmp_path, capsys):
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        files = [gen_dir / "logit_cache.csv", gen_dir / "logit_cache.csv.fingerprint"]
        before = file_states(*files)
        edit_head_value(gen_dir / "heads.csv", "species,lin1c,w,")
        capsys.readouterr()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        assert capsys.readouterr().err == ""
        assert file_states(*files) == before
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

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
        files = [gen_dir / "logit_cache.csv", gen_dir / "logit_cache.csv.fingerprint"]
        before = file_states(*files)
        capsys.readouterr()
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        assert capsys.readouterr().err == ""
        assert file_states(*files) == before
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

    def test_other_blas_warns_and_keeps_the_cache(self, gen_dir, tmp_path, capsys, monkeypatch):
        cfg = run_cfg_file(tmp_path)
        assert main(infer_argv(cfg, gen_dir, tmp_path / "cold.csv")) == 0
        files = [gen_dir / "logit_cache.csv", gen_dir / "logit_cache.csv.fingerprint"]
        assert json.loads(files[1].read_text())["blas"] == formats.blas_record()
        before = file_states(*files)
        capsys.readouterr()
        monkeypatch.setattr(formats, "blas_record", lambda: "OtherBLAS 1.0 Haswell; 64 threads")
        assert main(infer_argv(cfg, gen_dir, tmp_path / "warm.csv")) == 0
        warned = capsys.readouterr().err.splitlines()
        assert len(warned) == 1 and warned[0].startswith(f"warning: logit cache {files[0]}")
        assert "OtherBLAS" in warned[0]
        assert file_states(*files) == before
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


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
        # A sidecar record edited by hand to vouch for a quadrat whose first
        # line has a bad grid or dim: the file is checked line by line.
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
        sidecar = gen_dir / "logit_cache.csv.fingerprint"
        record = json.loads(sidecar.read_text())
        record["quadrats"][fields[0].decode()] = {
            "bytes": len(own), "sha256": hashlib.sha256(own).hexdigest()
        }
        sidecar.write_text(json.dumps(record))
        err = assert_cli_error(*infer_argv(cfg, gen_dir, out))
        assert err == f"error: {features}:2: {message}\n"

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
