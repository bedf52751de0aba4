"""The four benchmark workloads: inputs from a seed, timed passes, checks.

Load model: a closed loop with one caller. A run is one process with a
single-threaded Python caller and single-threaded BLAS; every call
returns before the next one starts.

Why these four; each puts a different layer under load:

- ``dense-bagged``: head apply, tile pooling, bagging and kernel
  smoothing do real work here, and only here (500/50/10 taxonomy, D=512,
  two crops x two models = 4 bag members, kernel_w 0.5). sigma=1.2 keeps
  final_f1 unsaturated.
- ``wide-taxonomy``: the paper-scale 7806/1446/181 taxonomy over D=64
  features, so per-tile canonical rounding and fusion dominate and head
  GEMVs and the ensemble layer do almost nothing. One tiling scale keeps
  a 60-quadrat corpus affordable, and 60 quadrats keep final_f1 steady
  across seeds.
- ``calib-sweep``: inference is bypassed (see ``candgen``); threshold
  search, ``apply_threshold``, merging and the metric take all the time.
- ``cli-cache``: ``quadflora gen``, then a cold ``infer`` that writes the
  logit cache, a warm ``infer`` that reads it, and ``eval``, in a fresh
  directory through ``quadflora.cli.main``. The only workload where the
  file formats do work.

In the library workloads the seeded corpus is split into surveys (whole
transects, each calibrated on its own) that are timed one by one, so a
run yields many short samples, each bracketed by the machine-speed
reference (see ``speed``). final_f1 scores the predictions of every
survey together.

A pass adds its timing samples to the clock (``speed.Clock``) and returns
the number of operations it attempted (one quadrat inferred, one target
calibrated, or one CLI command) and how many failed. Output checks run
outside the timed regions.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from quadflora import cli, formats, metric, pipeline, synthworld
from quadflora.ensemble import HeadSelection, compose_model
from quadflora.errors import UnattainableTargetError
from quadflora.pipeline import RunConfig
from quadflora.selection import (
    SelectionConfig,
    apply_threshold,
    metadata_merge,
    zscore_normalize,
)
from quadflora.synthworld import SynthConfig
from quadflora.taxonomy import load_taxonomy

from candgen import N_SPECIES, gen_candidates

REFERENCE_TARGET = 4.0  # final_f1 is reported at this mean prediction length
WARM_REPEATS = 3  # warm re-runs per survey in the library workloads


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # per survey: hash of predicted species sets
    complete: bool = True  # False if the deadline cut the pass short
    final_f1: float = float("nan")

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


@contextlib.contextmanager
def timed(clock, tracer, kind):
    """Time the region as a sample of kind ("run_s" or "warm_run_s").

    Traced, the region is a root span named bench.run or bench.warm, in
    phase cold or warm. The clock's reference loop runs outside the span.
    """
    name, phase = ("bench.run", "cold") if kind == "run_s" else ("bench.warm", "warm")
    with clock.timed(kind):
        span = tracer.span(name, phase) if tracer is not None else contextlib.nullcontext()
        with span:
            yield


def untraced(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def digest(preds, h=None) -> str:
    h = h or hashlib.sha256()
    for p in sorted(preds, key=lambda p: p.quadrat_id):
        h.update(f"{p.quadrat_id}:{';'.join(map(str, p.species))}\n".encode())
    return h.hexdigest()


def check_selection(candidates, preds, tau, sel, groups, n_species):
    """Check one calibrated selection with the public selection functions.

    Returns (ids of quadrats whose prediction fails, calibration ok).
    Per quadrat: the threshold output has a length within [min_len,
    max_len] (min_len capped by the candidate count) and only candidate
    species with valid ids, and the pipeline's prediction equals it
    (after metadata merging, when configured). Calibration: the mean
    length at tau is >= the target, and at the next distinct candidate
    score above tau it is < the target.
    """
    scored = [zscore_normalize(c) for c in candidates] if sel.zscore else list(candidates)
    base = [apply_threshold(c, tau, sel) for c in scored]
    expected = base if sel.merge_k is None else metadata_merge(base, groups, sel.merge_k)
    bad = set()
    for c, b, e, p in zip(scored, base, expected, preds):
        hi = sel.max_len if sel.max_len is not None else len(c.entries)
        lo = min(sel.min_len, len(c.entries))
        if (
            not lo <= len(b.species) <= hi
            or not set(b.species) <= set(c.entries)
            or any(not 0 <= s < n_species for s in p.species)
            or p != e
        ):
            bad.add(c.quadrat_id)
    if len(preds) != len(candidates):
        bad.update(c.quadrat_id for c in candidates)

    def mean_len(t):
        return float(np.mean([len(apply_threshold(c, t, sel).species) for c in scored]))

    target = sel.target_mean_len
    above = [v for c in scored for v in c.entries.values() if v > tau]
    calibrated = mean_len(tau) >= target and (not above or mean_len(min(above)) < target)
    return bad, calibrated


def _surveys(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


# ------------------------------------------------------------ library runs

@dataclass
class LibraryInputs:
    tax: object
    surveys: list  # lists of quadrats
    models: list
    groups: dict
    truth: metric.GroundTruthTable


class LibraryWorkload:
    """Per survey: infer_corpus + select_predictions cold, then warm.

    The cold run fills an in-memory LogitCache; the warm run repeats the
    same inference over it, the re-run a user makes while tuning
    selection.
    """

    def __init__(self, synth: SynthConfig, heads, run_cfg: RunConfig, survey_size: int):
        self.synth = synth
        self.heads = heads
        self.run_cfg = run_cfg
        self.survey_size = survey_size

    def setup(self, seed: int) -> LibraryInputs:
        tax, quadrats, registry = synthworld.gen_world(dataclasses.replace(self.synth, seed=seed))
        return LibraryInputs(
            tax=tax,
            surveys=_surveys(quadrats, self.survey_size),
            models=[compose_model(registry, h) for h in self.heads],
            groups={q.quadrat_id: q.transect_id for q in quadrats},
            truth=metric.GroundTruthTable(
                quadrats={q.quadrat_id: (q.transect_id, q.truth) for q in quadrats}
            ),
        )

    def _infer(self, inp, survey, cache):
        candidates = pipeline.infer_corpus(survey, self.run_cfg, inp.tax, inp.models, cache)
        preds, tau, _ = pipeline.select_predictions(candidates, self.run_cfg, inp.groups)
        return candidates, preds, tau

    def run_pass(self, inp: LibraryInputs, clock, tracer, check: bool, deadline) -> PassResult:
        res = PassResult()
        all_preds = []
        for survey in inp.surveys:
            if not check and time.perf_counter() >= deadline:
                res.complete = False
                break
            cache = formats.LogitCache()
            with timed(clock, tracer, "run_s"):
                candidates, preds, tau = self._infer(inp, survey, cache)
            res.attempted += len(survey) + 1
            for _ in range(WARM_REPEATS):
                with timed(clock, tracer, "warm_run_s"):
                    _, warm_preds, warm_tau = self._infer(inp, survey, cache)
                res.attempted += len(survey) + 1
                if warm_preds != preds or warm_tau != tau:
                    differ = sum(p != w for p, w in zip(preds, warm_preds))
                    res.fail(differ + 1, "warm run differs from cold run")
            all_preds += preds
            res.digests.append(digest(preds))
            if check:
                with untraced(tracer):
                    bad, calibrated = check_selection(
                        candidates, preds, tau, self.run_cfg.selection, inp.groups,
                        inp.tax.n_species,
                    )
                if bad or not calibrated:
                    res.fail(
                        len(bad) + (not calibrated),
                        f"{len(bad)} predictions fail checks, calibrated={calibrated}",
                    )
        if check:
            with untraced(tracer):
                res.final_f1 = metric.score(all_preds, inp.truth).final
        return res


def _dense_bagged(tiny: bool) -> LibraryWorkload:
    if tiny:
        synth = SynthConfig(40, 8, 4, n_quadrats=4, quadrats_per_transect=2, feature_dim=64,
                            noise_sigma=1.2, patch_align=4, orthogonal_prototypes=True)
    else:
        synth = SynthConfig(500, 50, 10, n_quadrats=40, quadrats_per_transect=5,
                            feature_dim=512, noise_sigma=1.2, patch_align=4,
                            orthogonal_prototypes=True)
    return LibraryWorkload(
        synth,
        heads=(HeadSelection("lin1", "mlp2", "mlp2"), HeadSelection("lin1c", "lin1", "lin1")),
        run_cfg=RunConfig(
            scales=(4, 5),
            crop_fracs=(0.0, 0.10),
            kernel_w=0.5,
            selection=SelectionConfig(target_mean_len=REFERENCE_TARGET, max_len=9),
        ),
        survey_size=synth.quadrats_per_transect,
    )


def _wide_taxonomy(tiny: bool) -> LibraryWorkload:
    if tiny:
        synth = SynthConfig(300, 60, 12, n_quadrats=4, quadrats_per_transect=2,
                            feature_dim=16, noise_sigma=0.5, patch_align=4)
    else:
        synth = SynthConfig(7806, 1446, 181, n_quadrats=60, quadrats_per_transect=5,
                            feature_dim=64, noise_sigma=0.5, patch_align=4)
    return LibraryWorkload(
        synth,
        heads=(HeadSelection("lin1", "mlp2", "mlp2"),),
        run_cfg=RunConfig(
            scales=(4,),
            crop_fracs=(0.10,),
            selection=SelectionConfig(target_mean_len=REFERENCE_TARGET, max_len=9),
        ),
        survey_size=synth.quadrats_per_transect,
    )


# ------------------------------------------------------------ calib-sweep

class CalibSweep:
    """Per survey: four calibrations, each select_predictions + score.

    The warm run is one re-calibration at the reference target over the
    same candidate sets: the step a user takes after choosing a target
    from the sweep. Nothing is cached between runs.
    """

    targets = (3.5, 4.0, 4.5, 5.0)

    def __init__(self, tiny: bool):
        self.n_quadrats, self.survey_size = (40, 20) if tiny else (2000, 250)
        self.configs = {
            t: RunConfig(
                scales=(1,),
                selection=SelectionConfig(
                    target_mean_len=t, max_len=9, min_len=2, zscore=True, merge_k=3
                ),
            )
            for t in self.targets
        }

    def setup(self, seed: int):
        candidates, truth, groups = gen_candidates(seed, self.n_quadrats)
        # Each survey is scored against its own quadrats only, so that the
        # rest of the corpus is not reported missing.
        surveys = [
            (part, metric.GroundTruthTable(
                quadrats={c.quadrat_id: truth.quadrats[c.quadrat_id] for c in part}
            ))
            for part in _surveys(candidates, self.survey_size)
        ]
        return surveys, truth, groups

    def _calibrate(self, candidates, truth, groups, target):
        try:
            preds, tau, _ = pipeline.select_predictions(candidates, self.configs[target], groups)
        except UnattainableTargetError:
            return target, None, None, None
        return target, preds, tau, metric.score(preds, truth).final

    def run_pass(self, inp, clock, tracer, check: bool, deadline) -> PassResult:
        surveys, truth, groups = inp
        res = PassResult()
        reference = []
        for candidates, survey_truth in surveys:
            if not check and time.perf_counter() >= deadline:
                res.complete = False
                break
            h = hashlib.sha256()
            with timed(clock, tracer, "run_s"):
                rows = [self._calibrate(candidates, survey_truth, groups, t) for t in self.targets]
            with timed(clock, tracer, "warm_run_s"):
                again = self._calibrate(candidates, survey_truth, groups, REFERENCE_TARGET)
            res.attempted += len(rows) + 1
            if again != rows[self.targets.index(REFERENCE_TARGET)]:
                res.fail(1, "re-calibration differs from the sweep")
            for target, preds, tau, _ in rows:
                h.update(f"target={target}\n".encode())
                digest(preds or [], h)
                if target == REFERENCE_TARGET:
                    reference += preds or []
                if check and preds is not None:
                    with untraced(tracer):
                        bad, calibrated = check_selection(
                            candidates, preds, tau, self.configs[target].selection, groups,
                            N_SPECIES,
                        )
                    if bad or not calibrated:
                        res.fail(1, f"target {target}: {len(bad)} bad predictions, "
                                    f"calibrated={calibrated}")
            res.digests.append(h.hexdigest())
        if check:
            with untraced(tracer):
                res.final_f1 = metric.score(reference, truth).final
        return res


# -------------------------------------------------------------- cli-cache

GEN_CFG = (
    "n_species = {n_species}\nn_genera = {n_genera}\nn_families = {n_families}\n"
    "n_quadrats = {n_quadrats}\nquadrats_per_transect = 6\ngrid_cells = 20\n"
    "feature_dim = {feature_dim}\nnoise_sigma = 0.5\nrichness_min = 4\nrichness_max = 4\n"
    "patch_align = 4\northogonal_prototypes = 1\nseed = {seed}\n"
)
RUN_CFG = (
    "scales = 4,5\ncrop_fracs = 0.10\nmodels = lin1+mlp2+mlp2\n"
    f"target_mean_len = {REFERENCE_TARGET}\nmax_len = 9\nmin_len = 1\nchannel = fused\n"
)


def _file_snapshot(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), os.stat(path).st_mtime_ns


class CliCache:
    """gen, then per pass: cold infer -> warm infer -> eval, via cli.main.

    The run works in its own fresh directory: the cache key has no corpus
    fingerprint, so a reused directory would time a stale cache. Set-up
    generates the corpus there (repeated set-ups rewrite the same bytes);
    every pass deletes the logit cache before its cold infer.
    """

    def __init__(self, tiny: bool, workdir: str):
        # The README corpus shape with 12 quadrats instead of 36: each command
        # stays well under a second, so a run yields many samples.
        shape = dict(n_species=120, n_genera=24, n_families=6, n_quadrats=12, feature_dim=128)
        if tiny:
            shape = dict(n_species=20, n_genera=6, n_families=3, n_quadrats=6, feature_dim=32)
        self.shape = shape
        self.workdir = workdir

    def _path(self, name):
        return os.path.join(self.workdir, name)

    @staticmethod
    def _cli(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self, seed: int) -> str:
        with open(self._path("gen.cfg"), "w", encoding="utf-8") as fh:
            fh.write(GEN_CFG.format(seed=seed, **self.shape))
        data = self._path("data")
        if self._cli(["gen", "--config", self._path("gen.cfg"), "--out", data]) != 0:
            raise RuntimeError("quadflora gen failed")
        return data

    def run_pass(self, data, clock, tracer, check: bool, deadline) -> PassResult:
        # One pass is one unit here; the worker starts none after the deadline.
        p = self._path
        with open(p("run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(RUN_CFG)
        cache_path = os.path.join(data, "logit_cache.csv")
        if os.path.exists(cache_path):
            os.remove(cache_path)
        infer = ["infer", "--config", p("run.cfg"), "--data", data, "--out"]
        res = PassResult()
        codes = {}
        with timed(clock, tracer, "run_s"):
            codes["cold"] = self._cli(infer + [p("cold.csv")])
        before = _file_snapshot(cache_path) if codes["cold"] == 0 else None
        with timed(clock, tracer, "warm_run_s"):
            codes["warm"] = self._cli(infer + [p("warm.csv")])
        if tracer is not None:
            tracer.phase = "eval"
        codes["eval"] = self._cli(
            ["eval", p("cold.csv"), os.path.join(data, "groundtruth.csv"),
             "--report", p("report.json")]
        )
        res.attempted = len(codes)
        failed_ops = sorted(name for name, code in codes.items() if code != 0)
        if failed_ops:
            res.fail(len(failed_ops), f"commands failed: {failed_ops}")
            return res
        with untraced(tracer):
            submission = formats.load_submission(p("cold.csv"))
            res.digests = [digest(submission)]
            with open(p("report.json"), encoding="utf-8") as fh:
                res.final_f1 = float(json.load(fh)["final"])
            with open(p("cold.csv"), "rb") as a, open(p("warm.csv"), "rb") as b:
                same_submission = a.read() == b.read()
            cache_untouched = _file_snapshot(cache_path) == before
            if check:
                bad, calibrated = self._check_against_library(data, cache_path, submission)
                if bad or not calibrated:
                    res.fail(1, f"cold infer: {len(bad)} bad predictions, "
                                f"calibrated={calibrated}")
        if not (same_submission and cache_untouched):
            res.fail(1, f"warm infer: identical submission={same_submission}, "
                        f"cache bytes and mtime unchanged={cache_untouched}")
        return res

    @staticmethod
    def _check_against_library(data, cache_path, submission):
        """Recompute the submission in-process from the warm cache and check it."""
        cfg = formats.run_config_from(formats.parse_config_text(RUN_CFG))
        tax = load_taxonomy(os.path.join(data, "taxonomy.csv"))
        quadrats = formats.load_quadrat_features(os.path.join(data, "quadrats.csv"))
        registry = formats.load_head_registry(os.path.join(data, "heads.csv"))
        models = [compose_model(registry, h) for h in cfg.head_combos]
        candidates = pipeline.infer_corpus(
            quadrats, cfg, tax, models, formats.LogitCache.load(cache_path)
        )
        groups = {q.quadrat_id: q.transect_id for q in quadrats}
        preds, tau, _ = pipeline.select_predictions(candidates, cfg, groups)
        bad, calibrated = check_selection(
            candidates, preds, tau, cfg.selection, groups, tax.n_species
        )
        labels = tax.species_labels
        written = {s.quadrat_id: s.species for s in submission}
        for p in preds:
            if written.get(p.quadrat_id) != tuple(sorted(int(labels[s]) for s in p.species)):
                bad.add(p.quadrat_id)
        if len(written) != len(preds):
            bad.add("<submission row count>")
        return bad, calibrated


def make(name: str, tiny: bool, workdir: str):
    if name == "dense-bagged":
        return _dense_bagged(tiny)
    if name == "wide-taxonomy":
        return _wide_taxonomy(tiny)
    if name == "calib-sweep":
        return CalibSweep(tiny)
    if name == "cli-cache":
        return CliCache(tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
