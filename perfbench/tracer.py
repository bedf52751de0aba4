"""Outside-in span recorder for the traced benchmark run.

The program has no timers of its own, so the traced run wraps, from the
benchmark's files, the public functions each layer exposes at the names
the calling layer looks them up by: the names bound in ``pipeline``,
``selection``, ``formats`` and ``cli``, plus the module attributes the
benchmark itself calls through (``synthworld.gen_world``,
``metric.score``, ``pipeline.infer_corpus`` ...). Every wrapped call
records a span (name, start, end, parent span, pass id, phase) in memory;
counters are taken at the same boundaries from arguments and results.
Spans are written out when the run ends.

Self time of a span is its duration minus the time its direct child spans
cover. Per-layer metrics are per workload pass: totals over the traced
passes divided by the number of passes.
"""

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from quadflora import cli, formats, metric, pipeline, selection, synthworld
from quadflora.synthworld import LinearHead, TwoLayerHead

# name, unit, better, the end-to-end metric it should move, where it matters
LAYER_METRICS = [
    ("util.canonical9.calls", "count", "lower", "run_s", "wide-taxonomy, dense-bagged, cli-cache cold"),
    ("util.canonical9.values", "count", "lower", "run_s", "wide-taxonomy, dense-bagged, cli-cache cold"),
    ("util.canonical9.s", "s", "lower", "run_s", "wide-taxonomy, dense-bagged, cli-cache cold"),
    ("synthworld.gen_world.s", "s", "lower", "setup_s", "dense-bagged, wide-taxonomy, cli-cache"),
    ("synthworld.tile_features.calls", "count", "lower", "run_s", "dense-bagged"),
    ("synthworld.tile_features.s", "s", "lower", "run_s", "dense-bagged"),
    ("synthworld.head_logits.calls", "count", "lower", "run_s", "dense-bagged"),
    ("synthworld.head_logits.s", "s", "lower", "run_s", "dense-bagged"),
    ("synthworld.head_logits.gflop", "GFLOP-computed", "lower", "run_s", "dense-bagged"),
    ("ensemble.bag.calls", "count", "lower", "run_s", "dense-bagged"),
    ("ensemble.bag.s", "s", "lower", "run_s", "dense-bagged"),
    ("ensemble.kernel_smooth.calls", "count", "lower", "run_s", "dense-bagged"),
    ("ensemble.kernel_smooth.s", "s", "lower", "run_s", "dense-bagged"),
    ("fusion.fuse.calls", "count", "lower", "run_s", "wide-taxonomy"),
    ("fusion.fuse.s", "s", "lower", "run_s", "wide-taxonomy"),
    ("fusion.top1_changed_frac", "frac", "higher", "final_f1", "dense-bagged, wide-taxonomy"),
    ("geometry.tile_grid.calls", "count", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("geometry.tiles", "count", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("selection.collect_candidates.s", "s", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("selection.candidates_per_quadrat", "count", "lower", "run_s", "calib-sweep"),
    ("selection.bisect_threshold.calls", "count", "lower", "run_s", "calib-sweep"),
    ("selection.bisect_threshold.s", "s", "lower", "run_s", "calib-sweep"),
    ("selection.mean_prediction_length.calls", "count", "lower", "run_s", "calib-sweep"),
    ("selection.apply_threshold.calls", "count", "lower", "run_s", "calib-sweep"),
    ("selection.apply_threshold.s", "s", "lower", "run_s", "calib-sweep"),
    ("selection.zscore_normalize.s", "s", "lower", "run_s", "calib-sweep"),
    ("selection.metadata_merge.s", "s", "lower", "run_s", "calib-sweep"),
    ("selection.clipped_max_len", "count", "lower", "final_f1", "calib-sweep"),
    ("selection.lifted_min_len", "count", "lower", "final_f1", "calib-sweep"),
    ("metric.score.calls", "count", "lower", "run_s", "calib-sweep"),
    ("metric.score.s", "s", "lower", "run_s", "calib-sweep"),
    ("pipeline.infer_corpus.s", "s", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("pipeline.select_predictions.s", "s", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("pipeline.infer_quadrat.s", "s", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("pipeline.infer_quadrat.samples", "count", "higher", "run_s", "dense-bagged, wide-taxonomy"),
    ("pipeline.infer_quadrat.p50_ms", "ms", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("pipeline.infer_quadrat.tail_pct", "pct", "higher", "run_s", "dense-bagged, wide-taxonomy"),
    ("pipeline.infer_quadrat.tail_ms", "ms", "lower", "run_s", "dense-bagged, wide-taxonomy"),
    ("formats.load_quadrat_features.s", "s", "lower", "warm_run_s", "cli-cache"),
    ("formats.load_quadrat_features.bytes", "bytes", "lower", "warm_run_s", "cli-cache"),
    ("formats.load_head_registry.s", "s", "lower", "warm_run_s", "cli-cache"),
    ("formats.LogitCache.load.s", "s", "lower", "warm_run_s", "cli-cache"),
    ("formats.LogitCache.load.rows", "count", "lower", "warm_run_s", "cli-cache"),
    ("formats.LogitCache.save.s", "s", "lower", "run_s", "cli-cache"),
    ("formats.LogitCache.save.bytes", "bytes", "lower", "run_s", "cli-cache"),
    ("formats.cache_hit_frac.cold", "frac", "lower", "run_s", "cli-cache"),
    ("formats.cache_hit_frac.warm", "frac", "higher", "warm_run_s", "cli-cache"),
    ("formats.write_submission.s", "s", "lower", "run_s", "cli-cache"),
    ("formats.write_quadrat_features.s", "s", "lower", "setup_s", "cli-cache"),
    ("taxonomy.load_taxonomy.s", "s", "lower", "run_s", "cli-cache"),
    ("cli.gen.s", "s", "lower", "setup_s", "cli-cache"),
    ("cli.infer.s", "s", "lower", "run_s", "cli-cache"),
    ("cli.eval.s", "s", "lower", "run_s", "cli-cache"),
    ("trace.overhead_s", "s", "lower", "run_s", "every workload"),
    ("trace.uncovered_frac", "frac", "lower", "run_s", "every workload"),
]

# Every span name that yields a ``.s`` or ``.calls`` metric above.
SPAN_NAMES = sorted(
    {name.rsplit(".", 1)[0] for name, *_ in LAYER_METRICS if name.endswith((".s", ".calls"))}
)
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def _head_flops(head) -> float:
    if isinstance(head, LinearHead):
        return 2.0 * head.weight.size
    if isinstance(head, TwoLayerHead):
        return 2.0 * (head.w1.size + head.w2.size)
    raise TypeError(f"unknown head type {type(head).__name__}")


def _file_state(path):
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_size, st.st_mtime_ns, st.st_ino


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id, phase]
        self.counts = Counter()
        self.active = True
        self.pass_id = 0
        self.phase = "setup"
        self._stack = []
        self._undo = []

    # --------------------------------------------------------------- spans

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.pass_id, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, phase=None):
        """A span opened by the benchmark itself, e.g. around a timed region."""
        if phase is not None:
            self.phase = phase
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record nothing."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name, fn, after=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(*args, **kwargs) if before is not None else None
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(out, token, *args, **kwargs)
            return out

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, after=None, before=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(self.wrap(name, raw.__func__, after, before)))
        else:
            self._set(owner, attr, self.wrap(name, raw, after, before))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        c = self.counts

        def values(out, _t, *_a, **_k):
            c["util.canonical9.values"] += out.size

        def flops(_out, _t, model, level, *_a, **_k):
            c["synthworld.head_logits.flop"] += _head_flops(model.head_for(level))

        def top1(out, _t, tile_logits, *_a, **_k):
            c["fusion.tiles"] += 1
            c["fusion.top1_changed"] += int(
                np.argmax(tile_logits.species) != np.argmax(out.score)
            )

        def tiles(out, _t, *_a, **_k):
            c["geometry.tiles"] += len(out)

        def calibration_input(_out, _t, corpus, *_a, **_k):
            c["selection.calibrated_quadrats"] += len(corpus)
            c["selection.calibrated_candidates"] += sum(len(x.entries) for x in corpus)

        def bounds(_out, _t, cand, tau, cfg):
            above = sum(1 for v in cand.entries.values() if v > tau)
            c["selection.clipped_max_len"] += int(cfg.max_len is not None and above > cfg.max_len)
            c["selection.lifted_min_len"] += int(above < cfg.min_len)

        def nbytes(_out, _t, path, *_a, **_k):
            c["formats.load_quadrat_features.bytes"] += os.path.getsize(path)

        def rows(out, _t, *_a, **_k):
            c["formats.LogitCache.load.rows"] += len(out)

        def before_save(cache, path=None):
            target = path or cache.path
            return target, _file_state(target)

        def saved(_out, token, *_a, **_k):
            # save() skips an unchanged cache; count bytes only when written.
            target, state = token
            if _file_state(target) != state:
                c["formats.LogitCache.save.bytes"] += os.path.getsize(target)

        def lookup(cache, key):
            out = raw_get(cache, key)
            if self.active:
                c[f"formats.cache_lookups.{self.phase}"] += 1
                c[f"formats.cache_hits.{self.phase}"] += int(out is not None)
            return out

        p = self.patch
        p(pipeline, "canonical9", "util.canonical9", after=values)
        p(pipeline, "head_logits", "synthworld.head_logits", after=flops)
        p(pipeline, "tile_features", "synthworld.tile_features")
        p(pipeline, "bag", "ensemble.bag")
        p(pipeline, "kernel_smooth", "ensemble.kernel_smooth")
        p(pipeline, "fuse", "fusion.fuse", after=top1)
        p(pipeline, "tile_grid", "geometry.tile_grid", after=tiles)
        p(pipeline, "collect_candidates", "selection.collect_candidates")
        p(pipeline, "zscore_normalize", "selection.zscore_normalize")
        p(pipeline, "bisect_threshold", "selection.bisect_threshold", after=calibration_input)
        p(pipeline, "mean_prediction_length", "selection.mean_prediction_length")
        p(pipeline, "apply_threshold", "selection.apply_threshold", after=bounds)
        p(pipeline, "metadata_merge", "selection.metadata_merge")
        p(pipeline, "infer_quadrat", "pipeline.infer_quadrat")
        p(selection, "mean_prediction_length", "selection.mean_prediction_length")
        p(selection, "apply_threshold", "selection.apply_threshold")
        for owner in (pipeline, cli):
            p(owner, "infer_corpus", "pipeline.infer_corpus")
            p(owner, "select_predictions", "pipeline.select_predictions")
        for owner in (synthworld, cli):
            p(owner, "gen_world", "synthworld.gen_world")
        for owner in (metric, cli):
            p(owner, "score", "metric.score")
        p(cli, "load_taxonomy", "taxonomy.load_taxonomy")
        p(cli, "cmd_gen", "cli.gen")
        p(cli, "cmd_infer", "cli.infer")
        p(cli, "cmd_eval", "cli.eval")
        p(formats, "load_quadrat_features", "formats.load_quadrat_features", after=nbytes)
        p(formats, "load_head_registry", "formats.load_head_registry")
        p(formats, "write_submission", "formats.write_submission")
        p(formats, "write_quadrat_features", "formats.write_quadrat_features")
        p(formats.LogitCache, "load", "formats.LogitCache.load", after=rows)
        p(formats.LogitCache, "save", "formats.LogitCache.save", after=saved,
          before=before_save)
        raw_get = formats.LogitCache.__dict__["get"]
        self._set(formats.LogitCache, "get", lookup)

    # ------------------------------------------------------------ results

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass per-layer metrics with units, in LAYER_METRICS order.

        trace.overhead_s needs the untraced run and is added by run.py.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = Counter()
        mpl_in_bisect = 0
        latencies = []
        for i, (name, t0, t1, parent, _, phase) in enumerate(spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
            if (
                name == "selection.mean_prediction_length"
                and parent >= 0
                and spans[parent][0] == "selection.bisect_threshold"
            ):
                mpl_in_bisect += 1
            if name == "pipeline.infer_quadrat" and phase == "cold":
                latencies.append(1000.0 * (t1 - t0))
        c = self.counts
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = self_s[name] / passes
            out[f"{name}.calls"] = calls[name] / passes
        out["util.canonical9.values"] = c["util.canonical9.values"] / passes
        out["synthworld.head_logits.gflop"] = c["synthworld.head_logits.flop"] / 1e9 / passes
        out["fusion.top1_changed_frac"] = _ratio(c["fusion.top1_changed"], c["fusion.tiles"])
        out["geometry.tiles"] = c["geometry.tiles"] / passes
        out["selection.candidates_per_quadrat"] = _ratio(
            c["selection.calibrated_candidates"], c["selection.calibrated_quadrats"]
        )
        calibrations = calls["selection.bisect_threshold"]
        out["selection.mean_prediction_length.calls"] = _ratio(mpl_in_bisect, calibrations)
        selects = calls["pipeline.select_predictions"]
        out["selection.clipped_max_len"] = _ratio(c["selection.clipped_max_len"], selects)
        out["selection.lifted_min_len"] = _ratio(c["selection.lifted_min_len"], selects)
        out.update(_latency_metrics(latencies))
        out["formats.load_quadrat_features.bytes"] = (
            c["formats.load_quadrat_features.bytes"] / passes
        )
        out["formats.LogitCache.load.rows"] = c["formats.LogitCache.load.rows"] / passes
        out["formats.LogitCache.save.bytes"] = c["formats.LogitCache.save.bytes"] / passes
        for phase in ("cold", "warm"):
            out[f"formats.cache_hit_frac.{phase}"] = _ratio(
                c[f"formats.cache_hits.{phase}"], c[f"formats.cache_lookups.{phase}"]
            )
        timed = [i for i, s in enumerate(spans) if s[0] == "bench.run"]
        total = sum(spans[i][2] - spans[i][1] for i in timed)
        uncovered = sum(spans[i][2] - spans[i][1] - child[i] for i in timed)
        out["trace.uncovered_frac"] = _ratio(uncovered, total)
        return {
            name: {"value": out[name], "unit": unit}
            for name, unit, *_ in LAYER_METRICS
            if name in out
        }

    def write(self, path):
        """Write the spans, one JSON array per line, then drop them."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "pass", "phase"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _latency_metrics(latencies) -> dict:
    """Median and the highest listed percentile with >= 10 samples beyond it."""
    n = len(latencies)
    out = {
        "pipeline.infer_quadrat.samples": float(n),
        "pipeline.infer_quadrat.p50_ms": float(np.median(latencies)) if n else 0.0,
        "pipeline.infer_quadrat.tail_pct": 0.0,
        "pipeline.infer_quadrat.tail_ms": 0.0,
    }
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            out["pipeline.infer_quadrat.tail_pct"] = float(pct)
            out["pipeline.infer_quadrat.tail_ms"] = float(np.percentile(latencies, pct))
    return out
