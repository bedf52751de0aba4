"""Command-line entry points: gen, infer, eval, sweep, taxonomy-validate.

Every failure path, a command line argparse rejects included, prints a
single `error: ...` line to stderr and exits 2; warnings go to stderr
prefixed `warning:` and do not change the exit code. `-h` prints help
and exits 0.
"""

import argparse
import dataclasses
import os
import sys
import warnings

from . import formats
from ._util import atomic_write_text
from .ensemble import compose_model
from .errors import QuadfloraError, UnattainableTargetError, UsageError
from .metric import GroundTruthTable, score
from .pipeline import RunConfig, infer_corpus, select_predictions
from .synthworld import gen_world, synth_summary
from .taxonomy import load_taxonomy, write_taxonomy_csv


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run(args) -> int:
    """Run the chosen command; each Python warning becomes one `warning:` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.func(args)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _load_world(args, cfg: RunConfig):
    """The taxonomy, quadrats, models and logit cache of an infer or sweep run.

    The cache's records are read first: a file whose every line they vouch
    for is taken unchecked and unparsed until a cache miss needs it, even
    if the grids are then dropped. The records of every head's lines judge
    the cached grids, but only the heads the run's models use are parsed.
    """
    cache_path = args.cache or os.path.join(args.data, "logit_cache.csv")
    records = formats.cache_records(cache_path)
    tax = load_taxonomy(os.path.join(args.data, "taxonomy.csv"))
    quadrats = formats.load_quadrat_features(
        os.path.join(args.data, "quadrats.csv"), records["quadrats"]
    )
    used = {head for sel in cfg.head_combos for head in sel.heads()}
    registry = formats.load_head_registry(
        os.path.join(args.data, "heads.csv"), used, records["heads"]
    )
    models = [compose_model(registry, sel) for sel in cfg.head_combos]
    fingerprint = formats.CacheFingerprint.of(registry, quadrats)
    cache = formats.LogitCache.load(cache_path, fingerprint)
    return tax, quadrats, models, cache


def cmd_gen(args) -> int:
    cfg = formats.synth_config_from(formats.load_config(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    tax, quadrats, registry = gen_world(cfg)
    os.makedirs(args.out, exist_ok=True)
    write_taxonomy_csv(tax, os.path.join(args.out, "taxonomy.csv"))
    gt = GroundTruthTable(
        quadrats={q.quadrat_id: (q.transect_id, q.truth) for q in quadrats}
    )
    formats.write_ground_truth(gt, os.path.join(args.out, "groundtruth.csv"))
    formats.write_quadrat_features(quadrats, os.path.join(args.out, "quadrats.csv"))
    formats.write_head_registry(registry, os.path.join(args.out, "heads.csv"))
    print(synth_summary(tax, quadrats))
    return 0


def cmd_infer(args) -> int:
    cfg = formats.run_config_from(formats.load_config(args.config))
    tax, quadrats, models, cache = _load_world(args, cfg)
    candidates = infer_corpus(quadrats, cfg, tax, models, cache)
    groups = {q.quadrat_id: q.transect_id for q in quadrats}
    preds, tau, achieved = select_predictions(candidates, cfg, groups)
    cache.save()
    formats.write_submission(preds, args.out, species_labels=tax.species_labels)
    print(
        f"wrote {args.out}: {len(preds)} quadrats, "
        f"threshold {tau:.6g}, mean length {achieved:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    preds = formats.load_submission(args.submission)
    gt = formats.load_ground_truth(args.groundtruth)
    report = score(preds, gt)
    report_path = args.report or args.submission + ".report.json"
    formats.write_score_report(report, report_path)
    print(f"final {report.final:.5f}")
    for tid in sorted(report.per_transect):
        print(f"transect {tid} {report.per_transect[tid]:.5f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = formats.run_config_from(formats.load_config(args.config))
    targets = sorted(
        formats._convert(float, "targets", part) for part in args.targets.split(",")
    )
    selections = [
        dataclasses.replace(cfg.selection, target_mean_len=target, min_logit=None)
        for target in targets
    ]
    tax, quadrats, models, cache = _load_world(args, cfg)
    gt_path = args.groundtruth or os.path.join(args.data, "groundtruth.csv")
    gt = formats.load_ground_truth(gt_path)
    candidates = infer_corpus(quadrats, cfg, tax, models, cache)
    groups = {q.quadrat_id: q.transect_id for q in quadrats}
    print(f"{'target':>8} {'threshold':>14} {'mean_len':>9} {'score':>8}")
    lines = ["target,threshold,mean_len,score"]  # of the --out CSV
    for target, sel in zip(targets, selections):
        per_target = dataclasses.replace(cfg, selection=sel)
        try:
            preds, tau, achieved = select_predictions(candidates, per_target, groups)
        except UnattainableTargetError:
            print(f"{target:>8.4g} {'unattainable':>14} {'-':>9} {'-':>8}")
            lines.append(f"{target:g},unattainable,,")
            continue
        final = score(preds, gt).final
        print(f"{target:>8.4g} {tau:>14.6g} {achieved:>9.4f} {final:>8.5f}")
        lines.append(f"{target:g},{tau:.9g},{achieved:.9g},{final:.9g}")
    cache.save()
    if args.out:
        atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_taxonomy_validate(args) -> int:
    table = load_taxonomy(args.taxonomy)
    print(
        f"taxonomy ok: {table.n_species} species, {table.n_genera} genera, "
        f"{table.n_families} families"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a UsageError where argparse would print its usage text and
    exit; subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadflora",
        description="Multi-label quadrat species prediction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic survey corpus")
    p.add_argument("--config", required=True, help="generator key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("infer", help="run inference and write a submission")
    p.add_argument("--config", required=True, help="run key=value config file")
    p.add_argument("--data", required=True, help="corpus directory from gen")
    p.add_argument("--out", required=True, help="submission CSV to write")
    p.add_argument("--cache", default=None, help="logit cache path (default in data dir)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score a submission against ground truth")
    p.add_argument("submission")
    p.add_argument("groundtruth")
    p.add_argument("--report", default=None, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="calibrate thresholds for several target lengths")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--targets", required=True, help="comma-separated mean lengths")
    p.add_argument("--groundtruth", default=None, help="default: data dir groundtruth.csv")
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default=None, help="optional CSV of sweep rows")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("taxonomy-validate", help="load and validate a taxonomy CSV")
    p.add_argument("taxonomy")
    p.set_defaults(func=cmd_taxonomy_validate)
    return parser


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (QuadfloraError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
