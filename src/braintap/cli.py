"""Command-line entry point: cohort generation, training, evaluation, ablation,
and the three analysis reports."""
from __future__ import annotations

import argparse
import sys

from . import analysis, data, pipeline
from .config import TrainConfig
from .model import BrainTAP


def _load_cfg(args):
    return TrainConfig.load(args.config) if args.config else TrainConfig()


def cmd_generate(args):
    data.generate_synthetic_cohort(
        args.out, args.subjects, args.rois, args.priors,
        args.signal, args.noise, args.seed, sc_signal_block=args.sc_block,
    )
    print(f"wrote cohort with {args.subjects} subjects to {args.out}")
    return 0


def cmd_train(args):
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    subjects, priors, manifest = data.load_cohort(args.cohort_dir)
    log = print if args.verbose else None
    model, report = pipeline.train(cfg, subjects, priors, manifest,
                                   metrics_path=args.metrics, log=log)
    model.save(args.out)
    print(f"best epoch {report.best_epoch}: val_auc={report.val_auc:.10g} "
          f"test_auc={report.test_auc:.10g}")
    return 0


def cmd_evaluate(args):
    model = BrainTAP.load(args.checkpoint)
    subjects, priors, manifest = data.load_cohort(args.cohort_dir)
    subset = pipeline.split_subjects(subjects, manifest, args.split)
    score = pipeline.evaluate_auc(model, subset, priors)
    print(f"{args.split}_auc={score:.10g}")
    return 0


def cmd_ablate(args):
    cfg = _load_cfg(args)
    subjects, priors, manifest = data.load_cohort(args.cohort_dir)
    seeds = [int(s) for s in args.seeds.split(",")]
    log = print if args.verbose else None
    rows = pipeline.run_ablation(cfg, subjects, priors, manifest, seeds=seeds, log=log)
    analysis.write_table(args.out, rows, ["variant", "mean_auc", "sd_auc"])
    for row in rows:
        print(f"{row['variant']}: {row['mean_auc']:.4f} +/- {row['sd_auc']:.4f}")
    return 0


def cmd_ratios(args):
    model = BrainTAP.load(args.checkpoint)
    rows = model.report_ratios()
    analysis.write_table(args.out, rows, ["layer", "fc_ratio", "sc_ratio"])
    print(f"wrote {len(rows)} layer ratios to {args.out}")
    return 0


def cmd_mrr(args):
    model = BrainTAP.load(args.checkpoint)
    subjects, priors, manifest = data.load_cohort(args.cohort_dir)
    subset = pipeline.split_subjects(subjects, manifest, args.split)
    report = analysis.analyze_mrr(
        model, subset, priors,
        include_free=args.include_free, aggregator=args.aggregator,
        warn=lambda m: print(f"warning: {m}", file=sys.stderr),
    )
    rows = [{"prior": n, "mrr": s} for n, s in zip(report.prior_names, report.scores)]
    analysis.write_table(args.out, rows, ["prior", "mrr"])
    for row in rows:
        print(f"{row['prior']}: {row['mrr']:.4f}")
    return 0


def cmd_top_edges(args):
    model = BrainTAP.load(args.checkpoint)
    subjects, priors, manifest = data.load_cohort(args.cohort_dir)
    subset = pipeline.split_subjects(subjects, manifest, args.split)
    rows = analysis.export_top_edges(model, subset, priors, args.fraction)
    analysis.write_table(args.out, rows, ["roi_i", "roi_j", "gate", "label"])
    print(f"wrote {len(rows)} edges to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="braintap",
        description="Dual-modality brain-network transformer: train, evaluate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic planted-signal cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=600)
    p.add_argument("--rois", type=int, default=20)
    p.add_argument("--priors", type=int, default=2)
    p.add_argument("--signal", type=float, default=0.4)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sc-block", type=int, default=None,
                   help="prior block receiving the SC signal (default: 2, or 1 if K=1)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a cohort")
    p.add_argument("--config", default=None)
    p.add_argument("--cohort-dir", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--metrics", default=None, help="per-epoch metrics CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="AUC of a checkpoint on a cohort split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort-dir", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train full model and component-removal variants")
    p.add_argument("--config", default=None)
    p.add_argument("--cohort-dir", required=True)
    p.add_argument("--out", required=True, help="ablation table CSV")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("ratios", help="per-layer distill-intact ratio table")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ratios)

    p = sub.add_parser("mrr", help="mean reciprocal rank of priors under the gates")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--include-free", action="store_true")
    p.add_argument("--aggregator", default="mean", choices=analysis.AGGREGATORS)
    p.set_defaults(func=cmd_mrr)

    p = sub.add_parser("top-edges", help="highest-gate connections with prior labels")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, default=0.0001)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_top_edges)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
