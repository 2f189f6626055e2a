#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of braintap, driven through its CLI.

    python3 perfbench/run.py --workload train_roi20 --seed 1 --seconds 35 --trace 0

Run from the root of a braintap checkout. The program is imported from the
checkout's src/ and driven in this process through braintap.cli.main with
the documented commands and file formats. Set-up generates the workload's
cohort(s) from --seed; then whole rounds of train, evaluate, mrr,
top-edges and ratios repeat while one more round is expected to end
within --seconds, and every round's outputs are checked against
perfbench's own reference computations (checks.py).

With --trace 0 the last stdout line is one JSON object holding the
end-to-end metrics (medians over rounds); with --trace 1 it holds the
per-layer metrics of traced rounds, which alternate with untraced ones
so that the tracing overhead is measured too, and the spans are written
to perfbench/out/. See perfbench/README.md.
"""
import time

STARTED = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SIGNAL, NOISE = 0.4, 0.2  # planted-signal cohort settings of braintap.benchmark.COHORT
ROI20_MODEL = dict(d=16, n_layers=3, n_heads=2, d_distill=16, z_dim=8)
ROI100_MODEL = dict(d=64, n_layers=3, n_heads=4, d_distill=64, z_dim=32)
OPTIMISER = dict(batch_size=32, learning_rate=3e-3, amd_lr_scale=10.0,
                 hyper_lr_scale=10.0, gspf_lr_scale=25.0)
FRACTION = 0.05  # top-edges fraction
SPLIT = "test"  # the split evaluate, mrr and top-edges score

# train/score: (subjects, ROIs, priors) of the cohort each side uses; the
# score cohort, when separate, is generated with seed + 1.
WORKLOADS = {
    "train_roi20": dict(train=(600, 20, 2), score=None, model=ROI20_MODEL, epochs=3),
    "train_roi100": dict(train=(150, 100, 4), score=None, model=ROI100_MODEL, epochs=2),
    "score_roi20": dict(train=(600, 20, 2), score=(4000, 20, 2), model=ROI20_MODEL, epochs=2),
}

REPORTED_OPS = ("add", "sub", "scale", "hadamard", "matmul", "transpose", "relu", "sigmoid",
                "row_softmax", "kl_div", "mean_rows", "concat_cols", "slice_cols", "sym0",
                "bce_with_logits")


class Record:
    """Operations attempted (CLI commands and checks) and those that failed."""

    def __init__(self):
        self.attempted = self.failed = 0

    def op(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: {name} failed: {detail}", file=sys.stderr)

    def check(self, name, thunk):
        try:
            thunk()
        except Exception as e:  # any exception of a check is that check failing
            self.op(name, False, f"{type(e).__name__}: {e}")
        else:
            self.op(name, True)


def call(cli, argv):
    """One braintap command in this process; (succeeded, captured stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    except (Exception, SystemExit) as e:
        print(f"perfbench: braintap {argv[0]} raised {e!r}", file=sys.stderr)
        rc = 1
    return rc == 0, buf.getvalue()


class Workload:
    """A workload's cohorts, config and split sizes, generated in set-up."""

    def __init__(self, cli, name, seed, work, record):
        spec = WORKLOADS[name]
        self.epochs, self.work = spec["epochs"], work
        self.dirs = {}
        for role, role_seed in (("train", seed), ("score", seed + 1)):
            if spec[role] is None:
                continue
            n, rois, priors = spec[role]
            self.dirs[role] = work / f"{role}_cohort"
            ok, text = call(cli, ["generate", "--out", self.dirs[role], "--subjects", n,
                                  "--rois", rois, "--priors", priors, "--signal", SIGNAL,
                                  "--noise", NOISE, "--seed", role_seed])
            record.op(f"braintap.generate.{role}", ok, text)
        self.dirs.setdefault("score", self.dirs["train"])
        self.config = work / "config.json"
        self.config.write_text(json.dumps(
            {**spec["model"], **OPTIMISER, "epochs": self.epochs, "patience": self.epochs,
             "seed": seed}, indent=1))
        self.specs = {role: spec[role] for role in ("train", "score") if spec[role]}

    def check_cohorts(self, record):
        """Check the generated cohorts, and read the split sizes that the
        metrics divide by."""
        import checks
        for role, (n, rois, priors) in self.specs.items():
            record.check(f"check.cohort.{role}",
                         lambda: checks.check_cohort(self.dirs[role], n, rois, priors))
        self.checker = checks.OutputChecker(self.dirs["train"], self.dirs["score"],
                                            self.epochs, FRACTION, SPLIT)
        splits = [s["split"] for s in json.loads((self.dirs["train"] / "manifest.json").read_text())["subjects"]]
        self.n_train, self.n_val, self.n_test = (splits.count(s) for s in ("train", "val", "test"))
        scored = json.loads((self.dirs["score"] / "manifest.json").read_text())["subjects"]
        self.n_scored = sum(s["split"] == SPLIT for s in scored)
        self.n_generated = sum(n for n, _, _ in self.specs.values())

    def run_round(self, cli, record, tracer=None):
        """One round of commands, then the checks of its outputs; returns
        the wall seconds of each command and the outputs checked."""
        r = self.work / "round"
        shutil.rmtree(r, ignore_errors=True)
        r.mkdir()
        out = dict(checkpoint=r / "model.npz", metrics=r / "metrics.csv",
                   mrr=r / "mrr.csv", edges=r / "edges.csv", ratios=r / "ratios.csv", stdout={})
        score = ["--checkpoint", out["checkpoint"], "--cohort-dir", self.dirs["score"],
                 "--split", SPLIT]
        commands = [
            ("train", ["train", "--config", self.config, "--cohort-dir", self.dirs["train"],
                       "--out", out["checkpoint"], "--metrics", out["metrics"]]),
            ("evaluate", ["evaluate", *score]),
            ("mrr", ["mrr", *score, "--out", out["mrr"], "--include-free"]),
            ("top-edges", ["top-edges", *score, "--out", out["edges"], "--fraction", FRACTION]),
            ("ratios", ["ratios", "--checkpoint", out["checkpoint"], "--out", out["ratios"]]),
        ]
        seconds = {}
        for name, argv in commands:
            gc.collect()  # each command starts with no garbage left by the last
            start = time.perf_counter()
            if tracer is None:
                ok, text = call(cli, argv)
            else:
                ok, text = tracer.span(f"cli.{name}", call, cli, argv)
            seconds[name] = time.perf_counter() - start
            record.op(f"braintap.{name}", ok, text.strip())
            out["stdout"][name] = text
        start = time.perf_counter()
        for name, thunk in self.checker.checks(out):
            record.check(name, thunk)
        print("perfbench: round " + ", ".join(f"{k} {v:.3f} s" for k, v in seconds.items())
              + f"; checks {time.perf_counter() - start:.3f} s", file=sys.stderr)
        return seconds, out

    def end_to_end(self, rounds, setup_s):
        median = statistics.median
        return {
            "setup_s": (setup_s, "s"),
            "train_subjects_per_s": (median(self.epochs * self.n_train / s["train"] for s in rounds),
                                     "subjects/s"),
            "evaluate_subjects_per_s": (median(self.n_scored / s["evaluate"] for s in rounds),
                                        "subjects/s"),
            "analyze_subjects_per_s": (median(2 * self.n_scored / (s["mrr"] + s["top-edges"])
                                              for s in rounds), "subjects/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self, stats, tracer, n_rounds, overhead_s):
        """Per-layer metrics from the span stats of set-up and n_rounds traced rounds.

        "Per subject" divides by the subjects the benchmark sent through
        that step, counted from the commands it ran, not from the program.
        """
        e, r = self.epochs, n_rounds
        trained = e * self.n_train * r
        validated = (e * self.n_val + self.n_test) * r
        predicted = validated + self.n_scored * r
        gated = 2 * self.n_scored * r
        passes = trained + predicted + gated
        useful = (self.n_train + self.n_val + self.n_test + 3 * self.n_scored) * r
        first_batch = min(OPTIMISER["batch_size"], self.n_train)
        absent = set(tracer.absent) | {f"autograd.{op}" for op in REPORTED_OPS if op not in tracer.ops}
        metrics, missing = {}, []

        def field(name, key="total_s"):
            return stats.get(name, {}).get(key, 0.0)

        def put(metric, num, den, unit, *sources):
            if absent.intersection(sources) or not den:
                missing.append(metric)
                metrics[metric] = (0.0, unit)
            else:
                metrics[metric] = (num / den, unit)

        put("data.generate_ms_per_subject", 1e3 * field("data.generate_synthetic_cohort"),
            self.n_generated, "ms/subject", "data.generate_synthetic_cohort")
        loaded = tracer.subjects_loaded
        put("data.load_ms_per_subject", 1e3 * field("data.load_cohort"), loaded, "ms/subject",
            "data.load_cohort")
        put("data.subjects_loaded", loaded, r, "count", "data.load_cohort")
        put("data.mb_read", tracer.bytes_loaded / 1e6, r if tracer.bytes_loaded else 0, "MB",
            "data.load_cohort")
        put("data.load_useful_ratio", useful, loaded, "ratio", "data.load_cohort")
        put("autograd.backward_ms_per_subject", 1e3 * field("autograd.Tensor.backward"), trained,
            "ms/subject", "autograd.Tensor.backward")
        put("autograd.tape_nodes_per_subject", tracer.tape_nodes or 0, first_batch, "nodes/subject",
            "autograd.Tensor.backward")
        for op in REPORTED_OPS:
            calls, secs = tracer.ops.get(op, (0, 0.0))
            put(f"autograd.op_calls_per_subject.{op}", calls, passes, "calls/subject", f"autograd.{op}")
            put(f"autograd.op_ms_per_subject.{op}", 1e3 * secs, passes, "ms/subject", f"autograd.{op}")
        put("model.forward_ms_per_subject", 1e3 * field("model.BrainTAP.forward"), passes,
            "ms/subject", "model.BrainTAP.forward")
        put("model.forward_calls", field("model.BrainTAP.forward", "calls"), r, "count",
            "model.BrainTAP.forward")
        put("model.predict_ms_per_subject", 1e3 * field("model.BrainTAP.predict"), predicted,
            "ms/subject", "model.BrainTAP.predict")
        put("model.gate_for_ms_per_subject", 1e3 * field("model.BrainTAP.gate_for"), gated,
            "ms/subject", "model.BrainTAP.gate_for")
        for what in ("save", "load"):
            name = f"model.BrainTAP.{what}"
            put(f"model.{what}_ms", 1e3 * field(name), field(name, "calls"), "ms", name)
        put("encoder.embed_tokens_ms_per_subject", 1e3 * field("encoder.embed_tokens"), passes,
            "ms/subject", "encoder.embed_tokens")
        put("encoder.encoder_layer_self_ms_per_subject", 1e3 * field("encoder.encoder_layer", "self_s"),
            passes, "ms/subject", "encoder.encoder_layer", "nn.Mlp.__call__")
        put("encoder.classify_ms_per_subject", 1e3 * field("encoder.classify"), passes,
            "ms/subject", "encoder.classify")
        put("nn.mlp_ms_per_subject", 1e3 * field("nn.Mlp.__call__"), passes, "ms/subject",
            "nn.Mlp.__call__")
        put("nn.mlp_calls_per_subject", field("nn.Mlp.__call__", "calls"), passes, "calls/subject",
            "nn.Mlp.__call__")
        put("amd.amd_exchange_self_ms_per_subject", 1e3 * field("amd.amd_exchange", "self_s"), passes,
            "ms/subject", "amd.amd_exchange", "nn.Mlp.__call__")
        put("spf.subject_embedding_ms_per_subject", 1e3 * field("spf.subject_embedding"), passes,
            "ms/subject", "spf.subject_embedding")
        put("spf.score_matrix_ms_per_subject", 1e3 * field("spf.score_matrix"), passes,
            "ms/subject", "spf.score_matrix")
        put("spf.gate_ms_per_subject", 1e3 * (field("spf.gate") + field("spf.attention_bias")),
            passes, "ms/subject", "spf.gate", "spf.attention_bias")
        put("pipeline.adamw_step_ms", 1e3 * field("pipeline.AdamW.step"),
            field("pipeline.AdamW.step", "calls"), "ms", "pipeline.AdamW.step")
        put("pipeline.adamw_steps", field("pipeline.AdamW.step", "calls"), r, "count",
            "pipeline.AdamW.step")
        put("pipeline.total_loss_ms_per_subject", 1e3 * field("pipeline.total_loss"), trained,
            "ms/subject", "pipeline.total_loss")
        put("pipeline.validation_ms_per_subject", 1e3 * field("pipeline.evaluate_auc", "under_train_s"),
            validated, "ms/subject", "pipeline.evaluate_auc", "pipeline.train")
        put("analysis.analyze_mrr_self_ms", 1e3 * field("analysis.analyze_mrr", "self_s"), r, "ms",
            "analysis.analyze_mrr", "model.BrainTAP.gate_for")
        put("analysis.export_top_edges_self_ms", 1e3 * field("analysis.export_top_edges", "self_s"),
            r, "ms", "analysis.export_top_edges", "model.BrainTAP.gate_for")
        metrics["trace.overhead_s"] = (overhead_s, "s")
        return metrics, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braintap" / "cli.py").is_file():
        print(f"perfbench: no braintap source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from braintap import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported braintap from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = Record()
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        wl = Workload(cli, args.workload, args.seed, work, record)
        setup_s = time.perf_counter() - STARTED
        if tracer:
            tracer.uninstall()
        wl.check_cohorts(record)
        print(f"perfbench: set-up {setup_s:.3f} s, cohort checks done at "
              f"{time.perf_counter() - STARTED:.3f} s", file=sys.stderr)

        # whole rounds, for as long as one more is expected to end within --seconds
        rounds, traced = [], []
        start = time.perf_counter()
        last = 0.0
        while not rounds or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            rounds.append(wl.run_round(cli, record)[0])
            if tracer:
                tracer.install()
                try:
                    traced.append(wl.run_round(cli, record, tracer)[0])
                finally:
                    tracer.uninstall()
            last = time.perf_counter() - began

        if tracer is None:
            metrics = wl.end_to_end(rounds, setup_s)
        else:
            overhead = (statistics.median(sum(s.values()) for s in traced)
                        - statistics.median(sum(s.values()) for s in rounds))
            stats = tracer.span_stats()
            metrics, missing = wl.per_layer(stats, tracer, len(traced), overhead)
            if missing:
                print(f"perfbench: absent from this program: {', '.join(missing)}", file=sys.stderr)
            write_trace(args, tracer, stats, missing, metrics)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def machine():
    """The fields that decide how fast numpy code runs here."""
    import os
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_trace(args, tracer, stats, missing, metrics):
    """Every span recorded, and the totals per span name and per op."""
    spans = tracer.spans
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "workload": args.workload, "seed": args.seed, "machine": machine(),
        "absent_targets": tracer.absent, "absent_metrics": missing,
        "span_names": names,
        "spans": [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p]
                  for n, a, b, p in spans],
        "span_totals": stats,
        "op_totals": {op: {"calls": c, "total_s": s} for op, (c, s) in tracer.ops.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))
    print(f"perfbench: wrote {path.relative_to(HERE.parent)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
