"""Tests of the benchmark itself: a clean round on a tiny cohort passes every
check, each check reports a corrupted output, and the tracer reports
every per-layer metric named in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import run

sys.path.insert(0, str(run.SRC))
from braintap import cli, encoder  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = dict(train=(40, 8, 2), score=None, epochs=2,
            model=dict(d=8, n_layers=2, n_heads=2, d_distill=8, z_dim=4))
BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def clean_round(tmp_path_factory):
    record = run.Record()
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(run.WORKLOADS, "tiny", TINY)
        wl = run.Workload(cli, "tiny", 5, tmp_path_factory.mktemp("bench"), record)
    wl.check_cohorts(record)
    _, out = wl.run_round(cli, record)
    return wl, record, out


def failed_checks(wl, out):
    failed = []
    for name, thunk in wl.checker.checks(out):
        try:
            thunk()
        except Exception:
            failed.append(name)
    return failed


def test_clean_round_passes_every_check(clean_round):
    wl, record, out = clean_round
    assert record.failed == 0
    # generate + cohort check, then 5 commands and 5 checks per round
    assert record.attempted == 2 + 10
    assert failed_checks(wl, out) == []
    # negating the head turns the AUC into 1 - AUC, a change unless it is 0.5
    assert checks.printed_value(out["stdout"]["evaluate"], "test_auc") != 0.5


# -- corruptions: each names the check that must report it -------------------

def shift_printed(text, key):
    value = checks.printed_value(text, key)
    new = value + 0.1 if value <= 0.9 else value - 0.1
    return text.replace(f"{key}={value:.10g}", f"{key}={new:.10g}")


def edit_table(path, edit):
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(edit(lines)) + "\n")


def edit_checkpoint(path, edit):
    with np.load(path, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files}
    edit(arrays)
    np.savez(path, **arrays)


def swap_distinct_edges(lines):
    gates = [line.split(",")[2] for line in lines[1:]]
    k = next(i for i in range(1, len(gates)) if gates[i] != gates[i - 1])
    lines[k], lines[k + 1] = lines[k + 1], lines[k]
    return lines


def bump_cell(lines, row, col, delta):
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) + delta:.10g}"
    lines[row] = ",".join(cells)
    return lines


def swap_mrr_values(lines):
    values = [line.split(",")[1] for line in lines[1:]]
    a = 0
    b = next(i for i in range(1, len(values)) if values[i] != values[0])
    rows = [line.split(",") for line in lines[1:]]
    rows[a][1], rows[b][1] = rows[b][1], rows[a][1]
    return lines[:1] + [",".join(r) for r in rows]


def relabel_edge(lines):
    cells = lines[1].split(",")
    cells[3] = "block1" if cells[3] != "block1" else "free"
    lines[1] = ",".join(cells)
    return lines


def set_flag(arrays):
    cfg = json.loads(str(arrays["config_json"]))
    cfg["layer_norm"] = True
    arrays["config_json"] = np.array(json.dumps(cfg))


def negate_head(arrays):
    for name in ("head.mlp.w2", "head.mlp.b2"):
        arrays[f"param:{name}"] = -arrays[f"param:{name}"]


def perturb(name, delta):
    def edit(arrays):
        arrays[f"param:{name}"] = arrays[f"param:{name}"] + delta
    return edit


CORRUPTIONS = {
    "train_test_auc_digit": ("check.train", lambda o: o["stdout"].update(
        train=shift_printed(o["stdout"]["train"], "test_auc"))),
    "train_val_auc_digit": ("check.train", lambda o: o["stdout"].update(
        train=shift_printed(o["stdout"]["train"], "val_auc"))),
    "metrics_val_auc_cell": ("check.train", lambda o: edit_table(
        o["metrics"], lambda ls: bump_cell(ls, 1, 2, 0.5))),
    "metrics_epoch_missing": ("check.train", lambda o: edit_table(o["metrics"], lambda ls: ls[:-1])),
    "evaluate_auc_digit": ("check.evaluate", lambda o: o["stdout"].update(
        evaluate=shift_printed(o["stdout"]["evaluate"], "test_auc"))),
    "mrr_cell": ("check.mrr", lambda o: edit_table(o["mrr"], lambda ls: bump_cell(ls, 1, 1, 0.01))),
    "mrr_values_swapped": ("check.mrr", lambda o: edit_table(o["mrr"], swap_mrr_values)),
    "edges_rows_swapped": ("check.top_edges", lambda o: edit_table(o["edges"], swap_distinct_edges)),
    "edges_row_dropped": ("check.top_edges", lambda o: edit_table(o["edges"], lambda ls: ls[:-1])),
    "edge_label": ("check.top_edges", lambda o: edit_table(o["edges"], relabel_edge)),
    "edge_gate_digit": ("check.top_edges", lambda o: edit_table(
        o["edges"], lambda ls: bump_cell(ls, len(ls) - 1, 2, -1e-4))),
    "checkpoint_gate_array": ("check.top_edges", lambda o: edit_checkpoint(
        o["checkpoint"], perturb("spf.wg0", 0.5))),
    "checkpoint_head_arrays": ("check.evaluate", lambda o: edit_checkpoint(o["checkpoint"], negate_head)),
    "checkpoint_ratio_array": ("check.ratios", lambda o: edit_checkpoint(
        o["checkpoint"], perturb("amd0.raw_gamma", 0.1))),
    "checkpoint_unused_flag": ("check.train", lambda o: edit_checkpoint(o["checkpoint"], set_flag)),
    "ratios_cell": ("check.ratios", lambda o: edit_table(o["ratios"], lambda ls: bump_cell(ls, 1, 1, 1e-3))),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_check_reports_corrupted_output(clean_round, tmp_path, corruption):
    wl, _, out = clean_round
    check, corrupt = CORRUPTIONS[corruption]
    copy = {k: Path(shutil.copy(v, tmp_path / Path(v).name)) for k, v in out.items() if k != "stdout"}
    copy["stdout"] = dict(out["stdout"])
    corrupt(copy)
    assert check in failed_checks(wl, copy)


COHORT_CORRUPTIONS = {
    "asymmetric_matrix": lambda d, m: bump_matrix(d / m["subjects"][0]["fc"], 0, 1, 0.5),
    "nonzero_diagonal": lambda d, m: bump_matrix(d / m["subjects"][0]["sc"], 2, 2, 0.5),
    "label_flipped": lambda d, m: m["subjects"][0].update(label=1 - m["subjects"][0]["label"]),
    "split_moved": lambda d, m: [s.update(split="train") for s in m["subjects"][:6]],
    "subject_missing": lambda d, m: m["subjects"].pop(),
}


def bump_matrix(path, i, j, delta):
    mat = ref.read_matrix(path)
    mat[i, j] += delta
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in mat) + "\n")


@pytest.mark.parametrize("corruption", sorted(COHORT_CORRUPTIONS))
def test_cohort_check_reports_corrupted_cohort(clean_round, tmp_path, corruption):
    wl, _, _ = clean_round
    cohort = Path(shutil.copytree(wl.dirs["train"], tmp_path / "cohort"))
    manifest = ref.read_manifest(cohort)
    COHORT_CORRUPTIONS[corruption](cohort, manifest)
    (cohort / "manifest.json").write_text(json.dumps(manifest))
    n, rois, priors = TINY["train"]
    with pytest.raises(checks.CheckFailure):
        checks.check_cohort(cohort, n, rois, priors, n_sampled=n)


def test_auc_bounds_match_pair_count():
    probs = np.array([0.9, 0.2, 0.6, 0.6, 0.1])
    labels = np.array([1, 0, 1, 0, 0])
    # pairs: 0.9 beats all three negatives; 0.6 beats 0.2 and 0.1, ties 0.6
    assert ref.auc_bounds(probs, labels) == (5 / 6, 6 / 6)


# -- tracing ------------------------------------------------------------------

def test_traced_round_reports_every_per_layer_metric(clean_round):
    wl, _, _ = clean_round
    tracer = Tracer()
    tracer.install()
    try:
        wl.run_round(cli, run.Record(), tracer)
    finally:
        tracer.uninstall()
    metrics, missing = wl.per_layer(tracer.span_stats(), tracer, 1, 0.1)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[k] == u for k, (_, u) in metrics.items())
    assert missing == []
    assert metrics["model.forward_calls"][0] > 0
    assert metrics["autograd.tape_nodes_per_subject"][0] > 0


def test_tracer_marks_missing_names_absent_and_restores_originals(monkeypatch):
    original = encoder.embed_tokens
    monkeypatch.delattr(encoder, "classify")
    tracer = Tracer()
    tracer.install()
    try:
        assert "encoder.classify" in tracer.absent
        assert encoder.embed_tokens is not original
    finally:
        tracer.uninstall()
    assert encoder.embed_tokens is original


def test_end_to_end_metrics_match_benchmark_json(clean_round):
    wl, _, _ = clean_round
    rounds = [{"train": 1.0, "evaluate": 1.0, "mrr": 1.0, "top-edges": 1.0}]
    metrics = wl.end_to_end(rounds, 1.0)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
