import json

import numpy as np
import pytest

from braintap import cli, data
from braintap.config import TrainConfig

TINY_CFG = dict(
    d=8, n_layers=2, n_heads=2, z_dim=4, d_distill=8,
    epochs=2, batch_size=8, learning_rate=1e-3,
)


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "cohort"
    assert run(["generate", "--out", str(out), "--subjects", "20", "--rois", "8",
                "--priors", "2", "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(TrainConfig(**TINY_CFG).to_json())
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, cohort_dir, cfg_path):
    out = tmp_path_factory.mktemp("run")
    ckpt = out / "model.npz"
    assert run(["train", "--config", str(cfg_path), "--cohort-dir", str(cohort_dir),
                "--out", str(ckpt), "--metrics", str(out / "metrics.csv")]) == 0
    return ckpt


def test_generate_round_trips(cohort_dir):
    subjects, priors, manifest = data.load_cohort(cohort_dir)
    assert len(subjects) == 20
    assert len(priors) == 2


def test_train_determinism(tmp_path, cohort_dir, cfg_path):
    metrics = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.npz"
        m = tmp_path / f"{tag}.csv"
        assert run(["train", "--config", str(cfg_path), "--cohort-dir", str(cohort_dir),
                    "--out", str(ckpt), "--metrics", str(m)]) == 0
        metrics.append(m.read_bytes())
    assert metrics[0] == metrics[1]


def test_evaluate(checkpoint, cohort_dir, capsys):
    assert run(["evaluate", "--checkpoint", str(checkpoint),
                "--cohort-dir", str(cohort_dir)]) == 0
    assert "test_auc=" in capsys.readouterr().out


def test_ratios_table_shape(checkpoint, tmp_path):
    out = tmp_path / "ratios.csv"
    assert run(["ratios", "--checkpoint", str(checkpoint), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "layer,fc_ratio,sc_ratio"
    assert len(lines) == 1 + 2  # header + one row per layer


def test_mrr_table(checkpoint, cohort_dir, tmp_path):
    out = tmp_path / "mrr.csv"
    assert run(["mrr", "--checkpoint", str(checkpoint), "--cohort-dir", str(cohort_dir),
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "prior,mrr"
    assert len(lines) == 3


def test_top_edges_table(checkpoint, cohort_dir, tmp_path):
    out = tmp_path / "edges.csv"
    assert run(["top-edges", "--checkpoint", str(checkpoint),
                "--cohort-dir", str(cohort_dir), "--out", str(out),
                "--fraction", "0.2"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "roi_i,roi_j,gate,label"
    assert len(lines) == 1 + 6  # ceil(0.2 * 28)


def test_ablate_table(cohort_dir, cfg_path, tmp_path):
    out = tmp_path / "ablation.csv"
    assert run(["ablate", "--config", str(cfg_path), "--cohort-dir", str(cohort_dir),
                "--out", str(out), "--seeds", "0"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6  # header + one row per variant of ABLATION_VARIANTS
    assert lines[0] == "variant,mean_auc,sd_auc"


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert run(["evaluate", "--checkpoint", str(tmp_path / "nope.npz"),
                "--cohort-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_old_checkpoint_version_is_error(checkpoint, cohort_dir, tmp_path, capsys):
    with np.load(checkpoint) as archive:
        arrays = dict(archive)
    arrays["checkpoint_version"] = np.array(1)
    old = tmp_path / "old.npz"
    np.savez(old, **arrays)
    assert run(["evaluate", "--checkpoint", str(old), "--cohort-dir", str(cohort_dir)]) == 1
    assert "unsupported checkpoint version" in capsys.readouterr().err


def test_bad_config_key_is_error(tmp_path, cohort_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rte": 0.1}))
    assert run(["train", "--config", str(bad), "--cohort-dir", str(cohort_dir),
                "--out", str(tmp_path / "m.npz")]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_analysis_commands_do_not_mutate_inputs(checkpoint, cohort_dir, tmp_path):
    before = {p.name: p.read_bytes() for p in sorted(cohort_dir.iterdir())}
    ckpt_before = checkpoint.read_bytes()
    run(["mrr", "--checkpoint", str(checkpoint), "--cohort-dir", str(cohort_dir),
         "--out", str(tmp_path / "m.csv")])
    run(["top-edges", "--checkpoint", str(checkpoint), "--cohort-dir", str(cohort_dir),
         "--out", str(tmp_path / "e.csv"), "--fraction", "1.0"])
    after = {p.name: p.read_bytes() for p in sorted(cohort_dir.iterdir())}
    assert before == after
    assert checkpoint.read_bytes() == ckpt_before


def rewrite_checkpoint(checkpoint, path, edit):
    with np.load(checkpoint) as archive:
        arrays = dict(archive)
    edit(arrays)
    np.savez(path, **arrays)
    return path


def test_checkpoint_missing_parameter_is_error(checkpoint, cohort_dir, tmp_path, capsys):
    bad = rewrite_checkpoint(checkpoint, tmp_path / "missing.npz",
                             lambda a: a.pop("param:head.mlp.b2"))
    assert run(["evaluate", "--checkpoint", str(bad), "--cohort-dir", str(cohort_dir)]) == 1
    err = capsys.readouterr().err
    assert "missing ['head.mlp.b2']" in err
    assert "extra []" in err


def test_checkpoint_extra_parameter_is_error(checkpoint, cohort_dir, tmp_path, capsys):
    bad = rewrite_checkpoint(checkpoint, tmp_path / "extra.npz",
                             lambda a: a.update({"param:extra": np.zeros((1, 1))}))
    assert run(["evaluate", "--checkpoint", str(bad), "--cohort-dir", str(cohort_dir)]) == 1
    err = capsys.readouterr().err
    assert "missing []" in err
    assert "extra ['extra']" in err
