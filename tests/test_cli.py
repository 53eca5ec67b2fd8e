"""Subcommand behavior, exit codes, config handling, pipeline determinism."""

import re

import numpy as np
import pytest

from qbde.bde import read_score_csv, read_summary
from qbde.checkpoint import load_checkpoint
from qbde.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    load_config,
    main,
)
from qbde.errors import ConfigError


def fast_flags(tmp_path, seed=0):
    """Small, quick pipeline: 45 days split 30/15, shallow circuit."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input_dir = {tmp_path / 'data'}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "n_days = 45\n"
        "train_days = 30\n"
        "test_days = 15\n"
        "anomaly_rate = 0.1\n"
        "k = 2\n"
        "epochs = 4\n"
        "batch = 8\n"
        "bde_epochs = 10\n"
        f"seed = {seed}\n",
        encoding="utf-8")
    return ["--config", str(cfg)]


def run_pipeline(tmp_path, seed=0, extra=()):
    flags = fast_flags(tmp_path, seed)
    for step in ("synth", "ingest", "train", "detect"):
        assert main([step, *flags, *extra]) == EXIT_OK
    return tmp_path / "out"


# --------------------------------------------------------------------------
# Config handling
# --------------------------------------------------------------------------

def test_load_config_parses_and_aliases(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment\nlambda = 0.3\nk = 4\nseed = 9\nsampled = true\n",
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.lam == 0.3
    assert cfg.k == 4
    assert cfg.seed == 9
    assert cfg.sampled is True


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("frobnicate = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_cli_flag_overrides_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("seed = 1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(path), "--seed", "2",
                 "--input-dir", str(tmp_path / "d")]) == EXIT_OK
    report = (tmp_path / "d" / "synth_report.txt").read_text()
    cfg = load_config(path)
    cfg.seed = 2
    cfg.input_dir = str(tmp_path / "d")
    assert cfg.digest() in report


def test_bad_n_qubits_is_config_error(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("n_qubits = 3\n", encoding="utf-8")
    assert main(["synth", "--config", str(path)]) == EXIT_CONFIG


def test_bad_lambda_is_config_error(tmp_path):
    assert main(["detect", "--lambda", "1.5", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_missing_features_is_io_error(tmp_path):
    assert main(["train", "--out", str(tmp_path / "nope")]) == EXIT_IO


def test_malformed_scores_is_validation_error(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "scores.csv").write_text("bogus,header\n1,2\n", encoding="utf-8")
    (out / "detect_summary.txt").write_text("qbde-detection-summary\n",
                                            encoding="utf-8")
    assert main(["report", "--out", str(out)]) == EXIT_VALIDATION


def test_digest_changes_with_config():
    a, b = RunConfig(), RunConfig(seed=1)
    assert a.digest() != b.digest()
    assert a.digest() == RunConfig().digest()


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def test_synth_writes_all_files(tmp_path):
    assert main(["synth", *fast_flags(tmp_path)]) == EXIT_OK
    data = tmp_path / "data"
    for name in ("login.csv", "http.csv", "device.csv", "email.csv",
                 "file.csv", "labels.csv", "synth_report.txt"):
        assert (data / name).exists()


def test_synth_zero_rate_labels_all_normal(tmp_path):
    cfgfile = tmp_path / "z.cfg"
    cfgfile.write_text(f"input_dir = {tmp_path/'d'}\nn_days = 10\n"
                       "anomaly_rate = 0.0\n", encoding="utf-8")
    assert main(["synth", "--config", str(cfgfile)]) == EXIT_OK
    labels = (tmp_path / "d" / "labels.csv").read_text()
    assert "abnormal" not in labels


def test_ingest_writes_features_and_report(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    assert main(["ingest", *flags]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("features_raw.csv", "features_train.csv", "features_test.csv",
                 "norm_stats.csv", "parse_report.txt"):
        assert (out / name).exists()
    report = (out / "parse_report.txt").read_text()
    assert "split.test_rows = 15" in report


def test_train_writes_checkpoint_and_losses(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags]) == EXIT_OK
    out = tmp_path / "out"
    assert (out / "qgan.ckpt").exists()
    loss_lines = (out / "loss_U0000.csv").read_text().splitlines()
    assert loss_lines[1] == "epoch,loss_g,loss_d,cross_entropy"
    assert len(loss_lines) == 2 + 4  # comment, header, one row per epoch


def test_train_zero_epochs_initial_checkpoint(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags, "--epochs", "0"]) == EXIT_OK
    out = tmp_path / "out"
    _, state = load_checkpoint(out / "qgan.ckpt")
    assert state.epoch == 0
    np.testing.assert_allclose(state.params.angles[0], np.pi / 2)
    assert len((out / "loss_U0000.csv").read_text().splitlines()) == 2


def test_resume_continues_identically(tmp_path):
    base = run_pipeline(tmp_path / "full", seed=3)
    full_rows = (base / "loss_U0000.csv").read_text().splitlines()[1:]

    part = tmp_path / "part"
    flags = fast_flags(part, seed=3)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags, "--epochs", "2"]) == EXIT_OK
    assert main(["train", *flags, "--epochs", "2", "--resume"]) == EXIT_OK
    resumed_rows = (part / "out" / "loss_U0000.csv").read_text().splitlines()[1:]
    assert resumed_rows == full_rows  # loss values, epoch ids match exactly


def test_detect_and_report(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    for name in ("scores.csv", "scores_train.csv", "detect_summary.txt"):
        assert (out / name).exists()
    summary = read_summary(out / "detect_summary.txt")
    assert summary["train_abnormal_verdicts"] == "0"
    assert float(summary[f"th_f.U0000"]) == 2 * float(summary[f"th_d.U0000"])
    assert main(["report", *fast_flags(tmp_path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "verdicts:" in text
    assert "Normal" in text


def test_detect_train_window_never_abnormal(tmp_path):
    out = run_pipeline(tmp_path, seed=5)
    train_scores = read_score_csv(out / "scores_train.csv")
    assert all(rec["verdict"] == "Normal" for rec in train_scores)


def test_lambda_extremes_share_error_columns(tmp_path):
    out0 = run_pipeline(tmp_path / "l0", extra=["--lambda", "0.0"])
    out1 = run_pipeline(tmp_path / "l1", extra=["--lambda", "1.0"])
    rec0 = read_score_csv(out0 / "scores.csv")
    rec1 = read_score_csv(out1 / "scores.csv")
    for a, b in zip(rec0, rec1):
        assert (a["user"], a["day"]) == (b["user"], b["day"])
        assert a["r_d"] == b["r_d"]
        assert a["r_n"] == b["r_n"]
        assert a["d"] == a["r_d"]
        assert b["d"] == b["r_n"]


def test_pipeline_runs_in_sampled_mode(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    main(["train", *flags])
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text() + "sampled = true\nshots = 256\n"
                       "reference_samples = 4\n", encoding="utf-8")
    assert main(["detect", "--config", str(cfgfile)]) == EXIT_OK
    a = read_score_csv(tmp_path / "out" / "scores.csv")
    assert len(a) == 15


def test_depth_sweep_writes_one_loss_csv_per_k(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    for k in (2, 4, 6, 8):
        out_k = str(tmp_path / f"k{k}")
        assert main(["ingest", *flags, "--out", out_k]) == EXIT_OK
        assert main(["train", *flags, "--k", str(k), "--epochs", "2",
                     "--out", out_k]) == EXIT_OK
    for k in (2, 4, 6, 8):
        lines = (tmp_path / f"k{k}" / "loss_U0000.csv").read_text().splitlines()
        assert lines[1] == "epoch,loss_g,loss_d,cross_entropy"
        assert len(lines) == 4  # comment, header, two epochs


def test_report_with_empty_test_set(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "scores.csv").write_text(
        "user,day,r_d,r_n,d,th_d,th_f,verdict,label\n", encoding="utf-8")
    (out / "detect_summary.txt").write_text(
        "qbde-detection-summary\nlambda = 0.1\nusers = U0000\n"
        "th_d.U0000 = 0.5\nth_f.U0000 = 1.0\ntest_records = 0\n",
        encoding="utf-8")
    assert main(["report", "--out", str(out)]) == EXIT_OK
    assert "no test records" in capsys.readouterr().out


def test_full_pipeline_is_byte_deterministic(tmp_path):
    out_a = run_pipeline(tmp_path / "a", seed=7)
    out_b = run_pipeline(tmp_path / "b", seed=7)
    for name in ("loss_U0000.csv", "scores.csv", "scores_train.csv",
                 "detect_summary.txt", "features_train.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_different_seed_changes_outputs(tmp_path):
    out_a = run_pipeline(tmp_path / "a", seed=0)
    out_b = run_pipeline(tmp_path / "b", seed=8)
    assert (out_a / "scores.csv").read_bytes() != (out_b / "scores.csv").read_bytes()


@pytest.mark.parametrize("size", ["inf", "1e400", "-inf", "nan"])
def test_ingest_counts_non_finite_device_size_as_malformed(tmp_path, size):
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    device = tmp_path / "data" / "device.csv"
    lines = device.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    row["size"] = size
    device.write_text("\n".join([*lines, ",".join(row[h] for h in header)]) + "\n",
                      encoding="utf-8")
    assert main(["ingest", *flags]) == EXIT_OK
    report = (tmp_path / "out" / "parse_report.txt").read_text()
    assert "file.device.malformed = 1\n" in report


@pytest.mark.parametrize("override", [["--k", "3"], ["--k", "1"]])
def test_resume_with_another_depth_is_config_error(tmp_path, override):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags, "--epochs", "1"]) == EXIT_OK
    ckpt = tmp_path / "out" / "qgan.ckpt"
    before = ckpt.read_bytes()
    assert main(["train", *flags, "--epochs", "1", "--resume",
                 *override]) == EXIT_CONFIG
    assert ckpt.read_bytes() == before


def test_resume_with_another_discriminator_is_config_error(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags, "--epochs", "1"]) == EXIT_OK
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text() + "hidden1 = 16\n", encoding="utf-8")
    assert main(["train", *flags, "--epochs", "1", "--resume"]) == EXIT_CONFIG


def _detect_with_tampered_checkpoint(tmp_path, capsys, pattern, repl):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    ckpt = tmp_path / "out" / "qgan.ckpt"
    text, n = re.subn(pattern, repl, ckpt.read_text(), count=1, flags=re.M)
    assert n == 1
    ckpt.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["detect", *flags])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("pattern, repl, key", [
    (r"^b0\.shape = 64$", "b0.shape = -1", "b0.shape"),
    (r"^m0\.shape = 3 4$", "m0.shape = -1 4", "opt_g.m0.shape"),
    (r"^w1\.shape = 32 64$", "w1.shape = 0 64", "w1.shape"),
], ids=["negative", "negative-moment", "zero"])
def test_checkpoint_with_non_positive_dimension_is_validation_error(
        tmp_path, capsys, pattern, repl, key):
    code, err = _detect_with_tampered_checkpoint(tmp_path, capsys, pattern, repl)
    assert code == EXIT_VALIDATION
    assert key in err


@pytest.mark.parametrize("pattern, repl, key", [
    (r"^m3\.shape = 64\nm3\.data = .*$", "m3.shape = 1\nm3.data = 0x0.0p+0",
     "opt_d.m3.shape"),
    (r"^v0\.shape = 3 4\nv0\.data = .*$", "v0.shape = 12\nv0.data = "
     + " ".join(["0x0.0p+0"] * 12), "opt_g.v0.shape"),
], ids=["opt_d-m3", "opt_g-v0-flattened"])
def test_checkpoint_moment_shape_mismatch_is_validation_error(
        tmp_path, capsys, pattern, repl, key):
    code, err = _detect_with_tampered_checkpoint(tmp_path, capsys, pattern, repl)
    assert code == EXIT_VALIDATION
    assert key in err


def test_checkpoint_moment_count_mismatch_is_validation_error(tmp_path, capsys):
    code, err = _detect_with_tampered_checkpoint(
        tmp_path, capsys, r"^n_arrays = 6$", "n_arrays = 5")
    assert code == EXIT_VALIDATION
    assert "opt_d.n_arrays" in err
