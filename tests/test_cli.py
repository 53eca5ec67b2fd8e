"""Subcommand behavior, exit codes, config handling, pipeline determinism."""

import builtins
import csv
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbde import checkpoint
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


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    path.write_bytes(b"seed = 1\ninput_dir = caf\xe9\n")
    assert main(["synth", "--config", str(path)]) == EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("setting", [
    "hidden1 = 0", "lr_g = 0", "bde_lr = 0", "bde_batch = 0", "bde_epochs = -1",
    "train_days = 0", "test_days = -1", "n_users = 0", "n_days = 0"])
def test_bad_setting_is_config_error_before_any_file_is_written(tmp_path, setting):
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text() + setting + "\n", encoding="utf-8")
    assert main(["synth", *flags]) == EXIT_CONFIG
    assert not (tmp_path / "data").exists()


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


SUMMARY = ("qbde-detection-summary\nconfig_digest = abc\nlambda = 0.1\n"
           "users = U0000\nth_d.U0000 = 0.5\nth_f.U0000 = 1.0\n"
           "test_records = 1\ncount.Normal = 0\ncount.Low_threat = 1\n"
           "count.High_threat = 0\ntrain_records = 0\n"
           "train_abnormal_verdicts = 0\naccuracy = 1.0\nconfusion.TP = 1\n"
           "confusion.TN = 0\nconfusion.FP = 0\nconfusion.FN = 0\n")
SCORES = ("# abc\nuser,day,r_d,r_n,d,th_d,th_f,verdict,label\n"
          "U0000,2011-01-02,0.7,0.7,0.7,0.5,1.0,Low_threat,abnormal\n")


def _report_out(tmp_path, scores=SCORES, summary=SUMMARY):
    out = tmp_path / "out"
    out.mkdir()
    (out / "scores.csv").write_text(scores, encoding="utf-8")
    (out / "detect_summary.txt").write_text(summary, encoding="utf-8")
    return out


def test_report_of_complete_summary(tmp_path, capsys):
    assert main(["report", "--out", str(_report_out(tmp_path))]) == EXIT_OK
    assert "accuracy: 1.0000  (TP 1, TN 0, FP 0, FN 0)" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["lambda", "users", "th_f.U0000",
                                 "count.High_threat", "confusion.FN"])
def test_report_of_incomplete_summary_is_validation_error(tmp_path, capsys, key):
    summary = re.sub(rf"^{re.escape(key)} = .*\n", "", SUMMARY, flags=re.M)
    assert summary != SUMMARY
    out = _report_out(tmp_path, summary=summary)
    assert main(["report", "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "detect_summary.txt" in err and key in err


def test_oversized_scores_field_is_validation_error(tmp_path, capsys):
    out = _report_out(tmp_path)
    _oversize_field(out / "scores.csv", 3, 7)
    assert main(["report", "--out", str(out)]) == EXIT_VALIDATION
    assert "scores.csv: line 3:" in capsys.readouterr().err


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


def _synth_with_device_rows(tmp_path, *sizes):
    """Synth logs plus copies of the first device row with these sizes;
    returns the flags and the copied row's user and day."""
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    device = tmp_path / "data" / "device.csv"
    lines = device.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    added = [",".join(size if h == "size" else row[h] for h in header)
             for size in sizes]
    device.write_text("\n".join([*lines, *added]) + "\n", encoding="utf-8")
    day = datetime.strptime(row["date"], "%m/%d/%Y %H:%M:%S").date()
    return flags, row["user"], day


@pytest.mark.parametrize("size", ["inf", "1e400", "-inf", "nan"])
def test_ingest_counts_non_finite_device_size_as_malformed(tmp_path, size):
    flags, _, _ = _synth_with_device_rows(tmp_path, size)
    assert main(["ingest", *flags]) == EXIT_OK
    report = (tmp_path / "out" / "parse_report.txt").read_text()
    assert "file.device.malformed = 1\n" in report


@pytest.mark.parametrize("size", ["-5", "-0.5", "-1e308"])
def test_ingest_counts_negative_device_size_as_malformed(tmp_path, size):
    flags, _, _ = _synth_with_device_rows(tmp_path, size)
    assert main(["ingest", *flags]) == EXIT_OK
    report = (tmp_path / "out" / "parse_report.txt").read_text()
    assert "file.device.malformed = 1\n" in report


def test_ingest_rejects_overflowing_device_size_total(tmp_path, capsys):
    # each size is finite, their sum is not
    flags, user, day = _synth_with_device_rows(tmp_path, "1e308", "1e308")
    capsys.readouterr()
    assert main(["ingest", *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"user {user} on {day}: device size total is not finite" in err
    assert not (tmp_path / "out" / "features_raw.csv").exists()


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


@pytest.mark.parametrize("argv, override, key", [
    (["train", "--resume"], "lr_g = 0.5", "lr_g"),
    (["detect"], "lr_g = 0.5", "lr_g"),
    (["detect"], "k = 3", "depth"),
], ids=["resume-lr_g", "detect-lr_g", "detect-depth"])
def test_checkpoint_trained_with_other_settings_is_config_error(
        tmp_path, capsys, argv, override, key):
    # the outputs' config digest would vouch for settings the run never used
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text() + override + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out / "qgan.ckpt") in err and f"{key} = " in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _run_with_tampered_checkpoint(tmp_path, capsys, pattern, repl,
                                 argv=("detect",)):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    ckpt = tmp_path / "out" / "qgan.ckpt"
    text, n = re.subn(pattern, repl, ckpt.read_text(), count=1, flags=re.M)
    assert n == 1
    ckpt.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main([*argv, *flags])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("pattern, repl, key", [
    (r"^b0\.shape = 64$", "b0.shape = -1", "b0.shape"),
    (r"^m0\.shape = 3 4$", "m0.shape = -1 4", "opt_g.m0.shape"),
    (r"^w1\.shape = 32 64$", "w1.shape = 0 64", "w1.shape"),
], ids=["negative", "negative-moment", "zero"])
def test_checkpoint_with_non_positive_dimension_is_validation_error(
        tmp_path, capsys, pattern, repl, key):
    code, err = _run_with_tampered_checkpoint(tmp_path, capsys, pattern, repl)
    assert code == EXIT_VALIDATION
    assert key in err


@pytest.mark.parametrize("argv", [("detect",), ("train", "--resume")],
                         ids=["detect", "resume"])
@pytest.mark.parametrize("pattern, repl, key", [
    (r"^n_layers = 3$", "n_layers = 0", "discriminator.n_layers"),
    (r"^n_layers = 3$", "n_layers = -1", "discriminator.n_layers"),
    (r"^state = \d+$", "state = -1", "rng.state"),
    (r"^state = \d+$", f"state = {2**128}", "rng.state"),
    (r"^inc = \d+$", "inc = -1", "rng.inc"),
    (r"^inc = \d+$", f"inc = {2**128 + 1}", "rng.inc"),
    (r"^uinteger = \d+$", "uinteger = -1", "rng.uinteger"),
    (r"^has_uint32 = \d+$", f"has_uint32 = {10**40}", "rng.has_uint32"),
    (r"^t = \d+$", "t = -1", "opt_g.t"),
    (r"^depth = 2$", "depth = 3", "disagree with [config]"),
    (r"^hidden = 64 32$", "hidden = 16 32", "disagree with [config]"),
    (r"^qbde-ckpt-v2$", "qbde-ckpt-v1", "qgan.ckpt: not a qbde-ckpt-v2 file"),
], ids=["no-layers", "negative-layers", "negative-state", "huge-state",
        "negative-inc", "huge-inc", "negative-uinteger", "huge-has_uint32",
        "negative-adam-step", "config-depth", "config-hidden", "v1-format"])
def test_checkpoint_with_out_of_range_value_is_validation_error(
        tmp_path, capsys, pattern, repl, key, argv):
    code, err = _run_with_tampered_checkpoint(tmp_path, capsys, pattern, repl,
                                              argv)
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
    code, err = _run_with_tampered_checkpoint(tmp_path, capsys, pattern, repl)
    assert code == EXIT_VALIDATION
    assert key in err


def test_checkpoint_moment_count_mismatch_is_validation_error(tmp_path, capsys):
    code, err = _run_with_tampered_checkpoint(
        tmp_path, capsys, r"^n_arrays = 6$", "n_arrays = 5")
    assert code == EXIT_VALIDATION
    assert "opt_d.n_arrays" in err


def _oversize_field(path, line, column):
    """Replace one field of ``path`` with one past ``csv.field_size_limit()``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = "x" * (csv.field_size_limit() + 1)
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_counts_oversized_field_as_malformed(tmp_path):
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    _oversize_field(tmp_path / "data" / "http.csv", 3, -1)
    assert main(["ingest", *flags]) == EXIT_OK
    report = (tmp_path / "out" / "parse_report.txt").read_text()
    assert "file.http.malformed = 1\n" in report


def test_oversized_labels_field_is_validation_error(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    _oversize_field(tmp_path / "data" / "labels.csv", 5, 2)
    assert main(["ingest", *flags]) == EXIT_VALIDATION
    assert "labels.csv: line 5:" in capsys.readouterr().err


def test_labels_with_invalid_date_is_validation_error(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    labels = tmp_path / "data" / "labels.csv"
    lines = labels.read_text(encoding="utf-8").splitlines()
    user, _, label = lines[2].split(",")
    lines[2] = f"{user},2011-13-04,{label}"
    labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", *flags]) == EXIT_VALIDATION
    assert "labels.csv: line 3: month must be in 1..12" in capsys.readouterr().err


def test_oversized_features_field_is_validation_error(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest"):
        assert main([step, *flags]) == EXIT_OK
    _oversize_field(tmp_path / "out" / "features_train.csv", 4, 0)
    assert main(["train", *flags]) == EXIT_VALIDATION
    assert "features_train.csv: line 4:" in capsys.readouterr().err


def test_header_only_training_features_are_validation_error(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    run_pipeline(tmp_path)
    train = tmp_path / "out" / "features_train.csv"
    train.write_text("".join(train.read_text().splitlines(True)[:2]),
                     encoding="utf-8")
    for step in ("train", "detect"):
        capsys.readouterr()
        assert main([step, *flags]) == EXIT_VALIDATION
        assert f"{train}: no training rows" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_feature_is_validation_error(tmp_path, capsys, value):
    flags = fast_flags(tmp_path)
    out = run_pipeline(tmp_path)
    before = (out / "scores.csv").read_bytes()
    test = out / "features_test.csv"
    test.write_text(_mutate_csv(test.read_text(), 3, "field", 4, value),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["detect", *flags]) == EXIT_VALIDATION
    assert f"{test}: line 4: feature values must be finite" in capsys.readouterr().err
    assert (out / "scores.csv").read_bytes() == before


class _FailingHandle:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        raise OSError("no space left on device")


INGEST_OUTPUTS = ("features_raw.csv", "features_train.csv", "features_test.csv",
                  "norm_stats.csv", "parse_report.txt")


@pytest.mark.parametrize("failing", INGEST_OUTPUTS)
def test_failed_ingest_keeps_previous_outputs(tmp_path, monkeypatch, failing):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    before = {name: (out / name).read_bytes() for name in INGEST_OUTPUTS}
    assert main(["synth", *flags, "--seed", "5"]) == EXIT_OK

    def failing_open(path, *args, **kwargs):
        handle = builtins.open(path, *args, **kwargs)
        return _FailingHandle(handle) if str(path).endswith(failing + ".tmp") else handle

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    assert main(["ingest", *flags, "--seed", "5"]) == EXIT_IO
    after = {name: (out / name).read_bytes() for name in INGEST_OUTPUTS}
    assert after[failing] == before[failing]
    # outputs written before the failure are whole files of the new run
    done = INGEST_OUTPUTS[:INGEST_OUTPUTS.index(failing)]
    assert all(after[name] != before[name] for name in done)
    assert not list(out.glob("*.tmp"))


SYNTH_OUTPUTS = ("login.csv", "http.csv", "device.csv", "email.csv", "file.csv",
                 "labels.csv")


def _fail_writes_to(monkeypatch, name):
    """Make the atomic write of ``name`` fail halfway through."""
    def failing_open(path, *args, **kwargs):
        handle = builtins.open(path, *args, **kwargs)
        return _FailingHandle(handle) if str(path).endswith(name + ".tmp") else handle

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)


@pytest.mark.parametrize("failing", SYNTH_OUTPUTS)
def test_failed_synth_keeps_previous_outputs(tmp_path, monkeypatch, failing):
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    data = tmp_path / "data"
    before = {name: (data / name).read_bytes() for name in SYNTH_OUTPUTS}
    _fail_writes_to(monkeypatch, failing)
    assert main(["synth", *flags, "--seed", "5"]) == EXIT_IO
    after = {name: (data / name).read_bytes() for name in SYNTH_OUTPUTS}
    assert after[failing] == before[failing]
    done = SYNTH_OUTPUTS[:SYNTH_OUTPUTS.index(failing)]
    assert all(after[name] != before[name] for name in done)
    assert not list(data.glob("*.tmp"))


@pytest.mark.parametrize("extra", [["--seed", "5"], ["--resume"]],
                         ids=["fresh", "resume"])
def test_failed_train_keeps_previous_loss_file(tmp_path, monkeypatch, extra):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    before = (out / "loss_U0000.csv").read_bytes()
    _fail_writes_to(monkeypatch, "loss_U0000.csv")
    assert main(["train", *flags, *extra]) == EXIT_IO
    assert (out / "loss_U0000.csv").read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_failed_train_keeps_checkpoint_and_loss_file_together(tmp_path, monkeypatch):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest"):
        assert main([step, *flags]) == EXIT_OK
    assert main(["train", *flags, "--epochs", "3"]) == EXIT_OK
    out = tmp_path / "out"
    pair = ("qgan.ckpt", "loss_U0000.csv")
    before = {name: (out / name).read_bytes() for name in pair}
    for failing in pair:
        with monkeypatch.context() as patch:
            _fail_writes_to(patch, failing)
            assert main(["train", *flags, "--resume", "--epochs", "3"]) == EXIT_IO
        assert {name: (out / name).read_bytes() for name in pair} == before
    assert main(["train", *flags, "--resume", "--epochs", "3"]) == EXIT_OK
    assert load_checkpoint(out / "qgan.ckpt")[1].epoch == 6
    loss = (out / "loss_U0000.csv").read_text().splitlines()[2:]
    assert [int(line.split(",")[0]) for line in loss] == [1, 2, 3, 4, 5, 6]


def test_resumed_loss_file_is_the_old_bytes_plus_new_rows(tmp_path):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    loss = tmp_path / "out" / "loss_U0000.csv"
    with open(loss, "ab") as handle:
        handle.write(b"# \xe9 not UTF-8, copied as bytes\n")
    before = loss.read_bytes()
    assert main(["train", *flags, "--resume"]) == EXIT_OK
    after = loss.read_bytes()
    assert after.startswith(before)
    assert [int(line.split(b",")[0]) for line in after[len(before):].splitlines()] \
        == [5, 6, 7, 8]


@pytest.mark.parametrize("user", ["U 00", "U\t00", "U=00", "U\n00", "U\r\n00"],
                         ids=["space", "tab", "equals", "newline", "crlf"])
def test_ingest_rejects_user_id_that_breaks_the_summary(tmp_path, capsys, user):
    # detect_summary.txt lists the users space-separated and keys their
    # thresholds th_d.<user>, so such an id could never be reported
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    for path in (tmp_path / "data").glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [[user if f == "U0000" else f for f in rec]
                    for rec in csv.reader(handle)]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    assert main(["ingest", *flags]) == EXIT_VALIDATION
    assert repr(user) in capsys.readouterr().err
    assert not (tmp_path / "out" / "features_raw.csv").exists()


@pytest.mark.parametrize("argv", [("train",), ("detect",)],
                         ids=["train", "detect"])
def test_features_with_user_id_that_breaks_the_summary_are_rejected(
        tmp_path, capsys, argv):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("features_train.csv", "features_test.csv"):
        path = out / name
        path.write_text(path.read_text(encoding="utf-8").replace("U0000", "U 00"),
                        encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([*argv, *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{out / 'features_train.csv'}: line 3: user id 'U 00'" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# --------------------------------------------------------------------------
# Fuzzed key = value files
# --------------------------------------------------------------------------

KV_MUTATIONS = ("drop", "empty", "-1", "0", "x", "1" * 40, "repeat", "no =")
# each mutated file, and the commands that read it
KV_COMMANDS = {
    "run.cfg": [["report"]],
    "out/qgan.ckpt": [["detect"], ["train", "--resume", "--epochs", "1"]],
    "out/detect_summary.txt": [["report"]],
}


@pytest.fixture(scope="module")
def kv_run(tmp_path_factory):
    """A finished small pipeline, and the bytes of every file in it."""
    work = tmp_path_factory.mktemp("kv")
    flags = fast_flags(work)
    cfg = work / "run.cfg"
    cfg.write_text("# fuzzed\n" + cfg.read_text(encoding="utf-8")
                   + "lambda = 0.1\nworking_hours = 08:00-18:00\nsampled = false\n",
                   encoding="utf-8")
    for step in ("synth", "ingest", "train", "detect"):
        assert main([step, *flags]) == EXIT_OK
    return work, {p: p.read_bytes() for p in work.rglob("*") if p.is_file()}


def _restore(kv_run):
    """Put back every file of the finished pipeline, and only those."""
    work, files = kv_run
    for path in {p for p in work.rglob("*") if p.is_file()} - set(files):
        path.unlink()
    for path, content in files.items():
        path.write_bytes(content)


def _mutate(text, i, how):
    lines = text.splitlines()
    key = lines[i].partition(" = ")[0]
    if how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "no =":
        lines.insert(i, "a line without an equals sign")
    else:
        lines[i] = f"{key} = {'' if how == 'empty' else how}"
    return "\n".join(lines) + "\n"


@settings(max_examples=120, derandomize=True, deadline=None)
@given(target=st.sampled_from(sorted(KV_COMMANDS)),
       how=st.sampled_from(KV_MUTATIONS), data=st.data())
def test_mutated_kv_file_never_escapes_main(kv_run, target, how, data):
    work, files = kv_run
    _restore(kv_run)
    text = files[work / target].decode("utf-8")
    i = data.draw(st.integers(0, len(text.splitlines()) - 1), label="line")
    (work / target).write_text(_mutate(text, i, how), encoding="utf-8")
    for argv in KV_COMMANDS[target]:
        assert main([*argv, "--config", str(work / "run.cfg")]) in (
            EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)


# --------------------------------------------------------------------------
# Fuzzed CSV inputs
# --------------------------------------------------------------------------

CSV_VALUES = ("", "-1", "0", "x", "1" * 40, "inf", "-inf", "nan")
CSV_MUTATIONS = ("drop", "truncate", "repeat", "no comma", "field")
# each mutated file, and the commands that read it
CSV_COMMANDS = {
    "data/labels.csv": [["ingest"], ["detect"]],
    "out/features_train.csv": [["train"], ["detect"]],
    "out/features_test.csv": [["detect"]],
}


def _mutate_csv(text, i, how, j, value):
    lines = text.splitlines()
    if how == "drop":
        del lines[i]
    elif how == "truncate":
        del lines[i:]
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "no comma":
        lines.insert(i, "a line without a comma")
    else:
        fields = lines[i].split(",")
        fields[j % len(fields)] = value
        lines[i] = ",".join(fields)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(target=st.sampled_from(sorted(CSV_COMMANDS)),
       how=st.sampled_from(CSV_MUTATIONS), value=st.sampled_from(CSV_VALUES),
       j=st.integers(0, 18), data=st.data())
def test_mutated_csv_file_never_escapes_main(kv_run, target, how, value, j, data):
    work, files = kv_run
    _restore(kv_run)
    text = files[work / target].decode("utf-8")
    i = data.draw(st.integers(0, len(text.splitlines()) - 1), label="line")
    (work / target).write_text(_mutate_csv(text, i, how, j, value),
                               encoding="utf-8")
    for argv in CSV_COMMANDS[target]:
        assert main([*argv, "--config", str(work / "run.cfg")]) in (
            EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)
        for name in ("scores.csv", "scores_train.csv"):
            for rec in read_score_csv(work / "out" / name):
                assert all(np.isfinite(rec[key])
                           for key in ("r_d", "r_n", "d", "th_d", "th_f"))
