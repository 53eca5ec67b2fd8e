"""Subcommand behavior, exit codes, config handling, pipeline determinism."""

import argparse
import builtins
import csv
import dataclasses
import itertools
import re
import shutil
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbde import bde, checkpoint, cli, features, qgan
from qbde.bde import read_score_csv, read_summary
from qbde.checkpoint import Rows, load_checkpoint, read_kv, save_checkpoint
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
from qbde.features import N_FEATURES, Days, to_simplex
from qbde.qgan import DiscriminatorNet, TrainConfig, init_train_state
from qbde.qsim import GeneratorParams, probabilities, run_generator_circuit

ROOT = Path(__file__).resolve().parent.parent


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


def fit_rows(out, user=None):
    """The ``Rows`` that ``train`` fits a user's checkpoint to: the first
    user's unless ``user`` is given."""
    days = features.read_features_csv(out / "features_train.csv")
    by_user = days.by_user()
    return Rows.of(to_simplex(days.x[by_user[user or next(iter(by_user))]]))


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


@pytest.mark.parametrize("name", ["qgan.ckpt", "features_test.csv"])
def test_non_utf8_checkpoint_or_features_is_validation_error(tmp_path, capsys, name):
    # the byte ends the file, or a checkpoint's text: past the head of a
    # checkpoint, which detect does not read, so only train --resume
    # refuses it there
    out = run_pipeline(tmp_path)
    flags = fast_flags(tmp_path)
    path = out / name
    if name == "qgan.ckpt":   # the last line of its text
        path.write_bytes(path.read_bytes().replace(RAW, b"\n# caf\xe9" + RAW))
    else:
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    before = _outputs(out)
    runs = ([(["detect"], EXIT_OK), (["train", "--resume"], EXIT_VALIDATION)]
            if name == "qgan.ckpt" else [(["detect"], EXIT_VALIDATION)])
    for argv, code in runs:
        capsys.readouterr()
        assert main([*argv, *flags]) == code
        err = capsys.readouterr().err
        assert (f"{path}: not UTF-8 text" in err) is (code == EXIT_VALIDATION)
        assert _outputs(out) == before


@pytest.mark.parametrize("argv", [["detect"], ["train", "--resume"]])
def test_non_utf8_generator_section_is_validation_error(tmp_path, capsys, argv):
    out = run_pipeline(tmp_path)
    path = out / "qgan.ckpt"
    data = path.read_bytes()
    assert data.count(b"\n[generator]\n") == 1
    path.write_bytes(data.replace(b"\n[generator]\n", b"\n[generator]\n# caf\xe9\n"))
    before = _outputs(out)
    capsys.readouterr()
    assert main([*argv, *fast_flags(tmp_path)]) == EXIT_VALIDATION
    # the same offset as a whole read of the file gives
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode("utf-8")
    assert f"{path}: not UTF-8 text ({whole.value})" in capsys.readouterr().err
    assert _outputs(out) == before


def test_cli_flag_overrides_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("seed = 1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(path), "--seed", "2",
                 "--input-dir", str(tmp_path / "d")]) == EXIT_OK
    report = (tmp_path / "d" / "synth_report.txt").read_text(encoding="utf-8")
    cfg = load_config(path)
    cfg.seed = 2
    cfg.input_dir = str(tmp_path / "d")
    assert cfg.digest() in report


def test_bad_lambda_is_config_error(tmp_path):
    assert main(["detect", "--lambda", "1.5", "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("setting", [
    "lr_g = 0", "lr_g = nan", "lr_d = inf",  # not settings: recipe constants
    "bde_epochs = -1", "seed = -1",
    "train_days = 0", "test_days = -1", "n_users = 0", "n_days = 0",
    "n_days = 2917921",  # one day past date.max
    "depth = 3"])  # not a setting: the circuit depth is k
def test_bad_setting_is_config_error_before_any_file_is_written(tmp_path, setting):
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + setting + "\n",
                       encoding="utf-8")
    assert main(["synth", *flags]) == EXIT_CONFIG
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("key, value", [
    ("n_qubits", "4"), ("shots", "1024"), ("hidden1", "64"), ("hidden2", "32"),
    ("bde_batch", "32"), ("bde_lr", "0.01"), ("lr_g", "0.05"), ("lr_d", "0.01"),
    ("resume", "true")],
    ids=["n_qubits", "shots", "hidden1", "hidden2", "bde_batch", "bde_lr",
         "lr_g", "lr_d", "resume"])
def test_removed_setting_is_config_error_before_any_file_is_written(
        tmp_path, capsys, key, value):
    # the key is refused even with the value the code fixes for it
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + f"{key} = {value}\n",
                       encoding="utf-8")
    assert main(["synth", *flags]) == EXIT_CONFIG
    assert f"unknown setting {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_readme_config_example_loads(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "run.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    load_config(path).validate()


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


def per_row_simplex(values):
    """One row's projection, divided by its own 1-D sum: the oracle."""
    scale = float(values.sum())
    if scale <= 0.0:
        return np.full(N_FEATURES, 1.0 / N_FEATURES)
    return values / scale


def test_simplex_matrix_matches_per_row_projection():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (200, 16))
    x[rng.uniform(size=200) < 0.3] *= rng.uniform(0.0, 1.0, 16) < 0.2
    x[[0, 7]] = 0.0  # all-zero rows map to uniform
    days = Days(["U0000"] * len(x), [datetime(2020, 1, 1).date()] * len(x),
                [None] * len(x), x.copy())
    got = to_simplex(days.x)
    want = np.stack([per_row_simplex(v) for v in x])
    assert got.tobytes() == want.tobytes()
    assert (got[[0, 7]] == 1.0 / 16).all()
    assert (days.x == x).all()


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
    labels = (tmp_path / "d" / "labels.csv").read_text(encoding="utf-8")
    assert "abnormal" not in labels


def test_ingest_writes_features_and_report(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    assert main(["ingest", *flags]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("features_raw.csv", "features_train.csv", "features_test.csv",
                 "norm_stats.csv", "parse_report.txt"):
        assert (out / name).exists()
    report = (out / "parse_report.txt").read_text(encoding="utf-8")
    assert "split.test_rows = 15" in report


def test_train_writes_checkpoint_and_losses(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags]) == EXIT_OK
    out = tmp_path / "out"
    assert (out / "qgan.ckpt").exists()
    loss_lines = (out / "loss_U0000.csv").read_text(encoding="utf-8").splitlines()
    assert loss_lines[1] == "epoch,loss_g,loss_d,cross_entropy"
    assert len(loss_lines) == 2 + 4  # comment, header, one row per epoch


def test_train_zero_epochs_initial_checkpoint(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags, "--epochs", "0"]) == EXIT_OK
    out = tmp_path / "out"
    _, state = load_checkpoint(out / "qgan.ckpt",
                               load_config(tmp_path / "run.cfg").train_config(),
                               fit_rows(out))
    assert state.epoch == 0
    np.testing.assert_allclose(state.params.angles[0], np.pi / 2)
    assert len((out / "loss_U0000.csv").read_text(encoding="utf-8").splitlines()) == 2


def test_resume_continues_identically(tmp_path):
    base = run_pipeline(tmp_path / "full", seed=3)
    full_rows = (base / "loss_U0000.csv").read_text(encoding="utf-8").splitlines()[1:]

    part = tmp_path / "part"
    flags = fast_flags(part, seed=3)
    main(["synth", *flags])
    main(["ingest", *flags])
    assert main(["train", *flags, "--epochs", "2"]) == EXIT_OK
    assert main(["train", *flags, "--epochs", "2", "--resume"]) == EXIT_OK
    resumed_rows = (part / "out" / "loss_U0000.csv").read_text(
        encoding="utf-8").splitlines()[1:]
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
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "sampled = true\n"
                       "reference_samples = 4\n", encoding="utf-8")
    assert main(["detect", "--config", str(cfgfile)]) == EXIT_OK
    a = read_score_csv(tmp_path / "out" / "scores.csv")
    assert len(a) == 15


@pytest.mark.parametrize("n", [1, 64])
def test_sampled_references_are_the_histograms_drawn_one_by_one(n):
    """The references of sampled mode, drawn in one call, are the
    histograms the same generator gives drawn one at a time."""
    cfg = RunConfig(sampled=True, reference_samples=n, seed=5)
    params = GeneratorParams(4, np.random.default_rng(n).uniform(0, np.pi, (3, 4)))
    probs = probabilities(run_generator_circuit(params))
    rng = np.random.default_rng(cfg.seed + 2)
    want = np.stack([rng.multinomial(cli.SHOTS, probs / np.sum(probs)) / cli.SHOTS
                     for _ in range(n)])
    got = cli._reference_distributions(params, cfg)
    assert got.tobytes() == want.tobytes()


def test_depth_sweep_writes_one_loss_csv_per_k(tmp_path):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    for k in (2, 4, 6, 8):
        out_k = str(tmp_path / f"k{k}")
        assert main(["ingest", *flags, "--out", out_k]) == EXIT_OK
        assert main(["train", *flags, "--k", str(k), "--epochs", "2",
                     "--out", out_k]) == EXIT_OK
    for k in (2, 4, 6, 8):
        lines = (tmp_path / f"k{k}" / "loss_U0000.csv").read_text(
            encoding="utf-8").splitlines()
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


def test_report_of_a_user_the_summary_does_not_list_is_validation_error(
        tmp_path, capsys):
    out = _report_out(tmp_path, scores=SCORES.replace("U0000,", "U0001,"))
    assert main(["report", "--out", str(out)]) == EXIT_VALIDATION
    assert (f"{out / 'scores.csv'}: user U0001 has no thresholds in "
            f"{out / 'detect_summary.txt'}") in capsys.readouterr().err


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
    report = (tmp_path / "out" / "parse_report.txt").read_text(encoding="utf-8")
    assert "file.device.malformed = 1\n" in report


@pytest.mark.parametrize("size", ["-5", "-0.5", "-1e308"])
def test_ingest_counts_negative_device_size_as_malformed(tmp_path, size):
    flags, _, _ = _synth_with_device_rows(tmp_path, size)
    assert main(["ingest", *flags]) == EXIT_OK
    report = (tmp_path / "out" / "parse_report.txt").read_text(encoding="utf-8")
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


def test_resume_with_another_discriminator_is_config_error(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    main(["synth", *flags])
    main(["ingest", *flags])
    want = load_config(tmp_path / "run.cfg").train_config()
    have = dataclasses.replace(want, hidden=OTHER_HIDDEN)
    ckpt = tmp_path / "out" / "qgan.ckpt"
    save_checkpoint(ckpt, have, init_train_state(4, have), fit_rows(ckpt.parent))
    before = ckpt.read_bytes()
    for argv in (["train", "--epochs", "1", "--resume"], ["detect"]):
        capsys.readouterr()
        assert main([*argv, *flags]) == EXIT_CONFIG
        assert f"hidden = {OTHER_HIDDEN}" in capsys.readouterr().err
    assert ckpt.read_bytes() == before
    assert not (tmp_path / "out" / "scores.csv").exists()


@pytest.mark.parametrize("argv, trained, override, key", [
    (["train", "--resume"], {"lr_g": 0.5}, "", "lr_g"),
    (["detect"], {"lr_g": 0.5}, "", "lr_g"),
    (["detect"], {}, "k = 3", "depth"),
], ids=["resume-lr_g", "detect-lr_g", "detect-depth"])
def test_checkpoint_trained_with_other_settings_is_config_error(
        tmp_path, capsys, argv, trained, override, key):
    # the outputs' config digest would vouch for settings the run never used
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    if trained:   # a checkpoint trained with a rate run.cfg cannot set
        have = dataclasses.replace(
            load_config(tmp_path / "run.cfg").train_config(), **trained)
        save_checkpoint(out / "qgan.ckpt", have, init_train_state(4, have),
                        fit_rows(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + override + "\n",
                       encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out / "qgan.ckpt") in err and f"{key} = " in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_detect_checks_every_checkpoint_before_training_a_scorer(
        tmp_path, capsys, monkeypatch):
    # one call trains every user's scorer, so no scorer trains before the
    # last user's checkpoint is found to disagree with the config
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "n_users = 2\n",
                       encoding="utf-8")
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    users = list(features.read_features_csv(out / "features_train.csv").by_user())
    assert len(users) == 2
    last = out / f"qgan-{users[-1]}.ckpt"
    have = dataclasses.replace(load_config(cfgfile).train_config(), lr_g=0.5)
    save_checkpoint(last, have, init_train_state(4, have), fit_rows(out, users[-1]))
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def no_training(*args):
        raise AssertionError("a scorer trained before every checkpoint loaded")

    monkeypatch.setattr(bde, "train_bde", no_training)
    capsys.readouterr()
    assert main(["detect", *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(last) in err and "lr_g = " in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _users_trained(tmp_path, n_users):
    """Flags and the output directory of a small run of ``n_users`` users,
    trained once."""
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + f"n_users = {n_users}\n",
                       encoding="utf-8")
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    return flags, tmp_path / "out"


@pytest.mark.parametrize("fault, code", [("malformed", EXIT_VALIDATION),
                                         ("other-setting", EXIT_CONFIG)])
def test_resume_checks_every_checkpoint_before_training_any_user(
        tmp_path, capsys, fault, code):
    # a bad last checkpoint leaves the users before it untrained, so no two
    # users sit at different epochs under one config digest
    flags, out = _users_trained(tmp_path, 2)
    last = sorted(out.glob("qgan-*.ckpt"))[-1]
    if fault == "malformed":
        last.write_bytes(re.sub(rb"(?m)^epoch = .*$", b"epoch = x", last.read_bytes(),
                                count=1))
    else:
        have = dataclasses.replace(load_config(tmp_path / "run.cfg").train_config(),
                                   lr_g=0.5)
        save_checkpoint(last, have, init_train_state(4, have),
                        fit_rows(out, last.stem.split("-")[1]))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["train", "--resume", *flags]) == code
    assert str(last) in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_stacked_train_writes_what_one_user_stacks_write(tmp_path, monkeypatch):
    train, outputs = qgan.train, {}

    def one_by_one(datasets, cfg, states=None):
        return [train([data], cfg, None if states is None else [states[user]])[0]
                for user, data in enumerate(datasets)]

    for mode in ("stacked", "one by one"):
        if mode == "one by one":
            monkeypatch.setattr(qgan, "train", one_by_one)
        flags, out = _users_trained(tmp_path / mode, 3)
        assert main(["train", "--resume", *flags]) == EXIT_OK
        outputs[mode] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs["stacked"]) == 3 + 3 + 5   # 3 checkpoints, 3 losses
    assert outputs["stacked"] == outputs["one by one"]


def test_interleaved_users_in_the_feature_files_change_no_output(tmp_path):
    """Feature files whose users alternate row by row, each user's rows in
    their own order, train and detect to the bytes of the grouped files
    ingest writes: checkpoints, loss files, saved scorers, both score
    files and the summary."""
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "n_users = 3\n",
                       encoding="utf-8")
    for step in ("synth", "ingest"):
        assert main([step, *flags]) == EXIT_OK
    grouped, mixed = tmp_path / "out", tmp_path / "mixed"
    shutil.copytree(grouped, mixed)
    for name in ("features_train.csv", "features_test.csv"):
        comment, header, *lines = (grouped / name).read_text(
            encoding="utf-8").splitlines(keepends=True)
        by_user = {}
        for line in lines:
            by_user.setdefault(line.split(",", 1)[0], []).append(line)
        alternating = [line for turn in itertools.zip_longest(*by_user.values())
                       for line in turn if line is not None]
        assert len(by_user) == 3 and alternating[:3] != lines[:3]
        assert sorted(alternating) == sorted(lines)
        (mixed / name).write_text("".join([comment, header, *alternating]),
                                  encoding="utf-8")
    for out in (grouped, mixed):
        for step in ("train", "detect"):
            assert main([step, *flags, "--out", str(out)]) == EXIT_OK
    written = {p.name for p in grouped.iterdir()} - {
        "features_raw.csv", "features_train.csv", "features_test.csv",
        "norm_stats.csv", "parse_report.txt"}
    assert len(written) == 3 + 3 + 3 + 3   # checkpoints, losses, scorers, scores
    assert {p.name for p in mixed.iterdir()} == {p.name for p in grouped.iterdir()}
    for name in written:
        assert (mixed / name).read_bytes() == (grouped / name).read_bytes(), name


@pytest.mark.parametrize("command, owner, name, message", [
    ("ingest", features, "extract_daily", ""),
    ("train", qgan, "train", "Unable to allocate 2.98 GiB for an array with shape "
                             "(100000001, 4) and data type float64"),
    ("detect", cli, "sample", "Unable to allocate 116. TiB for an array with shape "
                              "(1000000000000, 16) and data type float64")])
def test_running_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                     command, owner, name, message):
    """Settings that need more memory than the host has end with exit 3
    and one line on stderr, not a traceback, and change no output.  The
    allocation fails by monkeypatch, as numpy's does: ``MemoryError``
    with numpy's text, or with none."""
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "sampled = true\n",
                       encoding="utf-8")
    for step in ("synth", "ingest", "train", "detect"):
        assert main([step, *flags]) == EXIT_OK
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def exhausted(*args, **kwargs):
        raise MemoryError(*[message] if message else [])

    monkeypatch.setattr(owner, name, exhausted)
    capsys.readouterr()
    # a train of the same inputs reuses the checkpoint and never reaches
    # qgan.train; another epoch count misses it, so the user trains
    miss = ["--epochs", "5"] if command == "train" else []
    assert main([command, *flags, *miss]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"out of memory: {message}\n" if message else "out of memory\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_resume_is_a_train_only_flag(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train", "detect"):
        assert main([step, *flags]) == EXIT_OK
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    for command in ("synth", "ingest", "detect", "report"):
        capsys.readouterr()
        assert main([command, *flags, "--resume"]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --resume" in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == before


def test_bad_command_line_returns_exit_2_and_help_exits_0(capsys):
    for argv in ([], ["nope"], ["train", "--epochs", "many"], ["detect", "--bogus"]):
        assert main(argv) == EXIT_CONFIG
        assert "usage: qbde" in capsys.readouterr().err
    for argv in (["--help"], ["train", "--help"]):
        assert main(argv) == EXIT_OK
        assert "usage: qbde" in capsys.readouterr().out


def test_parser_is_built_once_across_commands(tmp_path, capsys, monkeypatch):
    """``main`` reuses one parser: a refused command line, help and real
    commands in turn keep their exit codes and build it once."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.extend([self] if kwargs.get("prog") == "qbde" else [])
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    flags = fast_flags(tmp_path)
    try:
        for argv, code in ((["detect", "--resume"], EXIT_CONFIG), (["synth", *flags], EXIT_OK),
                           (["--help"], EXIT_OK), (["nope"], EXIT_CONFIG),
                           (["ingest", *flags, "--seed", "x"], EXIT_CONFIG),
                           (["ingest", *flags], EXIT_OK), (["train", "--help"], EXIT_OK),
                           (["report", *flags], EXIT_IO)):
            assert main(argv) == code, argv
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    assert "usage: qbde" in capsys.readouterr().out


def test_ingest_names_the_log_and_line_that_is_not_utf8(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    path = tmp_path / "data" / "http.csv"
    lines = path.read_bytes().split(b"\n")
    lines[26] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["ingest", *flags]) == EXIT_VALIDATION
    assert f"{path}: line 27: not UTF-8" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


# little-endian binary64 bytes, as checkpoints store array values
ZERO, INF, MINUS_INF, NAN, MINUS_ONE = (
    np.array(x).astype("<f8").tobytes() for x in (0.0, np.inf, -np.inf, np.nan, -1.0))
BOTH = (("detect",), ("train", "--resume"))
RAW = b"\n[bytes]\n"   # the line after which a file's raw values follow


def split_raw(data: bytes) -> tuple[str, bytearray]:
    """A file's text, up to and with the LF before its ``[bytes]`` line,
    and the raw bytes after that line."""
    text, _, raw = data.partition(RAW)
    return text.decode("utf-8") + "\n", bytearray(raw)


def join_raw(text: str, raw) -> bytes:
    return text.encode("utf-8") + RAW[1:] + bytes(raw)


def raw_slices(text: str) -> dict[str, slice]:
    """Where each value written as ``N bytes`` sits in the raw bytes, by
    ``section.key``."""
    at, start, section = {}, 0, ""
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1] + "."
        elif match := re.fullmatch(r"(\S+) = (\d+) bytes", line):
            at[section + match[1]] = slice(start, start := start + int(match[2]))
    return at


def _raw(key, change):
    """A raw edit: the bytes of the value ``key`` replaced by ``change`` of
    them."""
    def edit(raw, at):
        raw[at[key]] = change(bytes(raw[at[key]]))
    return edit


def _value(key, index, value):
    """A raw edit: the array value ``index`` of ``key`` set to ``value``'s
    binary64 bytes."""
    return _raw(key, lambda data: data[:8 * index] + value + data[8 * index + 8:])


def _outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _check_tampered_checkpoint(tmp_path, capsys, pattern, repl, key,
                               detect=EXIT_VALIDATION, argvs=BOTH, raw_edit=None):
    """Run each of ``argvs`` on a trained and scored run whose checkpoint
    has ``raw_edit(raw, slices)`` applied to its raw bytes, if given, then
    ``pattern`` replaced by ``repl`` in its text, if given.  ``train
    --resume`` reads the whole checkpoint, so it exits 4 naming ``key``.
    ``detect`` reads only the magic line, ``[meta]``, ``[config]`` and
    ``[generator]`` with its angles, and exits with ``detect``: 4 naming
    ``key`` for a tamper there, 0 for one in the training state, or 2 for
    a ``[config]`` that disagrees with the run's settings.  Either way
    every output file keeps its bytes: a ``detect`` that exits 0 writes
    the same scores."""
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train", "detect"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    ckpt = out / "qgan.ckpt"
    text, raw = split_raw(ckpt.read_bytes())
    if raw_edit is not None:
        raw_edit(raw, raw_slices(text))
    if pattern is not None:
        text, n = re.subn(pattern, repl, text, count=1, flags=re.M)
        assert n == 1
    ckpt.write_bytes(join_raw(text, raw))
    before = _outputs(out)
    for argv in argvs:
        want = detect if argv[0] == "detect" else EXIT_VALIDATION
        capsys.readouterr()
        assert main([*argv, *flags]) == want, argv
        err = capsys.readouterr().err
        if want == EXIT_OK:
            assert err == ""
        elif want == EXIT_CONFIG:
            assert f"{ckpt}: checkpoint trained with " in err
        else:
            assert key in err
        assert _outputs(out) == before, argv


# the discriminator's flat vector for fast_flags' layers (16, *HIDDEN, 1):
# each layer's weights w0, w1, w2 in turn, then its biases b0, b1, b2
HIDDEN = TrainConfig().hidden
N_DISC = DiscriminatorNet.n_params([16, *HIDDEN, 1])
W1_AT, W2_AT = np.cumsum([a * b for a, b in zip([16, *HIDDEN], [*HIDDEN, 1])])[:2]
HIDDEN_LINE = rf"^hidden = {' '.join(map(str, HIDDEN))}$"
OTHER_HIDDEN = tuple(width + 1 for width in HIDDEN)  # widths no checkpoint has
N_ANGLES = 3 * 4   # fast_flags' (depth + 1) x qubits
# detect's exit code for a tamper in the training state, which it does not read
STATE = EXIT_OK


@pytest.mark.parametrize("pattern, repl, key, detect", [
    (rf"^params\.shape = {N_DISC}$", "params.shape = -1", "discriminator.params.shape",
     STATE),
    (r"^m\.shape = 3 4$", "m.shape = -1 4", "opt_g.m.shape", STATE),
    (r"^angles\.shape = 3 4$", "angles.shape = 0 4", "generator.angles.shape",
     EXIT_VALIDATION),
], ids=["negative", "negative-moment", "zero"])
def test_checkpoint_with_non_positive_dimension_is_validation_error(
        tmp_path, capsys, pattern, repl, key, detect):
    _check_tampered_checkpoint(tmp_path, capsys, pattern, repl, key, detect)


@pytest.mark.parametrize("argv", BOTH, ids=["detect", "resume"])
@pytest.mark.parametrize("pattern, repl, key, detect", [
    # no hidden layers, or other widths, clash only with [discriminator]'s
    # shape; detect finds [config] disagreeing with the run's settings
    (HIDDEN_LINE, "hidden = ", f"discriminator.params.shape = ({N_DISC},), "
     f"want ({DiscriminatorNet.n_params([16, 1])},)", EXIT_CONFIG),
    (HIDDEN_LINE, "hidden = 64 -32", "hidden layer sizes must be >= 1", EXIT_VALIDATION),
    (r"^state = \d+$", "state = -1", "rng.state", STATE),
    (r"^state = \d+$", f"state = {2**128}", "rng.state", STATE),
    (r"^inc = \d+$", "inc = -1", "rng.inc", STATE),
    (r"^inc = \d+$", f"inc = {2**128 + 1}", "rng.inc", STATE),
    (r"^uinteger = \d+$", "uinteger = -1", "rng.uinteger", STATE),
    (r"^has_uint32 = \d+$", f"has_uint32 = {10**40}", "rng.has_uint32", STATE),
    (r"^t = \d+$", "t = -1", "opt_g.t", STATE),
    (r"^epoch = \d+$", "epoch = -1", "meta.epoch", EXIT_VALIDATION),
    (r"^t = \d+$", "t = 1" + "0" * 400, "opt_g.t", STATE),
    (r"^(\[opt_d\]\nt = )\d+$", rf"\g<1>{2**63}", "opt_d.t", STATE),
    (r"^epoch = \d+$", f"epoch = {2**63}", "meta.epoch", EXIT_VALIDATION),
    (r"^n_qubits = 4$", "n_qubits = 13", "generator.n_qubits", EXIT_VALIDATION),
    (r"^depth = 2$", "depth = 3", "generator.angles.shape = (3, 4), want (4, 4)",
     EXIT_VALIDATION),
    (HIDDEN_LINE, f"hidden = {' '.join(map(str, OTHER_HIDDEN))}",
     f"discriminator.params.shape = ({N_DISC},), "
     f"want ({DiscriminatorNet.n_params([16, *OTHER_HIDDEN, 1])},)", EXIT_CONFIG),
    (r"^qbde-ckpt-v6$", "qbde-ckpt-v1", "qgan.ckpt: not a qbde-ckpt-v6 file",
     EXIT_VALIDATION),
    (r"^qbde-ckpt-v6$", "qbde-ckpt-v2", "qgan.ckpt: not a qbde-ckpt-v6 file",
     EXIT_VALIDATION),
    (r"^qbde-ckpt-v6$", "qbde-ckpt-v3", "qgan.ckpt: not a qbde-ckpt-v6 file",
     EXIT_VALIDATION),
    (r"^qbde-ckpt-v6$", "qbde-ckpt-v4", "qgan.ckpt: not a qbde-ckpt-v6 file",
     EXIT_VALIDATION),
    (r"^qbde-ckpt-v6$", "qbde-ckpt-v5", "qgan.ckpt: not a qbde-ckpt-v6 file",
     EXIT_VALIDATION),
    # a second header of a section detect reads: after the head, detect
    # never reaches it; before the end of [generator], it refuses it too
    (r"\Z", "[generator]\nn_qubits = 4\n", "repeated section [generator]", STATE),
    (r"\Z", "[config]\ndepth = 3\n", "repeated section [config]", STATE),
    (r"^\[generator\]$", "[meta]\nepoch = 0\n[generator]",
     "repeated section [meta]", EXIT_VALIDATION),
], ids=["no-layers", "negative-layers", "negative-state", "huge-state",
        "negative-inc", "huge-inc", "negative-uinteger", "huge-has_uint32",
        "negative-adam-step", "negative-epoch", "huge-adam-step",
        "huge-opt_d-step", "huge-epoch", "huge-n_qubits", "config-depth",
        "config-hidden", "v1-format", "v2-format", "v3-format", "v4-format",
        "v5-format", "repeated-generator", "repeated-config", "repeated-meta-in-head"])
def test_checkpoint_with_out_of_range_value_is_validation_error(
        tmp_path, capsys, pattern, repl, key, detect, argv):
    _check_tampered_checkpoint(tmp_path, capsys, pattern, repl, key, detect, (argv,))


@pytest.mark.parametrize("pattern, repl, raw_edit, key", [
    (rf"^m\.shape = {N_DISC}\nm\.data = \d+ bytes$", "m.shape = 1\nm.data = 8 bytes",
     _raw("opt_d.m.data", lambda data: ZERO), "opt_d.m.shape"),
    (r"^v\.shape = 3 4\nv\.data = \d+ bytes$", f"v.shape = 12\nv.data = {8 * N_ANGLES} bytes",
     _raw("opt_g.v.data", lambda data: ZERO * 12), "opt_g.v.shape"),
], ids=["opt_d-m", "opt_g-v-flattened"])
def test_checkpoint_moment_shape_mismatch_is_validation_error(
        tmp_path, capsys, pattern, repl, raw_edit, key):
    _check_tampered_checkpoint(tmp_path, capsys, pattern, repl, key, STATE,
                               raw_edit=raw_edit)


def _cut_raw(stop):
    def edit(raw, at):
        del raw[stop:]
    return edit


@pytest.mark.parametrize("argv", BOTH, ids=["detect", "resume"])
@pytest.mark.parametrize("pattern, repl, raw_edit, key, detect", [
    # a count a digit short, whose bytes are there: not a whole vector
    (rf"^params\.data = {8 * N_DISC} bytes$", f"params.data = {8 * N_DISC // 10} bytes",
     _raw("discriminator.params.data", lambda data: data[:8 * N_DISC // 10]),
     "discriminator.params.data", STATE),
    (r"^(params\.data = \d{3})\d", r"\1x", None,
     "discriminator.params.data: byte count", STATE),
    (rf"^m\.data = {8 * N_ANGLES} bytes$", f"m.data = {8 * N_ANGLES - 8} bytes",
     _raw("opt_g.m.data", lambda data: data[:-8]), "opt_g.m.data", STATE),
    (rf"^v\.data = {8 * N_DISC} bytes$", f"v.data = {8 * N_DISC + 8} bytes",
     _raw("opt_d.v.data", lambda data: data + ZERO), "opt_d.v.data", STATE),
    (None, None, _value("discriminator.params.data", 0, INF),
     "discriminator.params.data", STATE),
    (None, None, _value("discriminator.params.data", N_DISC - 1, INF),
     "discriminator.params.data", STATE),
    (None, None, _value("discriminator.params.data", W2_AT + 1, NAN),
     "discriminator.params.data", STATE),
    (None, None, _value("opt_g.m.data", 0, INF), "opt_g.m.data", STATE),
    (None, None, _value("opt_d.m.data", W2_AT, MINUS_INF), "opt_d.m.data", STATE),
    (None, None, _value("opt_d.v.data", W1_AT, INF), "opt_d.v.data", STATE),
    (None, None, _value("opt_g.v.data", 0, MINUS_ONE), "opt_g.v.data", STATE),
    (None, None, _value("generator.angles.data", 0, NAN), "generator.angles.data",
     EXIT_VALIDATION),
    # the raw bytes end short of the last value, or run on past it
    (None, None, _cut_raw(-8), "opt_d.v.data", STATE),
    (None, None, lambda raw, at: raw.extend(ZERO), "opt_d.v.data: 8 bytes follow it",
     STATE),
    (None, None, _cut_raw(8 * N_ANGLES - 1), "generator.angles.data", EXIT_VALIDATION),
], ids=["digit-short", "count-not-a-number", "value-short", "value-long", "inf-w0",
        "inf-b2", "nan-w2", "inf-opt_g-m0", "minus-inf-opt_d-m2",
        "inf-opt_d-v1", "negative-opt_g-v0", "nan-angle", "block-short", "block-long",
        "block-short-in-angles"])
def test_checkpoint_with_bad_array_data_is_validation_error(
        tmp_path, capsys, pattern, repl, raw_edit, key, detect, argv):
    # before, a non-finite weight or moment loaded, and resumed training
    # wrote nan or clamped losses, or froze the weights; each id names the
    # layer (w0 .. b2) or moment whose part of the vector is tampered with
    _check_tampered_checkpoint(tmp_path, capsys, pattern, repl,
                               f"{tmp_path / 'out' / 'qgan.ckpt'}: {key}", detect, (argv,),
                               raw_edit)


@pytest.mark.parametrize("argv", BOTH, ids=["detect", "resume"])
@pytest.mark.parametrize("pattern, repl, key, detect", [
    (r"^(params\.data = \d{2})", r"\1 ", "discriminator.params.data", STATE),
    (r"^(angles\.data = \d)", "\\1\t", "generator.angles.data", EXIT_VALIDATION),
    (r"^(v\.data = \d)", r"\1  ", "opt_g.v.data", STATE),
], ids=["space-params", "tab-angles", "spaces-opt_g-v"])
def test_checkpoint_with_whitespace_inside_array_data_is_validation_error(
        tmp_path, capsys, pattern, repl, key, detect, argv):
    # no writer puts whitespace inside the byte count of an array's data,
    # and it cannot be read as a number of bytes
    _check_tampered_checkpoint(tmp_path, capsys, pattern, repl,
                               f"{tmp_path / 'out' / 'qgan.ckpt'}: {key}: byte count",
                               detect, (argv,))


def test_checkpoint_moment_count_mismatch_is_validation_error(tmp_path, capsys):
    # one moment value fewer than the discriminator has parameters
    _check_tampered_checkpoint(
        tmp_path, capsys, rf"^m\.shape = {N_DISC}\nm\.data = {8 * N_DISC} bytes$",
        f"m.shape = {N_DISC - 1}\nm.data = {8 * N_DISC - 8} bytes",
        f"opt_d.m.shape = ({N_DISC - 1},), want ({N_DISC},)", STATE,
        raw_edit=_raw("opt_d.m.data", lambda data: data[:-8]))


def test_a_spoilt_discriminator_block_stops_only_train_resume(tmp_path, capsys):
    """A NaN written over one weight of ``[discriminator]``'s raw values:
    ``detect``, which reads only as far as the angles, exits 0 with the
    very scores it wrote before; ``train --resume`` exits 4 naming the
    value, and no file changes."""
    out = run_pipeline(tmp_path)
    flags = fast_flags(tmp_path)
    path = out / "qgan.ckpt"
    text, raw = split_raw(path.read_bytes())
    _value("discriminator.params.data", 5, NAN)(raw, raw_slices(text))
    path.write_bytes(join_raw(text, raw))
    before = _outputs(out)
    capsys.readouterr()
    assert main(["detect", *flags]) == EXIT_OK
    assert _outputs(out) == before
    assert main(["train", "--resume", *flags]) == EXIT_VALIDATION
    assert f"{path}: discriminator.params.data: values must be finite" \
        in capsys.readouterr().err
    assert _outputs(out) == before


def _as_v5(data: bytes) -> bytes:
    """A checkpoint in the format before this one: each array's bytes as
    hex on its ``key.data`` line, and no raw bytes."""
    text, raw = split_raw(data)
    at = raw_slices(text)
    section = ""

    def line(match):
        nonlocal section
        if match[0].startswith("["):
            section = match[0][1:-1] + "."
            return match[0]
        return f"{match[1]} = {bytes(raw[at[section + match[1]]]).hex()}"

    text = re.sub(r"(?m)^(?:\[.*\]|(\S+) = \d+ bytes)$", line, text)
    return text.replace("qbde-ckpt-v6", "qbde-ckpt-v5", 1).encode("utf-8")


def test_a_v5_checkpoint_is_refused_and_trained_again(tmp_path, capsys):
    """A ``qbde-ckpt-v5`` checkpoint, arrays in hex: ``train --resume`` and
    ``detect`` exit 4 naming the format, and a fresh ``train`` trains the
    user again, writing the checkpoint a cold train writes."""
    out = run_pipeline(tmp_path)
    flags = fast_flags(tmp_path)
    path = out / "qgan.ckpt"
    cold = path.read_bytes()
    path.write_bytes(_as_v5(cold))
    assert bytes.fromhex(re.search(r"(?m)^angles\.data = (\w+)$", path.read_text(
        encoding="utf-8"))[1]) == bytes(split_raw(cold)[1][:8 * N_ANGLES])
    before = _outputs(out)
    for argv in (["train", "--resume"], ["detect"]):
        capsys.readouterr()
        assert main([*argv, *flags]) == EXIT_VALIDATION
        assert f"{path}: not a qbde-ckpt-v6 file" in capsys.readouterr().err
        assert _outputs(out) == before
    assert main(["train", *flags]) == EXIT_OK
    assert "1 user(s) trained, 0 reused" in capsys.readouterr().out
    assert path.read_bytes() == cold


def test_a_scorer_of_the_hex_format_is_trained_again(tmp_path, capsys):
    """A ``qbde-scorer-v1`` file, its vector in hex, is a miss, never an
    error: ``detect`` trains that scorer again, writes the same outputs,
    and saves the scorer in the current format."""
    out = run_pipeline(tmp_path)
    flags = fast_flags(tmp_path)
    path = out / "scorer_U0000.ckpt"
    cold, scorer = _outputs(out), path.read_bytes()
    sec = read_kv(path, bde.SCORER_MAGIC)[""]
    path.write_text(f"qbde-scorer-v1\nkey = {sec['key']}\n"
                    f"params.shape = {sec['params.shape']}\n"
                    f"params.data = {bytes(sec['params.data']).hex()}\n"
                    f"params.sha256 = {sec['params.sha256']}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["detect", *flags]) == EXIT_OK
    assert "(1 scorer(s) trained, 0 reused)" in capsys.readouterr().out
    assert _outputs(out) == cold
    assert path.read_bytes() == scorer


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
    report = (tmp_path / "out" / "parse_report.txt").read_text(encoding="utf-8")
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
    train.write_text("".join(train.read_text(encoding="utf-8").splitlines(True)[:2]),
                     encoding="utf-8")
    for step in ("train", "detect"):
        capsys.readouterr()
        assert main([step, *flags]) == EXIT_VALIDATION
        assert f"{train}: no training rows" in capsys.readouterr().err


def test_test_user_without_training_rows_is_validation_error(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "n_users = 3\nn_days = 70\n"
                       "train_days = 40\ntest_days = 20\n", encoding="utf-8")
    for step in ("synth", "ingest", "train"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    train = out / "features_train.csv"
    lines = train.read_text(encoding="utf-8").splitlines(True)
    train.write_text("".join(line for line in lines if not line.startswith("U0001,")),
                     encoding="utf-8")
    test = out / "features_test.csv"
    assert any(line.startswith("U0001,")
               for line in test.read_text(encoding="utf-8").splitlines())
    capsys.readouterr()
    assert main(["detect", *flags]) == EXIT_VALIDATION
    assert f"{test}: user U0001 has no training rows" in capsys.readouterr().err
    for name in ("scores.csv", "scores_train.csv", "detect_summary.txt"):
        assert not (out / name).exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_feature_is_validation_error(tmp_path, capsys, value):
    flags = fast_flags(tmp_path)
    out = run_pipeline(tmp_path)
    before = (out / "scores.csv").read_bytes()
    test = out / "features_test.csv"
    test.write_text(_mutate_csv(test.read_text(encoding="utf-8"), 3, "field", 4, value),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["detect", *flags]) == EXIT_VALIDATION
    assert f"{test}: line 4: feature values must be finite" in capsys.readouterr().err
    assert (out / "scores.csv").read_bytes() == before


FINITE = "scores and thresholds must be finite"


@pytest.mark.parametrize("column, value, message", [
    (2, "-inf", FINITE), (3, "inf", FINITE), (4, "inf", FINITE), (4, "nan", FINITE),
    (4, "1e400", FINITE), (5, "nan", FINITE), (6, "-inf", FINITE),
    (4, "x", "could not convert string to float: 'x'"),
    (7, "Bogus", "verdict 'Bogus' is not 'Normal' or 'Low_threat' or 'High_threat'"),
    (7, "normal", "verdict 'normal' is not"),
    (8, "Abnormal", "label 'Abnormal' is not 'normal' or 'abnormal' or ''"),
    (0, "U 0=0", "user id 'U 0=0' contains whitespace, '=' or a path separator"),
], ids=["r_d", "r_n", "d-inf", "d-nan", "d-overflow", "th_d", "th_f", "d-text",
        "verdict", "verdict-case", "label", "user"])
def test_bad_score_cell_is_validation_error(tmp_path, capsys, column, value, message):
    # report must not rank an inf or nan day among the top-scoring days,
    # nor print a verdict or label that detect never writes
    flags = fast_flags(tmp_path)
    scores = run_pipeline(tmp_path) / "scores.csv"
    assert main(["report", *flags]) == EXIT_OK
    # a later line is bad too: the first bad line in the file is named
    text = _mutate_csv(scores.read_text(encoding="utf-8"), 5, "field", 4, "inf")
    scores.write_text(_mutate_csv(text, 3, "field", column, value), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", *flags]) == EXIT_VALIDATION
    assert f"{scores}: line 4: {message}" in capsys.readouterr().err


class _HalfWriter:
    """Writes half of what it is given, then fails like a full disk; keeps
    what it was given in ``given``."""

    def __init__(self, stream, given):
        self.stream, self.given = stream, given

    def write(self, data):
        self.given.append(data)
        self.stream.write(data[:len(data) // 2])
        raise OSError("no space left on device")


class _FailingHandle:
    """A text handle whose byte writes (``buffer.write``) fail halfway, and
    its text writes too unless ``header`` lets them through whole."""

    def __init__(self, handle, given, header=False):
        self.handle = handle
        self.write = handle.write if header else _HalfWriter(handle, given).write
        self.buffer = _HalfWriter(handle.buffer, given)
        self.flush = handle.flush

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def _fail_writes_to(monkeypatch, name, header=False):
    """Make the atomic write of ``name``, through its temp file or the
    staged file ``.<name>``, fail halfway through its first write, or with
    ``header`` through its first block of bytes; returns the list of what
    the failing write was given."""
    given = []

    def failing_open(path, *args, **kwargs):
        handle = builtins.open(path, *args, **kwargs)
        if Path(path).name in (f"{name}.tmp", f".{name}"):
            return _FailingHandle(handle, given, header)
        return handle

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    return given


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
    _fail_writes_to(monkeypatch, failing)
    assert main(["ingest", *flags, "--seed", "5"]) == EXIT_IO
    after = {name: (out / name).read_bytes() for name in INGEST_OUTPUTS}
    assert after[failing] == before[failing]
    # outputs written before the failure are whole files of the new run
    done = INGEST_OUTPUTS[:INGEST_OUTPUTS.index(failing)]
    assert all(after[name] != before[name] for name in done)
    assert not list(out.glob("*.tmp"))


SYNTH_OUTPUTS = ("login.csv", "http.csv", "device.csv", "email.csv", "file.csv",
                 "labels.csv")


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
    """A write that fails for either file of the second of two users
    leaves both users' checkpoints and loss files as they were, with no
    temp or staged file: no user is left an epoch ahead of the other."""
    flags, out = _users_trained(tmp_path, 2)
    files = ("qgan-U0000.ckpt", "loss_U0000.csv", "qgan-U0001.ckpt", "loss_U0001.csv")
    before = {name: (out / name).read_bytes() for name in files}
    listing = sorted(path.name for path in out.iterdir())
    for failing in files[2:]:
        with monkeypatch.context() as patch:
            _fail_writes_to(patch, failing)
            assert main(["train", *flags, "--resume", "--epochs", "3"]) == EXIT_IO
        assert {name: (out / name).read_bytes() for name in files} == before
        assert sorted(path.name for path in out.iterdir()) == listing
    assert main(["train", *flags, "--resume", "--epochs", "3"]) == EXIT_OK
    for user in ("U0000", "U0001"):
        assert load_checkpoint(out / f"qgan-{user}.ckpt",
                               load_config(tmp_path / "run.cfg").train_config(),
                               fit_rows(out, user))[1].epoch == 7
        loss = (out / f"loss_{user}.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert [int(line.split(",")[0]) for line in loss] == [*range(1, 8)]


@pytest.mark.parametrize("failing", ["loss_U0001.csv", "qgan-U0001.ckpt"])
def test_failed_resumed_train_leaves_every_file_as_it_was(tmp_path, monkeypatch,
                                                          failing):
    """A resumed train of three users whose second user's loss file or
    checkpoint fails halfway through its first write leaves every loss
    file and checkpoint byte-identical, with no staged ``.<name>`` or
    ``*.tmp`` file.  That write is the old loss file's bytes, read once
    and written as a block, or the whole checkpoint in one write."""
    flags, out = _users_trained(tmp_path, 3)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    given = _fail_writes_to(monkeypatch, failing)
    assert main(["train", *flags, "--resume"]) == EXIT_IO
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert not [*out.glob(".*"), *out.glob("*.tmp")]
    if failing.startswith("loss"):
        assert given == [before[failing]]
    else:
        # a resumed checkpoint drops the seal of the fresh one it replaces:
        # its recipe, loss_sha256 and state_sha256 lines
        assert len(given) == 1 and given[0].startswith(f"{checkpoint.MAGIC}\n".encode())
        assert split_raw(given[0])[0].count("\n") \
            == split_raw(before[failing])[0].count("\n") - 3


@pytest.mark.parametrize("argv, failing", [
    (("synth", "--seed", "5"), "device.csv"),
    (("synth", "--seed", "5"), "labels.csv"),
    (("ingest", "--lambda", "0.5"), "features_train.csv"),
    (("ingest", "--lambda", "0.5"), "norm_stats.csv"),
    (("train", "--seed", "5"), "loss_U0000.csv"),
    (("train", "--resume"), "loss_U0000.csv"),
    (("detect", "--lambda", "0.5"), "scores.csv"),
], ids=["synth-log", "labels", "features", "norm-stats", "loss", "resumed-loss",
        "scores"])
def test_write_failing_after_the_header_keeps_previous_file(tmp_path, monkeypatch,
                                                             argv, failing):
    """The header (none when appending) is written whole, then the first
    block of rows fails halfway: the file is as it was, with no temp file."""
    flags = fast_flags(tmp_path)
    run_pipeline(tmp_path)
    path = next(tmp_path.rglob(failing))
    before = path.read_bytes()
    given = _fail_writes_to(monkeypatch, failing, header=True)
    assert main([*argv, *flags]) == EXIT_IO
    assert len(given) == 1 and not isinstance(given[0], str)  # a block of rows
    assert path.read_bytes() == before
    assert not list(path.parent.glob("*.tmp"))


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


def test_resumed_run_stamps_the_same_config_digest(tmp_path):
    # resuming does not shape results, so it must not move the digest
    flags = fast_flags(tmp_path)
    for argv in (["synth"], ["ingest"], ["train"], ["train", "--resume"],
                 ["detect"]):
        assert main([*argv, *flags]) == EXIT_OK
    out = tmp_path / "out"
    digests = {
        read_kv(out / "qgan.ckpt", checkpoint.MAGIC)["meta"]["config_digest"],
        *(path.read_text(encoding="utf-8").splitlines()[0].removeprefix("# ")
          for path in (out / "loss_U0000.csv", out / "scores.csv"))}
    assert digests == {load_config(tmp_path / "run.cfg").digest()}


@pytest.mark.parametrize("user", ["U 00", "U\t00", "U=00", "U\n00", "U\r\n00",
                                  "a/b", "a\\b"],
                         ids=["space", "tab", "equals", "newline", "crlf",
                              "slash", "backslash"])
def test_ingest_rejects_user_id_that_breaks_the_summary(tmp_path, capsys, user):
    # detect_summary.txt lists the users space-separated and keys their
    # thresholds th_d.<user>, so such an id could never be reported; and
    # ids name the loss_<user>.csv and qgan-<user>.ckpt files
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
    texts = {name: (out / name).read_text(encoding="utf-8")
             for name in ("features_train.csv", "features_test.csv")}
    for user in ("U 00", "a/b"):
        for name, text in texts.items():
            (out / name).write_text(text.replace("U0000", user),
                                    encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([*argv, *flags]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{out / 'features_train.csv'}: line 3: user id {user!r}" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _rename_user(data_dir, old, new):
    """Every field ``old`` of the logs and labels under ``data_dir`` made ``new``."""
    for path in data_dir.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [[new if f == old else f for f in rec] for rec in csv.reader(handle)]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)


def test_user_id_starting_with_hash_survives_every_command(tmp_path, capsys):
    """A line that starts with ``#`` is a comment only before a CSV's
    header: after it, the line is a record of a user such as ``#U1``."""
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "n_users = 2\n",
                       encoding="utf-8")
    assert main(["synth", *flags]) == EXIT_OK
    _rename_user(tmp_path / "data", "U0001", "#U1")
    labels = features.read_labels_csv(tmp_path / "data" / "labels.csv")
    assert {user for user, _ in labels} == {"#U1", "U0000"}
    for step in ("ingest", "train", "detect", "report"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    parsed = read_kv(out / "parse_report.txt", "qbde-parse-report")[""]
    by_user = features.read_features_csv(out / "features_train.csv").by_user()
    assert list(by_user) == ["#U1", "U0000"]
    # every abnormal day of each user's 30-day training window is excluded
    window = {user: sorted(day for u, day in labels if u == user)[:30]
              for user in by_user}
    assert int(parsed["split.excluded_abnormal"]) == sum(
        labels[user, day] == "abnormal" for user, days in window.items() for day in days)
    summary = read_summary(out / "detect_summary.txt")
    assert summary["users"] == "#U1 U0000"
    assert int(summary["train_records"]) == int(parsed["split.train_rows"])
    assert int(summary["test_records"]) == int(parsed["split.test_rows"]) == 30
    assert {rec["user"] for rec in read_score_csv(out / "scores.csv")} == {"#U1", "U0000"}
    assert "thresholds[#U1]" in capsys.readouterr().out


def test_label_other_than_normal_or_abnormal_is_validation_error(tmp_path, capsys):
    flags = fast_flags(tmp_path)
    assert main(["synth", *flags]) == EXIT_OK
    labels = tmp_path / "data" / "labels.csv"
    text = labels.read_text(encoding="utf-8")
    line = next(i for i, rec in enumerate(text.splitlines(), 1) if rec.endswith(",abnormal"))
    labels.write_text(text.replace(",abnormal\n", ",Abnormal\n"), encoding="utf-8")
    assert main(["ingest", *flags]) == EXIT_VALIDATION
    assert (f"labels.csv: line {line}: label 'Abnormal' is not 'normal' or 'abnormal'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "features_train.csv").exists()


@pytest.mark.parametrize("hours", ["8-18", "08:00-18", "+8:00-18:00", "8:5-18:0",
                                   "\u0660\u0668:\u0660\u0660-18:00"],
                         ids=["hours", "no minutes", "sign", "one digit", "arabic-indic"])
def test_working_hours_not_hh_mm_is_config_error_before_any_file_is_written(
        tmp_path, capsys, hours):
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + f"working_hours = {hours}\n",
                       encoding="utf-8")
    assert main(["synth", *flags]) == EXIT_CONFIG
    assert "working hours must look like '08:00-18:00'" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


# --------------------------------------------------------------------------
# Saved scorers
# --------------------------------------------------------------------------

DETECT_OUTPUTS = ("scores.csv", "scores_train.csv", "detect_summary.txt")


def _outputs(out):
    return {name: (out / name).read_bytes() for name in DETECT_OUTPUTS}


def _spy_on_scorer_training(monkeypatch):
    """How many users each ``bde.train_bde`` call trains, from now on."""
    calls = []
    train = bde.train_bde

    def spy(reals, generated, epochs, seed):
        calls.append(len(reals))
        return train(reals, generated, epochs, seed)

    monkeypatch.setattr(bde, "train_bde", spy)
    return calls


def test_reused_scorer_gives_the_outputs_of_a_fresh_one(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    flags = fast_flags(tmp_path)
    cold, scorer = _outputs(out), (out / "scorer_U0000.ckpt").read_bytes()
    capsys.readouterr()
    assert main(["detect", *flags]) == EXIT_OK
    assert "(0 scorer(s) trained, 1 reused)" in capsys.readouterr().out
    assert _outputs(out) == cold
    (out / "scorer_U0000.ckpt").unlink()
    assert main(["detect", *flags]) == EXIT_OK
    assert "(1 scorer(s) trained, 0 reused)" in capsys.readouterr().out
    assert _outputs(out) == cold
    assert (out / "scorer_U0000.ckpt").read_bytes() == scorer


def test_detect_retrains_a_scorer_only_when_its_inputs_change(tmp_path,
                                                              monkeypatch):
    out = run_pipeline(tmp_path)
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    calls = _spy_on_scorer_training(monkeypatch)

    def trained(*argv):
        calls.clear()
        assert main(["detect", *flags, *argv]) == EXIT_OK
        return calls

    assert trained() == [0]
    # lambda enters only at scoring: the scores are a cold run's at it
    assert trained("--lambda", "0.5") == [0]
    cold = tmp_path / "cold"
    shutil.copytree(out, cold)
    (cold / "scorer_U0000.ckpt").unlink()
    assert main(["detect", *flags, "--lambda", "0.5", "--out", str(cold)]) \
        == EXIT_OK
    assert _outputs(out) == _outputs(cold)

    assert main(["train", *flags, "--resume"]) == EXIT_OK
    assert trained() == [1]
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "bde_epochs = 11\n",
                       encoding="utf-8")
    assert trained() == [1]
    assert main(["train", *flags, "--seed", "5"]) == EXIT_OK
    assert trained("--seed", "5") == [1]
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "sampled = true\n",
                       encoding="utf-8")
    assert trained("--seed", "5") == [1]
    assert trained("--seed", "5") == [0]


def test_edited_training_row_retrains_that_user_alone(tmp_path, monkeypatch):
    flags = fast_flags(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "n_users = 2\n",
                       encoding="utf-8")
    for step in ("synth", "ingest", "train", "detect"):
        assert main([step, *flags]) == EXIT_OK
    out = tmp_path / "out"
    path = out / "features_train.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit = next(rec for rec in rows if rec[0] == "U0001")
    edit[2] = "0.25" if edit[2] != "0.25" else "0.75"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(rows[0]) + "\n")   # the config digest comment
        csv.writer(handle, lineterminator="\n").writerows(rows[1:])
    kept = {name: (out / name).stat().st_ino
            for name in ("qgan-U0000.ckpt", "loss_U0000.csv", "scorer_U0000.ckpt")}
    retrained = (out / "scorer_U0001.ckpt").read_bytes()
    calls = _spy_on_scorer_training(monkeypatch)
    # U0001's checkpoint was fit to the old rows: detect refuses it until
    # train fits U0001 again, and U0001 alone
    assert main(["detect", *flags]) == EXIT_VALIDATION
    assert calls == []
    trained = _spy_on_training(monkeypatch)
    assert main(["train", *flags]) == EXIT_OK
    assert trained == [1]
    assert main(["detect", *flags]) == EXIT_OK
    assert calls == [1]
    assert {name: (out / name).stat().st_ino for name in kept} == kept
    assert (out / "scorer_U0001.ckpt").read_bytes() != retrained


def test_failed_scorer_write_keeps_every_output(tmp_path, monkeypatch):
    out = run_pipeline(tmp_path)
    flags = fast_flags(tmp_path)   # writes run.cfg
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "bde_epochs = 11\n",
                       encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    _fail_writes_to(monkeypatch, "scorer_U0000.ckpt")
    assert main(["detect", *flags]) == EXIT_IO
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# --------------------------------------------------------------------------
# Checkpoints bound to their training rows, and reused
# --------------------------------------------------------------------------

def _spy_on_training(monkeypatch):
    """How many users each ``qgan.train`` call trains, from now on."""
    calls = []
    train = qgan.train

    def spy(datasets, *args):
        calls.append(len(datasets))
        return train(datasets, *args)

    monkeypatch.setattr(qgan, "train", spy)
    return calls


def _stat(out):
    return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
            for p in out.iterdir()}


def test_a_warm_train_writes_no_file_and_trains_no_user(tmp_path, monkeypatch, capsys):
    flags, out = _users_trained(tmp_path, 2)
    before = _stat(out)
    calls = _spy_on_training(monkeypatch)
    capsys.readouterr()
    assert main(["train", *flags]) == EXIT_OK
    assert capsys.readouterr().out == "0 user(s) trained, 2 reused\n"
    assert calls == []
    assert _stat(out) == before


def _edit_training_row(out, cfgfile):
    """One feature of U0001's first training row changed."""
    path = out / "features_train.csv"
    comment, header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("U0001,"))
    fields = lines[at].split(",")
    fields[2] = "0.25" if fields[2] != "0.25" else "0.75"
    lines[at] = ",".join(fields)
    path.write_text("".join([comment, header, *lines]), encoding="utf-8")


def _edit_loss(out, cfgfile):
    path = out / "loss_U0000.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n",
                    encoding="utf-8")


def _flip_opt_d_digit(out, cfgfile):
    """One binary digit of U0000's [opt_d] moments flipped: another finite
    value."""
    path = out / "qgan-U0000.ckpt"
    text, raw = split_raw(path.read_bytes())
    raw[raw_slices(text)["opt_d.m.data"].start] ^= 1
    path.write_bytes(join_raw(text, raw))


def _as_v4(out, cfgfile):
    """U0000's checkpoint as the format before v5 wrote it: no rows, no
    seal."""
    path = out / "qgan-U0000.ckpt"
    text, raw = split_raw(path.read_bytes())
    text = text.replace("qbde-ckpt-v6", "qbde-ckpt-v4", 1)
    path.write_bytes(join_raw(re.sub(r"(?m)^(rows|data_sha256|recipe|loss_sha256|"
                                     r"state_sha256) = .*\n", "", text), raw))


RETRAIN_CAUSES = {
    # what changes: extra train flags, an edit of the files, users retrained
    "seed": (["--seed", "5"], None, 2),
    "k": (["--k", "3"], None, 2),
    "epochs": (["--epochs", "5"], None, 2),
    "training-row": ([], _edit_training_row, 1),
    "loss-edited": ([], _edit_loss, 1),
    "loss-deleted": ([], lambda out, cfgfile: (out / "loss_U0000.csv").unlink(), 1),
    "opt_d-digit": ([], _flip_opt_d_digit, 1),
    "resumed": ([], lambda out, cfgfile: main(
        ["train", "--resume", "--epochs", "0", "--config", str(cfgfile)]), 2),
    "v4": ([], _as_v4, 1),
    "other-user": ([], lambda out, cfgfile: shutil.copy(
        out / "qgan-U0001.ckpt", out / "qgan-U0000.ckpt"), 1),
    "recipe": ([], None, 2),
}


@pytest.mark.parametrize("cause", RETRAIN_CAUSES)
def test_a_user_retrains_when_anything_its_checkpoint_was_fit_to_changes(
        tmp_path, monkeypatch, capsys, cause):
    """Each cause makes the users it touches train again, in one call, to
    the bytes a cold train in a fresh directory writes; the files it
    leaves are then reused."""
    argv, edit, n_trained = RETRAIN_CAUSES[cause]
    flags, out = _users_trained(tmp_path / "run", 2)
    cfgfile = tmp_path / "run" / "run.cfg"
    if edit is not None:
        edit(out, cfgfile)
    if cause == "recipe":
        monkeypatch.setattr(qgan, "RECIPE_VERSION", qgan.RECIPE_VERSION + 1)
    calls = _spy_on_training(monkeypatch)
    capsys.readouterr()
    assert main(["train", *flags, *argv]) == EXIT_OK
    assert calls == [n_trained]
    assert capsys.readouterr().out.endswith(
        f"{n_trained} user(s) trained, {2 - n_trained} reused\n")
    cold = tmp_path / "cold"
    cold.mkdir()
    shutil.copy(out / "features_train.csv", cold)
    assert main(["train", *flags, *argv, "--out", str(cold)]) == EXIT_OK
    written = {p.name for p in cold.iterdir()} - {"features_train.csv"}
    assert len(written) == 4
    for name in written:
        assert (out / name).read_bytes() == (cold / name).read_bytes(), name
    calls.clear()
    assert main(["train", *flags, *argv]) == EXIT_OK
    assert calls == []


def _append(cfgfile, line):
    cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + line + "\n",
                       encoding="utf-8")


@pytest.mark.parametrize("setting", ["lambda = 0.5", "test_days = 14"])
def test_a_setting_outside_the_train_config_keeps_the_training(
        tmp_path, monkeypatch, capsys, setting):
    """A setting that changes the run's config digest but neither the
    train config nor the training rows, such as the lambda that detect
    scores with or the test days a daily re-run scores, trains no user:
    train rewrites each checkpoint and loss file under the new digest, to
    the bytes a cold train in a fresh directory writes, all at once."""
    flags, out = _users_trained(tmp_path / "run", 2)
    cfgfile = tmp_path / "run" / "run.cfg"
    _append(cfgfile, setting)
    assert main(["ingest", *flags]) == EXIT_OK
    files = ("qgan-U0000.ckpt", "loss_U0000.csv", "qgan-U0001.ckpt", "loss_U0001.csv")
    before = _stat(out)
    for failing, header in (("qgan-U0001.ckpt", False), ("loss_U0001.csv", True)):
        with monkeypatch.context() as patch:
            _fail_writes_to(patch, failing, header)
            assert main(["train", *flags]) == EXIT_IO
        assert _stat(out) == before
    calls = _spy_on_training(monkeypatch)
    capsys.readouterr()
    assert main(["train", *flags]) == EXIT_OK
    assert calls == []
    assert capsys.readouterr().out == "".join(
        f"reused {user} under the new config digest -> {out / f'qgan-{user}.ckpt'}\n"
        for user in ("U0000", "U0001")) + "0 user(s) trained, 2 reused\n"
    cold = tmp_path / "cold"
    cold.mkdir()
    shutil.copy(out / "features_train.csv", cold)
    assert main(["train", *flags, "--out", str(cold)]) == EXIT_OK
    assert calls == [2]
    for name in files:
        assert (out / name).read_bytes() == (cold / name).read_bytes(), name
    after = _stat(out)
    assert main(["train", *flags]) == EXIT_OK
    assert calls == [2]
    assert _stat(out) == after
    assert main(["detect", *flags]) == EXIT_OK


@pytest.mark.parametrize("argv", BOTH, ids=["detect", "resume"])
@pytest.mark.parametrize("change", ["train_days", "other-corpus"])
def test_checkpoint_fit_to_other_rows_is_validation_error(tmp_path, capsys, argv,
                                                          change):
    """Rows that are not the ones a checkpoint was trained on, from a new
    split or another corpus under the same settings, make detect and
    train --resume exit 4 before writing a file, naming the checkpoint
    and the features file."""
    flags = fast_flags(tmp_path)
    for step in ("synth", "ingest", "train", "detect"):
        assert main([step, *flags]) == EXIT_OK
    out, cfgfile = tmp_path / "out", tmp_path / "run.cfg"
    if change == "train_days":
        cfgfile.write_text(cfgfile.read_text(encoding="utf-8") + "train_days = 20\n",
                           encoding="utf-8")
        assert main(["ingest", *flags]) == EXIT_OK
    else:
        other = ["--input-dir", str(tmp_path / "other")]
        assert main(["synth", *flags, *other, "--seed", "5"]) == EXIT_OK
        assert main(["ingest", *flags, *other]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([*argv, *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{out / 'qgan.ckpt'}: trained on " in err
    assert str(out / "features_train.csv") in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# --------------------------------------------------------------------------
# Fuzzed key = value files
# --------------------------------------------------------------------------

KV_MUTATIONS = ("drop", "empty", "-1", "0", "x", "1" * 40, "repeat", "no =",
                "truncate", "corrupt", "flip", "cut", "extend")
# the mutations of a checkpoint's or scorer's arrays: of the byte count on
# a key.data line, or of the raw bytes
ARRAY_MUTATIONS = ("truncate", "corrupt", "flip", "cut", "extend")
# each mutated file, and the commands that read it
KV_COMMANDS = {
    "run.cfg": [["report"]],
    "out/qgan.ckpt": [["detect"], ["train", "--resume", "--epochs", "1"]],
    "out/detect_summary.txt": [["report"]],
    "out/scorer_U0000.ckpt": [["detect"]],
}
SCORER = "out/scorer_U0000.ckpt"


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


def _mutate_raw(raw, how, j):
    """``raw`` with its byte ``j`` (cyclically) flipped, cut from there, or
    ``j % 9 + 1`` zero bytes added at its end."""
    raw = bytearray(raw)
    if how == "flip":
        raw[j % len(raw)] ^= 0xFF
    elif how == "cut":
        del raw[j % len(raw):]
    else:
        raw += bytes(j % 9 + 1)
    return bytes(raw)


def _mutate(text, i, how, j, char):
    """``text`` with line ``i`` changed by ``how``; ``truncate`` cuts the
    value of that line after ``j`` characters, and ``corrupt`` puts
    ``char`` in place of its character ``j``."""
    lines = text.splitlines()
    key, _, value = lines[i].partition(" = ")
    j %= max(len(value), 1)
    if how == "truncate":
        lines[i] = f"{key} = {value[:j]}"
    elif how == "corrupt":
        lines[i] = f"{key} = {value[:j]}{char}{value[j + 1:]}"
    elif how == "drop":
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
    in_array = how in ARRAY_MUTATIONS
    if in_array and target != SCORER:
        target = "out/qgan.ckpt"
    text, sep, raw = files[work / target].partition(RAW)
    text = text.decode("utf-8")
    lines = [n for n, line in enumerate(text.splitlines())
             if ".data = " in line or not in_array]
    i = data.draw(st.sampled_from(lines), label="line")
    j = data.draw(st.integers(0, 10**6), label="position")
    char = data.draw(st.sampled_from("gx -.0f"), label="char")
    if how in ("flip", "cut", "extend"):
        (work / target).write_bytes(files[work / target][:-len(raw)] + _mutate_raw(raw, how, j))
    else:
        (work / target).write_bytes(_mutate(text, i, how, j, char).encode("utf-8")
                                    + sep[1:] + raw)
    for argv in KV_COMMANDS[target]:
        code = main([*argv, "--config", str(work / "run.cfg")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)
    if target == SCORER:
        # a spoilt scorer is a miss: trained again, the same outputs, and
        # saved again as a valid file
        assert code == EXIT_OK
        assert _outputs(work / "out") == {
            name: files[work / "out" / name] for name in DETECT_OUTPUTS}
        key = re.search(r"^key = (\w+)$", text, re.M)[1]
        assert bde.load_scorer(work / target, key).flat.tobytes() == raw


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
