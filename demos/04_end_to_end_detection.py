"""The full pipeline: synthesize, ingest, train, detect, report.

Drives the same subcommands the ``qbde`` executable exposes, then reads
the emitted artifacts back.  Also contrasts the score weight lambda:
lambda = 0 scores purely in feature space, where the injected anomalies
separate sharply; the default lambda = 0.1 mixes in the scoring network's
embedding distance, which is far more conservative on this data.
"""

import tempfile
from pathlib import Path

from qbde.bde import read_score_csv, read_summary
from qbde.cli import main

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    config = root / "run.cfg"
    config.write_text(
        f"input_dir = {root / 'data'}\n"
        f"out_dir = {root / 'out'}\n"
        "n_users = 1\n"
        "n_days = 300\n"
        "train_days = 200\n"
        "test_days = 100\n"
        "anomaly_rate = 0.05\n"
        "k = 8\n"
        "epochs = 200\n"
        "seed = 0\n",
        encoding="utf-8")
    flags = ["--config", str(config)]

    for step in ("synth", "ingest", "train", "detect", "report"):
        print(f"\n$ qbde {step} --config run.cfg")
        code = main([step, *flags])
        assert code == 0, f"{step} exited {code}"

    # ---------------------------------------------------------------------
    # The detection artifacts: a per-day score CSV and a summary file, both
    # stamped with the resolved-config digest.
    # ---------------------------------------------------------------------
    out = root / "out"
    summary = read_summary(out / "detect_summary.txt")
    print("\nsummary highlights:")
    for key in ("accuracy", "count.Normal", "count.Low_threat", "count.High_threat",
                "train_abnormal_verdicts"):
        print(f"  {key} = {summary[key]}")

    # ---------------------------------------------------------------------
    # Score weight sensitivity: rerun detection with lambda = 0 (pure
    # feature-space reconstruction error).  R_d and R_n columns are shared;
    # only d and the verdicts change.
    # ---------------------------------------------------------------------
    print("\n$ qbde detect --config run.cfg --lambda 0.0")
    assert main(["detect", *flags, "--lambda", "0.0"]) == 0
    records = read_score_csv(out / "scores.csv")
    labelled_abnormal = [r for r in records if r["label"] == "abnormal"]
    caught = sum(1 for r in labelled_abnormal if r["verdict"] != "Normal")
    false_pos = sum(1 for r in records
                    if r["label"] != "abnormal" and r["verdict"] != "Normal")
    print(f"\nwith lambda = 0: {caught}/{len(labelled_abnormal)} injected "
          f"anomalies flagged, {false_pos} false positives")
    print("top scores:")
    for rec in sorted(records, key=lambda r: -r["d"])[:6]:
        print(f"  {rec['day']}  d={rec['d']:.3f}  {rec['verdict']:<12} "
              f"label={rec['label'] or 'normal'}")
