"""From raw logs to training-ready probability vectors.

Generates a small synthetic log corpus, parses the five CSV files,
aggregates per-user-day features, splits chronologically, normalizes
with training statistics only, and projects onto the simplex.
"""

import tempfile
from pathlib import Path

import numpy as np

from qbde.features import (
    FEATURE_NAMES,
    SynthConfig,
    attach_labels,
    extract_daily,
    normalize,
    parse_logs,
    read_labels_csv,
    split,
    synth_generate,
    to_simplex,
)

# ---------------------------------------------------------------------
# Synthesize 60 days for one user with 10% anomalous days.  Each file
# follows the standard CSV schema (id, date, user, pc, ...).
# ---------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    data_dir = Path(tmp) / "logs"
    result = synth_generate(SynthConfig(n_users=1, n_days=60, anomaly_rate=0.1,
                                        seed=42, out_dir=data_dir))
    events, report = parse_logs(data_dir)
    labels = read_labels_csv(data_dir / "labels.csv")
print("rows per file:", result.row_counts)
print(f"parsed {report.total_events()} events "
      f"({sum(report.malformed.values())} malformed rows)")

# ---------------------------------------------------------------------
# One 16-feature row per user-day, all held as one table of columns:
# user, day and label lists and an (n, 16) matrix x.  The _on/_out split
# follows the 08:00-18:00 working window; size totals device-transfer
# bytes.
# ---------------------------------------------------------------------
days = extract_daily(events)
attach_labels(days, labels)
print(f"\n{len(days)} user-days; features: {', '.join(FEATURE_NAMES)}")
print(f"raw counts for {days.user[0]} {days.day[0]}:")
print(" ", {name: int(x) for name, x in zip(FEATURE_NAMES, days.x[0])})

# ---------------------------------------------------------------------
# Chronological split (train = earliest days), abnormal days excluded
# from training, then per-user min-max normalization from train stats.
# ---------------------------------------------------------------------
dataset = normalize(split(days, train_days=40, test_days=20))
print(f"\ntrain {len(dataset.train)} rows "
      f"(+{len(dataset.excluded)} abnormal excluded), test {len(dataset.test)} rows")
lo, hi = dataset.stats["U0000"]
print("training min/max for http_on:",
      (lo[FEATURE_NAMES.index("http_on")], hi[FEATURE_NAMES.index("http_on")]))
print(f"test values clipped into [0, 1]: {dataset.clipped} "
      f"(out-of-range values are themselves anomaly evidence)")

# ---------------------------------------------------------------------
# Simplex projection: the generator outputs probability vectors, so the
# behavior vectors are L1-normalized to live on the same simplex.
# ---------------------------------------------------------------------
train_simplex = to_simplex(dataset.train.x)
print(f"\nsimplex projection of day 1: sum = {train_simplex[0].sum():.12f}, "
      f"retained activity mass = {dataset.train.x[0].sum():.3f}")
# selecting rows by position gives a table of the same columns
abnormal = dataset.test[[i for i, label in enumerate(dataset.test.label)
                         if label == "abnormal"]]
if len(abnormal):
    mean = train_simplex.mean(axis=0)
    v = to_simplex(abnormal.x[:1])[0]
    print(f"an abnormal day sits {np.abs(v - mean).sum():.3f} (L1) from the "
          f"training mean direction; typical normal days are much closer.")
