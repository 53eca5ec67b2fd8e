"""Detection and evaluation: a small 1-D convolutional scorer plus
reconstruction-error thresholds.

Network shape, fixed by the 16-feature input: conv(1->4 channels, width 3,
stride 1, zero pad 1) -> relu -> maxpool(2) gives 4x8, conv(4->8) -> relu
-> maxpool(2) gives 8x4, flattened to the 32-value embedding, then a
single sigmoid unit.  Forward and backward passes are written out by hand
so the gradients can be checked against finite differences.

A test day x is scored against the trained generator's output
distribution g: R_d = |x - g|_1 in feature space, R_n = |f(x) - f(g)|_1
in embedding space, d = (1 - lambda) R_d + lambda R_n.  The abnormality
threshold is the maximum train-set score and the threat threshold is
twice that; scores land in Normal, Low_threat or High_threat.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .optim import Adam
from .qgan import SIGMOID_CLAMP, _sigmoid

INPUT_LEN = 16
EMBED_LEN = 32

VERDICT_NORMAL = "Normal"
VERDICT_LOW = "Low_threat"
VERDICT_HIGH = "High_threat"
VERDICTS = (VERDICT_NORMAL, VERDICT_LOW, VERDICT_HIGH)


@dataclass
class BdeNet:
    conv1_w: np.ndarray  # (4, 1, 3)
    conv1_b: np.ndarray  # (4,)
    conv2_w: np.ndarray  # (8, 4, 3)
    conv2_b: np.ndarray  # (8,)
    fc_w: np.ndarray     # (32,)
    fc_b: np.ndarray     # (1,)

    def __post_init__(self):
        shapes = [(4, 1, 3), (4,), (8, 4, 3), (8,), (EMBED_LEN,), (1,)]
        for arr, want in zip(self.param_list(), shapes):
            if arr.shape != want:
                raise ValueError(f"bad parameter shape {arr.shape}, want {want}")

    @classmethod
    def create(cls, rng: np.random.Generator) -> "BdeNet":
        def he(shape, fan_in):
            return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
        return cls(he((4, 1, 3), 3), np.zeros(4),
                   he((8, 4, 3), 12), np.zeros(8),
                   he((EMBED_LEN,), EMBED_LEN), np.zeros(1))

    def param_list(self) -> list[np.ndarray]:
        return [self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b,
                self.fc_w, self.fc_b]


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Width-3, stride-1 convolution with zero padding 1 on (m, C_in, L)."""
    m, _, length = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    out = np.zeros((m, w.shape[0], length))
    for k in range(3):
        out += np.einsum("oi,mil->mol", w[:, :, k], xp[:, :, k:k + length])
    return out + b[None, :, None]


def _maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    left, right = x[:, :, 0::2], x[:, :, 1::2]
    take_right = right > left  # ties resolve to the left slot
    return np.where(take_right, right, left), take_right


def _forward_batch(net: BdeNet, x: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != INPUT_LEN:
        raise ValueError(f"expected input length {INPUT_LEN}, got {x.shape[1]}")
    x3 = x[:, None, :]                              # (m, 1, 16)
    z1 = _conv1d(x3, net.conv1_w, net.conv1_b)      # (m, 4, 16)
    a1 = np.maximum(z1, 0.0)
    p1, tr1 = _maxpool2(a1)                         # (m, 4, 8)
    z2 = _conv1d(p1, net.conv2_w, net.conv2_b)      # (m, 8, 8)
    a2 = np.maximum(z2, 0.0)
    p2, tr2 = _maxpool2(a2)                         # (m, 8, 4)
    emb = p2.reshape(x.shape[0], EMBED_LEN)
    z_raw = _sigmoid(emb @ net.fc_w + net.fc_b[0])
    score = np.clip(z_raw, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    cache = {"x3": x3, "z1": z1, "p1": p1, "tr1": tr1, "z2": z2, "tr2": tr2,
             "emb": emb, "z_raw": z_raw}
    return score, emb, cache


def _conv1d_backward(dout, xin, w):
    """Gradients of _conv1d: dout (m, C_out, L), xin the unpadded input."""
    m, _, length = xin.shape
    xp = np.pad(xin, ((0, 0), (0, 0), (1, 1)))
    dw = np.stack([np.einsum("mol,mil->oi", dout, xp[:, :, k:k + length])
                   for k in range(3)], axis=2)
    db = dout.sum(axis=(0, 2))
    dxp = np.zeros_like(xp)
    for k in range(3):
        dxp[:, :, k:k + length] += np.einsum("oi,mol->mil", w[:, :, k], dout)
    return dw, db, dxp[:, :, 1:-1]


def _unpool2(dp, take_right, shape):
    dx = np.zeros(shape)
    dx[:, :, 0::2] = np.where(take_right, 0.0, dp)
    dx[:, :, 1::2] = np.where(take_right, dp, 0.0)
    return dx


def _backward_batch(net: BdeNet, cache: dict, dz_out: np.ndarray) -> list[np.ndarray]:
    """Gradients w.r.t. every parameter from the output pre-activation
    gradient ``dz_out`` (one entry per sample)."""
    emb = cache["emb"]
    dfc_w = dz_out @ emb
    dfc_b = np.array([dz_out.sum()])
    demb = np.outer(dz_out, net.fc_w)
    dp2 = demb.reshape(-1, 8, 4)
    da2 = _unpool2(dp2, cache["tr2"], cache["z2"].shape)
    dz2 = da2 * (cache["z2"] > 0)
    dw2, db2, dp1 = _conv1d_backward(dz2, cache["p1"], net.conv2_w)
    da1 = _unpool2(dp1, cache["tr1"], cache["z1"].shape)
    dz1 = da1 * (cache["z1"] > 0)
    dw1, db1, _ = _conv1d_backward(dz1, cache["x3"], net.conv1_w)
    return [dw1, db1, dw2, db2, dfc_w, dfc_b]


def bde_forward(net: BdeNet, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Score in (0, 1) plus the 32-value embedding for one input."""
    score, emb, _ = _forward_batch(net, np.asarray(x, dtype=float).reshape(1, -1))
    return float(score[0]), emb[0]


def bce_loss_and_grads(net: BdeNet, x: np.ndarray,
                       y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Binary cross-entropy over a labelled batch and its gradients."""
    score, _, cache = _forward_batch(net, x)
    y = np.asarray(y, dtype=float)
    loss = float(-np.mean(y * np.log(score) + (1 - y) * np.log(1 - score)))
    dz = (cache["z_raw"] - y) / len(y)
    return loss, _backward_batch(net, cache, dz)


@dataclass
class BdeTrainConfig:
    epochs: int = 200
    batch: int = 32
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch < 1 or self.lr <= 0:
            raise ValueError("bad BDE training configuration")


def train_bde(real: np.ndarray, generated: np.ndarray,
              cfg: BdeTrainConfig = BdeTrainConfig()) -> BdeNet:
    """Fit the scorer to separate real rows (label 1) from generated rows
    (label 0) by minimizing cross-entropy; deterministic under the seed."""
    real = np.atleast_2d(np.asarray(real, dtype=float))
    generated = np.atleast_2d(np.asarray(generated, dtype=float))
    if real.size == 0 or generated.size == 0:
        raise ValueError("both training sets must be non-empty")
    x = np.vstack([real, generated])
    y = np.concatenate([np.ones(len(real)), np.zeros(len(generated))])
    rng = np.random.default_rng(cfg.seed)
    net = BdeNet.create(rng)
    opt = Adam(cfg.lr)
    params = net.param_list()
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch):
            idx = order[start:start + cfg.batch]
            _, grads = bce_loss_and_grads(net, x[idx], y[idx])
            opt.step(params, grads)
    return net


def bde_accuracy(net: BdeNet, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows on the right side of the 0.5 decision line."""
    score, _, _ = _forward_batch(net, x)
    return float(np.mean((score > 0.5) == (np.asarray(y) > 0.5)))


# --------------------------------------------------------------------------
# Scoring, thresholds, verdicts
# --------------------------------------------------------------------------

@dataclass
class Thresholds:
    th_d: float
    th_f: float
    lam: float = 0.1

    def __post_init__(self):
        if self.th_f != 2.0 * self.th_d:
            raise ValueError("threat threshold must be exactly twice th_d")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


@dataclass
class ScoreRecord:
    user: str
    day: date
    r_d: float
    r_n: float
    d: float
    verdict: str
    label: str | None = None
    th_d: float = 0.0
    th_f: float = 0.0


def recon_errors(x: np.ndarray, reference: np.ndarray,
                 net: BdeNet) -> tuple[float, float]:
    """L1 reconstruction errors in feature space and in embedding space."""
    x = np.asarray(x, dtype=float)
    reference = np.asarray(reference, dtype=float)
    r_d = float(np.abs(x - reference).sum())
    _, fx = bde_forward(net, x)
    _, fg = bde_forward(net, reference)
    return r_d, float(np.abs(fx - fg).sum())


def behavior_score(r_d: float, r_n: float, lam: float) -> float:
    """Weighted score d = (1 - lambda) R_d + lambda R_n."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    return (1.0 - lam) * r_d + lam * r_n


def fit_thresholds(train_scores, lam: float = 0.1) -> Thresholds:
    """Abnormality threshold = max training score; threat threshold = 2x."""
    scores = list(train_scores)
    if not scores:
        raise ValueError("cannot fit thresholds on an empty score list")
    th_d = float(max(scores))
    return Thresholds(th_d=th_d, th_f=2.0 * th_d, lam=lam)


def classify(d: float, th: Thresholds) -> str:
    if d <= th.th_d:
        return VERDICT_NORMAL
    if d <= th.th_f:
        return VERDICT_LOW
    return VERDICT_HIGH


def accuracy(verdicts, ground_truth) -> float:
    """Binary accuracy with Low/High collapsed to abnormal."""
    verdicts = list(verdicts)
    truth = list(ground_truth)
    if len(verdicts) != len(truth):
        raise ValueError("verdicts and ground truth differ in length")
    hits = sum((v != VERDICT_NORMAL) == (t == "abnormal")
               for v, t in zip(verdicts, truth))
    return hits / len(verdicts)


def confusion(verdicts, ground_truth) -> dict[str, int]:
    """TP/TN/FP/FN with abnormal as the positive class."""
    counts = {"TP": 0, "TN": 0, "FP": 0, "FN": 0}
    for v, t in zip(verdicts, ground_truth):
        pred = v != VERDICT_NORMAL
        real = t == "abnormal"
        key = ("T" if pred == real else "F") + ("P" if pred else "N")
        counts[key] += 1
    return counts


def score_rows(rows, references: np.ndarray, net: BdeNet, lam: float,
               to_vector) -> list[ScoreRecord]:
    """Score behavior rows against the generator reference; verdicts are
    filled in later once thresholds exist.

    ``references`` is one distribution or a stack of candidate samples; a
    row is scored against its nearest candidate (the single-reference case
    reduces to plain scoring).
    """
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    records = []
    for row in rows:
        x = to_vector(row)
        nearest = int(np.argmin(np.abs(x - refs).sum(axis=1)))
        r_d, r_n = recon_errors(x, refs[nearest], net)
        records.append(ScoreRecord(row.user, row.day, r_d, r_n,
                                   behavior_score(r_d, r_n, lam), "", row.label))
    return records


def apply_verdicts(records: list[ScoreRecord], th: Thresholds) -> None:
    for rec in records:
        rec.verdict = classify(rec.d, th)
        rec.th_d = th.th_d
        rec.th_f = th.th_f


# --------------------------------------------------------------------------
# Report files
# --------------------------------------------------------------------------

SCORE_COLUMNS = ["user", "day", "r_d", "r_n", "d", "th_d", "th_f",
                 "verdict", "label"]


def write_score_csv(path: str | Path, records: list[ScoreRecord],
                    comment: str | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SCORE_COLUMNS)
        for rec in records:
            writer.writerow([rec.user, rec.day.isoformat(), repr(rec.r_d),
                             repr(rec.r_n), repr(rec.d), repr(rec.th_d),
                             repr(rec.th_f), rec.verdict, rec.label or ""])


def read_score_csv(path: str | Path) -> list[dict]:
    out = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        header = next(reader, None)
        if header != SCORE_COLUMNS:
            raise SchemaError(f"{path}: not a score CSV")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(SCORE_COLUMNS):
                raise SchemaError(f"{path}: line {lineno}: expected "
                                  f"{len(SCORE_COLUMNS)} columns")
            try:
                out.append({
                    "user": rec[0], "day": date.fromisoformat(rec[1]),
                    "r_d": float(rec[2]), "r_n": float(rec[3]),
                    "d": float(rec[4]), "th_d": float(rec[5]),
                    "th_f": float(rec[6]), "verdict": rec[7],
                    "label": rec[8] or None,
                })
            except ValueError as exc:
                raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
    return out


def write_summary(path: str | Path, records: list[ScoreRecord],
                  thresholds: dict[str, Thresholds],
                  train_records: list[ScoreRecord],
                  comment: str | None = None) -> None:
    """Machine-readable detection summary: verdict counts, per-user
    thresholds and, when ground truth is present, accuracy and confusion
    counts."""
    lines = ["qbde-detection-summary"]
    if comment:
        lines.append(f"config_digest = {comment}")
    users = sorted(thresholds)
    lines.append(f"lambda = {repr(thresholds[users[0]].lam)}")
    lines.append(f"users = {' '.join(users)}")
    for user in users:
        lines.append(f"th_d.{user} = {repr(thresholds[user].th_d)}")
        lines.append(f"th_f.{user} = {repr(thresholds[user].th_f)}")
    lines.append(f"test_records = {len(records)}")
    for verdict in VERDICTS:
        lines.append(f"count.{verdict} = "
                     f"{sum(1 for r in records if r.verdict == verdict)}")
    lines.append(f"train_records = {len(train_records)}")
    lines.append(f"train_abnormal_verdicts = "
                 f"{sum(1 for r in train_records if r.verdict != VERDICT_NORMAL)}")
    labelled = [r for r in records if r.label is not None]
    if labelled:
        verdicts = [r.verdict for r in labelled]
        truth = [r.label for r in labelled]
        lines.append(f"accuracy = {repr(accuracy(verdicts, truth))}")
        for key, value in confusion(verdicts, truth).items():
            lines.append(f"confusion.{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_summary(path: str | Path) -> dict[str, str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "qbde-detection-summary":
        raise SchemaError(f"{path}: not a detection summary")
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise SchemaError(f"{path}: line {lineno}: unparseable {line!r}")
        out[key] = value
    return out
