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

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .checkpoint import Section, read_csv, read_kv, write_csv, write_kv
from .optim import Adam, flat_views, flatten
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


def _conv_index(c_in: int, c_out: int, length: int):
    """A width-3, zero-pad-1 convolution as a banded (c_in*L, c_out*L) matrix:
    its flat positions, the flat weight each holds, and the matrix shape."""
    o, i, k, t = np.indices((c_out, c_in, 3, length)).reshape(4, -1)
    s = t + k - 1
    keep = (s >= 0) & (s < length)
    pos = (i * length + s) * (c_out * length) + o * length + t
    return pos[keep], ((o * c_in + i) * 3 + k)[keep], (c_in * length, c_out * length)


_CONV1 = _conv_index(1, 4, INPUT_LEN)
_CONV2 = _conv_index(4, 8, INPUT_LEN // 2)


def _conv_matrix(w: np.ndarray, index) -> np.ndarray:
    """The live weights scattered into the layer's (C_in*L, C_out*L) matrix."""
    mat = np.zeros(index[2])
    np.put(mat, index[0], w.ravel()[index[1]])
    return mat


def _pool(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over (even, odd) position pairs; ties resolve to the left."""
    left, right = a[:, 0::2], a[:, 1::2]
    return np.maximum(left, right), right > left


def _unpool(dp: np.ndarray, take_right: np.ndarray) -> np.ndarray:
    out = np.zeros((len(dp), 2 * dp.shape[1]))
    out[:, 0::2] = np.where(take_right, 0.0, dp)
    out[:, 1::2] = np.where(take_right, dp, 0.0)
    return out


def _forward_batch(net: BdeNet, x: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != INPUT_LEN:
        raise ValueError(f"expected input length {INPUT_LEN}, got {x.shape[1]}")
    t2 = _conv_matrix(net.conv2_w, _CONV2)                  # (4*8, 8*8)
    z1 = x @ _conv_matrix(net.conv1_w, _CONV1) + np.repeat(net.conv1_b, INPUT_LEN)
    p1, tr1 = _pool(np.maximum(z1, 0.0))                    # (m, 4*8)
    z2 = p1 @ t2 + np.repeat(net.conv2_b, INPUT_LEN // 2)   # (m, 8*8)
    emb, tr2 = _pool(np.maximum(z2, 0.0))                   # (m, 8*4)
    z_raw = _sigmoid(emb @ net.fc_w + net.fc_b[0])
    score = np.clip(z_raw, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    cache = {"x": x, "t2": t2, "z1": z1, "p1": p1, "tr1": tr1, "z2": z2,
             "tr2": tr2, "z_raw": z_raw}
    return score, emb, cache


def _conv_grads(dz: np.ndarray, xin: np.ndarray, w: np.ndarray, index):
    """Weight and bias gradients from the output gradient and the layer input."""
    dw = np.bincount(index[1], weights=(xin.T @ dz).take(index[0]), minlength=w.size)
    return dw.reshape(w.shape), dz.sum(axis=0).reshape(w.shape[0], -1).sum(axis=1)


def bde_forward(net: BdeNet, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Score in (0, 1) plus the 32-value embedding for one input."""
    score, emb, _ = _forward_batch(net, np.asarray(x, dtype=float).reshape(1, -1))
    return float(score[0]), emb[0]


def bce_loss_and_grads(net: BdeNet, x: np.ndarray,
                       y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Binary cross-entropy over a labelled batch and its gradients, in
    ``param_list()`` order."""
    score, emb, c = _forward_batch(net, x)
    y = np.asarray(y, dtype=float)
    loss = float(-np.mean(y * np.log(score) + (1 - y) * np.log(1 - score)))
    dz = (c["z_raw"] - y) / len(y)   # gradient at the output pre-activation
    dz2 = _unpool(np.outer(dz, net.fc_w), c["tr2"]) * (c["z2"] > 0)
    dw2, db2 = _conv_grads(dz2, c["p1"], net.conv2_w, _CONV2)
    dz1 = _unpool(dz2 @ c["t2"].T, c["tr1"]) * (c["z1"] > 0)
    dw1, db1 = _conv_grads(dz1, c["x"], net.conv1_w, _CONV1)
    return loss, [dw1, db1, dw2, db2, dz @ emb, np.array([dz.sum()])]


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
    init = BdeNet.create(rng).param_list()
    # Adam steps one flat vector; the six parameters are views of it.
    flat = flatten(init)
    net = BdeNet(*flat_views(flat, init))
    opt = Adam(cfg.lr)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch):
            idx = order[start:start + cfg.batch]
            _, grads = bce_loss_and_grads(net, x[idx], y[idx])
            opt.step(flat, flatten(grads))
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


def _recon_batch(x: np.ndarray, refs: np.ndarray, net: BdeNet):
    """R_d and R_n of every row of ``x`` against its nearest (L1) row of
    ``refs``, plus that index; rows and references share one forward pass."""
    dist = np.abs(x[:, None, :] - refs[None, :, :]).sum(axis=2)
    nearest = np.argmin(dist, axis=1)
    _, emb, _ = _forward_batch(net, np.vstack([x, refs]))
    r_n = np.abs(emb[:len(x)] - emb[len(x):][nearest]).sum(axis=1)
    return dist[np.arange(len(x)), nearest], r_n, nearest


def recon_errors(x: np.ndarray, reference: np.ndarray,
                 net: BdeNet) -> tuple[float, float]:
    """L1 reconstruction errors in feature space and in embedding space."""
    r_d, r_n, _ = _recon_batch(np.atleast_2d(x), np.atleast_2d(reference), net)
    return float(r_d[0]), float(r_n[0])


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
    rows = list(rows)
    x = np.reshape([to_vector(row) for row in rows], (len(rows), INPUT_LEN))
    r_d, r_n, _ = _recon_batch(x, np.atleast_2d(references), net)
    return [ScoreRecord(row.user, row.day, float(rd), float(rn),
                        behavior_score(float(rd), float(rn), lam), "", row.label)
            for row, rd, rn in zip(rows, r_d, r_n)]


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
SUMMARY_MAGIC = "qbde-detection-summary"


def write_score_csv(path: str | Path, records: list[ScoreRecord],
                    comment: str | None = None) -> None:
    write_csv(path, SCORE_COLUMNS,
              ([rec.user, rec.day.isoformat(), rec.r_d, rec.r_n, rec.d, rec.th_d,
                rec.th_f, rec.verdict, rec.label or ""] for rec in records),
              comment)


def read_score_csv(path: str | Path) -> list[dict]:
    return read_csv(
        path, "score", lambda header: header == SCORE_COLUMNS, len(SCORE_COLUMNS),
        lambda rec: {
            "user": rec[0], "day": date.fromisoformat(rec[1]),
            "r_d": float(rec[2]), "r_n": float(rec[3]),
            "d": float(rec[4]), "th_d": float(rec[5]),
            "th_f": float(rec[6]), "verdict": rec[7],
            "label": rec[8] or None,
        })


def write_summary(path: str | Path, records: list[ScoreRecord],
                  thresholds: dict[str, Thresholds],
                  train_records: list[ScoreRecord],
                  comment: str | None = None) -> None:
    """Machine-readable detection summary: verdict counts, per-user
    thresholds and, when ground truth is present, accuracy and confusion
    counts."""
    entries = {"config_digest": comment} if comment else {}
    users = sorted(thresholds)
    entries["lambda"] = repr(thresholds[users[0]].lam)
    entries["users"] = " ".join(users)
    for user in users:
        entries[f"th_d.{user}"] = repr(thresholds[user].th_d)
        entries[f"th_f.{user}"] = repr(thresholds[user].th_f)
    entries["test_records"] = len(records)
    for verdict in VERDICTS:
        entries[f"count.{verdict}"] = sum(1 for r in records if r.verdict == verdict)
    entries["train_records"] = len(train_records)
    entries["train_abnormal_verdicts"] = sum(1 for r in train_records
                                             if r.verdict != VERDICT_NORMAL)
    labelled = [r for r in records if r.label is not None]
    if labelled:
        verdicts = [r.verdict for r in labelled]
        truth = [r.label for r in labelled]
        entries["accuracy"] = repr(accuracy(verdicts, truth))
        for key, value in confusion(verdicts, truth).items():
            entries[f"confusion.{key}"] = value
    write_kv(path, SUMMARY_MAGIC, {"": entries})


def read_summary(path: str | Path) -> Section:
    """The summary's entries; a missing one raises ``SchemaError``."""
    return read_kv(path, SUMMARY_MAGIC)[""]
