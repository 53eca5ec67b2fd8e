"""Detection and evaluation: a small 1-D convolutional scorer plus
reconstruction-error thresholds.

Network shape, fixed by the 16-feature input: conv(1->4 channels, width 3,
stride 1, zero pad 1) -> relu -> maxpool(2) gives 4x8, conv(4->8) -> relu
-> maxpool(2) gives 8x4, flattened to the 32-value embedding, then a
single sigmoid unit.  Forward and backward passes are written out by hand
so the gradients can be checked against finite differences; one gather
from the flat parameters builds both conv matrices and their bias rows.

A day x is scored against the trained generator's output distribution g:
R_d = |x - g|_1 in feature space, R_n = |f(x) - f(g)|_1 in embedding
space, d = (1 - lambda) R_d + lambda R_n.  ``score_rows`` takes one
user's training and test days together and computes R_d, R_n and d as
arrays in one pass, with one forward pass over the days and references.
The abnormality threshold Th_d is the largest training score and the
threat threshold Th_f is 2 Th_d; each record is built once with its
verdict, VERDICTS[(d > Th_d) + (d > Th_f)]: Normal, Low_threat or
High_threat, each band including its upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .checkpoint import Section, read_csv, read_kv, write_csv, write_kv
from .optim import Adam
from .qgan import _clamp, _rows, _sigmoid

INPUT_LEN = 16
EMBED_LEN = 32
BATCH = 32   # rows per training step
LR = 0.01    # Adam step size

# indexed by a score's band: (d > th_d) + (d > th_f)
VERDICTS = ("Normal", "Low_threat", "High_threat")
VERDICT_NORMAL = VERDICTS[0]


_SHAPES = [(4, 1, 3), (4,), (8, 4, 3), (8,), (EMBED_LEN,), (1,)]
_ENDS = np.cumsum([math.prod(shape) for shape in _SHAPES]).tolist()
_W1, _B1, _W2, _B2, _FC_W, _FC_B = map(slice, [0, *_ENDS], _ENDS)  # in the flat vector
N_PARAMS = _ENDS[-1]


def _views(flat: np.ndarray) -> list[np.ndarray]:
    """The six parameters' views of a vector laid out like ``BdeNet.flat``."""
    return [flat[part].reshape(shape) for part, shape in
            zip((_W1, _B1, _W2, _B2, _FC_W, _FC_B), _SHAPES)]


@dataclass
class BdeNet:
    """The scorer's parameters in one vector: conv1 weights (4, 1, 3) and
    biases (4,), conv2 weights (8, 4, 3) and biases (8,), the output unit's
    weights (32,) and bias (1,), then the 0.0 the conv gather reads for the
    matrices' empty cells."""

    flat: np.ndarray   # (N_PARAMS + 1,)

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=float)
        if self.flat.shape != (N_PARAMS + 1,) or self.flat[-1] != 0.0:
            raise ValueError(f"want {N_PARAMS} parameters and a trailing 0.0, "
                             f"got shape {self.flat.shape}")

    @classmethod
    def create(cls, rng: np.random.Generator) -> "BdeNet":
        """He-initialised weights, zero biases, drawn from ``rng``."""
        net = cls(np.zeros(N_PARAMS + 1))
        conv1_w, _, conv2_w, _, fc_w, _ = net.param_list()
        for w, fan_in in ((conv1_w, 3), (conv2_w, 12), (fc_w, EMBED_LEN)):
            w[...] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=w.shape)
        return net

    def param_list(self) -> list[np.ndarray]:
        """Views of the six parameters, in the order of ``flat``."""
        return _views(self.flat)


def _conv_layer(c_in: int, c_out: int, length: int, w: int, b: int):
    """A width-3, zero-pad-1 convolution as a banded (c_in*L, c_out*L) matrix:
    the cells holding a weight, the weight each holds, and the matrix and bias
    row as indices into the parameters (empty cells read the 0.0 after them)."""
    o, i, k, t = np.indices((c_out, c_in, 3, length)).reshape(4, -1)
    s = t + k - 1
    keep = (s >= 0) & (s < length)
    cells = ((i * length + s) * (c_out * length) + o * length + t)[keep]
    taps = ((o * c_in + i) * 3 + k)[keep]
    gather = np.full((c_in * length + 1, c_out * length), N_PARAMS)
    gather.flat[cells] = w + taps
    gather[-1] = b + np.repeat(np.arange(c_out), length)
    return cells, taps, gather.ravel()


_CONV1 = _conv_layer(1, 4, INPUT_LEN, _W1.start, _B1.start)
_CONV2 = _conv_layer(4, 8, INPUT_LEN // 2, _W2.start, _B2.start)
_GATHER = np.concatenate([_CONV1[2], _CONV2[2]])   # both layers, one take()
_WIDTH = 4 * INPUT_LEN   # both layers' output: 4 channels x 16, 8 x 8


def _relu_pool(z: np.ndarray):
    """ReLU in place, the max of each (even, odd) pair, and which pairs' max
    the left and the right slot gave (ties go left, zero pairs nowhere)."""
    np.maximum(z, 0.0, out=z)
    left, right = z[:, 0::2], z[:, 1::2]
    pooled = np.maximum(left, right)
    to_right = right > left
    return pooled, ((pooled > 0.0) > to_right, to_right)   # bool a > b: a and not b


def _unpool(dp: np.ndarray, route) -> np.ndarray:
    dz = np.empty((len(dp), 2 * dp.shape[1]))
    np.multiply(dp, route[0], out=dz[:, 0::2])
    np.multiply(dp, route[1], out=dz[:, 1::2])
    return dz


def _forward(flat: np.ndarray, x: np.ndarray):
    """Unclamped scores, embeddings, and what the backward pass needs."""
    g = flat.take(_GATHER)
    layer1 = g[:len(_CONV1[2])].reshape(-1, _WIDTH)    # (16 + 1, 4*16)
    layer2 = g[len(_CONV1[2]):].reshape(-1, _WIDTH)    # (4*8 + 1, 8*8)
    p1, route1 = _relu_pool(x @ layer1[:-1] + layer1[-1])       # (m, 4*8)
    emb, route2 = _relu_pool(p1 @ layer2[:-1] + layer2[-1])     # (m, 8*4)
    z_raw = _sigmoid(emb @ flat[_FC_W] + flat[_FC_B][0])
    return z_raw, emb, (p1, layer2[:-1], route1, route2)


def _conv_grads(dz: np.ndarray, xin: np.ndarray, conv, dw: np.ndarray, db: np.ndarray):
    """A layer's weight and bias gradients, from its output gradient and input."""
    dw[:] = np.bincount(conv[1], weights=(xin.T @ dz).take(conv[0]))
    np.add.reduce(np.add.reduce(dz, axis=0).reshape(len(db), -1), axis=1, out=db)


def _grads(flat: np.ndarray, x: np.ndarray, y: np.ndarray, grad: np.ndarray):
    """Cross-entropy gradients of a labelled batch into ``grad``; the unclamped scores."""
    z_raw, emb, (p1, t2, route1, route2) = _forward(flat, x)
    dz = (z_raw - y) / len(y)   # gradient at the output pre-activation
    dz2 = _unpool(np.outer(dz, flat[_FC_W]), route2)
    _conv_grads(dz2, p1, _CONV2, grad[_W2], grad[_B2])
    _conv_grads(_unpool(dz2 @ t2.T, route1), x, _CONV1, grad[_W1], grad[_B1])
    grad[_FC_W] = dz @ emb
    grad[_FC_B] = dz.sum()
    return z_raw


def bde_forward(net: BdeNet, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Score in (0, 1) plus the 32-value embedding for one input."""
    z_raw, emb, _ = _forward(net.flat, _rows(np.reshape(x, (1, -1)), INPUT_LEN))
    return float(_clamp(z_raw[0])), emb[0]


def bce_loss_and_grads(net: BdeNet, x: np.ndarray,
                       y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Binary cross-entropy over a labelled batch and its gradients, in
    ``param_list()`` order."""
    y = np.asarray(y, dtype=float)
    grad = np.empty(N_PARAMS)
    z_raw = _grads(net.flat, _rows(x, INPUT_LEN), y, grad)
    score = _clamp(z_raw)
    loss = float(-np.mean(y * np.log(score) + (1 - y) * np.log(1 - score)))
    return loss, _views(grad)


def train_bde(real: np.ndarray, generated: np.ndarray, epochs: int,
              seed: int) -> BdeNet:
    """Fit the scorer to separate real rows (label 1) from generated rows
    (label 0) by minimizing cross-entropy; deterministic under the seed.
    Each epoch permutes the rows once and steps through them in slices."""
    real, generated = _rows(real, INPUT_LEN), _rows(generated, INPUT_LEN)
    if len(real) == 0 or len(generated) == 0:
        raise ValueError("both training sets must be non-empty")
    x = np.vstack([real, generated])
    y = np.concatenate([np.ones(len(real)), np.zeros(len(generated))])
    rng = np.random.default_rng(seed)
    net = BdeNet.create(rng)
    # Adam steps the parameters, all of the vector but its trailing 0.0
    params, grad = net.flat[:N_PARAMS], np.empty(N_PARAMS)
    opt = Adam(LR, params)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        x_epoch, y_epoch = x[order], y[order]
        for start in range(0, len(x), BATCH):
            _grads(net.flat, x_epoch[start:start + BATCH],
                   y_epoch[start:start + BATCH], grad)
            opt.step(params, grad)
    return net


# --------------------------------------------------------------------------
# Scoring, thresholds, verdicts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Thresholds:
    """Abnormal above ``th_d``; a threat above ``th_f``, twice ``th_d``."""
    th_d: float

    @property
    def th_f(self) -> float:
        return 2.0 * self.th_d


@dataclass
class ScoreRecord:
    user: str
    day: date
    r_d: float
    r_n: float
    d: float
    th: Thresholds
    verdict: str
    label: str | None


def _recon_batch(x: np.ndarray, refs: np.ndarray, net: BdeNet):
    """R_d and R_n of every row of ``x`` against its nearest (L1) row of
    ``refs``, plus that index; rows and references share one forward pass."""
    dist = np.abs(x[:, None, :] - refs[None, :, :]).sum(axis=2)
    nearest = np.argmin(dist, axis=1)
    _, emb, _ = _forward(net.flat, _rows(np.vstack([x, refs]), INPUT_LEN))
    r_n = np.abs(emb[:len(x)] - emb[len(x):][nearest]).sum(axis=1)
    return dist[np.arange(len(x)), nearest], r_n, nearest


def recon_errors(x: np.ndarray, reference: np.ndarray,
                 net: BdeNet) -> tuple[float, float]:
    """L1 reconstruction errors in feature space and in embedding space."""
    r_d, r_n, _ = _recon_batch(np.atleast_2d(x), np.atleast_2d(reference), net)
    return float(r_d[0]), float(r_n[0])


def behavior_score(r_d, r_n, lam: float):
    """Weighted score d = (1 - lambda) R_d + lambda R_n, of floats or arrays."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    return (1.0 - lam) * r_d + lam * r_n


def fit_thresholds(train_scores) -> Thresholds:
    """Abnormality threshold = max training score; threat threshold = 2x."""
    scores = np.asarray(train_scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cannot fit thresholds on an empty score list")
    return Thresholds(float(scores.max()))


def confusion(verdicts, ground_truth) -> dict[str, int]:
    """TP/TN/FP/FN with abnormal as the positive class."""
    verdicts = list(verdicts)
    truth = list(ground_truth)
    if len(verdicts) != len(truth):
        raise ValueError("verdicts and ground truth differ in length")
    counts = {"TP": 0, "TN": 0, "FP": 0, "FN": 0}
    for v, t in zip(verdicts, truth):
        pred = v != VERDICT_NORMAL
        real = t == "abnormal"
        key = ("T" if pred == real else "F") + ("P" if pred else "N")
        counts[key] += 1
    return counts


def accuracy(counts: dict[str, int]) -> float:
    """Binary accuracy from ``confusion`` counts (Low/High are abnormal)."""
    return (counts["TP"] + counts["TN"]) / sum(counts.values())


def score_rows(rows, x: np.ndarray, references: np.ndarray, net: BdeNet,
               lam: float, n_train: int) -> list[ScoreRecord]:
    """One record per row of ``x`` (the simplex vectors of ``rows``), with
    its verdict.  The first ``n_train`` rows are the training window: the
    thresholds come from their scores, and ``d`` is Normal up to ``th_d``,
    Low_threat up to ``th_f`` and High_threat above.

    ``references`` is one distribution or a stack of candidate samples; a
    row is scored against its nearest candidate (the single-reference case
    reduces to plain scoring).
    """
    r_d, r_n, _ = _recon_batch(x, np.atleast_2d(references), net)
    d = behavior_score(r_d, r_n, lam)
    th = fit_thresholds(d[:n_train])
    band = (d > th.th_d).astype(int) + (d > th.th_f)
    return [ScoreRecord(row.user, row.day, rd, rn, score, th, VERDICTS[b],
                        row.label)
            for row, rd, rn, score, b in zip(rows, r_d.tolist(), r_n.tolist(),
                                             d.tolist(), band.tolist())]


# --------------------------------------------------------------------------
# Report files
# --------------------------------------------------------------------------

SCORE_COLUMNS = ["user", "day", "r_d", "r_n", "d", "th_d", "th_f",
                 "verdict", "label"]
SUMMARY_MAGIC = "qbde-detection-summary"


def write_score_csv(path: str | Path, records: list[ScoreRecord],
                    comment: str | None = None) -> None:
    write_csv(path, SCORE_COLUMNS,
              ([rec.user, rec.day.isoformat(), rec.r_d, rec.r_n, rec.d,
                rec.th.th_d, rec.th.th_f, rec.verdict, rec.label or ""]
               for rec in records),
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
                  train_records: list[ScoreRecord], lam: float,
                  comment: str | None = None) -> float | None:
    """Machine-readable detection summary: verdict counts, each user's
    thresholds (read from that user's records) and, when ground truth is
    present, accuracy and confusion counts.  Returns that accuracy, or
    None without ground truth."""
    entries = {"config_digest": comment} if comment else {}
    thresholds = {rec.user: rec.th for rec in [*train_records, *records]}
    users = sorted(thresholds)
    entries["lambda"] = repr(lam)
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
    acc = None
    if labelled:
        counts = confusion([r.verdict for r in labelled],
                           [r.label for r in labelled])
        acc = accuracy(counts)
        entries["accuracy"] = repr(acc)
        for key, value in counts.items():
            entries[f"confusion.{key}"] = value
    write_kv(path, SUMMARY_MAGIC, {"": entries})
    return acc


def read_summary(path: str | Path) -> Section:
    """The summary's entries; a missing one raises ``SchemaError``."""
    return read_kv(path, SUMMARY_MAGIC)[""]
