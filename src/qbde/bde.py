"""Detection and evaluation: a small 1-D convolutional scorer plus
reconstruction-error thresholds.

Network shape, fixed by the 16-feature input: conv(1->4 channels, width 3,
stride 1, zero pad 1) -> relu -> maxpool(2) gives 4x8, conv(4->8) -> relu
-> maxpool(2) gives 8x4, flattened to the 32-value embedding, then a
single sigmoid unit.  Forward and backward passes are written out by hand
so the gradients can be checked against finite differences; one gather
from the flat parameters builds both conv matrices and their bias rows.
The same passes take an optional leading user axis: ``train_bde`` steps
a stack of users' scorers at once, each bit-identical to training alone.
A trained scorer can be saved under ``scorer_key``, the digest of exactly
what ``train_bde`` fitted it to, and ``load_scorer`` gives it back only
for that key, so a caller reuses it instead of training it again.

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

import functools
import hashlib
import math
from dataclasses import dataclass
from datetime import date
from operator import attrgetter
from pathlib import Path

import numpy as np

from .checkpoint import (Section, _get_array, _put_array, convert_cells,
                         float_fields, read_csv, read_kv, text_fields,
                         write_columns, write_kv)
from .errors import SchemaError
from .features import _feature_label
from .optim import Adam
from .qgan import _clamp, _rows, _sigmoid

INPUT_LEN = 16
EMBED_LEN = 32
BATCH = 32   # rows per training step
LR = 0.01    # Adam step size
# names the training recipe in every scorer_key: a change to the scorer's
# arithmetic (layers, initialisation, batching, stacking, Adam, the order
# of any sum) must bump it, or saved scorers the new recipe would not
# train are reused
SCORER_VERSION = 1
SCORER_MAGIC = "qbde-scorer-v1"

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
_SPLIT = len(_CONV1[2])
_WIDTH = 4 * INPUT_LEN   # both layers' output: 4 channels x 16, 8 x 8


class _Pass:
    """Buffers of one forward and backward pass of the parameters ``flat``
    over ``rows`` input rows: one net's vector, or a stack of nets' rows
    (a leading user axis on every buffer).  They are allocated once and
    overwritten by every pass: the conv matrices ``g`` gathered from
    ``flat``, each conv layer's pooled output and pooling routes, the
    output unit's pre-activation ``logit`` and gradient ``dz``, and the
    parameter gradient ``grad``, laid out like the parameters.  Buffers
    whose uses never overlap are shared: ``z`` holds each conv layer's
    pre-activation and later the gradient there, ``d`` the gradient at the
    embedding and then at the first pooled output.  The gather and each
    layer's cells and taps are flat indices, each net's offset past the
    nets before it, so one ``take`` or ``bincount`` serves the whole
    stack; ``_offsets`` makes them once per stack size.  ``hidden`` and
    ``back`` group the buffers per layer in the order the passes use
    them, with the views each pass reads made once."""

    def __init__(self, flat: np.ndarray, rows: int):
        lead = flat.shape[:-1]
        gather, layers = _offsets(math.prod(lead))
        self.flat = flat
        self.gather = gather.reshape(*lead, -1)
        self.g = np.empty(self.gather.shape)
        self.logit = np.empty((*lead, rows, 1))
        self.dz = np.empty((*lead, rows))
        self.grad = np.empty((*lead, N_PARAMS))
        self.z = np.empty((*lead, rows, _WIDTH))
        self.d = np.empty((*lead, rows, _WIDTH // 2))
        self.colsum = np.empty((*lead, _WIDTH))
        self.halves = self.z[..., 0::2], self.z[..., 1::2]   # each pool's slots
        # the output unit's weights as a column and as a row, its bias, and
        # the gradient at its pre-activation as a column and as a row
        self.w_col, self.w_row = flat[..., _FC_W, None], flat[..., None, _FC_W]
        self.bias = flat[..., None, _FC_B]
        self.dz_col, self.dz_row = self.dz[..., None], self.dz[..., None, :]
        self.hidden, self.back = [], []
        a = None   # the first layer's input is the batch itself
        for (cells, taps), part, w, b in (
                (layers[0], slice(None, _SPLIT), _W1, _B1),
                (layers[1], slice(_SPLIT, None), _W2, _B2)):
            layer = self.g[..., part].reshape(*lead, -1, _WIDTH)
            pooled = np.empty((*lead, rows, _WIDTH // 2))
            route = np.empty((2, *pooled.shape), dtype=bool)
            self.hidden.append((layer[..., :-1, :], layer[..., -1:, :],
                                pooled, route))
            n_in = INPUT_LEN if a is None else a.shape[-1]
            self.back.append((
                None if a is None else a.swapaxes(-1, -2),
                layer[..., :-1, :].swapaxes(-1, -2),
                np.empty((*lead, n_in, _WIDTH)), cells, np.empty(cells.shape),
                taps, self.grad[..., w], self.grad[..., b], route,
                None if a is None else self.d))
            a = pooled
        self.emb = a
        self.back.reverse()   # top layer first


@functools.cache
def _offsets(nets: int):
    """``_Pass``'s flat indices for a stack of ``nets`` nets, each net's
    offset past the nets before it: the gather, and each layer's cells and
    taps.  Made once per stack size and never written; they stay
    writeable, since ``take`` copies a read-only index array first."""
    stack = np.arange(nets)[:, None]
    gather = _GATHER + stack * (N_PARAMS + 1)
    layers = tuple(((cells + stack * (len(g) - _WIDTH)).ravel(),
                    (taps + stack * (taps.max() + 1)).ravel())
                   for cells, taps, g in (_CONV1, _CONV2))
    return gather, layers


def _relu_pool(z: np.ndarray, halves, pooled: np.ndarray, route: np.ndarray):
    """ReLU on ``z`` in place, the max of each (even, odd) pair of its
    ``halves``, and which pairs' max the left and the right slot gave (ties
    go left, zero pairs nowhere)."""
    np.maximum(z, 0.0, out=z)
    left, right = halves
    to_left, to_right = route
    np.maximum(left, right, out=pooled)
    np.greater(right, left, out=to_right)
    np.greater(pooled, 0.0, out=to_left)
    np.greater(to_left, to_right, out=to_left)   # bool a > b: a and not b


def _forward(p: _Pass, x: np.ndarray, short=()) -> np.ndarray:
    """The unclamped scores of the rows ``x``, of one net or of a stack
    (``x`` one batch per net).  ``short`` lists the nets, with their row
    counts, whose rows end before the batch does: the output unit's
    product runs again over their own rows, since a longer matrix-vector
    product may round its last rows differently."""
    p.flat.take(p.gather, out=p.g, mode="clip")
    a = x
    for w, b, pooled, route in p.hidden:
        np.matmul(a, w, out=p.z)
        p.z += b
        _relu_pool(p.z, p.halves, pooled, route)
        a = pooled
    np.matmul(p.emb, p.w_col, out=p.logit)
    for net, rows in short:
        p.logit[net, :rows, 0] = p.emb[net, :rows] @ p.flat[net, _FC_W]
    p.logit += p.bias
    return _sigmoid(p.logit[..., 0])


def _grads(p: _Pass, x: np.ndarray, y: np.ndarray,
           rows: np.ndarray | None = None) -> np.ndarray:
    """Cross-entropy gradients of a labelled batch into ``p.grad``; the
    unclamped scores.  ``rows``, on a stack's batch, gives each net's own
    row count where some end before the batch does: the rows after a
    net's own are zero rows whose output gradient is zero."""
    m = y.shape[-1]
    short = () if rows is None else [
        (net, n) for net, n in enumerate(rows.tolist()) if n < m]
    z_raw = _forward(p, x, short)
    dz = np.subtract(z_raw, y, out=p.dz)   # gradient at the output pre-activation
    if rows is None:
        dz /= m
    else:
        dz /= rows[:, None]
        dz *= np.arange(m) < rows[:, None]
    d_out = np.multiply(p.dz_col, p.w_row, out=p.d)
    even, odd = p.halves
    for a_t, w_t, prod, cells, picked, taps, dw, db, route, d_in in p.back:
        np.multiply(d_out, route[0], out=even)
        np.multiply(d_out, route[1], out=odd)
        np.matmul(x.swapaxes(-1, -2) if a_t is None else a_t, p.z, out=prod)
        prod.take(cells, out=picked, mode="clip")
        dw[...] = np.bincount(taps, weights=picked).reshape(dw.shape)
        np.add.reduce(p.z, axis=-2, out=p.colsum)
        np.add.reduce(p.colsum.reshape(*db.shape, -1), axis=-1, out=db)
        if d_in is not None:
            d_out = np.matmul(p.z, w_t, out=d_in)
    p.grad[..., _FC_W] = (p.dz_row @ p.emb)[..., 0, :]
    np.add.reduce(dz, axis=-1, keepdims=True, out=p.grad[..., _FC_B])
    for net, n in short:   # each product's rounding depends on its length
        p.grad[net, _FC_W] = dz[net, :n] @ p.emb[net, :n]
        p.grad[net, _FC_B] = dz[net, :n].sum()
    return z_raw


def _embed(net: BdeNet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped scores and embeddings of the rows ``x``."""
    x = _rows(x, INPUT_LEN)
    p = _Pass(net.flat, len(x))
    return _forward(p, x), p.emb


def bde_forward(net: BdeNet, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Score in (0, 1) plus the 32-value embedding for one input."""
    z_raw, emb = _embed(net, np.reshape(x, (1, -1)))
    return float(_clamp(z_raw[0])), emb[0]


def bce_loss_and_grads(net: BdeNet, x: np.ndarray,
                       y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Binary cross-entropy over a labelled batch and its gradients, in
    ``param_list()`` order."""
    x, y = _rows(x, INPUT_LEN), np.asarray(y, dtype=float)
    p = _Pass(net.flat, len(x))
    score = _clamp(_grads(p, x, y))
    loss = float(-np.mean(y * np.log(score) + (1 - y) * np.log(1 - score)))
    return loss, _views(p.grad)


def train_bde(reals, generated, epochs: int, seed: int) -> list[BdeNet]:
    """One scorer per user, fitted to separate that user's real rows
    (label 1) from its generated rows (label 0) by minimizing
    cross-entropy; deterministic under the seed.  Each epoch permutes a
    user's rows once and steps through them in slices of ``BATCH``.

    Users whose epochs hold equally many slices train as one stack, so
    each step runs once for all of them; every user's net is bit-identical
    to training that user alone."""
    sets = []
    for real, gen in zip(reals, generated, strict=True):
        real, gen = _rows(real, INPUT_LEN), _rows(gen, INPUT_LEN)
        if len(real) == 0 or len(gen) == 0:
            raise ValueError("both training sets must be non-empty")
        sets.append((real, gen))
    # a stack shares its Adam step count, so its users' epochs hold equally
    # many slices; a one-row slice is a matrix-vector product, not the
    # matrix product a padded slice would make, so it gets its own stack
    stacks: dict[tuple[int, bool], list[int]] = {}
    for user, (real, gen) in enumerate(sets):
        n = len(real) + len(gen)
        stacks.setdefault((-(-n // BATCH), n % BATCH == 1), []).append(user)
    nets: list[BdeNet] = [None] * len(sets)
    for users in stacks.values():
        flat = _train_stack([sets[user] for user in users], epochs, seed)
        for user, row in zip(users, flat):
            nets[user] = BdeNet(row)
    return nets


def _train_stack(sets, epochs: int, seed: int) -> np.ndarray:
    """``train_bde`` of users whose epochs hold equally many slices, as one
    stack: their parameters (users, N_PARAMS + 1), batches (users, BATCH,
    16), gradients and one Adam state.  A user with fewer rows than the
    stack's widest has zero rows after its own; they fill its last slice
    and carry no gradient."""
    n = [len(real) + len(gen) for real, gen in sets]
    width = max(n)
    x = np.zeros((len(sets), width, INPUT_LEN))
    y = np.zeros((len(sets), width))
    for user, (real, gen) in enumerate(sets):
        x[user, :len(real)], x[user, len(real):n[user]] = real, gen
        y[user, :len(real)] = 1.0
    # each user's generator starts from the seed, so users with as many
    # rows draw the same net and permutations: one generator per row count
    counts = sorted(set(n))
    rngs = [np.random.default_rng(seed) for _ in counts]
    firsts = [BdeNet.create(rng).flat for rng in rngs]
    group = [counts.index(rows) for rows in n]
    flat = np.stack([firsts[g] for g in group])
    order = np.tile(np.arange(width), (len(counts), 1))   # the pad rows stay put
    base = np.arange(0, len(sets) * width, width)[:, None]
    last = (width - 1) // BATCH * BATCH   # where each epoch's last slice starts
    padded = np.array(n) - last if min(n) < width else None
    # each epoch's rows, and its slices: one pass for the full slices, one
    # for a shorter last slice
    x_epoch, y_epoch = np.empty_like(x), np.empty_like(y)
    passes = {w: _Pass(flat, w) for w in (min(BATCH, width), width - last)}
    steps = [(x_epoch[:, start:start + BATCH], y_epoch[:, start:start + BATCH],
              passes[min(BATCH, width - start)], padded if start == last else None)
             for start in range(0, width, BATCH)]
    # Adam steps the parameters, all of each row but its trailing 0.0
    params = flat[:, :N_PARAMS]
    opt = Adam(LR, params)
    x, y = x.reshape(-1, INPUT_LEN), y.ravel()
    for _ in range(epochs):
        for g, (rows, rng) in enumerate(zip(counts, rngs)):
            order[g, :rows] = rng.permutation(rows)
        pick = order[group] + base
        x.take(pick, axis=0, out=x_epoch, mode="clip")
        y.take(pick, out=y_epoch, mode="clip")
        for x_step, y_step, p, rows in steps:
            _grads(p, x_step, y_step, rows)
            opt.step(params, p.grad)
    return flat


def scorer_key(real, generated, epochs: int, seed: int) -> str:
    """sha256 of exactly what ``train_bde`` fits one user's scorer to:
    ``SCORER_VERSION``, the epochs and the seed, then the shape and the
    little-endian binary64 bytes of the real and of the generated rows."""
    h = hashlib.sha256(f"{SCORER_VERSION} {epochs} {seed}".encode())
    for rows in (real, generated):
        rows = np.ascontiguousarray(rows, dtype="<f8")
        h.update(f"|{rows.shape}|".encode())
        h.update(rows)
    return h.hexdigest()


def _vector_digest(flat: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(flat, dtype="<f8")).hexdigest()


def save_scorer(path: str | Path, key: str, net: BdeNet) -> None:
    """``net``, trained on the inputs ``key`` names, as a ``key = value``
    file: its exact vector and that vector's sha256."""
    write_kv(path, SCORER_MAGIC, {"": {
        "key": key, **_put_array("params", net.flat),
        "params.sha256": _vector_digest(net.flat)}})


def load_scorer(path: str | Path, key: str) -> BdeNet | None:
    """The scorer saved at ``path`` for ``key``, or None, never an error,
    when the file is missing, unreadable or malformed, was saved for
    another key, or holds a vector that does not match its digest."""
    try:
        sec = read_kv(path, SCORER_MAGIC)[""]
        if sec["key"] != key:
            return None
        flat = _get_array(sec, "params", (N_PARAMS + 1,))
        if _vector_digest(flat) != sec["params.sha256"]:
            return None
        return BdeNet(flat)
    except (OSError, SchemaError, ValueError):
        return None


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
    _, emb = _embed(net, np.vstack([x, refs]))
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
    """One line per record.  ``r_d``, ``r_n`` and ``d`` are formatted one
    by one, as they differ from row to row; each distinct user, day,
    threshold, verdict and label is formatted once."""
    user, day, *values, verdict, label = [*zip(*map(attrgetter(
        "user", "day", "r_d", "r_n", "d", "th.th_d", "th.th_f", "verdict", "label"),
        records))] or [()] * len(SCORE_COLUMNS)
    write_columns(path, SCORE_COLUMNS, [
        text_fields(user), text_fields(day, lambda day: day.isoformat()),
        *([*map(repr, column)] for column in values[:3]),
        *(float_fields(column).tolist() for column in values[3:]),
        text_fields(verdict), text_fields(label, lambda label: label or "")], comment)


def _score_record(rec: list[str]) -> dict:
    values = [date.fromisoformat(rec[1]), *map(float, rec[2:7])]
    if not all(map(math.isfinite, values[1:])):
        raise ValueError("scores and thresholds must be finite")
    if rec[7] not in VERDICTS:
        raise ValueError(f"verdict {rec[7]!r} is not {' or '.join(map(repr, VERDICTS))}")
    return dict(zip(SCORE_COLUMNS, [rec[0], *values, rec[7], _feature_label(rec[8])]))


def _score_columns(cols: list) -> tuple[list[dict], int]:
    """The records of these score columns and the index of the first that
    ``_score_record`` rejects: a bad float reads as NaN, and every record
    holding a non-finite value is rejected."""
    days, first_day = convert_cells(cols[1], date.fromisoformat)
    x = np.array([[*convert_cells(column, float, math.nan)[0]] for column in cols[2:7]])
    finite = np.isfinite(x).all(axis=0)
    _, first_verdict = convert_cells(cols[7], VERDICTS.index)
    labels, first_label = convert_cells(cols[8], _feature_label)
    first = min(first_day, first_verdict, first_label,
                len(finite) if finite.all() else int(finite.argmin()))
    return [dict(zip(SCORE_COLUMNS, rec))
            for rec in zip(cols[0], days, *x.tolist(), cols[7], labels)], first


def read_score_csv(path: str | Path) -> list[dict]:
    return read_csv(path, "score", lambda header: header == SCORE_COLUMNS,
                    len(SCORE_COLUMNS), _score_columns, _score_record)


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
