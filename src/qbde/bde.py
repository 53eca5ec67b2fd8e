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
for that key, so a caller reuses it instead of training it again.  The
file holds its vector as raw little-endian binary64 bytes (``write_kv``);
one of an earlier format (``qbde-scorer-v1``, hex) is a miss.

A day x is scored against the trained generator's output distribution g:
R_d = |x - g|_1 in feature space, R_n = |f(x) - f(g)|_1 in embedding
space, d = (1 - lambda) R_d + lambda R_n.  ``score_rows`` takes every
user of a ``detect`` run, each with its training and test days, and
computes R_d, R_n and d as arrays: one forward pass embeds the days and
references of a stack of users, each bit-identical to scoring that user
alone.  A user's abnormality threshold Th_d is its largest training
score and the threat threshold Th_f is 2 Th_d; each day's band
(d > Th_d) + (d > Th_f) indexes its verdict in VERDICTS: Normal,
Low_threat or High_threat, each band including its upper bound.  Scores
stay columns (``Scores``, a ``features.Columns`` table like the ``Days``
scored) from scoring to the score files and the summary, which format
each column in one pass.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .checkpoint import (Section, _get_array, _put_array, convert_cells,
                         float_fields, read_csv, read_kv, text_fields,
                         write_columns, write_kv)
from .errors import SchemaError
from .features import Columns, Days, _feature_label, check_user_id
from .optim import Adam
from .qgan import _clamp, _rows, _sigmoid

INPUT_LEN = 16
EMBED_LEN = 32
BATCH = 32   # rows per training step
LR = 0.01    # Adam step size
# padded rows (users x (references + days)) scored in one stack, so a
# stack's buffers stay small whatever the fleet and corpus length: at 50
# and 200 users x 70 days, 512 and 1024 scored fastest of 256 to 2048
STACK_ROWS = 512
# names the training recipe in every scorer_key: a change to the scorer's
# arithmetic (layers, initialisation, batching, stacking, Adam, the order
# of any sum) must bump it, or saved scorers the new recipe would not
# train are reused
SCORER_VERSION = 1
SCORER_MAGIC = "qbde-scorer-v2"

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


def _relu_pool(z: np.ndarray, halves, pooled: np.ndarray, route: np.ndarray | None):
    """ReLU on ``z`` in place, the max of each (even, odd) pair of its
    ``halves``, and, unless ``route`` is None, which pairs' max the left
    and the right slot gave (ties go left, zero pairs nowhere)."""
    np.maximum(z, 0.0, out=z)
    left, right = halves
    np.maximum(left, right, out=pooled)
    if route is None:
        return
    to_left, to_right = route
    np.greater(right, left, out=to_right)
    np.greater(pooled, 0.0, out=to_left)
    np.greater(to_left, to_right, out=to_left)   # bool a > b: a and not b


def _embedding(p: _Pass, x: np.ndarray, routes: bool = True) -> np.ndarray:
    """The embeddings of the rows ``x``, of one net or of a stack (``x``
    one batch per net): ``p.emb``, the conv layers' pooled output.  The
    pooling routes, which only a backward pass reads, are kept if
    ``routes``."""
    p.flat.take(p.gather, out=p.g, mode="clip")
    a = x
    for w, b, pooled, route in p.hidden:
        np.matmul(a, w, out=p.z)
        p.z += b
        _relu_pool(p.z, p.halves, pooled, route if routes else None)
        a = pooled
    return a


def _forward(p: _Pass, x: np.ndarray, short=()) -> np.ndarray:
    """The unclamped scores of the rows ``x``, of one net or of a stack
    (``x`` one batch per net).  ``short`` lists the nets, with their row
    counts, whose rows end before the batch does: the output unit's
    product runs again over their own rows, since a longer matrix-vector
    product may round its last rows differently."""
    np.matmul(_embedding(p, x), p.w_col, out=p.logit)
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
    file: its exact vector as raw bytes and that vector's sha256."""
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


@dataclass(eq=False)
class Scores(Columns):
    """Scored user-days as columns, one item per day: ``user``, ``day``
    and ``label`` as lists; R_d, R_n, d and the ``th_d`` of the day's user
    (its ``th_f`` is twice that) as float arrays; and the day's ``band``,
    (d > th_d) + (d > th_f), as an int array that indexes VERDICTS."""
    user: list
    day: list
    label: list
    r_d: np.ndarray
    r_n: np.ndarray
    d: np.ndarray
    th_d: np.ndarray
    band: np.ndarray


def _recon(batch: np.ndarray, n_refs: int, flat: np.ndarray, counts):
    """R_d and R_n of each row of a stack of users against its nearest
    (L1) reference: ``batch`` (users, width, 16) holds each user's
    ``n_refs`` references, then its ``counts`` rows, then zero rows, and
    ``flat`` (users, N_PARAMS + 1) its scorer.  Both are (users, width -
    n_refs), unset past a user's own rows.  One forward pass embeds every
    row and reference of the stack; with several references, the nearest
    is searched one user at a time, so the (rows, references, 16)
    distances held at once are one user's."""
    refs, rows = batch[:, :n_refs], batch[:, n_refs:]
    emb = _embedding(_Pass(flat, batch.shape[1]), batch, routes=False)
    # each difference is taken into one buffer and made absolute in place
    if n_refs == 1:
        r_d = _l1(np.subtract(rows, refs))
        nearest_emb = emb[:, :1]
    else:
        r_d = np.zeros(rows.shape[:-1])
        nearest = np.zeros(rows.shape[:-1], dtype=np.intp)
        diff = np.empty((rows.shape[1], n_refs, INPUT_LEN))
        for user, n in enumerate(counts):
            dist = _l1(np.subtract(rows[user, :n, None, :], refs[user, None, :, :],
                                   out=diff[:n]))
            nearest[user, :n] = np.argmin(dist, axis=1)
            r_d[user, :n] = dist[np.arange(n), nearest[user, :n]]
        nearest_emb = np.take_along_axis(emb, nearest[..., None], axis=1)
    return r_d, _l1(np.subtract(emb[:, n_refs:], nearest_emb))


def _l1(diff: np.ndarray) -> np.ndarray:
    """The L1 norms of the last axis of ``diff``, made absolute in place."""
    return np.abs(diff, out=diff).sum(axis=-1)


def recon_errors(x: np.ndarray, reference: np.ndarray,
                 net: BdeNet) -> tuple[float, float]:
    """L1 reconstruction errors in feature space and in embedding space."""
    refs = np.atleast_2d(reference)
    batch = np.vstack([refs, np.atleast_2d(x)[:1]])[None]
    r_d, r_n = _recon(batch, len(refs), net.flat[None], [1])
    return float(r_d[0, 0]), float(r_n[0, 0])


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


@dataclass(frozen=True)
class UserDays:
    """One user's part of a ``score_rows`` call: the indices of its days
    among the rows, its training window first, the count ``n_train`` of
    days in that window, its reference distributions (one, or a stack of
    candidates) and its scorer."""
    days: np.ndarray
    n_train: int
    references: np.ndarray
    net: BdeNet


def _row_stacks(users: list, widths: list[int]):
    """``users`` in runs of consecutive users, each run as many as keep
    its padded rows, its length times its largest of ``widths``, within
    ``STACK_ROWS``, and at least one user."""
    first, top = 0, 0
    for i, width in enumerate(widths):
        if i > first and (i - first + 1) * max(top, width) > STACK_ROWS:
            yield users[first:i]
            first, top = i, 0
        top = max(top, width)
    if users:
        yield users[first:]


def score_rows(days: Days, x: np.ndarray, users: list[UserDays], lam: float) -> Scores:
    """The scores of the rows ``x`` (the simplex vectors of ``days``, each
    the day of one of ``users``), in the order of ``days``, with each
    day's user, day and label.  A user's thresholds come from the scores
    of its training window, and its ``d`` is Normal up to ``th_d``,
    Low_threat up to ``th_f`` and High_threat above.  A row is scored
    against its user's nearest reference (the single-reference case
    reduces to plain scoring).

    Users with equally many references are scored in stacks of
    consecutive users whose padded rows stay within ``STACK_ROWS``
    (``_row_stacks``): each stack's rows and references go through one
    padded (users, rows, 16) batch, and every user's scores are
    bit-identical to scoring that user alone.
    """
    at = [np.asarray(user.days, dtype=np.intp) for user in users]
    scored = np.bincount(np.concatenate([np.zeros(0, np.intp), *at]),
                         minlength=len(days))
    if len(scored) != len(days) or not (scored == 1).all():
        raise ValueError("each row must be the day of exactly one user")
    columns = np.empty((4, len(days)))   # r_d, r_n, d, th_d
    band = np.empty(len(days), dtype=int)
    stacks: dict[tuple, list[int]] = {}
    for i, user in enumerate(users):
        stacks.setdefault(np.shape(np.atleast_2d(user.references)), []).append(i)
    for (n_refs, _), same in stacks.items():
        for stack in _row_stacks(same, [n_refs + len(at[i]) for i in same]):
            counts = np.array([len(at[i]) for i in stack])
            batch = np.zeros((len(stack), n_refs + counts.max(), INPUT_LEN))
            for row, i in zip(batch, stack):
                row[:n_refs] = users[i].references
                row[n_refs:n_refs + len(at[i])] = x[at[i]]
            r_d, r_n = _recon(batch, n_refs, np.stack([users[i].net.flat
                                                       for i in stack]), counts)
            d = behavior_score(r_d, r_n, lam)
            th = [fit_thresholds(row[:n][:users[i].n_train])
                  for row, n, i in zip(d, counts, stack)]
            th_d = np.broadcast_to([[t.th_d] for t in th], d.shape)
            th_f = np.array([[t.th_f] for t in th])
            mine = np.arange(d.shape[1]) < counts[:, None]
            rows = np.concatenate([at[i] for i in stack])
            for column, values in zip(columns, (r_d, r_n, d, th_d)):
                column[rows] = values[mine]
            band[rows] = ((d > th_d).astype(int) + (d > th_f))[mine]
    return Scores(days.user, days.day, days.label, *columns, band)


# --------------------------------------------------------------------------
# Report files
# --------------------------------------------------------------------------

SCORE_COLUMNS = ["user", "day", "r_d", "r_n", "d", "th_d", "th_f",
                 "verdict", "label"]
SUMMARY_MAGIC = "qbde-detection-summary"


def _reprs(values: np.ndarray) -> list[str]:
    """The ``repr`` of each float of ``values``, made in one call: a list's
    repr joins its items' reprs with ", ", and no float's repr holds a
    comma."""
    return repr(values.tolist())[1:-1].split(", ") if len(values) else []


def write_score_csv(path: str | Path, scores: Scores,
                    comment: str | None = None) -> None:
    """One line per scored day.  ``r_d``, ``r_n`` and ``d`` differ from day
    to day and are formatted a column at a time; each distinct user, day,
    threshold and label is formatted once.  An ISO date never needs
    quoting, but a user id or a label may."""
    iso = {day: day.isoformat() for day in dict.fromkeys(scores.day)}
    with np.errstate(over="ignore"):   # th_f of th_d past half the largest float is inf
        th_f = 2.0 * scores.th_d
    write_columns(path, SCORE_COLUMNS, [
        text_fields(scores.user), [*map(iso.__getitem__, scores.day)],
        *map(_reprs, (scores.r_d, scores.r_n, scores.d)),
        float_fields(scores.th_d).tolist(), float_fields(th_f).tolist(),
        [*map(VERDICTS.__getitem__, scores.band.tolist())],
        text_fields(scores.label, lambda label: label or "")], comment)


def _score_record(rec: list[str]) -> dict:
    check_user_id(rec[0])
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
    _, first_user = convert_cells(cols[0], check_user_id)
    days, first_day = convert_cells(cols[1], date.fromisoformat)
    x = np.array([[*convert_cells(column, float, math.nan)[0]] for column in cols[2:7]])
    finite = np.isfinite(x).all(axis=0)
    _, first_verdict = convert_cells(cols[7], VERDICTS.index)
    labels, first_label = convert_cells(cols[8], _feature_label)
    first = min(first_user, first_day, first_verdict, first_label,
                len(finite) if finite.all() else int(finite.argmin()))
    return [dict(zip(SCORE_COLUMNS, rec))
            for rec in zip(cols[0], days, *x.tolist(), cols[7], labels)], first


def read_score_csv(path: str | Path) -> list[dict]:
    return read_csv(path, "score", lambda header: header == SCORE_COLUMNS,
                    len(SCORE_COLUMNS), _score_columns, _score_record)


def write_summary(path: str | Path, scores: Scores, train: Scores, lam: float,
                  comment: str | None = None) -> float | None:
    """Machine-readable detection summary of the test days ``scores`` and
    the training window ``train``: verdict counts, each user's thresholds
    (read from that user's days) and, when ground truth is present,
    accuracy and confusion counts.  Returns that accuracy, or None without
    ground truth."""
    entries = {"config_digest": comment} if comment else {}
    both = Scores.join([train, scores])
    thresholds = dict(zip(both.user, both.th_d.tolist()))
    users = sorted(thresholds)
    entries["lambda"] = repr(lam)
    entries["users"] = " ".join(users)
    for user in users:
        entries[f"th_d.{user}"] = repr(thresholds[user])
        entries[f"th_f.{user}"] = repr(2.0 * thresholds[user])
    entries["test_records"] = len(scores)
    counts = np.bincount(scores.band, minlength=len(VERDICTS)).tolist()
    for verdict, count in zip(VERDICTS, counts):
        entries[f"count.{verdict}"] = count
    entries["train_records"] = len(train)
    entries["train_abnormal_verdicts"] = np.count_nonzero(train.band)
    labelled = [(VERDICTS[band], label) for band, label in
                zip(scores.band.tolist(), scores.label) if label is not None]
    acc = None
    if labelled:
        counts = confusion(*zip(*labelled))
        acc = accuracy(counts)
        entries["accuracy"] = repr(acc)
        for key, value in counts.items():
            entries[f"confusion.{key}"] = value
    write_kv(path, SUMMARY_MAGIC, {"": entries})
    return acc


def read_summary(path: str | Path) -> Section:
    """The summary's entries; a missing one raises ``SchemaError``."""
    return read_kv(path, SUMMARY_MAGIC)[""]
