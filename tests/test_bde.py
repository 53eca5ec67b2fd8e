"""Scoring network (vs. nested-loop and finite-difference oracles),
thresholds, verdicts and report files."""

import csv
import io
import math
import re
import struct
import tempfile
from collections import namedtuple
from datetime import date, timedelta
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbde import bde
from qbde.bde import (
    BATCH,
    LR,
    N_PARAMS,
    SCORE_COLUMNS,
    SCORER_MAGIC,
    BdeNet,
    Scores,
    Thresholds,
    VERDICTS,
    UserDays,
    _embed,
    accuracy,
    bce_loss_and_grads,
    bde_forward,
    behavior_score,
    confusion,
    fit_thresholds,
    load_scorer,
    read_score_csv,
    read_summary,
    recon_errors,
    save_scorer,
    score_rows,
    scorer_key,
    train_bde,
    write_score_csv,
    write_summary,
)
from qbde.checkpoint import float_fields, text_fields, write_columns, write_kv
from qbde.errors import SchemaError
from qbde.features import Days
from qbde.optim import Adam
from qbde.qgan import SIGMOID_CLAMP, _sigmoid


def zero_net():
    return BdeNet(np.zeros(N_PARAMS + 1))


def random_net(seed=0):
    return BdeNet.create(np.random.default_rng(seed))


# --------------------------------------------------------------------------
# Forward pass vs. a nested-loop reference
# --------------------------------------------------------------------------

def reference_forward(net, x):
    """Direct translation of the layer definitions, all loops."""
    def conv(signal, w, b):
        c_in, length = signal.shape
        padded = np.zeros((c_in, length + 2))
        padded[:, 1:-1] = signal
        out = np.zeros((w.shape[0], length))
        for o in range(w.shape[0]):
            for t in range(length):
                acc = b[o]
                for i in range(c_in):
                    for k in range(3):
                        acc += w[o, i, k] * padded[i, t + k]
                out[o, t] = acc
        return out

    def relu(a):
        return np.maximum(a, 0.0)

    def pool(a):
        out = np.zeros((a.shape[0], a.shape[1] // 2))
        for c in range(a.shape[0]):
            for t in range(out.shape[1]):
                out[c, t] = max(a[c, 2 * t], a[c, 2 * t + 1])
        return out

    w1, b1, w2, b2, fc_w, fc_b = net.param_list()
    h = pool(relu(conv(x[None, :], w1, b1)))
    h = pool(relu(conv(h, w2, b2)))
    emb = h.reshape(-1)
    z = float(emb @ fc_w + fc_b[0])
    return 1.0 / (1.0 + math.exp(-z)), emb


def test_forward_matches_nested_loop_reference():
    rng = np.random.default_rng(12)
    net = random_net(3)
    for _ in range(20):
        x = rng.uniform(0, 1, 16)
        score, emb = bde_forward(net, x)
        ref_score, ref_emb = reference_forward(net, x)
        np.testing.assert_allclose(emb, ref_emb, atol=1e-10)
        assert score == pytest.approx(ref_score, abs=1e-10)


def test_zero_net_scores_half_with_zero_embedding():
    score, emb = bde_forward(zero_net(), np.random.default_rng(0).uniform(0, 1, 16))
    assert score == 0.5
    np.testing.assert_array_equal(emb, np.zeros(32))


def test_forward_is_deterministic():
    net = random_net(5)
    x = np.random.default_rng(1).uniform(0, 1, 16)
    s1, e1 = bde_forward(net, x)
    s2, e2 = bde_forward(net, x)
    assert s1 == s2
    np.testing.assert_array_equal(e1, e2)


def test_forward_rejects_wrong_length():
    with pytest.raises(ValueError):
        bde_forward(random_net(), np.zeros(8))


def test_embedding_has_32_values():
    _, emb = bde_forward(random_net(7), np.ones(16) / 16)
    assert emb.shape == (32,)


# --------------------------------------------------------------------------
# Gradients vs. finite differences
# --------------------------------------------------------------------------

def fd_grads(net, x, y, h=1e-5):
    out = []
    for arr in net.param_list():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up, _ = bce_loss_and_grads(net, x, y)
            arr[idx] = keep - h
            down, _ = bce_loss_and_grads(net, x, y)
            arr[idx] = keep
            g[idx] = (up - down) / (2 * h)
        out.append(g)
    return out


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    net = random_net(9)
    x = rng.uniform(0, 1, (6, 16))
    y = np.array([1, 0, 1, 1, 0, 0], dtype=float)
    _, grads = bce_loss_and_grads(net, x, y)
    for got, want in zip(grads, fd_grads(net, x, y)):
        denom = np.maximum(np.abs(want), 1e-8)
        assert np.max(np.abs(got - want) / denom) < 1e-5


def reference_loss_and_grads(net, xs, ys):
    """Batch cross-entropy and its gradients, forward and backward written
    out as loops over every sample, channel, position and tap."""
    w1, b1, w2, b2, fc_w, fc_b = net.param_list()
    grads = [np.zeros_like(p) for p in net.param_list()]
    dw1, db1, dw2, db2, dfc_w, dfc_b = grads

    def conv(signal, w, b):
        out = np.zeros((w.shape[0], signal.shape[1]))
        for o in range(w.shape[0]):
            for t in range(signal.shape[1]):
                out[o, t] = b[o]
                for i in range(w.shape[1]):
                    for k in range(3):
                        if 0 <= t + k - 1 < signal.shape[1]:
                            out[o, t] += w[o, i, k] * signal[i, t + k - 1]
        return out

    def conv_back(dz, signal, w, dw, db):
        dsig = np.zeros_like(signal)
        for o in range(w.shape[0]):
            for t in range(signal.shape[1]):
                db[o] += dz[o, t]
                for i in range(w.shape[1]):
                    for k in range(3):
                        if 0 <= t + k - 1 < signal.shape[1]:
                            dw[o, i, k] += dz[o, t] * signal[i, t + k - 1]
                            dsig[i, t + k - 1] += dz[o, t] * w[o, i, k]
        return dsig

    def relu_pool(z):
        out = np.zeros((z.shape[0], z.shape[1] // 2))
        slot = np.zeros(out.shape, dtype=int)
        for c in range(z.shape[0]):
            for t in range(out.shape[1]):
                left, right = max(z[c, 2 * t], 0.0), max(z[c, 2 * t + 1], 0.0)
                slot[c, t] = 1 if right > left else 0
                out[c, t] = max(left, right)
        return out, slot

    def unpool_relu(dp, slot, z):
        dz = np.zeros_like(z)
        for c in range(dp.shape[0]):
            for t in range(dp.shape[1]):
                j = 2 * t + slot[c, t]
                dz[c, j] = dp[c, t] if z[c, j] > 0 else 0.0
        return dz

    loss = 0.0
    m = len(xs)
    for x, y in zip(xs, ys):
        z1 = conv(x[None, :], w1, b1)
        p1, s1 = relu_pool(z1)
        z2 = conv(p1, w2, b2)
        p2, s2 = relu_pool(z2)
        emb = p2.reshape(-1)
        z = sum(emb[j] * fc_w[j] for j in range(32)) + fc_b[0]
        score = 1.0 / (1.0 + math.exp(-z))
        loss -= (y * math.log(score) + (1 - y) * math.log(1 - score)) / m
        dz = (score - y) / m
        for j in range(32):
            dfc_w[j] += dz * emb[j]
        dfc_b[0] += dz
        dp2 = (dz * fc_w).reshape(8, 4)
        dp1 = conv_back(unpool_relu(dp2, s2, z2), p1, w2, dw2, db2)
        conv_back(unpool_relu(dp1, s1, z1), x[None, :], w1, dw1, db1)
    return loss, grads


def test_loss_and_gradients_match_nested_loop_oracle():
    rng = np.random.default_rng(31)
    for trial in range(8):
        net = random_net(100 + trial)
        x = rng.uniform(0, 1, (int(rng.integers(1, 9)), 16))
        y = (rng.random(len(x)) > 0.5).astype(float)
        loss, grads = bce_loss_and_grads(net, x, y)
        for row in x:
            assert SIGMOID_CLAMP < bde_forward(net, row)[0] < 1.0 - SIGMOID_CLAMP
        want_loss, want_grads = reference_loss_and_grads(net, x, y)
        assert abs(loss - want_loss) <= 1e-12
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# The fused step vs. the per-call step it replaced
# --------------------------------------------------------------------------

def oracle_conv_index(c_in, c_out, length):
    o, i, k, t = np.indices((c_out, c_in, 3, length)).reshape(4, -1)
    s = t + k - 1
    keep = (s >= 0) & (s < length)
    pos = (i * length + s) * (c_out * length) + o * length + t
    return pos[keep], ((o * c_in + i) * 3 + k)[keep], (c_in * length, c_out * length)


ORACLE_CONV1 = oracle_conv_index(1, 4, 16)
ORACLE_CONV2 = oracle_conv_index(4, 8, 8)


def oracle_conv_matrix(w, index):
    """Each call scatters the live weights into a fresh matrix."""
    mat = np.zeros(index[2])
    np.put(mat, index[0], w.ravel()[index[1]])
    return mat


def oracle_pool(a):
    left, right = a[:, 0::2], a[:, 1::2]
    return np.maximum(left, right), right > left


def oracle_unpool(dp, take_right):
    out = np.zeros((len(dp), 2 * dp.shape[1]))
    out[:, 0::2] = np.where(take_right, 0.0, dp)
    out[:, 1::2] = np.where(take_right, dp, 0.0)
    return out


def oracle_forward_batch(net, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w1, b1, w2, b2, fc_w, fc_b = net.param_list()
    t2 = oracle_conv_matrix(w2, ORACLE_CONV2)
    z1 = x @ oracle_conv_matrix(w1, ORACLE_CONV1) + np.repeat(b1, 16)
    p1, tr1 = oracle_pool(np.maximum(z1, 0.0))
    z2 = p1 @ t2 + np.repeat(b2, 8)
    emb, tr2 = oracle_pool(np.maximum(z2, 0.0))
    z_raw = _sigmoid(emb @ fc_w + fc_b[0])
    score = np.clip(z_raw, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    cache = {"x": x, "t2": t2, "z1": z1, "p1": p1, "tr1": tr1, "z2": z2,
             "tr2": tr2, "z_raw": z_raw}
    return score, emb, cache


def oracle_conv_grads(dz, xin, w, index):
    dw = np.bincount(index[1], weights=(xin.T @ dz).take(index[0]), minlength=w.size)
    return dw.reshape(w.shape), dz.sum(axis=0).reshape(w.shape[0], -1).sum(axis=1)


def oracle_loss_and_grads(net, x, y):
    score, emb, c = oracle_forward_batch(net, x)
    y = np.asarray(y, dtype=float)
    loss = float(-np.mean(y * np.log(score) + (1 - y) * np.log(1 - score)))
    dz = (c["z_raw"] - y) / len(y)
    w1, _, w2, _, fc_w, _ = net.param_list()
    dz2 = oracle_unpool(np.outer(dz, fc_w), c["tr2"]) * (c["z2"] > 0)
    dw2, db2 = oracle_conv_grads(dz2, c["p1"], w2, ORACLE_CONV2)
    dz1 = oracle_unpool(dz2 @ c["t2"].T, c["tr1"]) * (c["z1"] > 0)
    dw1, db1 = oracle_conv_grads(dz1, c["x"], w1, ORACLE_CONV1)
    return loss, [dw1, db1, dw2, db2, dz @ emb, np.array([dz.sum()])]


def oracle_train_bde(real, generated, epochs, seed):
    """One loss-and-gradients call per batch of rows gathered by index,
    its six gradients concatenated for one Adam step."""
    x = np.vstack([real, generated])
    y = np.concatenate([np.ones(len(real)), np.zeros(len(generated))])
    rng = np.random.default_rng(seed)
    net = BdeNet.create(rng)
    params = net.flat[:N_PARAMS]
    opt = Adam(LR, params)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), BATCH):
            idx = order[start:start + BATCH]
            _, grads = oracle_loss_and_grads(net, x[idx], y[idx])
            opt.step(params, np.concatenate([g.ravel() for g in grads]))
    return net


def bde_accuracy(net, x, y):
    """Fraction of rows on the right side of the 0.5 decision line."""
    score, _, _ = oracle_forward_batch(net, x)
    return float(np.mean((score > 0.5) == (np.asarray(y) > 0.5)))


def generated_rows(kind, n, rng):
    """Generated rows as detection builds them: one reference tiled, a
    stack of distinct sampled ones, or the all-uniform row whose equal
    neighbours make exact pooling ties."""
    if kind == "tiled":
        return np.tile(rng.dirichlet(np.ones(16)), (n, 1))
    if kind == "distinct":
        return rng.dirichlet(np.ones(16), size=n)
    return np.full((n, 16), 1 / 16)


def assert_same_bytes(got, want):
    for a, b in zip(got.param_list(), want.param_list(), strict=True):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["tiled", "distinct", "uniform"])
@pytest.mark.parametrize("n_real, n_gen, epochs, seed", [
    (32, 32, 12, 0),     # two full batches
    (40, 33, 9, 4),      # two full batches and a partial one
    (46, 46, 15, 7),     # a fleet user: 32 + 32 + 28
    (5, 3, 20, 11),      # one partial batch
    (186, 186, 4, 2),    # a year of days
    (40, 40, 0, 3),      # no steps: the initial network
])
def test_train_matches_per_call_oracle_bit_for_bit(kind, n_real, n_gen, epochs, seed):
    rng = np.random.default_rng(1000 + seed)
    real = rng.dirichlet(np.ones(16), size=n_real)
    generated = generated_rows(kind, n_gen, rng)
    assert_same_bytes(train_bde([real], [generated], epochs, seed)[0],
                      oracle_train_bde(real, generated, epochs, seed))


def test_train_matches_oracle_on_more_seeds():
    rng = np.random.default_rng(77)
    real = rng.dirichlet(np.ones(16), size=46)
    generated = generated_rows("tiled", 46, rng)
    for seed in range(20, 26):
        assert_same_bytes(train_bde([real], [generated], 8, seed)[0],
                          oracle_train_bde(real, generated, 8, seed))


def test_uniform_rows_tie_in_pooling():
    # the tie case the bit-identity tests cover is really there: equal,
    # positive neighbours, which the left slot wins
    w1, b1 = random_net(3).param_list()[:2]
    z1 = (np.full((1, 16), 1 / 16) @ oracle_conv_matrix(w1, ORACLE_CONV1)
          + np.repeat(b1, 16))
    a = np.maximum(z1, 0.0)
    assert np.any((a[:, 0::2] == a[:, 1::2]) & (a[:, 0::2] > 0))


def fleet(kind, sizes, seed):
    """Each user's real rows and generated rows, of the (real, generated)
    row counts ``sizes``."""
    rng = np.random.default_rng(seed)
    reals = [rng.dirichlet(np.ones(16), size=n_real) for n_real, _ in sizes]
    return reals, [generated_rows(kind, n_gen, rng) for _, n_gen in sizes]


def assert_each_user_matches_oracle(reals, generated, epochs, seed):
    nets = train_bde(reals, generated, epochs, seed)
    assert len(nets) == len(reals)
    for net, real, gen in zip(nets, reals, generated, strict=True):
        assert_same_bytes(net, oracle_train_bde(real, gen, epochs, seed))


def count_stack_steps(monkeypatch):
    """The shape of every stack Adam steps from now on (the oracle's
    one-net steps are left out)."""
    shapes = []
    step = Adam.step

    def counted(self, param, grad):
        if param.ndim == 2:
            shapes.append(param.shape)
        step(self, param, grad)

    monkeypatch.setattr(Adam, "step", counted)
    return shapes


def stack_steps(epochs, stacks):
    """The sorted step shapes of ``stacks``, (batches, users) pairs."""
    return sorted(shape for batches, users in stacks
                  for shape in [(users, N_PARAMS)] * (epochs * batches))


@pytest.mark.parametrize("kind", ["tiled", "distinct", "uniform"])
def test_stack_matches_oracle_for_every_last_batch_size(kind, monkeypatch):
    # 65 to 96 rows: three batches an epoch, the last of 1 to 32 rows;
    # odd totals have one more real row than generated ones
    sizes = [((64 + r + 1) // 2, (64 + r) // 2) for r in range(1, 33)]
    shapes = count_stack_steps(monkeypatch)
    assert_each_user_matches_oracle(*fleet(kind, sizes, 3), epochs=3, seed=5)
    # a one-row last batch trains as a stack of its own
    assert sorted(shapes) == stack_steps(3, [(3, 1), (3, 31)])


@pytest.mark.parametrize("kind", ["tiled", "distinct", "uniform"])
def test_fleet_splits_into_one_stack_per_batch_count(kind, monkeypatch):
    # 8, 40, 73, 92, 33, 186 and 73 rows: 1, 2, 3, 3, 2 (the last of one
    # row), 6 and 3 batches an epoch
    sizes = [(5, 3), (20, 20), (40, 33), (46, 46), (16, 17), (100, 86), (33, 40)]
    shapes = count_stack_steps(monkeypatch)
    assert_each_user_matches_oracle(*fleet(kind, sizes, 8), epochs=4, seed=2)
    assert sorted(shapes) == stack_steps(4, [(1, 1), (2, 1), (3, 3), (2, 1),
                                             (6, 1)])


@pytest.mark.parametrize("kind", ["tiled", "distinct", "uniform"])
def test_fleet_of_one_user_and_zero_epochs_match_oracle(kind):
    assert_each_user_matches_oracle(*fleet(kind, [(46, 46)], 4), epochs=6, seed=9)
    assert_each_user_matches_oracle(*fleet(kind, [(46, 46), (45, 46), (3, 2)], 5),
                                    epochs=0, seed=9)


def test_a_fleet_of_equal_batch_counts_steps_once_per_batch(monkeypatch):
    # six users of 41 to 46 days, as a fleet's detection trains them
    shapes = count_stack_steps(monkeypatch)
    sizes = [(n, n) for n in (44, 41, 46, 43, 46, 45)]
    assert_each_user_matches_oracle(*fleet("tiled", sizes, 6), epochs=5, seed=1)
    assert shapes == stack_steps(5, [(3, 6)])


# --------------------------------------------------------------------------
# Saved scorers
# --------------------------------------------------------------------------

def flip_bit(rows, index, bit=0):
    """A copy of ``rows`` with one bit of one value flipped."""
    out = rows.copy()
    out.view(np.uint64)[index] ^= np.uint64(1 << bit)
    return out


def test_scorer_key_changes_with_every_input(monkeypatch):
    real, generated = fleet("distinct", [(6, 6)], 12)
    real, generated = real[0], generated[0]
    base = scorer_key(real, generated, 40, 1)
    assert scorer_key(real.copy(), generated.copy(), 40, 1) == base
    keys = [
        scorer_key(real, generated, 41, 1),
        scorer_key(real, generated, 40, 2),
        scorer_key(flip_bit(real, (2, 5)), generated, 40, 1),
        scorer_key(real, flip_bit(generated, (5, 15), bit=63), 40, 1),
        # the same bytes in other shapes
        scorer_key(real.reshape(3, 32), generated, 40, 1),
        scorer_key(real[:4], np.vstack([real[4:], generated]), 40, 1),
    ]
    monkeypatch.setattr(bde, "SCORER_VERSION", bde.SCORER_VERSION + 1)
    keys.append(scorer_key(real, generated, 40, 1))
    assert len({base, *keys}) == len(keys) + 1


def test_saved_scorer_loads_bit_identical(tmp_path):
    net = random_net(4)
    path = tmp_path / "scorer.ckpt"
    save_scorer(path, "k1", net)
    assert path.read_text(encoding="utf-8").splitlines()[0] == SCORER_MAGIC
    assert load_scorer(path, "k1").flat.tobytes() == net.flat.tobytes()
    assert load_scorer(path, "k2") is None
    assert [p.name for p in tmp_path.iterdir()] == ["scorer.ckpt"]


def _edit_scorer(path, key, change):
    lines = path.read_text(encoding="utf-8").splitlines()
    entries = dict(line.split(" = ") for line in lines[1:])
    entries[key] = change(entries[key])
    path.write_text("\n".join([lines[0], *(f"{k} = {v}" for k, v in
                                           entries.items())]) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("spoil", [
    "missing", "directory", "not utf-8", "magic", "no key", "data bit",
    "data short", "shape", "digest", "trailing value"])
def test_spoilt_scorer_file_is_a_miss(tmp_path, spoil):
    path = tmp_path / "scorer.ckpt"
    save_scorer(path, "k1", random_net(5))
    if spoil == "missing":
        path.unlink()
    elif spoil == "directory":
        path.unlink()
        path.mkdir()
    elif spoil == "not utf-8":
        path.write_bytes(path.read_bytes() + b"# \xe9\n")
    elif spoil == "magic":
        path.write_text(path.read_text(encoding="utf-8").replace(
            SCORER_MAGIC, "qbde-ckpt-v4"), encoding="utf-8")
    elif spoil == "no key":
        path.write_text(path.read_text(encoding="utf-8").replace("key = k1\n", ""),
                        encoding="utf-8")
    elif spoil == "data bit":
        _edit_scorer(path, "params.data", lambda h: h[:5] + "0f"[h[5] == "0"] + h[6:])
    elif spoil == "data short":
        _edit_scorer(path, "params.data", lambda h: h[:-16])
    elif spoil == "shape":
        _edit_scorer(path, "params.shape", lambda shape: "2 77")
    elif spoil == "digest":
        _edit_scorer(path, "params.sha256", lambda h: h[::-1])
    else:
        # a consistent file whose vector BdeNet refuses: the value after
        # the parameters, which the conv gather reads, must be 0.0
        flat = random_net(5).flat
        flat[-1] = 1.0
        save_scorer(path, "k1", SimpleNamespace(flat=flat))
    assert load_scorer(path, "k1") is None


def loss_cases():
    rng = np.random.default_rng(91)
    trained = oracle_train_bde(rng.dirichlet(np.ones(16), size=40),
                               generated_rows("tiled", 40, rng),
                               epochs=20, seed=5)
    for net in [zero_net(), random_net(31), random_net(32), trained]:
        for kind in ["tiled", "distinct", "uniform"]:
            for m in [1, 7, 32]:
                x = np.vstack([rng.dirichlet(np.ones(16), size=m),
                               generated_rows(kind, m, rng)])
                y = np.concatenate([np.ones(m), np.zeros(m)])
                yield net, x, y


def test_loss_and_grads_match_per_call_oracle():
    for net, x, y in loss_cases():
        loss, grads = bce_loss_and_grads(net, x, y)
        want_loss, want_grads = oracle_loss_and_grads(net, x, y)
        assert loss == want_loss
        for got, want in zip(grads, want_grads, strict=True):
            assert got.shape == want.shape
            # only the sign of a zero may differ
            assert np.array_equal(got, want)


def test_embeddings_match_per_call_oracle():
    for net, x, _ in loss_cases():
        score, emb = bde_forward(net, x[0])
        want_score, want_emb, _ = oracle_forward_batch(net, x[:1])
        assert score == float(want_score[0])
        assert emb.tobytes() == want_emb[0].tobytes()
        _, want_emb, _ = oracle_forward_batch(net, x)
        rows, refs = x[:len(x) // 2], x[len(x) // 2:]
        r_n = score_user(day_rows(rows), rows, refs, net, 1.0, len(rows)).r_n
        nearest = np.abs(rows[:, None, :] - refs[None, :, :]).sum(axis=2).argmin(axis=1)
        want_r_n = np.abs(want_emb[:len(rows)]
                          - want_emb[len(rows):][nearest]).sum(axis=1)
        assert r_n.tobytes() == want_r_n.tobytes()


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

def test_train_separable_sets_reach_full_accuracy():
    rng = np.random.default_rng(2)
    real = rng.uniform(0.6, 1.0, (40, 16))
    fake = rng.uniform(0.0, 0.4, (40, 16))
    [net] = train_bde([real], [fake], epochs=200, seed=0)
    x = np.vstack([real, fake])
    y = np.concatenate([np.ones(40), np.zeros(40)])
    assert bde_accuracy(net, x, y) == 1.0


def test_train_identical_sets_settle_at_log2():
    rng = np.random.default_rng(4)
    data = rng.dirichlet(np.ones(16), size=60)
    [net] = train_bde([data], [data], epochs=150, seed=1)
    loss, _ = bce_loss_and_grads(net, np.vstack([data, data]),
                                 np.concatenate([np.ones(60), np.zeros(60)]))
    assert loss == pytest.approx(math.log(2), abs=0.1)
    acc = bde_accuracy(net, np.vstack([data, data]),
                       np.concatenate([np.ones(60), np.zeros(60)]))
    assert acc == pytest.approx(0.5, abs=0.1)


def test_train_is_seed_deterministic():
    rng = np.random.default_rng(6)
    real = rng.uniform(0, 1, (20, 16))
    fake = rng.uniform(0, 1, (20, 16))
    [n1] = train_bde([real], [fake], epochs=30, seed=3)
    [n2] = train_bde([real], [fake], epochs=30, seed=3)
    for a, b in zip(n1.param_list(), n2.param_list()):
        np.testing.assert_array_equal(a, b)


def test_train_steps_one_flat_vector_like_per_array_adam():
    rng = np.random.default_rng(9)
    # 73 rows: two full batches of BATCH and a partial one per epoch
    real = rng.uniform(0, 1, (40, 16))
    fake = rng.uniform(0, 1, (33, 16))
    epochs, seed = 6, 4
    [net] = train_bde([real], [fake], epochs, seed)
    x = np.vstack([real, fake])
    y = np.concatenate([np.ones(40), np.zeros(33)])
    order_rng = np.random.default_rng(seed)
    ref = BdeNet.create(order_rng)
    opts = [Adam(LR, arr) for arr in ref.param_list()]
    for _ in range(epochs):
        order = order_rng.permutation(len(x))
        for start in range(0, len(x), BATCH):
            idx = order[start:start + BATCH]
            grads = bce_loss_and_grads(ref, x[idx], y[idx])[1]
            for opt, arr, g in zip(opts, ref.param_list(), grads):
                opt.step(arr, g)
    for got, want in zip(net.param_list(), ref.param_list()):
        np.testing.assert_array_equal(got, want)


def test_adam_on_a_flat_vector_is_bit_identical_to_per_array_adam():
    rng = np.random.default_rng(10)
    arrays = [a.copy() for a in random_net(12).param_list()]
    flat = np.concatenate([a.ravel() for a in arrays])
    per_array, whole = [Adam(0.01, a) for a in arrays], Adam(0.01, flat)
    for _ in range(100):
        grads = [rng.normal(size=a.shape) for a in arrays]
        for opt, arr, g in zip(per_array, arrays, grads):
            opt.step(arr, g)
        whole.step(flat, np.concatenate([g.ravel() for g in grads]))
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))


def test_train_rejects_empty_sets():
    with pytest.raises(ValueError):
        train_bde([np.empty((0, 16))], [np.ones((2, 16))], epochs=1, seed=0)
    with pytest.raises(ValueError):   # one user's real rows, no generated ones
        train_bde([np.ones((2, 16))], [], epochs=1, seed=0)


# --------------------------------------------------------------------------
# Reconstruction errors and the behavior score
# --------------------------------------------------------------------------

def test_recon_errors_vanish_when_equal():
    net = random_net(11)
    x = np.random.default_rng(3).dirichlet(np.ones(16))
    assert recon_errors(x, x, net) == (0.0, 0.0)


def test_recon_errors_disjoint_point_masses():
    x = np.zeros(16)
    x[0] = 1.0
    g = np.zeros(16)
    g[1] = 1.0
    r_d, _ = recon_errors(x, g, random_net(13))
    assert r_d == pytest.approx(2.0)


def test_recon_errors_zero_net_embedding():
    rng = np.random.default_rng(8)
    x, g = rng.dirichlet(np.ones(16)), rng.dirichlet(np.ones(16))
    r_d, r_n = recon_errors(x, g, zero_net())
    assert r_n == 0.0
    assert r_d > 0.0


def oracle_recon_batch(x, refs, net):
    """R_d and R_n of every row of ``x`` against its nearest (L1) row of
    ``refs``, plus that index, for one user: rows and references share one
    forward pass of that user's scorer alone."""
    dist = np.abs(x[:, None, :] - refs[None, :, :]).sum(axis=2)
    nearest = np.argmin(dist, axis=1)
    _, emb = _embed(net, np.vstack([x, refs]))
    r_n = np.abs(emb[:len(x)] - emb[len(x):][nearest]).sum(axis=1)
    return dist[np.arange(len(x)), nearest], r_n, nearest


def oracle_score_user(rows, x, references, net, lam, n_train):
    """One user's days scored alone, thresholds from its first ``n_train``."""
    r_d, r_n, _ = oracle_recon_batch(x, np.atleast_2d(references), net)
    d = behavior_score(r_d, r_n, lam)
    th = fit_thresholds(d[:n_train])
    return Scores([*rows.user], [*rows.day], [*rows.label], r_d, r_n, d,
                  np.full(len(d), th.th_d),
                  (d > th.th_d).astype(int) + (d > th.th_f))


def score_user(rows, x, references, net, lam, n_train):
    """``score_rows`` of one user's days, its first ``n_train`` the training window."""
    return score_rows(rows, x, [UserDays(np.arange(len(rows)), n_train, references, net)],
                      lam)


def day_rows(vectors, user="U1", labels=None):
    """``Days`` of one user whose ``x`` is ``vectors``, the rows' simplex
    vectors, from 2011-01-01 on."""
    labels = labels or [None] * len(vectors)
    return Days([user] * len(vectors), [date(2011, 1, 1) + timedelta(i)
                                        for i in range(len(vectors))],
                labels, np.reshape(vectors, (-1, 16)))


@pytest.mark.parametrize("n_refs", [1, 64])
def test_batched_scores_match_per_row_recon_errors(n_refs):
    rng = np.random.default_rng(40 + n_refs)
    net = random_net(19)
    refs = rng.dirichlet(np.ones(16), size=n_refs)
    vectors = [*rng.dirichlet(np.ones(16), size=50), refs[-1].copy()]
    rows = day_rows(vectors)
    scores = score_user(rows, np.array(vectors), refs, net, 0.3, len(rows))
    _, _, batch_nearest = oracle_recon_batch(np.array(vectors), refs, net)
    assert len(scores) == len(rows)
    for i, (vec, got_nearest) in enumerate(zip(rows.x, batch_nearest)):
        nearest = int(np.argmin(np.abs(vec - refs).sum(axis=1)))
        assert got_nearest == nearest
        r_d, r_n = recon_errors(vec, refs[nearest], net)
        assert scores.r_d[i] == r_d
        assert scores.r_d[i] == min(np.abs(vec - ref).sum() for ref in refs)
        assert abs(scores.r_n[i] - r_n) <= 1e-12
        assert scores.d[i] == behavior_score(scores.r_d[i], scores.r_n[i], 0.3)
        assert (scores.user[i], scores.day[i]) == (rows.user[i], rows.day[i])
    assert (scores.r_d[-1], scores.r_n[-1]) == (0.0, 0.0)


# --------------------------------------------------------------------------
# The array scoring path vs. the per-row path it replaced
# --------------------------------------------------------------------------

def oracle_score_rows(days, references, net, lam):
    """(R_d, R_n, d) per row: one row taken at a time, d in scalars."""
    x = np.reshape([[*vec] for vec in days.x], (len(days), 16))
    r_d, r_n, _ = oracle_recon_batch(x, np.atleast_2d(references), net)
    return [(float(rd), float(rn), (1.0 - lam) * float(rd) + lam * float(rn))
            for rd, rn in zip(r_d, r_n)]


def oracle_fit_thresholds(train_scores):
    th_d = float(max(train_scores))
    return th_d, 2.0 * th_d


def oracle_classify(d, th_d, th_f):
    if d <= th_d:
        return "Normal"
    if d <= th_f:
        return "Low_threat"
    return "High_threat"


def oracle_records(train, test, references, net, lam):
    """The training window and the test rows scored in two calls, then
    thresholds from the first and a verdict for each row."""
    scored_train = oracle_score_rows(train, references, net, lam)
    scored_test = oracle_score_rows(test, references, net, lam)
    th_d, th_f = oracle_fit_thresholds([d for _, _, d in scored_train])
    return [(user, day, r_d, r_n, d, th_d, th_f, oracle_classify(d, th_d, th_f), label)
            for user, day, label, (r_d, r_n, d) in zip(
                [*train.user, *test.user], [*train.day, *test.day],
                [*train.label, *test.label], [*scored_train, *scored_test])]


def score_tuples(scores):
    """Each scored day as the tuple ``oracle_records`` gives."""
    return [*zip(scores.user, scores.day, scores.r_d.tolist(), scores.r_n.tolist(),
                 scores.d.tolist(), scores.th_d.tolist(), (2.0 * scores.th_d).tolist(),
                 [VERDICTS[band] for band in scores.band.tolist()], scores.label)]


def array_records(train, test, references, net, lam):
    rows = Days.join([train, test])
    return score_tuples(score_user(rows, rows.x, references, net, lam, len(train)))


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        for a, b in zip(g, w):
            assert type(a) is type(b)
            if isinstance(a, float):
                assert a.hex() == b.hex()


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("n_refs", [1, 64])
def test_array_path_matches_per_row_oracle(n_refs, lam):
    rng = np.random.default_rng(70 + n_refs)
    net = random_net(23)
    refs = rng.dirichlet(np.full(16, 20.0), size=n_refs)
    train = day_rows(rng.dirichlet(np.full(16, 20.0), size=30))
    # from far off the training cloud (High_threat) to inside it (Normal)
    vectors = [*np.vstack([rng.dirichlet(np.full(16, a), size=5)
                           for a in (0.05, 5.0, 8.0, 20.0)])]
    test = day_rows([*vectors, *train.x.copy()],
                    labels=["normal", "abnormal"] * 25)
    want = oracle_records(train, test, refs, net, lam)
    assert_bit_identical(array_records(train, test, refs, net, lam), want)
    th_d = want[0][5]
    # a test copy of the top training row lands exactly on th_d
    assert any(rec[4] == th_d and rec[7] == "Normal" for rec in want[30:])
    assert {rec[7] for rec in want[30:]} == set(VERDICTS)


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("n_refs", [1, 64])
def test_array_path_matches_oracle_on_band_edges(n_refs, lam):
    # dyadic rows about the uniform reference: every R_d is exact, and the
    # zero network's embedding makes R_n = 0, so d = (1 - lam) R_d exactly
    refs = np.vstack([np.full(16, 1 / 16), np.eye(16)[np.arange(n_refs - 1) % 16]])
    net = zero_net()

    def near_uniform(step):
        vec = np.full(16, 1 / 16)
        vec[0] += step
        vec[1] -= step
        return vec

    train = day_rows([near_uniform(s / 256) for s in (1, 4, 2)])
    test = day_rows([near_uniform(s / 256) for s in (4, 5, 8, 9, 3)])
    want = oracle_records(train, test, refs, net, lam)
    assert_bit_identical(array_records(train, test, refs, net, lam), want)
    th_d, th_f = want[0][5], want[0][6]
    assert (want[3][4], want[5][4]) == (th_d, th_f)   # both bands' upper edges
    assert [rec[7] for rec in want[3:]] == (
        ["Normal", "Low_threat", "Low_threat", "High_threat", "Normal"]
        if lam < 1.0 else ["Normal"] * 5)


@pytest.mark.parametrize("n_refs", [[1], [64], [1, 4]], ids=["exact", "sampled", "mixed"])
@pytest.mark.parametrize("counts", [
    [40], [30, 46, 12, 46, 1, 70], [bde.STACK_ROWS // 16 + user % 9 for user in range(20)]],
    ids=["one-user", "unequal", "over-one-stack"])
def test_stacked_scores_match_each_user_scored_alone(counts, n_refs, monkeypatch):
    """Users' days in one ``score_rows`` call, their rows shuffled
    together, score bit for bit as each user scored alone; a stack of more
    than one user pads to at most ``STACK_ROWS`` rows, and users with
    unequal reference counts go to separate stacks."""
    stacks, recon = [], bde._recon

    def counted(batch, n_refs, *args):
        stacks.append((len(batch), n_refs))
        assert len(batch) == 1 or batch.shape[0] * batch.shape[1] <= bde.STACK_ROWS
        return recon(batch, n_refs, *args)

    monkeypatch.setattr(bde, "_recon", counted)
    rng = np.random.default_rng(sum(counts) + len(n_refs))
    users, alone = [], []
    for user, count in enumerate(counts):
        x = np.vstack([rng.dirichlet(np.full(16, alpha), size=count)
                       for alpha in (0.3, 20.0)])[rng.permutation(2 * count)[:count]]
        refs = rng.dirichlet(np.ones(16), size=n_refs[user % len(n_refs)])
        rows = day_rows(x, f"U{user}", [*rng.choice([None, "normal", "abnormal"], count)])
        n_train = max(1, 2 * count // 3)
        users.append((rows, x, refs, random_net(user), n_train))
        alone.append(oracle_score_user(rows, x, refs, random_net(user), 0.1, n_train))
    order = rng.permutation(sum(counts))
    where = np.argsort(order)   # each day's place among the shuffled rows
    ends = np.cumsum(counts)
    rows = Days.join([user[0] for user in users])
    x = np.vstack([user[1] for user in users])
    scores = score_rows(rows[order], x[order], [
        UserDays(where[end - count:end], n_train, refs, net)
        for (_, _, refs, net, n_train), count, end in zip(users, counts, ends)], 0.1)
    for want, count, end in zip(alone, counts, ends):
        days = where[end - count:end]
        for name in ("user", "day", "label"):
            assert [getattr(scores, name)[i] for i in days] == getattr(want, name)
        for name in ("r_d", "r_n", "d", "th_d", "band"):
            assert getattr(scores, name)[days].tobytes() == getattr(want, name).tobytes()
    assert sum(size for size, _ in stacks) == len(counts)
    assert len({n for _, n in stacks}) == len(n_refs[:len(counts)])


def test_score_rows_needs_every_row_scored_once():
    rows, x = day_rows(np.full((3, 16), 1 / 16)), np.full((3, 16), 1 / 16)
    ref, net = np.full(16, 1 / 16), zero_net()
    for days in ([0, 1], [0, 1, 1, 2], [0, 1, 3]):
        with pytest.raises(ValueError, match="exactly one user"):
            score_rows(rows, x, [UserDays(np.array(days), 1, ref, net)], 0.1)
    with pytest.raises(ValueError, match="empty score list"):
        score_user(rows, x, ref, net, 0.1, 0)


def test_behavior_score_endpoints_and_arithmetic():
    assert behavior_score(0.7, 0.2, 0.0) == 0.7
    assert behavior_score(0.7, 0.2, 1.0) == 0.2
    assert behavior_score(0.4, 0.8, 0.1) == pytest.approx(0.44)
    with pytest.raises(ValueError):
        behavior_score(0.1, 0.1, 1.5)


def test_behavior_score_is_affine_in_lambda():
    rng = np.random.default_rng(14)
    r_d, r_n = rng.uniform(0, 2, 2)
    lams = rng.uniform(0, 1, 5)
    vals = [behavior_score(r_d, r_n, l) for l in lams]
    for l, v in zip(lams, vals):
        assert v == pytest.approx((1 - l) * r_d + l * r_n)


# --------------------------------------------------------------------------
# Thresholds and verdicts
# --------------------------------------------------------------------------

def test_fit_thresholds_examples():
    th = fit_thresholds([0.1, 0.3, 0.2])
    assert (th.th_d, th.th_f) == (0.3, 0.6)
    assert fit_thresholds([0.0]).th_d == 0.0
    th = fit_thresholds([0.5, 0.5, 0.5])
    assert (th.th_d, th.th_f) == (0.5, 1.0)
    with pytest.raises(ValueError):
        fit_thresholds([])


def test_thresholds_law_is_enforced():
    # th_f is derived, not stored, so it cannot disagree with th_d
    for th_d in np.random.default_rng(16).uniform(0, 5, 50).tolist():
        assert Thresholds(th_d).th_f == 2.0 * th_d
    with pytest.raises(TypeError):
        Thresholds(th_d=0.3, th_f=0.7)


def test_verdict_bands_and_boundaries():
    # zero network and lambda = 0: d is the L1 distance to the point mass,
    # 2 * step, exact in binary
    ref = np.eye(16)[0]

    def shifted(step):
        vec = ref.copy()
        vec[0] -= step
        vec[1] += step
        return vec

    steps = [0.125, 0.0625, 0.125, 0.1875, 0.25, 0.375]
    records = score_tuples(score_user(day_rows([shifted(s) for s in steps]),
                                      np.array([shifted(s) for s in steps]), ref,
                                      zero_net(), 0.0, 2))
    assert records[0][5:7] == (0.25, 0.5)
    assert [(rec[4], rec[7]) for rec in records[2:]] == [
        (0.25, "Normal"),        # boundary inclusive
        (0.375, "Low_threat"),   # 1.5x th_d
        (0.5, "Low_threat"),     # boundary inclusive
        (0.75, "High_threat")]   # 3x th_d


def test_no_training_point_classifies_abnormal():
    rng = np.random.default_rng(15)
    x = rng.dirichlet(np.ones(16), size=200)
    scores = score_user(day_rows(x), x, rng.dirichlet(np.ones(16)),
                        random_net(17), 0.1, len(x))
    assert scores.band.tolist() == [0] * len(x)


def test_accuracy_and_confusion():
    verdicts = ["Normal", "Low_threat", "High_threat", "Normal"]
    truth = ["normal", "abnormal", "normal", "abnormal"]
    assert confusion(verdicts, truth) == {"TP": 1, "TN": 1, "FP": 1, "FN": 1}
    assert accuracy(confusion(verdicts, truth)) == 0.5
    assert accuracy(confusion(verdicts, ["abnormal", "abnormal", "abnormal",
                                         "normal"])) == 0.75
    with pytest.raises(ValueError):
        confusion(["Normal"], [])


def test_accuracy_all_correct():
    assert accuracy(confusion(["Normal", "High_threat"],
                              ["normal", "abnormal"])) == 1.0


# --------------------------------------------------------------------------
# Report files
# --------------------------------------------------------------------------

def scores_of(records):
    """``Scores`` of (user, day, r_d, r_n, d, th_d, band, label) tuples."""
    user, day, *values, band, label = [*zip(*records)] or [()] * 8
    return Scores([*user], [*day], [*label], *np.array(values, float),
                  np.array(band, int))


def sample_scores():
    """Five days; thresholds from the first three, the training window."""
    d = [0.09 * i for i in range(5)]
    th = Thresholds(max(d[:3]))
    return scores_of([("U1", date(2011, 1, i + 1), 0.1 * i, 0.05 * i, d[i], th.th_d,
                       VERDICTS.index(oracle_classify(d[i], th.th_d, th.th_f)),
                       "normal" if i < 3 else "abnormal") for i in range(5)])


# the user ids, labels and floats whose fields are hardest to get right:
# csv quotes ``a,b`` and ``x"y``, ``#U1`` starts like a comment, an empty
# label is an empty field, and repr tells -0.0 from 0.0
CSV_USERS = st.sampled_from(["U1", "a,b", 'x"y', "#U1"])
CSV_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False)


def csv_writer_bytes(header, rows, comment):
    """What ``csv.writer`` writes for these rows, after the comment line."""
    out = io.StringIO()
    out.write(f"# {comment}\n" if comment else "")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(users=st.lists(st.tuples(CSV_USERS, CSV_FLOATS.filter(  # th_f = 2 th_d is finite
           lambda th_d: math.isfinite(2.0 * th_d))), min_size=1, max_size=3),
       rows=st.lists(st.tuples(
           st.integers(0, 2), st.dates(date(2011, 1, 1), date(2011, 1, 9)),
           CSV_FLOATS, CSV_FLOATS, CSV_FLOATS, st.sampled_from(VERDICTS),
           st.sampled_from([None, "", "normal", "abnormal"])), max_size=8),
       comment=st.sampled_from([None, "digest"]))
def test_score_csv_round_trip(users, rows, comment):
    """Each user's days share one ``th_d``, as ``score_rows`` gives them;
    the file holds what ``csv.writer`` would write, and reads back bit for
    bit."""
    fields = [[user, day, r_d, r_n, d, th_d, 2.0 * th_d, verdict, label]
              for (user, th_d), day, r_d, r_n, d, verdict, label in
              ((users[k % len(users)], *rest) for k, *rest in rows)]
    scores = scores_of([(*row[:6], VERDICTS.index(row[7]), row[8]) for row in fields])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        write_score_csv(path, scores, comment)
        assert path.read_bytes() == csv_writer_bytes(SCORE_COLUMNS, [
            [user, day.isoformat(), *values, label or ""]
            for user, day, *values, label in fields], comment)
        back = read_score_csv(path)
    assert back == [dict(zip(SCORE_COLUMNS, [*row[:-1], row[-1] or None]))
                    for row in fields]
    assert [struct.pack("<5d", *list(rec.values())[2:7]) for rec in back] == [
        struct.pack("<5d", *row[2:7]) for row in fields]


# --------------------------------------------------------------------------
# The column writers vs. the per-record writers they replaced
# --------------------------------------------------------------------------

ScoreRecord = namedtuple("ScoreRecord", "user day r_d r_n d th verdict label")


def oracle_write_score_csv(path, records, comment=None):
    """One line per record: ``r_d``, ``r_n`` and ``d`` formatted one by
    one, each distinct user, day, threshold, verdict and label once."""
    user, day, *values, verdict, label = [*zip(*map(attrgetter(
        "user", "day", "r_d", "r_n", "d", "th.th_d", "th.th_f", "verdict", "label"),
        records))] or [()] * len(SCORE_COLUMNS)
    write_columns(path, SCORE_COLUMNS, [
        text_fields(user), text_fields(day, lambda day: day.isoformat()),
        *([*map(repr, column)] for column in values[:3]),
        *(float_fields(column).tolist() for column in values[3:]),
        text_fields(verdict), text_fields(label, lambda label: label or "")], comment)


def oracle_write_summary(path, records, train_records, lam, comment=None):
    """The summary counted record by record, from each record's verdict."""
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
                                             if r.verdict != "Normal")
    labelled = [r for r in records if r.label is not None]
    if labelled:
        counts = confusion([r.verdict for r in labelled], [r.label for r in labelled])
        entries["accuracy"] = repr(accuracy(counts))
        for key, value in counts.items():
            entries[f"confusion.{key}"] = value
    write_kv(path, bde.SUMMARY_MAGIC, {"": entries})


def test_column_writers_match_per_record_oracle(tmp_path):
    """Days scored as ``detect`` scores them, each user's together, then
    joined by window: a quoted user, a user with no test days, days exactly
    at th_d and at th_f, and -0.0, 5e-324 and 1e16 among the floats.  Both
    score files and the summary match the per-record writers byte for
    byte."""
    # zero network, lambda = 0 and a point-mass reference: d is 2 * step
    ref = np.eye(16)[0]
    net = zero_net()

    def shifted(steps):
        x = np.tile(ref, (len(steps), 1))
        x[:, 0] -= steps
        x[:, 1] += steps
        return x

    users = [('a,"b', [0.125, 0.0625, 0.125, 0.1875, 0.25, 0.375], 2,
              [None, None, "normal", "abnormal", None, "abnormal"]),
             ("#U1", [0.25, 0.125], 2, ["normal", "normal"]),
             ("U2", [0.0625, 0.0, 0.5, 0.03125], 1, [None, "", "abnormal", "normal"])]
    train, test, train_records, test_records = [], [], [], []
    for user, steps, n_train, labels in users:
        rows = day_rows(shifted(steps), user, labels)
        scores = score_user(rows, shifted(steps), ref, net, 0.0, n_train)
        records = [ScoreRecord(user, day, r_d, r_n, d, Thresholds(th_d), verdict, label)
                   for user, day, r_d, r_n, d, th_d, _, verdict, label
                   in score_tuples(scores)]
        train.append(scores[:n_train])
        test.append(scores[n_train:])
        train_records += records[:n_train]
        test_records += records[n_train:]
    # floats score_rows cannot make, in a day of the test window
    odd = scores_of([("U2", date(2011, 2, 1), -0.0, 5e-324, 1e16, 1e16, 1, "normal")])
    test.append(odd)
    test_records.append(ScoreRecord("U2", date(2011, 2, 1), -0.0, 5e-324, 1e16,
                                    Thresholds(1e16), "Low_threat", "normal"))
    train, test = Scores.join(train), Scores.join(test)
    verdicts = [rec.verdict for rec in test_records]
    assert verdicts[:4] == ["Normal", "Low_threat", "Low_threat", "High_threat"]
    assert test_records[0].d == test_records[0].th.th_d   # at th_d: Normal
    assert test_records[2].d == test_records[2].th.th_f   # at th_f: Low_threat
    assert {rec.user for rec in test_records} == {'a,"b', "U2"}

    for name, scores, records in (("scores.csv", test, test_records),
                                  ("scores_train.csv", train, train_records)):
        write_score_csv(tmp_path / name, scores, "digest")
        oracle_write_score_csv(tmp_path / f"oracle_{name}", records, "digest")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"oracle_{name}").read_bytes()
    acc = write_summary(tmp_path / "summary.txt", test, train, 0.0, "digest")
    oracle_write_summary(tmp_path / "oracle_summary.txt", test_records, train_records,
                         0.0, "digest")
    assert (tmp_path / "summary.txt").read_bytes() == \
        (tmp_path / "oracle_summary.txt").read_bytes()
    assert repr(acc) == read_summary(tmp_path / "summary.txt")["accuracy"]
    # an empty window writes the header alone
    write_score_csv(tmp_path / "empty.csv", test[:0])
    oracle_write_score_csv(tmp_path / "oracle_empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == \
        (tmp_path / "oracle_empty.csv").read_bytes()


def test_failed_score_csv_write_keeps_previous_file(tmp_path):
    scores = sample_scores()
    path = tmp_path / "scores.csv"
    write_score_csv(path, scores, comment="first")
    before = path.read_bytes()
    scores.day[3] = None  # fails as the day column is formatted
    with pytest.raises(AttributeError):
        write_score_csv(path, scores, comment="second")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]


def score_line(day="2011-01-01", r_d="0", th_f="0", label=""):
    return f"U1,{day},{r_d},0,0,0,{th_f},Normal,{label}"


HUGE_FIELD = '"' + "x" * (csv.field_size_limit() + 1) + '"'


@pytest.mark.parametrize("lines, error", [
    ([score_line(r_d="x")], "line 2: could not convert string to float: 'x'"),
    ([score_line(), score_line(th_f="1e"), "U1,2011-01-02"],
     "line 3: could not convert string to float: '1e'"),
    ([score_line(day="x"), score_line(r_d="y")], "line 2: Invalid isoformat string: 'x'"),
    ([score_line(r_d="y"), score_line(day="x")], "line 2: could not convert string to float: 'y'"),
    ([score_line(day="x", r_d="y")], "line 2: Invalid isoformat string: 'x'"),
    ([score_line(th_f="z"), score_line(label=HUGE_FIELD)], "line 2: could not convert"),
    ([score_line(), score_line(label=HUGE_FIELD), score_line(r_d="y")],
     "line 3: field larger than field limit"),
    ([score_line(), "U1,2011-01-02", score_line(r_d="y")],
     "line 3: expected 9 columns, got 2"),
], ids=["bad-float", "bad-float-before-short-row", "bad-date-before-bad-float",
        "bad-float-before-bad-date", "bad-date-and-float-in-one-row",
        "bad-float-before-field-limit", "field-limit-before-bad-float",
        "short-row-before-bad-float"])
def test_score_csv_schema_error_names_line(tmp_path, lines, error, each_csv_splitter):
    """The first bad record in the file is the one reported, by its line,
    by either splitter."""
    path = tmp_path / "scores.csv"
    path.write_text("\n".join([",".join(SCORE_COLUMNS), *lines, ""]), encoding="utf-8")
    for _ in each_csv_splitter():
        with pytest.raises(SchemaError, match=re.escape(error)):
            read_score_csv(path)


def test_score_csv_error_counts_the_comment_line(tmp_path, each_csv_splitter):
    scores = sample_scores()
    path = tmp_path / "scores.csv"
    write_score_csv(path, scores, comment="digest")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# digest"
    lines[3] = lines[3].replace(repr(scores.r_d[1].item()), "x", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for _ in each_csv_splitter():
        with pytest.raises(SchemaError, match="line 4: could not convert"):
            read_score_csv(path)


def test_summary_round_trip(tmp_path):
    scores = sample_scores()
    train = scores[:3]
    path = tmp_path / "summary.txt"
    acc = write_summary(path, scores, train, 0.1, comment="abc123")
    summary = read_summary(path)
    assert summary["config_digest"] == "abc123"
    assert summary["lambda"] == "0.1"
    assert summary["users"] == "U1"
    assert float(summary["th_d.U1"]) == scores.th_d[0]
    assert summary["test_records"] == "5"
    assert summary["train_abnormal_verdicts"] == "0"
    assert float(summary["th_f.U1"]) == 2 * float(summary["th_d.U1"])
    assert float(summary["accuracy"]) == acc == accuracy(confusion(
        [VERDICTS[band] for band in scores.band], scores.label))


def test_summary_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("something else\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_summary(path)
