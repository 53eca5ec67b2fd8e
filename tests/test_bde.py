"""Scoring network (vs. nested-loop and finite-difference oracles),
thresholds, verdicts and report files."""

import math
from datetime import date, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from qbde.bde import (
    SIGMOID_CLAMP,
    BdeNet,
    BdeTrainConfig,
    ScoreRecord,
    Thresholds,
    _recon_batch,
    accuracy,
    apply_verdicts,
    bce_loss_and_grads,
    bde_accuracy,
    bde_forward,
    behavior_score,
    classify,
    confusion,
    fit_thresholds,
    read_score_csv,
    read_summary,
    recon_errors,
    score_rows,
    train_bde,
    write_score_csv,
    write_summary,
)
from qbde.errors import SchemaError
from qbde.optim import Adam


def zero_net():
    return BdeNet(np.zeros((4, 1, 3)), np.zeros(4), np.zeros((8, 4, 3)),
                  np.zeros(8), np.zeros(32), np.zeros(1))


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

    h = pool(relu(conv(x[None, :], net.conv1_w, net.conv1_b)))
    h = pool(relu(conv(h, net.conv2_w, net.conv2_b)))
    emb = h.reshape(-1)
    z = float(emb @ net.fc_w + net.fc_b[0])
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
# Training
# --------------------------------------------------------------------------

def test_train_separable_sets_reach_full_accuracy():
    rng = np.random.default_rng(2)
    real = rng.uniform(0.6, 1.0, (40, 16))
    fake = rng.uniform(0.0, 0.4, (40, 16))
    net = train_bde(real, fake, BdeTrainConfig(epochs=200, seed=0))
    x = np.vstack([real, fake])
    y = np.concatenate([np.ones(40), np.zeros(40)])
    assert bde_accuracy(net, x, y) == 1.0


def test_train_identical_sets_settle_at_log2():
    rng = np.random.default_rng(4)
    data = rng.dirichlet(np.ones(16), size=60)
    net = train_bde(data, data, BdeTrainConfig(epochs=150, seed=1))
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
    n1 = train_bde(real, fake, BdeTrainConfig(epochs=30, seed=3))
    n2 = train_bde(real, fake, BdeTrainConfig(epochs=30, seed=3))
    for a, b in zip(n1.param_list(), n2.param_list()):
        np.testing.assert_array_equal(a, b)


def test_train_steps_one_flat_vector_like_per_array_adam():
    rng = np.random.default_rng(9)
    real = rng.uniform(0, 1, (13, 16))
    fake = rng.uniform(0, 1, (11, 16))
    cfg = BdeTrainConfig(epochs=6, batch=5, seed=4)
    net = train_bde(real, fake, cfg)
    x = np.vstack([real, fake])
    y = np.concatenate([np.ones(13), np.zeros(11)])
    order_rng = np.random.default_rng(cfg.seed)
    ref = BdeNet.create(order_rng)
    opts = [Adam(cfg.lr) for _ in ref.param_list()]
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch):
            idx = order[start:start + cfg.batch]
            grads = bce_loss_and_grads(ref, x[idx], y[idx])[1]
            for opt, arr, g in zip(opts, ref.param_list(), grads):
                opt.step(arr, g)
    for got, want in zip(net.param_list(), ref.param_list()):
        np.testing.assert_array_equal(got, want)


def test_adam_on_a_flat_vector_is_bit_identical_to_per_array_adam():
    rng = np.random.default_rng(10)
    arrays = [a.copy() for a in random_net(12).param_list()]
    flat = np.concatenate([a.ravel() for a in arrays])
    per_array, whole = [Adam(0.01) for _ in arrays], Adam(0.01)
    for _ in range(100):
        grads = [rng.normal(size=a.shape) for a in arrays]
        for opt, arr, g in zip(per_array, arrays, grads):
            opt.step(arr, g)
        whole.step(flat, np.concatenate([g.ravel() for g in grads]))
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))


def test_train_rejects_empty_sets():
    with pytest.raises(ValueError):
        train_bde(np.empty((0, 16)), np.ones((2, 16)))


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


@pytest.mark.parametrize("n_refs", [1, 64])
def test_batched_scores_match_per_row_recon_errors(n_refs):
    rng = np.random.default_rng(40 + n_refs)
    net = random_net(19)
    refs = rng.dirichlet(np.ones(16), size=n_refs)
    vectors = [*rng.dirichlet(np.ones(16), size=50), refs[-1].copy()]
    rows = [SimpleNamespace(user="U1", day=date(2011, 1, 1) + timedelta(i),
                            label=None, vec=v) for i, v in enumerate(vectors)]
    records = score_rows(rows, refs, net, 0.3, lambda row: row.vec)
    _, _, batch_nearest = _recon_batch(np.array(vectors), refs, net)
    assert len(records) == len(rows)
    for row, rec, got_nearest in zip(rows, records, batch_nearest):
        nearest = int(np.argmin(np.abs(row.vec - refs).sum(axis=1)))
        assert got_nearest == nearest
        r_d, r_n = recon_errors(row.vec, refs[nearest], net)
        assert rec.r_d == r_d
        assert rec.r_d == min(np.abs(row.vec - ref).sum() for ref in refs)
        assert abs(rec.r_n - r_n) <= 1e-12
        assert rec.d == behavior_score(rec.r_d, rec.r_n, 0.3)
        assert (rec.user, rec.day) == (row.user, row.day)
    assert (records[-1].r_d, records[-1].r_n) == (0.0, 0.0)


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
    with pytest.raises(ValueError):
        Thresholds(th_d=0.3, th_f=0.7)


def test_classify_bands_and_boundaries():
    th = Thresholds(th_d=0.4, th_f=0.8)
    assert classify(0.4, th) == "Normal"        # boundary inclusive
    assert classify(0.6, th) == "Low_threat"    # 1.5x th_d
    assert classify(0.8, th) == "Low_threat"    # boundary inclusive
    assert classify(1.2, th) == "High_threat"   # 3x th_d


def test_no_training_point_classifies_abnormal():
    rng = np.random.default_rng(15)
    scores = rng.uniform(0, 1, 200)
    th = fit_thresholds(scores)
    assert all(classify(s, th) == "Normal" for s in scores)


def test_accuracy_and_confusion():
    verdicts = ["Normal", "Low_threat", "High_threat", "Normal"]
    truth = ["normal", "abnormal", "normal", "abnormal"]
    assert accuracy(verdicts, truth) == 0.5
    assert confusion(verdicts, truth) == {"TP": 1, "TN": 1, "FP": 1, "FN": 1}
    assert accuracy(verdicts, ["abnormal", "abnormal", "abnormal", "normal"]) == 0.75
    with pytest.raises(ValueError):
        accuracy(["Normal"], [])


def test_accuracy_all_correct():
    assert accuracy(["Normal", "High_threat"], ["normal", "abnormal"]) == 1.0


# --------------------------------------------------------------------------
# Report files
# --------------------------------------------------------------------------

def sample_records():
    return [ScoreRecord("U1", date(2011, 1, i + 1), 0.1 * i, 0.05 * i,
                        0.09 * i, "", "normal" if i < 3 else "abnormal")
            for i in range(5)]


def test_score_csv_round_trip(tmp_path):
    records = sample_records()
    th = fit_thresholds([r.d for r in records[:3]])
    apply_verdicts(records, th)
    path = tmp_path / "scores.csv"
    write_score_csv(path, records, comment="digest")
    back = read_score_csv(path)
    assert len(back) == 5
    assert back[0]["user"] == "U1"
    assert back[4]["d"] == pytest.approx(records[4].d)
    assert all(row["th_f"] == 2 * row["th_d"] for row in back)


def test_failed_score_csv_write_keeps_previous_file(tmp_path):
    records = sample_records()
    path = tmp_path / "scores.csv"
    write_score_csv(path, records, comment="first")
    before = path.read_bytes()
    records[3].day = None  # fails after the header and three rows are written
    with pytest.raises(AttributeError):
        write_score_csv(path, records, comment="second")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]


def test_score_csv_schema_error_names_line(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("user,day,r_d,r_n,d,th_d,th_f,verdict,label\nU1,2011-01-01,x,0,0,0,0,Normal,\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2"):
        read_score_csv(path)


def test_score_csv_error_counts_the_comment_line(tmp_path):
    records = sample_records()
    apply_verdicts(records, fit_thresholds([r.d for r in records[:3]]))
    path = tmp_path / "scores.csv"
    write_score_csv(path, records, comment="digest")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# digest"
    lines[3] = lines[3].replace(repr(records[1].r_d), "x", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 4: could not convert"):
        read_score_csv(path)


def test_summary_round_trip(tmp_path):
    records = sample_records()
    th = fit_thresholds([r.d for r in records[:3]])
    apply_verdicts(records, th)
    train = records[:3]
    path = tmp_path / "summary.txt"
    write_summary(path, records, {"U1": th}, train, comment="abc123")
    summary = read_summary(path)
    assert summary["config_digest"] == "abc123"
    assert summary["test_records"] == "5"
    assert summary["train_abnormal_verdicts"] == "0"
    assert float(summary["th_f.U1"]) == 2 * float(summary["th_d.U1"])
    assert float(summary["accuracy"]) == accuracy([r.verdict for r in records],
                                                  [r.label for r in records])


def test_summary_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("something else\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_summary(path)
