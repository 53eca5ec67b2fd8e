"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria with long-running training share module-scoped fixtures; all
tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from qbde import bde, qgan
from qbde.bde import read_score_csv, read_summary
from qbde.cli import EXIT_OK, main
from qbde.qsim import GeneratorParams, entangler_pairs, run_generator_circuit

LOG2 = math.log(2.0)

# Fixed 2-qubit target for the distribution-loading run.
LOADING_TARGET = np.array([0.5, 0.25, 0.15, 0.1])
LOADING_CONFIG = dict(batch=1, epochs=1000, lr_g=0.05, lr_d=0.003,
                      hidden=(16, 8))

# Fixed 4-qubit target for the depth study: a generic asymmetric
# distribution that a shallow circuit cannot represent exactly.
DEPTH_TARGET = np.array([
    0.0103, 0.0877, 0.0297, 0.0476, 0.0677, 0.0740, 0.0890, 0.0013,
    0.0632, 0.0440, 0.1170, 0.1927, 0.0951, 0.0310, 0.0116, 0.0381])
DEPTH_TARGET[0] += 1.0 - DEPTH_TARGET.sum()
DEPTH_CONFIG = dict(batch=1, epochs=400, lr_g=0.05, lr_d=0.003,
                    hidden=(16, 8))

SEEDS = (0, 1, 2, 3, 4)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------------
# Shared training runs
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def loading_runs():
    """Five seeded 2-qubit, depth-4 runs against LOADING_TARGET."""
    runs = []
    start = time.perf_counter()
    for seed in SEEDS:
        cfg = qgan.TrainConfig(depth=4, seed=seed, **LOADING_CONFIG)
        trace = qgan.train([LOADING_TARGET[None, :]], cfg)[0]
        runs.append(trace)
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """The full synthetic pipeline, run twice with the same seed."""
    outs = []
    start = time.perf_counter()
    for tag in ("a", "b"):
        root = tmp_path_factory.mktemp(f"accept_{tag}")
        cfg = root / "run.cfg"
        cfg.write_text(
            f"input_dir = {root / 'data'}\n"
            f"out_dir = {root / 'out'}\n"
            "n_users = 1\nn_days = 300\nanomaly_rate = 0.05\n"
            "train_days = 200\ntest_days = 100\n"
            "k = 8\nepochs = 200\nbatch = 16\n"
            "lambda = 0.1\nseed = 0\n", encoding="utf-8")
        flags = ["--config", str(cfg)]
        for step in ("synth", "ingest", "train", "detect"):
            assert main([step, *flags]) == EXIT_OK
        outs.append(root / "out")
    return outs, time.perf_counter() - start


# --------------------------------------------------------------------------
# Criterion: gradient exactness of the composed loss
# --------------------------------------------------------------------------

def test_gradient_exactness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    h = 1e-5
    for _ in range(50):
        n = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 5))
        params = GeneratorParams(n, rng.uniform(-np.pi, np.pi, (depth + 1, n)))
        net = qgan.DiscriminatorNet.create(2**n, (10, 6), rng)
        for b in net.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        grad = qgan.gen_grads(params, net)
        for layer, qubit in np.ndindex(params.angles.shape):
            up = params.angles.copy()
            up[layer, qubit] += h
            down = params.angles.copy()
            down[layer, qubit] -= h
            fd = (qgan.loss_g(net, qgan.generator_output(GeneratorParams(n, up))[None, :])
                  - qgan.loss_g(net, qgan.generator_output(GeneratorParams(n, down))[None, :])) / (2 * h)
            worst = max(worst, abs(grad[layer, qubit] - fd))
    elapsed = time.perf_counter() - start
    _verdict("gradient-exactness",
             worst < 1e-5 and elapsed < 30.0,
             f"max |analytic - finite difference| = {worst:.2e} "
             f"(tolerance 1e-5), {elapsed:.1f}s (< 30s)")


# --------------------------------------------------------------------------
# Criterion: circuit equals the dense-unitary oracle
# --------------------------------------------------------------------------

def _dense_unitary(params: GeneratorParams) -> np.ndarray:
    def ry(theta):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return np.array([[c, -s], [s, c]])

    def layer(row):
        u = np.eye(1)
        for i in range(params.n_qubits):
            u = np.kron(u, ry(row[i]))
        return u

    n = params.n_qubits
    ue = np.eye(2**n)
    for a, b in entangler_pairs(n):
        diag = np.ones(2**n)
        for j in range(2**n):
            if j & (1 << (n - a)) and j & (1 << (n - b)):
                diag[j] = -1.0
        ue = np.diag(diag) @ ue
    u = layer(params.angles[0])
    for k in range(1, params.depth + 1):
        u = layer(params.angles[k]) @ ue @ u
    return u


def test_circuit_oracle_equivalence():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 6))
        params = GeneratorParams(n, rng.uniform(-np.pi, np.pi, (depth + 1, n)))
        got = run_generator_circuit(params)
        want = _dense_unitary(params) @ np.eye(2**n)[0]
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _verdict("circuit-oracle-equivalence",
             worst < 1e-10 and elapsed < 5.0,
             f"max amplitude deviation {worst:.2e} over 100 random circuits "
             f"(tolerance 1e-10), {elapsed:.1f}s (< 5s)")


# --------------------------------------------------------------------------
# Criterion: distribution loading reaches TV < 0.05
# --------------------------------------------------------------------------

def test_distribution_loading(loading_runs):
    runs, elapsed = loading_runs
    tvs = [float(0.5 * np.abs(qgan.generator_output(t.state.params) - LOADING_TARGET).sum())
           for t in runs]
    median_tv = float(np.median(tvs))
    _verdict("distribution-loading",
             median_tv < 0.05 and elapsed < 120.0,
             f"median TV over {len(SEEDS)} seeds = {median_tv:.4f} (< 0.05), "
             f"per-seed {[round(v, 3) for v in tvs]}, {elapsed:.0f}s (< 120s)")


# --------------------------------------------------------------------------
# Criterion: adversarial losses settle near the theoretical equilibrium
# --------------------------------------------------------------------------

def test_equilibrium_losses(loading_runs):
    runs, _ = loading_runs
    final_g = float(np.median([t.loss_g[-1] for t in runs]))
    final_d = float(np.median([t.loss_d[-1] for t in runs]))
    ok = (abs(final_g - LOG2) <= 0.3) and (abs(final_d - 2 * LOG2) <= 0.6)
    _verdict("equilibrium-losses", ok,
             f"median final L_G = {final_g:.3f} (log 2 = {LOG2:.3f} +- 0.3), "
             f"L_D = {final_d:.3f} (2 log 2 = {2 * LOG2:.3f} +- 0.6)")


def test_cross_entropy_decreases(loading_runs):
    runs, _ = loading_runs
    drops = []
    for t in runs:
        ce = t.cross_entropy
        head = float(np.mean(ce[:len(ce) // 10]))
        tail = float(np.mean(ce[-len(ce) // 10:]))
        drops.append(head - tail)
    ok = all(d > 0 for d in drops)
    _verdict("cross-entropy-decreases", ok,
             f"first-decile minus last-decile cross-entropy per seed: "
             f"{[round(d, 3) for d in drops]} (all > 0)")


# --------------------------------------------------------------------------
# Criterion: deeper circuits converge at least as well
# --------------------------------------------------------------------------

def test_depth_trend():
    start = time.perf_counter()
    medians = {}
    for depth in (2, 8):
        finals = []
        for seed in SEEDS:
            cfg = qgan.TrainConfig(depth=depth, seed=seed, **DEPTH_CONFIG)
            trace = qgan.train([DEPTH_TARGET[None, :]], cfg)[0]
            finals.append(trace.cross_entropy[-1])
        medians[depth] = float(np.median(finals))
    elapsed = time.perf_counter() - start
    _verdict("depth-trend",
             medians[8] <= medians[2] and elapsed < 600.0,
             f"median final cross-entropy depth 8 = {medians[8]:.4f} <= "
             f"depth 2 = {medians[2]:.4f}, {elapsed:.0f}s (< 600s)")


# --------------------------------------------------------------------------
# Criterion: end-to-end synthetic detection
# --------------------------------------------------------------------------

def test_end_to_end_detection(pipeline_runs):
    outs, elapsed = pipeline_runs
    summary = read_summary(outs[0] / "detect_summary.txt")
    acc = float(summary["accuracy"])
    train_abnormal = int(summary["train_abnormal_verdicts"])
    per_run = elapsed / 2
    _verdict("end-to-end-detection",
             acc >= 0.95 and train_abnormal == 0 and per_run < 600.0,
             f"accuracy {acc:.4f} (>= 0.95), {train_abnormal} abnormal "
             f"verdicts on the training window (= 0), {per_run:.0f}s/run (< 600s)")


# --------------------------------------------------------------------------
# Criterion: threshold law
# --------------------------------------------------------------------------

def test_threshold_law(pipeline_runs):
    outs, _ = pipeline_runs
    summary = read_summary(outs[0] / "detect_summary.txt")
    user = summary["users"].split()[0]
    th_d = float(summary[f"th_d.{user}"])
    th_f = float(summary[f"th_f.{user}"])
    train_scores = read_score_csv(outs[0] / "scores_train.csv")
    over = sum(1 for rec in train_scores if rec["d"] > rec["th_d"])
    law_ok = (th_f == 2.0 * th_d) and over == 0

    rng = np.random.default_rng(1003)
    for _ in range(200):
        scores = rng.uniform(0, 5, size=rng.integers(1, 50))
        th = bde.fit_thresholds(scores)
        law_ok = law_ok and th.th_f == 2.0 * th.th_d and np.max(scores) <= th.th_d
    _verdict("threshold-law", law_ok,
             f"th_f = 2*th_d exactly ({th_f} = 2*{th_d}); {over} training "
             f"points above th_d; 200 randomized fits obey both laws")


# --------------------------------------------------------------------------
# Criterion: scoring identities
# --------------------------------------------------------------------------

def test_scoring_identities():
    rng = np.random.default_rng(1004)
    net = bde.BdeNet.create(rng)
    ok = True
    for _ in range(1000):
        x = rng.dirichlet(np.ones(16))
        ref = rng.dirichlet(np.ones(16))
        r_d, r_n = bde.recon_errors(x, ref, net)
        ok = ok and bde.behavior_score(r_d, r_n, 0.0) == r_d
        ok = ok and bde.behavior_score(r_d, r_n, 1.0) == r_n
    for _ in range(100):
        x = rng.dirichlet(np.ones(16))
        ok = ok and bde.recon_errors(x, x, net) == (0.0, 0.0)
    _verdict("scoring-identities", ok,
             "d == R_d at lambda=0 and d == R_n at lambda=1 over 1000 random "
             "cases; (R_d, R_n) == (0, 0) whenever the input equals the reference")


# --------------------------------------------------------------------------
# Criterion: scoring-network correctness
# --------------------------------------------------------------------------

def _loop_forward(net, x):
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

    def pool(a):
        out = np.zeros((a.shape[0], a.shape[1] // 2))
        for c in range(a.shape[0]):
            for t in range(out.shape[1]):
                out[c, t] = max(a[c, 2 * t], a[c, 2 * t + 1])
        return out

    w1, b1, w2, b2, _, _ = net.param_list()
    h = pool(np.maximum(conv(x[None, :], w1, b1), 0.0))
    h = pool(np.maximum(conv(h, w2, b2), 0.0))
    return h.reshape(-1)


def test_bde_network_correctness():
    rng = np.random.default_rng(1005)
    net = bde.BdeNet.create(rng)
    worst_fwd = 0.0
    for _ in range(25):
        x = rng.uniform(0, 1, 16)
        _, emb = bde.bde_forward(net, x)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(emb - _loop_forward(net, x)))))

    x = rng.uniform(0, 1, (5, 16))
    y = (rng.random(5) > 0.5).astype(float)
    _, grads = bde.bce_loss_and_grads(net, x, y)
    h = 1e-5
    worst_rel = 0.0
    for arr, got in zip(net.param_list(), grads):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up, _ = bde.bce_loss_and_grads(net, x, y)
            arr[idx] = keep - h
            down, _ = bde.bce_loss_and_grads(net, x, y)
            arr[idx] = keep
            fd = (up - down) / (2 * h)
            worst_rel = max(worst_rel,
                            abs(got[idx] - fd) / max(abs(fd), 1e-8))
    _verdict("scoring-network-correctness",
             worst_fwd < 1e-10 and worst_rel < 1e-5,
             f"forward vs nested loops: {worst_fwd:.2e} (< 1e-10); "
             f"conv+dense gradients vs finite differences: {worst_rel:.2e} "
             f"relative (< 1e-5)")


# --------------------------------------------------------------------------
# Criterion: byte-identical reruns
# --------------------------------------------------------------------------

def test_pipeline_determinism(pipeline_runs):
    outs, _ = pipeline_runs
    files = ["loss_U0000.csv", "scores.csv", "scores_train.csv",
             "detect_summary.txt", "features_train.csv", "features_test.csv"]
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in files)
    _verdict("pipeline-determinism", same,
             f"two identically seeded full runs produced byte-identical "
             f"{', '.join(files)}")
