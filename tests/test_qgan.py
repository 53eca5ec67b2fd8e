"""Losses, gradients (vs. finite differences) and the adversarial loop,
and the fused training step against the frozen per-call step."""

import copy
import math

import numpy as np
import pytest

from qbde import qgan, qsim
from qbde.bde import N_PARAMS, BdeNet
from qbde.checkpoint import (Rows, Section, _get_adam, _put_adam, load_checkpoint,
                             save_checkpoint)
from qbde.optim import BETA1, BETA2, EPS, Adam
from qbde.qgan import (
    LEAK,
    SIGMOID_CLAMP,
    DiscriminatorNet,
    _adversarial_grads,
    _backward,
    _forward,
    _input_grad,
    _losses,
    _Pass,
    _sigmoid,
    TrainConfig,
    TrainState,
    TrainTrace,
    cross_entropy_to_target,
    disc_grads,
    gen_grads,
    generator_output,
    init_train_state,
    loss_d,
    loss_g,
    train,
)
from qbde.qsim import GeneratorParams, probabilities, run_generator_circuit

LOG2 = math.log(2.0)


def small_net(rng, n_in=8, hidden=(6, 5), scale=1.0):
    net = DiscriminatorNet.create(n_in, hidden, rng)
    for w in net.weights:
        w *= scale
    for b in net.biases:
        b[:] = rng.normal(0.0, 0.3, size=b.shape)
    return net


def zero_net(n_in, hidden=(4, 3)):
    net = DiscriminatorNet.create(n_in, hidden, np.random.default_rng(0))
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


def random_params(rng, n, depth):
    return GeneratorParams(n, rng.uniform(-np.pi, np.pi, size=(depth + 1, n)))


# --------------------------------------------------------------------------
# Forward pass and losses
# --------------------------------------------------------------------------

def test_zero_net_outputs_half():
    p = _Pass(zero_net(8), 2)
    p.x[0] = 0.0
    p.x[1] = np.random.default_rng(1).normal(size=8)
    assert _forward(p).tolist() == [0.5, 0.5]


def test_forward_is_clamped():
    # sigmoid(100) rounds to 1 and sigmoid(-100) is ~4e-44; the logs see
    # 1 - 1e-7 and 1e-7
    net = zero_net(4)
    x = np.zeros((1, 4))
    net.biases[-1][0] = 100.0
    top = 1.0 - 1e-7
    assert loss_g(net, x) == pytest.approx(-math.log(top), rel=1e-12)
    assert loss_d(net, x, x) == pytest.approx(-math.log(top) - math.log(1.0 - top),
                                              rel=1e-12)
    net.biases[-1][0] = -100.0
    assert loss_g(net, x) == pytest.approx(-math.log(1e-7), rel=1e-12)


def test_forward_rejects_wrong_length():
    net, x = zero_net(8), np.zeros((1, 5))
    with pytest.raises(ValueError):
        loss_g(net, x)
    for call in (loss_d, disc_grads):
        with pytest.raises(ValueError):
            call(net, x, x)


@pytest.mark.parametrize("n_real, n_gen", [(0, 0), (2, 3)], ids=["empty", "unpaired"])
def test_per_call_functions_reject_empty_or_unpaired_batches(n_real, n_gen):
    # one shared check: disc_grads raises where loss_d does
    net = zero_net(4)
    real, fake = np.full((n_real, 4), 0.25), np.full((n_gen, 4), 0.25)
    for call in (loss_d, disc_grads):
        with pytest.raises(ValueError, match="batch"):
            call(net, real, fake)
    if n_real == n_gen:
        with pytest.raises(ValueError, match="non-empty"):
            loss_g(net, fake)


def masked_sigmoid(z):
    """The two-branch form: exp of -z where z >= 0, of z elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_masked_form():
    rng = np.random.default_rng(0)
    sigmas = np.geomspace(1e-3, 800.0, 50)
    z = np.concatenate([rng.normal(0.0, s, 1000) for s in sigmas] + [np.array(
        [0.0, -0.0, 710.0, -710.0, 745.5, -745.5, 1e308, -1e308,
         np.inf, -np.inf, np.nan])])
    with np.errstate(all="ignore"):
        want = masked_sigmoid(z)
    got = _sigmoid(z)
    assert got.shape == z.shape == (50_011,)
    assert np.array_equal(got, want, equal_nan=True)


def test_loss_g_constant_half():
    net = zero_net(16)
    batch = np.full((3, 16), 1 / 16)
    assert loss_g(net, batch) == pytest.approx(LOG2, abs=1e-12)


def test_loss_g_confident_discriminator_is_near_zero():
    net = zero_net(4)
    net.biases[-1][0] = 100.0
    assert loss_g(net, np.full((2, 4), 0.25)) == pytest.approx(0.0, abs=1e-6)


def test_loss_g_two_sample_arithmetic():
    # D outputs {0.5, 0.25} -> -(log .5 + log .25)/2
    net = zero_net(2, hidden=(2, 2))
    # one input hits bias 0, the other drives the output through the net
    net.weights[0][:] = np.array([[1.0, 0.0], [0.0, 0.0]])
    net.weights[1][:] = np.array([[1.0, 0.0], [0.0, 0.0]])
    net.weights[2][:] = np.array([[1.0, 0.0]])
    x0 = np.zeros(2)                                  # z = 0 -> 0.5
    z = math.log(3.0)                                 # sigmoid(-log 3) = 0.25
    x1 = np.array([-z / (0.01 * 0.01), 0.0])          # two leaky layers
    got = loss_g(net, np.stack([x0, x1]))
    want = -(math.log(0.5) + math.log(0.25)) / 2
    assert got == pytest.approx(want, abs=1e-9)


def test_loss_d_constant_half():
    net = zero_net(8)
    real = np.random.default_rng(0).dirichlet(np.ones(8), size=4)
    fake = np.random.default_rng(1).dirichlet(np.ones(8), size=4)
    assert loss_d(net, real, fake) == pytest.approx(2 * LOG2, abs=1e-12)


def test_loss_d_perfect_discriminator_is_near_zero():
    net = zero_net(2, hidden=(2, 2))
    net.weights[0][:] = np.array([[1000.0, -1000.0], [0.0, 0.0]])
    net.weights[1][:] = np.array([[1000.0, 0.0], [0.0, 0.0]])
    net.weights[2][:] = np.array([[1000.0, 0.0]])
    real = np.array([[1.0, 0.0]])
    fake = np.array([[0.0, 1.0]])
    assert loss_d(net, real, fake) == pytest.approx(0.0, abs=1e-3)


def test_loss_d_single_pair_arithmetic():
    # D(x) = 0.8 and D(g) = 0.3 -> loss_d = -(log 0.8 + log 0.7).
    # Steer the outputs through the first input coordinate: two leaky
    # layers scale it by 0.01 * 0.01 before the sigmoid.
    net = zero_net(2, hidden=(2, 2))
    net.weights[0][:] = np.array([[1.0, 0.0], [0.0, 0.0]])
    net.weights[1][:] = np.array([[1.0, 0.0], [0.0, 0.0]])
    net.weights[2][:] = np.array([[1.0, 0.0]])
    x = np.array([[math.log(0.8 / 0.2) / 1.0, 0.0]])        # positive path
    g = np.array([[math.log(0.3 / 0.7) / (0.01 * 0.01), 0.0]])
    got = loss_d(net, x, g)
    assert got == pytest.approx(-(math.log(0.8) + math.log(0.7)), abs=1e-9)


def test_loss_d_batch_mismatch():
    net = zero_net(4)
    with pytest.raises(ValueError):
        loss_d(net, np.ones((2, 4)) / 4, np.ones((3, 4)) / 4)


def test_loss_bounds():
    rng = np.random.default_rng(2)
    net = small_net(rng, n_in=8, scale=30.0)
    real = rng.dirichlet(np.ones(8), size=16)
    fake = rng.dirichlet(np.ones(8), size=16)
    ld = loss_d(net, real, fake)
    lg = loss_g(net, fake)
    assert 0.0 <= ld <= 2 * math.log(1 / 1e-7) + 1e-9
    assert 0.0 <= lg <= math.log(1 / 1e-7) + 1e-9


# --------------------------------------------------------------------------
# Gradients vs. finite differences
# --------------------------------------------------------------------------

def fd_disc_grads(net, real, fake, h=1e-6):
    dws, dbs = [], []
    for arr_list, out in ((net.weights, dws), (net.biases, dbs)):
        for arr in arr_list:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = loss_d(net, real, fake)
                arr[idx] = keep - h
                down = loss_d(net, real, fake)
                arr[idx] = keep
                g[idx] = (up - down) / (2 * h)
            out.append(g)
    return dws, dbs


def test_disc_grads_match_finite_differences():
    rng = np.random.default_rng(4)
    net = small_net(rng, n_in=4, hidden=(5, 4))
    real = rng.dirichlet(np.ones(4), size=3)
    fake = rng.dirichlet(np.ones(4), size=3)
    dw, db = disc_grads(net, real, fake)
    fdw, fdb = fd_disc_grads(net, real, fake)
    for a, b in zip(dw + db, fdw + fdb):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)


def test_disc_grads_zero_net_output_bias_is_zero():
    net = zero_net(4)
    batch = np.ones((4, 4)) / 4
    dw, db = disc_grads(net, batch, batch)
    # (sigma(0) - 1) + sigma(0) = 0 on the output bias
    np.testing.assert_allclose(db[-1], [0.0], atol=1e-15)


def test_disc_grads_duplicate_rows_match_mean():
    rng = np.random.default_rng(6)
    net = small_net(rng, n_in=4)
    x = rng.dirichlet(np.ones(4))
    g = rng.dirichlet(np.ones(4))
    one = disc_grads(net, x[None, :], g[None, :])
    four = disc_grads(net, np.tile(x, (4, 1)), np.tile(g, (4, 1)))
    for a, b in zip(one[0] + one[1], four[0] + four[1]):
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("m", [1, 3, 16])
def test_adversarial_grads_match_tiled_batch(m):
    # One forward over the generated row stands for m identical rows.
    rng = np.random.default_rng(20 + m)
    for _ in range(5):
        net = small_net(rng, n_in=16, hidden=(12, 7))
        real = rng.dirichlet(np.ones(16), size=m)
        g = rng.dirichlet(np.ones(16))
        fake = np.tile(g, (m, 1))
        p = _Pass(net, m + 1, m)
        p.x[:m] = real
        p.x[m] = g
        real_log, y_gen = np.empty(()), np.empty(())
        _adversarial_grads(p, real_log, y_gen)
        ld, lg = _losses(real_log, y_gen, m)
        dw, db = net.split(p.grad)
        assert abs(ld - loss_d(net, real, fake)) < 1e-12
        assert abs(lg - loss_g(net, fake)) < 1e-12
        ref_dw, ref_db = disc_grads(net, real, fake)
        for a, b in zip(dw + db, ref_dw + ref_db):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_input_grad_equals_dx_of_full_backward():
    rng = np.random.default_rng(21)
    for rows, hidden in [(1, (6, 5)), (4, (12, 7)), (17, (64, 32)), (3, (9,)),
                         (2, ())]:
        net = small_net(rng, n_in=16, hidden=hidden)
        x = rng.dirichlet(np.ones(16), size=rows)
        dz = rng.normal(size=rows)
        p = _Pass(net, rows)
        p.x[...] = x
        _forward(p)
        p.dz_out[...] = dz
        _, cache = oracle_forward(net, x)
        want_grad, want_dx = oracle_backward(net, cache, dz)
        assert _backward(p).tobytes() == want_grad.tobytes()
        assert _input_grad(p).tobytes() == want_dx.tobytes()
        assert oracle_input_grad(net, cache, dz).tobytes() == want_dx.tobytes()


def test_gen_grads_match_finite_differences():
    rng = np.random.default_rng(8)
    h = 1e-5
    for n, depth in [(2, 2), (3, 2), (3, 4)]:
        params = random_params(rng, n, depth)
        net = small_net(rng, n_in=2**n, hidden=(10, 6))
        grad = gen_grads(params, net)
        fd = np.zeros_like(grad)
        for layer, qubit in np.ndindex(params.angles.shape):
            up = params.angles.copy()
            up[layer, qubit] += h
            down = params.angles.copy()
            down[layer, qubit] -= h
            p_up = generator_output(GeneratorParams(n, up))
            p_down = generator_output(GeneratorParams(n, down))
            fd[layer, qubit] = (loss_g(net, p_up[None, :])
                                - loss_g(net, p_down[None, :])) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-5)


def test_gen_grads_vanish_for_constant_discriminator():
    params = random_params(np.random.default_rng(10), 3, 2)
    np.testing.assert_allclose(gen_grads(params, zero_net(8)),
                               np.zeros_like(params.angles), atol=1e-12)


def test_gen_grads_zero_when_output_weights_are_zero():
    rng = np.random.default_rng(12)
    net = small_net(rng, n_in=8)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    params = random_params(rng, 3, 2)
    np.testing.assert_allclose(gen_grads(params, net),
                               np.zeros_like(params.angles), atol=1e-12)


# --------------------------------------------------------------------------
# Frozen oracle: the per-call training step that the fused loop replaced,
# copied as it was, so drift in a helper the two share cannot hide
# --------------------------------------------------------------------------

def oracle_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def oracle_forward(net, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pre, post = [], [x]
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a.dot(w.T) + b
        a = np.where(z > 0, z, LEAK * z)
        pre.append(z)
        post.append(a)
    z_out = (a.dot(net.weights[-1].T) + net.biases[-1]).ravel()
    y_raw = oracle_sigmoid(z_out)
    y = np.clip(y_raw, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    return y, {"pre": pre, "post": post, "y_raw": y_raw}


def oracle_backward(net, cache, dz_out):
    pre, post = cache["pre"], cache["post"]
    grad = np.empty_like(net.flat)
    dw, db = net.split(grad)
    dz = dz_out[:, None]
    for i in range(len(net.weights) - 1, -1, -1):
        np.dot(dz.T, post[i], out=dw[i])
        dz.sum(axis=0, out=db[i])
        da = dz.dot(net.weights[i])
        if i:
            dz = da * np.where(pre[i - 1] > 0, 1.0, LEAK)
    return grad, da


def oracle_input_grad(net, cache, dz_out):
    da = dz_out[:, None].dot(net.weights[-1])
    for i in range(len(net.weights) - 2, -1, -1):
        da = (da * np.where(cache["pre"][i] > 0, 1.0, LEAK)).dot(net.weights[i])
    return da


def oracle_adversarial_grads(net, real, generated):
    m = real.shape[0]
    y, cache = oracle_forward(net, np.vstack([real, generated]))
    ld = float(-np.mean(np.log(y[:m])) - np.log(1.0 - y[m]))
    lg = float(-np.log(y[m]))
    y_raw = cache["y_raw"]
    grad, _ = oracle_backward(net, cache, np.append((y_raw[:m] - 1.0) / m, y_raw[m]))
    return ld, lg, grad


def oracle_adjoint_gradient(params, amplitudes, dp):
    n, depth = params.n_qubits, params.depth
    mats = qsim._layers(params.angles)
    pairs = np.empty((depth + 1, 2, 2**n))
    pairs[depth] = amplitudes, np.asarray(dp, dtype=float) * amplitudes
    for layer in range(depth, 0, -1):
        pairs[layer - 1] = pairs[layer].dot(mats[layer].T)
    idx = np.arange(2**n)
    bits = 1 << np.arange(n - 1, -1, -1)[:, None]
    flip, flip_sign = idx ^ bits, np.where(idx & bits, 1.0, -1.0)
    return ((flip_sign * pairs[:, 0, flip]) @ pairs[:, 1, :, None])[..., 0]


def oracle_gen_grads(params, net, amplitudes):
    _, cache = oracle_forward(net, probabilities(amplitudes))
    dx = oracle_input_grad(net, cache, cache["y_raw"] - 1.0)
    return oracle_adjoint_gradient(params, amplitudes, dx[0])


class OracleAdam:
    """The allocating Adam step, on a copy of an optimiser's state."""

    def __init__(self, opt):
        self.lr, self.t, self.m, self.v = opt.lr, opt.t, opt.m.copy(), opt.v.copy()

    def step(self, param, grad):
        self.t += 1
        corr1 = 1.0 - BETA1**self.t
        corr2 = 1.0 - BETA2**self.t
        self.m *= BETA1
        self.m += (1.0 - BETA1) * grad
        self.v *= BETA2
        self.v += (1.0 - BETA2) * grad * grad
        param -= self.lr * (self.m / corr1) / (np.sqrt(self.v / corr2) + EPS)


def real_rows(batch):
    """What the discriminator sees of a batch as its real rows: all of them."""
    return batch


def oracle_train(data, cfg, state, real=real_rows):
    """The per-call training loop, run on a copy of ``state``; the
    discriminator sees ``real(batch)`` as each batch's real rows."""
    state = TrainState(GeneratorParams(state.params.n_qubits, state.params.angles.copy()),
                       DiscriminatorNet(state.net.layer_sizes, state.net.flat.copy()),
                       OracleAdam(state.opt_g), OracleAdam(state.opt_d),
                       copy.deepcopy(state.rng), state.epoch)
    target = data.mean(axis=0)
    n_rows = data.shape[0]
    iters = math.ceil(n_rows / cfg.batch)
    trace = TrainTrace(state=state)
    for _ in range(cfg.epochs):
        order = state.rng.permutation(n_rows)
        lg_sum = 0.0
        ld_sum = 0.0
        for start in range(0, n_rows, cfg.batch):
            batch = data[order[start:start + cfg.batch]]
            amplitudes = run_generator_circuit(state.params)
            ld, lg, grad_d = oracle_adversarial_grads(state.net, real(batch),
                                                      probabilities(amplitudes))
            ld_sum += ld
            lg_sum += lg
            state.opt_d.step(state.net.flat, grad_d)
            grad = oracle_gen_grads(state.params, state.net, amplitudes)
            state.opt_g.step(state.params.angles, grad)
        state.epoch += 1
        trace.loss_g.append(lg_sum / iters)
        trace.loss_d.append(ld_sum / iters)
        generated = probabilities(run_generator_circuit(state.params))
        trace.cross_entropy.append(
            float(-np.sum(target * np.log(np.maximum(generated, 1e-12)))))
    return trace


def assert_same_training(got: TrainTrace, want: TrainTrace):
    for column in ("loss_g", "loss_d", "cross_entropy"):
        assert (np.array(getattr(got, column)).tobytes()
                == np.array(getattr(want, column)).tobytes()), column
    g, w = got.state, want.state
    for name, a, b in [("angles", g.params.angles, w.params.angles),
                       ("net.flat", g.net.flat, w.net.flat),
                       ("opt_g.m", g.opt_g.m, w.opt_g.m), ("opt_g.v", g.opt_g.v, w.opt_g.v),
                       ("opt_d.m", g.opt_d.m, w.opt_d.m), ("opt_d.v", g.opt_d.v, w.opt_d.v)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (g.opt_g.t, g.opt_d.t, g.epoch) == (w.opt_g.t, w.opt_d.t, w.epoch)
    assert g.rng.bit_generator.state == w.rng.bit_generator.state


@pytest.mark.parametrize("rows, n_qubits, kwargs", [
    (13, 4, dict(batch=5, epochs=4, depth=3, hidden=(12, 7))),
    (6, 2, dict(batch=1, epochs=3, depth=2, hidden=(5,))),
    (7, 4, dict(batch=16, epochs=5, depth=8)),
    (9, 4, dict(batch=4, epochs=6, depth=1, hidden=())),
    (8, 1, dict(batch=3, epochs=6, depth=8, hidden=(4,))),
    (20, 4, dict(batch=6, epochs=3, depth=8, hidden=(12, 7))),
], ids=["partial-last-batch", "batch-1", "batch-over-rows", "no-hidden",
        "one-qubit", "depth-8"])
def test_train_matches_frozen_per_call_step(rows, n_qubits, kwargs):
    data = np.random.default_rng(rows + n_qubits).dirichlet(np.ones(2**n_qubits),
                                                            size=rows)
    cfg = TrainConfig(seed=rows, **kwargs)
    want = oracle_train(data, cfg, init_train_state(n_qubits, cfg))
    assert_same_training(train([data], cfg)[0], want)


def test_train_split_by_a_checkpoint_matches_frozen_step(tmp_path):
    data = np.random.default_rng(25).dirichlet(np.ones(16), size=13)
    cfg = TrainConfig(batch=5, epochs=3, depth=3, seed=9, hidden=(12, 7))
    want = oracle_train(data, TrainConfig(**{**vars(cfg), "epochs": 6}),
                        init_train_state(4, cfg))
    first = train([data], cfg)[0]
    save_checkpoint(tmp_path / "part.ckpt", cfg, first.state, Rows.of(data))
    _, state = load_checkpoint(tmp_path / "part.ckpt", cfg, Rows.of(data))
    second = train([data], cfg, [state])[0]
    second.loss_g[:0] = first.loss_g
    second.loss_d[:0] = first.loss_d
    second.cross_entropy[:0] = first.cross_entropy
    assert_same_training(second, want)


def _spy_on_stacks(monkeypatch):
    """How many users each stack ``train`` forms holds, from now on."""
    sizes = []
    train_stack = qgan._train_stack

    def spy(datasets, traces, cfg):
        sizes.append(len(datasets))
        return train_stack(datasets, traces, cfg)

    monkeypatch.setattr(qgan, "_train_stack", spy)
    return sizes


@pytest.mark.parametrize("rows, n_qubits, kwargs", [
    ([13, 11, 15, 12, 14], 4, dict(batch=5, epochs=3, depth=3, hidden=(12, 7))),
    ([17, 32, 20, 31, 24], 4, dict(batch=16, epochs=2, depth=8)),
    ([6, 6, 6], 2, dict(batch=1, epochs=3, depth=2, hidden=(5,))),
    ([9, 10, 12, 11], 4, dict(batch=4, epochs=3, depth=1, hidden=())),
    ([8, 7, 9], 1, dict(batch=3, epochs=4, depth=8, hidden=(4,))),
    ([13, 17, 18], 4, dict(batch=6, epochs=2, depth=2, hidden=(4, 1))),
    ([7, 16, 3], 4, dict(batch=16, epochs=5, depth=8)),
], ids=["last-batches-3-1-5-2-4", "last-batches-1-16-4-15-8", "batch-1",
        "no-hidden", "one-qubit", "one-wide-hidden", "one-batch"])
def test_each_user_of_a_stack_matches_the_frozen_step_alone(
        monkeypatch, rows, n_qubits, kwargs):
    # users whose epochs hold equally many batches train as one stack; a
    # user whose last batch is shorter than the stack's gets zero rows
    rng = np.random.default_rng(sum(rows))
    datasets = [rng.dirichlet(np.ones(2**n_qubits), size=n) for n in rows]
    cfg = TrainConfig(seed=len(rows), **kwargs)
    sizes = _spy_on_stacks(monkeypatch)
    traces = train(datasets, cfg)
    assert sizes == [len(rows)]
    for data, trace in zip(datasets, traces, strict=True):
        assert_same_training(trace, oracle_train(data, cfg, init_train_state(n_qubits, cfg)))


def test_a_stack_holds_at_most_stack_users(monkeypatch):
    rng = np.random.default_rng(28)
    datasets = [rng.dirichlet(np.ones(4), size=n) for n in rng.integers(5, 9, 35)]
    cfg = TrainConfig(batch=4, epochs=2, depth=1, seed=3, hidden=(3,))
    sizes = _spy_on_stacks(monkeypatch)
    traces = train(datasets, cfg)
    assert sizes == [qgan.STACK_USERS, 35 - qgan.STACK_USERS]
    for data, trace in zip(datasets, traces, strict=True):
        assert_same_training(trace, oracle_train(data, cfg, init_train_state(2, cfg)))


def test_users_resumed_at_different_epochs_train_as_separate_stacks(monkeypatch):
    rng = np.random.default_rng(27)
    datasets = [rng.dirichlet(np.ones(16), size=n) for n in (13, 12, 14, 11, 9)]
    cfg = TrainConfig(batch=5, epochs=2, depth=3, seed=8, hidden=(12, 7))
    states = [train([data], TrainConfig(**{**vars(cfg), "epochs": epochs}))[0].state
              for data, epochs in zip(datasets, (1, 3, 1, 3, 3))]
    wants = [oracle_train(data, cfg, state) for data, state in zip(datasets, states)]
    sizes = _spy_on_stacks(monkeypatch)
    traces = train(datasets, cfg, states)
    # the last user's epochs hold two batches, the others' three
    assert sorted(sizes) == [1, 2, 2]
    for trace, state, want in zip(traces, states, wants, strict=True):
        assert trace.state is state   # resumed in place
        assert_same_training(trace, want)


def _checkpointed_adam(rng, param):
    # an optimiser part way through, written out and read back
    opt = Adam(0.01, param)
    for _ in range(3):
        opt.step(param.copy(), rng.normal(size=param.shape))
    sec = Section("test: ")
    # as read_kv gives them: an array's raw bytes as a memoryview
    sec.update({key: memoryview(value) if isinstance(value, bytes) else str(value)
                for key, value in _put_adam(opt).items()})
    return _get_adam(sec, 0.01, param)


@pytest.mark.parametrize("kind", ["2d", "view", "checkpointed"])
def test_buffered_adam_matches_allocating_step(kind):
    rng = np.random.default_rng(26)
    if kind == "2d":
        param = rng.normal(size=(9, 4))
        opt = Adam(0.05, param)
    elif kind == "view":
        net = BdeNet.create(rng)
        param = net.flat[:N_PARAMS]   # as train_bde steps it
        opt = Adam(0.01, param)
    else:
        param = rng.normal(size=40)
        opt = _checkpointed_adam(rng, param)
    ref, ref_param = OracleAdam(opt), param.copy()
    for _ in range(6):
        grad = rng.normal(size=param.shape) * rng.choice([1e-3, 1.0, 1e3])
        kept = grad.copy()
        opt.step(param, grad)
        ref.step(ref_param, grad)
        assert grad.tobytes() == kept.tobytes()
        for got, want in ((opt.m, ref.m), (opt.v, ref.v), (param, ref_param)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert opt.t == ref.t
    if kind == "view":
        assert np.shares_memory(param, net.flat) and net.flat[-1] == 0.0


# --------------------------------------------------------------------------
# Cross-entropy
# --------------------------------------------------------------------------

def test_cross_entropy_uniform():
    u = np.full(16, 1 / 16)
    assert cross_entropy_to_target(u, u) == pytest.approx(math.log(16), abs=1e-12)


def test_cross_entropy_matched_point_mass_is_zero():
    p = np.zeros(8)
    p[0] = 1.0
    assert cross_entropy_to_target(p, p) == 0.0


def test_cross_entropy_clamps_zeros():
    gen = np.zeros(4)
    gen[0] = 1.0
    target = np.full(4, 0.25)
    got = cross_entropy_to_target(gen, target)
    assert np.isfinite(got)
    assert got == pytest.approx(-0.75 * math.log(1e-12), abs=1e-6)


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------

def test_train_rejects_empty_or_off_simplex_data():
    cfg = TrainConfig(epochs=1, depth=1)
    with pytest.raises(ValueError):
        train([np.empty((0, 4))], cfg)
    with pytest.raises(ValueError):
        train([np.array([[0.5, 0.2, 0.2, 0.2]])], cfg)


def test_train_zero_epochs_returns_initial_state():
    cfg = TrainConfig(epochs=0, depth=2, seed=5)
    trace = train([np.full((3, 4), 0.25)], cfg)[0]
    assert trace.loss_g == [] and trace.loss_d == []
    assert trace.state.epoch == 0
    np.testing.assert_array_equal(trace.state.params.angles[0], [np.pi / 2, np.pi / 2])


def test_train_is_seed_deterministic():
    rng = np.random.default_rng(3)
    data = rng.dirichlet(np.ones(4), size=12)
    cfg = TrainConfig(batch=4, epochs=5, depth=2, seed=7)
    t1 = train([data], cfg)[0]
    t2 = train([data], cfg)[0]
    assert t1.loss_g == t2.loss_g
    assert t1.loss_d == t2.loss_d
    assert t1.cross_entropy == t2.cross_entropy
    np.testing.assert_array_equal(t1.state.params.angles, t2.state.params.angles)


def test_train_trace_length_and_simplex_outputs():
    data = np.random.default_rng(1).dirichlet(np.ones(4), size=6)
    cfg = TrainConfig(batch=3, epochs=4, depth=2, seed=1)
    trace = train([data], cfg)[0]
    assert len(trace.loss_g) == len(trace.loss_d) == len(trace.cross_entropy) == 4
    p = generator_output(trace.state.params)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_train_steps_one_flat_discriminator_vector_like_per_array_adam():
    rng = np.random.default_rng(22)
    data = rng.dirichlet(np.ones(16), size=13)
    cfg = TrainConfig(batch=5, epochs=4, depth=3, seed=6, hidden=(12, 7))
    trace = train([data], cfg)[0]
    ref = init_train_state(4, cfg)
    arrays = [*ref.net.weights, *ref.net.biases]
    opts_d = [Adam(cfg.lr_d, arr) for arr in arrays]
    for _ in range(cfg.epochs):
        order = ref.rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch):
            amplitudes = run_generator_circuit(ref.params)
            real = real_rows(data[order[start:start + cfg.batch]])
            p = _Pass(ref.net, len(real) + 1, len(real))
            p.x[:-1] = real
            p.x[-1] = probabilities(amplitudes)
            _adversarial_grads(p, np.empty(()), np.empty(()))
            dw, db = ref.net.split(p.grad)
            for opt, arr, g in zip(opts_d, arrays, [*dw, *db]):
                opt.step(arr, g)  # one array at a time
            ref.opt_g.step(ref.params.angles,
                           gen_grads(ref.params, ref.net, amplitudes))
    np.testing.assert_array_equal(trace.state.params.angles, ref.params.angles)
    np.testing.assert_array_equal(trace.state.net.flat, ref.net.flat)
    np.testing.assert_array_equal(trace.state.opt_d.m,
                                  np.concatenate([o.m.ravel() for o in opts_d]))
    np.testing.assert_array_equal(trace.state.opt_d.v,
                                  np.concatenate([o.v.ravel() for o in opts_d]))


def test_net_arrays_are_views_of_the_flat_vector():
    net = small_net(np.random.default_rng(23), n_in=8)
    net.flat[:] = np.arange(net.flat.size)
    np.testing.assert_array_equal(
        np.concatenate([a.ravel() for a in [*net.weights, *net.biases]]),
        net.flat)
    net.weights[1][0, 0] = -1.0
    assert -1.0 in net.flat


def test_net_is_built_from_its_layer_sizes_and_one_vector():
    rng = np.random.default_rng(24)
    net = DiscriminatorNet.create(8, (6, 5), rng)
    # He weights layer by layer, as one draw per weight matrix makes them
    rng = np.random.default_rng(24)
    want = [rng.normal(0.0, math.sqrt(2.0 / n_in), size=(n_out, n_in))
            for n_in, n_out in ((8, 6), (6, 5), (5, 1))]
    assert net.layer_sizes == [8, 6, 5, 1]
    assert net.flat.size == DiscriminatorNet.n_params([8, 6, 5, 1]) == 54 + 35 + 6
    for got, w in zip(net.weights, want, strict=True):
        assert got.tobytes() == w.tobytes()
    assert not np.concatenate(net.biases).any()
    flat = net.flat.copy()
    rebuilt = DiscriminatorNet([8, 6, 5, 1], flat)
    assert rebuilt.flat is flat
    for a, b in zip([*rebuilt.weights, *rebuilt.biases],
                    [*net.weights, *net.biases], strict=True):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        DiscriminatorNet([8, 6, 5, 1], flat[:-1])
    with pytest.raises(ValueError):
        DiscriminatorNet([8, 6, 2], np.zeros(DiscriminatorNet.n_params([8, 6, 2])))
    with pytest.raises(ValueError):
        DiscriminatorNet([8], np.zeros(0))


@pytest.mark.parametrize("lr", [0.0, -0.1, math.inf, math.nan])
def test_learning_rate_must_be_finite_and_positive(lr):
    with pytest.raises(ValueError):
        Adam(lr, np.zeros(3))
    with pytest.raises(ValueError):
        TrainConfig(lr_g=lr)
    with pytest.raises(ValueError):
        TrainConfig(lr_d=lr)


def test_adam_moments_start_at_zero_shaped_like_the_param():
    param = np.ones((3, 2))
    opt = Adam(0.1, param)
    assert opt.t == 0
    assert opt.m.shape == opt.v.shape == (3, 2)
    assert not opt.m.any() and not opt.v.any()
    grad = np.arange(6.0).reshape(3, 2)
    opt.step(param, grad)
    assert opt.m.tobytes() == ((1.0 - 0.9) * grad).tobytes()
    assert opt.v.tobytes() == ((1.0 - 0.999) * grad * grad).tobytes()


def test_train_loads_point_mass_target():
    # Distribution concentrated on basis state 0 is learnable quickly.
    target = np.zeros(4)
    target[0] = 1.0
    cfg = TrainConfig(batch=1, epochs=300, depth=2, seed=0)
    trace = train([target[None, :]], cfg)[0]
    tv = 0.5 * np.abs(generator_output(trace.state.params) - target).sum()
    assert tv < 0.05
