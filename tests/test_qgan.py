"""Losses, gradients (vs. finite differences) and the adversarial loop."""

import math

import numpy as np
import pytest

from qbde.optim import Adam
from qbde.qgan import (
    DiscriminatorNet,
    _backward,
    _forward,
    _input_grad,
    _sigmoid,
    TrainConfig,
    adversarial_grads,
    cross_entropy_to_target,
    disc_forward,
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
    net = zero_net(8)
    assert disc_forward(net, np.zeros(8)) == 0.5
    assert disc_forward(net, np.random.default_rng(1).normal(size=8)) == 0.5


def test_forward_is_clamped():
    net = zero_net(4)
    net.biases[-1][0] = 100.0
    assert disc_forward(net, np.zeros(4)) == 1.0 - 1e-7
    net.biases[-1][0] = -100.0
    assert disc_forward(net, np.zeros(4)) == 1e-7


def test_forward_rejects_wrong_length():
    with pytest.raises(ValueError):
        disc_forward(zero_net(8), np.zeros(5))


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
        ld, lg, grad = adversarial_grads(net, real, g)
        dw, db = net.split(grad)
        assert abs(ld - loss_d(net, real, fake)) < 1e-12
        assert abs(lg - loss_g(net, fake)) < 1e-12
        ref_dw, ref_db = disc_grads(net, real, fake)
        for a, b in zip(dw + db, ref_dw + ref_db):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_adversarial_grads_rejects_empty_batch():
    with pytest.raises(ValueError):
        adversarial_grads(zero_net(4), np.empty((0, 4)), np.full(4, 0.25))


def test_input_grad_equals_dx_of_full_backward():
    rng = np.random.default_rng(21)
    for rows, hidden in [(1, (6, 5)), (4, (12, 7)), (17, (64, 32)), (3, (9,))]:
        net = small_net(rng, n_in=16, hidden=hidden)
        _, cache = _forward(net, rng.dirichlet(np.ones(16), size=rows))
        dz = rng.normal(size=rows)
        grad, dx = _backward(net, cache, dz)
        assert grad.shape == net.flat.shape
        np.testing.assert_array_equal(_input_grad(net, cache, dz), dx)


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
        train(np.empty((0, 4)), cfg)
    with pytest.raises(ValueError):
        train(np.array([[0.5, 0.2, 0.2, 0.2]]), cfg)


def test_train_zero_epochs_returns_initial_state():
    cfg = TrainConfig(epochs=0, depth=2, seed=5)
    trace = train(np.full((3, 4), 0.25), cfg)
    assert trace.loss_g == [] and trace.loss_d == []
    assert trace.state.epoch == 0
    np.testing.assert_array_equal(trace.params.angles[0], [np.pi / 2, np.pi / 2])


def test_train_is_seed_deterministic():
    rng = np.random.default_rng(3)
    data = rng.dirichlet(np.ones(4), size=12)
    cfg = TrainConfig(batch=4, epochs=5, depth=2, seed=7)
    t1 = train(data, cfg)
    t2 = train(data, cfg)
    assert t1.loss_g == t2.loss_g
    assert t1.loss_d == t2.loss_d
    assert t1.cross_entropy == t2.cross_entropy
    np.testing.assert_array_equal(t1.params.angles, t2.params.angles)


def test_train_trace_length_and_simplex_outputs():
    data = np.random.default_rng(1).dirichlet(np.ones(4), size=6)
    cfg = TrainConfig(batch=3, epochs=4, depth=2, seed=1)
    trace = train(data, cfg)
    assert len(trace.loss_g) == len(trace.loss_d) == len(trace.cross_entropy) == 4
    p = generator_output(trace.params)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_train_steps_one_flat_discriminator_vector_like_per_array_adam():
    rng = np.random.default_rng(22)
    data = rng.dirichlet(np.ones(16), size=13)
    cfg = TrainConfig(batch=5, epochs=4, depth=3, seed=6, hidden=(12, 7))
    trace = train(data, cfg)
    ref = init_train_state(4, cfg)
    opts_d = [Adam(cfg.lr_d) for _ in ref.net.param_list()]
    for _ in range(cfg.epochs):
        order = ref.rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch):
            amplitudes = run_generator_circuit(ref.params)
            _, _, grad = adversarial_grads(ref.net, data[order[start:start + cfg.batch]],
                                           probabilities(amplitudes))
            dw, db = ref.net.split(grad)
            for opt, arr, g in zip(opts_d, ref.net.param_list(), [*dw, *db]):
                opt.step(arr, g)  # one array at a time
            ref.opt_g.step(ref.params.angles,
                           gen_grads(ref.params, ref.net, amplitudes))
    np.testing.assert_array_equal(trace.params.angles, ref.params.angles)
    for got, want in zip(trace.net.param_list(), ref.net.param_list()):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(trace.state.opt_d.m,
                                  np.concatenate([o.m.ravel() for o in opts_d]))
    np.testing.assert_array_equal(trace.state.opt_d.v,
                                  np.concatenate([o.v.ravel() for o in opts_d]))


def test_net_arrays_are_views_of_the_flat_vector():
    net = small_net(np.random.default_rng(23), n_in=8)
    net.flat[:] = np.arange(net.flat.size)
    np.testing.assert_array_equal(
        np.concatenate([a.ravel() for a in net.param_list()]), net.flat)
    net.weights[1][0, 0] = -1.0
    assert -1.0 in net.flat


def test_train_loads_point_mass_target():
    # Distribution concentrated on basis state 0 is learnable quickly.
    target = np.zeros(4)
    target[0] = 1.0
    cfg = TrainConfig(batch=1, epochs=300, depth=2, seed=0)
    trace = train(target[None, :], cfg)
    tv = 0.5 * np.abs(generator_output(trace.params) - target).sum()
    assert tv < 0.05
