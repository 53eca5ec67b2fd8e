"""Hybrid GAN: quantum generator, classical discriminator, alternating training.

The generator is the RY/CZ circuit from :mod:`qbde.qsim`; a generated
sample is its exact output probability vector (the circuit has a fixed
input state, so the generator is a distribution, not a per-noise map).
The discriminator is a small fully connected network with leaky-rectifier
hidden layers and a sigmoid output.

Losses, with batch size m and the sigmoid output clamped to
[1e-7, 1 - 1e-7] before logs:

* generator:      L_G = -(1/m) sum_l log D(g_l)          (non-saturating)
* discriminator:  L_D = -(1/m) sum_l [log D(x_l) + log(1 - D(g_l))]

Generator gradients chain the discriminator's input gradient through one
adjoint sweep of the circuit (``qsim.adjoint_gradient``), so the whole
loop is exact and framework free.

``train`` takes every user at once.  Users whose epochs hold equally many
batches, and whose Adam step counts and epochs match, train as one stack
of up to ``STACK_USERS``: the angles, the discriminators' vectors, the
Adam moments and each batch carry a leading user axis, so a batch step
runs once for all of them, and each user's arithmetic is the one it has
trained alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .optim import Adam
from .qsim import (GeneratorParams, _adjoint, _amplitudes, _layers, _product,
                   probabilities, run_generator_circuit)
# Re-exported: the per-layer benchmark traces it here, expecting 0 calls.
from .qsim import prob_jacobian  # noqa: F401

SIGMOID_CLAMP = 1e-7
CROSS_ENTROPY_CLAMP = 1e-12
LEAK = 0.01         # slope of the hidden layers' leaky rectifier below 0
INIT_SPREAD = 0.1   # layers 1..K start uniform in [-spread, spread]
# users per training stack at most: at 200 users, stacks of 32 trained as
# many user-epochs per second as one stack of all 200 and peaked at 75 MB
# RSS against 132 MB (in process, 2 vCPU); a stack's buffers grow with it
STACK_USERS = 32


# --------------------------------------------------------------------------
# Discriminator
# --------------------------------------------------------------------------

@dataclass
class DiscriminatorNet:
    """Fully connected net: in -> hidden layers (leaky ReLU) -> 1 (sigmoid).

    ``flat`` holds all weights, then all biases, and is the one vector the
    optimiser steps.  ``weights[i]`` (shape (out_i, in_i)) and ``biases[i]``
    (shape (out_i,)) are views of it.  A stack of nets, one per user, is
    one net whose ``flat`` has a leading user axis, as do its views.
    """

    layer_sizes: list[int]
    flat: np.ndarray = field(repr=False)

    def __post_init__(self):
        sizes = self.layer_sizes = [int(n) for n in self.layer_sizes]
        self.flat = np.asarray(self.flat, dtype=float)
        if len(sizes) < 2 or min(sizes) < 1 or sizes[-1] != 1:
            raise ValueError(f"layer sizes {sizes} must be >= 1 and end in "
                             "a single output unit")
        if self.flat.shape[-1:] != (self.n_params(sizes),):
            raise ValueError(f"{sizes} layers need {self.n_params(sizes)} "
                             f"parameters, got shape {self.flat.shape}")
        self.weights, self.biases = self.split(self.flat)

    @staticmethod
    def n_params(layer_sizes: list[int]) -> int:
        return sum((n_in + 1) * n_out
                   for n_in, n_out in zip(layer_sizes, layer_sizes[1:]))

    @classmethod
    def create(cls, n_inputs: int, hidden: tuple[int, ...],
               rng: np.random.Generator) -> "DiscriminatorNet":
        """He-initialised weights, zero biases, drawn from ``rng``."""
        sizes = [n_inputs, *hidden, 1]
        net = cls(sizes, np.zeros(cls.n_params(sizes)))
        for n_in, w in zip(sizes, net.weights):
            w[...] = rng.normal(0.0, math.sqrt(2.0 / n_in), size=w.shape)
        return net

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight and bias views of a vector laid out like ``flat``, or of a
        stack of them."""
        lead = flat.shape[:-1]
        views = [flat[..., part].reshape(*lead, *shape)
                 for part, shape in _layout(tuple(self.layer_sizes))]
        return views[:len(self.layer_sizes) - 1], views[len(self.layer_sizes) - 1:]


@functools.cache
def _layout(sizes: tuple[int, ...]) -> list[tuple[slice, tuple[int, ...]]]:
    """Where each weight matrix, then each bias vector, of a net with layer
    ``sizes`` sits in its flat vector, and its shape."""
    shapes = [*zip(sizes[1:], sizes), *((n,) for n in sizes[1:])]
    ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    return [*zip(map(slice, [0, *ends], ends), shapes)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class _Pass:
    """Buffers of one forward and backward pass of ``net`` over ``rows``
    input rows: one net, or a stack of nets (a leading user axis on every
    buffer).  They are allocated once and overwritten by every pass: the
    input ``x``, each layer's pre-activation, each hidden layer's leaky
    slope (1 or ``LEAK``) and activation, the output gradient ``dz_out`` to
    backprop, the gradient at each layer's input, and the parameter
    gradient ``grad``, laid out like ``net.flat``.  ``layers`` and
    ``back`` group them per layer in the order the passes use them.

    An adversarial pass is made with ``real``, each net's count m of real
    rows: its x holds them, then its generated row, then zero rows up to
    ``rows``.  ``gen`` indexes the generated rows among all the pass's rows
    (of ``x`` and of the outputs, each net's after the nets before it);
    ``sub`` and ``div`` turn the outputs into the output gradient
    (``_adversarial_grads``), and ``keep`` zeroes it past the generated
    rows.  ``short`` lists the nets, with their own row counts, whose rows
    end before the pass does: a product or sum over rows whose other side
    is one wide (a matrix-vector product, a pairwise sum) rounds by its
    length, so each layer that has one runs it again over their own rows."""

    def __init__(self, net: DiscriminatorNet, rows: int, real=None):
        lead = net.flat.shape[:-1]
        self.x = np.zeros((*lead, rows, net.layer_sizes[0]))
        self.dz_out = np.empty((*lead, rows))
        self.grad = np.empty_like(net.flat)
        self.dot = _product(net.flat.ndim + 1)
        self.short = []
        if real is not None:
            m = np.asarray(real)
            self.gen = m + rows * np.arange(m.size).reshape(lead)
            real_row = np.arange(rows) < m[..., None]
            self.sub = real_row.astype(float)
            self.div = np.where(real_row, m[..., None], 1.0)
            self.short = [(index, count + 1) for index, count
                          in enumerate(m.ravel().tolist()) if count + 1 < rows]
            if self.short:
                self.keep = (np.arange(rows) <= m[..., None]).astype(float)
        # per layer: input, weight, bias, pre-activation, the nets whose own
        # rows it reruns, slope and activation (None at the output); and
        # for the backward pass, top layer first: input, weight, gradients,
        # the gradient at the input, the slope below (None at the input)
        self.layers, self.back = [], []
        a, slope_below, top = self.x, None, len(net.weights) - 1
        for layer, (w, b, dw, db) in enumerate(zip(net.weights, net.biases,
                                                   *net.split(self.grad))):
            z = np.empty((*lead, rows, w.shape[-2]))
            slope, out = (None, None) if layer == top else (np.empty_like(z),
                                                            np.empty_like(z))
            self.layers.append((a, w.swapaxes(-1, -2), b[..., None, :], z,
                                self.short if w.shape[-2] == 1 else (), slope, out))
            self.back.append((a, w, dw, db, np.empty_like(a), slope_below,
                              self.short if 1 in w.shape[-2:] else ()))
            a, slope_below = out, slope
        self.back.reverse()


def _rows(x, width: int) -> np.ndarray:
    """``x`` as a float matrix of ``width``-long rows: the input check of
    the discriminator and of the scoring network."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != width:
        raise ValueError(f"expected input length {width}, got {x.shape[1]}")
    return x


def _clamp(y_raw: np.ndarray) -> np.ndarray:
    """The outputs clamped to [SIGMOID_CLAMP, 1 - SIGMOID_CLAMP] for logs."""
    return np.minimum(np.maximum(y_raw, SIGMOID_CLAMP), 1.0 - SIGMOID_CLAMP)


def _forward(p: _Pass) -> np.ndarray:
    """Forward pass over ``p.x``; returns the unclamped outputs.  A hidden
    activation is z * slope, which is z where z > 0 and LEAK * z elsewhere."""
    for a, w_t, b, z, short, slope, out in p.layers:
        p.dot(a, w_t, out=z)
        for net, rows in short:
            np.dot(a[net, :rows], w_t[net], out=z[net, :rows])
        z += b
        if slope is not None:
            np.greater(z, 0.0, out=slope)
            np.maximum(slope, LEAK, out=slope)
            np.multiply(z, slope, out=out)
    return _sigmoid(z[..., 0])   # the output layer's one unit


def _backward(p: _Pass) -> np.ndarray:
    """Backprop ``p.dz_out``, the gradient at the output pre-activation
    (one per row), into ``p.grad``, which it returns."""
    dz = p.dz_out[..., None]
    for a, w, dw, db, da, slope, short in p.back:
        p.dot(dz.swapaxes(-1, -2), a, out=dw)
        np.add.reduce(dz, axis=-2, out=db)
        for net, rows in short:
            np.dot(dz[net, :rows].T, a[net, :rows], out=dw[net])
            np.add.reduce(dz[net, :rows], axis=0, out=db[net])
        if slope is not None:
            dz = p.dot(dz, w, out=da)
            dz *= slope
    return p.grad


def _input_grad(p: _Pass) -> np.ndarray:
    """The input gradient ``_backward`` would reach, without the parameter
    gradient."""
    da = p.dz_out[..., None]
    for _, w, _, _, out, slope, _ in p.back:
        da = p.dot(da, w, out=out)
        if slope is not None:
            da *= slope
    return da


def _adversarial_grads(p: _Pass, real_log: np.ndarray, y_gen: np.ndarray) -> None:
    """The discriminator gradient of each net's batch in an adversarial pass
    (see ``_Pass``), whose generated row stands for m identical fake rows,
    into ``p.grad``.  What ``_losses`` needs of the batch goes into
    ``real_log``, the sum of log D over each net's real rows, and ``y_gen``,
    D of its generated row, both clamped."""
    y_raw = _forward(p)
    y = _clamp(y_raw)
    log_y = np.log(y)
    np.add.reduce(log_y[..., :-1], axis=-1, out=real_log)
    for net, rows in p.short:
        real_log[net] = np.add.reduce(log_y[net, :rows - 1])
    np.take(y, p.gen, out=y_gen)
    # d(-log s(z))/dz = s(z) - 1;  d(-log(1 - s(z)))/dz = s(z)
    dz = np.subtract(y_raw, p.sub, out=p.dz_out)
    dz /= p.div
    if p.short:
        dz *= p.keep
    _backward(p)


def _losses(real_log, y_gen, m) -> tuple[np.ndarray, np.ndarray]:
    """``loss_d`` and ``loss_g`` of batches from what ``_adversarial_grads``
    gives of them, each with m real rows: the mean over the real rows is
    their sum over m, as np.mean forms it."""
    return -(real_log / m) - np.log(1.0 - y_gen), -np.log(y_gen)


def _gen_grads(mats: np.ndarray, p: _Pass, amplitudes: np.ndarray) -> np.ndarray:
    """``gen_grads`` of the circuits ``mats`` (from ``qsim._layers``), where
    ``p`` is a one-row pass whose ``x`` holds ``probabilities(amplitudes)``."""
    np.subtract(_forward(p), 1.0, out=p.dz_out)
    return _adjoint(mats, amplitudes, _input_grad(p)[..., 0, :])


def _batch(net: DiscriminatorNet, *parts: np.ndarray) -> tuple[_Pass, int]:
    """A pass whose input holds the rows of ``parts`` stacked in order, and
    the row count m of each part; the parts must be non-empty and of one size."""
    parts = [_rows(part, net.layer_sizes[0]) for part in parts]
    m = len(parts[0])
    if m == 0:
        raise ValueError("batches must be non-empty")
    if any(len(part) != m for part in parts):
        raise ValueError("real and generated batch sizes must match")
    p = _Pass(net, m * len(parts))
    np.concatenate(parts, out=p.x)
    return p, m


def generator_output(params: GeneratorParams) -> np.ndarray:
    """The generated sample: the circuit's exact output distribution."""
    return probabilities(run_generator_circuit(params))


def loss_g(net: DiscriminatorNet, generated: np.ndarray) -> float:
    """-(1/m) sum log D(g); small when D labels generated samples as real."""
    p, _ = _batch(net, generated)
    return float(-np.mean(np.log(_clamp(_forward(p)))))


def loss_d(net: DiscriminatorNet, real: np.ndarray, generated: np.ndarray) -> float:
    """-(1/m) sum [log D(x) + log(1 - D(g))] over paired batches."""
    p, m = _batch(net, real, generated)
    y = _clamp(_forward(p))
    return float(-np.mean(np.log(y[:m])) - np.mean(np.log(1.0 - y[m:])))


def disc_grads(net: DiscriminatorNet, real: np.ndarray,
               generated: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backprop gradients of ``loss_d`` for every weight and bias.

    The clamp only guards the logs; gradients follow the plain sigmoid.
    """
    p, m = _batch(net, real, generated)
    y_raw = _forward(p)
    # d(-log s(z))/dz = s(z) - 1;  d(-log(1 - s(z)))/dz = s(z)
    np.subtract(y_raw[:m], 1.0, out=p.dz_out[:m])
    p.dz_out[m:] = y_raw[m:]
    p.dz_out /= m
    return net.split(_backward(p))


def gen_grads(params: GeneratorParams, net: DiscriminatorNet,
              amplitudes: np.ndarray | None = None) -> np.ndarray:
    """Gradient of L_G w.r.t. every rotation angle, shape like ``params.angles``.

    Chain rule: the discriminator's input gradient of -log D(p), pulled
    back through the circuit by one adjoint sweep.  ``amplitudes`` can be
    passed in when the circuit already ran for the current parameters.
    """
    mats = _layers(params.angles)
    if amplitudes is None:
        amplitudes = _amplitudes(mats)
    p = _Pass(net, 1)
    p.x[0] = _rows(probabilities(amplitudes), net.layer_sizes[0])[0]
    return _gen_grads(mats, p, amplitudes)


def cross_entropy_to_target(generated: np.ndarray, target: np.ndarray):
    """-sum target_j log generated_j, with the generated entries clamped:
    a float, or one per row of stacked distributions."""
    generated = np.asarray(generated, dtype=float)
    target = np.asarray(target, dtype=float)
    if generated.shape != target.shape:
        raise ValueError("distributions must have equal length")
    return -np.sum(target * np.log(np.maximum(generated, CROSS_ENTROPY_CLAMP)),
                   axis=-1)


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

@dataclass
class TrainConfig:
    batch: int = 16
    epochs: int = 300
    lr_g: float = 0.05
    lr_d: float = 0.01
    depth: int = 8
    seed: int = 0
    hidden: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (0 < self.lr_g < math.inf and 0 < self.lr_d < math.inf):
            raise ValueError(f"learning rates must be finite and > 0, got "
                             f"lr_g = {self.lr_g}, lr_d = {self.lr_d}")
        if self.depth < 1:
            raise ValueError("circuit depth must be >= 1")
        if min(self.hidden, default=1) < 1:
            raise ValueError("hidden layer sizes must be >= 1")


@dataclass
class TrainState:
    """Everything needed to continue training exactly where it stopped."""

    params: GeneratorParams
    net: DiscriminatorNet
    opt_g: Adam
    opt_d: Adam
    rng: np.random.Generator
    epoch: int = 0


@dataclass
class TrainTrace:
    """Per-epoch losses and the final state of a training run."""

    loss_g: list[float] = field(default_factory=list)
    loss_d: list[float] = field(default_factory=list)
    cross_entropy: list[float] = field(default_factory=list)
    state: TrainState | None = None


def init_train_state(n_qubits: int, cfg: TrainConfig) -> TrainState:
    """Fresh parameters, discriminator and optimisers from ``cfg.seed``.

    Layer 0 starts at pi/2 on every qubit (the uniform superposition, an
    uninformative prior); the trainable layers start near zero.
    """
    rng = np.random.default_rng(cfg.seed)
    angles = np.empty((cfg.depth + 1, n_qubits))
    angles[0, :] = np.pi / 2
    angles[1:, :] = rng.uniform(-INIT_SPREAD, INIT_SPREAD,
                                size=(cfg.depth, n_qubits))
    params = GeneratorParams(n_qubits, angles)
    net = DiscriminatorNet.create(2**n_qubits, cfg.hidden, rng)
    return TrainState(params, net, Adam(cfg.lr_g, params.angles),
                      Adam(cfg.lr_d, net.flat), rng)


def _simplex_rows(real_data) -> np.ndarray:
    """One user's training rows as an (N, 2**n) float array of probability
    vectors, checked."""
    data = np.atleast_2d(np.asarray(real_data, dtype=float))
    if data.size == 0:
        raise ValueError("real data must be non-empty")
    if 2**_n_qubits(data) != data.shape[1]:
        raise ValueError("data width must be a power of two")
    if np.min(data) < -1e-9:
        raise ValueError("training vectors must be non-negative")
    # np.allclose(sums, 1.0, atol=1e-6) at a fifth of its cost
    if not np.all(np.abs(data.sum(axis=1) - 1.0) <= 1e-6 + 1e-5):
        raise ValueError("training vectors must each sum to 1")
    return data


def _n_qubits(data: np.ndarray) -> int:
    return data.shape[1].bit_length() - 1


def train(datasets: list, cfg: TrainConfig,
          states: list[TrainState] | None = None) -> list[TrainTrace]:
    """Alternating adversarial training of each user's generator and
    discriminator for ``cfg.epochs`` epochs; one trace per user.

    ``datasets`` holds each user's (N, 2**n) array of probability vectors.
    One epoch shuffles a user's data and walks it in batches of
    ``cfg.batch``; each batch takes one discriminator step, then one
    generator step against the updated discriminator.  Recorded losses are
    the values seen before the updates of each batch; the cross-entropy
    column compares the generator to the data mean after each epoch.
    Passing ``states``, one per user, resumes them in place, bit-identical
    to never having stopped.  Every data set is checked before any user
    trains.

    Users whose epochs hold equally many batches, and whose Adam step
    counts and epochs match, train as one stack (``_train_stack``) of up to
    ``STACK_USERS``: each batch step runs once for all of them, and each
    user's arithmetic is the one it has trained alone.
    """
    datasets = [_simplex_rows(data) for data in datasets]
    if states is None:
        states = [init_train_state(_n_qubits(data), cfg) for data in datasets]
    stacks: dict[tuple, list[int]] = {}
    for user, (data, state) in enumerate(zip(datasets, states, strict=True)):
        if state.params.n_qubits != _n_qubits(data):
            raise ValueError("checkpointed state does not match the data width")
        key = (math.ceil(len(data) / cfg.batch), state.epoch, state.opt_g.t,
               state.opt_d.t, state.opt_g.lr, state.opt_d.lr,
               state.params.angles.shape, tuple(state.net.layer_sizes))
        stacks.setdefault(key, []).append(user)
    traces = [TrainTrace(state=state) for state in states]
    for users in stacks.values():
        for first in range(0, len(users), STACK_USERS):
            stack = users[first:first + STACK_USERS]
            _train_stack([datasets[user] for user in stack],
                         [traces[user] for user in stack], cfg)
    return traces


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Copies of the arrays on a leading user axis."""
    out = np.empty((len(arrays), *arrays[0].shape))
    for user, arr in enumerate(arrays):
        out[user] = arr
    return out


def _stacked(states: list[TrainState]) -> tuple[np.ndarray, DiscriminatorNet, Adam, Adam]:
    """The angles (users, depth+1, n), discriminators (users, n_params) and
    optimisers of a stack, each optimiser holding its users' moments.  A
    one-user stack keeps no user axis: it is that user's own arrays and
    optimisers, so its products go through ``np.dot`` (``qsim._product``)
    and nothing is copied in or out."""
    if len(states) == 1:
        state = states[0]
        return state.params.angles, state.net, state.opt_g, state.opt_d
    angles = _stack([state.params.angles for state in states])
    net = DiscriminatorNet(states[0].net.layer_sizes,
                           _stack([state.net.flat for state in states]))
    opts = []
    for param, opts_ in ((angles, [state.opt_g for state in states]),
                         (net.flat, [state.opt_d for state in states])):
        opt = Adam(opts_[0].lr, param)
        opt.t = opts_[0].t
        opt.m, opt.v = _stack([o.m for o in opts_]), _stack([o.v for o in opts_])
        opts.append(opt)
    return angles, net, *opts


def _train_stack(datasets: list[np.ndarray], traces: list[TrainTrace],
                 cfg: TrainConfig) -> None:
    """``train`` of users whose epochs hold equally many batches, as one
    stack (``_stacked``), with each batch (users, rows, 2**n).  A user with
    fewer rows than the stack's widest has zero rows after its own; its
    shorter last batch ends in zero rows after the generated one, which
    carry no gradient."""
    states = [trace.state for trace in traces]
    lead = (len(datasets),) if len(datasets) > 1 else ()
    n = np.reshape([len(data) for data in datasets], lead)
    width = int(n.max())
    if lead:
        x = np.zeros((*lead, width, datasets[0].shape[1]))
        for user, data in enumerate(datasets):
            x[user, :len(data)] = data
        # each user's rows in the flat rows of x; the zero rows stay put
        order = np.arange(x.size // x.shape[-1]).reshape(x.shape[:-1])
        x = x.reshape(-1, x.shape[-1])
    else:   # one user's rows are the stack's: nothing to pad or to offset
        x, order = datasets[0], None
    targets = np.reshape([data.mean(axis=0) for data in datasets], (*lead, -1))
    angles, net, opt_g, opt_d = _stacked(states)

    # one pass for the full batches and one for each user's last batch,
    # each with the views it copies its real rows from and to, and one pass
    # for the generated row alone
    x_epoch = np.empty((*lead, width, x.shape[-1]))
    last = (width - 1) // cfg.batch * cfg.batch   # where the last batch starts
    real_rows = np.full((last // cfg.batch + 1, *lead), cfg.batch)
    real_rows[-1] = n - last
    passes = [_Pass(net, cfg.batch + 1, real_rows[0])] * (last // cfg.batch)
    passes.append(_Pass(net, width - last + 1, real_rows[-1]))
    steps = [(p, x_epoch[..., start:start + p.x.shape[-2] - 1, :], p.x[..., :-1, :],
              p.x.reshape(-1, p.x.shape[-1]))
             for start, p in zip(range(0, width, cfg.batch), passes)]
    gen = _Pass(net, 1)
    probs = gen.x[..., 0, :]
    real_log, y_gen = np.empty((2, len(steps), *lead))

    # the circuit after an epoch gives its cross-entropy, and the next
    # epoch's first batch starts from it
    circuit = None
    for _ in range(cfg.epochs):
        picks = [state.rng.permutation(len(data))
                 for data, state in zip(datasets, states)]
        if lead:
            for user, pick in enumerate(picks):
                order[user, :len(pick)] = pick + user * width
        x.take(picks[0] if order is None else order, axis=0, out=x_epoch)
        for step, (p, src, dst, x_rows) in enumerate(steps):
            mats, amplitudes = circuit or _circuit(angles)
            circuit = None
            dst[...] = src
            x_rows[p.gen] = np.square(amplitudes, out=probs)  # probabilities
            _adversarial_grads(p, real_log[step, ...], y_gen[step, ...])
            opt_d.step(net.flat, p.grad)
            opt_g.step(angles, _gen_grads(mats, gen, amplitudes))
        circuit = _circuit(angles)
        ce = cross_entropy_to_target(np.square(circuit[1]), targets)
        # each user's losses summed over the batches in order, as a running
        # total would
        ld, lg = (np.cumsum(loss, axis=0)[-1] / len(steps)
                  for loss in _losses(real_log, y_gen, real_rows))
        for trace, g, d, c in zip(traces, *(np.ravel(col).tolist()
                                            for col in (lg, ld, ce))):
            trace.loss_g.append(g)
            trace.loss_d.append(d)
            trace.cross_entropy.append(c)

    if len(states) > 1:
        for user, state in enumerate(states):
            state.params.angles[...] = angles[user]
            state.net.flat[...] = net.flat[user]
            for opt, stacked in ((state.opt_g, opt_g), (state.opt_d, opt_d)):
                opt.t = stacked.t
                opt.m[...], opt.v[...] = stacked.m[user], stacked.v[user]
    for state in states:
        state.epoch += cfg.epochs


def _circuit(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The layer matrices of the circuits ``angles`` and their amplitudes."""
    mats = _layers(angles)
    return mats, _amplitudes(mats)
