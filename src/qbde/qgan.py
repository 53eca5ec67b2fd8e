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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optim import Adam
from .qsim import (GeneratorParams, adjoint_gradient, probabilities,
                   run_generator_circuit)
# Re-exported: the per-layer benchmark traces it here, expecting 0 calls.
from .qsim import prob_jacobian  # noqa: F401

SIGMOID_CLAMP = 1e-7
CROSS_ENTROPY_CLAMP = 1e-12
LEAK = 0.01         # slope of the hidden layers' leaky rectifier below 0
INIT_SPREAD = 0.1   # layers 1..K start uniform in [-spread, spread]


# --------------------------------------------------------------------------
# Discriminator
# --------------------------------------------------------------------------

@dataclass
class DiscriminatorNet:
    """Fully connected net: in -> hidden layers (leaky ReLU) -> 1 (sigmoid).

    ``flat`` holds all weights, then all biases, and is the one vector the
    optimiser steps.  ``weights[i]`` (shape (out_i, in_i)) and ``biases[i]``
    (shape (out_i,)) are views of it.
    """

    layer_sizes: list[int]
    flat: np.ndarray = field(repr=False)

    def __post_init__(self):
        sizes = self.layer_sizes = [int(n) for n in self.layer_sizes]
        self.flat = np.asarray(self.flat, dtype=float)
        if len(sizes) < 2 or min(sizes) < 1 or sizes[-1] != 1:
            raise ValueError(f"layer sizes {sizes} must be >= 1 and end in "
                             "a single output unit")
        if self.flat.shape != (self.n_params(sizes),):
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
        """Weight and bias views of a vector laid out like ``flat``."""
        sizes = self.layer_sizes
        shapes = [*zip(sizes[1:], sizes), *((n,) for n in sizes[1:])]
        views, start = [], 0
        for shape in shapes:
            views.append(flat[start:start + math.prod(shape)].reshape(shape))
            start += math.prod(shape)
        return views[:len(sizes) - 1], views[len(sizes) - 1:]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class _Pass:
    """Buffers of one forward and backward pass of ``net`` over ``rows``
    input rows, allocated once and overwritten by every pass: the input
    ``x``, each layer's pre-activation, each hidden layer's leaky slope (1
    or ``LEAK``) and activation, the output gradient ``dz_out`` to
    backprop, the gradient at each layer's input, and the parameter
    gradient ``grad``, laid out like ``net.flat``.  ``hidden``, ``out``
    and ``back`` group them per layer in the order the passes use them."""

    def __init__(self, net: DiscriminatorNet, rows: int):
        sizes = net.layer_sizes
        self.x = np.empty((rows, sizes[0]))
        self.dz_out = np.empty(rows)
        self.grad = np.empty_like(net.flat)
        z = [np.empty((rows, n)) for n in sizes[1:]]     # the last is (rows, 1)
        slope = [np.empty((rows, n)) for n in sizes[1:-1]]
        post = [self.x, *(np.empty((rows, n)) for n in sizes[1:-1])]
        da = [np.empty((rows, n)) for n in sizes[:-1]]
        w_t = [w.T for w in net.weights]
        self.hidden = list(zip(post, w_t, net.biases, z, slope, post[1:]))
        self.out = post[-1], w_t[-1], net.biases[-1], z[-1]
        # top layer first: input, weight, gradients, slope below (None at 0)
        self.back = list(zip(post, net.weights, *net.split(self.grad), da,
                             [None, *slope]))[::-1]


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
    for a, w_t, b, z, slope, out in p.hidden:
        np.dot(a, w_t, out=z)
        z += b
        np.greater(z, 0.0, out=slope)
        np.maximum(slope, LEAK, out=slope)
        np.multiply(z, slope, out=out)
    a, w_t, b, z = p.out
    np.dot(a, w_t, out=z)
    z += b
    return _sigmoid(z.ravel())


def _backward(p: _Pass) -> np.ndarray:
    """Backprop ``p.dz_out``, the gradient at the output pre-activation
    (one per row), into ``p.grad``, which it returns."""
    dz = p.dz_out[:, None]
    for a, w, dw, db, da, slope in p.back:
        np.dot(dz.T, a, out=dw)
        np.add.reduce(dz, axis=0, out=db)
        if slope is not None:
            dz = np.dot(dz, w, out=da)
            dz *= slope
    return p.grad


def _input_grad(p: _Pass) -> np.ndarray:
    """The input gradient ``_backward`` would reach, without the parameter
    gradient."""
    da = p.dz_out[:, None]
    for _, w, _, _, out, slope in p.back:
        da = np.dot(da, w, out=out)
        if slope is not None:
            da *= slope
    return da


def _adversarial_grads(p: _Pass, m: int) -> tuple[float, float]:
    """``loss_d`` and ``loss_g`` of a batch whose ``p.x`` holds the m real
    rows and then the generated row, standing for m identical fake rows;
    the discriminator gradient goes into ``p.grad``."""
    y_raw = _forward(p)
    y = _clamp(y_raw)
    # the mean over the real rows is their sum over m, as np.mean forms it
    ld = float(-(np.add.reduce(np.log(y[:m])) / m) - np.log(1.0 - y[m]))
    lg = float(-np.log(y[m]))
    # d(-log s(z))/dz = s(z) - 1;  d(-log(1 - s(z)))/dz = s(z)
    dz_real = np.subtract(y_raw[:m], 1.0, out=p.dz_out[:m])
    dz_real /= m
    p.dz_out[m] = y_raw[m]
    _backward(p)
    return ld, lg


def _gen_grads(params: GeneratorParams, p: _Pass,
               amplitudes: np.ndarray) -> np.ndarray:
    """``gen_grads`` where ``p`` is a one-row pass whose ``x`` holds
    ``probabilities(amplitudes)``."""
    np.subtract(_forward(p), 1.0, out=p.dz_out)
    return adjoint_gradient(params, amplitudes, _input_grad(p)[0])


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
    if amplitudes is None:
        amplitudes = run_generator_circuit(params)
    p = _Pass(net, 1)
    p.x[0] = _rows(probabilities(amplitudes), net.layer_sizes[0])[0]
    return _gen_grads(params, p, amplitudes)


def cross_entropy_to_target(generated: np.ndarray, target: np.ndarray) -> float:
    """-sum target_j log generated_j, with the generated entries clamped."""
    generated = np.asarray(generated, dtype=float)
    target = np.asarray(target, dtype=float)
    if generated.shape != target.shape:
        raise ValueError("distributions must have equal length")
    return float(-np.sum(target * np.log(np.maximum(generated, CROSS_ENTROPY_CLAMP))))


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


def _check_simplex_rows(data: np.ndarray) -> None:
    if np.min(data) < -1e-9:
        raise ValueError("training vectors must be non-negative")
    if not np.allclose(data.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("training vectors must each sum to 1")


def train(real_data: np.ndarray, cfg: TrainConfig,
          state: TrainState | None = None) -> TrainTrace:
    """Alternating adversarial training for ``cfg.epochs`` epochs.

    ``real_data`` is an (N, 2**n) array of probability vectors.  One epoch
    shuffles the data and walks it in batches of ``cfg.batch``; each batch
    takes one discriminator step, then one generator step against the
    updated discriminator.  Recorded losses are the values seen before the
    updates of each batch; the cross-entropy column compares the generator
    to the data mean after each epoch.  Passing a ``state`` resumes a
    previous run and is bit-identical to never having stopped.  A batch
    step runs ``_adversarial_grads`` and the helper behind ``gen_grads``
    on buffers allocated once per call, with the data checked on entry.
    """
    data = np.atleast_2d(np.asarray(real_data, dtype=float))
    if data.size == 0:
        raise ValueError("real data must be non-empty")
    n_qubits = data.shape[1].bit_length() - 1
    if 2**n_qubits != data.shape[1]:
        raise ValueError("data width must be a power of two")
    _check_simplex_rows(data)

    if state is None:
        state = init_train_state(n_qubits, cfg)
    if state.params.n_qubits != n_qubits:
        raise ValueError("checkpointed state does not match the data width")

    target = data.mean(axis=0)
    n_rows = data.shape[0]
    iters = math.ceil(n_rows / cfg.batch)
    trace = TrainTrace(state=state)
    # one pass per batch size (a full one and a shorter last one): the m
    # real rows and the generated row; then the generated row on its own
    passes = {m: _Pass(state.net, m + 1)
              for m in {min(cfg.batch, n_rows), n_rows - (iters - 1) * cfg.batch}}
    gen = _Pass(state.net, 1)

    for _ in range(cfg.epochs):
        order = state.rng.permutation(n_rows)
        lg_sum = 0.0
        ld_sum = 0.0
        for start in range(0, n_rows, cfg.batch):
            rows = order[start:start + cfg.batch]
            p = passes[len(rows)]
            amplitudes = run_generator_circuit(state.params)
            np.take(data, rows, axis=0, out=p.x[:-1])
            np.square(amplitudes, out=gen.x[0])   # probabilities(amplitudes)
            p.x[-1] = gen.x[0]
            ld, lg = _adversarial_grads(p, len(rows))
            ld_sum += ld
            lg_sum += lg
            state.opt_d.step(state.net.flat, p.grad)
            state.opt_g.step(state.params.angles,
                             _gen_grads(state.params, gen, amplitudes))
        state.epoch += 1
        trace.loss_g.append(lg_sum / iters)
        trace.loss_d.append(ld_sum / iters)
        trace.cross_entropy.append(
            cross_entropy_to_target(generator_output(state.params), target))
    return trace
