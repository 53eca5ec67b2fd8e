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

from .optim import Adam, flat_views, flatten
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

    ``weights[i]`` has shape (out_i, in_i); ``biases[i]`` has shape (out_i,).
    Both are views of ``flat``, a copy of the arrays passed in (all weights,
    then all biases) and the one vector the optimiser steps.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
                raise ValueError("weight/bias shapes are inconsistent")
        if sizes[-1] != 1:
            raise ValueError("output layer must have a single unit")
        flat = flatten(self.param_list())
        self.weights, self.biases = self.split(flat)
        self.flat = flat

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[1]

    @classmethod
    def create(cls, n_inputs: int, hidden: tuple[int, ...],
               rng: np.random.Generator) -> "DiscriminatorNet":
        """He-initialised weights, zero biases, drawn from ``rng``."""
        sizes = [n_inputs, *hidden, 1]
        weights = [
            rng.normal(0.0, math.sqrt(2.0 / sizes[i]), size=(sizes[i + 1], sizes[i]))
            for i in range(len(sizes) - 1)
        ]
        biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        return cls(weights, biases)

    def param_list(self) -> list[np.ndarray]:
        """All weights then all biases, the order of ``flat``."""
        return [*self.weights, *self.biases]

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight and bias views of a vector laid out like ``flat``."""
        views = flat_views(flat, self.param_list())
        return views[:len(self.weights)], views[len(self.weights):]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _forward(net: DiscriminatorNet, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batched forward pass; returns clamped outputs and a backprop cache."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.n_inputs:
        raise ValueError(f"expected input length {net.n_inputs}, got {x.shape[1]}")
    pre, post = [], [x]
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a.dot(w.T) + b
        a = np.where(z > 0, z, LEAK * z)
        pre.append(z)
        post.append(a)
    z_out = (a.dot(net.weights[-1].T) + net.biases[-1]).ravel()
    y_raw = _sigmoid(z_out)
    y = np.clip(y_raw, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    return y, {"pre": pre, "post": post, "y_raw": y_raw}


def _backward(net: DiscriminatorNet, cache: dict,
              dz_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop from the output pre-activation gradient ``dz_out`` (one per
    sample) to the parameter gradient, laid out like ``net.flat``, and the
    input gradient."""
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


def _input_grad(net: DiscriminatorNet, cache: dict,
                dz_out: np.ndarray) -> np.ndarray:
    """The input gradient of ``_backward`` without the parameter gradient."""
    da = dz_out[:, None].dot(net.weights[-1])
    for i in range(len(net.weights) - 2, -1, -1):
        da = (da * np.where(cache["pre"][i] > 0, 1.0, LEAK)).dot(net.weights[i])
    return da


def disc_forward(net: DiscriminatorNet, x: np.ndarray) -> float:
    """Probability the discriminator assigns to one input being real."""
    y, _ = _forward(net, np.asarray(x, dtype=float).reshape(1, -1))
    return float(y[0])


def generator_output(params: GeneratorParams) -> np.ndarray:
    """The generated sample: the circuit's exact output distribution."""
    return probabilities(run_generator_circuit(params))


def loss_g(net: DiscriminatorNet, generated: np.ndarray) -> float:
    """-(1/m) sum log D(g); small when D labels generated samples as real."""
    generated = np.atleast_2d(generated)
    if generated.shape[0] == 0:
        raise ValueError("generated batch must be non-empty")
    y, _ = _forward(net, generated)
    return float(-np.mean(np.log(y)))


def loss_d(net: DiscriminatorNet, real: np.ndarray, generated: np.ndarray) -> float:
    """-(1/m) sum [log D(x) + log(1 - D(g))] over paired batches."""
    real = np.atleast_2d(real)
    generated = np.atleast_2d(generated)
    if real.shape[0] != generated.shape[0]:
        raise ValueError("real and generated batch sizes must match")
    if real.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    y_real, _ = _forward(net, real)
    y_gen, _ = _forward(net, generated)
    return float(-np.mean(np.log(y_real)) - np.mean(np.log(1.0 - y_gen)))


def disc_grads(net: DiscriminatorNet, real: np.ndarray,
               generated: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backprop gradients of ``loss_d`` for every weight and bias.

    The clamp only guards the logs; gradients follow the plain sigmoid.
    """
    real = np.atleast_2d(real)
    generated = np.atleast_2d(generated)
    if real.shape[0] != generated.shape[0]:
        raise ValueError("real and generated batch sizes must match")
    m = real.shape[0]
    _, cache_r = _forward(net, real)
    _, cache_g = _forward(net, generated)
    # d(-log s(z))/dz = s(z) - 1;  d(-log(1 - s(z)))/dz = s(z)
    grad_r, _ = _backward(net, cache_r, (cache_r["y_raw"] - 1.0) / m)
    grad_g, _ = _backward(net, cache_g, cache_g["y_raw"] / m)
    return net.split(grad_r + grad_g)


def adversarial_grads(net: DiscriminatorNet, real: np.ndarray,
                      generated: np.ndarray) -> tuple[float, float, np.ndarray]:
    """``loss_d``, ``loss_g`` and ``disc_grads`` (laid out like ``net.flat``)
    of one batch whose m fake rows are all the one generator output
    ``generated``: one forward and one backward pass over the m real rows
    and that row, whose means over m rows are its own."""
    real = np.atleast_2d(real)
    if real.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    m = real.shape[0]
    y, cache = _forward(net, np.vstack([real, generated]))
    ld = float(-np.mean(np.log(y[:m])) - np.log(1.0 - y[m]))
    lg = float(-np.log(y[m]))
    # d(-log s(z))/dz = s(z) - 1;  d(-log(1 - s(z)))/dz = s(z)
    y_raw = cache["y_raw"]
    grad, _ = _backward(net, cache, np.append((y_raw[:m] - 1.0) / m, y_raw[m]))
    return ld, lg, grad


def gen_grads(params: GeneratorParams, net: DiscriminatorNet,
              amplitudes: np.ndarray | None = None) -> np.ndarray:
    """Gradient of L_G w.r.t. every rotation angle, shape like ``params.angles``.

    Chain rule: the discriminator's input gradient of -log D(p), pulled
    back through the circuit by one adjoint sweep.  ``amplitudes`` can be
    passed in when the circuit already ran for the current parameters.
    """
    if amplitudes is None:
        amplitudes = run_generator_circuit(params)
    _, cache = _forward(net, probabilities(amplitudes))
    dx = _input_grad(net, cache, cache["y_raw"] - 1.0)
    return adjoint_gradient(params, amplitudes, dx[0])


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
        if self.lr_g <= 0 or self.lr_d <= 0:
            raise ValueError("learning rates must be > 0")
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

    @property
    def params(self) -> GeneratorParams:
        return self.state.params

    @property
    def net(self) -> DiscriminatorNet:
        return self.state.net


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
    return TrainState(params, net, Adam(cfg.lr_g), Adam(cfg.lr_d), rng)


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
    previous run and is bit-identical to never having stopped.
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

    for _ in range(cfg.epochs):
        order = state.rng.permutation(n_rows)
        lg_sum = 0.0
        ld_sum = 0.0
        for start in range(0, n_rows, cfg.batch):
            batch = data[order[start:start + cfg.batch]]
            amplitudes = run_generator_circuit(state.params)
            ld, lg, grad_d = adversarial_grads(state.net, batch,
                                               probabilities(amplitudes))
            ld_sum += ld
            lg_sum += lg
            state.opt_d.step(state.net.flat, grad_d)
            grad = gen_grads(state.params, state.net, amplitudes)
            state.opt_g.step(state.params.angles, grad)
        state.epoch += 1
        trace.loss_g.append(lg_sum / iters)
        trace.loss_d.append(ld_sum / iters)
        trace.cross_entropy.append(
            cross_entropy_to_target(generator_output(state.params), target))
    return trace
