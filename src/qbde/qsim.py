"""Real-amplitude simulation of RY/CZ generator circuits, with adjoint
gradients.

Conventions, fixed across the package:

* Qubits are numbered 1..n and qubit 1 is the most significant bit of a
  basis index, so for n=2 the basis order is |00>, |01>, |10>, |11>.
* RY(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].
* The entangling block is a fixed ring of CZ gates
  (1,2), (2,3), ..., (n-1,n), (n,1).  For n <= 2 the ring degenerates to
  the open chain without the wrap-around pair.

RY and CZ are real, so amplitudes and each layer's matrix are real.  One
forward sweep gives the final state; one reverse (adjoint) sweep from it
gives every angle's gradient (Jones & Gacon, arXiv:2009.02823).  The
layer build and both sweeps take a leading axis of circuits, so training
runs a stack of users' circuits in one call; each circuit's arithmetic is
the one it has alone.

All public operations are pure: they return new values and never mutate
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

MAX_QUBITS = 12  # dense amplitudes stay desk-scale


@dataclass
class GeneratorParams:
    """Rotation angles of the generator circuit.

    ``angles`` has shape (depth+1, n_qubits); row 0 prepares the input
    state from |0...0> and rows 1..depth are the trainable layers that
    each follow one entangling block.
    """

    n_qubits: int
    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.ndim != 2 or self.angles.shape[1] != self.n_qubits:
            raise ValueError(f"angles must have shape (depth+1, {self.n_qubits}),"
                             f" got {self.angles.shape}")
        if self.angles.shape[0] < 1:
            raise ValueError("angles needs at least the input-preparation row")
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("angles must be finite")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")

    @property
    def depth(self) -> int:
        return self.angles.shape[0] - 1


def entangler_pairs(n_qubits: int) -> list[tuple[int, int]]:
    """Qubit pairs of one entangling block.  The wrap-around pair (n, 1) is
    dropped for n <= 2: CZ is symmetric, so on two qubits the ring would
    apply the same gate twice and cancel."""
    pairs = [(i, i + 1) for i in range(1, n_qubits)]
    if n_qubits > 2:
        pairs.append((n_qubits, 1))
    return pairs


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: the caches hand them to every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def entangler_signs(n_qubits: int) -> np.ndarray:
    """Diagonal of one entangling block, its own inverse: each CZ negates
    the basis states where both of its qubits are 1.  Cached, read-only."""
    idx, signs = np.arange(2**n_qubits), np.ones(2**n_qubits)
    for a, b in entangler_pairs(n_qubits):
        signs[(idx >> (n_qubits - a)) & (idx >> (n_qubits - b)) & 1 == 1] *= -1.0
    return _frozen(signs)[0]


def _layers(angles: np.ndarray) -> np.ndarray:
    """The circuits of ``angles``, shape (..., depth+1, n), one per leading
    index (a stack of users' circuits, say), as (..., depth+1, 2**n, 2**n)
    real matrices acting on row vectors: ``state @ M[l]`` applies layer l
    and ``state @ M[l].T`` undoes it."""
    n, n_layers = angles.shape[-1], angles.shape[-2]
    half = angles[..., None] / 2.0
    pick, xor, signs, _, _ = _tables(n, n_layers)
    cs = np.concatenate([np.cos(half), np.sin(half)], axis=-1).reshape(
        *angles.shape[:-1], -1)
    return np.take(np.take(cs, pick, axis=-1).prod(axis=-2), xor, axis=-1) * signs


@lru_cache(maxsize=8)
def _tables(n: int, n_layers: int) -> tuple[np.ndarray, ...]:
    """Gathers and signs that build the layers from each row's (cos, sin)
    pairs, then Y_q as a gather and a sign per qubit (row q-1).  RY(t).T =
    [[c, s], [-s, c]], so the Kronecker product of a row holds at (i, j)
    c_q where bit q of i and j agree, else s_q, negated per qubit that is 1
    in i and 0 in j; layers 1..depth also take CZ signs.  (Y_q psi)_i is
    flip_sign[q-1, i] * psi[flip[q-1, i]].  Cached, read-only."""
    idx, shifts = np.arange(2**n), np.arange(n - 1, -1, -1)[:, None]
    bits = (idx >> shifts) & 1   # qubit q in row q-1
    sign = np.prod(1.0 - 2.0 * (bits[:, :, None] & 1 - bits[:, None, :]), axis=0)
    signs = np.repeat([sign, entangler_signs(n)[:, None] * sign],
                      [1, n_layers - 1], axis=0)
    return _frozen(2 * np.arange(n)[:, None] + bits, idx[:, None] ^ idx, signs,
                   idx ^ (1 << shifts), np.where(bits, 1.0, -1.0))


def _product(ndim: int):
    """The matrix product for operands of ``ndim`` dimensions: the ``dot``
    method for one circuit's (or one net's) 2-D operands, ``np.matmul`` for
    stacks of them.  On each 2-D pair both make the same BLAS call, and
    ``dot`` costs ~0.8 µs less per call, most of a small product."""
    return np.ndarray.dot if ndim <= 2 else np.matmul


def _amplitudes(mats: np.ndarray) -> np.ndarray:
    """Real amplitudes of the output states of the circuits ``mats`` (from
    ``_layers``), shape (..., 2**n): |0...0> @ M[0], then each later layer
    applied to the state, a vector for one circuit and a stack of one-row
    matrices for a stack."""
    one = mats.ndim == 3
    state = mats[0, 0] if one else mats[..., 0, :1, :]
    dot = _product(state.ndim)
    for mat in mats.swapaxes(0, -3)[1:]:   # layer first
        state = dot(state, mat)
    return state if one else state[..., 0, :]


def run_generator_circuit(params: GeneratorParams) -> np.ndarray:
    """Real amplitudes of the circuit's output state, length 2**n.  Layer 0
    rotates |0...0> into the input state; each later layer applies the
    entangling block and then its RY rotations."""
    return _amplitudes(_layers(params.angles))


def probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """Born probabilities amplitude_j**2 of a real state."""
    return np.square(amplitudes)


def adjoint_gradient(params: GeneratorParams, amplitudes: np.ndarray,
                     dp: np.ndarray) -> np.ndarray:
    """dp . dp/dtheta for every angle, shaped like ``params.angles``, where
    ``amplitudes`` is ``run_generator_circuit(params)`` and ``dp`` the loss
    gradient with respect to the output probabilities."""
    return _adjoint(_layers(params.angles), amplitudes, dp)


def _adjoint(mats: np.ndarray, amplitudes: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """``adjoint_gradient`` of the circuits ``mats`` (from ``_layers``), one
    per leading index of ``mats``, ``amplitudes`` and ``dp``.  The sweep
    undoes the layers on two rows: the state, and the adjoint dp*psi (half
    of d loss / d psi) pulled back to the same point.  dRY(t)/dt = RY(t) Y/2
    with Y = [[0, -1], [1, 0]], and a layer's rotations commute, so each of
    its angles gets adjoint . Y_q state before the layer is undone."""
    depth, n = mats.shape[-3] - 1, mats.shape[-1].bit_length() - 1
    # (state, adjoint) before each layer, and each layer's inverse, layer first
    pairs = np.empty((depth + 1, *amplitudes.shape[:-1], 2, 2**n))
    undo = mats.swapaxes(0, -3).swapaxes(-1, -2)
    pairs[depth, ..., 0, :] = amplitudes
    np.multiply(dp, amplitudes, out=pairs[depth, ..., 1, :])
    dot = _product(mats.ndim - 1)
    for layer in range(depth, 0, -1):
        dot(pairs[layer], undo[layer], out=pairs[layer - 1])
    _, _, _, flip, flip_sign = _tables(n, depth + 1)
    pairs = pairs.swapaxes(0, -3)
    return ((flip_sign * pairs[..., 0, :][..., flip]) @ pairs[..., 1, :, None])[..., 0]


def sample(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram of ``shots`` measurements drawn from output probabilities,
    or one histogram per row of a stack of them, each row normalised on
    its own.  A stack is drawn in one call, row by row: it gives the
    counts, and leaves ``rng`` in the state, of one call per row."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return rng.multinomial(shots, probs / np.sum(probs, axis=-1, keepdims=True))


def prob_jacobian(params: GeneratorParams) -> np.ndarray:
    """Jacobian d p_j / d theta of the output probabilities, via the
    parameter-shift rule [p(t + pi/2) - p(t - pi/2)] / 2 (exact for RY).

    Shape (2**n, (depth+1)*n); columns are layer-major, i.e. column
    layer*n + (qubit-1).  The independent oracle for ``adjoint_gradient``.
    """
    jac = np.empty((2**params.n_qubits, params.angles.size))
    for col, (layer, qubit) in enumerate(np.ndindex(params.angles.shape)):
        shifted = params.angles.copy()
        shifted[layer, qubit] += np.pi / 2
        p_plus = probabilities(run_generator_circuit(replace(params, angles=shifted)))
        shifted[layer, qubit] -= np.pi
        p_minus = probabilities(run_generator_circuit(replace(params, angles=shifted)))
        jac[:, col] = (p_plus - p_minus) / 2.0
    return jac
