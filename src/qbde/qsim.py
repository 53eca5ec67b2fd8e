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
gives every angle's gradient (Jones & Gacon, arXiv:2009.02823).

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

    @property
    def n_params(self) -> int:
        return self.angles.size


def entangler_pairs(n_qubits: int) -> list[tuple[int, int]]:
    """Qubit pairs of one entangling block.  The wrap-around pair (n, 1) is
    dropped for n <= 2: CZ is symmetric, so on two qubits the ring would
    apply the same gate twice and cancel."""
    pairs = [(i, i + 1) for i in range(1, n_qubits)]
    if n_qubits > 2:
        pairs.append((n_qubits, 1))
    return pairs


@lru_cache(maxsize=None)
def entangler_signs(n_qubits: int) -> np.ndarray:
    """Diagonal of one entangling block, its own inverse: each CZ negates
    the basis states where both of its qubits are 1.  Cached, read-only."""
    idx, signs = np.arange(2**n_qubits), np.ones(2**n_qubits)
    for a, b in entangler_pairs(n_qubits):
        signs[(idx >> (n_qubits - a)) & (idx >> (n_qubits - b)) & 1 == 1] *= -1.0
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=1)
def _layers(n: int, raw: bytes) -> np.ndarray:
    """The circuit of angles ``raw`` (``angles.tobytes()``) as ``depth+1``
    read-only 2**n x 2**n matrices acting on row vectors: ``state @ M[l]``
    applies layer l and ``state @ M[l].T`` undoes it.  The last build is
    cached, so a batch step's forward and adjoint sweeps share it."""
    half = np.frombuffer(raw).reshape(-1, n, 1) / 2.0
    pick, xor, signs = _tables(n, len(half))
    cs = np.concatenate([np.cos(half), np.sin(half)], axis=-1).reshape(len(half), -1)
    mats = np.take(np.take(cs, pick, axis=1).prod(axis=1), xor, axis=1) * signs
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=8)
def _tables(n: int, n_layers: int) -> tuple[np.ndarray, ...]:
    """Gathers and signs that build the layers from each row's (cos, sin)
    pairs.  RY(t).T = [[c, s], [-s, c]], so the Kronecker product of a row
    holds at (i, j) c_q where bit q of i and j agree, else s_q, negated per
    qubit that is 1 in i and 0 in j; layers 1..depth also take CZ signs."""
    idx = np.arange(2**n)
    bits = (idx >> np.arange(n - 1, -1, -1)[:, None]) & 1   # qubit q in row q-1
    sign = np.prod(1.0 - 2.0 * (bits[:, :, None] & 1 - bits[:, None, :]), axis=0)
    signs = np.repeat([sign, entangler_signs(n)[:, None] * sign],
                      [1, n_layers - 1], axis=0)
    return 2 * np.arange(n)[:, None] + bits, idx[:, None] ^ idx, signs


def run_generator_circuit(params: GeneratorParams) -> np.ndarray:
    """Real amplitudes of the circuit's output state, length 2**n.  Layer 0
    rotates |0...0> into the input state; each later layer applies the
    entangling block and then its RY rotations."""
    mats = _layers(params.n_qubits, params.angles.tobytes())
    state = mats[0, 0].copy()  # |0...0> @ M[0]
    for mat in mats[1:]:
        state = state.dot(mat)
    return state


def probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """Born probabilities amplitude_j**2 of a real state."""
    return np.square(amplitudes)


def adjoint_gradient(params: GeneratorParams, amplitudes: np.ndarray,
                     dp: np.ndarray) -> np.ndarray:
    """dp . dp/dtheta for every angle, shaped like ``params.angles``, where
    ``amplitudes`` is ``run_generator_circuit(params)`` and ``dp`` the loss
    gradient with respect to the output probabilities.  The sweep undoes
    the layers on two rows: the state, and the adjoint dp*psi (half of
    d loss / d psi) pulled back to the same point.  dRY(t)/dt = RY(t) Y/2
    with Y = [[0, -1], [1, 0]], and a layer's rotations commute, so each of
    its angles gets adjoint . Y_q state before the layer is undone."""
    n, depth = params.n_qubits, params.depth
    mats = _layers(n, params.angles.tobytes())
    pairs = np.empty((depth + 1, 2, 2**n))  # (state, adjoint) before each layer
    pairs[depth] = amplitudes, np.asarray(dp, dtype=float) * amplitudes
    for layer in range(depth, 0, -1):
        pairs[layer - 1] = pairs[layer].dot(mats[layer].T)
    idx = np.arange(2**n)
    bits = 1 << np.arange(n - 1, -1, -1)[:, None]       # qubit q in row q-1
    flip, flip_sign = idx ^ bits, np.where(idx & bits, 1.0, -1.0)   # Y_q
    return ((flip_sign * pairs[:, 0, flip]) @ pairs[:, 1, :, None])[..., 0]


def sample(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram of ``shots`` measurements drawn from output probabilities."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return rng.multinomial(shots, probs / np.sum(probs))


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
