"""Real-amplitude simulation of RY/CZ generator circuits, with adjoint
gradients.

Conventions, fixed across the package:

* Qubits are numbered 1..n and qubit 1 is the most significant bit of a
  basis index, so for n=2 the basis order is |00>, |01>, |10>, |11>.
* RY(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].
* The entangling block is a fixed layer of CZ gates: a ring
  (1,2), (2,3), ..., (n-1,n), (n,1), or an open chain without the
  wrap-around pair.  For n <= 2 the ring degenerates to the chain.

RY and CZ are real, so amplitudes are real floats.  One forward sweep
gives the final state; one reverse (adjoint) sweep from it gives every
angle's gradient (Jones & Gacon, arXiv:2009.02823).

All public operations are pure: they return new values and never mutate
their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

MAX_QUBITS = 12  # dense amplitudes stay desk-scale

ENTANGLERS = ("ring", "chain")


@dataclass
class GeneratorParams:
    """Rotation angles of the generator circuit.

    ``angles`` has shape (depth+1, n_qubits); row 0 prepares the input
    state from |0...0> and rows 1..depth are the trainable layers that
    each follow one entangling block.
    """

    n_qubits: int
    angles: np.ndarray
    entangler: str = "ring"

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.ndim != 2 or self.angles.shape[1] != self.n_qubits:
            raise ValueError(
                f"angles must have shape (depth+1, {self.n_qubits}), "
                f"got {self.angles.shape}"
            )
        if self.angles.shape[0] < 1:
            raise ValueError("angles needs at least the input-preparation row")
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("angles must be finite")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        if self.entangler not in ENTANGLERS:
            raise ValueError(f"entangler must be one of {ENTANGLERS}")

    @property
    def depth(self) -> int:
        return self.angles.shape[0] - 1

    @property
    def n_params(self) -> int:
        return self.angles.size


def entangler_pairs(n_qubits: int, topology: str = "ring") -> list[tuple[int, int]]:
    """Qubit pairs of one entangling block.

    The wrap-around pair (n, 1) is dropped for n <= 2: CZ is symmetric, so
    on two qubits the ring would apply the same gate twice and cancel.
    """
    if topology not in ENTANGLERS:
        raise ValueError(f"entangler must be one of {ENTANGLERS}")
    pairs = [(i, i + 1) for i in range(1, n_qubits)]
    if topology == "ring" and n_qubits > 2:
        pairs.append((n_qubits, 1))
    return pairs


def entangler_signs(n_qubits: int, topology: str = "ring") -> np.ndarray:
    """Diagonal of one entangling block, its own inverse: each CZ negates
    the basis states where both of its qubits are 1."""
    idx = np.arange(2**n_qubits)
    signs = np.ones(2**n_qubits)
    for a, b in entangler_pairs(n_qubits, topology):
        signs[(idx >> (n_qubits - a)) & (idx >> (n_qubits - b)) & 1 == 1] *= -1.0
    return signs


def _rotate(states: np.ndarray, n_qubits: int, qubit: int,
            angle: float) -> np.ndarray:
    """RY(angle) on ``qubit`` of every row of ``states``."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    # The target qubit is the third axis; more significant qubits lead.
    rows = states.shape[0]
    view = states.reshape(rows, 2 ** (qubit - 1), 2, 2 ** (n_qubits - qubit))
    return (np.array([[c, -s], [s, c]]) @ view).reshape(rows, -1)


def run_generator_circuit(params: GeneratorParams) -> np.ndarray:
    """Real amplitudes of the circuit's output state, length 2**n.

    Layer 0 rotates |0...0> into the input state; each remaining layer
    applies the entangling block and then its RY rotations.
    """
    n = params.n_qubits
    signs = entangler_signs(n, params.entangler)
    state = np.zeros((1, 2**n))
    state[0, 0] = 1.0
    for layer, row in enumerate(params.angles):
        if layer:
            state = state * signs
        for qubit, angle in enumerate(row, start=1):
            state = _rotate(state, n, qubit, angle)
    return state[0]


def probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """Born probabilities amplitude_j**2 of a real state."""
    return np.square(amplitudes)


def adjoint_gradient(params: GeneratorParams, amplitudes: np.ndarray,
                     dp: np.ndarray) -> np.ndarray:
    """dp . dp/dtheta for every angle, shaped like ``params.angles``.

    ``amplitudes`` is ``run_generator_circuit(params)`` and ``dp`` the
    loss gradient with respect to the output probabilities.  The sweep
    undoes the circuit layer by layer on two rows: the state, and the
    adjoint dp*psi (half of d loss / d psi) pulled back to the same point.
    dRY(t)/dt = RY(t) Y/2 with Y = [[0, -1], [1, 0]], and one layer's
    rotations commute, so each of its angles gets adjoint . Y_q state
    before the layer is undone.
    """
    n = params.n_qubits
    signs = entangler_signs(n, params.entangler)
    idx = np.arange(2**n)
    bits = 1 << np.arange(n - 1, -1, -1)[:, None]       # qubit q in row q-1
    flip, flip_sign = idx ^ bits, np.where(idx & bits, 1.0, -1.0)   # Y_q
    pair = np.stack([amplitudes, np.asarray(dp, dtype=float) * amplitudes])
    grad = np.empty_like(params.angles)
    for layer in range(params.depth, -1, -1):
        grad[layer] = (flip_sign * pair[0][flip]) @ pair[1]
        if layer == 0:
            break
        for qubit, angle in enumerate(params.angles[layer], start=1):
            pair = _rotate(pair, n, qubit, -angle)
        pair = pair * signs
    return grad


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
