"""Build and inspect the RY/CZ generator circuit.

Walks through the real-amplitude engine: one-layer circuits as single
gates, the entangling block as a sign vector, the layered circuit,
measuring, and exact gradients from one adjoint sweep, checked against
the parameter-shift rule and a finite difference.
"""

import numpy as np

from qbde.qsim import (
    GeneratorParams,
    adjoint_gradient,
    entangler_pairs,
    entangler_signs,
    prob_jacobian,
    probabilities,
    run_generator_circuit,
    sample,
)

# ---------------------------------------------------------------------
# Single gates as one-layer circuits.  Row 0 of the angles rotates each
# qubit of |0...0>; qubit 1 is the most significant bit, so for two
# qubits the basis order is |00>, |01>, |10>, |11>.  RY and CZ are real,
# so the amplitudes are plain floats.
# ---------------------------------------------------------------------
print("|00> amplitudes:", run_generator_circuit(GeneratorParams(2, [[0.0, 0.0]])))
print("RY(pi/2) on qubit 1:",
      run_generator_circuit(GeneratorParams(2, [[np.pi / 2, 0.0]])))

# A second row applies the entangling block (one CZ for two qubits), then
# its own rotations: here none, so the CZ's phase flip on |11> shows.
amps = run_generator_circuit(GeneratorParams(2, [[np.pi / 2, np.pi], [0.0, 0.0]]))
print("RY(pi/2) x RY(pi), then CZ:", np.round(amps, 6))
print("probabilities:", np.round(probabilities(amps), 6))
print("CZ block as a sign vector:", entangler_signs(2))

# ---------------------------------------------------------------------
# The layered circuit: one input-preparation RY row, then alternating
# CZ entangling blocks and RY rows.  All angles at pi/2 in row 0 with no
# further layers gives the uniform distribution.
# ---------------------------------------------------------------------
uniform = GeneratorParams(4, np.concatenate([
    np.full((1, 4), np.pi / 2), np.zeros((2, 4))]))
print("\nentangling block (ring):", entangler_pairs(4))
print("uniform circuit probabilities:",
      np.round(probabilities(run_generator_circuit(uniform)), 4))

rng = np.random.default_rng(7)
params = GeneratorParams(3, rng.uniform(-np.pi, np.pi, size=(4, 3)))
amps = run_generator_circuit(params)
p = probabilities(amps)
print("\nrandom 3-qubit, depth-3 circuit:")
print("  probabilities:", np.round(p, 4), " sum =", round(float(p.sum()), 12))

# ---------------------------------------------------------------------
# Measurement: seeded sampling returns a reproducible histogram.
# ---------------------------------------------------------------------
counts = sample(p, 10_000, np.random.default_rng(0))
print("  10k-shot histogram:", counts)
print("  empirical vs exact max gap:",
      round(float(np.max(np.abs(counts / 10_000 - p))), 4))

# ---------------------------------------------------------------------
# Exact gradients.  Training needs dp . dp/dtheta, where dp is the loss
# gradient with respect to the probabilities.  One adjoint sweep back
# from the final state gives it for every angle at once; the
# parameter-shift rule needs two circuit runs per angle for the full
# jacobian.  Compare both with a central finite difference.
# ---------------------------------------------------------------------
dp = rng.normal(size=8)
adjoint = adjoint_gradient(params, amps, dp)
shift = (dp @ prob_jacobian(params)).reshape(params.angles.shape)
h = 1e-6
fd = np.empty_like(params.angles)
for layer, qubit in np.ndindex(params.angles.shape):
    shifted = params.angles.copy()
    shifted[layer, qubit] += h
    up = dp @ probabilities(run_generator_circuit(GeneratorParams(3, shifted)))
    shifted[layer, qubit] -= 2 * h
    down = dp @ probabilities(run_generator_circuit(GeneratorParams(3, shifted)))
    fd[layer, qubit] = (up - down) / (2 * h)
print("\ngradient of dp . p for layer 1 (qubits 1..3):")
print("  adjoint sweep:        ", np.round(adjoint[1], 6))
print("  parameter shift:      ", np.round(shift[1], 6))
print("  finite difference:    ", np.round(fd[1], 6))
print("max |adjoint - shift| over all angles:", float(np.max(np.abs(adjoint - shift))))
print("max |adjoint - finite difference|:   ", float(np.max(np.abs(adjoint - fd))))
