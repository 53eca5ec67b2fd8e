"""Circuit-engine checks against independent oracles: dense matrix algebra
for the forward sweep, parameter shift and finite differences for the
adjoint sweep."""

import numpy as np
import pytest

from qbde import qsim
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


# --------------------------------------------------------------------------
# Oracles: dense matrix algebra, independent of the simulator's update rules
# --------------------------------------------------------------------------

def ry_matrix(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def layer_matrix(n, angles_row):
    u = np.eye(1)
    for i in range(n):  # qubit 1 is the leftmost kron factor (MSB)
        u = np.kron(u, ry_matrix(angles_row[i]))
    return u


def cz_matrix(n, a, b):
    bit_a, bit_b = 1 << (n - a), 1 << (n - b)
    diag = np.ones(2**n)
    for j in range(2**n):
        if j & bit_a and j & bit_b:
            diag[j] = -1.0
    return np.diag(diag)


def entangler_matrix(n):
    ue = np.eye(2**n)
    for a, b in entangler_pairs(n):
        ue = cz_matrix(n, a, b) @ ue
    return ue


def circuit_unitary(params):
    ue = entangler_matrix(params.n_qubits)
    u = layer_matrix(params.n_qubits, params.angles[0])
    for layer in range(1, params.depth + 1):
        u = layer_matrix(params.n_qubits, params.angles[layer]) @ ue @ u
    return u


def zero_state(n):
    return np.eye(2**n)[0]


# The circuit has one entangling block, a ring of CZ gates; the dense
# checks below carry its name in their ids.
BLOCKS = ["ring"]


def random_params(rng, n, depth):
    return GeneratorParams(n, rng.uniform(-np.pi, np.pi, size=(depth + 1, n)))


def one_layer(angles_row):
    """The circuit with only the input-preparation row: one RY per qubit."""
    return GeneratorParams(len(angles_row), np.array([angles_row], dtype=float))


# --------------------------------------------------------------------------
# The zero state and single gates, as one-layer circuits
# --------------------------------------------------------------------------

def test_zero_state_n4():
    amps = run_generator_circuit(one_layer([0.0] * 4))
    assert amps[0] == 1.0
    assert np.all(amps[1:] == 0.0)


def test_zero_state_n1():
    np.testing.assert_array_equal(run_generator_circuit(one_layer([0.0])),
                                  [1.0, 0.0])


def test_zero_state_probabilities():
    np.testing.assert_array_equal(
        probabilities(run_generator_circuit(one_layer([0.0, 0.0]))), [1, 0, 0, 0])


@pytest.mark.parametrize("n", [0, -3, 13])
def test_zero_state_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError):
        GeneratorParams(n, np.zeros((1, max(n, 0))))


def test_amplitudes_are_real():
    amps = run_generator_circuit(random_params(np.random.default_rng(1), 3, 4))
    assert amps.dtype == np.float64
    assert amps.shape == (8,)


def test_ry_zero_angle_is_identity():
    # An appended all-zero row leaves only its entangling block behind.
    rng = np.random.default_rng(1)
    params = random_params(rng, 3, 2)
    padded = GeneratorParams(3, np.vstack([params.angles, np.zeros(3)]))
    np.testing.assert_allclose(run_generator_circuit(padded),
                               entangler_signs(3) * run_generator_circuit(params),
                               atol=1e-15)


def test_ry_qubit_out_of_range():
    # a rotation row wider than the register names a qubit that is not there
    with pytest.raises(ValueError):
        GeneratorParams(2, np.zeros((1, 3)))


def test_ry_pi_flips_zero_to_one():
    np.testing.assert_allclose(run_generator_circuit(one_layer([np.pi])),
                               [0.0, 1.0], atol=1e-15)


def test_ry_half_pi_makes_equal_superposition():
    np.testing.assert_allclose(run_generator_circuit(one_layer([np.pi / 2])),
                               [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_ry_matches_dense_oracle_on_each_qubit():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for q in range(1, n + 1):
            theta = rng.uniform(-np.pi, np.pi)
            row = [theta if i == q else 0.0 for i in range(1, n + 1)]
            full = np.eye(1)
            for i in range(1, n + 1):
                full = np.kron(full, ry_matrix(theta) if i == q else np.eye(2))
            np.testing.assert_allclose(run_generator_circuit(one_layer(row)),
                                       full @ zero_state(n), atol=1e-12)


def test_ry_layer_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4):
        row = rng.uniform(-np.pi, np.pi, size=n)
        np.testing.assert_allclose(run_generator_circuit(one_layer(row)),
                                   layer_matrix(n, row) @ zero_state(n),
                                   atol=1e-12)


def test_cz_negates_only_the_11_component():
    # |11> from the input row, then CZ, then an all-zero row
    out = run_generator_circuit(GeneratorParams(2, [[np.pi, np.pi], [0.0, 0.0]]))
    np.testing.assert_allclose(out, [0, 0, 0, -1], atol=1e-12)


def test_cz_leaves_01_alone():
    out = run_generator_circuit(GeneratorParams(2, [[0.0, np.pi], [0.0, 0.0]]))
    np.testing.assert_allclose(out, [0, 1, 0, 0], atol=1e-15)


@pytest.mark.parametrize("block", BLOCKS)
def test_entangler_signs_match_dense_cz_product(block):
    for n in range(1, 6):
        np.testing.assert_array_equal(np.diag(entangler_matrix(n)),
                                      entangler_signs(n))


def test_cz_is_an_involution_and_symmetric():
    for n in range(1, 6):
        signs = entangler_signs(n)
        np.testing.assert_array_equal(signs * signs, np.ones(2**n))
        swapped = np.eye(2**n)
        for a, b in entangler_pairs(n):
            swapped = cz_matrix(n, b, a) @ swapped
        np.testing.assert_array_equal(np.diag(swapped), signs)


def test_cz_rejects_equal_or_bad_indices():
    # every CZ of a block joins two distinct qubits of the register
    for n in range(1, 13):
        for a, b in entangler_pairs(n):
            assert a != b and 1 <= a <= n and 1 <= b <= n


def test_gates_preserve_norm_and_invert():
    # Rows [A, 0, -A reversed] undo A: the zero row's block cancels the
    # next block (CZ blocks square to one), leaving RY(-t) after RY(t).
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, depth = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        params = random_params(rng, n, depth)
        amps = run_generator_circuit(params)
        assert abs(np.sum(amps**2) - 1.0) < 1e-10
        undo = np.vstack([params.angles, np.zeros(n), -params.angles[::-1]])
        np.testing.assert_allclose(
            run_generator_circuit(GeneratorParams(n, undo)), zero_state(n),
            atol=1e-12)


# --------------------------------------------------------------------------
# Full circuit
# --------------------------------------------------------------------------

def test_all_zero_angles_keep_the_zero_state():
    params = GeneratorParams(3, np.zeros((4, 3)))
    np.testing.assert_allclose(run_generator_circuit(params), zero_state(3),
                               atol=1e-15)


def test_half_pi_input_layer_is_uniform():
    angles = np.full((1, 4), np.pi / 2)
    out = run_generator_circuit(GeneratorParams(4, angles))
    np.testing.assert_allclose(probabilities(out), np.full(16, 1 / 16), atol=1e-12)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n,depth", [(1, 2), (2, 3), (3, 2), (3, 4)])
def test_circuit_matches_dense_unitary_product(n, depth, block):
    rng = np.random.default_rng(100 * n + depth)
    for _ in range(5):
        params = random_params(rng, n, depth)
        got = run_generator_circuit(params)
        want = circuit_unitary(params) @ zero_state(n)
        np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("block", BLOCKS)
def test_layer_matrices_are_orthogonal_and_match_dense_kron(block):
    # state @ M[layer] applies a layer, so M[layer] is its dense matrix
    # transposed: the RY kron alone for layer 0, after the CZ block later.
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        for depth in (1, 3):
            params = random_params(rng, n, depth)
            mats = qsim._layers(n, params.angles.tobytes())
            assert mats.shape == (depth + 1, 2**n, 2**n)
            ue = entangler_matrix(n)
            for layer, mat in enumerate(mats):
                dense = layer_matrix(n, params.angles[layer])
                want = (dense @ ue if layer else dense).T
                np.testing.assert_allclose(mat, want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(mat @ mat.T, np.eye(2**n),
                                           rtol=0, atol=1e-12)


def test_cached_arrays_are_read_only():
    signs = entangler_signs(4)
    with pytest.raises(ValueError):
        signs[0] = 5.0
    with pytest.raises(ValueError):
        signs *= -1.0
    params = random_params(np.random.default_rng(32), 3, 2)
    mats = qsim._layers(3, params.angles.tobytes())
    with pytest.raises(ValueError):
        mats[1] *= 2.0
    # the cache still holds what the dense oracle says
    np.testing.assert_array_equal(entangler_signs(4),
                                  np.diag(entangler_matrix(4)))
    np.testing.assert_allclose(run_generator_circuit(params),
                               circuit_unitary(params) @ zero_state(3), atol=1e-12)


def test_entangler_pairs_topologies():
    assert entangler_pairs(1) == []
    assert entangler_pairs(2) == [(1, 2)]  # ring degenerates, no double CZ
    assert entangler_pairs(4) == [(1, 2), (2, 3), (3, 4), (4, 1)]


def test_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(2, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        GeneratorParams(2, np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    params = random_params(rng, 3, 3)
    p = probabilities(run_generator_circuit(params))
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-9


def test_circuit_is_deterministic():
    rng = np.random.default_rng(9)
    params = random_params(rng, 3, 2)
    p1 = probabilities(run_generator_circuit(params))
    p2 = probabilities(run_generator_circuit(params))
    np.testing.assert_array_equal(p1, p2)


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

def test_sample_point_mass():
    p = probabilities(run_generator_circuit(one_layer([0.0] * 4)))
    counts = sample(p, 100, np.random.default_rng(0))
    assert counts[0] == 100
    assert counts.sum() == 100


def test_sample_is_seed_deterministic():
    p = probabilities(run_generator_circuit(
        random_params(np.random.default_rng(2), 3, 2)))
    c1 = sample(p, 5000, np.random.default_rng(123))
    c2 = sample(p, 5000, np.random.default_rng(123))
    np.testing.assert_array_equal(c1, c2)


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(np.array([1.0, 0.0, 0.0, 0.0]), 0, np.random.default_rng(0))


def test_sample_uniform_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    angles = np.full((1, 4), np.pi / 2)
    p = probabilities(run_generator_circuit(GeneratorParams(4, angles)))
    counts = sample(p, 100_000, np.random.default_rng(42))
    _, p_value = scipy_stats.chisquare(counts)
    assert p_value > 0.01


# --------------------------------------------------------------------------
# Parameter-shift jacobian (the oracle)
# --------------------------------------------------------------------------

def fd_jacobian(params, h=1e-5):
    jac = np.empty((2**params.n_qubits, params.angles.size))
    for col, (layer, qubit) in enumerate(np.ndindex(params.angles.shape)):
        up = params.angles.copy()
        up[layer, qubit] += h
        down = params.angles.copy()
        down[layer, qubit] -= h
        p_up = probabilities(run_generator_circuit(
            GeneratorParams(params.n_qubits, up)))
        p_down = probabilities(run_generator_circuit(
            GeneratorParams(params.n_qubits, down)))
        jac[:, col] = (p_up - p_down) / (2 * h)
    return jac


def test_jacobian_single_qubit_analytic():
    # p_1 = sin^2(t/2), so dp_1/dt = sin(t)/2
    for theta, want in [(0.0, 0.0), (np.pi / 2, 0.5)]:
        params = GeneratorParams(1, np.array([[theta]]))
        jac = prob_jacobian(params)
        assert jac.shape == (2, 1)
        np.testing.assert_allclose(jac[1, 0], want, atol=1e-12)
        np.testing.assert_allclose(jac[0, 0], -want, atol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    for n, depth in [(1, 1), (2, 2), (3, 2), (3, 4)]:
        params = random_params(rng, n, depth)
        np.testing.assert_allclose(prob_jacobian(params), fd_jacobian(params),
                                   atol=1e-6)


def test_jacobian_columns_sum_to_zero():
    # Probabilities sum to 1 for every parameter value.
    params = random_params(np.random.default_rng(23), 3, 3)
    np.testing.assert_allclose(prob_jacobian(params).sum(axis=0),
                               np.zeros(params.n_params), atol=1e-12)


# --------------------------------------------------------------------------
# Adjoint sweep
# --------------------------------------------------------------------------

@pytest.mark.parametrize("block", BLOCKS)
def test_adjoint_matches_parameter_shift(block):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        n, depth = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        params = random_params(rng, n, depth)
        dp = rng.normal(size=2**n)
        got = adjoint_gradient(params, run_generator_circuit(params), dp)
        assert got.shape == params.angles.shape
        want = (dp @ prob_jacobian(params)).reshape(params.angles.shape)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-12


def test_adjoint_single_qubit_analytic():
    # L = p_1 = sin^2(t/2), so dL/dt = sin(t)/2
    for theta in (0.0, 0.3, np.pi / 2, 2.0):
        params = GeneratorParams(1, np.array([[theta]]))
        grad = adjoint_gradient(params, run_generator_circuit(params),
                                np.array([0.0, 1.0]))
        np.testing.assert_allclose(grad, [[np.sin(theta) / 2]], atol=1e-15)


def test_adjoint_of_a_constant_loss_vanishes():
    # dp = ones is the gradient of sum(p) = 1
    params = random_params(np.random.default_rng(37), 4, 8)
    grad = adjoint_gradient(params, run_generator_circuit(params), np.ones(16))
    np.testing.assert_allclose(grad, np.zeros_like(params.angles), atol=1e-12)


def test_adjoint_leaves_its_inputs_alone():
    rng = np.random.default_rng(41)
    params = random_params(rng, 3, 3)
    amps = run_generator_circuit(params)
    dp = rng.normal(size=8)
    keep = (params.angles.copy(), amps.copy(), dp.copy())
    adjoint_gradient(params, amps, dp)
    for before, after in zip(keep, (params.angles, amps, dp)):
        np.testing.assert_array_equal(before, after)
