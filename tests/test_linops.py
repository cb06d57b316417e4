import numpy as np
import pytest

from tnpmc import boson_ops, expectation, hermitian_eig, pauli_ops, split_hermitian, split_positive
from tnpmc.errors import DimensionMismatch, NonHermitianInput
from tnpmc.linops import expectations_rows, phase_fix, phase_fix_rows

from helpers import canonical_order_loop, expectations_rows_oracle, random_hermitian, random_state

P = pauli_ops()


def test_eig_sigma_z():
    eig = hermitian_eig(P.z)
    assert np.allclose(eig.values, [-1.0, 1.0])
    # ascending order puts |1> first; phases fixed real positive
    assert np.allclose(eig.vectors[:, 0], [0.0, 1.0])
    assert np.allclose(eig.vectors[:, 1], [1.0, 0.0])


def test_eig_identity_degenerate():
    eig = hermitian_eig(np.eye(3, dtype=complex))
    assert np.allclose(eig.values, np.ones(3))
    assert np.allclose(eig.reconstruct(), np.eye(3), atol=1e-12)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_hermitian(rng, 4, scale=3.0)
        eig = hermitian_eig(a)
        assert np.abs(eig.reconstruct() - a).max() <= 1e-9 * max(1.0, np.abs(a).max())
        overlaps = eig.vectors.conj().T @ eig.vectors
        assert np.abs(overlaps - np.eye(4)).max() <= 1e-9


def test_eig_deterministic_ordering():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 5)
    e1 = hermitian_eig(a)
    e2 = hermitian_eig(a.copy())
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def _eig_inputs():
    """Random Hermitian matrices at d = 1..20 (generic, with repeated eigenvalues,
    with near-zero eigenvalues), the zero matrix, the identity and a rank-2 a rho a^dag."""
    rng = np.random.default_rng(2511)
    mats = [np.zeros((5, 5), dtype=complex), np.eye(7, dtype=complex)]
    a = boson_ops(20).a
    psi, phi = random_state(rng, 20), random_state(rng, 20)
    rho = 0.6 * np.outer(psi, psi.conj()) + 0.4 * np.outer(phi, phi.conj())
    mats.append(a @ rho @ a.conj().T)
    for d in range(1, 21):
        for _ in range(4):
            mats.append(random_hermitian(rng, d))
            u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            repeated = rng.choice([-1.0, 0.5, 2.0], size=d)
            near_zero = np.where(rng.random(d) < 0.5, 1e-15 * rng.normal(size=d), rng.normal(size=d))
            for vals in (repeated, near_zero):
                mats.append((u * vals) @ u.conj().T)
    return mats


def test_eig_canonical_order_bit_for_bit():
    # the per-column loop is the oracle: values and vectors must be byte-equal
    degenerate = 0
    for a in _eig_inputs():
        got = hermitian_eig(a)
        values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
        want_values, want_vectors = canonical_order_loop(values, vectors)
        assert got.values.shape == want_values.shape and got.vectors.shape == want_vectors.shape
        assert got.values.tobytes() == want_values.tobytes()
        assert got.vectors.tobytes() == want_vectors.tobytes()
        degenerate += bool((np.diff(values) <= 1e-12 * max(1.0, np.abs(values).max())).any())
    assert degenerate >= 100  # the tie-breaking sort is exercised


def test_eig_of_a_stack_equals_separate_calls_bit_for_bit():
    # one eigh call per stack: each matrix's spectrum must be byte-equal to its
    # own call and to the per-column oracle
    by_dim: dict[int, list] = {}
    for a in _eig_inputs():
        by_dim.setdefault(a.shape[0], []).append(a)
    for d, mats in by_dim.items():
        stack = hermitian_eig(np.stack(mats))
        assert stack.values.shape == (len(mats), d) and stack.vectors.shape == (len(mats), d, d)
        for k, a in enumerate(mats):
            one = hermitian_eig(a)
            values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
            want_values, want_vectors = canonical_order_loop(values, vectors)
            for got in (stack[k], one):
                assert got.values.tobytes() == want_values.tobytes()
                assert got.vectors.tobytes() == want_vectors.tobytes()
        assert np.abs(stack.reconstruct() - np.stack(mats)).max() <= 1e-9 * max(1.0, np.abs(mats).max())


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # in a stack, the first offending matrix is named, against its own tolerance
    stack = np.stack([np.eye(2), np.array([[0.0, 1e-6], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NonHermitianInput, match="matrix 2 of the stack deviates from Hermiticity by 1.000e"):
        hermitian_eig(stack, tol=np.array([1e-10, 1e-5, 1e-5]))
    hermitian_eig(stack[:2], tol=np.array([1e-10, 1e-5]))


def test_split_hermitian_lowering_operator():
    # sigma_minus = (sigma_x + i sigma_y)/2 in the ground=|0> convention
    xh, xa = split_hermitian(P.minus)
    assert np.allclose(xh, P.x / 2)
    assert np.allclose(xa, P.y / 2)
    xh, xa = split_hermitian(P.plus)
    assert np.allclose(xh, P.x / 2)
    assert np.allclose(xa, -P.y / 2)


def test_split_hermitian_fixed_point_and_recombination():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 3)
    xh, xa = split_hermitian(h)
    assert np.allclose(xh, h)
    assert np.abs(xa).max() < 1e-15
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    xh, xa = split_hermitian(x)
    assert np.abs(xh + 1j * xa - x).max() <= 1e-12
    assert np.abs(xh - xh.conj().T).max() <= 1e-14
    assert np.abs(xa - xa.conj().T).max() <= 1e-14


def test_split_positive_sigma_z():
    mu_p, rho_p, mu_m, rho_m = split_positive(P.z)
    assert mu_p == pytest.approx(1.0)
    assert mu_m == pytest.approx(1.0)
    assert np.allclose(rho_p, np.diag([1.0, 0.0]))
    assert np.allclose(rho_m, np.diag([0.0, 1.0]))


def test_split_positive_projector():
    proj = np.diag([1.0, 0.0]).astype(complex)
    mu_p, rho_p, mu_m, rho_m = split_positive(proj)
    assert mu_p == pytest.approx(1.0)
    assert mu_m == 0.0
    assert rho_m is None
    assert np.allclose(rho_p, proj)


def test_split_positive_recombination():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = random_hermitian(rng, 5, scale=2.0)
        mu_p, rho_p, mu_m, rho_m = split_positive(a)
        rec = np.zeros_like(a)
        if rho_p is not None:
            rec = rec + mu_p * rho_p
            assert np.trace(rho_p).real == pytest.approx(1.0)
            assert np.linalg.eigvalsh(rho_p).min() >= -1e-12
        if rho_m is not None:
            rec = rec - mu_m * rho_m
        assert np.abs(rec - a).max() <= 1e-10


def test_expectation_examples():
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    assert expectation(P.z, ket0) == pytest.approx(1.0)
    assert expectation(P.x, ket0) == pytest.approx(0.0)
    gamma_l = P.plus @ P.minus  # |1><1| for unit-rate decay
    assert expectation(gamma_l, ket1) == pytest.approx(1.0)


def test_expectation_linearity_and_phase_invariance():
    rng = np.random.default_rng(3)
    psi = random_state(rng, 4)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    lhs = expectation(2.0 * a + 1.5 * b, psi)
    rhs = 2.0 * expectation(a, psi) + 1.5 * expectation(b, psi)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    phase = np.exp(1j * 0.7)
    assert expectation(a, phase * psi) == pytest.approx(expectation(a, psi), abs=1e-12)
    assert abs(expectation(a, psi).imag) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 20])
@pytest.mark.parametrize("n", [0, 1, 700])
def test_expectations_rows_match_the_three_operand_form(d, n):
    rng = np.random.default_rng(100 * d + n)
    a = random_hermitian(rng, d, scale=2.0)
    states = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    got = expectations_rows(a, states)
    want = expectations_rows_oracle(a, states)
    assert got.shape == want.shape == (n,)
    scale = np.abs(a).max() * (np.abs(states) ** 2).sum(axis=1)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        expectation(np.eye(3), np.array([1.0, 0.0]))


def test_phase_fix():
    psi = np.exp(1j * 1.3) * np.array([0.6, 0.8j])
    fixed = phase_fix(psi)
    assert fixed[0].imag == pytest.approx(0.0, abs=1e-15)
    assert fixed[0].real > 0
    rows = phase_fix_rows(np.stack([psi, 1j * psi]))
    assert np.allclose(rows[0], rows[1], atol=1e-14)
