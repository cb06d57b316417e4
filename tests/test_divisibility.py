import numpy as np
import pytest

from tnpmc import (
    DynamicalMap,
    TimeGrid,
    TimeScalar,
    TnpModel,
    choi_eigenvalues,
    divisibility_report,
    heisenberg_qubit,
    pauli_ops,
)
from tnpmc.divisibility import bloch_forms, choi_matrices, max_bloch_norms
from tnpmc.exact import intermediate_matrices, propagate_map, vec

from helpers import bloch_scan_norms, criterion_8_model, qubit_decay_model

P = pauli_ops()


def identity_map(d=2):
    return DynamicalMap(dim=d, matrix=np.eye(d * d, dtype=complex), time=0.0)


def depolarizing_map():
    m = np.outer(vec(np.eye(2) / 2), vec(np.eye(2)).conj())
    return DynamicalMap(dim=2, matrix=m.astype(complex), time=0.0)


def unitary_map(theta):
    u = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    return DynamicalMap(dim=2, matrix=np.kron(u.conj(), u), time=0.0)


def bloch_form(dynmap):
    """(m, c) of one qubit map."""
    m, c = bloch_forms(dynmap.matrix[None])
    return m[0], c[0]


def max_bloch_norm(m, c):
    return float(max_bloch_norms(np.asarray(m)[None], np.asarray(c)[None])[0])


def test_choi_identity():
    eigs = choi_eigenvalues(identity_map())
    assert np.allclose(eigs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_choi_depolarizing():
    eigs = choi_eigenvalues(depolarizing_map())
    assert np.allclose(eigs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_choi_state_hermitian_unit_trace():
    choi = choi_matrices(unitary_map(0.7).matrix[None], 2)[0]
    assert np.abs(choi - choi.conj().T).max() <= 1e-12
    assert np.trace(choi).real == pytest.approx(1.0)


def random_map(rng, d):
    m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return DynamicalMap(dim=d, matrix=m, time=0.0)


def test_choi_and_bloch_match_their_definitions():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        dynmap = random_map(rng, d)
        j = np.zeros((d * d, d * d), dtype=complex)
        for a in range(d):
            for b in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[a, b] = 1.0
                j += np.kron(dynmap.apply(e), e) / d
        assert np.abs(choi_matrices(dynmap.matrix[None], d)[0] - 0.5 * (j + j.conj().T)).max() <= 1e-14
    dynmap = random_map(rng, 2)
    paulis = (P.x, P.y, P.z)
    m, c = bloch_form(dynmap)
    for a in range(3):
        assert c[a] == pytest.approx(0.5 * np.trace(paulis[a] @ dynmap.apply(P.identity)).real, abs=1e-14)
        for b in range(3):
            want = 0.5 * np.trace(paulis[a] @ dynmap.apply(paulis[b])).real
            assert m[a, b] == pytest.approx(want, abs=1e-14)


def test_bloch_identity_and_depolarizing():
    m, c = bloch_form(identity_map())
    assert np.allclose(m, np.eye(3), atol=1e-12)
    assert np.abs(c).max() <= 1e-12
    m, c = bloch_form(depolarizing_map())
    assert np.abs(m).max() <= 1e-12
    assert np.abs(c).max() <= 1e-12


def test_bloch_rotation():
    theta = 0.6
    m, _ = bloch_form(unitary_map(theta))
    expected = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.abs(m - expected).max() <= 1e-8


def test_max_bloch_norm_examples():
    assert max_bloch_norm(np.eye(3), np.zeros(3)) == pytest.approx(1.0, abs=1e-9)
    assert max_bloch_norm(np.diag([1.1, 1.0, 1.0]), np.zeros(3)) == pytest.approx(1.1, abs=1e-4)
    assert max_bloch_norm(0.5 * np.eye(3), np.array([0.6, 0.0, 0.0])) == pytest.approx(1.1, abs=1e-4)


def test_max_bloch_norm_random_oracle():
    # with c = 0 the exact maximum is the largest singular value
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = rng.normal(size=(3, 3))
        got = max_bloch_norm(m, np.zeros(3))
        assert got == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], abs=1e-4)


def test_report_cp_divisible_lindblad():
    report = divisibility_report(qubit_decay_model(), TimeGrid(0.0, 1.0, 0.02))
    assert report.min_choi_eigenvalues.min() >= -1e-8
    assert report.max_bloch_norms.max() <= 1.0 + 1e-6
    # trace-one normalization for the TP intermediate maps
    assert np.abs(report.choi_eigenvalues.sum(axis=1) - 1.0).max() <= 1e-9
    rows = report.rows()
    assert len(rows) == 50
    assert rows[0][0] == pytest.approx(0.01)


def test_report_unitary_model():
    m = TnpModel(dim=2, hamiltonian=0.5 * P.z, channels=())
    report = divisibility_report(m, TimeGrid(0.0, 1.0, 0.05))
    assert np.abs(report.min_choi_eigenvalues).max() <= 1e-8
    assert np.abs(report.max_bloch_norms - 1.0).max() <= 1e-6


@pytest.mark.parametrize("adjoint", [False, True], ids=["direct", "adjoint"])
def test_report_matches_per_interval_reference(adjoint):
    model = criterion_8_model()
    grid = TimeGrid(0.0, 0.15, 1e-3)
    report = divisibility_report(model, grid, adjoint=adjoint)
    maps = propagate_map(model, grid)
    if adjoint:
        maps = [m.adjoint() for m in maps]
    n = grid.n_steps
    inter = [DynamicalMap(dim=2, matrix=intermediate_matrices(a.matrix[None], b.matrix[None], np.array([a.time]))[0],
                          time=b.time) for a, b in zip(maps[:-1], maps[1:])]
    times = [0.5 * (grid.time_at(s) + grid.time_at(s + 1)) for s in range(n)]
    eigs = np.stack([choi_eigenvalues(m) for m in inter])
    norms = np.array([max_bloch_norm(*bloch_form(m)) for m in inter])
    assert report.choi_eigenvalues.shape == (n, 4) and report.max_bloch_norms.shape == (n,)
    assert np.array_equal(report.times, times)
    assert np.abs(report.choi_eigenvalues - eigs).max() <= 1e-12
    assert np.abs(report.max_bloch_norms - norms).max() <= 1e-12


def test_bloch_scan_is_byte_equal_to_the_row_norm_scan():
    # without the ascent, max_bloch_norms is the scan: the largest norm over the
    # sphere points, byte for byte that of np.linalg.norm over the image rows
    rng = np.random.default_rng(5)
    m = rng.normal(size=(300, 3, 3)) * rng.uniform(1e-3, 2.0, size=(300, 1, 1))
    c = rng.normal(size=(300, 3)) * rng.uniform(0.0, 1.0, size=(300, 1))
    c[:50] = 0.0
    m[50:60] = np.eye(3)
    # and the forms of the criterion-8 intermediate maps, as the report scans them
    maps = np.stack([mp.matrix for mp in propagate_map(criterion_8_model(), TimeGrid(0.0, 0.05, 1e-3))])
    fm, fc = bloch_forms(intermediate_matrices(maps[:-1], maps[1:], np.zeros(maps.shape[0] - 1)))
    for mm, cc in ((m, c), (fm, fc)):
        for n_points in (4096, 37):
            got = max_bloch_norms(mm, cc, n_points=n_points, refine_steps=0)
            assert got.tobytes() == bloch_scan_norms(mm, cc, n_points).tobytes()


def test_report_bloch_norms_nan_beyond_qubits():
    model = TnpModel(dim=3, hamiltonian=np.diag([0.0, 1.0, 2.0]).astype(complex), channels=())
    report = divisibility_report(model, TimeGrid(0.0, 0.1, 0.02))
    assert report.choi_eigenvalues.shape == (5, 9)
    assert np.isnan(report.max_bloch_norms).all()
    # unitary intermediate maps have rank-1 Choi states, up to the RK4 error
    assert np.abs(report.choi_eigenvalues[:, :-1]).max() <= 1e-8
    assert np.abs(report.choi_eigenvalues[:, -1] - 1.0).max() <= 1e-8


def test_picture_dependence_smoke():
    model = heisenberg_qubit(
        TimeScalar.constant(20.0),
        TimeScalar.sinusoid(0.9, 40.0, 0.0, 1.0),
        TimeScalar.exponential(0.5, -1.0),
    )
    grid = TimeGrid(0.0, 0.3, 2e-3)
    direct = divisibility_report(model, grid)
    assert direct.min_choi_eigenvalues.min() >= -1e-8
    adjoint = divisibility_report(model, grid, adjoint=True)
    assert adjoint.min_choi_eigenvalues.min() < -1e-6
    assert adjoint.max_bloch_norms.max() > 1.0 + 1e-6
