import numpy as np
import pytest

from tnpmc import (
    DynamicalMap,
    JumpChannel,
    TimeGrid,
    TnpModel,
    integrate,
    intermediate_map,
    pauli_ops,
    propagate_map,
    solve_hierarchy,
    tilted_lindbladian,
)
from tnpmc.errors import InvalidParameter, NonFiniteState, SingularMap
from tnpmc.exact import intermediate_matrices, vec
from tnpmc.model import SourceTerm, TimeScalar

from helpers import (
    criterion_8_model, propagate_map_loop, qubit_decay_model, random_hermitian, random_tnp_model, rk4_every_stage,
)

P = pauli_ops()
KET1 = np.array([0.0, 1.0], dtype=complex)
RHO1 = np.outer(KET1, KET1.conj())


def test_time_grid_validation():
    grid = TimeGrid(0.0, 1.0, 1e-3)
    assert grid.n_steps == 1000
    assert grid.times()[-1] == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        TimeGrid(0.0, 1.0, -0.1)
    with pytest.raises(InvalidParameter):
        TimeGrid(0.0, 1.0, 0.3)


def test_amplitude_damping_population():
    grid = TimeGrid(0.0, 1.0, 1e-3)
    traj = integrate(qubit_decay_model(), RHO1, grid)
    pop = traj.values[-1, 1, 1].real
    assert abs(pop - np.exp(-1.0)) <= 1e-8
    assert abs(np.trace(traj.values[-1]).real - 1.0) <= 1e-10


def test_trace_decay_with_shifted_gamma():
    grid = TimeGrid(0.0, 1.0, 1e-3)
    traj = integrate(qubit_decay_model(gamma_shift=0.5), RHO1, grid)
    traces = np.trace(traj.values, axis1=1, axis2=2).real
    assert np.abs(traces - np.exp(-0.5 * grid.times())).max() <= 1e-8


def test_zero_generator_constant():
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=())
    grid = TimeGrid(0.0, 1.0, 0.05)
    rho0 = 0.5 * np.eye(2, dtype=complex)
    traj = integrate(m, rho0, grid)
    assert np.abs(traj.values - rho0).max() == 0.0


def test_rk4_order():
    m = qubit_decay_model()
    ref = integrate(m, RHO1, TimeGrid(0.0, 1.0, 0.05 / 8)).values[-1]
    err = []
    for dt in (0.05, 0.025):
        got = integrate(m, RHO1, TimeGrid(0.0, 1.0, dt)).values[-1]
        err.append(np.abs(got - ref).max())
    ratio = err[0] / err[1]
    assert 10.0 <= ratio <= 24.0


def test_non_finite_detection():
    blow = TnpModel(
        dim=2, hamiltonian=np.zeros((2, 2)), channels=(),
        gamma=(-1e8) * np.eye(2, dtype=complex),
    )
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState):
        integrate(blow, RHO1, TimeGrid(0.0, 10.0, 0.1))


def test_integrate_stack_equals_separate_runs():
    rng = np.random.default_rng(8)
    model = random_tnp_model(rng, 3)
    grid = TimeGrid(0.0, 0.2, 0.01)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(5)])
    traj = integrate(model, stack, grid)
    assert traj.values.shape == (grid.n_steps + 1, 5, 3, 3)
    for k in range(5):
        assert np.array_equal(traj.values[:, k], integrate(model, stack[k], grid).values)
    assert np.array_equal(traj.at(0.055), np.stack([integrate(model, x, grid).at(0.055) for x in stack]))


def test_integrate_agrees_with_the_rk4_that_evaluates_every_stage():
    # integrate evaluates the generator at 2n + 1 times in the K form; the oracle
    # evaluates it four times per step term by term. A time-dependent Hamiltonian,
    # rates, Gamma and source make every evaluation time count
    rng = np.random.default_rng(81)
    base = random_tnp_model(rng, 3)
    h0, g0, s0 = base.hamiltonian_at(0.0), base.gamma_at(0.0), random_hermitian(rng, 3)
    s0 = s0 @ s0  # positive
    model = TnpModel(
        dim=3,
        hamiltonian=lambda t: np.cos(3.0 * t) * h0,
        channels=tuple(JumpChannel(TimeScalar.sinusoid(0.4, 5.0, 0.3, ch.rate), ch.op) for ch in base.channels),
        gamma=lambda t: (1.0 + 0.5 * np.sin(2.0 * t)) * g0,
        source=SourceTerm(lambda t: np.exp(-t) * s0),
    )
    grid = TimeGrid(0.0, 0.7, 0.01)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    for rho0 in (stack[0], stack):
        got = integrate(model, rho0, grid).values
        want = rk4_every_stage(model, rho0, grid)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_interpolation_between_grid_values():
    grid = TimeGrid(0.0, 1.0, 0.5)
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=())
    traj = integrate(m, RHO1, grid)
    mid = traj.at(0.25)
    assert np.allclose(mid, RHO1)
    assert np.allclose(traj.at(-1.0), traj.values[0])
    assert np.allclose(traj.at(2.0), traj.values[-1])


# -- hierarchy ----------------------------------------------------------------


def test_hierarchy_mu0_and_initial_values():
    model = tilted_lindbladian(1.0, 0.5, 1.0, 0.2, 0.0, 8)
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = psi0[1] = 1 / np.sqrt(2)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    hier = solve_hierarchy(model, 0, 3, np.outer(psi0, psi0.conj()), grid)
    assert np.abs(hier.moments[0] - 1.0).max() <= 1e-8
    assert all(hier.moments[k, 0] == 0.0 for k in range(1, 4))


def test_hierarchy_first_moment_short_time():
    # d mu_1/dt at t=0 equals gamma (nbar+1) <n>_psi0 = 1.5 * 0.5
    model = tilted_lindbladian(1.0, 0.5, 1.0, 0.2, 0.0, 8)
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = psi0[1] = 1 / np.sqrt(2)
    dt = 1e-4
    hier = solve_hierarchy(model, 0, 1, np.outer(psi0, psi0.conj()), TimeGrid(0.0, dt, dt))
    assert hier.moments[1, -1] / dt == pytest.approx(0.75, abs=1e-3)


def test_hierarchy_matches_tilted_trace():
    from math import factorial

    zeta = 0.02
    model = tilted_lindbladian(1.0, 0.5, 1.0, 0.2, 0.0, 16)
    tilted = tilted_lindbladian(1.0, 0.5, 1.0, 0.2, zeta, 16)
    psi0 = np.zeros(16, dtype=complex)
    psi0[0] = psi0[1] = 1 / np.sqrt(2)
    rho0 = np.outer(psi0, psi0.conj())
    grid = TimeGrid(0.0, 2.0, 1e-2)
    hier = solve_hierarchy(model, 0, 4, rho0, grid)
    trace = np.trace(integrate(tilted, rho0, grid).values, axis1=1, axis2=2).real
    series = sum(zeta**k * hier.moments[k] / factorial(k) for k in range(5))
    assert np.abs(trace - series).max() <= 1e-6


def test_hierarchy_requires_tp_base():
    with pytest.raises(InvalidParameter):
        solve_hierarchy(qubit_decay_model(0.5), 0, 1, RHO1, TimeGrid(0.0, 0.1, 0.01))
    with pytest.raises(InvalidParameter):
        solve_hierarchy(qubit_decay_model(), 3, 1, RHO1, TimeGrid(0.0, 0.1, 0.01))


# -- dynamical maps -----------------------------------------------------------


def test_propagate_map_identity_at_t0():
    maps = propagate_map(qubit_decay_model(), TimeGrid(0.0, 0.1, 0.05))
    assert np.abs(maps[0].matrix - np.eye(4)).max() <= 1e-12
    assert maps[0].time == 0.0


@pytest.mark.parametrize("model, grid", [
    (qubit_decay_model(), TimeGrid(0.0, 1.0, 0.01)),
    (criterion_8_model(), TimeGrid(0.0, 0.15, 1e-3)),
    (random_tnp_model(np.random.default_rng(30), 3), TimeGrid(0.0, 0.2, 0.01)),
], ids=["qubit_decay", "criterion_8", "random_d3"])
def test_propagate_map_matches_per_basis_loop(model, grid):
    maps = propagate_map(model, grid)
    ref = propagate_map_loop(model, grid)
    assert len(maps) == len(ref) == grid.n_steps + 1
    assert [m.time for m in maps] == [r.time for r in ref]
    assert max(np.abs(m.matrix - r.matrix).max() for m, r in zip(maps, ref)) <= 1e-14


def test_propagate_map_unitary_closed_form():
    m = TnpModel(dim=2, hamiltonian=0.5 * P.z, channels=())
    grid = TimeGrid(0.0, np.pi, np.pi / 4000)
    maps = propagate_map(m, grid)
    u = np.diag([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)])
    expected = np.kron(u.conj(), u)  # column-stacking: vec(U rho U^dag)
    assert np.abs(maps[-1].matrix - expected).max() <= 1e-7


def test_propagate_map_trace_preserving_and_linear():
    rng = np.random.default_rng(12)
    maps = propagate_map(qubit_decay_model(), TimeGrid(0.0, 1.0, 0.01))
    final = maps[-1]
    for _ in range(5):
        rho = random_hermitian(rng, 2)
        rho = rho @ rho.conj().T
        rho = rho / np.trace(rho).real
        assert abs(np.trace(final.apply(rho)).real - 1.0) <= 1e-7
    r1 = random_hermitian(rng, 2)
    r2 = random_hermitian(rng, 2)
    lhs = final.apply(0.3 * r1 + 1.7 * r2)
    rhs = 0.3 * final.apply(r1) + 1.7 * final.apply(r2)
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_intermediate_map_identities():
    maps = propagate_map(qubit_decay_model(), TimeGrid(0.0, 1.0, 0.02))
    same = intermediate_map(maps, 10, 10)
    assert np.abs(same.matrix - np.eye(4)).max() <= 1e-9
    inter = intermediate_map(maps, 10, 30)
    recomposed = inter.matrix @ maps[10].matrix
    assert np.abs(recomposed - maps[30].matrix).max() <= 1e-6


def test_intermediate_map_unitary_connection():
    m = TnpModel(dim=2, hamiltonian=0.5 * P.z, channels=())
    grid = TimeGrid(0.0, 1.0, 1e-3)
    maps = propagate_map(m, grid)
    inter = intermediate_map(maps, 200, 700)
    theta = 0.5 * (grid.time_at(700) - grid.time_at(200))
    u = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    assert np.abs(inter.matrix - np.kron(u.conj(), u)).max() <= 1e-7


def test_singular_map_raises():
    bad = DynamicalMap(dim=2, matrix=np.diag([1.0, 1e-15, 1.0, 1.0]).astype(complex), time=0.0)
    good = DynamicalMap(dim=2, matrix=np.eye(4, dtype=complex), time=0.1)
    with pytest.raises(SingularMap):
        intermediate_map([bad, good], 0, 1)


def test_stacked_singularity_check_names_the_earliest_bad_time():
    good = np.eye(4, dtype=complex)
    bad = np.diag([1.0, 1e-15, 1.0, 1.0]).astype(complex)
    infinite = np.full((4, 4), np.inf, dtype=complex)
    start = np.stack([good, good, bad, good, bad])
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    with pytest.raises(SingularMap, match=r"t = 0\.2 has condition number"):
        intermediate_matrices(start, start, times)
    with np.errstate(all="ignore"), pytest.raises(SingularMap, match=r"t = 0\.1 has"):
        intermediate_matrices(np.stack([good, infinite, bad]), np.stack([good] * 3), times[:3])
    assert np.array_equal(intermediate_matrices(start[:2], 2.0 * start[:2], times[:2]), 2.0 * start[:2])


def test_adjoint_is_hilbert_schmidt_adjoint():
    rng = np.random.default_rng(1)
    maps = propagate_map(qubit_decay_model(), TimeGrid(0.0, 0.5, 0.01))
    m = maps[-1]
    adj = m.adjoint()
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    lhs = np.vdot(vec(a), vec(m.apply(b)))
    rhs = np.vdot(vec(adj.apply(a)), vec(b))
    assert lhs == pytest.approx(rhs, abs=1e-12)
