import numpy as np
import pytest

from tnpmc import (
    Ensemble,
    JumpChannel,
    TimeGrid,
    TimeScalar,
    TnpModel,
    integrate,
    pauli_ops,
    ro,
)
from tnpmc.errors import NegativeProbability
from tnpmc.mcwf import McwfScheme
from tnpmc.ro import RoScheme, RoStrategy

from helpers import (
    StepTable,
    liouvillian_pure,
    negative_rate_model,
    one_step,
    qubit_decay_model,
    random_hermitian,
    random_state,
    random_tnp_model,
    seed_with_uniform,
    step_expectation,
    trace_gain_model,
)

P = pauli_ops()
PROJ1 = P.plus @ P.minus
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
RO = RoScheme()


def rate_operator(model, psi):
    """Eigenvalues, eigenvectors and matrix of R_psi, read off the kernels at dt = 1."""
    ctx = RO.prepare(model, 0.0, 1.0)
    states = psi[None, :]
    lam = RO.jump_bins(ctx, states)[0]
    vecs = [RO.jump_target(ctx, states, 0, b) for b in range(lam.shape[0])]
    return lam, vecs, sum(l * np.outer(v, v.conj()) for l, v in zip(lam, vecs))


def test_rate_operator_single_projector():
    lam, vecs, matrix = rate_operator(qubit_decay_model(), KET1)
    assert np.allclose(matrix, np.diag([1.0, 0.0]))
    assert np.allclose(lam, [0.0, 1.0])
    assert np.allclose(vecs[1], KET0)


def test_rate_operator_no_channels():
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=())
    lam, _, matrix = rate_operator(m, PLUS)
    assert np.abs(lam).max() == 0.0
    assert np.abs(matrix).max() == 0.0


def test_rate_operator_brute_force():
    rng = np.random.default_rng(1)
    m = random_tnp_model(rng, 2, n_channels=3)
    psi = PLUS
    _, vecs, matrix = rate_operator(m, psi)
    proj = np.outer(psi, psi.conj())
    expected = sum(
        ch.rate_at(0.0) * (np.asarray(ch.op) @ proj @ np.asarray(ch.op).conj().T)
        for ch in m.channels
    )
    assert np.abs(matrix - expected).max() <= 1e-12
    assert np.abs(np.array(vecs) @ np.array(vecs).conj().T - np.eye(2)).max() <= 1e-12


def test_ro_probabilities_trace_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = random_tnp_model(rng, 3)
        psi = random_state(rng, 3)
        dt = 1e-3
        probs = StepTable(RO, m, psi, 0.0, dt)
        mcwf_probs = StepTable(McwfScheme(), m, psi, 0.0, dt)
        assert probs.bins[0].sum() == pytest.approx(mcwf_probs.bins[0].sum(), abs=1e-14)
        assert abs(probs.total(0) - 1.0) <= 1e-12


def test_ro_probabilities_tp_and_decay_example():
    probs = StepTable(RO, qubit_decay_model(), KET1, 0.0, 0.01)
    assert probs.p_d[0] == 0.0 and probs.p_c[0] == 0.0
    assert probs.bins[0].max() == pytest.approx(0.01)
    assert np.count_nonzero(probs.bins[0]) == 1


def test_ro_total_independent_of_strategy():
    rng = np.random.default_rng(3)
    m = random_tnp_model(rng, 2)
    psi = random_state(rng, 2)
    c_mat = random_hermitian(rng, 2) + 1j * rng.normal(size=(2, 2))
    user = RoStrategy.user(lambda s, t: c_mat)
    dt = 1e-3
    p0 = StepTable(RO, m, psi, 0.0, dt)
    # an arbitrary gauge can push single branches negative; totals must not move
    p1 = StepTable(RoScheme(user), m, psi, 0.0, dt)
    assert p1.p_T(0) == pytest.approx(p0.p_T(0), abs=1e-12)
    expected = 1.0 + dt * m.trace_derivative(0.0, np.outer(psi, psi.conj()))
    assert p1.p_T(0) == pytest.approx(expected, abs=1e-12)


def test_ro_negative_branch_guard():
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)),
                 channels=(JumpChannel(-0.5, P.minus),),
                 gamma=lambda t: -0.5 * PROJ1)
    # R_{|1>} = -0.5 |0><0|: eigenbranch 0 (|0>) has probability -0.5 dt
    ens = Ensemble.empty(2, n_ref=9, seed=0)
    ens._append_members([(KET0, 4, 0), (KET1, 5, 0)])
    with pytest.raises(NegativeProbability, match=r"object 1 \(multiplicity 5\): jump branch 0 has negative "
                       r"probability -5\.000e-03"):
        ro.run(m, ens, TimeGrid(0.0, 0.01, 0.01))
    assert StepTable(RO, m, KET1, 0.0, 0.01).bins[0].min() == pytest.approx(-5e-3)



def test_ro_advance_forced_outcomes():
    # one engine step of a single |1> realization, its outcome forced by
    # choosing a seed whose stream uniform lies in the wanted bin
    fin = one_step(ro.run, qubit_decay_model(), [(KET1, 1)], seed_with_uniform(0.0, 0.01))
    assert fin.total_count() == 1 and np.allclose(np.abs(fin.states[0]), KET0)  # jump onto |0>
    fin = one_step(ro.run, trace_gain_model(), [(KET1, 1)], seed_with_uniform(0.01, 0.02))
    assert fin.total_count() == 2 and np.allclose(fin.states, KET1)  # replicate



def test_ro_reverse_jump_probability():
    # the negative eigenbranch |0> of R_{|1>} (lambda = -0.1) is hosted by
    # |0>: per host realization |lambda| (200/100) dt
    table = StepTable(RO, negative_rate_model(), [KET1, KET0], 0.0, 0.01, counts=[200, 100])
    assert table.exits[0] == []
    [(p, source)] = table.exits[1]
    assert p == pytest.approx(2e-3)
    assert np.allclose(source, KET1)
    assert StepTable(RO, negative_rate_model(), [KET1, KET0], 0.0, 0.01, counts=[0, 100]).exits == [[], []]
    assert StepTable(RO, qubit_decay_model(), [KET1, KET0], 0.0, 0.01, counts=[200, 100]).exits == [[], []]


def test_ro_advance_reverse_jump():
    # the |0> realization (row 1) hosts the reverse exit of the two |1>
    # realizations: probability 0.1 * (2/1) * 0.01 = 2e-3
    rows = [(KET1, 2), (KET0, 1)]
    model = negative_rate_model()
    fin = one_step(ro.run, model, rows, seed_with_uniform(0.0, 2e-3, index=1), reverse_jumps=True)
    assert fin.total_count() == 3 and np.allclose(np.abs(fin.states), np.abs(KET1))
    fin = one_step(ro.run, model, rows, seed_with_uniform(2e-3, 1.0, index=1), reverse_jumps=True)
    assert np.allclose(np.abs(fin.states), [KET1, KET0])


def test_ro_one_step_unbiased_with_gauge():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = random_tnp_model(rng, 2)
        psi = random_state(rng, 2)
        c_mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        strategy = RoStrategy.user(lambda s, t, _c=c_mat: _c)
        proj = np.outer(psi, psi.conj())
        residuals = []
        for dt in (1e-3, 1e-4):
            got = step_expectation(RoScheme(strategy), m, psi, 0.0, dt)
            expected = proj + dt * liouvillian_pure(m, 0.0, psi)
            residuals.append(np.abs(got - expected).max())
        assert 50.0 <= residuals[0] / residuals[1] <= 200.0


def test_ro_run_matches_exact_tp():
    m = qubit_decay_model()
    ens = Ensemble.sample_initial([(1.0, PLUS)], 2000, seed=8, n_groups=20)
    grid = TimeGrid(0.0, 0.5, 1e-3)
    res = ro.run(m, ens, grid, record_every=100)
    exact = integrate(m, np.outer(PLUS, PLUS.conj()), grid).values[::100]
    assert np.all(res.trace_estimates == 1.0)
    assert np.abs(res.average_states[:, 1, 1].real - exact[:, 1, 1].real).max() <= 0.05


def test_ro_run_reverse_jumps_track_oracle():
    rate = TimeScalar.sinusoid(1.0, 2.0)
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)),
                 channels=(JumpChannel(rate, P.minus),),
                 gamma=lambda t: np.cos(2 * t) * PROJ1 + 0.3 * np.eye(2))
    ens = Ensemble.sample_initial([(1.0, PLUS)], 3000, seed=9, n_groups=30)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    res = ro.run(m, ens, grid, reverse_jumps=True, record_every=200)
    exact = integrate(m, np.outer(PLUS, PLUS.conj()), grid).values[::200]
    traces = np.trace(exact, axis1=1, axis2=2).real
    assert np.abs(res.trace_estimates - traces).max() <= 0.05
    assert np.abs(res.average_states[:, 1, 1].real - exact[:, 1, 1].real).max() <= 0.05
