import numpy as np
import pytest

from tnpmc import (
    Ensemble,
    JumpChannel,
    TimeGrid,
    TimeScalar,
    TnpModel,
    engine,
    hermitian_eig,
    integrate,
    mcwf,
    pauli_ops,
)
from tnpmc.engine import _Lanes, _apply_source
from tnpmc.errors import NegativeProbability, NegativeSource, StepTooLarge, ZeroNorm
from tnpmc.mcwf import McwfScheme
from tnpmc.model import SourceTerm

from helpers import (
    StepTable,
    ensemble_step_expectation,
    first_uniforms,
    liouvillian_pure,
    negative_rate_model,
    one_step,
    qubit_decay_model,
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
MCWF = McwfScheme()


def doubled_gamma_model():
    return TnpModel(
        dim=2, hamiltonian=np.zeros((2, 2)),
        channels=(JumpChannel(1.0, P.minus),),
        gamma=lambda t: 2.0 * PROJ1,
    )



def test_step_probabilities_trace_decreasing():
    probs = StepTable(MCWF, doubled_gamma_model(), KET1, 0.0, 0.01)
    assert probs.bins[0, 0] == pytest.approx(0.01)
    assert probs.p_d[0] == pytest.approx(0.01)
    assert probs.p_c[0] == 0.0
    assert probs.p_det(0) == pytest.approx(0.98)
    assert probs.total(0) == pytest.approx(1.0, abs=1e-15)


def test_step_probabilities_trace_increasing():
    probs = StepTable(MCWF, trace_gain_model(), KET1, 0.0, 0.01)
    assert probs.bins[0, 0] == pytest.approx(0.01)
    assert probs.p_c[0] == pytest.approx(0.01)
    assert probs.p_d[0] == 0.0
    assert probs.p_det(0) == pytest.approx(0.98)


def test_step_probabilities_tp():
    probs = StepTable(MCWF, qubit_decay_model(), KET1, 0.0, 0.01)
    assert probs.p_d[0] == 0.0 and probs.p_c[0] == 0.0
    assert probs.bins[0].sum() + probs.p_det(0) == pytest.approx(1.0, abs=1e-15)


def test_normalization_identity_random_models():
    rng = np.random.default_rng(21)
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        m = random_tnp_model(rng, dim)
        psi = random_state(rng, dim)
        probs = StepTable(MCWF, m, psi, float(rng.uniform(0, 2)), 1e-3)
        assert abs(probs.total(0) - 1.0) <= 1e-12


def test_p_T_matches_trace_derivative():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = random_tnp_model(rng, 3)
        psi = random_state(rng, 3)
        probs = StepTable(MCWF, m, psi, 0.5, 1e-3)
        expected = 1e-3 * m.trace_derivative(0.5, np.outer(psi, psi.conj()))
        assert probs.p_T(0) - 1.0 == pytest.approx(expected, abs=1e-12)


def test_step_probabilities_guards():
    # the engine's guards name the object, its multiplicity, the branch and the mass
    with pytest.raises(StepTooLarge, match=r"probability 0\.5 exceeds 0\.1 .*object 0 \(multiplicity 7\), "
                       r"largest mass 0\.5 in jump branch 0 \(jump 0\.5, reverse 0, disappearance 0"):
        mcwf.run(qubit_decay_model(), Ensemble.sample_initial([(1.0, KET1)], 7, seed=0),
                 TimeGrid(0.0, 0.5, 0.5))
    # Gamma = -200: replication alone pushes the outcome probabilities past one
    gain = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(), gamma=-200.0 * np.eye(2, dtype=complex))
    ens = Ensemble.empty(2, n_ref=4, seed=0)
    ens._append_members([(KET0, 1, 0), (KET1, 3, 0)])
    with pytest.raises(StepTooLarge, match=r"exceed 1 by 1 .*object 0 \(multiplicity 1\), "
                       r"largest mass 2 in replication .*replication 2\)"):
        mcwf.run(gain, ens, TimeGrid(0.0, 0.01, 0.01))
    neg = TnpModel(
        dim=2, hamiltonian=np.zeros((2, 2)),
        channels=(JumpChannel(-1.0, P.minus),),
        gamma=np.zeros((2, 2), dtype=complex),
    )
    ens = Ensemble.empty(2, n_ref=5, seed=0)
    ens._append_members([(KET0, 2, 0), (KET1, 3, 0)])
    with pytest.raises(NegativeProbability, match=r"object 1 \(multiplicity 3\): jump branch 0 has negative "
                       r"probability -1\.000e-02 at step 0, t = 0;"):
        mcwf.run(neg, ens, TimeGrid(0.0, 0.01, 0.01))
    assert StepTable(MCWF, neg, KET1, 0.0, 0.01).bins[0, 0] == pytest.approx(-0.01)


def test_deterministic_step_identity_when_free():
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=())
    out = MCWF.det_states(MCWF.prepare(m, 0.0, 0.01), PLUS[None, :])[0]
    assert np.allclose(out, PLUS)


def test_deterministic_step_amplitude_damping():
    m = qubit_decay_model()
    out = MCWF.det_states(MCWF.prepare(m, 0.0, 0.01), PLUS[None, :])[0]
    expected = np.array([1.0, 0.995]) / np.linalg.norm([1.0, 0.995])
    assert np.abs(out - expected).max() <= 1e-12
    assert np.allclose(out.real, [0.70886, 0.70534], atol=5e-5)


def test_deterministic_step_eigenstate_invariance():
    m = TnpModel(dim=2, hamiltonian=P.z, channels=())
    out = MCWF.det_states(MCWF.prepare(m, 0.0, 0.01), KET0[None, :])[0]
    assert abs(abs(np.vdot(out, KET0)) - 1.0) <= 1e-12


def test_deterministic_step_zero_norm():
    # Gamma * dt / 2 = 1 makes the first-order map annihilate the state
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(),
                 gamma=np.diag([0.0, 200.0]).astype(complex))
    with pytest.raises(ZeroNorm):
        MCWF.det_states(MCWF.prepare(m, 0.0, 1e-2), np.stack([KET0, KET1]))


def test_advance_trajectory_forced_outcomes():
    # one engine step of a single |1> realization, its outcome forced by
    # choosing a seed whose stream uniform lies in the wanted bin
    fin = one_step(mcwf.run, qubit_decay_model(), [(KET1, 1)], seed_with_uniform(0.0, 0.01))
    assert fin.total_count() == 1 and np.allclose(fin.states[0], KET0)  # jump, p = 0.01
    fin = one_step(mcwf.run, doubled_gamma_model(), [(KET1, 1)], seed_with_uniform(0.01, 0.02))
    assert fin.total_count() == 0  # vanish, p_d = 0.01 after the jump bin
    fin = one_step(mcwf.run, trace_gain_model(), [(KET1, 1)], seed_with_uniform(0.01, 0.02))
    assert fin.total_count() == 2 and np.allclose(fin.states, KET1)  # replicate
    fin = one_step(mcwf.run, trace_gain_model(), [(KET1, 1)], seed_with_uniform(0.02, 1.0))
    assert fin.total_count() == 1 and np.allclose(fin.states[0], KET1)  # deterministic



def test_reverse_jump_probability_formula():
    # host |0> (count 100) of the source |1> (count 200): 0.1 * 1 * (200/100) * 0.01
    table = StepTable(MCWF, negative_rate_model(), [KET1, KET0], 0.0, 0.01, counts=[200, 100])
    assert table.exits[0] == []
    [(p, source)] = table.exits[1]
    assert p == pytest.approx(2e-3)
    assert np.allclose(source, KET1)
    # no source realizations, a non-negative rate, or an annihilated source
    # (L |0> = 0) give no exit: the engine weights them zero
    assert StepTable(MCWF, negative_rate_model(), [KET1, KET0], 0.0, 0.01, counts=[0, 100]).exits == [[], []]
    assert StepTable(MCWF, qubit_decay_model(), [KET1, KET0], 0.0, 0.01, counts=[200, 100]).exits == [[], []]
    assert StepTable(MCWF, negative_rate_model(), [KET0], 0.0, 0.01, counts=[100]).exits == [[]]


def test_advance_trajectory_reverse_jump():
    # the |0> realization (row 1) hosts the reverse exit of the two |1>
    # realizations: probability 0.1 * (2/1) * 0.01 = 2e-3
    rows = [(KET1, 2), (KET0, 1)]
    model = negative_rate_model()
    fin = one_step(mcwf.run, model, rows, seed_with_uniform(0.0, 2e-3, index=1), reverse_jumps=True)
    assert fin.total_count() == 3 and np.allclose(np.abs(fin.states), np.abs(KET1))
    fin = one_step(mcwf.run, model, rows, seed_with_uniform(2e-3, 1.0, index=1), reverse_jumps=True)
    assert np.allclose(fin.states[fin.mult > 0], [KET1, KET0])


def test_source_creation_events():
    ens = Ensemble.empty(2, n_ref=100, seed=3)
    _apply_source(ens, _Lanes([ens]), hermitian_eig(np.zeros((2, 2))), 0.0, 0.01)
    assert ens.size == 0
    spectrum = hermitian_eig(np.outer(KET0, KET0.conj()))
    # eta * n_ref * dt = 3 copies per step, drawn on the stream of the step count
    total = 0
    n_draws = 10_000
    for step in range(n_draws):
        ens = Ensemble.empty(2, n_ref=100, seed=3)
        ens.steps = step
        _apply_source(ens, _Lanes([ens]), spectrum, 0.0, 0.03)
        total += ens.total_count()
        if ens.size:
            assert ens.size == 1 and np.allclose(np.abs(ens.states[0]), np.abs(KET0))
    assert abs(total / n_draws - 3.0) <= 0.06
    with pytest.raises(NegativeSource):
        _apply_source(ens, _Lanes([ens]), hermitian_eig(-1e-3 * np.eye(2)), 0.0, 0.01)


def test_negative_source_names_the_failing_step():
    # the source turns negative from t = 0.25 on: the steps before it run, and
    # the error names the time of the first failing step, not its block's first
    def source(t):
        return np.outer(KET0, KET0.conj()) * (1.0 if t < 0.25 else -1.0)

    model = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(), gamma=np.zeros((2, 2), dtype=complex),
                     source=SourceTerm(source))
    steps = []
    original = engine._advance_step

    def counted(*args, **kwargs):
        steps.append(args[3])
        return original(*args, **kwargs)

    ens = Ensemble.sample_initial([(1.0, KET1)], 100, seed=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_advance_step", counted)
        with pytest.raises(NegativeSource, match=r"below -1e-06 at t = 0\.25$"):
            mcwf.run(model, ens, TimeGrid(0.0, 1.0, 0.05))
    assert len(steps) == 6  # steps at t = 0, 0.05, ..., 0.25; the source of the last fails


def test_one_step_unbiasedness_single_model():
    rng = np.random.default_rng(31)
    m = random_tnp_model(rng, 2)
    psi = random_state(rng, 2)
    proj = np.outer(psi, psi.conj())
    residuals = []
    for dt in (1e-2, 1e-3, 1e-4):
        got = step_expectation(MCWF, m, psi, 0.0, dt)
        expected = proj + dt * liouvillian_pure(m, 0.0, psi)
        residuals.append(np.abs(got - expected).max())
    assert 50.0 <= residuals[0] / residuals[1] <= 200.0
    assert 50.0 <= residuals[1] / residuals[2] <= 200.0


def test_reverse_jump_unbiasedness_fixed_snapshot():
    # Ensemble {psi', |0>}; channel rate negative: the expected one-step change
    # must match the generator with the signed rate.
    rate = TimeScalar.constant(-0.4)
    m = TnpModel(
        dim=2, hamiltonian=0.2 * P.x,
        channels=(JumpChannel(rate, P.minus),),
        gamma=lambda t: -0.4 * PROJ1 + 0.1 * np.eye(2),
    )
    psi_p = np.array([0.6, 0.8], dtype=complex)
    members = [(200, psi_p), (100, KET0)]
    n_ref = 250
    rho = sum(c * np.outer(s, s.conj()) for c, s in members) / n_ref
    residuals = []
    for dt in (1e-3, 1e-4):
        got = ensemble_step_expectation(MCWF, m, members, 0.0, dt, n_ref)
        expected = rho + dt * m.apply_liouvillian(0.0, rho)
        residuals.append(np.abs(got - expected).max())
    assert residuals[0] <= 1e-4
    assert 50.0 <= residuals[0] / residuals[1] <= 200.0


def test_run_tp_trace_exactly_one():
    ens = Ensemble.sample_initial([(1.0, KET1)], 400, seed=5)
    res = mcwf.run(qubit_decay_model(), ens, TimeGrid(0.0, 0.5, 1e-2), record_every=10)
    assert np.all(res.trace_estimates == 1.0)
    assert np.all(res.total_counts == 400)


def test_run_trace_increasing_matches_oracle():
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)),
                 channels=(JumpChannel(1.0, P.minus),), gamma=np.zeros((2, 2), dtype=complex))
    ens = Ensemble.sample_initial([(1.0, KET1)], 4000, seed=6, n_groups=40)
    grid = TimeGrid(0.0, 0.5, 1e-3)
    res = mcwf.run(m, ens, grid, record_every=100)
    exact = np.trace(integrate(m, np.outer(KET1, KET1.conj()), grid).values[::100], axis1=1, axis2=2).real
    assert np.abs(res.trace_estimates - exact).max() <= 0.05


def test_engine_matches_oracle_inverse_cdf():
    # one engine step of a single realization lands where the inverse CDF of
    # its stream uniform over the kernels' outcome table points
    m = doubled_gamma_model()
    # jump and vanish bins are [0, 0.005) and [0.005, 0.01)
    seeds = [seed_with_uniform(0.0, 0.005), seed_with_uniform(0.005, 0.01)] + list(range(12))
    table = StepTable(MCWF, m, PLUS, 0.0, 0.01)
    kinds = set()
    for seed, u in zip(seeds, first_uniforms(seeds)):
        kind, state = table.draw(0, u)
        kinds.add(kind[0])
        fin = one_step(mcwf.run, m, [(PLUS, 1)], seed)
        if kind[0] == "vanish":
            assert fin.size == 0
        else:
            assert fin.size == 1
            assert np.abs(fin.states[0] - state).max() <= 1e-12
    assert kinds == {"jump", "vanish", "deterministic"}


def test_run_trace_increasing_exponential_law():
    # Gamma = Gamma_L - c: trace grows exactly as exp(+c t) in expectation
    c = 0.3
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)),
                 channels=(JumpChannel(1.0, P.minus),),
                 gamma=lambda t: PROJ1 - c * np.eye(2))
    ens = Ensemble.sample_initial([(1.0, KET1)], 5000, seed=41, n_groups=50)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    res = mcwf.run(m, ens, grid, record_every=250)
    exact = np.exp(c * res.times)
    # binomial-scale tolerance: ~4 sigma of the count noise
    tol = 4.0 * np.sqrt(exact * np.exp(c * res.times) / 5000)
    assert np.all(np.abs(res.trace_estimates - exact) <= np.maximum(tol, 1e-12))


def test_multiplicity_splitting_matches_per_realization():
    # one object with multiplicity M must step like M independent realizations
    m = doubled_gamma_model()
    grid = TimeGrid(0.0, 0.05, 0.05)  # one step with visible probabilities
    totals = {"lump": np.zeros(3), "flat": np.zeros(3)}  # jumps, vanished, det
    n_rep, M = 400, 64
    for s in range(n_rep):
        lump = Ensemble.empty(2, n_ref=M, seed=s)
        lump._append_members([(KET1, M, 0)])
        flat = Ensemble.empty(2, n_ref=M, seed=10_000 + s)
        flat._append_members([(KET1, 1, 0)] * M)
        for name, ens in (("lump", lump), ("flat", flat)):
            res = mcwf.run(m, ens, grid, merge=False)
            fin = res.final_ensemble
            pop0 = sum(int(fin.mult[i]) for i in range(fin.size)
                       if abs(fin.states[i][0]) > 0.99)
            alive = fin.total_count()
            totals[name] += (pop0, M - alive, alive - pop0)
    # expected per step: p_jump = 0.05 * M, p_vanish = 0.05 * M
    for name in totals:
        jumps, vanished, _ = totals[name] / n_rep
        assert abs(jumps - 0.05 * M) <= 4.0 * np.sqrt(0.05 * M / n_rep)
        assert abs(vanished - 0.05 * M) <= 4.0 * np.sqrt(0.05 * M / n_rep)
    # the two representations agree with each other statistically
    diff = np.abs(totals["lump"] - totals["flat"]) / n_rep
    assert np.all(diff <= 5.0 * np.sqrt(0.05 * M / n_rep))


def test_run_empty_ensemble_stays_empty_without_source():
    ens = Ensemble.empty(2, n_ref=100, seed=1)
    res = mcwf.run(qubit_decay_model(), ens, TimeGrid(0.0, 0.1, 0.01))
    assert np.all(res.total_counts == 0)


def test_run_negative_rates_guard():
    rate = TimeScalar.sinusoid(1.0, 2.0)
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)),
                 channels=(JumpChannel(rate, P.minus),),
                 gamma=lambda t: np.cos(2 * t) * PROJ1 + 0.3 * np.eye(2))
    ens = Ensemble.sample_initial([(1.0, PLUS)], 50, seed=2)
    # the rate cos(2 t) turns negative after t = pi/4
    with pytest.raises(NegativeProbability, match=r"jump branch 0 .* at step 79, t = 0\.79;"):
        mcwf.run(m, ens, TimeGrid(0.0, 1.0, 1e-2))


@pytest.mark.parametrize("dim", [2, 3, 20])
def test_batched_jump_targets_equal_the_per_row_form(dim):
    # one call over many (row, branch) pairs gives, row by row, the bytes of
    # L_b psi / ||L_b psi||; also for a single pair and for one branch only
    rng = np.random.default_rng(dim)
    model = random_tnp_model(rng, dim, n_channels=3)
    states = np.stack([random_state(rng, dim) for _ in range(400)])
    ctx = McwfScheme().prepare(model, 0.0, 0.01)
    rows = rng.integers(0, states.shape[0], size=600)
    branches = rng.integers(0, 3, size=600)
    for i, b in ((rows, branches), (rows[:1], branches[:1]), (rows, np.full(600, 2))):
        got = McwfScheme().jump_target(ctx, states, i, b)
        assert got.shape == (i.size, dim)
        for k in range(i.size):
            lp = model._ops[b[k]] @ states[i[k]]
            assert got[k].tobytes() == (lp / np.linalg.norm(lp)).tobytes()
    lp = model._ops[1] @ states[5]
    assert McwfScheme().jump_target(ctx, states, 5, 1).tobytes() == (lp / np.linalg.norm(lp)).tobytes()
