import numpy as np
import pytest

from tnpmc import JumpChannel, TimeScalar, TnpModel, boson_ops, heisenberg_qubit, model, pauli_ops, tilted_lindbladian
from tnpmc.errors import DimensionMismatch, InvalidParameter, NonHermitianInput
from tnpmc.model import matrix_from_json, matrix_to_json, model_from_dict, time_scalar_from_json

from helpers import liouvillian_terms, qubit_decay_model, random_hermitian, random_tnp_model

P = pauli_ops()
PROJ1 = P.plus @ P.minus
KET1 = np.array([0.0, 1.0], dtype=complex)


def test_time_scalar_forms():
    assert TimeScalar.constant(2.5)(3.0) == 2.5
    assert TimeScalar.exponential(0.5, -1.0)(2.0) == pytest.approx(0.5 * np.exp(-2.0))
    assert TimeScalar.sinusoid(1.0, 2.0)(0.25) == pytest.approx(np.cos(0.5))
    tab = TimeScalar.table([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert tab(0.5) == pytest.approx(1.0)
    assert tab(5.0) == pytest.approx(0.0)  # clamped
    with pytest.raises(InvalidParameter):
        TimeScalar.table([0.0, 0.0], [1.0, 2.0])


def test_gamma_l_examples():
    m = qubit_decay_model()
    assert np.allclose(m.gamma_L(0.0), PROJ1)
    empty = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=())
    assert np.abs(empty.gamma_L(0.0)).max() == 0.0
    two = TnpModel(
        dim=2,
        hamiltonian=np.zeros((2, 2)),
        channels=(JumpChannel(0.7, P.minus), JumpChannel(0.2, P.plus)),
    )
    expected = 0.7 * PROJ1 + 0.2 * (P.minus @ P.plus)
    assert np.allclose(two.gamma_L(0.0), expected)


def test_effective_hamiltonian():
    m = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(), gamma=PROJ1.astype(complex))
    assert np.allclose(m.effective_hamiltonian(0.0), -0.5j * PROJ1)
    m2 = TnpModel(dim=2, hamiltonian=P.x, channels=())
    assert np.allclose(m2.effective_hamiltonian(0.0), P.x)
    m3 = TnpModel(dim=2, hamiltonian=P.x, channels=(), gamma=np.eye(2, dtype=complex))
    assert np.allclose(m3.effective_hamiltonian(0.0), P.x - 0.5j * np.eye(2))


def test_apply_liouvillian_amplitude_damping():
    m = qubit_decay_model()
    rho1 = np.outer(KET1, KET1.conj())
    out = m.apply_liouvillian(0.0, rho1)
    assert np.allclose(out, np.diag([1.0, -1.0]))


def test_apply_liouvillian_shifted_gamma():
    m = qubit_decay_model(gamma_shift=0.5)
    rho1 = np.outer(KET1, KET1.conj())
    out = m.apply_liouvillian(0.0, rho1)
    assert np.allclose(out, np.diag([1.0, -1.5]))


def test_apply_liouvillian_source_linearity():
    src = 0.3 * np.eye(2, dtype=complex)
    m = TnpModel(
        dim=2,
        hamiltonian=np.zeros((2, 2)),
        channels=(JumpChannel(1.0, P.minus),),
        source=__import__("tnpmc").SourceTerm(src),
    )
    out = m.apply_liouvillian(0.0, np.zeros((2, 2), dtype=complex))
    assert np.allclose(out, src)


def test_apply_liouvillian_on_a_stack_equals_separate_calls():
    rng = np.random.default_rng(21)
    base = random_tnp_model(rng, 3)
    src = random_hermitian(rng, 3)
    m = TnpModel(dim=3, hamiltonian=base.hamiltonian, channels=base.channels, gamma=base.gamma,
                 source=__import__("tnpmc").SourceTerm(src @ src))
    stack = np.stack([[random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3) for _ in range(4)]
                      for _ in range(2)])  # (2, 4, 3, 3)
    got = m.apply_liouvillian(0.4, stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(stack.shape[:2]):
        assert np.array_equal(got[idx], m.apply_liouvillian(0.4, stack[idx]))
    for bad in (np.zeros((4, 3, 2)), np.zeros((4, 2, 3)), np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(DimensionMismatch):
            m.apply_liouvillian(0.4, bad)


def test_generator_at_evaluates_the_model_once_and_matches_the_terms():
    # H, every rate, Gamma and the source are called once per generator_at, however
    # often the generator is applied; the K form equals the term-by-term generator
    rng = np.random.default_rng(22)
    base = random_tnp_model(rng, 3)
    src = random_hermitian(rng, 3)
    calls = []

    def counted(name, value):
        def fn(t):
            calls.append(name)
            return (1.0 + t) * value
        return fn

    channels = tuple(JumpChannel(counted(f"rate{j}", ch.rate_at(0.0)), ch.op) for j, ch in enumerate(base.channels))
    m = TnpModel(dim=3, hamiltonian=counted("h", base.hamiltonian_at(0.0)), channels=channels,
                 gamma=counted("gamma", base.gamma_at(0.0)),
                 source=__import__("tnpmc").SourceTerm(counted("source", src @ src)))
    calls.clear()
    generator = m.generator_at(0.3)
    stack = np.stack([random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3) for _ in range(4)])
    got = [generator(stack), generator(stack[1])]
    assert sorted(calls) == ["gamma", "h", "rate0", "rate1", "source"]
    want = liouvillian_terms(m, 0.3, stack)
    assert np.abs(got[0] - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(got[1], got[0][1])
    assert np.array_equal(m.apply_liouvillian(0.3, stack), got[0])


def test_trace_derivative():
    rng = np.random.default_rng(0)
    m = qubit_decay_model()
    rho = random_hermitian(rng, 2)
    assert m.trace_derivative(0.0, rho) == 0.0  # sentinel, exactly
    shifted = qubit_decay_model(gamma_shift=0.5)
    rho1 = np.outer(KET1, KET1.conj())
    assert shifted.trace_derivative(0.0, rho1) == pytest.approx(-0.5)
    free = TnpModel(
        dim=2, hamiltonian=np.zeros((2, 2)), channels=(JumpChannel(1.0, P.minus),),
        gamma=np.zeros((2, 2), dtype=complex),
    )
    assert free.trace_derivative(0.0, rho1) == pytest.approx(1.0)


def test_trace_derivative_matches_liouvillian_trace():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_tnp_model(rng, 3)
        rho = random_hermitian(rng, 3)
        lhs = m.trace_derivative(0.3, rho)
        rhs = np.trace(m.apply_liouvillian(0.3, rho)).real
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_liouvillian_preserves_hermiticity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = random_tnp_model(rng, 4)
        rho = random_hermitian(rng, 4)
        out = m.apply_liouvillian(0.1, rho)
        assert np.abs(out - out.conj().T).max() <= 1e-12 * max(1.0, np.abs(out).max())


def test_boson_ops():
    ops = boson_ops(3)
    ket2 = np.array([0.0, 0.0, 1.0], dtype=complex)
    assert np.allclose(ops.a @ ket2, np.sqrt(2.0) * np.array([0, 1, 0]))
    assert np.abs(ops.adag @ ket2).max() == 0.0  # truncation at the cutoff
    assert np.allclose(ops.number, np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(InvalidParameter):
        boson_ops(1)


def test_tilted_lindbladian_tp_limit():
    rng = np.random.default_rng(2)
    m = tilted_lindbladian(1.0, 0.5, 1.0, 0.2, 0.0, 8)
    assert m.is_trace_preserving
    rho = random_hermitian(rng, 8)
    assert m.trace_derivative(0.0, rho) == 0.0


def test_tilted_lindbladian_difference_is_counting_term():
    rng = np.random.default_rng(3)
    zeta = 0.13
    m0 = tilted_lindbladian(1.0, 0.5, 1.0, 0.2, 0.0, 8)
    mz = tilted_lindbladian(1.0, 0.5, 1.0, 0.2, zeta, 8)
    ops = boson_ops(8)
    rho = random_hermitian(rng, 8)
    diff = mz.apply_liouvillian(0.0, rho) - m0.apply_liouvillian(0.0, rho)
    expected = zeta * 1.0 * 1.5 * (ops.a @ rho @ ops.adag)
    assert np.abs(diff - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_tilted_lindbladian_validation():
    with pytest.raises(InvalidParameter):
        tilted_lindbladian(1.0, -0.1, 1.0, 0.0, 0.0, 8)
    with pytest.raises(InvalidParameter):
        tilted_lindbladian(1.0, 0.5, 1.0, 0.0, -1.5, 8)


def test_heisenberg_qubit_brute_force():
    eps, gm, gp = 1.3, 0.8, 0.4
    m = heisenberg_qubit(eps, gm, gp)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = random_hermitian(rng, 2)
        got = m.apply_liouvillian(0.0, x)
        expected = (
            1j * eps * (P.x @ x - x @ P.x)
            + gm * (P.plus @ x @ P.minus - 0.5 * (PROJ1 @ x + x @ PROJ1))
            + gp * (P.minus @ x @ P.plus - 0.5 * ((P.minus @ P.plus) @ x + x @ (P.minus @ P.plus)))
        )
        assert np.abs(got - expected).max() <= 1e-12


def test_heisenberg_qubit_sigma_z_flow():
    # pure decay: d sigma_z/dt = s+ sz s- - {|1><1|, sz}/2 = 2|1><1| = 1 - sz
    m = heisenberg_qubit(0.0, 1.0, 0.0)
    out = m.apply_liouvillian(0.0, P.z)
    assert np.allclose(out, np.eye(2) - P.z)


def test_heisenberg_qubit_unital():
    m = heisenberg_qubit(TimeScalar.constant(5.0), TimeScalar.constant(1.0), TimeScalar.constant(0.7))
    out = m.apply_liouvillian(0.3, np.eye(2, dtype=complex))
    assert np.abs(out).max() <= 1e-14


def test_hermiticity_validation():
    with pytest.raises(NonHermitianInput):
        TnpModel(dim=2, hamiltonian=P.minus, channels=())
    with pytest.raises(DimensionMismatch):
        TnpModel(dim=3, hamiltonian=np.zeros((3, 3)), channels=(JumpChannel(1.0, P.minus),))


def test_constant_parts_are_validated_once(monkeypatch):
    checked = []
    check = model.assert_hermitian
    monkeypatch.setattr(model, "assert_hermitian", lambda a, **kw: checked.append(kw["what"]) or check(a, **kw))
    rng = np.random.default_rng(8)
    h, g = random_hermitian(rng, 3), random_hermitian(rng, 3)
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    m = TnpModel(dim=3, hamiltonian=h, channels=tuple(JumpChannel(1.0, op) for op in ops), gamma=g)
    assert checked == ["Hamiltonian", "Gamma"]
    for t in (0.0, 0.5, 1.0):
        assert np.array_equal(m.hamiltonian_at(t), h) and np.array_equal(m.gamma_at(t), g)
    assert checked == ["Hamiltonian", "Gamma"]
    # the cached L^dag L products give the same bits as forming them per call
    rates = [0.3, -1.7]
    want = np.zeros((3, 3), dtype=complex)
    for rate, op in zip(rates, ops):
        want += rate * (op.conj().T @ op)
    assert m.gamma_L_from_rates(rates).tobytes() == want.tobytes()
    # callables are still checked at every call
    checked.clear()
    drifting = TnpModel(dim=2, hamiltonian=lambda t: P.x + t * P.minus, channels=(), gamma=lambda t: t * P.z)
    assert checked == ["Hamiltonian", "Gamma"]
    drifting.gamma_at(2.0)
    with pytest.raises(NonHermitianInput, match="Hamiltonian"):
        drifting.hamiltonian_at(1.0)
    with pytest.raises(NonHermitianInput, match="Gamma"):
        TnpModel(dim=2, hamiltonian=P.x, channels=(), gamma=P.minus)


# -- config schema ----------------------------------------------------------


def test_matrix_json_round_trip():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(a)), a)
    with pytest.raises(InvalidParameter):
        matrix_from_json([[1.0, 2.0]])


def test_time_scalar_json():
    assert time_scalar_from_json(2.0)(1.0) == 2.0
    ts = time_scalar_from_json({"kind": "sinusoid", "amplitude": 1.0, "frequency": 2.0})
    assert ts(0.0) == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        time_scalar_from_json({"kind": "mystery"})


def test_model_from_dict():
    cfg = {
        "dim": 2,
        "channels": [{"label": "decay", "rate": 1.0, "op": "sigma_minus"}],
        "gamma": {"kind": "lindblad_plus_identity", "shift": 0.5},
    }
    m = model_from_dict(cfg)
    assert np.allclose(m.gamma_at(0.0), PROJ1 + 0.5 * np.eye(2))
    cfg_bad = dict(cfg)
    cfg_bad["mystery"] = 1
    with pytest.raises(InvalidParameter):
        model_from_dict(cfg_bad)
    with pytest.raises(InvalidParameter):
        model_from_dict({"dim": 2, "channels": [{"rate": 1.0, "op": "sigma_q"}]})


def test_model_from_dict_boson_builtin():
    cfg = {
        "dim": 4,
        "channels": [{"rate": {"kind": "constant", "value": 1.5}, "op": "annihilation(4)"}],
    }
    m = model_from_dict(cfg)
    assert m.is_trace_preserving
    assert np.allclose(m.channels[0].op, boson_ops(4).a)
