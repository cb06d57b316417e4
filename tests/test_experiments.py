import numpy as np
import pytest

from tnpmc import TimeGrid, TimeScalar, heisenberg_qubit, integrate, pauli_ops, split_positive, tilted_lindbladian
from tnpmc.errors import CutoffLeakage, InvalidParameter
from tnpmc.exact import solve_hierarchy
from tnpmc import experiments
from tnpmc.experiments import (
    HeisenbergConfig,
    PhotonCountingConfig,
    bootstrap_rng,
    bootstrap_se_sums,
    check_cutoff_leakage,
    fock_plus_superposition,
    run_heisenberg,
    run_photon_counting,
    run_tilted_trace,
    stage_flux,
    validate_strongly_driven,
)

P = pauli_ops()


def test_bootstrap_se_sums_matches_binomial():
    # groups of iid coin flips: SE of the sum should match the binomial formula
    rng = np.random.default_rng(0)
    g, per = 200, 100
    flips = rng.random((g, per)) < 0.3
    groups = flips.sum(axis=1)[None, :] / (g * per)
    se = bootstrap_se_sums(groups, bootstrap_rng(1))
    expected = np.sqrt(0.3 * 0.7 / (g * per))
    assert se[0] == pytest.approx(expected, rel=0.2)


def test_fock_plus_superposition():
    psi = fock_plus_superposition(6)
    assert psi[0] == pytest.approx(1 / np.sqrt(2))
    assert psi[1] == pytest.approx(1 / np.sqrt(2))
    assert np.abs(psi[2:]).max() == 0.0


def test_cutoff_leakage_raises():
    cfg = PhotonCountingConfig(n_max=8, n_trajectories=50, n_towers=2)
    with pytest.raises(CutoffLeakage):
        run_photon_counting(cfg)


def test_photon_counting_small_scale():
    cfg = PhotonCountingConfig(
        n_trajectories=800, n_towers=8, k_max=2, t_final=1.5, record_every=50, seed=31
    )
    series = run_photon_counting(cfg)
    assert series.times[0] == 0.0
    assert np.all(series.est[:, 0] == 0.0)  # empty initial stages
    assert np.all(series.exact[:, 0] == 0.0)
    z = np.abs(series.est[:, 1:] - series.exact[:, 1:]) / np.maximum(series.se[:, 1:], 1e-12)
    assert z.max() <= 3.0
    names = series.column_names()
    assert names[0] == "t" and "mu_1" in names and "se_2" in names and "exact_2" in names
    assert len(series.rows()[0]) == len(names)


def test_photon_towers_as_lanes_match_one_tower_per_run(monkeypatch):
    # 5 towers in chunks of 4 (the last chunk one lane) against one tower per run
    cfg = PhotonCountingConfig(n_max=12, n_trajectories=500, n_towers=5, k_max=3, t_final=0.4,
                               record_every=10, seed=17)
    lanes = run_photon_counting(cfg)
    monkeypatch.setattr(experiments, "TOWER_LANES", 1)
    alone = run_photon_counting(cfg)
    for name in ("times", "est", "se", "exact"):
        a, b = getattr(lanes, name), getattr(alone, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert np.all(lanes.est[:, -1] > 0.0)


@pytest.mark.parametrize("dim", [6, 20])
def test_stage_flux_equals_the_per_time_contraction(dim):
    # the flux over all times in one contraction has the bytes of one
    # contraction per time
    rng = np.random.default_rng(dim)
    n = 41
    a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    avg = a @ np.swapaxes(a.conj(), 1, 2) / dim
    op = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    num_op = op.conj().T @ op
    rates = 0.5 + rng.random(n)
    scale_prev = np.exp(rng.normal(size=n))
    expected = np.array([3 * rates[i] * scale_prev[i] * np.einsum("ij,ji->", num_op, avg[i]).real
                         for i in range(n)])
    assert stage_flux(3, rates, scale_prev, num_op, avg).tobytes() == expected.tobytes()


def test_tilted_trace_zeta_zero_exact():
    cfg = PhotonCountingConfig(
        n_trajectories=300, zeta_list=(0.0,), t_final=1.0, record_every=25, seed=3
    )
    res = run_tilted_trace(cfg, n_groups=10)
    assert np.all(res.est[0] == 1.0)
    assert np.abs(res.exact[0] - 1.0).max() <= 1e-8


def test_tilted_trace_sign_ordering():
    cfg = PhotonCountingConfig(
        n_trajectories=3000, zeta_list=(-0.02, 0.0, 0.02), t_final=1.5, record_every=30, seed=5
    )
    res = run_tilted_trace(cfg, n_groups=30)
    assert res.est[0, -1] < 1.0 < res.est[2, -1]
    assert res.exact[0, -1] < 1.0 < res.exact[2, -1]
    z = np.abs(res.est - res.exact) / np.maximum(res.se, 1e-12)
    assert np.nan_to_num(z[:, 1:]).max() <= 3.0
    rows = res.rows()
    assert len(rows) == 3 * res.times.size


def test_hierarchy_moments_real_and_monotone_for_pure_emission():
    # counting channel only: mu_1 must be nondecreasing
    from tnpmc import JumpChannel, TnpModel, boson_ops

    ops = boson_ops(10)
    h = 0.5 * (ops.a + ops.adag)
    m = TnpModel(dim=10, hamiltonian=h, channels=(JumpChannel(1.0, ops.a, "count"),))
    psi0 = fock_plus_superposition(10)
    hier = solve_hierarchy(m, 0, 2, np.outer(psi0, psi0.conj()), TimeGrid(0.0, 2.0, 0.01))
    traces = np.trace(hier.trajectories[1].values, axis1=1, axis2=2)
    assert np.abs(traces.imag).max() <= 1e-10
    assert np.all(np.diff(hier.moments[1]) >= -1e-12)


def test_strongly_driven_validation():
    cfg = HeisenbergConfig(eps=TimeScalar.constant(1.0))
    with pytest.raises(InvalidParameter):
        validate_strongly_driven(cfg, TimeGrid(0.0, 1.0, 0.1))
    ok = HeisenbergConfig()
    validate_strongly_driven(ok, TimeGrid(0.0, 1.0, 0.1))


def test_heisenberg_observable_split():
    mu_p, rho_p, mu_m, rho_m = split_positive(P.x)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert mu_p == pytest.approx(1.0)
    assert mu_m == pytest.approx(1.0)
    assert np.allclose(rho_p, np.outer(plus, plus))


def test_heisenberg_constant_when_generator_vanishes():
    cfg = HeisenbergConfig(
        eps=TimeScalar.constant(0.0),
        gamma_minus=TimeScalar.constant(0.0),
        gamma_plus=TimeScalar.constant(0.0),
        n_trajectories=200,
        t_final=0.2,
        record_every=40,
        n_groups=4,
        seed=9,
    )
    res = run_heisenberg(cfg)
    for series in res.series.values():
        assert np.abs(series.est - series.est[0]).max() <= 1e-9
        assert np.abs(series.exact - series.exact[0]).max() <= 1e-9


def test_heisenberg_unitality_identity_observable():
    cfg = HeisenbergConfig(
        gamma_plus=TimeScalar.constant(1.0),
        gamma_minus=TimeScalar.constant(1.0),
        observables=("identity",),
        n_trajectories=400,
        t_final=0.2,
        record_every=20,
        n_groups=8,
        seed=11,
    )
    res = run_heisenberg(cfg)
    assert np.all(res.trace_est == 2.0)  # counts exactly conserved
    assert np.abs(res.trace_exact - 2.0).max() <= 1e-8


def test_heisenberg_exact_series_match_separate_rk4_runs():
    # the observables' RK4 oracle runs as one stack; each series must equal its own run
    cfg = HeisenbergConfig(observables=("sigma_z", "sigma_x", "sigma_y"), n_trajectories=100, t_final=0.1,
                           record_every=20, n_groups=4, seed=3)
    res = run_heisenberg(cfg)
    model = heisenberg_qubit(cfg.eps, cfg.gamma_minus, cfg.gamma_plus)
    grid = TimeGrid(0.0, cfg.t_final, cfg.dt)
    rec_idx = np.arange(0, grid.n_steps + 1, cfg.record_every)
    for k, (name, x0) in enumerate(cfg.observable_matrices()):
        values = integrate(model, x0, grid).values[rec_idx]
        assert np.array_equal(res.series[name].exact, np.einsum("tij,ji->t", values, cfg.pairing_state()).real)
        if k == 0:
            assert np.array_equal(res.trace_exact, np.trace(values, axis1=1, axis2=2).real)


def test_heisenberg_rejects_custom_observable_of_wrong_shape():
    with pytest.raises(InvalidParameter, match="2x2"):
        HeisenbergConfig(observables=(np.eye(3),)).observable_matrices()


def test_heisenberg_rejects_an_unknown_method():
    for method in ("RO", "rate-operator", ""):
        with pytest.raises(InvalidParameter, match="unknown method"):
            run_heisenberg(HeisenbergConfig(method=method, n_trajectories=10, t_final=0.01, record_every=1,
                                            n_groups=1))


def test_heisenberg_keeps_every_custom_observable():
    # two custom observables get their own series, named by position; the
    # trace comes from the first observable, custom or not
    x2 = 2.0 * P.x
    cfg = HeisenbergConfig(observables=(P.z, "sigma_x", x2), n_trajectories=200, t_final=0.1,
                           record_every=20, n_groups=4, seed=5)
    names = [name for name, _ in cfg.observable_matrices()]
    assert names == ["custom_0", "sigma_x", "custom_2"]
    res = run_heisenberg(cfg)
    assert list(res.series) == names
    model = heisenberg_qubit(cfg.eps, cfg.gamma_minus, cfg.gamma_plus)
    grid = TimeGrid(0.0, cfg.t_final, cfg.dt)
    rec_idx = np.arange(0, grid.n_steps + 1, cfg.record_every)
    for name, x0 in ((names[0], P.z), (names[2], x2)):
        values = integrate(model, x0, grid).values[rec_idx]
        assert np.array_equal(res.series[name].exact, np.einsum("tij,ji->t", values, cfg.pairing_state()).real)
    assert np.array_equal(res.trace_exact, np.trace(integrate(model, P.z, grid).values[rec_idx],
                                                    axis1=1, axis2=2).real)
    assert np.allclose(res.series[names[2]].exact, 2.0 * res.series["sigma_x"].exact, atol=1e-12)


def test_heisenberg_small_scale_tracks_oracle():
    cfg = HeisenbergConfig(n_trajectories=1500, t_final=1.0, record_every=100, n_groups=25, seed=13)
    res = run_heisenberg(cfg)
    for name, series in res.series.items():
        z = np.abs(series.est - series.exact) / np.maximum(series.se, 1e-12)
        assert z[1:].max() <= 3.0, name
    zt = np.abs(res.trace_est - res.trace_exact) / np.maximum(res.trace_se, 1e-12)
    assert zt[1:].max() <= 3.0
    assert res.column_names()[0] == "t"
    assert len(res.rows()[0]) == len(res.column_names())
