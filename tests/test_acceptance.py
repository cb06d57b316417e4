"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances and sizes are pinned; runtime budgets are
asserted as part of each criterion.
"""

import json
import time

import numpy as np
import pytest

from tnpmc import (
    Ensemble,
    JumpChannel,
    TimeGrid,
    TimeScalar,
    TnpModel,
    integrate,
    mcwf,
    pauli_ops,
    ro,
)
from tnpmc.cli import main as cli_main
from tnpmc.divisibility import divisibility_report
from tnpmc.errors import NegativeProbability
from tnpmc.experiments import (
    HeisenbergConfig,
    PhotonCountingConfig,
    bootstrap_rng,
    bootstrap_se_sums,
    run_heisenberg,
    run_photon_counting,
    run_tilted_trace,
)
from tnpmc.model import heisenberg_qubit
from tnpmc.mcwf import McwfScheme
from tnpmc.ro import RoScheme, RoStrategy

from helpers import (
    StepTable,
    liouvillian_pure,
    qubit_decay_model,
    random_state,
    random_tnp_model,
    step_expectation,
)

P = pauli_ops()
PROJ1 = P.plus @ P.minus
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


class Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget = budget_s
        self.t0 = time.time()

    def finish(self, ok, detail=""):
        elapsed = time.time() - self.t0
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"CRITERION {self.number} {status} ({elapsed:.1f}s / {self.budget:.0f}s): "
              f"{self.description} {detail}")
        assert ok, f"criterion {self.number}: {self.description} {detail}"
        assert elapsed < self.budget, f"criterion {self.number} exceeded runtime budget"


def test_criterion_1_probability_normalization():
    crit = Criterion(1, "outcome probabilities sum to one within 1e-12", 1.0)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(1000):
        dim = 2 if i % 2 == 0 else 3
        model = random_tnp_model(rng, dim, n_channels=int(rng.integers(1, 4)))
        psi = random_state(rng, dim)
        t = float(rng.uniform(0.0, 2.0))
        probs = StepTable(McwfScheme(), model, psi, t, 1e-3)
        worst = max(worst, abs(probs.total(0) - 1.0))
    crit.finish(worst <= 1e-12, f"(worst |sum-1| = {worst:.2e})")


def test_criterion_2_one_step_unbiasedness():
    crit = Criterion(2, "one-step expectation reproduces the generator to O(dt^2)", 10.0)
    rng = np.random.default_rng(2002)
    residuals = {1e-3: 0.0, 1e-4: 0.0}
    for _ in range(100):
        model = random_tnp_model(rng, 2)
        psi = random_state(rng, 2)
        proj = np.outer(psi, psi.conj())
        drift = liouvillian_pure(model, 0.0, psi)
        for dt in residuals:
            got = step_expectation(McwfScheme(), model, psi, 0.0, dt)
            residuals[dt] += np.abs(got - (proj + dt * drift)).max()
    ratio = residuals[1e-3] / residuals[1e-4]
    crit.finish(50.0 <= ratio <= 200.0, f"(residual ratio = {ratio:.1f})")


def _trace_run(model, n, seed, t_final=2.0, dt=1e-3, record_every=100, reverse=False):
    ens = Ensemble.sample_initial([(1.0, KET1)], n, seed=seed, n_groups=100)
    grid = TimeGrid(0.0, t_final, dt)
    return mcwf.run(model, ens, grid, record_every=record_every, reverse_jumps=reverse)


def test_criterion_3_trace_martingale():
    crit = Criterion(3, "trace follows the exact law within 3 bootstrap SE", 30.0)
    rng = bootstrap_rng(3003)
    # trace-decreasing: Gamma = Gamma_L + 0.5
    res = _trace_run(qubit_decay_model(gamma_shift=0.5), 10_000, seed=303)
    se = bootstrap_se_sums(res.group_counts / res.n_ref, rng)
    exact = np.exp(-0.5 * res.times)
    z_dec = np.abs(res.trace_estimates - exact)[1:] / np.maximum(se[1:], 1e-15)
    # trace-increasing: Gamma = 0 against the RK4 oracle
    free = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)),
                    channels=(JumpChannel(1.0, P.minus),), gamma=np.zeros((2, 2), dtype=complex))
    res2 = _trace_run(free, 10_000, seed=304)
    se2 = bootstrap_se_sums(res2.group_counts / res2.n_ref, rng)
    oracle = integrate(free, np.outer(KET1, KET1.conj()), TimeGrid(0.0, 2.0, 1e-3))
    exact2 = np.trace(oracle.values[::100], axis1=1, axis2=2).real
    z_inc = np.abs(res2.trace_estimates - exact2)[1:] / np.maximum(se2[1:], 1e-15)
    ok = z_dec.max() <= 3.0 and z_inc.max() <= 3.0
    crit.finish(ok, f"(max z: decreasing {z_dec.max():.2f}, increasing {z_inc.max():.2f})")


def oscillating_rate_model():
    rate = TimeScalar.sinusoid(1.0, 2.0)
    return TnpModel(
        dim=2, hamiltonian=np.zeros((2, 2)),
        channels=(JumpChannel(rate, P.minus, "osc"),),
        gamma=lambda t: np.cos(2 * t) * PROJ1 + 0.3 * np.eye(2),
    )


def test_criterion_4_reverse_jumps():
    crit = Criterion(4, "reverse jumps recover the negative-rate oracle within 3 SE", 60.0)
    model = oscillating_rate_model()
    # without reverse jumps the negative interval must be rejected
    ens = Ensemble.sample_initial([(1.0, PLUS)], 200, seed=404)
    with pytest.raises(NegativeProbability):
        mcwf.run(model, ens, TimeGrid(0.0, 1.2, 1e-3))
    # positivity of the exact solution fails beyond t ~ 1.6, so the run stops at 1.2
    grid = TimeGrid(0.0, 1.2, 1e-3)
    observables = {"pop1": PROJ1.astype(complex), "sx": P.x, "sy": P.y}
    ens = Ensemble.sample_initial([(1.0, PLUS)], 20_000, seed=405, n_groups=100)
    res = mcwf.run(model, ens, grid, reverse_jumps=True, record_every=60,
                   observables=observables)
    oracle = integrate(model, np.outer(PLUS, PLUS.conj()), grid).values[::60]
    rng = bootstrap_rng(4004)
    zmax = 0.0
    exacts = {
        "pop1": oracle[:, 1, 1].real,
        "sx": 2.0 * oracle[:, 0, 1].real,
        "sy": -2.0 * oracle[:, 0, 1].imag,
    }
    for name, op in observables.items():
        est = res.group_observables[name].sum(axis=1)
        se = bootstrap_se_sums(res.group_observables[name], rng)
        z = np.abs(est - exacts[name])[1:] / np.maximum(se[1:], 1e-15)
        zmax = max(zmax, z.max())
    se_tr = bootstrap_se_sums(res.group_counts / res.n_ref, rng)
    tr_exact = np.trace(oracle, axis1=1, axis2=2).real
    z_tr = np.abs(res.trace_estimates - tr_exact)[1:] / np.maximum(se_tr[1:], 1e-15)
    zmax = max(zmax, z_tr.max())
    crit.finish(zmax <= 3.0, f"(max z over state observables and trace = {zmax:.2f})")


def test_criterion_5_ro_equivalence():
    crit = Criterion(5, "rate-operator and MCWF schemes agree; gauge term cancels", 60.0)
    model = TnpModel(
        dim=2, hamiltonian=0.5 * P.x,
        channels=(JumpChannel(1.0, P.minus, "decay"),),
        gamma=lambda t: PROJ1 + 0.2 * np.eye(2),
    )
    grid = TimeGrid(0.0, 1.0, 1e-3)
    observables = {"pop1": PROJ1.astype(complex), "sx": P.x}
    rng = bootstrap_rng(5005)
    results = {}
    for name, runner, seed in (("mcwf", mcwf.run, 505), ("ro", ro.run, 506)):
        ens = Ensemble.sample_initial([(1.0, PLUS)], 10_000, seed=seed, n_groups=100)
        res = runner(model, ens, grid, record_every=1000, observables=observables)
        entries = {"trace": (res.trace_estimates[-1],
                             bootstrap_se_sums(res.group_counts / res.n_ref, rng)[-1])}
        for obs in observables:
            entries[obs] = (res.group_observables[obs].sum(axis=1)[-1],
                            bootstrap_se_sums(res.group_observables[obs], rng)[-1])
        results[name] = entries
    z_eq = 0.0
    for obs in ("trace", "pop1", "sx"):
        (em, sm), (er, sr) = results["mcwf"][obs], results["ro"][obs]
        z_eq = max(z_eq, abs(em - er) / np.sqrt(sm**2 + sr**2))
    # gauge-term cancellation: arbitrary C leaves the one-step average unbiased
    rng2 = np.random.default_rng(5050)
    residuals = {1e-3: 0.0, 1e-4: 0.0}
    for _ in range(20):
        m = random_tnp_model(rng2, 2)
        psi = random_state(rng2, 2)
        c_mat = rng2.normal(size=(2, 2)) + 1j * rng2.normal(size=(2, 2))
        strategy = RoStrategy.user(lambda s, t, _c=c_mat: _c)
        proj = np.outer(psi, psi.conj())
        drift = liouvillian_pure(m, 0.0, psi)
        for dt in residuals:
            got = step_expectation(RoScheme(strategy), m, psi, 0.0, dt)
            residuals[dt] += np.abs(got - (proj + dt * drift)).max()
    ratio = residuals[1e-3] / residuals[1e-4]
    ok = z_eq <= 3.0 and 50.0 <= ratio <= 200.0
    crit.finish(ok, f"(scheme max z = {z_eq:.2f}, gauge residual ratio = {ratio:.1f})")


def test_criterion_6_photon_counting():
    crit = Criterion(6, "counting moments match the exact hierarchy within 3 SE", 600.0)
    cfg = PhotonCountingConfig(seed=606)
    series = run_photon_counting(cfg)
    z = np.abs(series.est[:, 1:] - series.exact[:, 1:]) / np.maximum(series.se[:, 1:], 1e-15)
    zmax = float(z.max())
    tilt = run_tilted_trace(cfg)
    final = tilt.est[:, -1]
    ordering = final[0] < 1.0 < final[2] and np.all(tilt.est[1] == 1.0)
    exact_sign = tilt.exact[0, -1] < 1.0 < tilt.exact[2, -1]
    ok = zmax <= 3.0 and ordering and exact_sign
    crit.finish(ok, f"(max moment z = {zmax:.2f}, tilted final traces = {np.round(final, 4)})")


def test_criterion_7_heisenberg():
    crit = Criterion(7, "observable evolution matches the adjoint-picture oracle", 300.0)
    cfg = HeisenbergConfig(seed=707)
    res = run_heisenberg(cfg)
    zmax = 0.0
    for name, series in res.series.items():
        z = np.abs(series.est - series.exact)[1:] / np.maximum(series.se[1:], 1e-15)
        zmax = max(zmax, float(z.max()))
    z_tr = np.abs(res.trace_est - res.trace_exact)[1:] / np.maximum(res.trace_se[1:], 1e-15)
    zmax = max(zmax, float(z_tr.max()))
    crit.finish(zmax <= 3.0, f"(max z over x, z, trace = {zmax:.2f})")


def test_criterion_8_divisibility():
    crit = Criterion(8, "picture-dependent divisibility diagnostics", 30.0)
    model = heisenberg_qubit(
        TimeScalar.constant(20.0),
        TimeScalar.sinusoid(0.9, 40.0, 0.0, 1.0),
        TimeScalar.exponential(0.5, -1.0),
    )
    grid = TimeGrid(0.0, 1.0, 1e-3)
    direct = divisibility_report(model, grid)
    adjoint = divisibility_report(model, grid, adjoint=True)
    early = adjoint.times <= 0.5
    min_early = float(adjoint.min_choi_eigenvalues[early].min())
    norm_early = float(adjoint.max_bloch_norms[early].max())
    heis_min = float(direct.min_choi_eigenvalues.min())
    ok = heis_min >= -1e-8 and min_early < -1e-6 and norm_early > 1.0 + 1e-6
    crit.finish(
        ok,
        f"(adjoint min eig = {min_early:.2e}, max norm - 1 = {norm_early - 1:.2e}, "
        f"direct min eig = {heis_min:.2e})",
    )


def test_criterion_9_determinism(tmp_path):
    crit = Criterion(9, "identical CSV bytes across 1, 4, 8 workers", 120.0)
    cfg = {
        "command": "simulate",
        "model": {
            "dim": 2,
            "channels": [{"label": "decay", "rate": 1.0, "op": "sigma_minus"}],
            "gamma": {"kind": "lindblad_plus_identity", "shift": 0.5},
        },
        "initial_state": [[0.0, 0.0], [1.0, 0.0]],
        "dt": 1e-3,
        "t_final": 2.0,
        "n_trajectories": 10_000,
        "seed": 909,
        "record_every": 100,
        "n_groups": 100,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"run{threads}"
        code = cli_main(["--config", str(cfg_path), "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    crit.finish(ok, f"({len(outputs[0])} bytes each)")
