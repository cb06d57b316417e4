"""End-to-end studies: counting-statistics moments via the inhomogeneous
hierarchy, tilted-generator trace curves, and observable evolution unraveled
in the adjoint picture."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import exact, mcwf, ro
from .ensemble import Ensemble, largest_remainder
from .errors import CutoffLeakage, InvalidParameter
from .exact import OperatorTrajectory, TimeGrid
from .linops import hermitian_eig, split_hermitian, split_positive
from .model import (
    SourceTerm, TimeScalar, TnpModel, heisenberg_qubit, matrix_from_json, pauli_ops, tilted_lindbladian,
)
from .rng import stream_key

BOOTSTRAP_RESAMPLES = 200
_BOOT_TAG = 0xB00757
_TOWER_TAG = 0x70EE
_TILT_TAG = 0x7117
# photon-counting towers per engine run; every lane holds its average states of
# two stages, so the chunk, not the tower count, sets the memory of a study
TOWER_LANES = 4


def bootstrap_rng(seed: int, tag: int = _BOOT_TAG) -> np.random.Generator:
    return np.random.default_rng(stream_key(seed, tag)[0])


def bootstrap_se_sums(
    group_values: np.ndarray, rng: np.random.Generator, n_resamples: int = BOOTSTRAP_RESAMPLES
) -> np.ndarray:
    """Bootstrap standard error of sum-over-groups estimators.

    ``group_values`` has shape (n_rec, G); the estimator at each recorded time
    is the sum over the G independent groups.
    """
    g = group_values.shape[1]
    idx = rng.integers(0, g, size=(n_resamples, g))
    sums = group_values[:, idx].sum(axis=-1)  # (n_rec, B)
    return sums.std(axis=1, ddof=1)


def bootstrap_se_combined(
    parts: Sequence[tuple[float, np.ndarray]],
    rng: np.random.Generator,
    n_resamples: int = BOOTSTRAP_RESAMPLES,
) -> np.ndarray:
    """SE of sum_c coef_c * (sum over groups of part_c), resampling each part
    independently (parts come from independent ensembles)."""
    n_rec = parts[0][1].shape[0]
    acc = np.zeros((n_rec, n_resamples))
    for coef, vals in parts:
        g = vals.shape[1]
        idx = rng.integers(0, g, size=(n_resamples, g))
        acc += coef * vals[:, idx].sum(axis=-1)
    return acc.std(axis=1, ddof=1)


# ---------------------------------------------------------------------------
# Photon counting moments


def fock_plus_superposition(n_max: int) -> np.ndarray:
    """(|0> + |1>)/sqrt(2) embedded in the truncated Fock space."""
    psi = np.zeros(n_max, dtype=complex)
    psi[0] = psi[1] = 1.0 / np.sqrt(2.0)
    return psi


@dataclass
class PhotonCountingConfig:
    gamma: float = 1.0
    nbar: float = 0.5
    Omega: float = 1.0
    phi: float = 0.2
    zeta_list: tuple[float, ...] = (-0.02, 0.0, 0.02)
    k_max: int = 4
    n_max: int = 20
    dt: float = 1e-2
    t_final: float = 3.0
    n_trajectories: int = 10_000
    seed: int = 20_24
    n_towers: int = 50
    record_every: int = 30
    leakage_tol: float = 1e-6
    # dt = 1e-2 with unit rates implies occasional >10% single-step jump mass on
    # high Fock levels, so the stage runs get a wider guard than the default
    jump_mass_limit: float = 0.5


@dataclass
class MomentSeries:
    """Trajectory moment estimates with bootstrap errors and the exact hierarchy."""

    times: np.ndarray
    est: np.ndarray  # (k_max, n_rec), moments k = 1..k_max
    se: np.ndarray
    exact: np.ndarray
    k_max: int

    def rows(self) -> list[tuple]:
        out = []
        for i, t in enumerate(self.times):
            row = [float(t)]
            row += [float(self.est[k, i]) for k in range(self.k_max)]
            row += [float(self.se[k, i]) for k in range(self.k_max)]
            row += [float(self.exact[k, i]) for k in range(self.k_max)]
            out.append(tuple(row))
        return out

    def column_names(self) -> list[str]:
        ks = range(1, self.k_max + 1)
        return (
            ["t"]
            + [f"mu_{k}" for k in ks]
            + [f"se_{k}" for k in ks]
            + [f"exact_{k}" for k in ks]
        )


def check_cutoff_leakage(traj: OperatorTrajectory, tol: float) -> float:
    """Max combined population of the top two levels; raises above tol."""
    d = traj.values.shape[1]
    pops = traj.values[:, d - 1, d - 1].real + traj.values[:, d - 2, d - 2].real
    worst = float(pops.max())
    if worst > tol:
        raise CutoffLeakage(
            f"top-two-level population {worst:.3e} exceeds {tol:.1e}; increase n_max"
        )
    return worst


def stage_flux(k: int, rates: np.ndarray, scale_prev: np.ndarray, num_op: np.ndarray,
               avg_prev: np.ndarray) -> np.ndarray:
    """Predicted growth rate of the stage-k raw moment at every grid time:
    k * rate * scale_{k-1} * tr[L^dag L avg_{k-1}], from the previous stage's
    recorded averages (n_steps + 1, d, d)."""
    return k * rates * scale_prev * np.einsum("ij,tji->t", num_op, avg_prev).real


def run_photon_counting(cfg: PhotonCountingConfig) -> MomentSeries:
    """Stage-by-stage unraveling of the moment hierarchy.

    Stage k evolves an initially empty ensemble fed by Poisson creations from
    the spectral decomposition of k * J[avg_{k-1}(t)], where avg_{k-1} is the
    trajectory average recorded by the previous stage. Because the hierarchy is
    linear, each stage is run in rescaled units (source divided by its
    integrated magnitude, estimates multiplied back), which keeps realization
    counts of order n per stage even though the raw moments grow rapidly.
    The run is split into independent towers so the bootstrap captures the
    stage-to-stage coupling. Each stage of a chunk of ``TOWER_LANES`` towers
    is one engine run, its towers the lanes, each under its own staged model.
    """
    grid = TimeGrid(0.0, cfg.t_final, cfg.dt)
    base = tilted_lindbladian(cfg.gamma, cfg.nbar, cfg.Omega, cfg.phi, 0.0, cfg.n_max)
    psi0 = fock_plus_superposition(cfg.n_max)
    rho0 = np.outer(psi0, psi0.conj())

    hier = exact.solve_hierarchy(base, 0, cfg.k_max, rho0, grid)
    check_cutoff_leakage(hier.trajectories[0], cfg.leakage_tol)
    exact_moments = hier.moments
    del hier  # the k_max + 1 operator trajectories are not needed by the stage runs

    counting_op = base.channels[0].op
    counting_rate = base.channels[0].rate
    counting_dag = counting_op.conj().T
    eye = np.eye(base.dim)

    tower_sizes = largest_remainder(np.ones(cfg.n_towers), cfg.n_trajectories)
    n_steps = grid.n_steps
    rec_idx = np.arange(0, n_steps + 1, cfg.record_every)
    tower_mu = np.zeros((cfg.k_max, cfg.n_towers, rec_idx.size))

    def rate_at(t: float) -> float:
        return counting_rate(t) if callable(counting_rate) else float(counting_rate)

    dt = grid.dt
    rates = np.array([rate_at(t) for t in grid.times()])
    num_op = counting_dag @ counting_op
    c_ramp_max = 20.0  # gauge disappearance rate cap; p_d per step stays <= c * dt

    def time_index(t: float) -> int:
        return min(int(round((t - grid.t0) / dt)), n_steps)

    def staged_model(k: int, avg_prev: np.ndarray, scale_prev: np.ndarray) -> tuple[TnpModel, np.ndarray]:
        """Stage k of one tower, fed by its stage k - 1, and its moment scale."""
        # predicted raw-moment growth from the previous stage's average
        flux = stage_flux(k, rates, scale_prev, num_op, avg_prev)
        mu_pred = np.concatenate([[0.0], np.cumsum(0.5 * (flux[1:] + flux[:-1]) * dt)])
        # stage gauge: mostly thinning. Below the floor the counts are a
        # few-fold amplified relative to a direct run, which keeps the
        # smallest recorded moments resolvable while their statistical
        # error still dominates the O(dt) step bias; beyond the floor the
        # scale tracks the moment so counts stay near n_g. The backward
        # pass caps the log slope (and hence p_d per step).
        logs = np.log(np.maximum(mu_pred, 0.3))
        for i in range(n_steps - 1, -1, -1):
            logs[i] = max(logs[i], logs[i + 1] - c_ramp_max * dt)
        scale = np.exp(logs)
        dl = np.diff(np.log(scale))
        # survival factor per step is exactly exp(-dl); creations enter at
        # the end-of-step scale, so converting with `scale` adds no gauge
        # bias at any order in dt
        c_steps = (1.0 - np.exp(-dl)) / dt
        avg = OperatorTrajectory(grid, avg_prev)

        def gauge_gamma(t: float) -> np.ndarray:
            i = min(time_index(t), n_steps - 1)
            return base.gamma_L(t) + c_steps[i] * eye

        def source(t: float) -> np.ndarray:
            # t is a step midpoint; creations are converted at the
            # end-of-step scale so the gauge stays bias-free
            i = min(int(np.floor((t - grid.t0) / dt + 1e-9)), n_steps - 1)
            sp_mid = 0.5 * (scale_prev[i] + scale_prev[i + 1])
            f = k * sp_mid / scale[i + 1]
            return f * rate_at(t) * (counting_op @ avg.at(t) @ counting_dag)

        model = TnpModel(dim=base.dim, hamiltonian=base.hamiltonian, channels=base.channels,
                         gamma=gauge_gamma, source=SourceTerm(source))
        return model, scale

    towers = [g for g in range(cfg.n_towers) if tower_sizes[g] > 0]
    options = dict(record_every=1, jump_mass_limit=cfg.jump_mass_limit, record_distinct=False)
    for first in range(0, len(towers), TOWER_LANES):
        chunk = towers[first : first + TOWER_LANES]
        ensembles = [Ensemble.sample_initial([(1.0, psi0)], int(tower_sizes[g]),
                                             seed=stream_key(cfg.seed, _TOWER_TAG, g * 64)[0]) for g in chunk]
        results = mcwf.run(base, ensembles, grid, **options)
        prev = [(res.average_states, np.ones(n_steps + 1)) for res in results]
        for k in range(1, cfg.k_max + 1):
            models, scales = zip(*(staged_model(k, avg, sp) for avg, sp in prev))
            ensembles = [Ensemble.empty(base.dim, n_ref=int(tower_sizes[g]),
                                        seed=stream_key(cfg.seed, _TOWER_TAG, g * 64 + k)[0]) for g in chunk]
            del results, prev  # each stage holds only its own and the previous stage's series
            results = mcwf.run(list(models), ensembles, grid, **options)
            for g, scale, res in zip(chunk, scales, results):
                tower_mu[k - 1, g] = scale[rec_idx] * res.trace_estimates[rec_idx]
            prev = [(res.average_states, scale) for res, scale in zip(results, scales)]

    weights = tower_sizes / cfg.n_trajectories
    est = np.einsum("kgr,g->kr", tower_mu, weights)
    rng = bootstrap_rng(cfg.seed)
    se = np.stack(
        [
            bootstrap_se_sums((tower_mu[k] * weights[:, None]).T, rng)
            for k in range(cfg.k_max)
        ]
    )
    return MomentSeries(
        times=grid.times()[rec_idx],
        est=est,
        se=se,
        exact=exact_moments[1:, rec_idx],
        k_max=cfg.k_max,
    )


@dataclass
class TiltedTraceResult:
    times: np.ndarray
    zetas: tuple[float, ...]
    est: np.ndarray  # (n_zeta, n_rec)
    se: np.ndarray
    exact: np.ndarray

    def rows(self) -> list[tuple]:
        out = []
        for zi, z in enumerate(self.zetas):
            for ti, t in enumerate(self.times):
                out.append((float(t), float(z), float(self.est[zi, ti]), float(self.exact[zi, ti])))
        return out

    def column_names(self) -> list[str]:
        return ["t", "zeta", "trace_est", "trace_exact"]


def run_tilted_trace(cfg: PhotonCountingConfig, n_groups: int = 100) -> TiltedTraceResult:
    """Direct runs of the tilted generator for each zeta in cfg.zeta_list."""
    grid = TimeGrid(0.0, cfg.t_final, cfg.dt)
    psi0 = fock_plus_superposition(cfg.n_max)
    rho0 = np.outer(psi0, psi0.conj())
    rec_idx = np.arange(0, grid.n_steps + 1, cfg.record_every)
    est = np.zeros((len(cfg.zeta_list), rec_idx.size))
    se = np.zeros_like(est)
    ex = np.zeros_like(est)
    rng = bootstrap_rng(cfg.seed, _TILT_TAG)
    for zi, zeta in enumerate(cfg.zeta_list):
        model = tilted_lindbladian(cfg.gamma, cfg.nbar, cfg.Omega, cfg.phi, zeta, cfg.n_max)
        ex[zi] = np.trace(
            exact.integrate(model, rho0, grid).values[rec_idx], axis1=1, axis2=2
        ).real
        ens = Ensemble.sample_initial(
            [(1.0, psi0)], cfg.n_trajectories, seed=stream_key(cfg.seed, _TILT_TAG, zi)[0],
            n_groups=n_groups,
        )
        res = mcwf.run(model, ens, grid, record_every=cfg.record_every,
                       jump_mass_limit=cfg.jump_mass_limit)
        est[zi] = res.trace_estimates
        se[zi] = bootstrap_se_sums(res.group_counts / res.n_ref, rng)
    return TiltedTraceResult(
        times=grid.times()[rec_idx], zetas=tuple(cfg.zeta_list), est=est, se=se, exact=ex
    )


# ---------------------------------------------------------------------------
# Observable evolution in the adjoint picture


@dataclass
class HeisenbergConfig:
    eps: TimeScalar = field(default_factory=lambda: TimeScalar.constant(20.0))
    gamma_minus: TimeScalar = field(default_factory=lambda: TimeScalar.sinusoid(0.9, 40.0, 0.0, 1.0))
    gamma_plus: TimeScalar = field(default_factory=lambda: TimeScalar.exponential(0.5, -1.0))
    observables: tuple[str, ...] = ("sigma_x", "sigma_z")
    initial_state: Optional[np.ndarray] = None  # Schroedinger state paired in expectations
    dt: float = 1e-3
    t_final: float = 3.0
    n_trajectories: int = 20_000
    seed: int = 20_25
    method: str = "mcwf"
    n_groups: int = 100
    record_every: int = 100

    def observable_matrices(self) -> list[tuple[str, np.ndarray]]:
        p = pauli_ops()
        named = {"sigma_x": p.x, "sigma_y": p.y, "sigma_z": p.z, "identity": p.identity}
        out = []
        for position, name in enumerate(self.observables):
            if isinstance(name, str):
                if name not in named:
                    raise InvalidParameter(f"unknown observable {name!r}")
                out.append((name, named[name]))
            else:
                # a real matrix, or the config schema's nested [re, im] pairs
                x = np.asarray(name)
                x = matrix_from_json(x) if x.ndim == 3 else x.astype(complex)
                if x.shape != (2, 2):
                    raise InvalidParameter(f"custom observable must be a 2x2 matrix, got shape {x.shape}")
                out.append((f"custom_{position}", x))
        return out

    def pairing_state(self) -> np.ndarray:
        if self.initial_state is None:
            # generic default keeps all Bloch components nontrivial
            psi = np.array([1.0, 0.6 + 0.8j]) / np.sqrt(2.0)
            return np.outer(psi, psi.conj())
        arr = np.asarray(self.initial_state, dtype=complex)
        if arr.ndim == 1:
            arr = arr / np.linalg.norm(arr)
            return np.outer(arr, arr.conj())
        return arr


@dataclass
class ObservableSeries:
    est: np.ndarray
    se: np.ndarray
    exact: np.ndarray


@dataclass
class HeisenbergResult:
    times: np.ndarray
    series: dict[str, ObservableSeries]  # expectation tr[X(t) rho_S(0)]
    trace_est: np.ndarray  # tr X(t) for the first observable, from count ratios
    trace_se: np.ndarray
    trace_exact: np.ndarray
    distinct_states: np.ndarray

    def rows(self) -> list[tuple]:
        names = list(self.series)
        out = []
        for i, t in enumerate(self.times):
            row = [float(t)]
            row += [float(self.series[n].est[i]) for n in names]
            row += [float(self.series[n].exact[i]) for n in names]
            row += [
                float(self.trace_est[i]),
                float(self.trace_exact[i]),
                int(self.distinct_states[i]),
            ]
            out.append(tuple(row))
        return out

    def column_names(self) -> list[str]:
        names = list(self.series)
        return (
            ["t"]
            + [f"{n}_est" for n in names]
            + [f"{n}_exact" for n in names]
            + ["trace_est", "trace_exact", "distinct_states"]
        )


def validate_strongly_driven(cfg: HeisenbergConfig, grid: TimeGrid) -> None:
    ts = grid.times()
    eps = np.array([abs(cfg.eps(t)) for t in ts])
    gmax = np.array([max(cfg.gamma_minus(t), cfg.gamma_plus(t)) for t in ts])
    if np.any(eps < 10.0 * gmax):
        worst = int(np.argmax(10.0 * gmax - eps))
        raise InvalidParameter(
            f"strongly driven check failed at t = {ts[worst]:.4g}: "
            f"|eps| = {eps[worst]:.3g} < 10 * max gamma = {10 * gmax[worst]:.3g}"
        )
    if np.any(np.array([min(cfg.gamma_minus(t), cfg.gamma_plus(t)) for t in ts]) < 0.0):
        raise InvalidParameter("gamma_plus/gamma_minus must stay positive on the grid")


def run_heisenberg(cfg: HeisenbergConfig) -> HeisenbergResult:
    """Unravel the observable evolution via weighted positive components.

    Each observable is split into positive parts, every part is evolved as its
    own ensemble (all of them lanes of one engine run, which share the model),
    and the estimate is recombined with the split weights. The
    pairing expectation uses the Schroedinger initial state as the recorded
    observable of each run; tr X(t) comes from the count ratios.
    """
    runners = {"mcwf": mcwf.run, "ro": ro.run}
    if cfg.method not in runners:
        raise InvalidParameter(f"unknown method {cfg.method!r}; expected one of {sorted(runners)}")
    grid = TimeGrid(0.0, cfg.t_final, cfg.dt)
    validate_strongly_driven(cfg, grid)
    model = heisenberg_qubit(cfg.eps, cfg.gamma_minus, cfg.gamma_plus)
    rho_s = cfg.pairing_state()
    rec_idx = np.arange(0, grid.n_steps + 1, cfg.record_every)
    times = grid.times()[rec_idx]
    runner = runners[cfg.method]
    rng = bootstrap_rng(cfg.seed)

    observables = cfg.observable_matrices()
    exact_values = exact.integrate(model, np.stack([x0 for _, x0 in observables]), grid).values[rec_idx]
    # the positive parts of every observable, as lanes of one run
    parts: list[tuple[int, float]] = []  # (observable, split weight) of each lane
    ensembles = []
    for k, (name, x0) in enumerate(observables):
        xh, xa = split_hermitian(x0)
        if float(np.abs(xa).max()) > 1e-12:
            raise InvalidParameter(f"observable {name} must be Hermitian")
        mu_p, rho_p, mu_m, rho_m = split_positive(xh)
        components = []
        if rho_p is not None:
            components.append((mu_p, rho_p))
        if rho_m is not None:
            components.append((-mu_m, rho_m))
        for coef, comp in components:
            eig = hermitian_eig(comp)
            decomposition = [
                (float(w), eig.vectors[:, i]) for i, w in enumerate(eig.values) if w > 1e-12
            ]
            ensembles.append(Ensemble.sample_initial(
                decomposition,
                cfg.n_trajectories,
                seed=stream_key(cfg.seed, 0x4E15, len(ensembles))[0],
                n_groups=cfg.n_groups,
            ))
            parts.append((k, coef))
    results = runner(model, ensembles, grid, record_every=cfg.record_every, observables={"pairing": rho_s})

    series: dict[str, ObservableSeries] = {}
    trace_first = None
    distinct = np.zeros(rec_idx.size, dtype=np.int64)
    for k, (name, _) in enumerate(observables):
        est_parts = []
        trace_parts = []
        for (owner, coef), res in zip(parts, results):
            if owner != k:
                continue
            est_parts.append((coef, res.group_observables["pairing"]))
            trace_parts.append((coef, res.group_counts / res.n_ref))
            distinct += res.distinct_counts

        est = sum(coef * vals.sum(axis=1) for coef, vals in est_parts)
        se = bootstrap_se_combined(est_parts, rng)
        x_exact = np.ascontiguousarray(exact_values[:, k])
        exact_vals = np.einsum("tij,ji->t", x_exact, rho_s).real
        series[name] = ObservableSeries(est=est, se=se, exact=exact_vals)
        if trace_first is None:
            trace_first = (
                sum(coef * vals.sum(axis=1) for coef, vals in trace_parts),
                bootstrap_se_combined(trace_parts, rng),
                np.trace(x_exact, axis1=1, axis2=2).real,
            )

    return HeisenbergResult(
        times=times,
        series=series,
        trace_est=trace_first[0],
        trace_se=trace_first[1],
        trace_exact=trace_first[2],
        distinct_states=distinct,
    )
