"""Rate-operator unraveling: jumps land on the eigenstates of a state-dependent
positive operator built from the jump channels plus an arbitrary gauge term.

The gauge operator C_psi reshapes individual branches (and the deterministic
drift through K_psi = H - i/2 Gamma - i/2 C_psi) without changing the ensemble
average; the replication/disappearance layer and the reverse-jump machinery are
shared with the MCWF scheme through the common engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import engine
from .ensemble import Ensemble, Trajectory, canonical_key
from .errors import NegativeProbability, NoSourceState, StepTooLarge, ZeroNorm
from .exact import TimeGrid
from .linops import HermitianEigen, expectations_rows, phase_fix
from .mcwf import NORM_FLOOR, OutcomeKind, StepOutcome, StepProbabilities
from .model import TnpModel
from .rng import uniform_at

BRANCH_PRUNE = 1e-14  # eigenbranches below this weight are dropped
NEG_BRANCH_TOL = -1e-12  # below this an eigenvalue counts as genuinely negative


@dataclass(frozen=True)
class RoStrategy:
    """Gauge choice: C = 0 or a user-supplied C(psi, t)."""

    kind: str
    fn: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    @staticmethod
    def zero() -> "RoStrategy":
        return RoStrategy(kind="zero")

    @staticmethod
    def user(fn: Callable[[np.ndarray, float], np.ndarray]) -> "RoStrategy":
        return RoStrategy(kind="user", fn=fn)

    def c_matrix(self, psi: np.ndarray, t: float) -> Optional[np.ndarray]:
        if self.kind == "zero":
            return None
        return np.asarray(self.fn(psi, t), dtype=complex)


@dataclass(frozen=True)
class RateOperator:
    matrix: np.ndarray
    eigen: HermitianEigen


def rate_operator(model: TnpModel, psi: np.ndarray, t: float, strategy: RoStrategy) -> RateOperator:
    """R_psi = sum_j gamma_j L_j |psi><psi| L_j^dag + 1/2 (C |psi><psi| + |psi><psi| C^dag)."""
    r = np.zeros((model.dim, model.dim), dtype=complex)
    for ch, op in zip(model.channels, model._ops):
        lp = op @ psi
        r += ch.rate_at(t) * np.outer(lp, lp.conj())
    c = strategy.c_matrix(psi, t)
    if c is not None:
        proj = np.outer(psi, psi.conj())
        r += 0.5 * (c @ proj + proj @ c.conj().T)
    r = 0.5 * (r + r.conj().T)
    return RateOperator(matrix=r, eigen=HermitianEigen(*_eig_sorted(r)))


def _eig_sorted(r: np.ndarray):
    values, vectors = np.linalg.eigh(r)
    vectors = np.column_stack([phase_fix(vectors[:, k]) for k in range(vectors.shape[1])])
    return values, vectors


def effective_hamiltonian_ro(model: TnpModel, psi: np.ndarray, t: float, strategy: RoStrategy) -> np.ndarray:
    k = model.effective_hamiltonian(t)
    c = strategy.c_matrix(psi, t)
    return k if c is None else k - 0.5j * c


def ro_step_probabilities(
    model: TnpModel,
    psi: np.ndarray,
    t: float,
    dt: float,
    strategy: RoStrategy,
    allow_negative: bool = False,
) -> StepProbabilities:
    """Branch probabilities lambda_alpha dt plus the shared d/c/deterministic split.

    Branches with |lambda| below the pruning threshold appear with probability
    exactly zero; the deterministic entry is the residual, so the partition is
    normalized to one as computed.
    """
    ro = rate_operator(model, psi, t, strategy)
    lam = ro.eigen.values
    if not allow_negative and float(lam.min()) < NEG_BRANCH_TOL:
        raise NegativeProbability(
            f"rate-operator eigenvalue {lam.min():.3e} < 0 at t = {t:.6g}; enable reverse jumps"
        )
    p_jump = lam * dt
    p_jump[np.abs(lam) < BRANCH_PRUNE] = 0.0
    if model.is_trace_preserving:
        x = 0.0
    else:
        diff = model.gamma_L(t) - model.gamma_at(t)
        x = float(np.vdot(psi, diff @ psi).real)
    p_d = max(0.0, -x * dt)
    p_c = max(0.0, x * dt)
    if float(np.maximum(p_jump, 0.0).sum() + p_d) > engine.JUMP_MASS_LIMIT:
        raise StepTooLarge(
            f"jump+disappearance probability exceeds {engine.JUMP_MASS_LIMIT} at t = {t:.6g}; reduce dt"
        )
    p_det = 1.0 - float(p_jump.sum()) - p_d - p_c
    return StepProbabilities(p_jump=p_jump, p_det=p_det, p_d=p_d, p_c=p_c, dt=dt)


def ro_deterministic_step(
    model: TnpModel, psi: np.ndarray, t: float, dt: float, strategy: RoStrategy
) -> np.ndarray:
    k = effective_hamiltonian_ro(model, psi, t, strategy)
    un = psi - 1j * dt * (k @ psi)
    n2 = float(np.vdot(un, un).real)
    if n2 < NORM_FLOOR:
        raise ZeroNorm(f"deterministic map annihilated the state at t = {t:.6g}")
    return un / np.sqrt(n2)


def ro_reverse_jump_probability(lambda_value: float, n_psi: int, n_psi_prime: int, dt: float) -> float:
    """Reverse branch psi -> psi' where psi is a negative-eigenvalue eigenstate
    of R_{psi'}; probability |lambda| (N_psi' / N_psi) dt per realization."""
    if lambda_value >= 0.0 or n_psi_prime <= 0:
        return 0.0
    if n_psi <= 0:
        raise NoSourceState("reverse jump requires realizations in the current state")
    return abs(lambda_value) * (n_psi_prime / n_psi) * dt


def ro_advance_trajectory(
    model: TnpModel,
    traj: Trajectory,
    t: float,
    dt: float,
    strategy: RoStrategy,
    count_snapshot: Optional[dict] = None,
    reverse_jumps: bool = False,
    u: Optional[float] = None,
) -> StepOutcome:
    """Single-realization outcome draw with eigenbranch jumps."""
    psi = traj.state
    probs = ro_step_probabilities(model, psi, t, dt, strategy, allow_negative=reverse_jumps)
    ro = rate_operator(model, psi, t, strategy)
    bins: list[tuple[float, StepOutcome]] = []
    for a, p in enumerate(probs.p_jump):
        if p > 0.0:
            bins.append(
                (float(p), StepOutcome(OutcomeKind.JUMP, ro.eigen.vectors[:, a].copy(), eigenindex=a))
            )
    if reverse_jumps and count_snapshot:
        my_key = canonical_key(psi)
        n_here = count_snapshot.get(my_key, (traj.multiplicity, psi))[0]
        for key, (cnt, rep) in count_snapshot.items():
            if cnt <= 0:
                continue
            ro_rep = rate_operator(model, rep, t, strategy)
            for a, lam in enumerate(ro_rep.eigen.values):
                if lam >= NEG_BRANCH_TOL:
                    continue
                if canonical_key(ro_rep.eigen.vectors[:, a]) != my_key:
                    continue
                p_rev = abs(float(lam)) * (cnt / n_here) * dt
                bins.append((p_rev, StepOutcome(OutcomeKind.REVERSE_JUMP, rep.copy(), eigenindex=a)))
    det = ro_deterministic_step(model, psi, t, dt, strategy)
    if probs.p_d > 0.0:
        bins.append((probs.p_d, StepOutcome(OutcomeKind.VANISH)))
    elif probs.p_c > 0.0:
        bins.append((probs.p_c, StepOutcome(OutcomeKind.REPLICATE, det)))
    resid = 1.0 - sum(p for p, _ in bins)
    if resid < -1e-12:
        raise StepTooLarge(f"outcome probabilities exceed 1 at t = {t:.6g}; reduce dt")
    bins.append((max(resid, 0.0), StepOutcome(OutcomeKind.DETERMINISTIC, det)))
    if u is None:
        u = uniform_at(traj.key[0], traj.key[1], traj.counter)
    acc = 0.0
    for p, outcome in bins:
        acc += p
        if u < acc:
            return outcome
    return bins[-1][1]


class RoScheme:
    """Batched rate-operator stepping for the shared engine."""

    negative_tol = NEG_BRANCH_TOL  # in probability units; lambda tolerance scaled by dt below

    def __init__(self, strategy: Optional[RoStrategy] = None):
        self.strategy = strategy or RoStrategy.zero()

    def prepare(self, model: TnpModel, t: float, dt: float) -> dict:
        self.negative_tol = NEG_BRANCH_TOL * dt
        rates = np.array([ch.rate_at(t) for ch in model.channels])
        gdiff = None
        if not model.is_trace_preserving:
            gdiff = model.gamma_L(t) - model.gamma_at(t)
        return {
            "t": t,
            "dt": dt,
            "K": model.effective_hamiltonian(t),
            "ops": model._ops,
            "rates": rates,
            "gdiff": gdiff,
            "model": model,
        }

    def _rate_operators(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        n, d = states.shape
        r = np.zeros((n, d, d), dtype=complex)
        for j, op in enumerate(ctx["ops"]):
            lp = states @ op.T
            r += ctx["rates"][j] * (lp[:, :, None] * lp[:, None, :].conj())
        if self.strategy.kind != "zero":
            t = ctx["t"]
            for i in range(n):
                c = self.strategy.c_matrix(states[i], t)
                proj = np.outer(states[i], states[i].conj())
                r[i] += 0.5 * (c @ proj + proj @ c.conj().T)
        return 0.5 * (r + np.transpose(r, (0, 2, 1)).conj())

    def jump_bins(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        lam, vec = np.linalg.eigh(self._rate_operators(ctx, states))
        ctx["lambdas"] = lam
        ctx["vectors"] = vec
        bins = lam * ctx["dt"]
        bins[np.abs(lam) < BRANCH_PRUNE] = 0.0
        return bins

    def det_states(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        if self.strategy.kind == "zero":
            un = states - 1j * ctx["dt"] * (states @ ctx["K"].T)
        else:
            un = np.empty_like(states)
            for i in range(states.shape[0]):
                k = ctx["K"] - 0.5j * self.strategy.c_matrix(states[i], ctx["t"])
                un[i] = states[i] - 1j * ctx["dt"] * (k @ states[i])
        n2 = np.einsum("ni,ni->n", un.conj(), un).real
        if float(n2.min()) < NORM_FLOOR:
            raise ZeroNorm(f"deterministic map annihilated a state at t = {ctx['t']:.6g}")
        return un / np.sqrt(n2)[:, None]

    def x_values(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        if ctx["gdiff"] is None:
            return np.zeros(states.shape[0])
        return expectations_rows(ctx["gdiff"], states)

    def jump_target(self, ctx: dict, states: np.ndarray, i: int, b: int) -> np.ndarray:
        return phase_fix(ctx["vectors"][i][:, b])

    def reverse_entries(self, ctx, uniq_keys, uniq_states, uniq_counts, match_fn) -> dict:
        """Host-state exits for every negative eigenbranch of a snapshot source;
        NoSourceState when the branch eigenvector is absent from the snapshot."""
        lam, vec = np.linalg.eigh(self._rate_operators(ctx, uniq_states))
        entries: dict[int, list] = {}
        dt = ctx["dt"]
        for v in range(uniq_states.shape[0]):
            if uniq_counts[v] <= 0:
                continue
            for a in range(lam.shape[1]):
                if lam[v, a] >= NEG_BRANCH_TOL:
                    continue
                host = int(match_fn(uniq_keys, phase_fix(vec[v][:, a])[None, :])[0])
                weight = abs(float(lam[v, a])) * dt * float(uniq_counts[v])
                if host < 0:
                    raise NoSourceState(
                        f"reverse jump through eigenbranch {a} of source state {v} at t = {ctx['t']:.6g} "
                        f"has no host state in the ensemble; lost weight {weight:.3e} realizations per step"
                    )
                entries.setdefault(host, []).append((weight, v, a))
        return entries


def run(
    model: TnpModel,
    ensemble: Ensemble,
    grid: TimeGrid,
    *,
    strategy: Optional[RoStrategy] = None,
    reverse_jumps: bool = False,
    record_every: int = 1,
    merge: Optional[bool] = None,
    observables: Optional[dict[str, np.ndarray]] = None,
    jump_mass_limit: float = engine.JUMP_MASS_LIMIT,
    record_distinct: bool = True,
) -> engine.RunResult:
    """Rate-operator counterpart of :func:`tnpmc.mcwf.run`."""
    return engine.run(
        model,
        ensemble,
        grid,
        RoScheme(strategy),
        reverse_jumps=reverse_jumps,
        record_every=record_every,
        merge=merge,
        observables=observables,
        jump_mass_limit=jump_mass_limit,
        record_distinct=record_distinct,
    )
