"""Monte-Carlo wave-function stepping for trace-nonpreserving generators.

One step of a unit-norm realization draws exactly one of: a jump through
channel j (probability gamma_j ||L_j psi||^2 dt), disappearance or creation of
a copy (|<Gamma_L - Gamma>| dt, sign-dependent), or first-order deterministic
drift through K = H - i/2 Gamma. With reverse jumps enabled, channels with
negative rates instead contribute transitions that undo earlier jumps, with
probability weighted by the snapshot count ratio of source and current state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import engine
from .ensemble import Ensemble, Trajectory, canonical_key
from .errors import NegativeProbability, NegativeSource, NoSourceState, StepTooLarge, ZeroNorm
from .exact import TimeGrid
from .linops import expectations_rows, hermitian_eig
from .model import SourceTerm, TnpModel
from .rng import uniform_at

NORM_FLOOR = 1e-28  # squared-norm floor for the deterministic map
IMAGE_TOL = 1e-14  # ||L psi'||^2 below this has no reverse-jump source


@dataclass(frozen=True)
class StepProbabilities:
    """Outcome distribution of one trajectory step (merged scheme)."""

    p_jump: np.ndarray
    p_det: float
    p_d: float
    p_c: float
    dt: float

    @property
    def total(self) -> float:
        return float(self.p_jump.sum() + self.p_det + self.p_d + self.p_c)

    @property
    def p_T(self) -> float:
        """Jump + deterministic probability; p_T - 1 = dt * d tr/dt for the projector."""
        return 1.0 + (self.p_c - self.p_d)


class OutcomeKind(Enum):
    DETERMINISTIC = "deterministic"
    JUMP = "jump"
    VANISH = "vanish"
    REPLICATE = "replicate"
    REVERSE_JUMP = "reverse_jump"
    SOURCE_CREATION = "source_creation"


@dataclass(frozen=True)
class StepOutcome:
    kind: OutcomeKind
    state: Optional[np.ndarray] = None  # state of the continuing realization(s)
    channel: Optional[int] = None
    eigenindex: Optional[int] = None


def step_probabilities(
    model: TnpModel, psi: np.ndarray, t: float, dt: float, allow_negative_rates: bool = False
) -> StepProbabilities:
    """Per-channel jump, disappearance, creation and deterministic probabilities.

    The deterministic entry is the merged-scheme value 1 - p_J - |<G_L - G>| dt,
    so the four entries sum to one exactly as computed.
    """
    p_jump = np.empty(len(model.channels))
    for j, ch in enumerate(model.channels):
        lp = np.asarray(ch.op, dtype=complex) @ psi
        p_jump[j] = ch.rate_at(t) * dt * float(np.vdot(lp, lp).real)
    if not allow_negative_rates and p_jump.size and p_jump.min() < 0.0:
        j = int(np.argmin(p_jump))
        raise NegativeProbability(f"channel {j} has p_j = {p_jump[j]:.3e} < 0 at t = {t:.6g}")
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


def deterministic_step(model: TnpModel, psi: np.ndarray, t: float, dt: float) -> np.ndarray:
    """First-order non-Hermitian drift (1 - i K dt) |psi>, renormalized."""
    k = model.effective_hamiltonian(t)
    un = psi - 1j * dt * (k @ psi)
    n2 = float(np.vdot(un, un).real)
    if n2 < NORM_FLOOR:
        raise ZeroNorm(f"deterministic map annihilated the state at t = {t:.6g}")
    return un / np.sqrt(n2)


def jump_state(model: TnpModel, psi: np.ndarray, channel: int) -> np.ndarray:
    lp = np.asarray(model.channels[channel].op, dtype=complex) @ psi
    nrm = np.linalg.norm(lp)
    if nrm < 1e-14:
        raise ZeroNorm(f"channel {channel} annihilates the state")
    return lp / nrm


def reverse_jump_probability(
    gamma_value: float,
    source_state: np.ndarray,
    op: np.ndarray,
    n_psi: int,
    n_psi_prime: int,
    dt: float,
) -> float:
    """Per-realization probability of the reverse jump psi -> psi', where
    psi is proportional to L psi'. Zero when the rate is non-negative or no
    source realizations exist."""
    if gamma_value >= 0.0 or n_psi_prime <= 0:
        return 0.0
    if n_psi <= 0:
        raise NoSourceState("reverse jump requires realizations in the current state")
    lp = np.asarray(op, dtype=complex) @ source_state
    inorm2 = float(np.vdot(lp, lp).real)
    if inorm2 < IMAGE_TOL:
        raise NoSourceState("source state is annihilated by the channel operator")
    return abs(gamma_value) * inorm2 * (n_psi_prime / n_psi) * dt


def advance_trajectory(
    model: TnpModel,
    traj: Trajectory,
    t: float,
    dt: float,
    count_snapshot: Optional[dict] = None,
    reverse_jumps: bool = False,
    u: Optional[float] = None,
) -> StepOutcome:
    """Draw the outcome for a single realization of ``traj``.

    ``u`` injects the uniform variate (tests); otherwise it is taken from the
    trajectory's counter-based stream without mutating the view.
    """
    psi = traj.state
    probs = step_probabilities(model, psi, t, dt, allow_negative_rates=reverse_jumps)
    bins: list[tuple[float, StepOutcome]] = []
    for j, p in enumerate(probs.p_jump):
        if p > 0.0:
            bins.append((float(p), StepOutcome(OutcomeKind.JUMP, jump_state(model, psi, j), channel=j)))
    if reverse_jumps and count_snapshot and any(ch.rate_at(t) < 0.0 for ch in model.channels):
        my_key = canonical_key(psi)
        n_here = count_snapshot.get(my_key, (traj.multiplicity, psi))[0]
        for j, ch in enumerate(model.channels):
            rate = ch.rate_at(t)
            if rate >= 0.0:
                continue
            for key, (cnt, rep) in count_snapshot.items():
                if cnt <= 0:
                    continue
                lp = np.asarray(ch.op, dtype=complex) @ rep
                inorm2 = float(np.vdot(lp, lp).real)
                if inorm2 < IMAGE_TOL:
                    continue
                if canonical_key(lp / np.sqrt(inorm2)) != my_key:
                    continue
                p_rev = abs(rate) * inorm2 * (cnt / n_here) * dt
                bins.append(
                    (p_rev, StepOutcome(OutcomeKind.REVERSE_JUMP, rep.copy(), channel=j))
                )
    det = deterministic_step(model, psi, t, dt)
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


def source_creation_events(
    source: SourceTerm, t: float, dt: float, n_ref: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, int]]:
    """Poisson creation counts per eigenstate of the source term at time t."""
    s = source.at(t)
    eig = hermitian_eig(s, tol=1e-8 * max(1.0, float(np.abs(s).max())))
    if float(eig.values.min()) < -engine.NEG_SOURCE_TOL:
        raise NegativeSource(f"source eigenvalue {eig.values.min():.3e} at t = {t:.6g}")
    events = []
    for i, val in enumerate(np.maximum(eig.values, 0.0)):
        if val <= 0.0:
            continue
        copies = int(rng.poisson(val * n_ref * dt))
        if copies > 0:
            events.append((eig.vectors[:, i], copies))
    return events


class McwfScheme:
    """Batched MCWF probabilities/targets for the shared engine."""

    negative_tol = 0.0

    def prepare(self, model: TnpModel, t: float, dt: float) -> dict:
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
        }

    def jump_bins(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        n = states.shape[0]
        out = np.empty((n, len(ctx["ops"])))
        for j, op in enumerate(ctx["ops"]):
            lp = states @ op.T
            out[:, j] = ctx["rates"][j] * ctx["dt"] * np.einsum("ni,ni->n", lp.conj(), lp).real
        return out

    def det_states(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        un = states - 1j * ctx["dt"] * (states @ ctx["K"].T)
        n2 = np.einsum("ni,ni->n", un.conj(), un).real
        if float(n2.min()) < NORM_FLOOR:
            raise ZeroNorm(f"deterministic map annihilated a state at t = {ctx['t']:.6g}")
        return un / np.sqrt(n2)[:, None]

    def x_values(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        if ctx["gdiff"] is None:
            return np.zeros(states.shape[0])
        return expectations_rows(ctx["gdiff"], states)

    def jump_target(self, ctx: dict, states: np.ndarray, i: int, b: int) -> np.ndarray:
        lp = ctx["ops"][b] @ states[i]
        return lp / np.linalg.norm(lp)

    def reverse_entries(self, ctx, uniq_keys, uniq_states, uniq_counts, match_fn) -> dict:
        """Host-state exits for every (negative channel, snapshot source) pair.

        Raises NoSourceState when the host L psi'/||L psi'|| of a source psi'
        is absent from the snapshot, instead of dropping its weight.
        """
        entries: dict[int, list] = {}
        for j, rate in enumerate(ctx["rates"]):
            if rate >= 0.0:
                continue
            img = uniq_states @ ctx["ops"][j].T
            inorm2 = np.einsum("ni,ni->n", img.conj(), img).real
            valid = np.flatnonzero((inorm2 > IMAGE_TOL) & (uniq_counts > 0))
            if valid.size == 0:
                continue
            hosts = match_fn(uniq_keys, img[valid] / np.sqrt(inorm2[valid])[:, None])
            weights = abs(rate) * ctx["dt"] * inorm2[valid] * uniq_counts[valid]
            lost = hosts < 0
            if lost.any():
                raise NoSourceState(
                    f"reverse jumps through channel {j} at t = {ctx['t']:.6g} have no host state in the "
                    f"ensemble for {int(lost.sum())} source state(s); lost weight "
                    f"{float(weights[lost].sum()):.3e} realizations per step"
                )
            for v, host, weight in zip(valid, hosts, weights):
                entries.setdefault(int(host), []).append((float(weight), int(v), j))
        return entries


def run(
    model: TnpModel,
    ensemble: Ensemble,
    grid: TimeGrid,
    *,
    reverse_jumps: bool = False,
    record_every: int = 1,
    merge: Optional[bool] = None,
    observables: Optional[dict[str, np.ndarray]] = None,
    jump_mass_limit: float = engine.JUMP_MASS_LIMIT,
    record_distinct: bool = True,
) -> engine.RunResult:
    """Advance an ensemble over the grid, recording count-weighted averages."""
    return engine.run(
        model,
        ensemble,
        grid,
        McwfScheme(),
        reverse_jumps=reverse_jumps,
        record_every=record_every,
        merge=merge,
        observables=observables,
        jump_mass_limit=jump_mass_limit,
        record_distinct=record_distinct,
    )
