"""Shared fixtures: random model generators, one-step oracles built from the
scheme kernels, and seeds that put a first-step uniform in a chosen bin."""

from __future__ import annotations

import numpy as np

from tnpmc import Ensemble, JumpChannel, TimeGrid, TimeScalar, TnpModel, pauli_ops
from tnpmc.engine import STEP_STREAM_TAG, _build_snapshot, _match_keys
from tnpmc.rng import make_generator, stream_key


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_tnp_model(rng: np.random.Generator, dim: int, n_channels: int = 2) -> TnpModel:
    """Random generator with non-negative rates and an arbitrary Hermitian decay operator."""
    h = random_hermitian(rng, dim)
    channels = []
    for j in range(n_channels):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        op /= np.linalg.norm(op, 2)  # keep single-step jump probabilities small
        channels.append(JumpChannel(rate=float(rng.uniform(0.1, 2.0)), op=op, label=f"c{j}"))
    gamma = random_hermitian(rng, dim)
    return TnpModel(dim=dim, hamiltonian=h, channels=tuple(channels), gamma=gamma)


def liouvillian_pure(model: TnpModel, t: float, psi: np.ndarray) -> np.ndarray:
    return model.apply_liouvillian(t, np.outer(psi, psi.conj()))


class StepTable:
    """Outcome table of one engine step for each row of a block of states.

    Built from the kernels the engine runs (``prepare``, ``jump_bins``,
    ``x_values``, ``det_states``, ``jump_target`` and, with ``counts``,
    ``reverse_entries``), so one-step oracles check the code that produces
    results. Without ``counts`` the rows are single states: jump bins keep
    their sign and there are no reverse exits, which is the formal one-step
    expansion of the generator. With ``counts`` the rows form an ensemble
    snapshot: negative bins are clipped, as the engine does, and each row
    gets the reverse exits of its state class in the engine's order (by
    channel or branch, then by canonical key of the source).
    """

    def __init__(self, scheme, model, states, t, dt, counts=None):
        states = np.atleast_2d(np.asarray(states, dtype=complex))
        ctx = scheme.prepare(model, t, dt)
        self.bins = scheme.jump_bins(ctx, states)
        x = scheme.x_values(ctx, states)
        self.p_d = np.maximum(0.0, -x * dt)
        self.p_c = np.maximum(0.0, x * dt)
        self.det = scheme.det_states(ctx, states)
        self.targets = [[scheme.jump_target(ctx, states, i, b) if self.bins[i, b] != 0.0 else None
                         for b in range(self.bins.shape[1])] for i in range(states.shape[0])]
        self.exits = [[] for _ in range(states.shape[0])]
        if counts is not None:
            self.bins = np.maximum(self.bins, 0.0)
            uniq_keys, sources, uniq_counts, obj_class = _build_snapshot(states, np.asarray(counts))
            entries = scheme.reverse_entries(ctx, uniq_keys, sources, uniq_counts, _match_keys)
            for i, c in enumerate(obj_class):
                self.exits[i] = [(w / uniq_counts[c], sources[v]) for w, v, _ in entries.get(int(c), [])]

    def reverse_mass(self, i):
        return sum(p for p, _ in self.exits[i])

    def p_det(self, i):
        """Residual deterministic probability of row i."""
        return 1.0 - self.bins[i].sum() - self.reverse_mass(i) - self.p_d[i] - self.p_c[i]

    def total(self, i):
        return self.bins[i].sum() + self.reverse_mass(i) + self.p_d[i] + self.p_c[i] + self.p_det(i)

    def p_T(self, i):
        """Jump + deterministic probability; p_T - 1 = dt * d tr/dt for the projector."""
        return 1.0 + (self.p_c[i] - self.p_d[i])

    def outcomes(self, i):
        """(kind, probability, state) in the engine's column order: jumps, reverse exits,
        disappearance or replication, deterministic drift."""
        out = [(("jump", b), p, self.targets[i][b]) for b, p in enumerate(self.bins[i]) if p > 0.0]
        out += [(("reverse", e), p, src) for e, (p, src) in enumerate(self.exits[i])]
        if self.p_d[i] > 0.0:
            out.append((("vanish",), self.p_d[i], None))
        elif self.p_c[i] > 0.0:
            out.append((("replicate",), self.p_c[i], self.det[i]))
        out.append((("deterministic",), max(self.p_det(i), 0.0), self.det[i]))
        return out

    def draw(self, i, u):
        """Outcome of row i for the uniform u, by inverse CDF over :meth:`outcomes`."""
        acc = 0.0
        outcomes = self.outcomes(i)
        for kind, p, state in outcomes:
            acc += p
            if u < acc:
                return kind, state
        return outcomes[-1][0], outcomes[-1][2]

    def expectation(self, i):
        """Exact expectation of |psi><psi| over row i's outcomes (a copy counts twice)."""
        def proj(v):
            return np.outer(v, v.conj())

        out = sum(p * proj(self.targets[i][b]) for b, p in enumerate(self.bins[i]) if p != 0.0)
        out = out + sum(p * proj(src) for p, src in self.exits[i])
        return out + (self.p_det(i) + 2.0 * self.p_c[i]) * proj(self.det[i])


def step_expectation(scheme, model, psi, t, dt):
    """Exact expectation over the outcome distribution of one step of a single state."""
    return StepTable(scheme, model, psi, t, dt).expectation(0)


def ensemble_step_expectation(scheme, model, members, t, dt, n_ref):
    """Expected one-step ensemble average with reverse jumps, counts held fixed.

    ``members`` is a list of (count, state); every state with a negative-rate
    channel image inside the snapshot hosts reverse exits.
    """
    counts = [c for c, _ in members]
    table = StepTable(scheme, model, [s for _, s in members], t, dt, counts=counts)
    return sum((c / n_ref) * table.expectation(i) for i, c in enumerate(counts))


def first_uniforms(seeds, index=0):
    """Uniform that member ``index`` of an ensemble built with each seed draws in its first step:
    value ``index`` of the step stream at step 0, whatever the number of members."""
    return np.array([make_generator(*stream_key(int(s), STEP_STREAM_TAG), 0).random(index + 1)[index]
                     for s in seeds])


def seed_with_uniform(lo, hi, index=0):
    """First seed whose member ``index`` draws a first-step uniform in [lo, hi)."""
    seeds = np.arange(20_000)
    u = first_uniforms(seeds, index)
    return int(seeds[np.flatnonzero((u >= lo) & (u < hi))[0]])


def one_step(runner, model, rows, seed, **kwargs):
    """Final ensemble after one engine step of dt = 0.01 from the (state, multiplicity) rows, unmerged."""
    ens = Ensemble.empty(model.dim, n_ref=sum(m for _, m in rows), seed=seed)
    ens._append_members([(state, m, 0) for state, m in rows])
    return runner(model, ens, TimeGrid(0.0, 0.01, 0.01), merge=False, **kwargs).final_ensemble


def qubit_decay_model(gamma_shift: float = 0.0) -> TnpModel:
    """Amplitude damping with Gamma = Gamma_L + shift * identity."""
    p = pauli_ops()
    proj1 = p.plus @ p.minus
    if gamma_shift == 0.0:
        gamma = "lindblad"
    else:
        def gamma(t, _s=gamma_shift):
            return proj1 + _s * np.eye(2)
    return TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(JumpChannel(1.0, p.minus, "decay"),), gamma=gamma)


def trace_gain_model() -> TnpModel:
    """Amplitude damping with Gamma = 0: every step gains trace."""
    p = pauli_ops()
    return TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(JumpChannel(1.0, p.minus),),
                    gamma=np.zeros((2, 2), dtype=complex))


def negative_rate_model() -> TnpModel:
    """sigma_- at rate -0.1 with Gamma = Gamma_L: only reverse jumps, no trace change."""
    p = pauli_ops()
    channel = JumpChannel(TimeScalar.constant(-0.1), p.minus)
    proj1 = p.plus @ p.minus
    return TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(channel,), gamma=lambda t: -0.1 * proj1)
