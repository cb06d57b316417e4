"""Shared fixtures: random model generators, one-step oracles built from the
scheme kernels, seeds that put a first-step uniform in a chosen bin,
loop-by-loop oracles of the stacked map propagation and eigenvector ordering,
the RK4 that evaluates the generator at every stage, the Bloch scan through
``np.linalg.norm``, and the three-operand contractions that the two-operand
ones replace."""

from __future__ import annotations

import numpy as np

from tnpmc import (
    DynamicalMap, Ensemble, JumpChannel, TimeGrid, TimeScalar, TnpModel, heisenberg_qubit, integrate, pauli_ops,
)
from tnpmc.divisibility import _fibonacci_sphere
from tnpmc.engine import STEP_STREAM_TAG, _build_snapshot, _match_keys
from tnpmc.exact import vec
from tnpmc.linops import phase_fix
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
            hosts, weights, srcs = scheme.reverse_entries(ctx, uniq_keys, sources, uniq_counts, _match_keys)
            for i, c in enumerate(obj_class):
                self.exits[i] = [(w / uniq_counts[c], sources[v]) for h, w, v in zip(hosts, weights, srcs) if h == c]

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


def spawned_rows_loop(model, states, table, counts, exits):
    """New rows of one MCWF step from the rows ``states`` as (parent, state,
    count), built parent by parent as a per-row loop does: each jump branch,
    then each reverse exit, then the replicated copy. ``table`` is the step's
    :class:`StepTable`, ``counts`` the step's outcome counts, and ``exits[i]``
    the (count, source state) of each reverse exit row i took."""
    n_jump = len(model.channels)
    rows = []
    for i in np.flatnonzero((counts[:, : n_jump + 2] > 0).any(axis=1)):
        for b in np.flatnonzero(counts[i, :n_jump]):
            lp = model._ops[b] @ states[i]
            rows.append((i, lp / np.linalg.norm(lp), counts[i, b]))
        rows += [(i, state, c) for c, state in exits.get(i, []) if c]
        if table.p_d[i] == 0.0 and counts[i, n_jump + 1]:
            rows.append((i, table.det[i], counts[i, n_jump + 1]))
    return rows


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


def criterion_8_model() -> TnpModel:
    """The adjoint-picture qubit generator of acceptance criterion 8."""
    return heisenberg_qubit(
        TimeScalar.constant(20.0),
        TimeScalar.sinusoid(0.9, 40.0, 0.0, 1.0),
        TimeScalar.exponential(0.5, -1.0),
    )


def negative_rate_model() -> TnpModel:
    """sigma_- at rate -0.1 with Gamma = Gamma_L: only reverse jumps, no trace change."""
    p = pauli_ops()
    channel = JumpChannel(TimeScalar.constant(-0.1), p.minus)
    proj1 = p.plus @ p.minus
    return TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(channel,), gamma=lambda t: -0.1 * proj1)


def propagate_map_loop(model: TnpModel, grid: TimeGrid) -> list[DynamicalMap]:
    """Propagator matrices built one Hermitian basis operator and one column at a time.

    E_ii, and for i < j the symmetric and antisymmetric combinations, are each
    integrated alone; the image of E_ij is then (S - iA)/2 and that of E_ji
    is (S + iA)/2.
    """
    d = model.dim
    basis_traj: dict[tuple, np.ndarray] = {}
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis_traj[("d", i, i)] = integrate(model, e, grid).values
    for i in range(d):
        for j in range(i + 1, d):
            a = np.zeros((d, d), dtype=complex)
            a[i, j] = a[j, i] = 1.0
            b = np.zeros((d, d), dtype=complex)
            b[i, j] = 1j
            b[j, i] = -1j
            basis_traj[("s", i, j)] = integrate(model, a, grid).values
            basis_traj[("a", i, j)] = integrate(model, b, grid).values
    maps = []
    for s in range(grid.n_steps + 1):
        m = np.empty((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                if i == j:
                    img = basis_traj[("d", i, i)][s]
                elif i < j:
                    img = 0.5 * (basis_traj[("s", i, j)][s] - 1j * basis_traj[("a", i, j)][s])
                else:
                    img = 0.5 * (basis_traj[("s", j, i)][s] + 1j * basis_traj[("a", j, i)][s])
                m[:, i + d * j] = vec(img)
        maps.append(DynamicalMap(dim=d, matrix=m, time=grid.time_at(s)))
    return maps


def canonical_order_loop(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector canonicalization one column at a time: ``phase_fix`` each column,
    then sort each degenerate block with a tuple key per column."""
    d = values.shape[0]
    cols = [phase_fix(vectors[:, k]) for k in range(d)]
    scale = max(1.0, float(np.abs(values).max()) if d else 1.0)
    tol = 1e-12 * scale
    order = list(range(d))
    i = 0
    while i < d:
        j = i
        while j + 1 < d and values[j + 1] - values[i] <= tol:
            j += 1
        if j > i:
            block = order[i : j + 1]
            block.sort(key=lambda k: tuple(np.round(np.stack([cols[k].real, cols[k].imag], -1).ravel(), 10)))
            order[i : j + 1] = block
        i = j + 1
    out_vecs = np.column_stack([cols[k] for k in order]) if d else vectors
    return values[order], out_vecs


def average_state_oracle(ens: Ensemble) -> np.ndarray:
    """sum_i (N_i / n_ref) |psi_i><psi_i| as one three-operand einsum."""
    if ens.size == 0:
        return np.zeros((ens.dim, ens.dim), dtype=complex)
    w = ens.mult.astype(float) / ens.n_ref
    return np.einsum("n,ni,nj->ij", w, ens.states, ens.states.conj())


def expectations_rows_oracle(a: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Real part of <psi|A|psi> per row as one three-operand einsum."""
    return np.einsum("ni,ij,nj->n", states.conj(), a, states).real


def lexsort_run_starts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows and the mask of run starts over the ordered rows."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(rows.shape[0], dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, starts


def liouvillian_terms(model: TnpModel, t: float, rho: np.ndarray) -> np.ndarray:
    """-i [H, rho] + sum_j gamma_j L_j rho L_j^dag - 1/2 {Gamma, rho} + S, term by term."""
    h = model.hamiltonian_at(t)
    out = -1j * (h @ rho - rho @ h)
    for ch, op in zip(model.channels, model._ops):
        out += ch.rate_at(t) * (op @ rho @ op.conj().T)
    g = model.gamma_at(t)
    out -= 0.5 * (g @ rho + rho @ g)
    s = model.source_at(t)
    return out if s is None else out + s


def rk4_every_stage(model: TnpModel, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 that evaluates the generator at t, t + dt/2 (twice) and t + dt of
    every step, with the same Hermitian re-symmetrization as ``integrate``; (n + 1, ..., d, d)."""
    rho = np.asarray(rho0, dtype=complex).copy()
    out = [rho]
    dt = grid.dt
    for i in range(grid.n_steps):
        t = grid.time_at(i)
        k1 = liouvillian_terms(model, t, rho)
        k2 = liouvillian_terms(model, t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = liouvillian_terms(model, t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = liouvillian_terms(model, t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))
        out.append(rho)
    return np.stack(out)


def bloch_scan_norms(m: np.ndarray, c: np.ndarray, n_points: int = 4096) -> np.ndarray:
    """Largest ||m v + c|| over the Fibonacci-sphere points v of each map of a stack,
    each map's norms taken by ``np.linalg.norm`` over the image rows."""
    pts = _fibonacci_sphere(n_points)
    return np.array([np.linalg.norm(pts @ m[s].T + c[s], axis=1).max() for s in range(m.shape[0])])
