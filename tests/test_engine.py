"""One engine step on a crafted ensemble, the order of spawned rows, reverse
jumps without a host, source blocks, and the recorded series."""

import numpy as np
import pytest

from tnpmc import Ensemble, JumpChannel, TimeGrid, TimeScalar, TnpModel, engine, mcwf, pauli_ops, ro
from tnpmc.engine import STEP_STREAM_TAG, _advance_step
from tnpmc.errors import CountLedgerError, NoSourceState
from tnpmc.model import SourceTerm
from tnpmc.mcwf import McwfScheme
from tnpmc.rng import batched_uniform_words, make_generator, stream_key

from helpers import StepTable, qubit_decay_model, spawned_rows_loop

P = pauli_ops()
PROJ0 = P.minus @ P.plus
PROJ1 = P.plus @ P.minus
KET0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
DT = 0.01


def crafted_model():
    """sigma_- at a negative rate (reverse jumps back from the host |0>),
    sigma_+ at a positive rate, and Gamma = Gamma_L + diag(3, -4): states near
    |0> vanish, states near |1> replicate."""
    return TnpModel(
        dim=2,
        hamiltonian=0.3 * P.z,
        channels=(JumpChannel(-3.0, P.minus, "reverse"), JumpChannel(2.5, P.plus, "up")),
        gamma=lambda t: -3.0 * PROJ1 + 2.5 * PROJ0 + np.diag([3.0, -4.0]),
    )


def rotated(theta):
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


# (state, multiplicity). The host |0> has one reverse exit per source of
# theta < pi/2; the oracle table lists them in canonical-key order, as the
# engine does, whatever their array order. Lumps: 3 realizations mostly draw
# k = 0 events, 40 draw 1 <= k <= 3, 200 draw k > 3, and 1000 has m * p > 32;
# the hosted lumps of 20 and 100 draw 1 <= k <= 3 and k > 3.
SOURCES = [(1.5, 1), (1.45, 1), (1.4, 1), (1.3, 1), (1.2, 1), (1.1, 1), (1.05, 40), (1.0, 1),
           (0.9, 1), (0.45, 40), (0.4, 3), (0.35, 200), (0.32, 1000)]
SOURCES += [(theta, 1) for theta in np.arange(0.30, 0.05, -0.02)]
HOSTS = [1] * 10 + [20, 100]  # multiplicity-1 hosts and hosted lumps, all at |0>


def crafted_ensemble(seed):
    rows = [(rotated(theta), m) for theta, m in SOURCES] + [(KET0, m) for m in HOSTS]
    total = sum(m for _, m in rows)
    ens = Ensemble.empty(2, n_ref=total, seed=seed, n_groups=len(rows))
    ens._append_members([(state, m, g) for g, (state, m) in enumerate(rows)])
    return ens


def test_one_step_reaches_every_branch_and_keeps_the_ledger():
    model = crafted_model()
    n_jump = len(model.channels)
    rev, dc, det = n_jump, n_jump + 1, n_jump + 2
    column = {"reverse": rev, "vanish": dc, "replicate": dc, "deterministic": det}
    seen = set()
    for seed in range(40):
        ens = crafted_ensemble(seed)
        table = StepTable(McwfScheme(), model, ens.states, 0.0, DT, counts=ens.mult)
        step_key = stream_key(seed, STEP_STREAM_TAG)
        u = batched_uniform_words(ens.mult, make_generator(*step_key, ens.steps))[0]
        work = ens.copy()
        counts = _advance_step(model, work, McwfScheme(), 0.0, DT, True, engine._Lanes([work]))
        assert counts.shape == (ens.size, n_jump + 3)
        assert np.array_equal(counts.sum(axis=1), ens.mult)
        gdiff = model.gamma_at(0.0) - model.gamma_L(0.0)
        vanishes = np.einsum("ni,ij,nj->n", ens.states.conj(), gdiff, ens.states).real > 0.0
        after = work.group_counts()
        sources = [rotated(theta) for theta, _ in SOURCES]
        for i in range(ens.size):
            m = int(ens.mult[i])
            k_dc = int(counts[i, dc])
            vanished, replicated = (k_dc, 0) if vanishes[i] else (0, k_dc)
            assert after[i] == m - vanished + replicated
            for state in work.states[work.group == i]:
                # every member of the group is the drifted parent, a jump
                # target |1>, or (from the host) a reverse-jump source
                near = [np.abs(np.vdot(s, state)) ** 2 for s in sources + [np.array([0, 1.0])]]
                assert max(near) >= 1.0 - 1e-3 or abs(np.vdot(ens.states[i], state)) ** 2 >= 1.0 - 1e-3
            hosted = bool(abs(ens.states[i][0]) == 1.0)
            if m == 1:
                kind, expected = table.draw(i, u[i])
                assert counts[i, kind[1] if kind[0] == "jump" else column[kind[0]]] == 1
                assert after[i] == {"vanish": 0, "replicate": 2}.get(kind[0], 1)
                for state in work.states[work.group == i]:
                    assert np.abs(state - expected).max() <= 1e-12
                seen.add(("single", hosted, kind[0]))
            else:
                k = m - int(counts[i, det])
                branch = "m*p>32" if m == 1000 else ("k=0" if k == 0 else ("k<=3" if k <= 3 else "k>3"))
                seen.add(("lump", hosted, branch, bool(counts[i, rev])))
    for kind in ("jump", "vanish", "replicate", "deterministic"):
        assert ("single", False, kind) in seen
    for kind in ("reverse", "jump", "vanish", "deterministic"):
        assert ("single", True, kind) in seen
    lump_branches = {(hosted, branch) for (_, hosted, branch, _) in (s for s in seen if s[0] == "lump")}
    assert {(False, "k=0"), (False, "k<=3"), (False, "k>3"), (False, "m*p>32")} <= lump_branches
    # hosted lumps reverse-jump through both the categorical and the multinomial draw
    assert ("lump", True, "k<=3", True) in seen
    assert ("lump", True, "k>3", True) in seen


def spawn_model():
    """A qutrit whose |0> jumps to |1> and |2>, takes reverse jumps back to the
    source |1> (|0><1| at a negative rate) and replicates (Gamma below Gamma_L
    on |0> and |2>); |2> jumps to |0>."""
    ket = np.eye(3, dtype=complex)
    op = lambda a, b: np.outer(ket[a], ket[b])  # noqa: E731
    channels = (JumpChannel(-2.0, op(0, 1), "reverse"), JumpChannel(2.0, op(1, 0), "to 1"),
                JumpChannel(2.0, op(2, 0), "to 2"), JumpChannel(1.0, op(0, 2), "back"))
    gamma_l = -2.0 * op(1, 1) + 4.0 * op(0, 0) + op(2, 2)
    return TnpModel(dim=3, hamiltonian=np.zeros((3, 3)), channels=channels,
                    gamma=gamma_l - np.diag([2.0, 0.0, 1.0]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spawned_rows_keep_the_order_of_a_per_row_loop(seed):
    # the host |0> jumps on two branches, takes a reverse exit and replicates
    # in one step; |2> before it jumps and replicates. New rows follow their
    # parent, then the branch, the reverse exit and the copy, bit for bit
    model = spawn_model()
    ket = np.eye(3, dtype=complex)
    ens = Ensemble.empty(3, n_ref=2500, seed=seed, n_groups=3)
    ens._append_members([(ket[2], 500, 0), (ket[0], 1000, 1), (ket[1], 1000, 2)])
    table = StepTable(McwfScheme(), model, ens.states, 0.0, DT, counts=ens.mult)
    work = ens.copy()
    counts = _advance_step(model, work, McwfScheme(), 0.0, DT, True, engine._Lanes([work]))
    assert (counts[1, [1, 2, 4, 5]] > 0).all() and counts[1, [0, 3]].sum() == 0
    assert len(table.exits[1]) == 1 and not table.exits[0] and not table.exits[2]
    expected = spawned_rows_loop(model, ens.states, table, counts, {1: [(counts[1, 4], table.exits[1][0][1])]})
    assert [p for p, _, _ in expected][:2] == [0, 0] and len(expected) > 5
    assert work.size == ens.size + len(expected)
    new = slice(ens.size, None)
    assert work.states[new].tobytes() == np.array([s for _, s, _ in expected]).tobytes()
    assert work.mult[new].tolist() == [int(c) for _, _, c in expected]
    assert work.group[new].tolist() == [int(ens.group[p]) for p, _, _ in expected]
    assert work.ids[new].tolist() == list(range(ens.size, ens.size + len(expected)))


def test_a_model_without_a_source_evaluates_none(monkeypatch):
    calls = []
    source_at = TnpModel.source_at
    monkeypatch.setattr(TnpModel, "source_at", lambda self, t: calls.append(t) or source_at(self, t))
    mcwf.run(qubit_decay_model(), Ensemble.sample_initial([(1.0, PLUS)], 100, seed=3), TimeGrid(0.0, 0.5, DT))
    assert calls == []


def test_series_when_record_every_leaves_a_remainder():
    # 10 steps recorded every 3: steps 0, 3, 6 and 9, as every step's series gives them
    model = qubit_decay_model(0.5)
    ens = Ensemble.sample_initial([(1.0, PLUS)], 300, seed=5, n_groups=3)
    grid = TimeGrid(0.0, 0.1, DT)
    sparse = mcwf.run(model, ens, grid, record_every=3, observables={"z": P.z})
    every = mcwf.run(model, ens, grid, observables={"z": P.z})
    assert sparse.times.tolist() == [grid.time_at(k) for k in (0, 3, 6, 9)]
    for name in ("times", "average_states", "trace_estimates", "total_counts", "distinct_counts", "group_counts"):
        assert getattr(sparse, name).shape[0] == 4, name
        assert np.array_equal(getattr(sparse, name), getattr(every, name)[::3]), name
    assert np.array_equal(sparse.group_observables["z"], every.group_observables["z"][::3])


def oscillating_model(hamiltonian):
    return TnpModel(
        dim=2, hamiltonian=hamiltonian,
        channels=(JumpChannel(TimeScalar.sinusoid(1.0, 2.0), P.minus, "osc"),),
        gamma=lambda t: np.cos(2 * t) * PROJ1 + 0.3 * np.eye(2),
    )


@pytest.mark.parametrize("runner, where", [(mcwf.run, "channel 0"), (ro.run, "eigenbranch 0")])
def test_reverse_jumps_without_host_raise(runner, where):
    # with H != 0 the jumped states leave |0> before the rate turns negative,
    # so no realization holds the host L psi'/||L psi'|| of a reverse jump
    model = oscillating_model(0.5 * P.x)
    ens = Ensemble.sample_initial([(1.0, PLUS)], 200, seed=405)
    with pytest.raises(NoSourceState, match=f"{where} .*lost weight"):
        runner(model, ens, TimeGrid(0.0, 1.2, 1e-2), reverse_jumps=True)


@pytest.mark.parametrize("where", ["step", "source"])
def test_count_ledger_catches_a_lost_row(monkeypatch, where):
    # decay spawns jumped rows in the step; the source-only model creates rows after it
    if where == "step":
        model = qubit_decay_model()
    else:
        model = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(), gamma=np.zeros((2, 2), dtype=complex),
                         source=SourceTerm(0.5 * PROJ1))
    ens = Ensemble.sample_initial([(1.0, PLUS)], 200, seed=7)
    grid = TimeGrid(0.0, 0.2, DT)
    assert mcwf.run(model, ens, grid).final_ensemble.next_id > ens.next_id  # rows were appended
    insert = Ensemble._insert_rows

    def drop_first_row(self, ends, sizes, states, mult, group, ids):
        sizes = list(sizes)
        sizes[next(b for b, size in enumerate(sizes) if size)] -= 1
        insert(self, ends, sizes, states[1:], mult[1:], group[1:], ids[1:])

    monkeypatch.setattr(Ensemble, "_insert_rows", drop_first_row)
    with pytest.raises(CountLedgerError, match=f"by the {where} at step \\d+, t = .*total count \\d+, expected"):
        mcwf.run(model, ens, grid)


def test_source_blocks_do_not_change_the_run(monkeypatch):
    # the midpoint sources are evaluated and eigendecomposed a block of steps
    # at a time: every step's source is evaluated once, and the block size
    # does not change a bit of the result
    calls = []

    def source(t):
        calls.append(t)
        c, s = np.cos(3.0 * t), np.sin(3.0 * t)
        psi = np.array([c, s * np.exp(1j * t)])
        return 0.8 * np.outer(psi, psi.conj()) + 0.2 * PROJ0

    model = TnpModel(dim=2, hamiltonian=0.5 * P.x, channels=(JumpChannel(1.0, P.minus),),
                     gamma=np.zeros((2, 2), dtype=complex), source=SourceTerm(source))
    ens = Ensemble.sample_initial([(1.0, PLUS)], 300, seed=12, n_groups=3)
    grid = TimeGrid(0.0, 1.5, DT)
    whole = mcwf.run(model, ens, grid).final_ensemble
    assert len(calls) == grid.n_steps > engine.SOURCE_BLOCK
    assert calls == [grid.time_at(k) + 0.5 * DT for k in range(grid.n_steps)]
    for block in (1, 7):
        monkeypatch.setattr(engine, "SOURCE_BLOCK", block)
        blocked = mcwf.run(model, ens, grid).final_ensemble
        for name in Ensemble._FIELDS:
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), (block, name)
