"""One engine step on a crafted ensemble, and reverse jumps without a host."""

import numpy as np
import pytest

from tnpmc import Ensemble, JumpChannel, TimeGrid, TimeScalar, TnpModel, mcwf, pauli_ops, ro
from tnpmc.engine import STEP_STREAM_TAG, _advance_step
from tnpmc.errors import CountLedgerError, NoSourceState
from tnpmc.model import SourceTerm
from tnpmc.mcwf import McwfScheme
from tnpmc.rng import batched_uniform_words, make_generator, stream_key

from helpers import StepTable, qubit_decay_model

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
        counts = _advance_step(model, work, McwfScheme(), 0.0, DT, True, step_key)
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
    append = Ensemble._append_rows

    def drop_first_row(self, states, mult, group):
        append(self, states[1:], mult[1:], group[1:])

    monkeypatch.setattr(Ensemble, "_append_rows", drop_first_row)
    with pytest.raises(CountLedgerError, match=f"by the {where} at step \\d+, t = .*total count \\d+, expected"):
        mcwf.run(model, ens, grid)
