import json

import numpy as np
import pytest

from tnpmc import Ensemble, JumpChannel, TimeGrid, TnpModel, engine, ensemble, mcwf, pauli_ops
from tnpmc.engine import _build_snapshot, _match_keys
from tnpmc.ensemble import _run_starts, canonical_key_rows, largest_remainder
from tnpmc.errors import EmptyDecomposition, InvalidParameter
from tnpmc.model import SourceTerm

from helpers import average_state_oracle, lexsort_run_starts, qubit_decay_model, random_state

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def test_average_state_balanced_mixture():
    ens = Ensemble.sample_initial([(0.5, KET0), (0.5, KET1)], 10_000, seed=1)
    assert np.allclose(ens.average_state(), 0.5 * np.eye(2))
    assert ens.trace_estimate() == 1.0


def test_average_state_empty():
    ens = Ensemble.empty(2, n_ref=10_000, seed=1)
    assert np.abs(ens.average_state()).max() == 0.0
    assert ens.trace_estimate() == 0.0
    assert ens.distinct_state_count() == 0


def test_average_state_overfilled():
    ens = Ensemble.sample_initial([(1.0, PLUS)], 10_000, seed=1)
    ens._append_members([(PLUS, 2000, 0)])
    avg = ens.average_state()
    assert np.allclose(avg, 1.2 * np.outer(PLUS, PLUS.conj()))
    assert ens.trace_estimate() == pytest.approx(1.2)


def test_average_state_equals_the_three_operand_form_bit_for_bit():
    rng = np.random.default_rng(24)
    for _ in range(60):
        d, n = int(rng.integers(1, 25)), int(rng.integers(0, 900))
        ens = Ensemble.empty(d, n_ref=int(rng.integers(1, 5000)), seed=0)
        if n:
            states = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            ens._append_rows(states, rng.integers(1, 50, size=n), np.zeros(n, dtype=np.int64))
        assert ens.average_state().tobytes() == average_state_oracle(ens).tobytes()


def _duplicated_members(rng, d, n, n_groups):
    """n members over n_groups groups, about a third of them phase-rotated copies of others."""
    ens = Ensemble.empty(d, n_ref=n, seed=0, n_groups=n_groups)
    base = [random_state(rng, d) for _ in range(2 * n // 3)]
    states = [base[int(rng.integers(len(base)))] * np.exp(1j * rng.uniform(0, 6.3)) for _ in range(n)]
    ens._append_rows(np.stack(states), rng.integers(1, 9, size=n), rng.integers(0, n_groups, size=n))
    return ens


@pytest.mark.parametrize("collide", [False, True], ids=["hash", "collision"])
def test_merge_groups_rows_as_the_lexicographic_sort_does(monkeypatch, collide):
    if collide:
        # every row hashes to 0: distinct neighbours in hash order must send the
        # merge to the lexicographic sort
        monkeypatch.setattr(ensemble, "_key_mix", lambda width: np.zeros(width, dtype=np.int64))
    rng = np.random.default_rng(17)
    for d, n in ((2, 300), (20, 200)):
        ens = _duplicated_members(rng, d, n, n_groups=3)
        rows = np.concatenate([ens.group[:, None], canonical_key_rows(ens.states)], axis=1)
        order, starts = _run_starts(rows)
        want_order, want_starts = lexsort_run_starts(rows)
        if collide:
            assert np.array_equal(order, want_order) and np.array_equal(starts, want_starts)
        # the same runs: each starts at the same smallest index and holds the same rows
        runs = np.cumsum(starts) - 1
        want_runs = np.cumsum(want_starts) - 1
        assert sorted(order[starts]) == sorted(want_order[want_starts])
        assert {tuple(sorted(order[runs == r])) for r in range(starts.sum())} == \
            {tuple(sorted(want_order[want_runs == r])) for r in range(want_starts.sum())}
        merged = ens.copy()
        merged._merge_in_place()
        assert merged.size == int(want_starts.sum()) < ens.size
        assert merged.total_count() == ens.total_count()
        # the first row of each run survives, in array order
        assert merged.states.tobytes() == ens.states[np.sort(want_order[want_starts])].tobytes()
        assert ens.distinct_state_count() == _run_starts(canonical_key_rows(ens.states))[1].sum()


@pytest.mark.parametrize("high_bits", ["distinct", "shared"])
def test_run_starts_order_is_the_stable_hash_order(monkeypatch, high_bits):
    # the order is a stable sort of the row hashes, also when different hashes
    # share their high bits (here: a hash that is the row's one small entry)
    rng = np.random.default_rng(23)
    if high_bits == "shared":
        monkeypatch.setattr(ensemble, "_key_mix", lambda width: np.ones(width, dtype=np.int64))
        cases = [rng.integers(0, 50, size=(n, 1)) for n in (300, 8)]
    else:
        cases = []
        for d, n in ((2, 300), (2, 8), (20, 200)):
            ens = _duplicated_members(rng, d, n, n_groups=3)
            cases.append(np.concatenate([ens.group[:, None], canonical_key_rows(ens.states)], axis=1))
    for rows in cases:
        order, starts = _run_starts(rows)
        h = rows @ ensemble._key_mix(rows.shape[1])
        assert np.array_equal(order, np.argsort(h, kind="stable"))
        assert np.array_equal(starts[1:], h[order][1:] != h[order][:-1])


def test_merge_duplicates_sums_counts():
    ens = Ensemble.empty(2, n_ref=10, seed=0)
    ens._append_members([(KET0, 3, 0), (KET0, 4, 0), (KET1, 1, 0)])
    ens._merge_in_place()
    assert ens.size == 2
    assert sorted(ens.mult.tolist()) == [1, 7]
    # members in different groups never merge
    ens2 = Ensemble.empty(2, n_ref=10, seed=0, n_groups=2)
    ens2._append_members([(KET0, 3, 0), (KET0, 4, 1)])
    ens2._merge_in_place()
    assert ens2.size == 2


def test_merge_preserves_average():
    rng = np.random.default_rng(3)
    ens = Ensemble.empty(3, n_ref=50, seed=0)
    states = [random_state(rng, 3) for _ in range(6)]
    rows = [(states[i % 4], int(rng.integers(1, 9)), 0) for i in range(12)]
    ens._append_members(rows)
    merged = ens.copy()
    merged._merge_in_place()
    assert merged.size <= ens.size
    assert np.abs(merged.average_state() - ens.average_state()).max() <= 1e-10
    assert merged.total_count() == ens.total_count()


def test_sample_initial_examples():
    single = Ensemble.sample_initial([(1.0, PLUS)], 10_000, seed=3)
    assert single.size == 1
    assert single.mult[0] == 10_000
    even = Ensemble.sample_initial([(0.5, KET0), (0.5, KET1)], 10, seed=3)
    assert even.mult.tolist() == [5, 5]
    thirds = Ensemble.sample_initial([(1 / 3, KET0), (1 / 3, KET1), (1 / 3, PLUS)], 10, seed=3)
    assert thirds.mult.tolist() == [4, 3, 3]
    with pytest.raises(EmptyDecomposition):
        Ensemble.sample_initial([], 10, seed=0)


def test_largest_remainder_deterministic():
    counts = largest_remainder([1.0, 1.0, 1.0], 10)
    assert counts.tolist() == [4, 3, 3]
    assert largest_remainder([2.0, 1.0], 7).tolist() == [5, 2]
    assert counts.sum() == 10


def test_groups_partition_members():
    ens = Ensemble.sample_initial([(1.0, PLUS)], 1000, seed=4, n_groups=7)
    assert ens.size == 7
    assert ens.group_counts().sum() == 1000
    assert ens.group_counts().min() >= 142


def test_canonical_key_phase_and_noise_invariance():
    rng = np.random.default_rng(5)
    psi = random_state(rng, 4)
    noisy = psi * np.exp(1j * 2.1) + 1e-12 * random_state(rng, 4)
    noisy = noisy / np.linalg.norm(noisy)
    other = random_state(rng, 4)
    rows = canonical_key_rows(np.stack([psi, noisy, other]))
    assert np.array_equal(rows[0], rows[1])
    assert not np.array_equal(rows[0], rows[2])


def test_count_snapshot():
    # the engine's per-step snapshot: one class per canonical key, counts summed
    ens = Ensemble.empty(2, n_ref=10, seed=0)
    ens._append_members([(KET0, 3, 0), (np.exp(0.4j) * KET0, 4, 0), (KET1, 2, 0)])
    keys, sources, counts, obj_class = _build_snapshot(ens.states, ens.mult)
    assert len(keys) == 2
    assert counts[obj_class[0]] == 7 and obj_class[0] == obj_class[1] != obj_class[2]
    assert np.allclose(sources[obj_class[0]], KET0) and counts[obj_class[2]] == 2


@pytest.mark.parametrize("collide", [False, True], ids=["hash", "collision"])
def test_snapshot_classes_and_host_matches_follow_the_lexicographic_keys(monkeypatch, collide):
    # classes in lexicographic key order, each with its first row as source; hosts
    # found by their key, -1 when absent, also when every key hashes to 0
    if collide:
        for module in (ensemble, engine):
            monkeypatch.setattr(module, "_key_mix", lambda width: np.zeros(width, dtype=np.int64))
    rng = np.random.default_rng(31)
    for d, n in ((2, 300), (3, 120), (20, 60)):
        ens = _duplicated_members(rng, d, n, n_groups=1)
        keys, sources, counts, obj_class = _build_snapshot(ens.states, ens.mult)
        rows = canonical_key_rows(ens.states)
        order, starts = lexsort_run_starts(rows)
        first = order[starts]
        assert np.array_equal(keys, rows[first]) and len(keys) < n
        assert sources.tobytes() == ens.states[first].tobytes()
        assert np.array_equal(counts, np.add.reduceat(ens.mult[order], np.flatnonzero(starts)))
        assert np.array_equal(keys[obj_class], rows)
        members = ens.states[rng.integers(0, n, size=40)] * np.exp(1j * rng.uniform(0, 6.3, size=(40, 1)))
        strangers = np.stack([random_state(rng, d) for _ in range(10)])
        hosts = _match_keys(keys, np.concatenate([members, strangers]))
        assert np.array_equal(keys[hosts[:40]], canonical_key_rows(members))
        assert (hosts[40:] == -1).all()


def test_a_candidate_that_shares_a_class_hash_is_no_host(monkeypatch):
    # key rows given directly, hashed as the sum of their entries
    monkeypatch.setattr(engine, "canonical_key_rows", np.asarray)
    monkeypatch.setattr(engine, "_key_mix", lambda width: np.ones(width, dtype=np.int64))
    keys = np.array([[0, 5], [1, 1], [2, 7]])  # hashes 5, 2 and 9
    candidates = np.array([[1, 1], [3, 2], [2, 7], [5, 0], [4, 4], [0, 5]])
    assert _match_keys(keys, candidates).tolist() == [1, -1, 2, -1, -1, 0]


def test_group_observable_sums():
    ens = Ensemble.empty(2, n_ref=10, seed=0, n_groups=2)
    ens._append_members([(KET0, 3, 0), (KET1, 4, 1)])
    sums = ens.group_observable_sums(np.diag([1.0, 0.0]))
    assert sums.tolist() == [3.0, 0.0]


def test_jsonl_round_trip(tmp_path):
    ens = Ensemble.sample_initial([(0.6, KET0), (0.4, KET1)], 100, seed=9, n_groups=2)
    path = tmp_path / "checkpoint.jsonl"
    ens.to_jsonl(path)
    back = Ensemble.from_jsonl(path)
    assert back.n_ref == ens.n_ref
    assert back.seed == ens.seed
    assert back.size == ens.size
    assert np.array_equal(back.mult, ens.mult)
    assert back.next_id == ens.next_id and back.steps == ens.steps
    assert np.abs(back.average_state() - ens.average_state()).max() <= 1e-12


@pytest.mark.parametrize("source", [None, SourceTerm(0.5 * np.outer(KET1, KET1))], ids=["decay", "source"])
def test_checkpoint_resume_is_bit_identical(tmp_path, source):
    # time-independent model: a grid split at t = 0.2 differs from the
    # unsplit one in the last bit of t0 + i * dt; the source term draws its
    # creations on a stream keyed by the ensemble's step count
    p = pauli_ops()
    model = TnpModel(dim=2, hamiltonian=0.5 * p.x, channels=(JumpChannel(1.0, p.minus),),
                     gamma=np.zeros((2, 2), dtype=complex), source=source)
    ens = Ensemble.sample_initial([(1.0, KET1)], 200, seed=5)
    whole = mcwf.run(model, ens, TimeGrid(0.0, 0.4, 1e-2), merge=False).final_ensemble
    half = mcwf.run(model, ens, TimeGrid(0.0, 0.2, 1e-2), merge=False).final_ensemble
    path = tmp_path / "checkpoint.jsonl"
    half.to_jsonl(path)
    resumed = mcwf.run(model, Ensemble.from_jsonl(path), TimeGrid(0.2, 0.4, 1e-2), merge=False).final_ensemble
    assert resumed.total_count() == whole.total_count() > 200
    for name in Ensemble._FIELDS:
        assert np.array_equal(getattr(resumed, name), getattr(whole, name)), name
    assert resumed.next_id == whole.next_id
    assert resumed.steps == whole.steps == 40


def test_checkpoint_without_stream_state_rejected(tmp_path):
    path = tmp_path / "old.jsonl"
    header = {"dim": 2, "n_ref": 1, "seed": 3, "time": 0.0, "n_groups": 1}
    member = {"id": 0, "multiplicity": 1, "group": 0, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(member) + "\n", encoding="utf-8")
    # members need no stream fields; the header's step and id counters are required
    with pytest.raises(InvalidParameter, match="stream state: next_id, steps$"):
        Ensemble.from_jsonl(path)
    # with the counters it loads; the per-member id of older files is ignored
    header.update(next_id=1, steps=0)
    path.write_text(json.dumps(header) + "\n" + json.dumps(member) + "\n", encoding="utf-8")
    assert Ensemble.from_jsonl(path).mult.tolist() == [1]
    # a checkpoint without the step count that keys the random streams
    Ensemble.sample_initial([(1.0, KET0)], 3, seed=3).to_jsonl(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    del header["steps"]
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(InvalidParameter, match="stream state: steps$"):
        Ensemble.from_jsonl(path)


def test_run_reproducibility_and_average_invariance():
    model = qubit_decay_model()
    ens = Ensemble.sample_initial([(1.0, KET1)], 500, seed=77, n_groups=5)
    grid = TimeGrid(0.0, 0.2, 1e-2)
    r1 = mcwf.run(model, ens, grid, record_every=5)
    r2 = mcwf.run(model, ens, grid, record_every=5)
    assert np.array_equal(r1.average_states, r2.average_states)
    assert np.array_equal(r1.total_counts, r2.total_counts)
    # merging at the end must not change the average
    fin = r1.final_ensemble
    merged = fin.copy()
    merged._merge_in_place()
    assert np.abs(merged.average_state() - fin.average_state()).max() <= 1e-10


def test_insert_rows_places_members_as_np_insert_does():
    rng = np.random.default_rng(3)
    ens = Ensemble.empty(2, n_ref=10, seed=1, n_groups=3)
    ens._append_rows(rng.normal(size=(5, 2)) + 0j, [1, 2, 3, 4, 5], [0, 1, 2, 0, 1])
    ends, sizes = [0, 3, 3, 5], [2, 1, 0, 2]  # blocks of new members, one of them empty
    at = np.repeat(ends, sizes)
    new = {"states": rng.normal(size=(5, 2)) + 1j, "mult": [6, 7, 8, 9, 10], "group": [2, 2, 1, 0, 0]}
    expected = {name: np.insert(getattr(ens, name), at, np.asarray(new[name], dtype=getattr(ens, name).dtype), axis=0)
                for name in Ensemble._FIELDS}
    ens._insert_rows(ends, sizes, new["states"], new["mult"], new["group"])
    for name in Ensemble._FIELDS:
        assert getattr(ens, name).dtype == expected[name].dtype
        assert np.array_equal(getattr(ens, name), expected[name]), name
