"""Multiset of pure-state realizations with integer multiplicities.

The ensemble is stored as parallel arrays so the stepping engine can batch
linear algebra across all trajectories; :class:`Trajectory` objects are views
used at API boundaries. Total counts may grow or shrink during a run; the
fixed reference count ``n_ref`` normalizes the ensemble average.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDecomposition, InvalidParameter
from .linops import phase_fix_rows
from .rng import stream_key

KEY_QUANTUM = 1e-8


def canonical_key_rows(states: np.ndarray, quantum: float = KEY_QUANTUM) -> np.ndarray:
    """Quantized integer rows identifying states up to global phase.

    Equal rows imply fidelity >= 1 - 1e-12 for unit vectors at the default
    quantum. Output shape (n, 2 d), int64.
    """
    fixed = phase_fix_rows(np.asarray(states, dtype=complex))
    cols = np.empty((fixed.shape[0], 2 * fixed.shape[1]))
    cols[:, 0::2] = fixed.real
    cols[:, 1::2] = fixed.imag
    return np.round(cols / quantum).astype(np.int64)


def canonical_key(state: np.ndarray, quantum: float = KEY_QUANTUM) -> bytes:
    """Hashable canonical key of a single state."""
    return canonical_key_rows(state[None, :], quantum)[0].tobytes()


def largest_remainder(weights: Sequence[float], n: int) -> np.ndarray:
    """Deterministic proportional allocation of n items; ties broken by index."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise EmptyDecomposition("no components to allocate")
    if np.any(w < 0):
        raise InvalidParameter("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise InvalidParameter("weights must not all vanish")
    quota = w / total * n
    counts = np.floor(quota).astype(np.int64)
    short = n - counts.sum()
    if short > 0:
        frac = quota - counts
        order = np.lexsort((np.arange(w.size), -frac))
        counts[order[:short]] += 1
    return counts


@dataclass(frozen=True)
class Trajectory:
    """Read-only view of one ensemble member."""

    id: int
    state: np.ndarray
    multiplicity: int
    group: int
    key: tuple[int, int]
    counter: int
    spawned: int


class Ensemble:
    # per-member arrays, all indexed by member
    _FIELDS = ("states", "mult", "group", "ids", "key0", "key1", "ctr", "spawned")

    def __init__(self, dim: int, n_ref: int, seed: int, time: float = 0.0, n_groups: int = 1):
        if n_ref < 1:
            raise InvalidParameter(f"n_ref must be >= 1, got {n_ref}")
        if n_groups < 1:
            raise InvalidParameter(f"n_groups must be >= 1, got {n_groups}")
        self.dim = dim
        self.n_ref = int(n_ref)
        self.seed = int(seed)
        self.time = float(time)
        self.n_groups = int(n_groups)
        self.states = np.zeros((0, dim), dtype=complex)
        self.mult = np.zeros(0, dtype=np.int64)
        self.group = np.zeros(0, dtype=np.int64)
        self.ids = np.zeros(0, dtype=np.uint64)
        self.key0 = np.zeros(0, dtype=np.uint64)
        self.key1 = np.zeros(0, dtype=np.uint64)
        self.ctr = np.zeros(0, dtype=np.uint64)
        self.spawned = np.zeros(0, dtype=np.uint64)
        self.next_id = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, dim: int, n_ref: int, seed: int, n_groups: int = 1) -> "Ensemble":
        return cls(dim=dim, n_ref=n_ref, seed=seed, n_groups=n_groups)

    @classmethod
    def sample_initial(
        cls,
        decomposition: Sequence[tuple[float, np.ndarray]],
        n: int,
        seed: int,
        n_groups: int = 1,
    ) -> "Ensemble":
        """Allocate n realizations across pure states by largest-remainder rounding.

        With n_groups > 1 each state's count is further split across groups
        (again by largest remainder) for block-bootstrap error estimates.
        """
        if len(decomposition) == 0:
            raise EmptyDecomposition("initial decomposition is empty")
        weights = [w for w, _ in decomposition]
        states = [np.asarray(s, dtype=complex) for _, s in decomposition]
        dim = states[0].shape[0]
        counts = largest_remainder(weights, n)
        ens = cls(dim=dim, n_ref=n, seed=seed, n_groups=n_groups)
        rows = []
        for count, state in zip(counts, states):
            if count == 0:
                continue
            nrm = np.linalg.norm(state)
            if nrm == 0:
                raise InvalidParameter("initial state has zero norm")
            state = state / nrm
            if n_groups == 1:
                rows.append((state, int(count), 0))
            else:
                per_group = largest_remainder(np.ones(n_groups), int(count))
                for g, c in enumerate(per_group):
                    if c > 0:
                        rows.append((state, int(c), g))
        ens._append_members(rows)
        return ens

    def _append_members(self, rows: Sequence[tuple[np.ndarray, int, int]]) -> None:
        """Append (state, multiplicity, group) members with fresh ids and streams."""
        if not rows:
            return
        keys = [stream_key(self.seed, self.next_id + c, 0) for c in range(len(rows))]
        self._append_rows(np.stack([r[0] for r in rows]), [r[1] for r in rows], [r[2] for r in rows], keys)

    def _append_rows(self, states, mult, group, keys) -> None:
        """Append members with fresh ids, the given stream keys and zero counters."""
        n_new = len(keys)
        new = {
            "states": states,
            "mult": np.array(mult, dtype=np.int64),
            "group": np.array(group, dtype=np.int64),
            "ids": np.arange(self.next_id, self.next_id + n_new, dtype=np.uint64),
            "key0": np.array([k[0] for k in keys], dtype=np.uint64),
            "key1": np.array([k[1] for k in keys], dtype=np.uint64),
            "ctr": np.zeros(n_new, dtype=np.uint64),
            "spawned": np.zeros(n_new, dtype=np.uint64),
        }
        self.next_id += n_new
        for name in self._FIELDS:
            setattr(self, name, np.concatenate([getattr(self, name), new[name]]))

    # -- inspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def members(self) -> list[Trajectory]:
        return [
            Trajectory(
                id=int(self.ids[i]),
                state=self.states[i].copy(),
                multiplicity=int(self.mult[i]),
                group=int(self.group[i]),
                key=(int(self.key0[i]), int(self.key1[i])),
                counter=int(self.ctr[i]),
                spawned=int(self.spawned[i]),
            )
            for i in range(self.size)
        ]

    def total_count(self) -> int:
        return int(self.mult.sum())

    def trace_estimate(self) -> float:
        return self.total_count() / self.n_ref

    def average_state(self) -> np.ndarray:
        """Unnormalized ensemble average sum_i (N_i / n_ref) |psi_i><psi_i|."""
        if self.size == 0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        w = self.mult.astype(float) / self.n_ref
        return np.einsum("n,ni,nj->ij", w, self.states, self.states.conj())

    def distinct_state_count(self) -> int:
        if self.size == 0:
            return 0
        return np.unique(canonical_key_rows(self.states), axis=0).shape[0]

    def count_snapshot(self) -> dict[bytes, tuple[int, np.ndarray]]:
        """Canonical key -> (total count, representative state), built per step."""
        snap: dict[bytes, tuple[int, np.ndarray]] = {}
        if self.size == 0:
            return snap
        rows = canonical_key_rows(self.states)
        for i in range(self.size):
            k = rows[i].tobytes()
            if k in snap:
                cnt, rep = snap[k]
                snap[k] = (cnt + int(self.mult[i]), rep)
            else:
                snap[k] = (int(self.mult[i]), self.states[i])
        return snap

    def group_counts(self) -> np.ndarray:
        return np.bincount(self.group, weights=self.mult, minlength=self.n_groups).astype(np.int64)

    def group_observable_sums(self, a: np.ndarray) -> np.ndarray:
        """Per group: sum_i N_i <psi_i|A|psi_i> (real part), unnormalized."""
        if self.size == 0:
            return np.zeros(self.n_groups)
        vals = np.einsum("ni,ij,nj->n", self.states.conj(), a, self.states).real
        return np.bincount(self.group, weights=self.mult * vals, minlength=self.n_groups)

    # -- transformation ------------------------------------------------------

    def copy(self) -> "Ensemble":
        out = Ensemble(self.dim, self.n_ref, self.seed, self.time, self.n_groups)
        for name in self._FIELDS:
            setattr(out, name, getattr(self, name).copy())
        out.next_id = self.next_id
        return out

    def merge_duplicates(self) -> "Ensemble":
        """Merge members with equal canonical key within the same group.

        The surviving member keeps the id/stream of the first occurrence in
        array order; multiplicities are summed. The ensemble average is
        unchanged up to the key quantum.
        """
        out = self.copy()
        out._merge_in_place()
        return out

    def _merge_in_place(self) -> None:
        if self.size <= 1:
            return
        rows = canonical_key_rows(self.states)
        tagged = np.concatenate([self.group[:, None], rows], axis=1)
        _, first_idx, inverse = np.unique(tagged, axis=0, return_index=True, return_inverse=True)
        if first_idx.shape[0] == self.size:
            return
        # representative: smallest array index in each duplicate class
        rep = np.full(first_idx.shape[0], self.size, dtype=np.int64)
        np.minimum.at(rep, inverse, np.arange(self.size))
        summed = np.zeros(first_idx.shape[0], dtype=np.int64)
        np.add.at(summed, inverse, self.mult)
        order = np.argsort(rep)  # survivors stay in array order
        keep = rep[order]
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        self.mult = summed[order]

    def drop_empty(self) -> None:
        alive = self.mult > 0
        if alive.all():
            return
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[alive])

    # -- serialization -------------------------------------------------------

    def to_jsonl(self, path) -> None:
        """JSON-lines checkpoint: a header record, then one member per line.

        Stream keys, draw counters and spawn counts are stored, so a run
        resumed from the checkpoint continues bit for bit.
        """
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "dim": self.dim,
                "n_ref": self.n_ref,
                "seed": self.seed,
                "time": self.time,
                "n_groups": self.n_groups,
                "next_id": self.next_id,
            }
            fh.write(json.dumps(header) + "\n")
            for i in range(self.size):
                rec = {
                    "id": int(self.ids[i]),
                    "multiplicity": int(self.mult[i]),
                    "group": int(self.group[i]),
                    "key0": int(self.key0[i]),
                    "key1": int(self.key1[i]),
                    "ctr": int(self.ctr[i]),
                    "spawned": int(self.spawned[i]),
                    "amplitudes": [[float(z.real), float(z.imag)] for z in self.states[i]],
                }
                fh.write(json.dumps(rec) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "Ensemble":
        """Restore a checkpoint written by :meth:`to_jsonl`, streams included."""
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            records = [json.loads(line) for line in fh]
        member_keys = ("id", "multiplicity", "group", "key0", "key1", "ctr", "spawned", "amplitudes")
        if "next_id" not in header or any(k not in rec for rec in records for k in member_keys):
            raise InvalidParameter(f"checkpoint {path} lacks stream state (next_id, key0, key1, ctr, spawned)")
        ens = cls(
            dim=header["dim"],
            n_ref=header["n_ref"],
            seed=header["seed"],
            time=header["time"],
            n_groups=header.get("n_groups", 1),
        )
        if records:
            ens.states = np.array([[complex(re, im) for re, im in r["amplitudes"]] for r in records])
            ens.mult = np.array([r["multiplicity"] for r in records], dtype=np.int64)
            ens.group = np.array([r["group"] for r in records], dtype=np.int64)
            for name, key in (("ids", "id"), ("key0", "key0"), ("key1", "key1"), ("ctr", "ctr"),
                              ("spawned", "spawned")):
                setattr(ens, name, np.array([r[key] for r in records], dtype=np.uint64))
        ens.next_id = header["next_id"]
        return ens
