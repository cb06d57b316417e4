"""Multiset of pure-state realizations with integer multiplicities.

The ensemble is stored as parallel per-member arrays (``_FIELDS``) so the
stepping engine can batch linear algebra across all members. Total counts may
grow or shrink during a run; the fixed reference count ``n_ref`` normalizes
the ensemble average. Members carry no random-stream state: the engine
draws each step from one stream keyed by ``seed`` and the step counter
``steps``.
"""

from __future__ import annotations

import functools
import json
from typing import Sequence

import numpy as np

from .errors import EmptyDecomposition, InvalidParameter
from .linops import phase_fix_rows
# stream_key is unused here, but bench/tracer.py wraps ensemble.stream_key by name
from .rng import stream_key  # noqa: F401

KEY_QUANTUM = 1e-8


def canonical_key_rows(states: np.ndarray, quantum: float = KEY_QUANTUM) -> np.ndarray:
    """Quantized integer rows identifying states up to global phase.

    Equal rows imply fidelity >= 1 - 1e-12 for unit vectors at the default
    quantum. Output shape (n, 2 d), int64.
    """
    fixed = phase_fix_rows(np.asarray(states, dtype=complex))
    # a float view of the complex rows interleaves (re, im)
    cols = fixed.view(np.float64)
    return np.round(cols / quantum).astype(np.int64)


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


@functools.lru_cache(maxsize=None)
def _key_mix(width: int) -> np.ndarray:
    """Fixed odd int64 multipliers (splitmix64 of 1, 2, ...) that hash a key row of ``width`` entries."""
    x = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    mix = ((x ^ (x >> np.uint64(31))) | np.uint64(1)).view(np.int64)
    mix.flags.writeable = False  # one cached array serves every caller
    return mix


def _run_starts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order of the rows that puts equal rows next to each other, and
    a mask over the ordered rows that is True where a run of equal rows starts.

    Rows are ordered by a wrapping int64 hash; neighbours with equal hashes
    are compared exactly, and a hash collision between different rows falls
    back to a lexicographic sort.
    """
    n = rows.shape[0]
    h = rows @ _key_mix(rows.shape[1])
    # one value sort of the hash with its low bits replaced by the row index, several
    # times faster than a stable argsort: equal hashes stay in index order, and only
    # different hashes that share their high bits can interleave, then the stable sort runs
    bits = max(1, (n - 1).bit_length())
    key = np.sort((h >> bits << bits) | np.arange(n))
    order = key & ((1 << bits) - 1)
    hs = h[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = hs[1:] != hs[:-1]
    high = key >> bits
    if (starts[1:] & (high[1:] == high[:-1])).any():
        order = np.argsort(h, kind="stable")
        hs = h[order]
        starts[1:] = hs[1:] != hs[:-1]
    same = np.flatnonzero(~starts[1:])
    if (np.take(rows, order[same], axis=0) != np.take(rows, order[same + 1], axis=0)).any():
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, starts


class Ensemble:
    # per-member arrays, all indexed by member
    _FIELDS = ("states", "mult", "group", "ids")

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
        self.next_id = 0  # members ever appended; the next member's id
        self.steps = 0  # engine steps taken; the counter of the per-step streams

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
        """Append (state, multiplicity, group) members with fresh ids."""
        if not rows:
            return
        self._append_rows(np.stack([r[0] for r in rows]), [r[1] for r in rows], [r[2] for r in rows])

    def _append_rows(self, states, mult, group) -> None:
        """Append members with fresh ids."""
        n_new = len(mult)
        ids = np.arange(self.next_id, self.next_id + n_new, dtype=np.uint64)
        self.next_id += n_new
        self._insert_rows([self.size], [n_new], states, mult, group, ids)

    def _insert_rows(self, ends, sizes, states, mult, group, ids) -> None:
        """Insert members in blocks, the ``sizes[b]`` members of block b before the
        current member ``ends[b]`` (``ends`` non-decreasing); ids are the caller's."""
        new = (states, np.asarray(mult, dtype=np.int64), np.asarray(group, dtype=np.int64),
               np.asarray(ids, dtype=np.uint64))
        cuts, first = [], 0  # (current member it goes before, first and end new member) of each nonempty block
        for end, size in zip(ends, sizes):
            if size:
                cuts.append((end, first, first + size))
                first += size
        if not cuts:
            return
        if cuts[0][0] == self.size:  # all at the end
            for name, add in zip(self._FIELDS, new):
                setattr(self, name, np.concatenate([getattr(self, name), add]))
            return
        for name, add in zip(self._FIELDS, new):
            old, pieces, start = getattr(self, name), [], 0
            for end, lo, hi in cuts:
                pieces += [old[start:end], add[lo:hi]]
                start = end
            pieces.append(old[start:])
            setattr(self, name, np.concatenate(pieces))

    # -- inspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def total_count(self) -> int:
        return int(self.mult.sum())

    def trace_estimate(self) -> float:
        return self.total_count() / self.n_ref

    def average_state(self) -> np.ndarray:
        """Unnormalized ensemble average sum_i (N_i / n_ref) |psi_i><psi_i|."""
        if self.size == 0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        w = self.mult.astype(float) / self.n_ref
        return np.einsum("ni,nj->ij", w[:, None] * self.states, self.states.conj())

    def distinct_state_count(self) -> int:
        if self.size == 0:
            return 0
        return int(_run_starts(canonical_key_rows(self.states))[1].sum())

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
        out.steps = self.steps
        return out

    def merge_duplicates(self) -> "Ensemble":
        """Merge members with equal canonical key within the same group.

        The surviving member keeps the id of the first occurrence in array
        order; multiplicities are summed. The ensemble average is
        unchanged up to the key quantum.
        """
        out = self.copy()
        out._merge_in_place()
        return out

    def _merge_in_place(self) -> None:
        if self.size <= 1:
            return
        rows = canonical_key_rows(self.states)
        order, starts = _run_starts(np.concatenate([self.group[:, None], rows], axis=1))
        if starts.all():
            return
        # the sort is stable, so each run of equal keys starts at its smallest array index
        rep = order[starts]
        summed = np.add.reduceat(self.mult[order], np.flatnonzero(starts))
        survivors = np.argsort(rep)  # survivors stay in array order
        keep = rep[survivors]
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        self.mult = summed[survivors]

    def drop_empty(self) -> None:
        alive = self.mult > 0
        if alive.all():
            return
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[alive])

    # -- serialization -------------------------------------------------------

    def to_jsonl(self, path) -> None:
        """JSON-lines checkpoint: a header record, then one member per line.

        The step counter, which keys the random streams, and the id counter
        are stored, so a run resumed from the checkpoint continues bit for
        bit.
        """
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "dim": self.dim,
                "n_ref": self.n_ref,
                "seed": self.seed,
                "time": self.time,
                "n_groups": self.n_groups,
                "next_id": self.next_id,
                "steps": self.steps,
            }
            fh.write(json.dumps(header) + "\n")
            for i in range(self.size):
                rec = {
                    "id": int(self.ids[i]),
                    "multiplicity": int(self.mult[i]),
                    "group": int(self.group[i]),
                    "amplitudes": [[float(z.real), float(z.imag)] for z in self.states[i]],
                }
                fh.write(json.dumps(rec) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "Ensemble":
        """Restore a checkpoint written by :meth:`to_jsonl`, stream state included."""
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            records = [json.loads(line) for line in fh]
        member_keys = ("id", "multiplicity", "group", "amplitudes")
        missing = [k for k in ("next_id", "steps") if k not in header]
        missing += [k for k in member_keys if any(k not in rec for rec in records)]
        if missing:
            raise InvalidParameter(f"checkpoint {path} lacks stream state: {', '.join(missing)}")
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
            ens.ids = np.array([r["id"] for r in records], dtype=np.uint64)
        ens.next_id = header["next_id"]
        ens.steps = header["steps"]
        return ens
