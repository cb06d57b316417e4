"""Shared time-synchronous stepping engine for the jump schemes.

Each step advances every object against an immutable snapshot of the
ensemble: probabilities are computed in batched array passes, and every
realization gets one outcome (jump, reverse jump, disappearance or
replication, or deterministic drift). All draws of a step come from one
random stream keyed by the seed and the step counter, consumed in array
order: objects of multiplicity 1 take one uniform, larger objects split their
count with a binomial, categorical or multinomial draw. Structural changes,
source creations included, are applied at the end-of-step barrier in object
order, so results are bit-identical given ``(config, seed)``, and the count
ledger is checked after every change.

Several ensembles that share the grid advance as lanes of one run, each lane
under its own model; a shared model is the same object in every lane. Each
lane keeps its own rows, streams and counters, so its result is
byte-identical to a run of that ensemble alone. A model is evaluated once per
step for all its lanes, neighbouring multi-row lanes of one model share their
kernel calls, and one binomial pass covers every lane.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .ensemble import Ensemble, _key_mix, _run_starts, canonical_key_rows
from .errors import (
    CountLedgerError,
    InvalidParameter,
    NegativeProbability,
    NegativeSource,
    StepTooLarge,
)
from .exact import TimeGrid
from .linops import hermitian_eig
from .model import TnpModel
from .rng import batched_uniform_words, binomial_inverse, make_generator, resume_stream, stream_key, stream_position

JUMP_MASS_LIMIT = 0.1
STEP_STREAM_TAG = 0x5374657053747265  # stream_key tag of the per-step outcome stream
SOURCE_STREAM_TAG = 0x536F757263655454  # stream_key tag of the per-step source stream
NEG_SOURCE_TOL = 1e-6
SOURCE_BLOCK = 16  # steps whose midpoint sources are evaluated and eigendecomposed together


@dataclass
class RunResult:
    """Recorded time series of an engine run."""

    times: np.ndarray
    average_states: np.ndarray
    trace_estimates: np.ndarray
    total_counts: np.ndarray
    distinct_counts: np.ndarray
    group_counts: np.ndarray
    group_observables: dict[str, np.ndarray] = field(default_factory=dict)
    n_ref: int = 0
    seed: int = 0
    n_groups: int = 1
    final_ensemble: Optional[Ensemble] = None


def _void_rows(rows: np.ndarray) -> np.ndarray:
    """View int64 rows as comparable scalars for sorting/searching."""
    rows = np.ascontiguousarray(rows)
    return rows.view([("", rows.dtype)] * rows.shape[1]).ravel()


def _build_snapshot(states: np.ndarray, mult: np.ndarray):
    """State classes of the rows by canonical key, in lexicographic key order:
    their keys, first rows, summed counts, and the class of every row.

    The rows are grouped through the merge's hash order, which keeps each
    group in row order, so a class starts at its first row; only the class
    keys are then sorted."""
    rows = canonical_key_rows(states)
    order, starts = _run_starts(rows)
    first = order[starts]
    classes = np.lexsort(rows[first].T[::-1])  # distinct keys, so no ties
    rank = np.empty_like(classes)
    rank[classes] = np.arange(classes.size)
    inverse = np.empty(rows.shape[0], dtype=np.int64)
    inverse[order] = rank[np.cumsum(starts) - 1]
    counts = np.add.reduceat(mult[order], np.flatnonzero(starts))[classes]
    first = first[classes]
    return rows[first], states[first], counts, inverse


def _match_keys(class_keys: np.ndarray, candidate_states: np.ndarray) -> np.ndarray:
    """Index of each candidate's canonical key in the class keys (distinct rows in
    lexicographic order), -1 when absent.

    Candidates are looked up by a wrapping int64 hash of their key rows and
    then compared exactly; when two classes share a hash, by the key rows.
    """
    rows = canonical_key_rows(candidate_states)
    mix = _key_mix(rows.shape[1])
    hashes = class_keys @ mix
    by_hash = np.argsort(hashes)
    table, wanted = hashes[by_hash], rows @ mix
    if (table[1:] == table[:-1]).any():
        by_hash, table, wanted = np.arange(class_keys.shape[0]), _void_rows(class_keys), _void_rows(rows)
    cls = by_hash[np.minimum(np.searchsorted(table, wanted), table.shape[0] - 1)]
    return np.where((np.take(class_keys, cls, axis=0) == rows).all(axis=1), cls, -1)


def run(
    model: Union[TnpModel, Sequence[TnpModel]],
    ensembles: Union[Ensemble, Sequence[Ensemble]],
    grid: TimeGrid,
    scheme,
    *,
    reverse_jumps: bool = False,
    record_every: int = 1,
    merge: Optional[bool] = None,
    observables: Optional[dict[str, np.ndarray]] = None,
    jump_mass_limit: float = JUMP_MASS_LIMIT,
    record_distinct: bool = True,
) -> Union[RunResult, list[RunResult]]:
    """Advance an ensemble over the grid, recording count-weighted averages.

    ``ensembles`` is one Ensemble, which gives one RunResult, or a sequence of
    ensembles ("lanes"), which gives one RunResult per ensemble. ``model`` is
    one model shared by every lane, or a sequence of one model per lane. The
    lanes advance in one time loop, and each result is byte-identical to a
    separate run of its ensemble under its model.
    """
    lanes = _Lanes([ensembles] if isinstance(ensembles, Ensemble) else list(ensembles), model)
    for e in lanes.inputs:
        if abs(e.time - grid.t0) > 1e-9:
            raise InvalidParameter(f"ensemble time {e.time} != grid start {grid.t0}")
    if record_every < 1:
        raise InvalidParameter("record_every must be >= 1")
    if reverse_jumps and lanes.n > 1:
        raise InvalidParameter("reverse jumps need a run of one ensemble")
    if merge is None:
        merge = not reverse_jumps
    observables = observables or {}

    ens = lanes.join()
    dt = grid.dt
    n_rec = grid.n_steps // record_every + 1
    series = [_Series(e, n_rec, observables, record_distinct) for e in lanes.inputs]
    distinct = list({id(m): m for m in lanes.models}.values())
    has_source = any(m.source is not None for m in distinct)

    def record():
        for s, lane in zip(series, lanes.views(ens)):
            s.record(lane)

    record()
    for step in range(grid.n_steps):
        t = grid.time_at(step)
        _advance_step(lanes, ens, scheme, t, dt, reverse_jumps, jump_mass_limit)
        if has_source:
            k = step % SOURCE_BLOCK
            if k == 0:  # the source spectra of a block of steps, once per model
                spectra = {id(m): _source_spectra(m, grid, step) for m in distinct}
            eigs = [None if spectra[id(m)] is None else spectra[id(m)][k] for m in lanes.models]
            _apply_source(ens, lanes, eigs, t, dt)
        ens.steps += 1
        lanes.steps = [s + 1 for s in lanes.steps]
        if merge:
            ens._merge_in_place()
        ens.time = grid.time_at(step + 1)
        if (step + 1) % record_every == 0:
            record()

    results = [s.result(lane) for s, lane in zip(series, lanes.views(ens))]
    return results[0] if isinstance(ensembles, Ensemble) else results


class _Lanes:
    """Ensembles advanced together, stored as contiguous blocks of rows of one
    working ensemble, each block in its own ensemble's row order.

    Every lane keeps its own model, seed, step counter, row counter,
    reference count and groups. Group ids are offset per lane, so one merge
    of the working ensemble never joins rows of two lanes, and new rows go to
    the end of their lane.

    ``model`` is one model for every lane, which ``models`` then repeats, or
    a sequence of one model per lane.
    """

    def __init__(self, ensembles: list[Ensemble], model):
        if not ensembles:
            raise InvalidParameter("no ensemble to run")
        self.n = len(ensembles)
        self.models = list(model) if isinstance(model, Iterable) else [model] * self.n
        if len(self.models) != self.n:
            raise InvalidParameter(f"{len(self.models)} models for {self.n} ensembles; give one, or one per ensemble")
        dims = [e.dim for e in ensembles] + [m.dim for m in self.models]
        if len(set(dims)) > 1:
            raise InvalidParameter(f"ensembles and models of one run need one dimension, got {dims}")
        self.inputs = ensembles
        # the first group id of each lane, then the number of groups of all lanes
        self.goff = np.cumsum([0] + [e.n_groups for e in ensembles]).tolist()
        self.steps = [e.steps for e in ensembles]
        self.next_id = [e.next_id for e in ensembles]
        self.step_keys = [stream_key(e.seed, STEP_STREAM_TAG) for e in ensembles]
        self.src_keys = [stream_key(e.seed, SOURCE_STREAM_TAG, 0) for e in ensembles]

    def join(self) -> Ensemble:
        """A working copy holding the rows of every lane, group ids offset per lane."""
        first = self.inputs[0]  # its header stands in for the lanes', which the lanes keep
        ens = Ensemble(first.dim, first.n_ref, first.seed, first.time, self.goff[-1])
        for name in Ensemble._FIELDS:
            setattr(ens, name, np.concatenate([getattr(e, name) for e in self.inputs]))
        ens.group = ens.group + np.repeat(self.goff[:-1], [e.size for e in self.inputs])
        ens.next_id = sum(self.next_id)
        ens.steps = first.steps
        return ens

    def bounds(self, ens: Ensemble) -> list[int]:
        """First row of each lane in the working ensemble, then its size."""
        return [0] + [int(np.count_nonzero(ens.group < g)) for g in self.goff[1:-1]] + [ens.size]

    def views(self, ens: Ensemble) -> list[Ensemble]:
        """The rows and counters of each lane as an ensemble of its own."""
        bounds = self.bounds(ens)
        out = []
        for lane, e in enumerate(self.inputs):
            rows = slice(bounds[lane], bounds[lane + 1])
            view = Ensemble(e.dim, e.n_ref, e.seed, ens.time, e.n_groups)
            view.states, view.mult = ens.states[rows], ens.mult[rows]
            view.group = ens.group[rows] - self.goff[lane]
            view.next_id, view.steps = self.next_id[lane], self.steps[lane]
            out.append(view)
        return out

    def locate(self, i: int, bounds: list[int]) -> tuple[str, int]:
        """How guard errors name row i, and the step counter of its lane."""
        if self.n == 1:
            return f"object {i}", self.steps[0]
        lane = int(np.searchsorted(bounds, i, side="right")) - 1
        return f"lane {lane} object {i - bounds[lane]}", self.steps[lane]

    def append(self, ens: Ensemble, bounds: list[int], sizes: list[int], states, mult, group) -> None:
        """Put new rows at the end of their lanes, counted by their lane's row counter:
        the first ``sizes[0]`` rows go to lane 0, the next ``sizes[1]`` to lane 1, ..."""
        self.next_id = [first + size for first, size in zip(self.next_id, sizes)]
        ens.next_id += sum(sizes)
        ens._insert_rows(bounds[1:], sizes, states, mult, group)


class _Series:
    """The time series one lane records, written into arrays sized for the whole run."""

    def __init__(self, ens: Ensemble, n_rec: int, observables: dict[str, np.ndarray], record_distinct: bool):
        self.observables, self.record_distinct = observables, record_distinct
        self.n = 0  # records written
        self.times = np.empty(n_rec)
        self.avg = np.empty((n_rec, ens.dim, ens.dim), dtype=complex)
        self.trace = np.empty(n_rec)
        self.total = np.empty(n_rec, dtype=np.int64)
        self.distinct = np.empty(n_rec, dtype=np.int64)
        self.gcounts = np.empty((n_rec, ens.n_groups), dtype=np.int64)
        self.gobs = {name: np.empty((n_rec, ens.n_groups)) for name in observables}

    def record(self, ens: Ensemble) -> None:
        r = self.n
        self.times[r] = ens.time
        self.avg[r] = ens.average_state()
        self.trace[r] = ens.trace_estimate()
        self.total[r] = ens.total_count()
        self.distinct[r] = ens.distinct_state_count() if self.record_distinct else 0
        self.gcounts[r] = ens.group_counts()
        for name, op in self.observables.items():
            self.gobs[name][r] = ens.group_observable_sums(op) / ens.n_ref
        self.n += 1

    def result(self, ens: Ensemble) -> RunResult:
        return RunResult(
            times=self.times,
            average_states=self.avg,
            trace_estimates=self.trace,
            total_counts=self.total,
            distinct_counts=self.distinct,
            group_counts=self.gcounts,
            group_observables=self.gobs,
            n_ref=ens.n_ref,
            seed=ens.seed,
            n_groups=ens.n_groups,
            final_ensemble=ens,
        )


def _kernel_blocks(lanes, scheme, t, dt, spans):
    """The blocks of rows the kernels run on, as (step context, first row, end row).

    Each run of neighbouring lanes of two or more rows under one model object
    is one block, and a lane of one row is a block of its own: numpy
    multiplies a single row through gemv, whose last bit may differ from the
    same row inside a gemm. The step context is prepared once per model of the
    lanes with rows. A kernel may leave per-row data in its block's context
    (the rate-operator eigenvectors), so every block has a copy of its own.
    """
    contexts, blocks = {}, []  # blocks: [model, first row, end row]
    for lane, lo, hi in spans:
        model = lanes.models[lane]
        if id(model) not in contexts:
            contexts[id(model)] = scheme.prepare(model, t, dt)
        last = blocks[-1] if blocks else None
        if hi - lo > 1 and last and last[0] is model and last[2] - last[1] > 1:
            last[2] = hi
        else:
            blocks.append([model, lo, hi])
    return [(dict(contexts[id(model)]), lo, hi) for model, lo, hi in blocks]


def _advance_step(lanes, ens, scheme, t, dt, reverse_jumps, jump_mass_limit=JUMP_MASS_LIMIT):
    """Draw one outcome per realization and apply all of them at the barrier.

    ``lanes`` holds the rows and the model of every lane of the working
    ensemble ``ens``; each model is evaluated once for all its lanes. The
    kernels run once per block of rows (:func:`_kernel_blocks`). Each lane
    draws from the stream of its seed at its step counter: four uniforms per object
    (``batched_uniform_words``), then the multinomial fallbacks in object
    order. One ``binomial_inverse`` pass splits the counts of the objects of
    every lane.

    Returns the outcome counts per object, an (n, J + 3) array with columns
    [jumps per channel or branch | reverse jumps | vanish or replicate |
    deterministic]; each row sums to the object's multiplicity. None when the
    ensemble is empty.
    """
    n = ens.size
    if n == 0:
        return None
    states, mult = ens.states, ens.mult
    bounds = lanes.bounds(ens)
    spans = [(lane, lo, hi) for lane, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]
    blocks = _kernel_blocks(lanes, scheme, t, dt, spans)
    ctx = blocks[0][0]  # the guard tolerance of the scheme; a run with reverse jumps has one lane
    parts = [
        (scheme.jump_bins(c, states[lo:hi]), scheme.det_states(c, states[lo:hi]), scheme.x_values(c, states[lo:hi]))
        for c, lo, hi in blocks
    ]
    if len(parts) == 1:
        raw_bins, det_states, x = parts[0]  # (n, J) jump bins, possibly negative
    else:
        raw_bins, det_states, x = (np.concatenate(p) for p in zip(*parts))
    pd = np.maximum(0.0, -x * dt)
    pdc = pd + np.maximum(0.0, x * dt)

    neg_mask = raw_bins < ctx["negative_tol"]
    if neg_mask.any() and not reverse_jumps:
        i, b = (int(v) for v in np.argwhere(neg_mask)[0])
        where, at_step = lanes.locate(i, bounds)
        raise NegativeProbability(
            f"{where} (multiplicity {int(mult[i])}): jump branch {b} has negative probability "
            f"{raw_bins[i, b]:.3e} at step {at_step}, t = {t:.6g}; enable reverse jumps"
        )
    pos_bins = np.where(raw_bins < 0.0, 0.0, raw_bins)
    n_jump = pos_bins.shape[1]
    REV, DC, DET = n_jump, n_jump + 1, n_jump + 2

    # reverse-jump exits are shared by all objects of one snapshot state class:
    # per-realization probabilities and the snapshot rows they jump back to,
    # in the order the scheme lists them
    exits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    obj_class = np.full(n, -1, dtype=np.int64)
    rev_total = np.zeros(n)
    if reverse_jumps and neg_mask.any():
        uniq_keys, sources, uniq_counts, obj_class = _build_snapshot(states, mult)
        class_total = np.zeros(uniq_counts.shape[0])
        hosts, weights, targets = scheme.reverse_entries(ctx, uniq_keys, sources, uniq_counts, _match_keys)
        order = np.argsort(hosts, kind="stable")
        hosts, weights, targets = hosts[order], weights[order], targets[order]
        firsts = np.flatnonzero(np.diff(hosts, prepend=-1)).tolist()
        for lo, hi in zip(firsts, firsts[1:] + [hosts.size]):
            host = int(hosts[lo])
            probs = weights[lo:hi] / float(uniq_counts[host])
            exits[host] = (probs, targets[lo:hi])
            class_total[host] = probs.sum()
        rev_total = class_total[obj_class]

    jump_mass = pos_bins.sum(axis=1)
    pdet = 1.0 - jump_mass - rev_total - pdc  # residual deterministic weight

    event_mass = jump_mass + rev_total + pd
    i = int(np.argmax(event_mass))
    if event_mass[i] > jump_mass_limit:
        where, at_step = lanes.locate(i, bounds)
        raise StepTooLarge(
            f"jump+disappearance probability {event_mass[i]:.3g} exceeds {jump_mass_limit} at step "
            f"{at_step}, t = {t:.6g} for {_guard_detail(where, mult, i, pos_bins, rev_total, pd, pdc)}; reduce dt"
        )
    i = int(np.argmin(pdet))
    if pdet[i] < -1e-12:
        where, at_step = lanes.locate(i, bounds)
        raise StepTooLarge(
            f"outcome probabilities exceed 1 by {-pdet[i]:.3g} at step {at_step}, t = {t:.6g} "
            f"for {_guard_detail(where, mult, i, pos_bins, rev_total, pd, pdc)}; reduce dt"
        )

    counts = np.zeros((n, n_jump + 3), dtype=np.int64)
    rev_counts: dict[int, np.ndarray] = {}  # object -> reverse jumps per exit of its class

    def pick_exit(i, u, lo, scale):
        # a draw in the reverse bin [lo, lo + rev_total) picks its exit with the
        # same uniform against the sequential cumulative exit probabilities;
        # exits exist only with a negative channel, so REV >= 1 and lo is a jump edge
        probs = exits[int(obj_class[i])][0]
        edges = np.cumsum(np.concatenate([[lo], probs / scale]))[1:]
        e = min(int((u >= edges).sum()), probs.shape[0] - 1)
        rev_counts.setdefault(int(i), np.zeros(probs.shape[0], dtype=np.int64))[e] += 1

    # multiplicity m > 1: the number k of non-deterministic events is
    # Binomial(m, p_ev); up to three events take one categorical uniform each,
    # more events and large lumps fall back to a multinomial Generator
    u_parts, positions = [], {}
    for lane, lo, hi in spans:
        gen = make_generator(*lanes.step_keys[lane], lanes.steps[lane])
        u_parts.append(batched_uniform_words(mult[lo:hi], gen))
        if len(spans) > 1 and (mult[lo:hi] > 1).any():
            # where the lane's multinomial fallbacks continue; a lone drawing lane's stream stays there
            positions[lane] = stream_position()
    u0, u1, u2, u3 = u_parts[0] if len(u_parts) == 1 else (np.concatenate(w) for w in zip(*u_parts))
    k = np.zeros(n, dtype=np.int64)
    multi = np.flatnonzero(mult > 1)
    if multi.size:
        m = mult[multi]
        p_ev = jump_mass[multi] + rev_total[multi] + pdc[multi]
        small = m * p_ev <= 32.0
        k_multi = np.zeros(multi.size, dtype=np.int64)
        k_multi[small] = binomial_inverse(m[small], p_ev[small], u0[multi[small]])  # one pass for every lane
        counts[multi, DET] = m - k_multi
        k[multi] = k_multi
        resumed = -1
        for c in np.flatnonzero(~small | (k_multi > 3)):
            # each lane's multinomial fallbacks continue its stream, in lane and then object order
            i = int(multi[c])
            if positions:
                lane = int(np.searchsorted(bounds, i, side="right")) - 1
                if lane != resumed:
                    gen, resumed = resume_stream(positions[lane]), lane
            probs = exits.get(int(obj_class[i]), (np.zeros(0),))[0]
            ev = np.concatenate([pos_bins[i], probs, pdc[i : i + 1]])
            if small[c]:
                drawn = gen.multinomial(int(k_multi[c]), ev / ev.sum())
            else:
                pvec = np.append(ev, max(pdet[i], 0.0))
                drawn = gen.multinomial(int(m[c]), pvec / pvec.sum())
                counts[i, DET] = drawn[-1]
            r = probs.shape[0]
            counts[i, :REV] = drawn[:REV]
            counts[i, REV] = drawn[REV : REV + r].sum()
            counts[i, DC] = drawn[REV + r]
            if counts[i, REV]:
                rev_counts[i] = drawn[REV : REV + r]

    # multiplicity 1: one inverse-CDF pass over u0
    single = np.flatnonzero(mult == 1)
    if single.size:
        bins = np.concatenate(
            [pos_bins[single], rev_total[single, None], pdc[single, None], pdet[single, None]], axis=1
        )
        cum = np.cumsum(bins, axis=1)
        idx = np.minimum((u0[single, None] >= cum).sum(axis=1), DET)
        counts[single, idx] = 1
        for r in np.flatnonzero(idx == REV):
            pick_exit(single[r], u0[single[r]], cum[r, REV - 1], 1.0)

    # lumps of one to three events: one categorical uniform per event
    rows = np.flatnonzero((k >= 1) & (k <= 3))
    if rows.size:
        ev = np.concatenate([pos_bins[rows], rev_total[rows, None], pdc[rows, None]], axis=1)
        total = np.cumsum(ev, axis=1)[:, -1]
        acc = np.cumsum(ev / total[:, None], axis=1)
        for w, u in enumerate((u1, u2, u3)):
            sel = np.flatnonzero(k[rows] > w)
            idx = np.minimum((u[rows[sel], None] >= acc[sel]).sum(axis=1), DC)
            counts[rows[sel], idx] += 1
            for s in sel[idx == REV]:
                pick_exit(rows[s], u[rows[s]], acc[s, REV - 1], total[s])

    # -- apply outcomes at the barrier. New rows go to the end of their lane,
    # by parent, then jump branch, then reverse exit, then replication
    replicated = np.where(pd > 0.0, 0, counts[:, DC])
    parent, branch = np.nonzero(counts[:, :REV])
    targets = np.empty((parent.size, ens.dim), dtype=complex)
    cut = np.searchsorted(parent, [lo for _, lo, _ in blocks] + [n]).tolist()
    for (c, lo, hi), a, b in zip(blocks, cut[:-1], cut[1:]):
        if b > a:
            targets[a:b] = scheme.jump_target(c, states[lo:hi], parent[a:b] - lo, branch[a:b])
    spawned = [(parent, targets, counts[parent, branch])]  # (parents, states, counts) by kind
    for i in sorted(rev_counts):
        hit = np.flatnonzero(rev_counts[i])
        spawned.append((np.full(hit.size, i), sources[exits[int(obj_class[i])][1][hit]], rev_counts[i][hit]))
    copied = np.flatnonzero(replicated)  # replication: parents drift on, copies split off
    spawned.append((copied, det_states[copied], replicated[copied]))
    spawned = [part for part in spawned if part[0].size]

    ens.states = det_states
    ens.mult = counts[:, DET] + replicated
    if spawned:
        parents, new_states, new_counts = (np.concatenate(p) for p in zip(*spawned))
        if len(spawned) > 1:
            order = np.argsort(parents, kind="stable")
            parents, new_states, new_counts = parents[order], new_states[order], new_counts[order]
        ends = [int(np.count_nonzero(parents < b)) for b in bounds[1:-1]] + [parents.size]
        sizes = [hi - lo for lo, hi in zip([0] + ends, ends)]
        lanes.append(ens, bounds, sizes, new_states, new_counts, ens.group[parents])
    ens.drop_empty()
    # jumps and reverse jumps move realizations; only the vanish/replicate bin changes the total
    vanished = int(counts[pd > 0.0, DC].sum())
    _check_ledger(ens, int(mult.sum()) - vanished + int(replicated.sum()), "step", t)
    return counts


def _check_ledger(ens, expected, what, t):
    """CountLedgerError unless the ensemble's total count equals ``expected``."""
    total = int(ens.mult.sum())
    if total != expected:
        raise CountLedgerError(
            f"count ledger broken by the {what} at step {ens.steps}, t = {t:.6g}: total count {total}, "
            f"expected {expected}"
        )


def _guard_detail(where, mult, i, pos_bins, rev_total, pd, pdc):
    """Object i, its largest outcome branch and its event masses, for guard errors."""
    labels = [f"jump branch {b}" for b in range(pos_bins.shape[1])]
    labels += ["reverse", "disappearance", "replication"]
    mass = np.concatenate([pos_bins[i], [rev_total[i], pd[i], pdc[i] - pd[i]]]) + 0.0  # no "-0" in the text
    k = int(np.argmax(mass))
    rev, vanish, copy = mass[-3:]
    return (
        f"{where} (multiplicity {int(mult[i])}), largest mass {mass[k]:.3g} in {labels[k]} "
        f"(jump {mass[:-3].sum():.3g}, reverse {rev:.3g}, disappearance {vanish:.3g}, replication {copy:.3g})"
    )


def _source_spectra(model, grid, first):
    """Spectra of the sources of steps ``first`` to ``first + SOURCE_BLOCK - 1`` (or the grid's last),
    None for a model without a source.

    Each source is evaluated at its step's midpoint, which keeps the per-step
    creation quadrature at O(dt^2); the block is eigendecomposed in one call.
    """
    if model.source is None:
        return None
    s = np.stack([model.source_at(grid.time_at(k) + 0.5 * grid.dt)
                  for k in range(first, min(first + SOURCE_BLOCK, grid.n_steps))])
    return hermitian_eig(s, tol=1e-8 * np.maximum(1.0, np.abs(s).max(axis=(1, 2))))


def _apply_source(ens, lanes, eigs, t, dt):
    """Poisson creations in the eigenstates of the step's source, drawn per lane and
    put at the end of the lane. ``eigs`` holds the source spectrum of each lane,
    None for a lane without a source."""
    for lane, spectrum in enumerate(eigs):
        if spectrum is not None and float(spectrum.values.min()) < -NEG_SOURCE_TOL:
            where = f"lane {lane}: " if lanes.n > 1 else ""
            raise NegativeSource(
                f"{where}source eigenvalue {spectrum.values.min():.3e} below -{NEG_SOURCE_TOL} at t = {t:.6g}"
            )
    before = int(ens.mult.sum())
    rows = []  # (state, count, group)
    sizes = [0] * lanes.n  # created rows per lane
    for lane, (e, spectrum) in enumerate(zip(lanes.inputs, eigs)):
        if spectrum is None:
            continue
        vals = spectrum.values
        created = np.flatnonzero(vals > 0.0)
        # keyed by the lane's own step count, which a checkpoint carries across a resume
        gen = make_generator(*lanes.src_keys[lane], lanes.steps[lane])
        copies = gen.poisson(vals[created] * e.n_ref * dt)
        g0 = lanes.goff[lane]
        start = len(rows)
        for i, c in zip(created[copies > 0], copies[copies > 0]):
            state = spectrum.vectors[:, i]
            if e.n_groups == 1:
                rows.append((state, int(c), g0))
            else:
                split = gen.multinomial(c, np.full(e.n_groups, 1.0 / e.n_groups))
                rows += [(state, int(split[g]), g0 + int(g)) for g in np.flatnonzero(split)]
        sizes[lane] = len(rows) - start
    if rows:
        states, mult, group = zip(*rows)
        lanes.append(ens, lanes.bounds(ens), sizes, np.stack(states), mult, group)
    _check_ledger(ens, before + sum(c for _, c, _ in rows), "source", t)
