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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensemble import Ensemble, canonical_key_rows
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
from .rng import batched_uniform_words, binomial_inverse, make_generator, stream_key

JUMP_MASS_LIMIT = 0.1
STEP_STREAM_TAG = 0x5374657053747265  # stream_key tag of the per-step outcome stream
SOURCE_STREAM_TAG = 0x536F757263655454  # stream_key tag of the per-step source stream
NEG_SOURCE_TOL = 1e-6


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
    rows = canonical_key_rows(states)
    keys = _void_rows(rows)
    uniq_keys, first_idx, inverse = np.unique(keys, return_index=True, return_inverse=True)
    counts = np.zeros(uniq_keys.shape[0], dtype=np.int64)
    np.add.at(counts, inverse, mult)
    return uniq_keys, states[first_idx], counts, inverse


def _match_keys(uniq_keys: np.ndarray, candidate_states: np.ndarray) -> np.ndarray:
    """Index of each candidate's canonical key in uniq_keys, -1 when absent."""
    rows = canonical_key_rows(candidate_states)
    keys = _void_rows(rows)
    pos = np.searchsorted(uniq_keys, keys)
    pos = np.clip(pos, 0, uniq_keys.shape[0] - 1)
    found = uniq_keys[pos] == keys
    return np.where(found, pos, -1)


def run(
    model: TnpModel,
    ensemble: Ensemble,
    grid: TimeGrid,
    scheme,
    *,
    reverse_jumps: bool = False,
    record_every: int = 1,
    merge: Optional[bool] = None,
    observables: Optional[dict[str, np.ndarray]] = None,
    jump_mass_limit: float = JUMP_MASS_LIMIT,
    record_distinct: bool = True,
) -> RunResult:
    if abs(ensemble.time - grid.t0) > 1e-9:
        raise InvalidParameter(f"ensemble time {ensemble.time} != grid start {grid.t0}")
    if record_every < 1:
        raise InvalidParameter("record_every must be >= 1")
    if merge is None:
        merge = not reverse_jumps
    observables = observables or {}

    ens = ensemble.copy()
    dt = grid.dt
    seed = ens.seed
    step_key = stream_key(seed, STEP_STREAM_TAG)
    src_key = stream_key(seed, SOURCE_STREAM_TAG, 0)

    rec_times = []
    rec_avg = []
    rec_trace = []
    rec_total = []
    rec_distinct = []
    rec_gcounts = []
    rec_gobs = {name: [] for name in observables}

    def record():
        rec_times.append(ens.time)
        rec_avg.append(ens.average_state())
        rec_trace.append(ens.trace_estimate())
        rec_total.append(ens.total_count())
        rec_distinct.append(ens.distinct_state_count() if record_distinct else 0)
        rec_gcounts.append(ens.group_counts())
        for name, op in observables.items():
            rec_gobs[name].append(ens.group_observable_sums(op) / ens.n_ref)

    record()
    for step in range(grid.n_steps):
        t = grid.time_at(step)
        _advance_step(model, ens, scheme, t, dt, reverse_jumps, step_key, jump_mass_limit)
        _apply_source(model, ens, src_key, t, dt)
        ens.steps += 1
        if merge:
            ens._merge_in_place()
        ens.time = grid.time_at(step + 1)
        if (step + 1) % record_every == 0:
            record()

    return RunResult(
        times=np.array(rec_times),
        average_states=np.array(rec_avg) if rec_avg else np.zeros((0, ens.dim, ens.dim)),
        trace_estimates=np.array(rec_trace),
        total_counts=np.array(rec_total, dtype=np.int64),
        distinct_counts=np.array(rec_distinct, dtype=np.int64),
        group_counts=np.array(rec_gcounts, dtype=np.int64),
        group_observables={k: np.array(v) for k, v in rec_gobs.items()},
        n_ref=ens.n_ref,
        seed=seed,
        n_groups=ens.n_groups,
        final_ensemble=ens,
    )


def _advance_step(model, ens, scheme, t, dt, reverse_jumps, step_key, jump_mass_limit=JUMP_MASS_LIMIT):
    """Draw one outcome per realization and apply all of them at the barrier.

    The draws come from the stream of ``step_key`` at counter ``ens.steps``:
    four uniforms per object (``batched_uniform_words``), then the
    multinomial fallbacks in object order.

    Returns the outcome counts per object, an (n, J + 3) array with columns
    [jumps per channel or branch | reverse jumps | vanish or replicate |
    deterministic]; each row sums to the object's multiplicity. None when the
    ensemble is empty.
    """
    n = ens.size
    if n == 0:
        return None
    ctx = scheme.prepare(model, t, dt)
    states, mult = ens.states, ens.mult

    raw_bins = scheme.jump_bins(ctx, states)  # (n, J), possibly negative entries
    det_states = scheme.det_states(ctx, states)
    x = scheme.x_values(ctx, states)
    pd = np.maximum(0.0, -x * dt)
    pdc = pd + np.maximum(0.0, x * dt)

    neg_mask = raw_bins < scheme.negative_tol
    if neg_mask.any() and not reverse_jumps:
        i, b = (int(v) for v in np.argwhere(neg_mask)[0])
        raise NegativeProbability(
            f"object {i} (multiplicity {int(mult[i])}): jump branch {b} has negative probability "
            f"{raw_bins[i, b]:.3e} at step {ens.steps}, t = {t:.6g}; enable reverse jumps"
        )
    pos_bins = np.where(raw_bins < 0.0, 0.0, raw_bins)
    n_jump = pos_bins.shape[1]
    REV, DC, DET = n_jump, n_jump + 1, n_jump + 2

    # reverse-jump exits are shared by all objects of one snapshot state class:
    # per-realization probabilities and the snapshot rows they jump back to
    exits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    obj_class = np.full(n, -1, dtype=np.int64)
    rev_total = np.zeros(n)
    if reverse_jumps and neg_mask.any():
        uniq_keys, sources, uniq_counts, obj_class = _build_snapshot(states, mult)
        class_total = np.zeros(uniq_counts.shape[0])
        entries = scheme.reverse_entries(ctx, uniq_keys, sources, uniq_counts, _match_keys)
        for host, host_exits in entries.items():
            probs = np.array([w for (w, _, _) in host_exits]) / float(uniq_counts[host])
            exits[host] = (probs, np.array([v for (_, v, _) in host_exits], dtype=np.int64))
            class_total[host] = probs.sum()
        rev_total = class_total[obj_class]

    jump_mass = pos_bins.sum(axis=1)
    pdet = 1.0 - jump_mass - rev_total - pdc  # residual deterministic weight

    event_mass = jump_mass + rev_total + pd
    i = int(np.argmax(event_mass))
    if event_mass[i] > jump_mass_limit:
        raise StepTooLarge(
            f"jump+disappearance probability {event_mass[i]:.3g} exceeds {jump_mass_limit} at step "
            f"{ens.steps}, t = {t:.6g} for {_guard_detail(mult, i, pos_bins, rev_total, pd, pdc)}; reduce dt"
        )
    i = int(np.argmin(pdet))
    if pdet[i] < -1e-12:
        raise StepTooLarge(
            f"outcome probabilities exceed 1 by {-pdet[i]:.3g} at step {ens.steps}, t = {t:.6g} "
            f"for {_guard_detail(mult, i, pos_bins, rev_total, pd, pdc)}; reduce dt"
        )

    gen = make_generator(step_key[0], step_key[1], ens.steps)
    u0, u1, u2, u3 = batched_uniform_words(mult, gen)
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

    # multiplicity m > 1: the number k of non-deterministic events is
    # Binomial(m, p_ev); up to three events take one categorical uniform each,
    # more events and large lumps fall back to a multinomial Generator
    multi = np.flatnonzero(mult > 1)
    if multi.size:
        m = mult[multi]
        p_ev = jump_mass[multi] + rev_total[multi] + pdc[multi]
        small = m * p_ev <= 32.0
        k = np.zeros(multi.size, dtype=np.int64)
        k[small] = binomial_inverse(m[small], p_ev[small], u0[multi[small]])
        counts[multi, DET] = m - k

        cat = np.flatnonzero(small & (k >= 1) & (k <= 3))
        if cat.size:
            rows = multi[cat]
            ev = np.concatenate([pos_bins[rows], rev_total[rows, None], pdc[rows, None]], axis=1)
            total = np.cumsum(ev, axis=1)[:, -1]
            acc = np.cumsum(ev / total[:, None], axis=1)
            for w, u in enumerate((u1, u2, u3)):
                sel = np.flatnonzero(k[cat] > w)
                idx = np.minimum((u[rows[sel], None] >= acc[sel]).sum(axis=1), DC)
                counts[rows[sel], idx] += 1
                for s in sel[idx == REV]:
                    pick_exit(rows[s], u[rows[s]], acc[s, REV - 1], total[s])

        for c in np.flatnonzero(~small | (k > 3)):
            i = int(multi[c])
            probs = exits.get(int(obj_class[i]), (np.zeros(0),))[0]
            ev = np.concatenate([pos_bins[i], probs, pdc[i : i + 1]])
            if small[c]:
                drawn = gen.multinomial(int(k[c]), ev / ev.sum())
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

    # -- apply outcomes at the barrier; new objects are spawned in object order
    replicated = np.where(pd > 0.0, 0, counts[:, DC])
    spawns: list[tuple[int, np.ndarray, int]] = []  # (parent, state, count)
    for i in np.flatnonzero((counts[:, :DET] > 0).any(axis=1)):
        spawns += [(i, scheme.jump_target(ctx, states, i, int(b)), counts[i, b])
                   for b in np.flatnonzero(counts[i, :REV])]
        if i in rev_counts:
            targets = exits[int(obj_class[i])][1]
            spawns += [(i, sources[targets[e]], rev_counts[i][e]) for e in np.flatnonzero(rev_counts[i])]
        if replicated[i]:
            # replication: parents continue deterministically, copies split off
            spawns.append((i, det_states[i], replicated[i]))

    ens.states = det_states
    ens.mult = counts[:, DET] + replicated
    if spawns:
        parents = [parent for parent, _, _ in spawns]
        ens._append_rows(np.stack([state for _, state, _ in spawns]), [int(c) for _, _, c in spawns],
                         ens.group[parents])
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


def _guard_detail(mult, i, pos_bins, rev_total, pd, pdc):
    """Object i, its largest outcome branch and its event masses, for guard errors."""
    labels = [f"jump branch {b}" for b in range(pos_bins.shape[1])]
    labels += ["reverse", "disappearance", "replication"]
    mass = np.concatenate([pos_bins[i], [rev_total[i], pd[i], pdc[i] - pd[i]]]) + 0.0  # no "-0" in the text
    k = int(np.argmax(mass))
    rev, vanish, copy = mass[-3:]
    return (
        f"object {i} (multiplicity {int(mult[i])}), largest mass {mass[k]:.3g} in {labels[k]} "
        f"(jump {mass[:-3].sum():.3g}, reverse {rev:.3g}, disappearance {vanish:.3g}, replication {copy:.3g})"
    )


def _apply_source(model, ens, src_key, t, dt):
    # midpoint evaluation keeps the per-step creation quadrature at O(dt^2)
    s = model.source_at(t + 0.5 * dt)
    if s is None:
        return
    eig = hermitian_eig(s, tol=1e-8 * max(1.0, float(np.abs(s).max())))
    vals = eig.values
    if float(vals.min()) < -NEG_SOURCE_TOL:
        raise NegativeSource(f"source eigenvalue {vals.min():.3e} below -{NEG_SOURCE_TOL} at t = {t:.6g}")
    vals = np.maximum(vals, 0.0)
    # keyed by the ensemble's own step count, which a checkpoint carries across a resume
    gen = make_generator(src_key[0], src_key[1], ens.steps)
    before = int(ens.mult.sum())
    rows = []
    for i in range(vals.shape[0]):
        if vals[i] <= 0.0:
            continue
        copies = int(gen.poisson(vals[i] * ens.n_ref * dt))
        if copies == 0:
            continue
        state = eig.vectors[:, i]
        if ens.n_groups == 1:
            rows.append((state, copies, 0))
        else:
            split = gen.multinomial(copies, np.full(ens.n_groups, 1.0 / ens.n_groups))
            for g in np.flatnonzero(split):
                rows.append((state, int(split[g]), int(g)))
    ens._append_members(rows)
    _check_ledger(ens, before + sum(c for _, c, _ in rows), "source", t)
