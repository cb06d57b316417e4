"""Several ensembles sharing one grid, and one model or one model each, advance
as lanes of one engine run; every lane's result is byte-identical to a
separate run of its ensemble under its model."""

import numpy as np
import pytest

from tnpmc import Ensemble, JumpChannel, TimeGrid, TnpModel, mcwf, pauli_ops, ro
from tnpmc.errors import InvalidParameter, NegativeProbability, NegativeSource, StepTooLarge
from tnpmc.model import SourceTerm
from tnpmc.rng import binomial_inverse

from helpers import StepTable, first_uniforms, random_state, random_tnp_model

P = pauli_ops()
PROJ0 = P.minus @ P.plus
PROJ1 = P.plus @ P.minus
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
RESULT_ARRAYS = ("times", "average_states", "trace_estimates", "total_counts", "distinct_counts", "group_counts")
HEADER = ("dim", "n_ref", "seed", "time", "n_groups", "next_id", "steps")


def assert_same_bytes(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), what


def assert_same_result(joint, alone):
    for name in RESULT_ARRAYS:
        assert_same_bytes(getattr(joint, name), getattr(alone, name), name)
    assert joint.group_observables.keys() == alone.group_observables.keys()
    for name in alone.group_observables:
        assert_same_bytes(joint.group_observables[name], alone.group_observables[name], name)
    assert (joint.n_ref, joint.seed, joint.n_groups) == (alone.n_ref, alone.seed, alone.n_groups)
    for name in Ensemble._FIELDS:
        assert_same_bytes(getattr(joint.final_ensemble, name), getattr(alone.final_ensemble, name), name)
    for name in HEADER:
        assert getattr(joint.final_ensemble, name) == getattr(alone.final_ensemble, name), name


def run_as_lanes(runner, model, ensembles, grid, **options):
    """Run the ensembles as lanes and each on its own, under the shared model or
    under one model each (``model`` a list); every result must agree byte for byte."""
    models = model if isinstance(model, list) else [model] * len(ensembles)
    before = [e.copy() for e in ensembles]
    joint = runner(model, ensembles, grid, **options)
    assert isinstance(joint, list) and len(joint) == len(ensembles)
    for ens, kept, lane_model, res in zip(ensembles, before, models, joint):
        for name in Ensemble._FIELDS:  # the inputs are left as they were
            assert_same_bytes(getattr(ens, name), getattr(kept, name), name)
        assert_same_result(res, runner(lane_model, ens, grid, **options))
    return joint


def one_object(state, mult, seed, n_ref=None):
    ens = Ensemble.empty(len(state), n_ref=n_ref or mult, seed=seed)
    ens._append_members([(state, mult, 0)])
    return ens


def branching_model(shift=(40.0, -1.0), source=None):
    """Decay, pumping and Gamma = Gamma_L + diag(shift): with the default shift
    states near |0> vanish fast and states near |1> replicate."""
    return TnpModel(
        dim=2, hamiltonian=0.3 * P.x,
        channels=(JumpChannel(1.5, P.minus, "decay"), JumpChannel(0.5, P.plus, "pump")),
        gamma=lambda t: 1.5 * PROJ1 + 0.5 * PROJ0 + np.diag(shift),
        source=source,
    )


def rotating_source(weight, freq, phase):
    """A positive source term whose main eigenvector turns with time."""
    def source(t):
        psi = np.array([np.cos(freq * t), np.sin(freq * t) * np.exp(1j * phase)])
        return weight * np.outer(psi, psi.conj()) + 0.2 * weight * PROJ0

    return SourceTerm(source)


@pytest.mark.parametrize("runner", [mcwf.run, ro.run])
def test_lanes_match_separate_runs(runner):
    model = branching_model()
    grid = TimeGrid(0.0, 0.3, 2e-3)
    ensembles = [
        Ensemble.sample_initial([(0.7, KET1), (0.3, PLUS)], 300, seed=11, n_groups=3),
        one_object(KET1, 1, seed=12),  # one object of one realization: one-row kernels
        one_object(KET0, 3, seed=13),  # vanishes within a few steps
        one_object(KET1, 10_000, seed=14, n_ref=3000),  # m * p > 32: the multinomial fallback
        Ensemble.sample_initial([(1.0, PLUS)], 50, seed=15, n_groups=5),
    ]
    joint = run_as_lanes(runner, model, ensembles, grid, record_every=7, observables={"z": P.z, "x": P.x})
    assert joint[2].total_counts[0] == 3 and joint[2].final_ensemble.size == 0
    assert joint[2].total_counts[-1] == 0
    assert joint[3].final_ensemble.size > 1  # the lump split
    assert joint[1].times.shape == (grid.n_steps // 7 + 1,)


@pytest.mark.parametrize("dim, seed", [(2, 0), (3, 1), (3, 2), (6, 3)])
def test_lanes_of_random_models_match_separate_runs(dim, seed):
    # one-row and two-row lanes next to larger ones: a matmul of one row may
    # differ in the last bit from the same row inside a block
    rng = np.random.default_rng(seed)
    model = random_tnp_model(rng, dim)
    ensembles = [one_object(random_state(rng, dim), 1, seed=seed * 10 + k) for k in range(3)]
    ensembles.append(Ensemble.sample_initial([(1.0, random_state(rng, dim)), (1.0, random_state(rng, dim))], 2,
                                             seed=seed * 10 + 3))
    ensembles.append(Ensemble.sample_initial([(1.0, random_state(rng, dim))], 200, seed=seed * 10 + 4, n_groups=4))
    run_as_lanes(mcwf.run, model, ensembles, TimeGrid(0.0, 0.2, 1e-2), observables={"h": model.hamiltonian_at(0.0)})


@pytest.mark.parametrize("runner", [mcwf.run, ro.run])
@pytest.mark.parametrize("dim", [2, 3])
def test_one_row_lanes_between_multi_row_lanes_match_separate_runs(runner, dim):
    # neighbouring multi-row lanes share their kernel calls; a one-row lane
    # between them keeps its own, so every lane's rows stay byte-identical
    rng = np.random.default_rng(90 + dim)
    if dim == 2:
        model, grid = branching_model(), TimeGrid(0.0, 0.2, 2e-3)
        states = [KET1, PLUS, KET0, KET1]
    else:
        model, grid = random_tnp_model(rng, 3), TimeGrid(0.0, 0.3, 1e-2)
        states = [random_state(rng, 3) for _ in range(4)]
    ensembles = [
        Ensemble.sample_initial([(0.6, states[0]), (0.4, states[1])], 300, seed=81, n_groups=3),
        one_object(states[2], 1, seed=82),
        Ensemble.sample_initial([(1.0, states[1]), (1.0, states[3])], 2, seed=83),
        Ensemble.sample_initial([(1.0, states[3])], 100, seed=84, n_groups=2),
        one_object(states[0], 1, seed=85),
        one_object(states[3], 1, seed=86),
        Ensemble.sample_initial([(0.5, states[2]), (0.5, states[0])], 50, seed=87),
    ]
    run_as_lanes(runner, model, ensembles, grid, record_every=5, observables={"z": np.diag(np.arange(dim) + 0j)})


@pytest.mark.parametrize("runner, scheme", [(mcwf.run, mcwf.McwfScheme()), (ro.run, ro.RoScheme())])
def test_two_lanes_fall_back_to_the_multinomial_in_one_step(runner, scheme):
    # in the first step the object of lane 0 draws more than three events from
    # its binomial and the lump of lane 2 has m * p > 32: both fall back to the
    # multinomial, each continuing its own lane's stream after its uniforms
    model, dt = branching_model(), 2e-3
    table = StepTable(scheme, model, KET1, 0.0, dt)
    p_ev = table.bins[0].sum() + table.p_d[0] + table.p_c[0]
    seeds = np.arange(500)
    k = binomial_inverse(np.full(seeds.size, 600), np.full(seeds.size, p_ev), first_uniforms(seeds))
    seed = int(seeds[np.flatnonzero(k > 3)[0]])
    assert 600 * p_ev <= 32.0 < 10_000 * p_ev
    ensembles = [
        one_object(KET1, 600, seed=seed),
        Ensemble.sample_initial([(0.5, KET1), (0.5, PLUS)], 400, seed=92, n_groups=2),
        one_object(KET1, 10_000, seed=93, n_ref=3000),
    ]
    ensembles[0]._append_members([(PLUS, 40, 0)])  # a second object after the fallback one
    for grid in (TimeGrid(0.0, dt, dt), TimeGrid(0.0, 30 * dt, dt)):
        joint = run_as_lanes(runner, model, ensembles, grid)
    assert joint[0].final_ensemble.size > 2 and joint[2].final_ensemble.size > 1


def test_lanes_with_a_source_match_separate_runs():
    # creations land at the end of their lane, in its groups, with its ids,
    # in an empty lane as well
    def source(t):
        psi = np.array([np.cos(2.0 * t), np.sin(2.0 * t) * np.exp(0.5j)])
        return 0.8 * np.outer(psi, psi.conj()) + 0.3 * PROJ0

    model = TnpModel(dim=2, hamiltonian=0.5 * P.x, channels=(JumpChannel(1.0, P.minus),),
                     gamma=lambda t: PROJ1 + 0.4 * np.eye(2), source=SourceTerm(source))
    ensembles = [
        Ensemble.sample_initial([(1.0, PLUS)], 300, seed=21, n_groups=3),
        Ensemble.empty(2, n_ref=100, seed=22, n_groups=2),
        one_object(KET1, 1, seed=23, n_ref=50),
    ]
    ensembles[2].steps = 7  # as resumed from a checkpoint: its streams start at step 7
    joint = run_as_lanes(mcwf.run, model, ensembles, TimeGrid(0.0, 0.4, 1e-2), record_every=4)
    assert joint[1].final_ensemble.size > 0


def test_lanes_resume_from_their_own_step_counters():
    # lanes carry their own step and id counters, as after a checkpoint
    model = branching_model()
    grid = TimeGrid(0.0, 0.1, 2e-3)
    first = mcwf.run(model, Ensemble.sample_initial([(1.0, PLUS)], 200, seed=31), grid).final_ensemble
    first.time = 0.0
    run_as_lanes(mcwf.run, model, [first, Ensemble.sample_initial([(1.0, KET1)], 100, seed=32)], grid)


def test_one_lane_in_a_list_is_the_plain_run():
    model = branching_model()
    ens = Ensemble.sample_initial([(1.0, PLUS)], 200, seed=41, n_groups=2)
    grid = TimeGrid(0.0, 0.1, 2e-3)
    (res,) = run_as_lanes(ro.run, model, [ens], grid)
    assert_same_result(res, ro.run(model, ens, grid))


def test_lanes_reject_reverse_jumps_and_mixed_dimensions():
    model = branching_model()
    grid = TimeGrid(0.0, 0.1, 1e-2)
    two = [Ensemble.sample_initial([(1.0, PLUS)], 10, seed=s) for s in (1, 2)]
    with pytest.raises(InvalidParameter, match="reverse jumps"):
        mcwf.run(model, two, grid, reverse_jumps=True)
    with pytest.raises(InvalidParameter, match="no ensemble"):
        mcwf.run(model, [], grid)
    qutrit = Ensemble.sample_initial([(1.0, np.array([1.0, 0.0, 0.0]))], 10, seed=3)
    with pytest.raises(InvalidParameter, match="one dimension"):
        mcwf.run(model, [two[0], qutrit], grid)


def test_a_failing_lane_is_named():
    # sigma_- at a negative rate: |0> has no jump, so the first lane runs;
    # the second object of the second lane has a negative jump probability
    model = TnpModel(dim=2, hamiltonian=np.zeros((2, 2)), channels=(JumpChannel(-0.1, P.minus),),
                     gamma=lambda t: -0.1 * PROJ1)
    grid = TimeGrid(0.0, 0.1, 1e-2)
    lanes = [one_object(KET0, 5, seed=1), Ensemble.empty(2, n_ref=5, seed=2)]
    lanes[1]._append_members([(KET0, 2, 0), (KET1, 3, 0)])
    with pytest.raises(NegativeProbability, match=r"^lane 1 object 1 \(multiplicity 3\): jump branch 0 .* at step 0,"):
        mcwf.run(model, lanes, grid)
    with pytest.raises(NegativeProbability, match=r"^object 1 \(multiplicity 3\): jump branch 0 .* at step 0,"):
        mcwf.run(model, lanes[1], grid)
    # the step-size guard names the lane and the lane's own step counter
    fast = branching_model()
    lanes = [one_object(KET1, 5, seed=3), one_object(KET0, 5, seed=4)]
    lanes[1].steps = 9
    with pytest.raises(StepTooLarge, match=r"at step 9, t = 0 for lane 1 object 0 \(multiplicity 5\)"):
        mcwf.run(fast, lanes, TimeGrid(0.0, 0.1, 1e-2))


@pytest.mark.parametrize("runner", [mcwf.run, ro.run])
def test_lanes_of_their_own_models_match_separate_runs(runner):
    # Gamma differs per lane, so lanes vanish, replicate or keep their trace;
    # sources differ, one lane has none, and lanes start empty or with one object
    models = [
        branching_model((-1.0, -1.0)),  # every state replicates
        branching_model((-2.0, 3.0), source=rotating_source(0.8, 2.0, 0.5)),
        branching_model((0.0, 0.0), source=rotating_source(0.3, -3.0, 1.1)),  # trace preserving, with a source
        branching_model((40.0, -1.0)),  # |0> vanishes fast
        branching_model((1.0, 1.0), source=rotating_source(1.5, 1.0, 0.0)),
    ]
    ensembles = [
        Ensemble.sample_initial([(0.7, KET1), (0.3, PLUS)], 300, seed=51, n_groups=3),
        Ensemble.empty(2, n_ref=200, seed=52, n_groups=2),
        one_object(KET1, 1, seed=53, n_ref=40),  # one-row kernels
        one_object(KET0, 3, seed=54),  # vanishes within a few steps
        Ensemble.empty(2, n_ref=100, seed=55),
    ]
    joint = run_as_lanes(runner, models, ensembles, TimeGrid(0.0, 0.3, 2e-3), record_every=7,
                         observables={"z": P.z})
    assert joint[0].total_counts[-1] > joint[0].total_counts[0]
    assert joint[3].total_counts[-1] == 0 < joint[3].total_counts[0]
    assert joint[1].final_ensemble.size > 0 and joint[4].final_ensemble.size > 0  # created from empty
    assert joint[2].total_counts[-1] > joint[2].total_counts[0]


def test_one_model_per_lane_equals_the_shared_model():
    # a list of one model object is the shared-model run, context and all
    model = branching_model()
    ensembles = [Ensemble.sample_initial([(1.0, PLUS)], 100, seed=s, n_groups=2) for s in (61, 62)]
    grid = TimeGrid(0.0, 0.1, 2e-3)
    for joint, shared in zip(mcwf.run([model, model], ensembles, grid), mcwf.run(model, ensembles, grid)):
        assert_same_result(joint, shared)


def test_lanes_reject_a_wrong_model_count():
    ensembles = [Ensemble.sample_initial([(1.0, PLUS)], 10, seed=s) for s in (1, 2)]
    grid = TimeGrid(0.0, 0.1, 1e-2)
    for models in ([branching_model()], [branching_model()] * 3):
        with pytest.raises(InvalidParameter, match=f"{len(models)} models for 2 ensembles"):
            mcwf.run(models, ensembles, grid)
    qutrit = TnpModel(dim=3, hamiltonian=np.zeros((3, 3)), channels=())
    with pytest.raises(InvalidParameter, match="one dimension"):
        mcwf.run([branching_model(), qutrit], ensembles, grid)


def test_a_negative_source_names_its_lane():
    def turning(t):
        return np.outer(KET0, KET0.conj()) * (1.0 if t < 0.05 else -1.0)

    models = [branching_model((0.0, 0.0), source=rotating_source(0.5, 1.0, 0.0)),
              branching_model((0.0, 0.0), source=SourceTerm(turning))]
    ensembles = [Ensemble.empty(2, n_ref=50, seed=s) for s in (71, 72)]
    with pytest.raises(NegativeSource, match=r"^lane 1: source eigenvalue -1\.000e\+00 below -1e-06 at t = 0\.05$"):
        mcwf.run(models, ensembles, TimeGrid(0.0, 0.1, 1e-2))
    with pytest.raises(NegativeSource, match=r"^source eigenvalue -1\.000e\+00 below -1e-06 at t = 0\.05$"):
        mcwf.run(models[1], ensembles[1], TimeGrid(0.0, 0.1, 1e-2))
