"""The benchmark's tracer wraps package functions by module and attribute name.

A renamed or deleted function that ``bench/tracer.py`` patches makes every
traced benchmark run die in ``Tracer.install``, before any operation runs, so
the names are checked here with the rest of the suite.
"""

from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls_over_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    tn = workloads.import_tnpmc()
    t = tracer.Tracer()
    try:
        t.install(tn)
        patched = list(t._patched)
        assert patched
        # one short traced run per scheme passes through the wrappers' argument hooks
        p = tn.model.pauli_ops()
        model = tn.model.TnpModel(dim=2, hamiltonian=0.5 * p.x, channels=(tn.model.JumpChannel(1.0, p.minus),),
                                  gamma=np.eye(2, dtype=complex))
        ket1 = np.array([0.0, 1.0], dtype=complex)
        grid = tn.exact.TimeGrid(0.0, 0.05, 1e-2)
        for runner in (tn.mcwf.run, tn.ro.run):
            runner(model, tn.ensemble.Ensemble.sample_initial([(1.0, ket1)], 50, seed=1), grid)
        metrics = t.collect()
        assert metrics["engine.steps"] == 2 * grid.n_steps
        assert metrics["mcwf.kernel_rows"] > 0 and metrics["ro.kernel_rows"] > 0
        # one step stream per step: every object's uniforms come from one batched draw
        objects = metrics["ensemble.objects_per_step"] * metrics["engine.steps"]
        assert metrics["rng.uniform_lanes"] == round(objects) > 0
        assert metrics["rng.generator_calls"] == metrics["engine.steps"]  # the model has no source

        # the map oracle integrates its whole operator basis in one RK4 run,
        # evaluating the generator at the 2n + 1 times of an n-step grid (start,
        # then each step's midpoint and end), inside one traced report
        t.reset()
        model.generator_at(0.0)(np.zeros((4, 2, 2), dtype=complex))
        evals_per_time = t.collect()["model.eval_calls"]
        t.reset()
        tn.divisibility.divisibility_report(model, grid)
        metrics = t.collect()
        sp = t.spans()
        spans = {name: int((sp["layer"] == i).sum()) for i, name in enumerate(sp["layer_names"])}
        assert spans["exact.integrate"] == spans["exact.propagate_map"] == spans["divisibility.report"] == 1
        assert metrics["exact.rk4_steps"] == grid.n_steps
        assert metrics["model.eval_calls"] == (2 * grid.n_steps + 1) * evals_per_time
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner!r}.{attr} still wrapped"


def test_a_traced_run_of_three_lanes_counts_one_step_per_time_step(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    tn = workloads.import_tnpmc()
    p = tn.model.pauli_ops()
    model = tn.model.TnpModel(dim=2, hamiltonian=0.5 * p.x, channels=(tn.model.JumpChannel(1.0, p.minus),),
                              gamma=np.eye(2, dtype=complex))
    ket1 = np.array([0.0, 1.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    lanes = [tn.ensemble.Ensemble.sample_initial([(1.0, ket1)], 80, seed=1, n_groups=4),
             tn.ensemble.Ensemble.sample_initial([(1.0, plus)], 1, seed=2),
             tn.ensemble.Ensemble.sample_initial([(0.5, ket1), (0.5, plus)], 40, seed=3, n_groups=2)]
    grid = tn.exact.TimeGrid(0.0, 0.1, 1e-2)
    t = tracer.Tracer()
    try:
        t.install(tn)
        results = tn.mcwf.run(model, lanes, grid)
        metrics = t.collect()
    finally:
        t.uninstall()
    assert len(results) == 3
    # one engine step per time step advances every lane
    assert metrics["engine.steps"] == grid.n_steps
    objects = metrics["ensemble.objects_per_step"] * metrics["engine.steps"]
    assert metrics["rng.uniform_lanes"] == round(objects) > 0
    # one step stream per lane and step; the model has no source
    assert metrics["rng.generator_calls"] == 3 * metrics["engine.steps"]
    appended = sum(res.final_ensemble.next_id - ens.next_id for res, ens in zip(results, lanes))
    assert metrics["engine.spawned_rows"] == appended > 0


def test_a_traced_run_of_lanes_with_multinomial_fallbacks_opens_one_stream_per_lane_and_step(monkeypatch):
    # a lump with m * p > 32 falls back to the multinomial at every step, and
    # objects of 400 draw more than three events now and then; each lane's
    # fallbacks continue its stream without opening it again
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    tn = workloads.import_tnpmc()
    p = tn.model.pauli_ops()
    model = tn.model.TnpModel(dim=2, hamiltonian=0.5 * p.x, channels=(tn.model.JumpChannel(1.0, p.minus),),
                              gamma=np.eye(2, dtype=complex))
    ket1 = np.array([0.0, 1.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    lanes = [tn.ensemble.Ensemble.sample_initial([(0.5, ket1), (0.5, plus)], 800, seed=4),
             tn.ensemble.Ensemble.sample_initial([(1.0, ket1)], 5000, seed=5),
             tn.ensemble.Ensemble.sample_initial([(1.0, plus)], 30, seed=6, n_groups=3)]
    grid = tn.exact.TimeGrid(0.0, 0.1, 1e-2)
    t = tracer.Tracer()
    try:
        t.install(tn)
        tn.mcwf.run(model, lanes, grid)
        metrics = t.collect()
        sp = t.spans()
    finally:
        t.uninstall()
    assert metrics["engine.steps"] == grid.n_steps
    assert metrics["rng.generator_calls"] == 3 * metrics["engine.steps"]
    # one binomial pass per step splits the objects of every lane
    binomial = list(sp["layer_names"]).index("rng.binomial")
    assert int((sp["layer"] == binomial).sum()) == metrics["engine.steps"]
