"""Pinned weights and the all-states tie-break.

`kept_features` keeps the features whose weights the potential models have
columns for; the others are pinned, reported as 0.  The rule is checked
against its definition: over all syntactic states, the truth matrix of the
kept features has the rank of the full one, so both express the same
potentials.  Solved models are checked against the same models over every
feature (built by `reference_builders`), the CLI's output and model against
the full feature set, and the tie-broken weights that `solve_for_state`
hands to search against the explicit-state validator.
"""

import itertools
import json
import math
import os
import random

import numpy as np
import pytest

from potplan import direct2d
from potplan.cli import main
from potplan.direct2d import (all_states_objective, build_direct2d_lp, build_exhaustive_lp,
                              build_general_lp, extract_result, solve_for_state,
                              state_objective)
from potplan.features import Feature, FeatureSet, generate_features, kept_features, truth_matrix
from potplan.generator import random_task
from potplan.lp import LpModel, export_lp, solve
from potplan.search import PotentialHeuristic, validate
from potplan.task import (build_transition_system, exact_goal_distances, parse_sas,
                          serialize_sas, state_index)

from conftest import make_alias_task, make_toy1
from reference_builders import (format_feature, iter_states, parse_lp, random_features,
                                reference_exhaustive_model, reference_general_model,
                                weight_var_name)

DATA = os.path.join(os.path.dirname(__file__), "data")
COMPACT_502_1 = os.path.join(DATA, "compact_502_1.sas")


def compact_502_1():
    with open(COMPACT_502_1, encoding="utf-8") as f:
        return parse_sas(f.read())


def pinned(fs, domain_sizes):
    """Indices of the features `kept_features` leaves out."""
    return sorted(set(range(len(fs))) - set(kept_features(fs, domain_sizes)[1].tolist()))


def conjunctions(task, dimension):
    """Every conjunction of 1..dimension facts over distinct variables."""
    out = []
    for size in range(1, dimension + 1):
        for scope in itertools.combinations(range(len(task.variables)), size):
            for values in itertools.product(*(range(task.variables[v].domain_size)
                                              for v in scope)):
                out.append(Feature(tuple(zip(scope, values))))
    return out


def random_subset(task, dimension, seed, keep):
    """A random share `keep` of all conjunctions up to the dimension, so that
    some families of a pin rule are complete and others are not."""
    rng = random.Random(f"subset:{seed}:{dimension}")
    return FeatureSet.of(tuple(f for f in conjunctions(task, dimension) if rng.random() < keep))


def feature_sets(task, dimension, seed):
    sets = [random_features(task, 30, dimension, seed),
            random_subset(task, dimension, seed, 0.5), random_subset(task, dimension, seed, 0.9)]
    if dimension <= 2:
        sets.append(generate_features(task, dimension))
    else:
        sets.append(FeatureSet.of(tuple(conjunctions(task, 3))))
    return sets


def rank(task, fs, columns):
    states = np.array(list(iter_states(task.domain_sizes)), dtype=np.int64)
    return np.linalg.matrix_rank(truth_matrix(fs, states)[:, columns].astype(float))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_kept_features_span_all_potentials(seed, dimension):
    task = random_task(4, 3, 6, seed)
    pinned_total = 0
    for fs in feature_sets(task, dimension, seed):
        kept = kept_features(fs, task.domain_sizes)[1].tolist()
        assert rank(task, fs, kept) == rank(task, fs, list(range(len(fs))))
        pinned_total += len(fs) - len(kept)
    assert pinned_total > 0


def test_pin_counts_on_a_ten_variable_task():
    """Domain 3 everywhere: at dimension 2 every feature with a value-0 fact
    is pinned except the anchor's atom; over atoms plus triples only the
    value-0 atoms of the other variables."""
    task = compact_502_1()
    fs = generate_features(task, 2)
    left_out = pinned(fs, task.domain_sizes)
    assert (len(left_out), len(fs)) == (234, 435)
    assert [i for i, f in enumerate(fs.features)
            if i not in left_out and any(val == 0 for _, val in f.facts)] == [0]
    atoms = [f for f in fs.features if f.size == 1]
    triples = [Feature(((0, 0), (1, 0), (2, 0))), Feature(((3, 0), (5, 1), (9, 0)))]
    fs = FeatureSet.of(tuple(atoms + triples))
    assert [fs.features[i].facts for i in pinned(fs, task.domain_sizes)] == \
        [((v, 0),) for v in range(1, 10)]


def test_no_anchor_pins_no_atom():
    """Without a variable whose atoms are all present the constant is not
    expressible, so no atom is pinned; a pair whose family is complete is."""
    task = make_toy1()
    fs = FeatureSet.of((Feature(((0, 0),)), Feature(((1, 1),)), Feature(((0, 0), (1, 0))),
                        Feature(((0, 0), (1, 1)))))
    assert pinned(fs, task.domain_sizes) == [2]
    task, fs = make_alias_task()
    assert pinned(fs, task.domain_sizes) == []


def assert_computed_once(task, fs):
    """The kept set has the features at its indices, in `fs`'s order;
    asked again, the same objects."""
    kept, index = kept_features(fs, task.domain_sizes)
    assert index.tolist() == sorted(set(index.tolist()))
    assert kept.features == tuple(fs.features[i] for i in index.tolist())
    assert kept_features(fs, task.domain_sizes)[0] is kept
    assert kept_features(fs, task.domain_sizes)[1] is index
    return kept


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_kept_set_is_computed_once(dimension):
    task = random_task(4, 3, 6, dimension)
    for fs in feature_sets(task, dimension, dimension):
        assert_computed_once(task, fs)


def test_kept_set_below_the_dimension_of_its_set():
    """The pair with the domain-1 variable b is pinned, so the kept set has
    dimension 1 and tables one fact wide."""
    task, _ = make_alias_task()
    fs = FeatureSet.of((Feature(((0, 0),)), Feature(((0, 1),)), Feature(((0, 1), (1, 0)))))
    kept = assert_computed_once(task, fs)
    assert (fs.dimension, len(kept), kept.dimension, kept.fact_table.shape) == (2, 2, 1, (2, 1, 2))


def objective_states(task, ts):
    """The initial state and the solvable state halfway through the state
    list, where every optimum is bounded."""
    distances = exact_goal_distances(ts)
    solvable = [tuple(s) for s, d in zip(ts.states.tolist(), distances) if d < math.inf]
    return [task.initial_state, solvable[len(solvable) // 2]]


def assert_same_optima(task, fs, model, unpinned, states):
    """The model over the kept features of `fs` and the one over all of
    them (feature i on column i) have the same optima at the states."""
    for state in states:
        model.set_objective(state_objective(task, fs, state))
        unpinned.set_objective({i: 1.0 for i in
                                       np.flatnonzero(truth_matrix(fs, [state])[0]).tolist()})
        ours, reference = solve(model), solve(unpinned)
        assert ours.status == reference.status
        if ours.status == "optimal":
            assert abs(ours.objective_value - reference.objective_value) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_pinned_models_keep_the_optimum(seed, dimension):
    """At solvable states the compact and exhaustive models over the kept
    features have the optima of the same models over every feature, each
    weight free."""
    task = random_task(4, 3, 6, seed)
    ts = build_transition_system(task)
    states = objective_states(task, ts)
    for fs in feature_sets(task, dimension, seed):
        assert_same_optima(task, fs, build_general_lp(task, fs),
                           reference_general_model(task, fs), states)
        assert_same_optima(task, fs, build_exhaustive_lp(task, fs, ts),
                           reference_exhaustive_model(task, fs, ts), states)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("dimension", [1, 2])
def test_tie_broken_weights_are_valid(seed, dimension):
    """The weights that `search` uses pass the validator, keep the state's
    potential at the first optimum within its tolerance, and report that
    optimum as the value."""
    task = random_task(4, 3, 6, seed)
    fs = generate_features(task, dimension)
    result = solve_for_state(task, fs, task.initial_state)
    heuristic = PotentialHeuristic(task, fs, result.weights)
    report = validate(task, heuristic)
    assert report.goal_aware and report.consistent and report.admissible
    model = build_general_lp(task, fs)
    model.set_objective(state_objective(task, fs, task.initial_state))
    optimum = solve(model).require_optimal().objective_value
    assert result.value == optimum
    assert heuristic(task.initial_state) >= optimum - 1e-6 * max(1.0, abs(optimum)) - 1e-9


def test_all_states_objective_is_the_mean_over_states():
    """Over the kept features' columns, each feature's share of all
    syntactic states."""
    task = random_task(4, 3, 6, 1)
    fs = FeatureSet.of(tuple(conjunctions(task, 3)))
    kept = kept_features(fs, task.domain_sizes)[0]
    states = list(iter_states(task.domain_sizes))
    expected = truth_matrix(kept, states).sum(axis=0) / len(states)
    objective = all_states_objective(task, fs)
    assert list(objective) == list(range(len(kept))) and len(kept) < len(fs)
    assert np.allclose(list(objective.values()), expected, rtol=0, atol=1e-15)
    # feature f holds in the share 1 / Π_{V in vars(f)} |D_V| of the states
    assert objective == {i: 1.0 / math.prod(task.domain_sizes[v] for v, _ in f.facts)
                         for i, f in enumerate(kept.features)}


def test_pinned_weights_are_zero():
    """Pinned weights have no column; the extracted and the tie-broken
    weights report them as +0.0."""
    task = random_task(4, 3, 6, 2)
    fs = generate_features(task, 2)
    kept, index = kept_features(fs, task.domain_sizes)
    left_out = pinned(fs, task.domain_sizes)
    names = {weight_var_name(fs.features[i]) for i in left_out}
    model = build_general_lp(task, fs)
    assert model.names[:len(kept)] == [weight_var_name(f) for f in kept.features]
    assert left_out and not names & set(model.names)
    model.set_objective(state_objective(task, fs, task.initial_state))
    solution = solve(model).require_optimal()
    result = extract_result(fs, task, solution)
    assert [result.weights[i] for i in index.tolist()] == solution.x[:len(kept)].tolist()
    for weights in (result.weights, solve_for_state(task, fs, task.initial_state).weights):
        assert len(weights) == len(fs)
        assert all(math.copysign(1.0, weights[i]) == 1.0 and weights[i] == 0.0
                   for i in left_out)


@pytest.mark.parametrize("seed", range(4))
def test_potential_models_have_no_fixed_column(seed):
    """No potential model fixes a column: direct2d, bucket at dimension 3
    and exhaustive."""
    task = random_task(4, 3, 6, seed)
    fs2, fs3 = generate_features(task, 2), random_features(task, 10, 3, seed)
    models = [build_direct2d_lp(task, fs2), build_general_lp(task, fs3),
              build_exhaustive_lp(task, fs2)]
    for model in models:
        assert (model.lower < model.upper).all()


def test_solve_compact_502_1_reports_every_weight(capsys, monkeypatch):
    """`solve` prints all 435 weights of the dimension-2 set, the 234 pinned
    ones exactly 0.0, from a model with one weight column per kept feature
    (201) and no column whose bounds meet."""
    built = []

    def recording(task, fs):
        built.append(model := build_direct2d_lp(task, fs))
        return model

    monkeypatch.setattr(direct2d, "build_direct2d_lp", recording)
    assert main(["solve", COMPACT_502_1]) == 0
    weights = json.loads(capsys.readouterr().out)["weights"]
    task = compact_502_1()
    fs = generate_features(task, 2)
    assert list(weights) == [format_feature(task, f) for f in fs.features]
    left_out = pinned(fs, task.domain_sizes)
    assert len(left_out) == 234
    assert all(weights[format_feature(task, fs.features[i])] == 0.0 for i in left_out)
    model, = built
    columns = [name for name in model.names if name.startswith("w_")]
    assert len(columns) == 201
    assert (model.lower < model.upper).all()


@pytest.mark.parametrize("method", ["direct2d", "bucket", "exhaustive"])
def test_dead_end_objective_is_unbounded(capsys, tmp_path, method):
    """On `random_task(4, 3, 6, 0)` the `samples:5` objective has dead-end
    states, so no weight bound holds it: `solve` exits 1 with the model
    unbounded, where a box on the weights printed 300000006.00000006."""
    task = random_task(4, 3, 6, 0)
    ts = build_transition_system(task)
    distances = exact_goal_distances(ts)
    samples = direct2d.sample_states(task, 5, 0)
    assert any(distances[state_index(s, ts.domain_sizes)] == math.inf for s in samples)
    sas = tmp_path / "task.sas"
    sas.write_text(serialize_sas(task))
    assert main(["solve", "--method", method, "--objective", "samples:5", str(sas)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: model is unbounded\n"


@pytest.mark.parametrize("method", ["direct2d", "bucket", "exhaustive"])
def test_solvable_samples_print_their_exact_mean(capsys, tmp_path, method):
    """On `random_task(4, 3, 6, 4)` (8 of its 16 states are dead ends) the
    `samples:5` states are solvable and their mean h* is 3.6, which each
    method prints exactly; with boxed weights they printed 3.599999997 and
    3.599999979."""
    task = random_task(4, 3, 6, 4)
    sas = tmp_path / "task.sas"
    sas.write_text(serialize_sas(task))
    assert main(["solve", "--method", method, "--objective", "samples:5", str(sas)]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == 3.6


def test_init_optima_agree_across_methods():
    """Wherever the initial state of `random_task(4, 3, 6, seed)` is
    solvable (every one of these tasks has dead ends), the direct2d, bucket
    and exhaustive optima at dimension 2 agree within 1e-9."""
    compared = 0
    for seed in range(40):
        task = random_task(4, 3, 6, seed)
        ts = build_transition_system(task)
        if exact_goal_distances(ts)[state_index(task.initial_state, ts.domain_sizes)] == math.inf:
            continue
        fs = generate_features(task, 2)
        optima = []
        for model in (build_direct2d_lp(task, fs), build_general_lp(task, fs),
                      build_exhaustive_lp(task, fs, ts)):
            model.set_objective(state_objective(task, fs, task.initial_state))
            optima.append(solve(model).require_optimal().objective_value)
        assert max(optima) - min(optima) <= 1e-9, (seed, optima)
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("dimension", [1, 2])
def test_tie_break_without_dead_ends_needs_no_box(monkeypatch, dimension):
    """On tasks without dead ends every potential is at most h*, so the
    all-states tie-break is bounded: `solve_for_state` never boxes the
    weights, and no weight comes near WEIGHT_UPPER."""
    def refuse(*_):
        raise AssertionError("set_bounds called")

    monkeypatch.setattr(LpModel, "set_bounds", refuse)
    solved = 0
    for seed in range(40):
        task = random_task(4, 3, 16, seed)
        if np.isinf(exact_goal_distances(build_transition_system(task))).any():
            continue
        fs = generate_features(task, dimension)
        weights = solve_for_state(task, fs, task.initial_state).weights
        assert max(map(abs, weights)) < 1e-3 * direct2d.WEIGHT_UPPER, seed
        solved += 1
    assert solved >= 10


@pytest.mark.parametrize("method", ["direct2d", "bucket"])
def test_lp_export_of_the_kept_model_reads_back(capsys, tmp_path, method):
    """`lp --out` writes the model over the 201 kept weights of
    compact_502_1, and `parse_lp` reads it back to the same text and
    model."""
    out = tmp_path / "model.lp"
    assert main(["lp", "--method", method, COMPACT_502_1, "--out", str(out)]) == 0
    text = out.read_text()
    parsed = parse_lp(text)
    assert export_lp(parsed) == text
    weights = [name for name in parsed.names if name.startswith("w_")]
    assert len(weights) == 201
    task = compact_502_1()
    kept = kept_features(generate_features(task, 2), task.domain_sizes)[0]
    assert weights == [weight_var_name(f) for f in kept.features]
