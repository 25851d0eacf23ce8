"""Pinned weights and the all-states tie-break.

`pinned_features` fixes some weights to 0.  The rule is checked against its
definition: over all syntactic states, the truth matrix of the kept features
has the rank of the full one, so both express the same potentials.  Solved
models are checked against the same models with no weight pinned (built by
`reference_builders`), and the tie-broken weights that `solve_for_state`
hands to search against the explicit-state validator.
"""

import itertools
import math
import os
import random

import numpy as np
import pytest

from potplan.direct2d import (all_states_objective, build_exhaustive_lp, build_general_lp,
                              solve_for_state, state_objective, weight_var_name)
from potplan.features import (Feature, FeatureSet, generate_features, pinned_features,
                              truth_matrix)
from potplan.generator import random_task
from potplan.lp import solve
from potplan.search import PotentialHeuristic, validate
from potplan.task import build_transition_system, exact_goal_distances, iter_states, parse_sas

from conftest import make_alias_task, make_toy1
from reference_builders import (random_features, reference_exhaustive_model,
                                reference_general_model)

DATA = os.path.join(os.path.dirname(__file__), "data")


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
    return FeatureSet(tuple(f for f in conjunctions(task, dimension) if rng.random() < keep))


def feature_sets(task, dimension, seed):
    sets = [random_features(task, 30, dimension, seed),
            random_subset(task, dimension, seed, 0.5), random_subset(task, dimension, seed, 0.9)]
    if dimension <= 2:
        sets.append(generate_features(task, dimension))
    else:
        sets.append(FeatureSet(tuple(conjunctions(task, 3))))
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
        pinned = set(pinned_features(fs, task.domain_sizes))
        kept = [i for i in range(len(fs)) if i not in pinned]
        assert rank(task, fs, kept) == rank(task, fs, list(range(len(fs))))
        pinned_total += len(pinned)
    assert pinned_total > 0


def test_pin_counts_on_a_ten_variable_task():
    """Domain 3 everywhere: at dimension 2 every feature with a value-0 fact
    is pinned except the anchor's atom; over atoms plus triples only the
    value-0 atoms of the other variables."""
    with open(os.path.join(DATA, "compact_502_1.sas"), encoding="utf-8") as f:
        task = parse_sas(f.read())
    fs = generate_features(task, 2)
    pinned = pinned_features(fs, task.domain_sizes)
    assert (len(pinned), len(fs)) == (234, 435)
    assert [i for i, f in enumerate(fs.features)
            if i not in pinned and any(val == 0 for _, val in f.facts)] == [0]
    atoms = [f for f in fs.features if f.size == 1]
    triples = [Feature(((0, 0), (1, 0), (2, 0))), Feature(((3, 0), (5, 1), (9, 0)))]
    fs = FeatureSet(tuple(atoms + triples))
    assert [fs.features[i].facts for i in pinned_features(fs, task.domain_sizes)] == \
        [((v, 0),) for v in range(1, 10)]


def test_no_anchor_pins_no_atom():
    """Without a variable whose atoms are all present the constant is not
    expressible, so no atom is pinned; a pair whose family is complete is."""
    task = make_toy1()
    fs = FeatureSet((Feature(((0, 0),)), Feature(((1, 1),)), Feature(((0, 0), (1, 0))),
                     Feature(((0, 0), (1, 1)))))
    assert pinned_features(fs, task.domain_sizes) == [2]
    task, fs = make_alias_task()
    assert pinned_features(fs, task.domain_sizes) == []


def objectives(task, fs, ts):
    """The initial state's potential and that of the solvable state halfway
    through the state list.  At a dead end the optimum is set by the ±1e8
    bound, which pinning changes, not by the task."""
    distances = exact_goal_distances(ts)
    solvable = [tuple(s) for s, d in zip(ts.states.tolist(), distances) if d < math.inf]
    return [state_objective(fs, task.initial_state),
            state_objective(fs, solvable[len(solvable) // 2])]


def assert_same_optima(model, unpinned, terms):
    for objective in terms:
        model.set_objective("max", objective)
        unpinned.set_objective("max", objective)
        ours, reference = solve(model), solve(unpinned)
        assert ours.status == reference.status
        if ours.status == "optimal":
            assert abs(ours.objective_value - reference.objective_value) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_pinned_models_keep_the_optimum(seed, dimension):
    """At solvable states the compact and exhaustive models with pinned
    weights have the optima of the same models with every weight bounded by
    ±1e8."""
    task = random_task(4, 3, 6, seed)
    ts = build_transition_system(task)
    for fs in feature_sets(task, dimension, seed):
        terms = objectives(task, fs, ts)
        assert_same_optima(build_general_lp(task, fs),
                           reference_general_model(task, fs, pin=False), terms)
        assert_same_optima(build_exhaustive_lp(task, fs, ts),
                           reference_exhaustive_model(task, fs, ts, pin=False), terms)


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
    model.set_objective("max", state_objective(fs, task.initial_state))
    optimum = solve(model).require_optimal().objective_value
    assert result.value == optimum
    assert heuristic(task.initial_state) >= optimum - 1e-6 * max(1.0, abs(optimum)) - 1e-9


def test_all_states_objective_is_the_mean_over_states():
    task = random_task(4, 3, 6, 1)
    fs = FeatureSet(tuple(conjunctions(task, 3)))
    states = list(iter_states(task.domain_sizes))
    expected = truth_matrix(fs, states).sum(axis=0) / len(states)
    objective = all_states_objective(fs, task.domain_sizes)
    assert list(objective) == list(range(len(fs)))
    assert np.allclose(list(objective.values()), expected, rtol=0, atol=1e-15)
    # feature f holds in the share 1 / Π_{V in vars(f)} |D_V| of the states
    assert objective == {i: 1.0 / math.prod(task.domain_sizes[v] for v in f.variables)
                         for i, f in enumerate(fs.features)}


def test_pinned_weights_are_zero_and_not_bound_active():
    task = random_task(4, 3, 6, 2)
    fs = generate_features(task, 2)
    pinned = pinned_features(fs, task.domain_sizes)
    model = build_general_lp(task, fs)
    model.set_objective("max", state_objective(fs, task.initial_state))
    solution = solve(model).require_optimal()
    names = {weight_var_name(fs.features[i]) for i in pinned}
    assert pinned and not names & set(solution.bound_active)
    assert all(math.copysign(1.0, solution.x[i]) == 1.0 and solution.x[i] == 0.0
               for i in pinned)
    result = solve_for_state(task, fs, task.initial_state)
    assert all(math.copysign(1.0, result.weights[i]) == 1.0 and result.weights[i] == 0.0
               for i in pinned)
    assert not names & set(result.bound_active)
