"""The array-assembled projection, TCP, OCP and exhaustive builders produce
exactly the models of their row-by-row references: export_lp of both is
byte-identical and the stored matrices are equal, so HiGHS sees the same
columns, rows and coefficients."""

import numpy as np
import pytest

from potplan.costpart import all_patterns, build_ocp_lp, build_tcp_lp, project
from potplan.direct2d import build_exhaustive_lp
from potplan.features import FeatureSet, generate_features
from potplan.generator import random_features, random_task
from potplan.lp import export_lp
from potplan.task import Operator, Task, build_transition_system

from conftest import make_toy1
from reference_builders import (reference_exhaustive_model, reference_ocp_model,
                                reference_projection, reference_tcp_model)


def toy1_with_self_loop() -> Task:
    """toy1 plus an operator that leaves its state unchanged."""
    task = make_toy1()
    return Task(task.variables, task.operators + [Operator("stay", {0: 1}, {0: 1}, 2)],
                task.initial_state, task.goal)


TASKS = {"toy1": make_toy1, "toy1_self_loop": toy1_with_self_loop}
TASKS.update({f"random{seed}": (lambda seed=seed: random_task(3, 3, 6, seed))
              for seed in range(6)})


def assert_same_model(model, reference):
    assert export_lp(model) == export_lp(reference)
    # The LP text leaves out zero coefficients; compare the stored matrices
    # too, so a zero kept in the matrix given to HiGHS shows.
    matrix, expected = model.row_table()[0], reference.row_table()[0]
    matrix.sort_indices()
    expected.sort_indices()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, part), getattr(expected, part)), part


def pattern_sets(task):
    n = len(task.variables)
    return [all_patterns(n, 2), [(), (n - 1,), tuple(range(n))]]


def states_of(ts):
    return [ts.states[ts.initial], ts.states[len(ts.states) // 2]]


@pytest.mark.parametrize("name", sorted(TASKS))
def test_projection_matches_reference(name):
    ts = build_transition_system(TASKS[name]())
    for pattern in pattern_sets(TASKS[name]())[0] + [()]:
        proj = project(ts, pattern)
        assert (proj.pattern, proj.domain_sizes, proj.abstract_states,
                proj.abstract_transitions, proj.initial, proj.goal) == \
            reference_projection(ts, pattern)
        assert [proj.state_map[i] for i in range(len(ts.states))] == \
            [proj.map_state(s) for s in ts.states]


@pytest.mark.parametrize("name", sorted(TASKS))
def test_tcp_and_ocp_models_match_reference(name):
    task = TASKS[name]()
    ts = build_transition_system(task)
    for patterns in pattern_sets(task):
        for state in states_of(ts):
            assert_same_model(build_tcp_lp(ts, patterns, state).model,
                              reference_tcp_model(ts, patterns, state))
            assert_same_model(build_ocp_lp(ts, patterns, state).model,
                              reference_ocp_model(ts, patterns, state))


@pytest.mark.parametrize("name", sorted(TASKS))
def test_exhaustive_model_matches_reference(name):
    task = TASKS[name]()
    ts = build_transition_system(task)
    feature_sets = [generate_features(task, 1), generate_features(task, 2),
                    random_features(task, 8, 3, 0), FeatureSet(())]
    for fs in feature_sets:
        assert_same_model(build_exhaustive_lp(task, fs, ts).model,
                          reference_exhaustive_model(task, fs, ts))


def test_instances_cover_self_loops_and_duplicates():
    """The suite above reaches the cases the array builders must treat like
    the row-by-row ones: abstract self-loops (cancelling h terms), repeated
    abstract transitions (OCP de-duplication) and concrete self-loops (empty
    exhaustive rows)."""
    abstract_loops = repeated = concrete_loops = 0
    for make in TASKS.values():
        ts = build_transition_system(make())
        concrete_loops += sum(src == dst for src, _, dst in ts.transitions)
        for pattern in all_patterns(len(ts.domain_sizes), 2):
            moves = project(ts, pattern).abstract_transitions
            abstract_loops += sum(s == d for s, _, d in moves)
            repeated += len(moves) - len(set(moves))
    assert abstract_loops and repeated and concrete_loops
