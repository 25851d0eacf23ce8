"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; the random suites are seeded and
therefore fully reproducible.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from potplan.costpart import all_patterns, build_ocp_lp, build_tcp_lp
from potplan.direct2d import build_direct2d_lp, solve_for_state
from potplan.elimination import adjacency, classify, eliminate_graphs
from potplan.features import evaluate_potential, generate_features
from potplan.generator import random_task
from potplan.lp import LinearExpression, solve
from potplan.reduction import Graph, is_3colorable, reduce_3col
from potplan.search import PotentialHeuristic, astar, blind, validate
from potplan.task import build_transition_system, exact_goal_distances

from conftest import (PAPER_BE_DOMAINS, base_model, bottom_up_values, candidates,
                      eliminate, make_paper_be)
from reference_builders import (brute_force_max, classify_features, column_terms,
                                complete_graph, cycle_graph, dependency_graph, empty_graph,
                                evaluate, features_of_abstractions, model_rows, random_features,
                                random_scoped_set, reference_induced_width,
                                reference_min_fill_order, solve_exhaustive_for_state,
                                solve_general_for_state)


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {limit_seconds:.0f}s)")


def suite_task(seed):
    return random_task(4, 3, 6, seed)


def test_criterion_1_golden_bucket_elimination():
    with criterion(1, "golden-bucket-elimination", 1.0):
        model = base_model("a", "b")
        result = eliminate(model, make_paper_be(), PAPER_BE_DOMAINS, [0, 1])
        system = candidates(model)
        assert len(system) == 3
        renaming = {name: f"AUX{i + 1}" for i, (name, _) in enumerate(system)}

        def shape(candidate):
            constant, terms = candidate
            return (constant, {renaming.get(name, name): coef for name, coef in terms.items()})

        shapes = [[shape(c) for c in cands] for _, cands in system]
        assert shapes[0] == [(0.0, {"a": 8.0}), (0.0, {"b": 7.0})]
        assert shapes[1] == [(0.0, {"b": -3.0}), (0.0, {})]
        assert shapes[2] == [(0.0, {"a": 3.0, "b": -2.0, "AUX1": 1.0}),
                             (0.0, {"a": 4.0, "b": 2.0, "AUX2": 1.0})]
        assert shape((0.0, result)) == (0.0, {"AUX3": 1.0})
        assert len(model_rows(model)) == 6
        assert all(row.relation == ">=" for row in model_rows(model))


def test_criterion_2_direct2d_equals_exhaustive():
    with criterion(2, "2d-lp-correctness", 300.0):
        for seed in range(100):
            task = suite_task(seed)
            fs = generate_features(task, 2)
            compact = solve_for_state(task, fs, task.initial_state)
            reference = solve_exhaustive_for_state(task, fs, task.initial_state)
            assert compact.value == pytest.approx(reference.value, abs=1e-6), seed
            report = validate(task, PotentialHeuristic(task, fs, compact.weights))
            assert report.goal_aware and report.consistent and report.admissible, \
                (seed, report)


def test_criterion_3_bucket_matches_direct2d():
    with criterion(3, "bucket-vs-direct-equivalence", 300.0):
        for seed in range(100):
            task = suite_task(seed)
            fs = generate_features(task, 2)
            direct = solve_for_state(task, fs, task.initial_state)
            general = solve_general_for_state(task, fs, task.initial_state)
            assert general.value == pytest.approx(direct.value, abs=1e-6), seed
            graphs = adjacency(task, fs, classify(task, fs))
            assert not graphs.any(), seed
            widths = eliminate_graphs(graphs, [[-1] * len(task.variables)] * len(graphs))[1]
            assert not widths.any()


def test_criterion_4_numeric_max_oracle():
    with criterion(4, "numeric-max-oracle", 60.0):
        for seed in range(200):
            n_vars = 2 + seed % 3
            n_functions = 2 + seed % 4
            domains, functions = random_scoped_set(n_vars, 3, n_functions, seed)
            graph = dependency_graph(functions, domains)
            order = reference_min_fill_order(graph)
            width = reference_induced_width(graph, order)
            # the constants sit on column 0, fixed at 1
            model = base_model("one", lower=1.0, upper=1.0)
            result = LinearExpression.build(0.0, eliminate(model, functions, domains, order))
            # the minimum of the result is the negated maximum of its negation
            model.set_objective(column_terms(model, -result))
            minimum = -solve(model).require_optimal().objective_value
            expected = brute_force_max(functions, domains, {"one": 1.0})
            assert minimum == pytest.approx(expected, abs=1e-9), seed
            bottom_up = evaluate(result, bottom_up_values(model, {"one": 1.0}))
            assert bottom_up == pytest.approx(expected, abs=1e-9), seed

            # width-parameterized size budget; the final sum adds no unknown
            # and no row
            d = max(domains.values())
            aux_budget = n_vars * d ** width
            row_budget = n_vars * d ** (width + 1)
            assert len(model.names) - 1 <= aux_budget, seed
            assert len(model_rows(model)) <= row_budget, seed


def test_criterion_5_dimension3_equivalence():
    with criterion(5, "dimension-3-equivalence", 600.0):
        for seed in range(30):
            task = suite_task(1000 + seed)
            fs = random_features(task, 12, 3, seed)
            assert fs.dimension == 3
            general = solve_general_for_state(task, fs, task.initial_state)
            reference = solve_exhaustive_for_state(task, fs, task.initial_state)
            assert general.value == pytest.approx(reference.value, abs=1e-6), seed


def test_criterion_6_tcp_equivalence_and_dominance():
    with criterion(6, "tcp-equivalence-dominance", 600.0):
        for seed in range(30):
            task = random_task(3, 3, 5, 2000 + seed)
            ts = build_transition_system(task)
            patterns = all_patterns(len(task.variables))
            fs = features_of_abstractions(ts, patterns)
            distances = exact_goal_distances(ts)
            finite = [i for i, d in enumerate(distances) if d < math.inf]
            rng = random.Random(f"criterion6:{seed}")
            states = [task.initial_state] + [
                tuple(ts.states[finite[rng.randrange(len(finite))]].tolist()) for _ in range(3)]
            for state in states:
                pot = solve_for_state(task, fs, state).value
                tcp = solve(build_tcp_lp(ts, patterns, state).model) \
                    .require_optimal().objective_value
                ocp = solve(build_ocp_lp(ts, patterns, state).model) \
                    .require_optimal().objective_value
                assert abs(pot - tcp) <= 1e-6, (seed, state)
                assert tcp >= ocp - 1e-6, (seed, state)


def test_criterion_7_hardness_reduction():
    with criterion(7, "hardness-reduction", 120.0):
        graphs = [complete_graph(3), complete_graph(4), cycle_graph(5),
                  empty_graph(5)]
        rng = random.Random("acceptance:family")
        for _ in range(20):
            n = rng.randint(1, 5)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            graphs.append(Graph.of(n, edges))
        for index, graph in enumerate(graphs):
            red = reduce_3col(graph)
            report = validate(red.task, lambda s: evaluate_potential(red.features, red.weights, s))
            assert report.consistent == (not is_3colorable(graph)), index


def test_criterion_8_search():
    with criterion(8, "astar-optimality-and-expansions", 300.0):
        totals = {"blind": 0, "pot1": 0, "pot2": 0}
        for seed in range(50):
            task = suite_task(3000 + seed)
            ts = build_transition_system(task)
            expected = exact_goal_distances(ts)[ts.initial]
            heuristics = {"blind": blind}
            for name, dim in (("pot1", 1), ("pot2", 2)):
                fs = generate_features(task, dim)
                weights = solve_for_state(task, fs, task.initial_state).weights
                heuristics[name] = PotentialHeuristic(task, fs, weights)
            for name, heuristic in heuristics.items():
                result = astar(task, heuristic)
                assert result.cost == pytest.approx(expected), (seed, name)
                totals[name] += result.expansions_before_last_f_layer
        assert totals["pot2"] <= totals["pot1"] <= totals["blind"], totals


def test_criterion_9_size_formula():
    with criterion(9, "direct2d-size-formula", 300.0):
        for seed in range(100):
            task = suite_task(seed)
            fs = generate_features(task, 2)
            model = build_direct2d_lp(task, fs)
            expected = 1
            for op in task.operators:
                expected += 1
                context_vars = {var for i in classify_features(fs, op).context_dependent
                                for var, _ in fs.features[i].facts if var not in op.eff}
                expected += sum(task.variables[v].domain_size
                                for v in context_vars)
            assert len(model_rows(model)) == expected, seed
