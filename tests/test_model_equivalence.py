"""The array-assembled projection, TCP, OCP and exhaustive builders, and the
bucket-elimination assembler at any dimension, produce exactly the models of
their references: export_lp of both is byte-identical and the
stored matrices are equal, so HiGHS sees the same columns, rows and
coefficients.  The potential builders write weight columns for the kept
features only (`kept_features`), so their references are built over the
kept set.  The TCP model, whose cost unknowns are eliminated, is also
solved against the full model with them."""

import math
import random

import numpy as np
import pytest

from potplan.costpart import all_patterns, build_ocp_lp, build_tcp_lp, project
from potplan.direct2d import build_direct2d_lp, build_exhaustive_lp, build_general_lp
from potplan.elimination import adjacency, classify, eliminate_graphs
from potplan.features import FeatureSet, generate_features, kept_features
from potplan.generator import random_task
from potplan.lp import export_lp, solve
from potplan.reduction import reduce_3col
from potplan.task import Operator, Task, Variable, build_transition_system, exact_goal_distances

from conftest import make_alias_task, make_toy1
from reference_builders import (abstract_transitions, check_values, complete_graph,
                                extract_cost_functions, features_of, random_features,
                                reference_direct2d_model, reference_exhaustive_model,
                                reference_general_model, reference_ocp_model,
                                reference_projection, reference_tcp_eliminated_model,
                                reference_tcp_model, solution_values, variables_of)


def toy1_with_self_loop() -> Task:
    """toy1 plus an operator that leaves its state unchanged."""
    task = make_toy1()
    return Task(task.variables, task.operators + [Operator("stay", {0: 1}, {0: 1}, 2)],
                task.initial_state, task.goal)


TASKS = {"toy1": make_toy1, "toy1_self_loop": toy1_with_self_loop}
TASKS.update({f"random{seed}": (lambda seed=seed: random_task(3, 3, 6, seed))
              for seed in range(6)})


def kept(task, fs):
    """The features the potential builders write weight columns for; the
    references take them as their whole set."""
    return kept_features(fs, task.domain_sizes)[0]


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
    return [all_patterns(n), [(), (n - 1,), tuple(range(n))]]


def states_of(ts):
    return [tuple(ts.states[i].tolist()) for i in (ts.initial, len(ts.states) // 2)]


@pytest.mark.parametrize("name", sorted(TASKS))
def test_projection_matches_reference(name):
    ts = build_transition_system(TASKS[name]())
    for pattern in pattern_sets(TASKS[name]())[0] + [()]:
        proj = project(ts, pattern)
        expected = reference_projection(ts, pattern)
        assert (proj.pattern, proj.domain_sizes, proj.size,
                list(map(tuple, abstract_transitions(proj, ts).tolist())),
                proj.initial, proj.goal) == (*expected[:2], len(expected[2]), *expected[3:])


@pytest.mark.parametrize("name", sorted(TASKS))
def test_tcp_and_ocp_models_match_reference(name):
    task = TASKS[name]()
    ts = build_transition_system(task)
    for patterns in pattern_sets(task):
        for state in states_of(ts):
            assert_same_model(build_tcp_lp(ts, patterns, state).model,
                              reference_tcp_eliminated_model(ts, patterns, state))
            assert_same_model(build_ocp_lp(ts, patterns, state).model,
                              reference_ocp_model(ts, patterns, state))


@pytest.mark.parametrize("name", sorted(TASKS))
def test_eliminated_tcp_matches_full_model(name):
    """The TCP model without cost unknowns has the optimum of the model with
    them, and its h values with the least partition of
    extract_cost_functions are a feasible point of that model.  On a
    dead-end state both report the same status: with the all-variable
    pattern, which sees the dead end, unbounded."""
    task = TASKS[name]()
    ts = build_transition_system(task)
    dead_ends = [tuple(s) for s, d in zip(ts.states.tolist(), exact_goal_distances(ts).tolist())
                 if d == math.inf]
    for patterns in pattern_sets(task):
        for state in states_of(ts) + dead_ends[:1]:
            built = build_tcp_lp(ts, patterns, state)
            full = reference_tcp_model(ts, patterns, state)
            eliminated, reference = solve(built.model), solve(full)
            assert eliminated.status == reference.status
            if state in dead_ends and tuple(range(len(task.variables))) in patterns:
                assert eliminated.status == "unbounded"
            if eliminated.status != "optimal":
                continue
            assert abs(eliminated.objective_value - reference.objective_value) <= 1e-9
            lifted = solution_values(built.model, eliminated)
            for ai, costs in enumerate(extract_cost_functions(built, ts, eliminated)):
                lifted.update((f"c_a{ai}_t{ti}", cost) for ti, cost in enumerate(costs))
            assert check_values(full, lifted) == []


@pytest.mark.parametrize("name", sorted(TASKS))
def test_exhaustive_model_matches_reference(name):
    task = TASKS[name]()
    ts = build_transition_system(task)
    feature_sets = [generate_features(task, 1), generate_features(task, 2),
                    random_features(task, 8, 3, 0), FeatureSet.of(())]
    for fs in feature_sets:
        assert_same_model(build_exhaustive_lp(task, fs, ts),
                          reference_exhaustive_model(task, kept(task, fs), ts))


def test_instances_cover_self_loops_and_duplicates():
    """The suite above reaches the cases the array builders must treat like
    the row-by-row ones: abstract self-loops (cancelling h terms), repeated
    abstract transitions (OCP de-duplication), concrete self-loops (empty
    exhaustive rows) and dead-end states (unbounded TCP)."""
    abstract_loops = repeated = concrete_loops = dead_ends = 0
    for make in TASKS.values():
        ts = build_transition_system(make())
        concrete_loops += sum(src == dst for src, _, dst in ts.transitions.tolist())
        dead_ends += math.inf in exact_goal_distances(ts)
        for pattern in all_patterns(len(ts.domain_sizes)):
            moves = list(map(tuple, abstract_transitions(project(ts, pattern), ts).tolist()))
            abstract_loops += sum(s == d for s, _, d in moves)
            repeated += len(moves) - len(set(moves))
    assert abstract_loops and repeated and concrete_loops and dead_ends


POTENTIAL_TASKS = {"toy1": make_toy1}
POTENTIAL_TASKS.update({f"random{seed}": (lambda seed=seed: random_task(4, 3, 6, seed))
                        for seed in range(12)})


@pytest.mark.parametrize("name", sorted(POTENTIAL_TASKS))
@pytest.mark.parametrize("dimension", [1, 2])
def test_direct2d_model_matches_reference(name, dimension):
    task = POTENTIAL_TASKS[name]()
    fs = generate_features(task, dimension)
    reference = reference_direct2d_model(task, kept(task, fs))
    assert_same_model(build_direct2d_lp(task, fs), reference)
    assert_same_model(build_general_lp(task, fs), reference)


def test_potential_instances_cover_no_op_operators():
    """Operators with pre = eff change no weight, yet the reference keeps
    their z unknowns and `z >= 0` rows; the suite above must reach them."""
    with_no_ops = [name for name, make in POTENTIAL_TASKS.items()
                   if any(op.pre == op.eff for op in make().operators)]
    assert len(with_no_ops) > len(POTENTIAL_TASKS) // 2


def k4_reduction():
    red = reduce_3col(complete_graph(4))
    return red.task, red.features


def random_dimension3(seed):
    task = random_task(4, 3, 6, seed)
    return task, random_features(task, 10, 3, seed)


GENERAL_CASES = {"k4_reduction": k4_reduction, "domain1_alias": make_alias_task}
GENERAL_CASES.update({f"random{seed}": (lambda seed=seed: random_dimension3(seed))
                      for seed in range(12)})


def min_fill_orders(task, fs):
    """Every operator's min-fill order, and its context-dependency graph."""
    graphs = adjacency(task, fs, classify(task, fs))
    return eliminate_graphs(graphs, np.full(graphs.shape[:2], -1))[0], graphs


def reversed_min_fill_orders(task, fs):
    return {op_index: order[::-1] for op_index, order
            in enumerate(min_fill_orders(task, fs)[0].tolist())}


def context_variables(task, fs):
    """Per operator, the variables outside it of the features touching it."""
    classes = classify(task, fs)
    variables = fs.fact_table[classes.feature, :, 0]
    return [set(variables[start:stop][classes.outside[start:stop]].tolist())
            for start, stop in zip(classes.starts[:-1], classes.starts[1:])]


@pytest.mark.parametrize("name", sorted(GENERAL_CASES))
def test_general_model_matches_reference(name):
    """At dimension 3, where context-dependency graphs have edges; with
    min-fill orders and with each of them reversed.  The reference is the
    symbolic eliminator over linear expressions."""
    task, fs = GENERAL_CASES[name]()
    assert_same_model(build_general_lp(task, fs), reference_general_model(task, kept(task, fs)))
    orders = reversed_min_fill_orders(task, fs)
    assert_same_model(build_general_lp(task, fs, orders),
                      reference_general_model(task, kept(task, fs), orders))


def test_general_instances_cover_context_edges():
    """The suite above reaches operators whose context-dependency graph has
    edges, where reversing the order changes the model, and a domain-1
    variable whose unknown becomes an alias (under the reversed order)."""
    assert reversed_min_fill_orders(*make_alias_task()) == {0: [0, 1, 2]}
    with_edges = changed = 0
    for make in GENERAL_CASES.values():
        task, fs = make()
        assert fs.dimension == 3
        with_edges += bool(min_fill_orders(task, fs)[1].any())
        orders = reversed_min_fill_orders(task, fs)
        changed += export_lp(build_general_lp(task, fs)) != \
            export_lp(build_general_lp(task, fs, orders))
    assert with_edges > len(GENERAL_CASES) // 2 and changed > len(GENERAL_CASES) // 2


def domain1_task():
    """Variable b has one value; operators change a or c with b in context."""
    variables = [Variable(0, "a", 2, ("0", "1")), Variable(1, "b", 1, ("0",)),
                 Variable(2, "c", 3, ("0", "1", "2"))]
    operators = [Operator("a01", {0: 0}, {0: 1}, 1), Operator("c12", {2: 1}, {2: 2}, 2),
                 Operator("ac", {0: 1, 2: 0}, {0: 0, 2: 1}, 1)]
    task = Task(variables, operators, (0, 0, 0), {0: 1, 1: 0, 2: 2})
    return task, generate_features(task, 2)


def untouched_task():
    """Features over variables 1 and 2 only: operators on variable 0 alone
    touch no feature."""
    task = random_task(4, 3, 6, 3)
    return task, FeatureSet.of(tuple(f.facts for f in features_of(generate_features(task, 2))
                                     if set(variables_of(f)) <= {1, 2}))


def with_features(make_task, dimension):
    task = make_task()
    return task, generate_features(task, dimension)


WIDTH0_CASES = {"toy1_self_loop": lambda: with_features(toy1_with_self_loop, 2),
                "domain1": domain1_task, "untouched": untouched_task}
WIDTH0_CASES.update({f"random{seed}_dim{dim}":
                     (lambda seed=seed, dim=dim: with_features(POTENTIAL_TASKS[f"random{seed}"], dim))
                     for seed in range(6) for dim in (1, 2)})
WIDTH0_CASES.update({f"dim3_{name}": make for name, make in GENERAL_CASES.items()})


@pytest.mark.parametrize("name", sorted(WIDTH0_CASES))
def test_width0_pass_matches_bucket_loop(name):
    """The one-pass width-0 elimination writes the model that eliminating
    each operator on its own in the symbolic eliminator writes, byte for
    byte."""
    task, fs = WIDTH0_CASES[name]()
    assert_same_model(build_general_lp(task, fs), reference_general_model(task, kept(task, fs)))


def test_width0_instances_cover_edge_cases():
    """The suite above reaches domain-1 context variables, operators that
    touch no feature, no-op operators, context variables whose changes are
    all zero, and dimension-3 models that mix both paths."""
    domain1 = untouched = no_ops = all_zero = mixed = 0
    for make in WIDTH0_CASES.values():
        task, fs = make()
        classes = classify(task, fs)
        width0 = (~adjacency(task, fs, classes).any(axis=(1, 2))).tolist()
        no_ops += any(op.pre == op.eff for op in task.operators)
        mixed += 0 < sum(width0) < len(width0)
        variables = fs.fact_table[classes.feature, :, 0]
        for op_index, context in enumerate(context_variables(task, fs)):
            pairs = range(classes.starts[op_index], classes.starts[op_index + 1])
            untouched += not pairs
            domain1 += any(task.domain_sizes[v] == 1 for v in context) and width0[op_index]
            changed = {v for p in pairs if classes.change[p]
                       for v in variables[p][classes.outside[p]].tolist()}
            all_zero += bool(context - changed) and width0[op_index]
    assert domain1 and untouched and no_ops and all_zero and mixed > len(GENERAL_CASES) // 2


def test_width0_operator_named_in_orderings_keeps_its_order():
    """An operator named in `orderings` is eliminated in the order given,
    also at width 0, where a non-default order changes its columns."""
    task, fs = WIDTH0_CASES["random0_dim2"]()
    op_index = next(k for k, context in enumerate(context_variables(task, fs))
                    if len(context) > 1)
    orders = {op_index: list(range(len(task.variables)))}  # context variables descending
    model = build_general_lp(task, fs, orders)
    assert_same_model(model, reference_general_model(task, kept(task, fs), orders))
    assert export_lp(model) != export_lp(build_general_lp(task, fs))


def random_dimension(seed, dimension):
    task = random_task(6, 3, 8, seed)
    return task, random_features(task, 14, dimension, seed)


def untouched_dimension3():
    """No feature mentions variable 4: the two operators on it alone touch
    no feature."""
    task, fs = random_dimension(3, 3)
    return task, FeatureSet.of(tuple(f.facts for f in features_of(fs) if 4 not in variables_of(f)))


LOOP_CASES = {"k4_reduction": k4_reduction, "domain1_alias": make_alias_task,
              "untouched_dim3": untouched_dimension3}
LOOP_CASES.update({f"random{seed}_dim{dim}":
                   (lambda seed=seed, dim=dim: random_dimension(seed, dim))
                   for seed in range(6) for dim in (3, 4, 5)})


def random_orders(task, seed):
    """A random order of all variables for about half of the operators."""
    rng = random.Random(f"orders:{seed}")
    orders = {}
    for op_index in range(len(task.operators)):
        if rng.random() < 0.5:
            orders[op_index] = rng.sample(range(len(task.variables)), len(task.variables))
    return orders


@pytest.mark.parametrize("name", sorted(LOOP_CASES))
def test_bucket_pass_matches_loop_reference(name):
    """Operators whose context-dependency graphs have edges, eliminated in
    lockstep, give the model of eliminating each one on its own in the
    symbolic eliminator, byte for byte: under min-fill orders, and with
    random orders named for some operators (which then take the lockstep
    pass at any width)."""
    task, fs = LOOP_CASES[name]()
    assert_same_model(build_general_lp(task, fs), reference_general_model(task, kept(task, fs)))
    for seed in range(3):
        orders = random_orders(task, f"{name}:{seed}")
        assert_same_model(build_general_lp(task, fs, orders),
                          reference_general_model(task, kept(task, fs), orders))


def test_bucket_pass_alias_matches_loop_reference():
    """Under the order [a, b, c] the domain-1 variable b's single candidate
    is c's unknown, which b's function reuses instead of a new unknown."""
    task, fs = make_alias_task()
    orders = {0: [0, 1, 2]}
    model = build_general_lp(task, fs, orders)
    assert_same_model(model, reference_general_model(task, kept(task, fs), orders))
    names = model.names
    assert "z_o0_v2__v1.0" in names and not any(n.startswith("z_o0_v1") for n in names)


def test_loop_instances_cover_edge_cases():
    """The suites above reach dimensions 3 to 5 and widths up to 4, orders
    other than min-fill's, operators that touch no feature among those
    named in the orders, and no-op operators with edges, whose buckets hold
    only functions with empty tables, some with a nonempty remaining
    scope."""
    widths, dimensions = set(), set()
    reordered = untouched = empty_buckets = 0
    for name, make in LOOP_CASES.items():
        task, fs = make()
        dimensions.add(fs.dimension)
        graphs = adjacency(task, fs, classify(task, fs))
        min_fill, op_widths = eliminate_graphs(graphs, np.full(graphs.shape[:2], -1))
        widths.update(op_widths.tolist())
        orders = random_orders(task, f"{name}:0")
        reordered += sum(order != min_fill[k].tolist() for k, order in orders.items())
        classes = classify(task, fs)
        for op_index, op in enumerate(task.operators):
            pairs = slice(classes.starts[op_index], classes.starts[op_index + 1])
            untouched += pairs.start == pairs.stop and op_index in orders
            empty_buckets += op.pre == op.eff and graphs[op_index].any()
            assert not classes.change[pairs].any() or op.pre != op.eff
    assert dimensions == {3, 4, 5} and max(widths) == 4
    assert reordered > 50 and untouched and empty_buckets
