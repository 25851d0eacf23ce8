import itertools
import random

import numpy as np
import pytest

from potplan.direct2d import build_general_lp
from potplan.elimination import classify
from potplan.features import (Feature, FeatureError, FeatureSet, evaluate_potential,
                              generate_features, kept_features, parse_feature,
                              parse_feature_file, truth_matrix, weights_from_strings,
                              weights_to_strings)
from potplan.generator import random_task
from potplan.task import Task, Variable, build_transition_system, is_applicable

from reference_builders import (classify_features, delta, delta_independent,
                                format_feature, iter_states, random_features,
                                reference_generate_features, reference_kept_features,
                                true_in, variables_of, weight_var_name)


def w_for(fs, mapping):
    values = [0.0] * len(fs)
    for facts, weight in mapping.items():
        values[fs.features.index(Feature.of(facts))] = weight
    return values


def test_generate_dim1(toy1):
    fs = generate_features(toy1, 1)
    assert {f.facts for f in fs} == {((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)}
    assert fs.dimension == 1


def test_generate_dim2(toy1):
    fs = generate_features(toy1, 2)
    assert len(fs) == 8  # 4 atoms + 2*2 cross-variable pairs
    assert sum(1 for f in fs if f.size == 2) == 4
    assert fs.dimension == 2


def test_same_variable_conjunction_rejected():
    with pytest.raises(FeatureError):
        Feature.of(((0, 0), (0, 1)))


def test_feature_equality_order_and_hash_follow_the_sorted_facts():
    a, b = Feature.of(((2, 1), (0, 0))), Feature.of(((0, 0), (2, 1)))
    assert a.facts == ((0, 0), (2, 1))
    assert a == b and hash(a) == hash(b)
    assert Feature.of(((0, 0),)) < a < Feature.of(((0, 1),))
    assert sorted([Feature.of(((1, 0),)), a]) == [a, Feature.of(((1, 0),))]


def test_explicit_list_validated(toy1):
    with pytest.raises(FeatureError):
        FeatureSet.of((Feature.of(((0, 1),)), Feature.of(((0, 1),))))


@pytest.mark.parametrize("table, message", [
    ([[[1, 0], [0, 0]]], "sorted over distinct variables"),      # unsorted variables
    ([[[0, 0], [0, 1]]], "sorted over distinct variables"),      # a variable twice
    ([[[0, 0], [0, 0], [1, 0]]], "sorted over distinct variables"),  # a repeat before a fact
    ([[[0, 0], [1, 0]], [[0, 1], [0, 1]], [[0, 0], [1, 0]]], "duplicate features"),
    ([[[0, 1], [0, 1]], [[0, 1], [0, 1]]], "duplicate features"),  # an atom twice
    (np.zeros((2, 0, 2)), "empty feature"),
    ([[0, 1]], "fact table"),
])
def test_fact_table_refusals(table, message):
    """A table given straight to `FeatureSet` is checked as `Feature` and
    `FeatureSet.of` check features: variables increase within a row,
    padding only repeats a row's last fact, and no row repeats."""
    with pytest.raises(FeatureError, match=message):
        FeatureSet(table)


def test_fact_table_is_trimmed_to_its_dimension():
    fs = FeatureSet([[[0, 1], [0, 1], [0, 1]], [[0, 0], [1, 1], [1, 1]]])
    assert fs.dimension == 2 and fs.fact_table.shape == (2, 2, 2)
    assert fs.features == (Feature(((0, 1),)), Feature(((0, 0), (1, 1))))
    assert fs.distinct.tolist() == [[True, False], [True, True]]


def domain_task(sizes):
    """A task without operators over variables of the given domain sizes."""
    variables = [Variable(v, f"v{v}", size, tuple(f"x{x}" for x in range(size)))
                 for v, size in enumerate(sizes)]
    return Task(variables, [], (0,) * len(sizes), {v: 0 for v in range(len(sizes))})


def table_cases(seed):
    """A random task and one over random domain sizes, with domains 1 and 2
    among them, and (task, feature set) pairs: random sets of dimensions
    1-4, the generated sets over the domains, the dimension-2 set less one
    atom of every variable (no anchor), the empty set, and a dimension-4
    set whose conjunction keys exceed int64."""
    rng = random.Random(f"tables:{seed}")
    task = random_task(5, 3, 6, seed)
    cases = [(task, random_features(task, 14, dim, seed)) for dim in (1, 2, 3, 4)]
    sizes = [1, 2] + [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
    rng.shuffle(sizes)
    domains = domain_task(sizes)
    cases += [(domains, generate_features(domains, dim)) for dim in (1, 2)]
    missing = {((v, rng.randrange(size)),) for v, size in enumerate(sizes)}
    cases.append((domains, FeatureSet.of(f for f in generate_features(domains, 2)
                                         if f.facts not in missing)))
    cases.append((domains, FeatureSet.of(())))
    # keys of 4 facts led by v0 = 69999 reach 70_000 * 70_008 ** 3 > 2 ** 63
    wide = domain_task([70_000, 2, 3, 2])
    tails = [tuple(zip(scope, values)) for size in (0, 1, 2, 3)
             for scope in itertools.combinations((1, 2, 3), size)
             for values in itertools.product(*(range(wide.domain_sizes[v]) for v in scope))]
    conjunctions = [Feature(((0, 0),))] + [Feature(tail) for tail in tails if tail] \
        + [Feature(((0, 69_999),) + tail) for tail in tails]
    rng.shuffle(conjunctions)
    cases.append((wide, FeatureSet.of(conjunctions)))
    return (task, domains), cases


@pytest.mark.parametrize("seed", range(6))
def test_table_builders_match_the_per_feature_references(seed):
    """Generation, pinning and naming by array give what the per-`Feature`
    references give: the same generated tables, the same kept indices,
    kept table and dimension, and feature by feature the same weight
    column names and printed keys."""
    tasks, cases = table_cases(seed)
    for task, dim in itertools.product(tasks, (1, 2)):
        assert generate_features(task, dim).fact_table.tolist() == \
            reference_generate_features(task, dim).fact_table.tolist()
    pinned_total = 0
    for task, fs in cases:
        kept, index = kept_features(fs, task.domain_sizes)
        reference, reference_index = reference_kept_features(fs, task.domain_sizes)
        assert index.tolist() == reference_index.tolist()
        assert kept.fact_table.tolist() == reference.fact_table.tolist()
        assert kept.distinct.tolist() == reference.distinct.tolist()
        assert kept.dimension == reference.dimension
        pinned_total += len(fs) - len(kept)
        model = build_general_lp(task, fs)
        assert model.names[:len(kept)] == [weight_var_name(f) for f in kept.features]
        w = [float(i) for i in range(len(fs))]
        assert list(weights_to_strings(task, fs, w).items()) == \
            [(format_feature(task, f), w[i]) for i, f in enumerate(fs.features)]
    assert pinned_total > 0


def test_evaluate_potential(toy1):
    fs = generate_features(toy1, 1)
    w = w_for(fs, {((0, 0),): 1.0, ((1, 0),): 1.0})
    assert evaluate_potential(fs, w, toy1.initial_state) == 2.0
    assert evaluate_potential(fs, [0.0] * len(fs), (1, 0)) == 0.0


def test_evaluate_potential_false_feature(toy1):
    fs = generate_features(toy1, 2)
    w = w_for(fs, {((0, 0), (1, 0)): 5.0})
    assert evaluate_potential(fs, w, (0, 1)) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_truth_matrix_matches_true_in(seed):
    task = random_task(4, 3, 6, seed)
    states = list(iter_states(task.domain_sizes))
    for fs in (FeatureSet.of(()), generate_features(task, 1), generate_features(task, 2),
               random_features(task, 10, 3, seed)):
        truth = truth_matrix(fs, states)
        assert truth.shape == (len(states), len(fs))
        assert truth.tolist() == [[int(true_in(f, s)) for f in fs] for s in states]


def test_classify_dim2(toy1):
    fs = generate_features(toy1, 2)
    part = classify_features(fs, toy1.operators[0])
    facts = lambda indices: {fs.features[i].facts for i in indices}
    assert facts(part.irrelevant) == {((1, 0),), ((1, 1),)}
    assert facts(part.context_independent) == {((0, 0),), ((0, 1),)}
    assert len(part.context_dependent) == 4


def test_classify_dim1_has_no_context(toy1):
    fs = generate_features(toy1, 1)
    part = classify_features(fs, toy1.operators[0])
    assert part.context_dependent == ()
    assert len(part.irrelevant) == 2 and len(part.context_independent) == 2


def test_classify_three_variable_feature():
    from potplan.task import Operator
    fs = FeatureSet.of((Feature.of(((0, 0), (1, 0), (2, 0))),))
    touches_only_a = Operator("o", {0: 0}, {0: 1}, 1)
    part = classify_features(fs, touches_only_a)
    assert part.context_dependent == (0,)


def test_delta(toy1):
    oX = toy1.operators[0]
    assert delta(oX, Feature.of(((0, 0),)), (0, 0)) == 1
    assert delta(oX, Feature.of(((1, 0),)), (0, 0)) == 0
    assert delta(oX, Feature.of(((0, 1), (1, 0))), (0, 0)) == -1


def test_delta_independent(toy1):
    oX = toy1.operators[0]
    assert delta_independent(oX, Feature.of(((0, 0),))) == 1
    assert delta_independent(oX, Feature.of(((0, 1),))) == -1
    with pytest.raises(FeatureError):
        delta_independent(oX, Feature.of(((1, 0),)))


@pytest.mark.parametrize("seed", range(10))
def test_partition_is_complete(seed):
    task = random_task(4, 3, 5, seed, solvable=False)
    fs = random_features(task, 12, 3, seed)
    for op in task.operators:
        part = classify_features(fs, op)
        indices = part.irrelevant + part.context_independent + part.context_dependent
        assert sorted(indices) == list(range(len(fs)))


@pytest.mark.parametrize("seed", range(10))
def test_touching_matches_feature_scan(seed):
    """`classify` pairs each operator, in order, with the features sharing a
    variable with it, in increasing index."""
    task = random_task(4, 3, 5, seed, solvable=False)
    fs = random_features(task, 12, 3, seed)
    classes = classify(task, fs)
    assert classes.operator.tolist() == sorted(classes.operator.tolist())
    for k, op in enumerate(task.operators):
        touching = classes.feature[classes.starts[k]:classes.starts[k + 1]].tolist()
        expected = [i for i, f in enumerate(fs.features) if set(variables_of(f)) & set(op.eff)]
        assert touching == expected
        part = classify_features(fs, op)
        assert touching == sorted(part.context_independent + part.context_dependent)


@pytest.mark.parametrize("seed", range(5))
def test_irrelevant_features_never_change(seed):
    task = random_task(3, 3, 5, seed, solvable=False)
    fs = random_features(task, 10, 2, seed)
    ts = build_transition_system(task)
    partitions = [classify_features(fs, op) for op in task.operators]
    states = list(map(tuple, ts.states.tolist()))
    for src, op_id, _ in ts.transitions.tolist():
        state = states[src]
        for i in partitions[op_id].irrelevant:
            assert delta(task.operators[op_id], fs.features[i], state) == 0


@pytest.mark.parametrize("seed", range(5))
def test_context_independent_delta_is_constant(seed):
    task = random_task(3, 3, 5, seed, solvable=False)
    fs = random_features(task, 10, 2, seed)
    ts = build_transition_system(task)
    for op in task.operators:
        part = classify_features(fs, op)
        for i in part.context_independent:
            expected = delta_independent(op, fs.features[i])
            for s in map(tuple, ts.states.tolist()):
                if is_applicable(op, s):
                    assert delta(op, fs.features[i], s) == expected


@pytest.mark.parametrize("seed", range(5))
def test_potential_difference_is_weighted_delta_sum(seed):
    task = random_task(3, 3, 4, seed, solvable=False)
    fs = random_features(task, 8, 3, seed)
    import random as rnd
    rng = rnd.Random(seed)
    w = [round(rng.uniform(-5, 5), 3) for _ in range(len(fs))]
    ts = build_transition_system(task)
    states = list(map(tuple, ts.states.tolist()))
    for src, op_id, dst in ts.transitions.tolist():
        op = task.operators[op_id]
        s, t = states[src], states[dst]
        lhs = evaluate_potential(fs, w, s) - evaluate_potential(fs, w, t)
        rhs = sum(w[i] * delta(op, f, s) for i, f in enumerate(fs.features))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_feature_file_round_trip(toy1):
    fs = generate_features(toy1, 2)
    text = "\n".join(format_feature(toy1, f) for f in fs.features)
    parsed = parse_feature_file(toy1, text)
    assert parsed.features == fs.features
    assert parse_feature(toy1, "X=1 & Y=0").facts == ((0, 1), (1, 0))
    with pytest.raises(FeatureError):
        parse_feature(toy1, "X=5")
    with pytest.raises(FeatureError):
        parse_feature(toy1, "Z=0")


def test_weights_from_strings_rejects_nan(toy1):
    """JSON reads NaN as a number; as a weight it is rejected all the same."""
    fs, weights = weights_from_strings(toy1, {"X=0": 1, "Y=1": -2.5})
    assert [f.facts for f in fs] == [((0, 0),), ((1, 1),)] and weights == [1.0, -2.5]
    with pytest.raises(FeatureError, match="not a number"):
        weights_from_strings(toy1, {"X=0": 1.0, "Y=1": float("nan")})


def test_weights_from_strings_rejects_int_beyond_float(toy1):
    """A JSON integer too large for a float is a domain error, not an
    OverflowError from the NaN check."""
    with pytest.raises(FeatureError, match="weight of 'Y=1' is not a number"):
        weights_from_strings(toy1, {"X=0": 1, "Y=1": 10 ** 400})
