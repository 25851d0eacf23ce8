import pytest

from potplan.direct2d import (PotentialLpError, build_direct2d_lp, build_general_lp,
                              sample_states, solve_for_state, state_objective)
from potplan.features import (Feature, FeatureSet, evaluate_potential, generate_features,
                              kept_features)
from potplan.generator import random_task
from potplan.lp import solve
from potplan.search import PotentialHeuristic, validate
from potplan.task import Task, successor

from conftest import make_mixed_preconditions
from reference_builders import (classify_features, column_terms, delta_independent,
                                model_rows, random_features, reference_sample_states,
                                reference_samples_objective,
                                solve_exhaustive_for_state)


def rows_by_name(model):
    return {row.name: row for row in model_rows(model)}


def z_unknowns(model, op_index):
    prefix = f"z_o{op_index}_"
    return [name for name in model.names if name.startswith(prefix)]


def test_goal_row_dim1(toy1):
    row = model_rows(build_direct2d_lp(toy1, generate_features(toy1, 1)))[0]
    assert row.name == "goal" and row.relation == "<=" and row.rhs == 0.0
    assert row.expression.coefficients() == {"w_v0.1": 1.0, "w_v1.1": 1.0}


def test_goal_row_dim2(toy1):
    row = model_rows(build_direct2d_lp(toy1, generate_features(toy1, 2)))[0]
    assert row.name == "goal"
    assert row.expression.coefficients() == {
        "w_v0.1": 1.0, "w_v1.1": 1.0, "w_v0.1__v1.1": 1.0}


def test_goal_row_empty_feature_set(toy1):
    row = model_rows(build_direct2d_lp(toy1, FeatureSet.of(())))[0]
    assert row.name == "goal"
    assert row.expression.is_zero() and row.rhs == 0.0


def test_goal_row_requires_tnf(toy1):
    task = Task(toy1.variables, toy1.operators, toy1.initial_state, {0: 1})
    with pytest.raises(PotentialLpError):
        build_direct2d_lp(task, generate_features(task, 1))


def test_operator_rows_dim1(toy1):
    model = build_direct2d_lp(toy1, generate_features(toy1, 1))
    rows = rows_by_name(model)
    assert z_unknowns(model, 0) == []
    assert not [name for name in rows if name.startswith("z_o0_")]
    assert rows["op0"].expression.coefficients() == {"w_v0.0": 1.0, "w_v0.1": -1.0}
    assert rows["op0"].relation == "<=" and rows["op0"].rhs == 1.0


def test_operator_rows_dim2(toy1):
    model = build_direct2d_lp(toy1, generate_features(toy1, 2))
    rows = rows_by_name(model)
    z = "z_o0_v1"
    assert z_unknowns(model, 0) == [z]
    assert rows["op0"].expression.coefficients() == {
        "w_v0.0": 1.0, "w_v0.1": -1.0, z: 1.0}
    assert [name for name in rows if name.startswith("z_o0_")] == [f"{z}.0", f"{z}.1"]
    # z >= w(X=0 & Y=v) - w(X=1 & Y=v) for v in {0, 1}, where every pair with
    # a value-0 fact is pinned and has no column
    expected = [
        {z: 1.0},
        {z: 1.0, "w_v0.1__v1.1": 1.0},
    ]
    for value, coeffs in enumerate(expected):
        row = rows[f"{z}.{value}"]
        assert row.relation == ">=" and row.rhs == 0.0
        assert row.expression.coefficients() == coeffs


def test_operator_touching_all_variables(toy1):
    from potplan.task import Operator
    op = Operator("both", {0: 0, 1: 0}, {0: 1, 1: 1}, 1)
    task = Task(toy1.variables, [op], toy1.initial_state, toy1.goal)
    model = build_direct2d_lp(task, generate_features(task, 2))
    assert z_unknowns(model, 0) == []
    assert [row.name for row in model_rows(model)] == ["goal", "op0"]


def test_dimension_cap(toy1):
    fs = FeatureSet.of((Feature.of(((0, 0), (1, 0))), Feature.of(((0, 1),))))
    build_direct2d_lp(toy1, fs)  # dimension 2 is fine
    too_big = random_task(3, 2, 3, 0)
    fs3 = FeatureSet.of((Feature.of(((0, 0), (1, 0), (2, 0))),))
    with pytest.raises(PotentialLpError):
        build_direct2d_lp(too_big, fs3)


def test_solve_for_state_toy1(toy1):
    fs1 = generate_features(toy1, 1)
    assert solve_for_state(toy1, fs1, toy1.initial_state).value == pytest.approx(2.0)
    fs2 = generate_features(toy1, 2)
    assert solve_for_state(toy1, fs2, toy1.initial_state).value == pytest.approx(2.0)
    goal_state = (1, 1)
    assert solve_for_state(toy1, fs1, goal_state).value == pytest.approx(0.0)


def suite_task(seed):
    return random_task(4, 3, 6, seed)


@pytest.mark.parametrize("seed", range(15))
def test_equivalence_with_exhaustive_lp(seed):
    task = suite_task(seed)
    fs = generate_features(task, 2)
    compact = solve_for_state(task, fs, task.initial_state)
    reference = solve_exhaustive_for_state(task, fs, task.initial_state)
    assert compact.value == pytest.approx(reference.value, abs=1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_extracted_weights_are_sound(seed):
    task = suite_task(seed)
    fs = generate_features(task, 2)
    result = solve_for_state(task, fs, task.initial_state)
    heuristic = PotentialHeuristic(task, fs, result.weights)
    report = validate(task, heuristic)
    assert report.goal_aware and report.consistent and report.admissible, report


@pytest.mark.parametrize("seed", range(8))
def test_tightness_witness(seed):
    """For each operator there is a state (precondition plus per-variable
    argmax context values) where the bound used by the compact model is
    attained exactly."""
    task = suite_task(seed)
    fs = generate_features(task, 2)
    result = solve_for_state(task, fs, task.initial_state)
    w = result.weights
    for op in task.operators:
        part = classify_features(fs, op)
        independent = sum(w[i] * delta_independent(op, fs.features[i])
                          for i in part.context_independent)
        op_vars = set(op.eff)
        per_var: dict[int, dict[int, float]] = {}
        for i in part.context_dependent:
            f = fs.features[i]
            inside = tuple(fact for fact in f.facts if fact[0] in op_vars)
            (var, val), = tuple(fact for fact in f.facts if fact[0] not in op_vars)
            change = delta_independent(op, Feature(inside))
            per_var.setdefault(var, {})[val] = \
                per_var.setdefault(var, {}).get(val, 0.0) + w[i] * change
        bound = independent
        witness = list(task.initial_state)
        for var, val in op.pre.items():
            witness[var] = val
        for var in range(len(task.variables)):
            if var in op_vars:
                continue
            sums = per_var.get(var, {})
            values = [sums.get(v, 0.0) for v in range(task.variables[var].domain_size)]
            best = max(range(len(values)), key=lambda v: values[v])
            witness[var] = best
            bound += values[best]
        witness = tuple(witness)
        after = successor(witness, op)
        attained = evaluate_potential(fs, w, witness) - evaluate_potential(fs, w, after)
        assert attained == pytest.approx(bound, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_row_count_formula(seed):
    task = suite_task(seed)
    fs = generate_features(task, 2)
    model = build_direct2d_lp(task, fs)
    expected = 1
    for op in task.operators:
        expected += 1
        context_vars = {var for i in classify_features(fs, op).context_dependent
                        for var, _ in fs.features[i].facts if var not in op.eff}
        expected += sum(task.variables[v].domain_size for v in context_vars)
    assert len(model_rows(model)) == expected


@pytest.mark.parametrize("seed", range(6))
def test_z_vars_keyed_by_context_pairs(seed):
    task = suite_task(seed)
    fs = generate_features(task, 2)
    model = build_direct2d_lp(task, fs)
    for op_index, op in enumerate(task.operators):
        part = classify_features(fs, op)
        op_vars = set(op.eff)
        paired = set()
        for i in part.context_dependent:
            for var, _ in fs.features[i].facts:
                if var not in op_vars:
                    paired.add(var)
        assert z_unknowns(model, op_index) == \
            [f"z_o{op_index}_v{var}" for var in sorted(paired)]


def test_sampled_objective_is_deterministic(toy1):
    fs = generate_features(toy1, 2)
    model = build_direct2d_lp(toy1, fs)
    obj1 = state_objective(toy1, fs, *sample_states(toy1, 8, seed=3))
    obj2 = state_objective(toy1, fs, *sample_states(toy1, 8, seed=3))
    assert obj1 == obj2
    assert sample_states(toy1, 5, seed=3) == sample_states(toy1, 5, seed=3)
    model.set_objective(obj1)
    solution = solve(model).require_optimal()
    assert solution.objective_value <= 2.0 + 1e-6  # mean potential below max h*


@pytest.mark.parametrize("name", ["random0", "random1", "random2", "non_tnf0", "non_tnf1",
                                  "non_tnf2", "mixed_preconditions"])
def test_sample_states_match_operator_scan(name):
    """The walks of `sample_states` draw the same operators as walks over
    every operator of the task, also where effects have no precondition."""
    if name == "mixed_preconditions":
        task = make_mixed_preconditions()
    else:
        task = random_task(4, 3, 6, int(name[-1]), tnf=name.startswith("random"),
                           solvable=name.startswith("random"))
    for seed in range(3):
        assert sample_states(task, 20, seed) == reference_sample_states(task, 20, seed)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 5])
def test_state_objective_equals_repeated_addition(seed, dimension, count):
    task = random_task(4, 3, 6, seed)
    if dimension <= 2:
        fs = generate_features(task, dimension)
    else:
        fs = random_features(task, 10, 3, seed)
    model = build_general_lp(task, fs)
    kept = kept_features(fs, task.domain_sizes)[0]
    objective = state_objective(task, fs, *sample_states(task, count, seed))
    assert objective == column_terms(model, reference_samples_objective(task, kept, count, seed))


def test_goal_potential_reported(toy1):
    fs = generate_features(toy1, 1)
    result = solve_for_state(toy1, fs, toy1.initial_state)
    assert result.goal_potential <= 1e-6  # goal-aware by construction
    shifted = result.value - result.goal_potential
    assert shifted >= result.value - 1e-9


def test_objective_is_summed_in_column_order():
    """The objective value is the objective summed term by term in column
    order, which `solve_for_state` reports too.  On this task (50 of its 64
    states are dead ends) the free weights partly cancel, so the sum is the
    optimum 25 within 1e-9, not always exactly."""
    task = random_task(6, 2, 16, 26)
    fs = generate_features(task, 2)
    model = build_direct2d_lp(task, fs)
    model.set_objective(state_objective(task, fs, task.initial_state))
    solution = solve(model).require_optimal()
    by_column = 0.0
    for column, coefficient in sorted(model.objective.items()):
        by_column += coefficient * float(solution.x[column])
    value = solve_for_state(task, fs, task.initial_state).value
    assert value == solution.objective_value == by_column
    assert abs(value - 25.0) <= 1e-9
