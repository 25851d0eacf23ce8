import math
import os
import random
import stat
import sys

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import diags

from potplan import costpart, direct2d
from potplan.features import generate_features
from potplan.lp import (LinearExpression, LpError, LpModel, RELATIONS, Row,
                        MissingAssignmentError, SOLVER_ENV_VAR, SolverFailureError,
                        check_solution, evaluate, export_lp, parse_lp, solve)
from potplan.task import build_transition_system, exact_goal_distances

from test_model_equivalence import TASKS


def term(name, coef=1.0):
    return LinearExpression.term(name, coef)


def test_evaluate_printed_expression():
    e = LinearExpression.build(0.0, {"a": 3.0, "b": -2.0})
    assert evaluate(e, {"a": 1.0, "b": 1.0}) == 1.0


def test_evaluate_zero_and_single_term():
    assert evaluate(LinearExpression(), {"x": 99.0}) == 0.0
    assert evaluate(term("a", 8.0), {"a": 2.0}) == 16.0


def test_evaluate_missing_assignment():
    with pytest.raises(MissingAssignmentError):
        evaluate(term("a"), {})


def test_expression_algebra_drops_zeros():
    e = term("x") - term("x") + term("y", 2.0)
    assert e.coefficients() == {"y": 2.0}
    assert (0 * e).is_zero()


@pytest.mark.parametrize("seed", range(10))
def test_linearity(seed):
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    def rand_expr():
        return LinearExpression.build(rng.uniform(-5, 5),
                                      {n: rng.uniform(-5, 5) for n in names})
    e1, e2 = rand_expr(), rand_expr()
    alpha, beta = rng.uniform(-3, 3), rng.uniform(-3, 3)
    point = {n: rng.uniform(-10, 10) for n in names}
    combined = alpha * e1 + beta * e2
    assert evaluate(combined, point) == pytest.approx(
        alpha * evaluate(e1, point) + beta * evaluate(e2, point), abs=1e-9)


def test_solve_bounded():
    m = LpModel()
    m.add_unknown("x")
    m.add_row(term("x"), "<=", 3)
    m.set_objective("max", term("x"))
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.values["x"] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_solve_unbounded():
    m = LpModel()
    m.add_unknown("x")
    m.set_objective("max", term("x"))
    assert solve(m).status == "unbounded"


def test_solve_infeasible():
    m = LpModel()
    m.add_unknown("x")
    m.add_row(term("x"), "<=", 0)
    m.add_row(term("x"), ">=", 1)
    m.set_objective("max", term("x"))
    assert solve(m).status == "infeasible"


def test_solution_recheck():
    m = LpModel()
    m.add_unknown("x", 0, 10)
    m.add_row(term("x"), "<=", 3)
    m.set_objective("max", term("x"))
    sol = solve(m)
    assert check_solution(m, sol.values) == []
    assert check_solution(m, {"x": 5.0}) == ["c1"]

    m = LpModel()
    m.add_unknown("x", 0, 10)
    m.add_unknown("y")
    m.add_row(term("x") + term("y"), ">=", 2, "low")
    m.add_row(term("x") - term("y"), "=", 1, "tie")
    m.add_row(term("x"), "<=", 3)
    m.add_rows([0, 1, 3], [1, 0, 1], [1.0, 2.0, 1.0], [">=", "="], [-1.0, 3.5],
               ["bulk_low", "bulk_tie"])
    assert check_solution(m, {"x": 1.5, "y": 0.5}) == []
    # violated rows in row order, then violated bounds
    assert check_solution(m, {"x": -4.0, "y": -5.0}) == [
        "low", "bulk_low", "bulk_tie", "bound:x"]
    assert check_solution(m, {"x": 11.0, "y": 0.0}) == [
        "tie", "c3", "bulk_tie", "bound:x"]
    # slack is 1e-6 * max(1, |rhs|): 3e-6 off passes the "= 3.5" row but not "= 1"
    assert check_solution(m, {"x": 1.5, "y": 0.5 + 3e-6}) == ["tie"]
    assert check_solution(m, {"x": 1.5, "y": 0.5 + 4e-6}) == ["tie", "bulk_tie"]
    assert check_solution(m, {"x": float("nan"), "y": 0.5}) == [
        "low", "tie", "c3", "bulk_tie"]
    with pytest.raises(MissingAssignmentError):
        check_solution(m, {"x": 1.0})


def test_bound_active_flag():
    m = LpModel()
    m.add_unknown("x", -1.0, 1.0)
    m.add_unknown("y")
    m.add_row(term("y") - term("x"), "<=", 0)
    m.set_objective("max", term("y"))
    sol = solve(m)
    assert "x" in sol.bound_active and "y" not in sol.bound_active


def test_export_format():
    m = LpModel()
    m.add_unknown("x")
    m.add_row(term("x"), "<=", 3)
    m.set_objective("max", term("x"))
    doc = export_lp(m)
    lines = doc.splitlines()
    assert lines[0] == "Maximize"
    assert lines[1] == " obj: x"
    assert lines[2] == "Subject To"
    assert lines[3] == " c1: x <= 3.0"
    assert "Bounds" in lines
    assert " x free" in lines
    assert lines[-1] == "End"


def test_export_empty_model_skeleton():
    doc = export_lp(LpModel())
    for section in ("Maximize", "Subject To", "End"):
        assert section in doc.splitlines()
    parsed = parse_lp(doc)
    assert parsed.unknowns == [] and parsed.rows == []


def test_export_toy1_dim1_shape(toy1):
    from potplan.direct2d import build_direct2d_lp
    from potplan.features import generate_features
    built = build_direct2d_lp(toy1, generate_features(toy1, 1))
    doc = export_lp(built.model)
    assert len(built.model.unknowns) == 4
    assert len(built.model.rows) == 3
    lines = doc.splitlines()
    rows = lines[lines.index("Subject To") + 1:lines.index("Bounds")]
    assert len(rows) == 3 and all("<=" in r for r in rows)


def _random_model(seed):
    rng = random.Random(seed)
    m = LpModel()
    names = [f"x{i}" for i in range(rng.randint(1, 4))]
    for n in names:
        lo = rng.choice([-math.inf, round(rng.uniform(-5, 0), 3)])
        hi = rng.choice([math.inf, round(rng.uniform(0, 5), 3)])
        m.add_unknown(n, lo, hi)
    for _ in range(rng.randint(1, 5)):
        expr = LinearExpression.build(
            0.0, {n: round(rng.uniform(-4, 4), 3) for n in names if rng.random() < 0.8})
        m.add_row(expr, rng.choice(["<=", ">=", "="]), round(rng.uniform(-3, 6), 3))
    m.set_objective(rng.choice(["max", "min"]), LinearExpression.build(
        0.0, {n: round(rng.uniform(-2, 2), 3) for n in names}))
    return m


@pytest.mark.parametrize("seed", range(20))
def test_parse_export_round_trip(seed):
    m = _random_model(seed)
    back = parse_lp(export_lp(m))
    assert back.unknowns == m.unknowns
    assert back.objective_sense == m.objective_sense
    assert back.objective == m.objective
    original = {(r.expression, r.relation, r.rhs) for r in m.rows}
    parsed = {(r.expression, r.relation, r.rhs) for r in back.rows}
    assert parsed == original


@pytest.mark.parametrize("seed", range(15))
def test_row_permutation_invariance(seed):
    m = _random_model(seed)
    first = solve(m)
    if first.status != "optimal":
        return
    rng = random.Random(seed + 1)
    shuffled = LpModel()
    for name, lo, hi in m.unknowns:
        shuffled.add_unknown(name, lo, hi)
    rows = list(m.rows)
    rng.shuffle(rows)
    for row in rows:
        shuffled.add_row(row.expression, row.relation, row.rhs, row.name)
    shuffled.set_objective(m.objective_sense, m.objective)
    second = solve(shuffled)
    assert second.status == "optimal"
    assert second.objective_value == pytest.approx(first.objective_value,
                                                   rel=1e-9, abs=1e-9)


def test_model_validation():
    m = LpModel()
    m.add_unknown("x")
    with pytest.raises(LpError):
        m.add_unknown("x")
    with pytest.raises(LpError):
        m.add_unknown("2bad")
    with pytest.raises(LpError):
        m.add_unknown("y", 1.0, 0.0)
    with pytest.raises(LpError):
        m.add_row(term("ghost"), "<=", 0)
    with pytest.raises(LpError):
        m.add_row(term("x"), "<<", 0)
    m.add_unknown("y", 0.0, 1.0)
    m.add_unknown("z", 0.0, 1.0)
    with pytest.raises(LpError, match="undeclared unknown column 3"):
        m.add_rows([0, 2], [0, 3], [1.0, 1.0], "<=", 0)
    with pytest.raises(LpError, match="undeclared"):
        m.add_rows([0, 1], [-1], [1.0], "<=", 0)
    with pytest.raises(LpError, match="bad relation"):
        m.add_rows([0, 1, 2], [0, 1], [1.0, 1.0], ["<=", "=<"], 0)
    with pytest.raises(LpError):
        m.add_rows([0, 2], [0, 1], [1.0], "<=", 0)  # coefficient missing
    with pytest.raises(LpError):
        m.add_rows([0, 1, 2], [0, 1], [1.0, 1.0], "<=", [0.0, 1.0, 2.0])
    with pytest.raises(LpError):
        m.add_rows([0, 1], [0], [1.0], "<=", 0, ["a", "b"])
    assert len(m.rows) == 0  # nothing half-added
    # repeated columns are summed and zeros dropped, as LinearExpression does
    m.add_rows([0, 3, 4], [1, 0, 1, 2], [1.0, 2.0, -1.0, 0.0], ["<=", ">="], [1.0, 2.0])
    assert m.rows == [Row(LinearExpression.build(0.0, {"x": 2.0}), "<=", 1.0),
                      Row(LinearExpression(), ">=", 2.0)]
    m.freeze()
    with pytest.raises(LpError):
        m.add_unknown("w")
    with pytest.raises(LpError):
        m.add_rows([0, 1], [0], [1.0], "<=", 0)


def _seeded_model(seed):
    """Up to 5 columns, each free, bounded below, above or on both sides, and
    up to 6 rows of every relation, some seeds with none."""
    rng = random.Random(seed)
    m = LpModel()
    names = [f"x{i}" for i in range(rng.randint(1, 5))]
    for n in names:
        kind = rng.randrange(4)
        lo = round(rng.uniform(-5, 0), 3) if kind in (1, 3) else -math.inf
        hi = round(rng.uniform(0, 5), 3) if kind in (2, 3) else math.inf
        m.add_unknown(n, lo, hi)
    for _ in range(rng.choice([0, 1, 2, 3, 4, 6])):
        m.add_row(LinearExpression.build(
            0.0, {n: round(rng.uniform(-4, 4), 3) for n in names if rng.random() < 0.7}),
            rng.choice(RELATIONS), round(rng.uniform(-3, 6), 3))
    m.set_objective(rng.choice(["max", "min"]), LinearExpression.build(
        0.0, {n: round(rng.uniform(-2, 2), 3) for n in names}))
    return m


def _linprog(model):
    """The model solved by scipy's linprog, given the `<=`/`>=` rows (the
    `>=` ones negated) as A_ub and the `=` rows as A_eq."""
    c = np.zeros(len(model.unknowns))
    for name, coef in model.objective.terms:
        c[model.index_of(name)] = coef if model.objective_sense == "min" else -coef
    matrix, relations, rhs = model.row_table()
    sign = np.where(relations == RELATIONS.index(">="), -1.0, 1.0)
    signed = (diags(sign) @ matrix).tocsr()
    equality = relations == RELATIONS.index("=")
    kwargs = {}
    if not equality.all():
        kwargs.update(A_ub=signed[~equality], b_ub=(sign * rhs)[~equality])
    if equality.any():
        kwargs.update(A_eq=signed[equality], b_eq=rhs[equality])
    return linprog(c, bounds=[(lo, hi) for _, lo, hi in model.unknowns],
                   method="highs", **kwargs)


def test_solve_matches_linprog_bit_for_bit():
    """Same status as linprog on the same arrays, and on optimal models the
    same vertex to the last bit."""
    statuses, no_rows, free = set(), 0, 0
    for seed in range(120):
        m = _seeded_model(seed)
        ours, reference = solve(m), _linprog(m)
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[reference.status]
        assert ours.status == expected, seed
        if expected == "optimal":
            x = np.array([ours.values[name] for name, _, _ in m.unknowns])
            assert np.array_equal(x, reference.x), seed
        statuses.add(expected)
        no_rows += not m.rows
        free += any(math.isinf(lo) and math.isinf(hi) for _, lo, hi in m.unknowns)
    assert statuses == {"optimal", "infeasible", "unbounded"} and no_rows and free


def _objectives(model, seed, count=8):
    rng = random.Random(seed)
    names = [name for name, _, _ in model.unknowns]
    return [(rng.choice(["max", "min"]), LinearExpression.build(
        0.0, {n: round(rng.uniform(-2, 2), 3) for n in names if rng.random() < 0.8}))
        for _ in range(count)]


def _assert_same_result(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert abs(warm.objective_value - cold.objective_value) <= 1e-9


@pytest.mark.parametrize("seed", range(30))
def test_warm_resolves_match_cold_solves(seed):
    """One model re-solved for a sequence of objectives gives what a fresh
    copy solved once per objective gives."""
    warm = _seeded_model(seed)
    for sense, objective in _objectives(warm, seed):
        warm.set_objective(sense, objective)
        cold = _seeded_model(seed)
        cold.set_objective(sense, objective)
        _assert_same_result(solve(warm), solve(cold))


def test_warm_resolve_through_unbounded():
    """Bounded, then unbounded, then bounded again on one model; the session
    is kept across objective changes."""
    def model():
        m = LpModel()
        m.add_unknown("x")
        m.add_unknown("y", 0.0, 1.0)
        m.add_row(term("x") + term("y"), "<=", 3)
        m.add_row(term("y"), ">=", 0.5)
        return m

    warm = model()
    results = []
    for objective in (term("x"), -term("x"), term("x") + 2 * term("y"), 2 * term("y")):
        warm.set_objective("max", objective)
        session = warm._session
        result = solve(warm)
        assert session is None or warm._session is session
        cold = model()
        cold.set_objective("max", objective)
        _assert_same_result(result, solve(cold))
        results.append((result.status, result.objective_value))
    assert results == [("optimal", 2.5), ("unbounded", None), ("optimal", 4.0),
                       ("optimal", 2.0)]


def test_structure_change_after_solve_is_honoured():
    m = LpModel()
    m.add_unknown("x", 0.0, 10.0)
    m.add_row(term("x"), "<=", 3)
    m.set_objective("max", term("x"))
    assert solve(m).objective_value == 3.0
    m.add_row(term("x"), "<=", 1, "tighter")
    assert m._session is None
    assert solve(m).objective_value == 1.0
    m.add_rows([0, 1], [0], [1.0], ">=", 2.0)
    assert solve(m).status == "infeasible"
    m = LpModel()
    m.add_unknown("x", 0.0, 10.0)
    m.set_objective("max", term("x"))
    assert solve(m).objective_value == 10.0
    m.add_unknown("y", 0.0, 2.0)
    m.add_row(term("x") + term("y"), "<=", 4)
    m.set_objective("max", term("x") + 3 * term("y"))
    solution = solve(m)
    assert solution.values == {"x": 2.0, "y": 2.0} and solution.objective_value == 8.0


def _compare_models(task, ts, state):
    """The four `compare` models, maximizing at the given state."""
    patterns = costpart.all_patterns(len(task.variables), 2)
    models = []
    for dim in (1, 2):
        fs = generate_features(task, dim)
        built = direct2d.build_direct2d_lp(task, fs)
        built.model.set_objective("max", direct2d.state_objective(fs, built.weight_vars, state))
        models.append(built.model)
    for build in (costpart.build_ocp_lp, costpart.build_tcp_lp):
        models.append(build(ts, patterns, state).model)
    return models


@pytest.mark.parametrize("name", sorted(TASKS))
def test_compare_models_warm_equal_cold(name):
    """Each `compare` model built once and re-solved at every state, dead
    ends included, has the status and optimum of a fresh build per state."""
    task = TASKS[name]()
    ts = build_transition_system(task)
    warm = _compare_models(task, ts, ts.states[0])
    statuses = set()
    for state in ts.states:
        cold = _compare_models(task, ts, state)
        for model, fresh in zip(warm, cold):
            model.set_objective(fresh.objective_sense, fresh.objective)
            result = solve(model)
            _assert_same_result(result, solve(fresh))
            statuses.add(result.status)
    dead_end = math.inf in exact_goal_distances(ts)
    assert statuses == ({"optimal", "unbounded"} if dead_end else {"optimal"})


STUB_SOLVER = """\
#!{python}
import sys
sys.path.insert(0, {src!r})
from potplan.lp import parse_lp, _solve_scipy

model = parse_lp(open(sys.argv[1]).read())
solution = _solve_scipy(model)
with open(sys.argv[2], "w") as out:
    if solution.status != "optimal":
        out.write(solution.status + "\\n")
    else:
        for name, value in solution.values.items():
            out.write(f"{{name}} {{value!r}}\\n")
"""


def test_external_solver_adapter(tmp_path, monkeypatch):
    script = tmp_path / "stub_solver.py"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script.write_text(STUB_SOLVER.format(python=sys.executable,
                                         src=os.path.abspath(src)))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv(SOLVER_ENV_VAR, f"{sys.executable} {script}")

    m = LpModel()
    m.add_unknown("x", -1e8, 1e8)
    m.add_unknown("the_y")
    m.add_row(term("x") + term("the_y"), "<=", 4)
    m.add_row(term("the_y"), "<=", 1)
    m.set_objective("max", term("x") + 2 * term("the_y"))
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(5.0)
    assert sol.values["x"] == pytest.approx(3.0)

    unbounded = LpModel()
    unbounded.add_unknown("x")
    unbounded.set_objective("max", term("x"))
    assert solve(unbounded).status == "unbounded"


def test_external_solver_failure(tmp_path, monkeypatch):
    monkeypatch.setenv(SOLVER_ENV_VAR, "false")
    m = LpModel()
    m.add_unknown("x", 0, 1)
    m.set_objective("max", term("x"))
    with pytest.raises(SolverFailureError):
        solve(m)
