import itertools
import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs_core
from scipy.sparse import csc_matrix, diags

from potplan import costpart, direct2d
from potplan.features import generate_features, kept_features
from potplan.lp import (LinearExpression, LpError, LpModel, LpSolution, RELATIONS,
                        SolverFailureError, check_solution, export_lp, solve)
from potplan.task import build_transition_system, exact_goal_distances

from reference_builders import (MissingAssignmentError, Row, add_row, add_unknown, check_values,
                                column_terms, columns, evaluate, model_rows, parse_lp,
                                random_features, solution_values)

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
    add_unknown(m, "x")
    add_row(m, term("x"), "<=", 3)
    m.set_objective(column_terms(m, term("x")))
    sol = solve(m)
    assert sol.status == "optimal"
    assert solution_values(m, sol)["x"] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_solve_unbounded():
    m = LpModel()
    add_unknown(m, "x")
    m.set_objective(column_terms(m, term("x")))
    assert solve(m).status == "unbounded"


def test_solve_infeasible():
    m = LpModel()
    add_unknown(m, "x")
    add_row(m, term("x"), "<=", 0)
    add_row(m, term("x"), ">=", 1)
    m.set_objective(column_terms(m, term("x")))
    assert solve(m).status == "infeasible"


def test_solution_recheck():
    m = LpModel()
    add_unknown(m, "x", 0, 10)
    add_row(m, term("x"), "<=", 3)
    m.set_objective(column_terms(m, term("x")))
    sol = solve(m)
    assert check_solution(m, sol.x) == []
    assert check_values(m, {"x": 5.0}) == ["c1"]

    m = LpModel()
    add_unknown(m, "x", 0, 10)
    add_unknown(m, "y")
    add_row(m, term("x") + term("y"), ">=", 2, "low")
    add_row(m, term("x") - term("y"), "=", 1, "tie")
    add_row(m, term("x"), "<=", 3)
    m.add_rows([0, 1, 3], [1, 0, 1], [1.0, 2.0, 1.0], [">=", "="], [-1.0, 3.5],
               ["bulk_low", "bulk_tie"])
    assert check_values(m, {"x": 1.5, "y": 0.5}) == []
    # violated rows in row order, then violated bounds
    assert check_values(m, {"x": -4.0, "y": -5.0}) == [
        "low", "bulk_low", "bulk_tie", "bound:x"]
    assert check_values(m, {"x": 11.0, "y": 0.0}) == [
        "tie", "c3", "bulk_tie", "bound:x"]
    # slack is 1e-6 * max(1, |rhs|): 3e-6 off passes the "= 3.5" row but not "= 1"
    assert check_values(m, {"x": 1.5, "y": 0.5 + 3e-6}) == ["tie"]
    assert check_values(m, {"x": 1.5, "y": 0.5 + 4e-6}) == ["tie", "bulk_tie"]
    assert check_values(m, {"x": float("nan"), "y": 0.5}) == [
        "low", "tie", "c3", "bulk_tie"]
    with pytest.raises(MissingAssignmentError):
        check_values(m, {"x": 1.0})


def test_model_without_columns_is_decided_by_its_rows():
    """HiGHS rejects a model without columns; its rows read `0 <relation>
    rhs`, optimal with objective 0 when all hold and infeasible otherwise."""
    m = LpModel()
    solution = solve(m)
    assert (solution.status, solution.objective_value, solution_values(m, solution)) == \
        ("optimal", 0.0, {})
    m.add_rows([0, 0, 0], [], [], ["<=", "="], [1.0, 0.0], ["low", "tie"])
    m.set_objective({})
    solution = solve(m)
    assert (solution.status, solution.objective_value, solution.x.tolist()) == \
        ("optimal", 0.0, [])
    m.add_rows([0, 0], [], [], ">=", 1.0, ["high"])
    assert solve(m).status == "infeasible"


def test_objective_by_column():
    m = LpModel()
    add_unknown(m, "x", 0.0, 2.0)
    add_unknown(m, "y", 0.0, 1.0)
    m.set_objective({1: 3.0, 0: 0.0})  # the zero is dropped
    assert m.objective == {1: 3.0}
    solution = solve(m)
    assert solution.objective_value == 3.0 and solution.x.tolist()[1] == 1.0
    assert export_lp(m).splitlines()[1] == " obj: 3.0 y"
    with pytest.raises(LpError, match="undeclared unknown column 2"):
        m.set_objective({2: 1.0})
    with pytest.raises(LpError, match="constants in the objective"):
        parse_lp("Maximize\n obj: x + 2.0\nSubject To\nBounds\n x free\nEnd\n")


def test_extract_result_reads_the_kept_columns(toy1):
    """`extract_result` reads each kept weight from its column, reports
    every pinned weight as 0.0, and ignores the columns past the weights."""
    fs = generate_features(toy1, 1)
    kept, index = kept_features(fs, toy1.domain_sizes)
    assert len(kept) == 3 < len(fs)
    for x in ([1e8, 3.0, -2.5, 7.0], [0.0, -1.0, 0.5, -1e8]):
        result = direct2d.extract_result(fs, toy1, LpSolution("optimal", np.array(x), 4.0))
        expected = [0.0] * len(fs)
        for column, i in enumerate(index):
            expected[i] = x[column]
        assert result.weights == expected and result.value == 4.0, x


def test_export_format():
    m = LpModel()
    add_unknown(m, "x")
    add_row(m, term("x"), "<=", 3)
    m.set_objective(column_terms(m, term("x")))
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
    assert parsed.names == [] and model_rows(parsed) == []


def test_export_toy1_dim1_shape(toy1):
    from potplan.direct2d import build_direct2d_lp
    from potplan.features import generate_features
    model = build_direct2d_lp(toy1, generate_features(toy1, 1))
    doc = export_lp(model)
    assert len(model.names) == 3  # the atom Y=0 is pinned and has no column
    assert len(model_rows(model)) == 3
    lines = doc.splitlines()
    rows = lines[lines.index("Subject To") + 1:lines.index("Bounds")]
    assert len(rows) == 3 and all("<=" in r for r in rows)


VALID_LP = "Maximize\n obj: x\nSubject To\n c1: x <= 3.0\nBounds\n x free\nEnd\n"
# (name, text, what the error says) for shapes export_lp never writes, each
# one change to VALID_LP
REJECTED_LP = [(name, VALID_LP.replace(old, new), message) for name, old, new, message in [
    ("no-subject-to", "Subject To\n", "", "no line matching 'Subject To'"),
    ("no-bounds", "Bounds\n", "", "no line matching 'Bounds'"),
    ("no-end", "End\n", "", "no line matching 'End'"),
    ("no-objective", " obj: x\n", "", "no line matching 'obj:.*'"),
    ("reversed-bound", " x free", " 3.0 <= x", "line 6 '3.0 <= x'"),
    ("equality-bound", " x free", " x = 1.0", "line 6 'x = 1.0': not a bound"),
    ("mixed-bound", " x free", " 0.0 <= x >= 1.0", "line 6 '0.0 <= x >= 1.0': not a bound"),
    ("row-without-relation", " c1: x <= 3.0", " c1: x 3.0", "line 4 'c1: x 3.0': not a row"),
    ("row-unknown-not-in-bounds", " c1: x <= 3.0", " c1: x + y <= 3.0",
     "unknown 'y' is missing from Bounds"),
    ("objective-unknown-not-in-bounds", " obj: x", " obj: x - y",
     "line 2 'obj: x - y': unknown 'y' is missing from Bounds"),
    ("row-constant", " c1: x <= 3.0", " c1: x + 2.0 <= 3.0",
     "constants in a row's left-hand side"),
    ("objective-constant", " obj: x", " obj: x + 2.0",
     "constants in the objective are not supported"),
    ("repeated-unknown", " c1: x <= 3.0", " c1: x + x <= 3.0",
     "unknown 'x' is missing from Bounds or repeated"),
    ("comment", "Maximize\n", "\\ a comment\nMaximize\n", "line 1 '\\ a comment': not a line"),
    ("objective-continued", " obj: x\n", " obj: x\n + 2.0 x\n", "line 3 '+ 2.0 x': not a line"),
    ("line-after-end", "End\n", "End\n x free\n", "line 8 'x free': not a line")]]


def test_parse_lp_reads_only_what_export_lp_writes():
    """Every rejected shape is an LpError that names its line (or the
    missing one); the text they all change parses."""
    model = parse_lp(VALID_LP)
    assert columns(model) == [("x", -math.inf, math.inf)] and export_lp(model) == VALID_LP
    for _, text, message in REJECTED_LP:
        with pytest.raises(LpError) as error:
            parse_lp(text)
        assert message in str(error.value), text


def _random_model(seed):
    rng = random.Random(seed)
    m = LpModel()
    names = [f"x{i}" for i in range(rng.randint(1, 4))]
    for n in names:
        lo = rng.choice([-math.inf, round(rng.uniform(-5, 0), 3)])
        hi = rng.choice([math.inf, round(rng.uniform(0, 5), 3)])
        add_unknown(m, n, lo, hi)
    for _ in range(rng.randint(1, 5)):
        expr = LinearExpression.build(
            0.0, {n: round(rng.uniform(-4, 4), 3) for n in names if rng.random() < 0.8})
        add_row(m, expr, rng.choice(["<=", ">=", "="]), round(rng.uniform(-3, 6), 3))
    m.set_objective(_maximized(rng, len(names)))
    return m


def _maximized(rng, width):
    """A random objective by column, negated at random: maximizing it is
    minimizing its negation."""
    sign = rng.choice([1.0, -1.0])
    return {j: sign * round(rng.uniform(-2, 2), 3) for j in range(width)}


@pytest.mark.parametrize("seed", range(20))
def test_parse_export_round_trip(seed):
    m = _random_model(seed)
    back = parse_lp(export_lp(m))
    assert columns(back) == columns(m)
    assert back.objective == m.objective
    original = {(r.expression, r.relation, r.rhs) for r in model_rows(m)}
    parsed = {(r.expression, r.relation, r.rhs) for r in model_rows(back)}
    assert parsed == original


@pytest.mark.parametrize("seed", range(15))
def test_row_permutation_invariance(seed):
    m = _random_model(seed)
    first = solve(m)
    if first.status != "optimal":
        return
    rng = random.Random(seed + 1)
    shuffled = LpModel()
    for name, lo, hi in columns(m):
        add_unknown(shuffled, name, lo, hi)
    rows = list(model_rows(m))
    rng.shuffle(rows)
    for row in rows:
        add_row(shuffled, row.expression, row.relation, row.rhs)
    shuffled.set_objective(m.objective)
    second = solve(shuffled)
    assert second.status == "optimal"
    assert second.objective_value == pytest.approx(first.objective_value,
                                                   rel=1e-9, abs=1e-9)


def test_model_validation():
    m = LpModel()
    add_unknown(m, "x")
    with pytest.raises(LpError):
        add_unknown(m, "x")
    with pytest.raises(LpError):
        add_unknown(m, "2bad")
    with pytest.raises(LpError, match="lower bound 1.0 above upper 0.0"):
        m.set_bounds([0], [1.0], [0.0])
    with pytest.raises(LpError):
        add_row(m, term("ghost"), "<=", 0)
    with pytest.raises(LpError):
        add_row(m, term("x"), "<<", 0)
    add_unknown(m, "y", 0.0, 1.0)
    add_unknown(m, "z", 0.0, 1.0)
    with pytest.raises(LpError, match="undeclared unknown column 3"):
        m.add_rows([0, 2], [0, 3], [1.0, 1.0], "<=", 0, ["r"])
    with pytest.raises(LpError, match="undeclared"):
        m.add_rows([0, 1], [-1], [1.0], "<=", 0, ["r"])
    with pytest.raises(LpError, match="bad relation"):
        m.add_rows([0, 1, 2], [0, 1], [1.0, 1.0], ["<=", "=<"], 0, ["r", "s"])
    with pytest.raises(LpError):
        m.add_rows([0, 2], [0, 1], [1.0], "<=", 0, ["r"])  # coefficient missing
    with pytest.raises(LpError):
        m.add_rows([0, 1, 2], [0, 1], [1.0, 1.0], "<=", [0.0, 1.0, 2.0], ["r", "s"])
    with pytest.raises(LpError):
        m.add_rows([0, 1], [0], [1.0], "<=", 0, ["a", "b"])
    # a repeated column, one out of order and a zero coefficient are refused
    for indptr, cols, coefficients in [([0, 3, 4], [0, 1, 1, 2], [2.0, 1.0, -1.0, 1.0]),
                                       ([0, 2, 3], [1, 0, 2], [1.0, 2.0, 1.0]),
                                       ([0, 2, 3], [0, 1, 2], [2.0, 0.0, 1.0])]:
        with pytest.raises(LpError, match="rows: "):
            m.add_rows(indptr, cols, coefficients, ["<=", ">="], [1.0, 2.0], ["r", "s"])
    assert len(model_rows(m)) == 0  # nothing half-added
    # a canonical block is stored as given, empty rows included
    m.add_rows([0, 1, 1], [0], [2.0], ["<=", ">="], [1.0, 2.0], ["c1", "c2"])
    assert model_rows(m) == [Row(LinearExpression.build(0.0, {"x": 2.0}), "<=", 1.0, "c1"),
                             Row(LinearExpression(), ">=", 2.0, "c2")]


def test_add_unknowns_checks_every_name():
    """Columns are declared free, by name only; bounds come in through
    `set_bounds` alone."""
    m = LpModel()
    m.add_unknowns(["a", "b"])
    m.set_bounds([0], [0.0], [1.0])
    for names, message in [(["c", "a"], "'a' declared twice"), (["c", "c"], "'c' declared twice"),
                           (["c", "2bad"], "not LP-file safe"), (["c", "x\n"], "not LP-file safe"),
                           (["c", "free"], "not LP-file safe")]:
        with pytest.raises(LpError, match=message):
            m.add_unknowns(names)
        # nothing is declared when one name fails
        assert m.names == ["a", "b"]
        assert m.lower.tolist() == [0.0, -math.inf] and m.upper.tolist() == [1.0, math.inf]
    with pytest.raises(TypeError):
        m.add_unknowns(["c"], [0.0], [1.0])  # no bounds at declaration
    assert m.names == ["a", "b"]
    m.add_unknowns(["c", "d"])
    assert columns(m)[2:] == [("c", -math.inf, math.inf), ("d", -math.inf, math.inf)]


def test_input_that_holds_no_number_is_refused_where_it_enters():
    """A column whose bounds hold no number, a coefficient or right-hand
    side that is not finite and a row name that `export_lp` cannot write
    back as that row's own are LpErrors, and nothing is added."""
    m = LpModel()
    m.add_unknowns(["x", "y"])
    m.set_bounds([0, 1], [0.0, 0.0], [10.0, 1.0])
    for lower, upper, message in [(math.nan, 1.0, r"'y': bounds \[nan, 1.0\]"),
                                  (0.0, math.nan, "'y': bounds"),
                                  (math.inf, math.inf, r"'y': bounds \[inf, inf\] hold no number"),
                                  (-math.inf, -math.inf, "'y': bounds")]:
        with pytest.raises(LpError, match=message):
            m.set_bounds([0, 1], [0.0, lower], [1.0, upper])
    for coefficients, rhs, names, message in [
            ([math.nan, 1.0], 1.0, ["r", "s"], "not finite"),
            ([1.0, math.inf], 1.0, ["r", "s"], "not finite"),
            ([-math.inf, 1.0], 1.0, ["r", "s"], "not finite"),
            ([1.0, 1.0], [1.0, math.nan], ["r", "s"], "not finite"),
            ([1.0, 1.0], [math.inf, 3.0], ["r", "s"], "not finite"),
            ([1.0, 1.0], [1.0, -math.inf], ["r", "s"], "not finite"),
            ([1.0, 1.0], 1.0, ["ok", "my row"], "'my row' is not LP-file safe"),
            ([1.0, 1.0], 1.0, ["ok", "a:b"], "'a:b'"),
            ([1.0, 1.0], 1.0, ["", "c1"], "row name '' is not LP-file safe"),
            ([1.0, 1.0], 1.0, ["c2", ""], "row name ''"),
            ([1.0, 1.0], 1.0, ["a\nb", "c"], "'a\nb'")]:
        with pytest.raises(LpError, match=message):
            m.add_rows([0, 1, 2], [0, 0], coefficients, "<=", rhs, names)
    for coefficient in (math.inf, -math.inf, math.nan):
        with pytest.raises(LpError, match="objective: a coefficient is not finite"):
            m.set_objective({0: coefficient})
    assert columns(m) == [("x", 0.0, 10.0), ("y", 0.0, 1.0)]
    assert model_rows(m) == [] and m.objective == {}
    # an infinite right-hand side is refused also where no column could meet it
    for relation, rhs in itertools.product(RELATIONS, (math.inf, -math.inf)):
        empty = LpModel()
        with pytest.raises(LpError, match="not finite"):
            empty.add_rows([0, 0], [], [], relation, rhs, ["r"])
        assert model_rows(empty) == [], (relation, rhs)


@pytest.mark.parametrize("relation, rhs", [(">=", math.inf), ("=", math.inf),
                                           ("=", -math.inf), ("<=", -math.inf)],
                         ids=["ge_inf", "eq_inf", "eq_minus_inf", "le_minus_inf"])
def test_row_no_finite_value_meets_is_infeasible(relation, rhs):
    """A row whose infinite right-hand side no finite left-hand side meets
    is refused where it enters, and the model keeps its optimum."""
    _assert_refused([0, 1], [0], [1.0], relation, rhs)


def _assert_refused(indptr, cols, coefficients, relation, rhs):
    """The block is an LpError that adds nothing: to a new model, and to a
    solved one, whose HiGHS session keeps its row count and optimum."""
    for warm in (False, True):
        m = LpModel()
        m.add_unknowns(["x", "y"])
        m.set_bounds([0, 1], [0.0, 0.0], [1.0, 1.0])
        m.add_rows([0, 1], [1], [1.0], "<=", 0.5, ["held"])
        m.set_objective({0: 1.0, 1: 1.0})
        if warm:
            assert solve(m).objective_value == 1.5
        with pytest.raises(LpError, match="rows: "):
            m.add_rows(indptr, cols, coefficients, relation, rhs,
                       [f"r{i}" for i in range(len(indptr) - 1)])
        assert [row.name for row in model_rows(m)] == ["held"], warm
        if warm:
            assert m._session.highs.getLp().num_row_ == 1
        assert solve(m).objective_value == 1.5, warm


@pytest.mark.parametrize("indptr, cols, coefficients, relation, rhs", [
    ([0, 2], [1, 0], [1.0, 1.0], "<=", 1.0), ([0, 2], [0, 0], [1.0, 1.0], "<=", 1.0),
    ([0, 1, 3], [0, 0, 1], [1.0, 0.0, 1.0], "<=", 1.0),
    ([0, 1], [0], [1.0], "<=", math.inf), ([0, 1], [0], [1.0], ">=", -math.inf)],
    ids=["out-of-order", "repeated", "zero", "le_inf", "ge_minus_inf"])
def test_refused_blocks_add_nothing(indptr, cols, coefficients, relation, rhs):
    """A block with columns out of order or repeated within a row, a zero
    coefficient or an infinite right-hand side that every row meets is
    refused too: `add_rows` takes canonical finite rows only."""
    _assert_refused(indptr, cols, coefficients, relation, rhs)


def test_rows_highs_refuses_are_a_solver_failure():
    """HiGHS refuses a coefficient of 1e16 (finite, so the model takes it):
    a new model's solve raises, and on a live session `add_rows` raises and
    adds the row to neither."""
    m = LpModel()
    add_unknown(m, "x", 0.0, 1.0)
    m.add_rows([0, 1], [0], [1e16], "<=", 1.0, ["huge"])
    m.set_objective({0: 1.0})
    with pytest.raises(SolverFailureError, match="HiGHS refused the rows"):
        solve(m)
    m = LpModel()
    add_unknown(m, "x", 0.0, 1.0)
    m.set_objective({0: 1.0})
    assert solve(m).objective_value == 1.0
    with pytest.raises(SolverFailureError, match="HiGHS refused the rows"):
        m.add_rows([0, 1], [0], [1e16], "<=", 1.0, ["huge"])
    assert model_rows(m) == [] and m._session.highs.getLp().num_row_ == 0
    m.add_rows([0, 1], [0], [2.0], "<=", 1.0, ["half"])
    assert solve(m).objective_value == 0.5


def test_rows_need_names():
    """Every row has a name of its own: a block without names, or with an
    empty one, is refused and adds nothing; any LP-file safe name, of the
    form `c<digits>` at any position included, is written and read back as
    it is, so export and parse are inverse on any model."""
    m = LpModel()
    add_unknown(m, "x", 0.0, 1.0)
    with pytest.raises(TypeError):
        m.add_rows([0, 1], [0], [1.0], "<=", 1.0)  # no names
    with pytest.raises(LpError, match="row name '' is not LP-file safe"):
        m.add_rows([0, 1, 2], [0, 0], [1.0, 2.0], "<=", 1.0, ["named", ""])
    assert model_rows(m) == []
    m.add_rows([0, 1, 2, 3, 4], [0, 0, 0, 0], [1.0, 2.0, 3.0, 4.0], "<=", 1.0,
               ["c3", "named", "c1", "c7x"])
    text = export_lp(m)
    assert [line.split(":")[0] for line in text.splitlines()[3:7]] == [
        " c3", " named", " c1", " c7x"]
    back = parse_lp(text)
    assert back.row_names == m.row_names == ["c3", "named", "c1", "c7x"]
    assert export_lp(back) == text


@pytest.mark.parametrize("seed", range(20))
def test_add_rows_stores_canonical_rows(seed):
    """A canonical block (columns increasing within each row, no zeros) is
    stored as given, empty rows anywhere included; the same block with one
    row's terms shuffled out of order is refused and adds nothing."""
    rng = random.Random(seed)
    width = 6
    rows = [[(j, float(rng.choice([-2, -1, 1, 3])))
             for j in sorted(rng.sample(range(width), rng.choice([0, 1, 3, 5])))]
            for _ in range(rng.randint(1, 6))]
    m = LpModel()
    m.add_unknowns([f"x{j}" for j in range(width)])
    m.set_bounds(range(width), [-1.0] * width, [1.0] * width)

    def add(block):
        m.add_rows(np.cumsum([0] + [len(row) for row in block]),
                   [j for row in block for j, _ in row], [c for row in block for _, c in row],
                   "<=", 1.0, [f"r{i}" for i in range(len(block))])

    add(rows)
    longest = max(range(len(rows)), key=lambda i: len(rows[i]))
    if len(rows[longest]) > 1:
        shuffled = list(rows)
        shuffled[longest] = rows[longest][1:] + rows[longest][:1]
        with pytest.raises(LpError, match="columns do not increase within a row"):
            add(shuffled)
    matrix = m.row_table()[0]
    assert matrix.shape[0] == len(rows)
    for i, row in enumerate(rows):
        stored = slice(matrix.indptr[i], matrix.indptr[i + 1])
        assert list(zip(matrix.indices[stored].tolist(), matrix.data[stored].tolist())) == row


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
        add_unknown(m, n, lo, hi)
    for _ in range(rng.choice([0, 1, 2, 3, 4, 6])):
        add_row(m, LinearExpression.build(
            0.0, {n: round(rng.uniform(-4, 4), 3) for n in names if rng.random() < 0.7}),
            rng.choice(RELATIONS), round(rng.uniform(-3, 6), 3))
    m.set_objective(_maximized(rng, len(names)))
    return m


def _linprog(model, method="highs"):
    """The model solved by scipy's linprog, which minimizes, for the
    negated objective, given the `<=`/`>=` rows (the `>=` ones negated) as
    A_ub and the `=` rows as A_eq."""
    c = np.zeros(len(model.names))
    for column, coef in model.objective.items():
        c[column] = -coef
    matrix, relations, rhs = model.row_table()
    sign = np.where(relations == RELATIONS.index(">="), -1.0, 1.0)
    signed = (diags(sign) @ matrix).tocsr()
    equality = relations == RELATIONS.index("=")
    kwargs = {}
    if not equality.all():
        kwargs.update(A_ub=signed[~equality], b_ub=(sign * rhs)[~equality])
    if equality.any():
        kwargs.update(A_eq=signed[equality], b_eq=rhs[equality])
    return linprog(c, bounds=list(zip(model.lower, model.upper)),
                   method=method, **kwargs)


def test_solve_matches_linprog():
    """Same status as linprog on the same arrays, and on optimal models the
    same vertex within 1e-12 relative (HiGHS gets the rows in model order,
    not in linprog's order, so the last bits may differ)."""
    statuses, no_rows, free = set(), 0, 0
    for seed in range(120):
        m = _seeded_model(seed)
        ours, reference = solve(m), _linprog(m)
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[reference.status]
        assert ours.status == expected, seed
        if expected == "optimal":
            np.testing.assert_allclose(ours.x, reference.x, rtol=1e-12, atol=0, err_msg=seed)
        statuses.add(expected)
        no_rows += not model_rows(m)
        free += bool(np.any(np.isinf(m.lower) & np.isinf(m.upper)))
    assert statuses == {"optimal", "infeasible", "unbounded"} and no_rows and free


# HiGHS's simplex_strategy and presolve values: primal simplex on the model
# as built, dual simplex after presolve
PRIMAL, DUAL = (4, "off"), (1, "on")


def _cold_strategy(model):
    """The simplex strategy and presolve option of the first run of the
    model's session, read after it and before a warm run."""
    highs = model._session.highs
    return highs.getOptionValue("simplex_strategy")[1], highs.getOptionValue("presolve")[1]


def _origin_feasible_model(seed):
    """Up to 6 columns, each free or with 0 as a bound, and 1 to 8 rows that
    hold at x = 0: `<=` with rhs >= 0, `>=` with rhs <= 0, `=` with rhs 0."""
    rng = random.Random(f"origin:{seed}")
    m = LpModel()
    width = rng.randint(1, 6)
    bounds = [rng.choice([(-math.inf, math.inf)] * 3 + [
        (0.0, math.inf), (-math.inf, 0.0), (0.0, round(rng.uniform(0.5, 5), 3)),
        (round(rng.uniform(-5, -0.5), 3), 0.0)]) for _ in range(width)]
    m.add_unknowns([f"x{j}" for j in range(width)])
    m.set_bounds(range(width), *zip(*bounds))
    for _ in range(rng.randint(1, 8)):
        relation = rng.choice(RELATIONS)
        rhs = {"<=": round(rng.uniform(0, 6), 3), ">=": round(rng.uniform(-6, 0), 3),
               "=": 0.0}[relation]
        columns = [j for j in range(width) if rng.random() < 0.7]
        m.add_rows([0, len(columns)], columns,
                   [round(rng.uniform(-4, 4), 3) for _ in columns], relation, rhs,
                   [f"c{len(m.row_names) + 1}"])
    m.set_objective(_maximized(rng, width))
    return m


def test_origin_feasible_models_start_primal_and_match_dual_simplex():
    """A model whose origin is feasible gets a primal first run without
    presolve, with the status and optimum (within 1e-9 relative) of scipy's
    dual simplex."""
    statuses = set()
    for seed in range(80):
        m = _origin_feasible_model(seed)
        ours, reference = solve(m), _linprog(m, "highs-ds")
        assert _cold_strategy(m) == PRIMAL, seed
        expected = {0: "optimal", 3: "unbounded"}[reference.status]
        assert ours.status == expected, seed
        if expected == "optimal":
            assert ours.objective_value == pytest.approx(-reference.fun, rel=1e-9,
                                                         abs=1e-9), seed
        statuses.add(expected)
    assert statuses == {"optimal", "unbounded"}


@pytest.mark.parametrize("bounds, relation, rhs", [
    ((-math.inf, math.inf), ">=", 1.0), ((-math.inf, math.inf), "<=", -1.0),
    ((-math.inf, math.inf), "=", 2.0), ((1.0, 5.0), "<=", 10.0),
    ((-math.inf, 5.0), "<=", 10.0), ((-3.0, 3.0), ">=", -10.0)],
    ids=["row-ge", "row-le", "row-eq", "lower-1", "upper-5", "boxed"])
def test_origin_infeasible_models_start_dual(bounds, relation, rhs):
    """A row that fails at x = 0, or a column whose bounds leave out 0 or
    do not include 0 as a bound, keeps the dual first run after presolve."""
    m = LpModel()
    add_unknown(m, "x", *bounds)
    m.add_rows([0, 1], [0], [1.0], relation, rhs, ["row"])
    m.set_objective({0: 1.0 if relation == "<=" else -1.0})
    assert solve(m).status == "optimal" and _cold_strategy(m) == DUAL


class _UndecidedOnce:
    """A HiGHS object whose next run reports "Unknown", as a warm start from
    the basis an unbounded objective left can."""

    def __init__(self, highs):
        self._highs, self._undecided = highs, True

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        if self._undecided:
            self._undecided = False
            return highs_core.HighsModelStatus.kUnknown
        return self._highs.getModelStatus()


def _restart(model):
    """Solve the model with its session's next run undecided, so that it is
    solved again on a fresh session; assert that it was, and return the
    solution."""
    session = model._session
    session.highs = _UndecidedOnce(session.highs)
    solution = solve(model)
    assert not session.highs._undecided and model._session is not session
    return solution


def test_rows_appended_to_an_origin_feasible_model_update_the_rule():
    """A row appended after a solve that fails at x = 0 goes to the live
    session, whose next run is warm; the session that replaces it after an
    undecided warm run starts dual after presolve, as a fresh copy's would.
    The model's answer is unchanged by it."""
    m = LpModel()
    m.add_unknowns(["x"])
    m.add_rows([0, 1], [0], [1.0], "<=", 4.0, ["high"])
    m.set_objective({0: 1.0})
    assert solve(m).objective_value == 4.0 and _cold_strategy(m) == PRIMAL
    session = m._session
    m.add_rows([0, 1], [0], [1.0], ">=", 1.0, ["low"])
    assert solve(m).objective_value == 4.0 and m._session is session
    assert _restart(m).objective_value == 4.0
    assert not m._session.origin_feasible and _cold_strategy(m) == DUAL


@pytest.mark.parametrize("change, expected", [
    (lambda m: m.add_rows([0, 1], [1], [1.0], ">=", 0.0, ["y_low"]), PRIMAL),
    (lambda m: m.add_rows([0, 1], [1], [1.0], ">=", 0.5, ["y_low"]), DUAL),
    (lambda m: m.set_bounds([1], [0.5], [1.0]), DUAL)],
    ids=["holds-at-0", "fails-at-0", "bounds-away-from-0"])
def test_undecided_warm_run_restarts_by_the_cold_rule(change, expected):
    """A warm run that ends undecided runs again on a new session, by the
    rule of a first run on the model as it is then: after a first primal
    run without presolve, a row appended that fails at x = 0, or bounds set
    away from 0, make the restart dual simplex after presolve."""
    m = LpModel()
    m.add_unknowns(["x", "y"])
    m.set_bounds([1], [0.0], [1.0])
    m.add_rows([0, 2], [0, 1], [1.0, 1.0], "<=", 3.0, ["sum"])
    m.set_objective({0: 1.0})
    assert solve(m).objective_value == 3.0 and _cold_strategy(m) == PRIMAL
    change(m)
    m.set_objective({0: 1.0, 1: 2.0})
    assert _restart(m).objective_value == 4.0
    assert _cold_strategy(m) == expected


def test_every_model_starts_primal():
    """The direct2d, bucket and exhaustive models, whose weights and
    elimination unknowns are free, and TCP and OCP, whose columns are all
    free, have rows that hold at 0: every first run is primal simplex on
    the model as built, with presolve off.  HiGHS holds one row fewer per
    sign row and the model's bounds intersected with the sign rows' bounds
    at 0, each of which still holds 0 as a bound or leaves the column
    free."""
    task = TASKS["random0"]()
    ts = build_transition_system(task)
    state = task.initial_state
    fs2, fs3 = generate_features(task, 2), random_features(task, 10, 3, 0)
    potential = [(direct2d.build_direct2d_lp(task, fs2), fs2),
                 (direct2d.build_general_lp(task, fs3), fs3),
                 (direct2d.build_exhaustive_lp(task, fs2, ts), fs2)]
    models = []
    for model, fs in potential:
        assert np.all(model.lower == -math.inf) and np.all(model.upper == math.inf)
        model.set_objective(direct2d.state_objective(task, fs, state))
        solve(model).require_optimal()
        assert _cold_strategy(model) == PRIMAL
        models.append(model)
    patterns = costpart.all_patterns(len(task.variables))
    for build in (costpart.build_tcp_lp, costpart.build_ocp_lp):
        model = build(ts, patterns, state).model
        solve(model).require_optimal()
        assert _cold_strategy(model) == PRIMAL
        models.append(model)
    signs = []
    for model in models:
        lower, upper, count = _effective_bounds(model)
        held = model._session.highs.getLp()
        assert held.num_row_ == model.row_table()[0].shape[0] - count
        assert (list(held.col_lower_), list(held.col_upper_)) == (lower.tolist(), upper.tolist())
        free = (lower == -math.inf) & (upper == math.inf)
        assert np.all(free | ((lower == 0) & (upper >= 0)) | ((upper == 0) & (lower <= 0)))
        signs.append(count)
    assert signs[0] and signs[-2] and signs[-1], signs  # direct2d, TCP, OCP


def _effective_bounds(model):
    """The model's column bounds intersected with the bounds at 0 of its
    sign rows (one term, right-hand side 0), found row by row, and the
    number of sign rows."""
    matrix, relations, rhs = model.row_table()
    lower, upper, count = model.lower.copy(), model.upper.copy(), 0
    for i in range(matrix.shape[0]):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        if end - start != 1 or rhs[i] != 0:
            continue
        count += 1
        j, relation = matrix.indices[start], RELATIONS[relations[i]]
        if matrix.data[start] < 0:
            relation = {"<=": ">=", "=": "=", ">=": "<="}[relation]
        if relation in (">=", "="):
            lower[j] = max(lower[j], 0.0)
        if relation in ("<=", "="):
            upper[j] = min(upper[j], 0.0)
    return lower, upper, count


def test_sign_rows_of_a_direct2d_model_are_bounds():
    """HiGHS holds one row fewer per sign row of a direct2d model, and
    every elimination unknown `z >= 0` with an empty candidate gets the
    lower bound 0 in its place; the model keeps every row."""
    task = TASKS["random0"]()
    fs = generate_features(task, 2)
    model = direct2d.build_direct2d_lp(task, fs)
    model.set_objective(direct2d.state_objective(task, fs, task.initial_state))
    solve(model).require_optimal()
    matrix, relations, rhs = model.row_table()
    sizes = np.diff(matrix.indptr)
    sign = np.flatnonzero((sizes == 1) & (rhs == 0))
    at = matrix.indices[matrix.indptr[sign]]
    assert sign.size and all(model.names[j].startswith("z") for j in at)
    assert set(relations[sign].tolist()) == {RELATIONS.index(">=")}
    assert np.all(matrix.data[matrix.indptr[sign]] > 0)
    held = model._session.highs.getLp()
    assert held.num_row_ == matrix.shape[0] - sign.size
    lower = np.array(held.col_lower_)
    assert np.all(lower[at] == 0) and np.all(np.array(held.col_upper_)[at] == math.inf)
    assert np.all(np.delete(lower, at) == -math.inf)


@pytest.mark.parametrize("relation, coefficient, bounds", [
    (">=", 2.0, (0.0, math.inf)), (">=", -2.0, (-math.inf, 0.0)),
    ("<=", 2.0, (-math.inf, 0.0)), ("<=", -2.0, (0.0, math.inf)),
    ("=", 2.0, (0.0, 0.0)), ("=", -2.0, (0.0, 0.0))],
    ids=["ge", "ge-negative", "le", "le-negative", "eq", "eq-negative"])
def test_sign_row_is_a_bound_at_zero(relation, coefficient, bounds):
    """`a·x >= 0`, `a·x <= 0` and `a·x = 0` reach HiGHS as the bound at 0
    they state on x, mirrored for a < 0; the row with two terms stays a
    row, and the optimum is that of scipy's linprog on the same rows."""
    m = LpModel()
    m.add_unknowns(["x", "y"])
    m.add_rows([0, 2, 3], [0, 1, 0], [1.0, 1.0, coefficient], ["<=", relation], [4.0, 0.0],
               ["sum", "sign"])
    m.add_rows([0, 1], [1], [1.0], "<=", 3.0, ["y_high"])
    m.set_objective({0: 1.0, 1: 2.0} if bounds[1] == 0 else {0: -1.0, 1: 1.0})
    result = solve(m)
    held = m._session.highs.getLp()
    assert held.num_row_ == 2
    assert (held.col_lower_[0], held.col_upper_[0]) == bounds
    assert (held.col_lower_[1], held.col_upper_[1]) == (-math.inf, math.inf)
    reference = _linprog(m)
    assert result.status == "optimal" and reference.status == 0
    assert result.objective_value == pytest.approx(-reference.fun, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("rhs", [1.0, -1.0, 1e-9])
def test_one_term_row_away_from_zero_stays_a_row(rhs):
    """A one-term row whose right-hand side is not 0 stays a row: a bound
    away from 0 would end the start at the origin."""
    m = LpModel()
    m.add_unknowns(["x"])
    m.add_rows([0, 1], [0], [2.0], "<=", rhs, ["one_term"])
    m.set_objective({0: 1.0})
    assert solve(m).objective_value == rhs / 2
    held = m._session.highs.getLp()
    assert held.num_row_ == 1
    assert (held.col_lower_[0], held.col_upper_[0]) == (-math.inf, math.inf)


@pytest.mark.parametrize("relation, coefficient", [("<=", 1.0), (">=", -3.0), ("=", 2.0)])
def test_sign_row_against_a_model_bound_is_infeasible(relation, coefficient):
    """x in [1, 2] with a sign row that keeps x at or below 0: HiGHS gets
    the empty bounds [1, 0] and the model is infeasible, as with the row."""
    m = LpModel()
    add_unknown(m, "x", 1.0, 2.0)
    m.add_rows([0, 1], [0], [coefficient], relation, 0.0, ["sign"])
    m.set_objective({0: 1.0})
    assert solve(m).status == "infeasible"
    held = m._session.highs.getLp()
    assert (held.num_row_, held.col_lower_[0], held.col_upper_[0]) == (0, 1.0, 0.0)
    assert not m._session.origin_feasible and _cold_strategy(m) == DUAL


def _two_rows():
    """max x + 2y over x + y <= 4 and y - x <= 2, both free: 7 at (1, 3)."""
    m = LpModel()
    m.add_unknowns(["x", "y"])
    m.add_rows([0, 2, 4], [0, 1, 0, 1], [1.0, 1.0, -1.0, 1.0], "<=", [4.0, 2.0],
               ["sum", "difference"])
    m.set_objective({0: 1.0, 1: 2.0})
    return m


def test_sign_rows_appended_after_a_solve_are_warm_rows():
    """A sign row appended after a solve becomes a row of the live session,
    which keeps its basis and its bounds: the next run is warm (no pivot
    when the last optimum meets it) and ends at the optimum of a fresh copy
    with the same rows, solved cold, whose session holds them as bounds."""
    warm = _two_rows()
    assert solve(warm).objective_value == 7.0
    session, appended = warm._session, []
    for row, optimum, bounds in [((0, 1.0, ">="), 7.0, (0.0, math.inf)),
                                 ((1, 3.0, "<="), 4.0, (-math.inf, 0.0))]:
        column, coefficient, relation = row
        warm.add_rows([0, 1], [column], [coefficient], relation, 0.0, ["sign"])
        appended.append(row)
        held = session.highs.getLp()
        assert warm._session is session and session.highs.getBasis().valid
        assert held.num_row_ == 2 + len(appended)
        assert (list(held.col_lower_), list(held.col_upper_)) == ([-math.inf] * 2, [math.inf] * 2)
        result = solve(warm)
        assert result.objective_value == optimum
        if optimum == 7.0:
            assert session.highs.getInfo().simplex_iteration_count == 0
        cold = _two_rows()
        for column, coefficient, relation in appended:
            cold.add_rows([0, 1], [column], [coefficient], relation, 0.0, ["sign"])
        cold_result = solve(cold)
        cold_held = cold._session.highs.getLp()
        assert cold_held.num_row_ == 2
        assert (cold_held.col_lower_[column], cold_held.col_upper_[column]) == bounds
        assert cold_result.objective_value == optimum
        np.testing.assert_array_equal(result.x, cold_result.x)


def test_set_bounds_after_sign_rows_hands_highs_the_intersection():
    """New bounds on a column that a sign row bounds at 0 reach HiGHS
    intersected with that bound, as a fresh copy's first solve would see
    them; the model keeps the bounds it was given."""
    m = _two_rows()
    m.add_rows([0, 1], [0], [-1.0], "<=", 0.0, ["sign"])   # x >= 0
    assert solve(m).objective_value == 7.0
    held = m._session.highs
    for lower, upper, expected, status in [
            (-5.0, 3.0, (0.0, 3.0), "optimal"), (-1e6, 1e6, (0.0, 1e6), "optimal"),
            (-5.0, -1.0, (0.0, -1.0), "infeasible"), (-5.0, 0.5, (0.0, 0.5), "optimal")]:
        m.set_bounds([0], [lower], [upper])
        assert (m.lower[0], m.upper[0]) == (lower, upper)
        lp = held.getLp()
        assert (lp.col_lower_[0], lp.col_upper_[0]) == expected
        result = solve(m)
        cold = _two_rows()
        cold.add_rows([0, 1], [0], [-1.0], "<=", 0.0, ["sign"])
        cold.set_bounds([0], [lower], [upper])
        assert result.status == status == solve(cold).status
        if status == "optimal":
            assert result.objective_value == pytest.approx(solve(cold).objective_value, abs=1e-12)


class _NegativeColumn:
    """A HiGHS object whose solution reads one column as -1e-3."""

    def __init__(self, highs, column):
        self._highs, self._column = highs, column

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getSolution(self):
        solution = self._highs.getSolution()
        values = np.array(solution.col_value)
        values[self._column] = -1e-3
        return type("Solution", (), {"col_value": values})()


def test_row_recheck_names_a_violated_sign_row():
    """A sign row is a bound in HiGHS but a row of the model, and the row
    re-check still covers it: a solution with one `z` below 0 is a solver
    failure that names that row."""
    task = TASKS["random0"]()
    fs = generate_features(task, 2)
    model = direct2d.build_direct2d_lp(task, fs)
    model.set_objective(direct2d.state_objective(task, fs, task.initial_state))
    solution = solve(model).require_optimal()
    matrix, _, rhs = model.row_table()
    row = np.flatnonzero((np.diff(matrix.indptr) == 1) & (rhs == 0))[0]
    column = matrix.indices[matrix.indptr[row]]
    assert solution.x[column] >= 0
    bad = solution.x.copy()
    bad[column] = -1e-3
    assert model.row_names[row] in check_solution(model, bad)
    model._session.highs = _NegativeColumn(model._session.highs, column)
    with pytest.raises(SolverFailureError, match=rf"\b{model.row_names[row]}\b"):
        solve(model)


def _signed_model(seed):
    """`_seeded_model`'s columns and rows, plus 1 to 4 sign rows of every
    relation and coefficient sign, some on one column twice and some
    against a column's bounds."""
    rng = random.Random(f"signed:{seed}")
    m = _seeded_model(seed)
    width = len(m.names)
    count = rng.randint(1, 4)
    m.add_rows(np.arange(count + 1), [rng.randrange(width) for _ in range(count)],
               [rng.choice([-2.0, -1.0, 0.5, 3.0]) for _ in range(count)],
               [rng.choice(RELATIONS) for _ in range(count)], 0.0,
               [f"sign{i}" for i in range(count)])
    return m


def test_models_with_sign_rows_match_linprog():
    """Models with sign rows, solved with those rows as bounds, have
    linprog's status and optimum (within 1e-9), and HiGHS holds the model's
    bounds intersected with the sign rows' bounds at 0."""
    statuses = set()
    for seed in range(120):
        m = _signed_model(seed)
        ours, reference = solve(m), _linprog(m)
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[reference.status]
        assert ours.status == expected, seed
        if expected == "optimal":
            assert ours.objective_value == pytest.approx(-reference.fun, rel=1e-9,
                                                         abs=1e-9), seed
        lower, upper, count = _effective_bounds(m)
        held = m._session.highs.getLp()
        assert held.num_row_ == m.row_table()[0].shape[0] - count, seed
        assert (list(held.col_lower_), list(held.col_upper_)) == (lower.tolist(),
                                                                  upper.tolist()), seed
        statuses.add(expected)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _objectives(model, seed, count=8):
    """Objectives by column, each negated at random (maximizing it is
    minimizing its negation); a coefficient rounded to 0 is dropped."""
    rng = random.Random(seed)
    return [{j: sign * round(rng.uniform(-2, 2), 3) for j in range(len(model.names))
             if rng.random() < 0.8}
            for sign in (rng.choice([1.0, -1.0]) for _ in range(count))]


def _assert_same_result(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert abs(warm.objective_value - cold.objective_value) <= 1e-9


@pytest.mark.parametrize("seed", range(30))
def test_warm_resolves_match_cold_solves(seed):
    """One model re-solved for a sequence of objectives gives what a fresh
    copy solved once per objective gives."""
    warm = _seeded_model(seed)
    for objective in _objectives(warm, seed):
        warm.set_objective(objective)
        cold = _seeded_model(seed)
        cold.set_objective(objective)
        _assert_same_result(solve(warm), solve(cold))


@pytest.mark.parametrize("seed", range(30))
def test_rows_appended_after_a_solve_match_cold_solves(seed):
    """Rows appended to a solved model go to its session; re-solving it
    gives what a fresh copy with the same rows gives, and a solution that
    violates an appended row is caught by the re-check."""
    rng = random.Random(f"append:{seed}")
    warm = _seeded_model(seed)
    solve(warm)
    rows = [(list(range(len(warm.names))),
             [round(rng.uniform(-2, 2), 3) for _ in warm.names],
             rng.choice(RELATIONS), round(rng.uniform(-1, 4), 3)) for _ in range(2)]
    cold = _seeded_model(seed)
    for model in (warm, cold):
        for columns, coefficients, relation, rhs in rows:
            model.add_rows([0, len(columns)], columns, coefficients, relation, rhs,
                           [f"c{len(model.row_names) + 1}"])
    result = solve(warm)
    _assert_same_result(result, solve(cold))
    if result.status == "optimal":
        assert check_solution(cold, result.x) == []


def _new_bounds(rng, width):
    """Bounds for a random subset of the columns: free, one-sided, a box
    around 0, a box away from 0 or fixed."""
    columns = [j for j in range(width) if rng.random() < 0.6]
    choices = [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 1.5), (-2.0, 2.0),
               (0.5, 3.0), (1.0, 1.0)]
    lower, upper = zip(*(rng.choice(choices) for _ in columns)) if columns else ((), ())
    return columns, list(lower), list(upper)


@pytest.mark.parametrize("seed", range(30))
def test_bounds_set_after_a_solve_match_cold_solves(seed):
    """Bounds set on a solved model go to its session; re-solving it gives
    what a fresh copy given the same bounds before its first solve gives."""
    warm = _seeded_model(seed)
    solve(warm)
    columns, lower, upper = _new_bounds(random.Random(f"bounds:{seed}"), len(warm.names))
    cold = _seeded_model(seed)
    for model in (warm, cold):
        model.set_bounds(columns, lower, upper)
    assert warm.lower.tolist() == cold.lower.tolist()
    assert warm.upper.tolist() == cold.upper.tolist()
    lp = warm._session.highs.getLp()
    assert (list(lp.col_lower_), list(lp.col_upper_)) == (warm.lower.tolist(),
                                                          warm.upper.tolist())
    result = solve(warm)
    _assert_same_result(result, solve(cold))
    if result.status == "optimal":
        assert check_solution(cold, result.x) == []


@pytest.mark.parametrize("columns, lower, upper, message", [
    ([0], [math.nan], [1.0], r"'x': bounds \[nan, 1.0\] hold no number"),
    ([1], [-1.0], [math.nan], r"'y': bounds \[-1.0, nan\]"),
    ([0, 1], [0.0, 2.0], [1.0, 1.0], "'y': lower bound 2.0 above upper 1.0"),
    ([0], [math.inf], [math.inf], r"'x': bounds \[inf, inf\]"),
    ([1], [-math.inf], [-math.inf], r"'y': bounds \[-inf, -inf\]"),
    ([2], [0.0], [1.0], r"undeclared columns \[2\]"),
    ([-1], [0.0], [1.0], r"undeclared columns \[-1\]"),
    ([0, 0], [0.0, 0.0], [1.0, 1.0], r"columns \[0, 0\]: a column is given twice"),
    ([0, 1], [0.0], [1.0], "not one lower and one upper bound per column")],
    ids=["nan-lower", "nan-upper", "lower-above-upper", "inf-lower", "minus-inf-upper",
         "undeclared", "negative", "repeated", "lengths"])
def test_set_bounds_refuses_and_changes_nothing(columns, lower, upper, message):
    """Bounds that hold no number, undeclared or repeated columns and a
    count mismatch are refused with their own message, before and after a
    solve; neither the model nor its session changes, and the optimum
    stays."""
    for warm in (False, True):
        m = LpModel()
        m.add_unknowns(["x", "y"])
        m.set_bounds([0], [0.0], [4.0])
        m.add_rows([0, 2], [0, 1], [1.0, 1.0], "<=", 3.0, ["sum"])
        m.set_objective({0: 1.0})
        if warm:
            assert solve(m).objective_value == 4.0
        with pytest.raises(LpError, match=message):
            m.set_bounds(columns, lower, upper)
        assert (m.lower.tolist(), m.upper.tolist()) == ([0.0, -math.inf], [4.0, math.inf])
        if warm:
            lp = m._session.highs.getLp()
            assert (list(lp.col_lower_), list(lp.col_upper_)) == ([0.0, -math.inf],
                                                                  [4.0, math.inf])
        assert solve(m).objective_value == 4.0, warm


def test_bounds_away_from_zero_keep_the_dual_start():
    """Bounds set after a solve go to the live session, whose next run is
    warm; the session that replaces it after an undecided warm run starts
    dual after presolve when a bound is away from 0, as the session of a
    model given those bounds before its first solve would."""
    m = LpModel()
    m.add_unknowns(["x"])
    m.add_rows([0, 1], [0], [1.0], "<=", 4.0, ["high"])
    m.set_objective({0: 1.0})
    assert solve(m).objective_value == 4.0 and _cold_strategy(m) == PRIMAL
    for lower, upper, expected in [(0.0, 2.0, PRIMAL), (1.0, 3.0, DUAL)]:
        m.set_bounds([0], [lower], [upper])
        session = m._session
        assert solve(m).objective_value == upper and m._session is session
        assert _restart(m).objective_value == upper and _cold_strategy(m) == expected
        declared = LpModel()
        add_unknown(declared, "x", lower, upper)
        declared.add_rows([0, 1], [0], [1.0], "<=", 4.0, ["high"])
        declared.set_objective({0: 1.0})
        assert solve(declared).objective_value == upper and _cold_strategy(declared) == expected


def test_warm_resolve_through_unbounded():
    """Bounded, then unbounded, then bounded again on one model; the session
    is kept across objective changes."""
    def model():
        m = LpModel()
        add_unknown(m, "x")
        add_unknown(m, "y", 0.0, 1.0)
        add_row(m, term("x") + term("y"), "<=", 3)
        add_row(m, term("y"), ">=", 0.5)
        return m

    warm = model()
    results = []
    for objective in (term("x"), -term("x"), term("x") + 2 * term("y"), 2 * term("y")):
        warm.set_objective(column_terms(warm, objective))
        session = warm._session
        result = solve(warm)
        assert session is None or warm._session is session
        cold = model()
        cold.set_objective(column_terms(cold, objective))
        _assert_same_result(result, solve(cold))
        results.append((result.status, result.objective_value))
    assert results == [("optimal", 2.5), ("unbounded", None), ("optimal", 4.0),
                       ("optimal", 2.0)]


def test_session_holds_the_rows_in_model_order():
    """HiGHS holds row i of the model as its row i, with native `[lower,
    upper]` bounds, after the first solve and after appended rows, and its
    row values are the model's matrix times the solution."""
    statuses, relations_seen = set(), set()
    for seed in range(30):
        rng = random.Random(f"held:{seed}")
        m = _seeded_model(seed)
        for appended in (False, True):
            if appended:
                width = len(m.names)
                m.add_rows([0, width, 2 * width], list(range(width)) * 2,
                           [round(rng.uniform(-2, 2), 3) for _ in range(2 * width)],
                           [rng.choice(RELATIONS) for _ in range(2)],
                           [round(rng.uniform(-1, 4), 3) for _ in range(2)],
                           ["appended0", "appended1"])
            solution = solve(m)
            held = m._session.highs.getLp()
            a = held.a_matrix_
            assert a.format_ == a.format_.kColwise
            matrix, relations, rhs = m.row_table()
            assert (held.num_row_, held.num_col_) == matrix.shape
            assert (csc_matrix((a.value_, a.index_, a.start_), shape=matrix.shape)
                    != matrix).nnz == 0, seed
            assert np.array_equal(held.row_lower_, np.where(
                relations == RELATIONS.index("<="), -np.inf, rhs)), seed
            assert np.array_equal(held.row_upper_, np.where(
                relations == RELATIONS.index(">="), np.inf, rhs)), seed
            if solution.status == "optimal":
                np.testing.assert_allclose(m._session.highs.getSolution().row_value,
                                           matrix @ solution.x, rtol=1e-12, atol=1e-12)
            statuses.add(solution.status)
            relations_seen.update(relations.tolist())
    assert "optimal" in statuses and relations_seen == {0, 1, 2}


def test_structure_change_after_solve_is_honoured():
    """Rows appended after a solve go to the live session (which the row
    re-check then covers too); a new column drops the session."""
    m = LpModel()
    add_unknown(m, "x", 0.0, 10.0)
    add_row(m, term("x"), "<=", 3)
    m.set_objective(column_terms(m, term("x")))
    assert solve(m).objective_value == 3.0
    session = m._session
    add_row(m, term("x"), "<=", 1, "tighter")
    assert m._session is session and session.highs.getLp().num_row_ == 2
    assert solve(m).objective_value == 1.0
    m.add_rows([0, 1], [0], [1.0], ">=", 2.0, ["too_high"])
    assert solve(m).status == "infeasible"
    assert m._session is session
    m = LpModel()
    add_unknown(m, "x", 0.0, 10.0)
    m.set_objective(column_terms(m, term("x")))
    assert solve(m).objective_value == 10.0
    add_unknown(m, "y", 0.0, 2.0)
    add_row(m, term("x") + term("y"), "<=", 4)
    m.set_objective(column_terms(m, term("x") + 3 * term("y")))
    solution = solve(m)
    assert solution_values(m, solution) == {"x": 2.0, "y": 2.0}
    assert solution.objective_value == 8.0


def _compare_models(task, ts, state):
    """The four `compare` models, maximizing at the given state."""
    patterns = costpart.all_patterns(len(task.variables))
    models = []
    for dim in (1, 2):
        fs = generate_features(task, dim)
        model = direct2d.build_direct2d_lp(task, fs)
        model.set_objective(direct2d.state_objective(task, fs, state))
        models.append(model)
    for build in (costpart.build_ocp_lp, costpart.build_tcp_lp):
        models.append(build(ts, patterns, state).model)
    return models


@pytest.mark.parametrize("name", sorted(TASKS))
def test_compare_models_warm_equal_cold(name):
    """Each `compare` model built once and re-solved at every state, dead
    ends included, has the status and optimum of a fresh build per state."""
    task = TASKS[name]()
    ts = build_transition_system(task)
    states = list(map(tuple, ts.states.tolist()))
    warm = _compare_models(task, ts, states[0])
    statuses = set()
    for state in states:
        cold = _compare_models(task, ts, state)
        for model, fresh in zip(warm, cold):
            model.set_objective(fresh.objective)
            result = solve(model)
            _assert_same_result(result, solve(fresh))
            statuses.add(result.status)
    dead_end = math.inf in exact_goal_distances(ts)
    assert statuses == ({"optimal", "unbounded"} if dead_end else {"optimal"})


def test_external_solver_failure(monkeypatch):
    """The variable that once named an external solver command is ignored:
    a command that fails leaves the HiGHS optimum as it is."""
    monkeypatch.setenv("POTPLAN_LP_SOLVER_CMD", "false")
    m = LpModel()
    add_unknown(m, "x", 0, 1)
    m.set_objective(column_terms(m, term("x")))
    sol = solve(m)
    assert sol.status == "optimal" and sol.objective_value == 1.0
