import math
import os
import sys

import pytest

try:
    import potplan  # noqa: F401  (installed, e.g. pip install -e .)
except ImportError:  # running from a source checkout without installing
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from potplan.features import Feature, FeatureSet
from potplan.lp import LinearExpression, LpModel
from potplan.task import Operator, Task, Variable

from reference_builders import (ScopedFunction, add_row, add_unknown, model_rows,
                                reference_bucket_eliminate, reference_lp_constraints)


def make_toy1() -> Task:
    """Two binary variables, one increment operator each, goal (1, 1)."""
    return Task(
        variables=[Variable(0, "X", 2, ("0", "1")),
                   Variable(1, "Y", 2, ("0", "1"))],
        operators=[Operator("oX", {0: 0}, {0: 1}, 1),
                   Operator("oY", {1: 0}, {1: 1}, 1)],
        initial_state=(0, 0),
        goal={0: 1, 1: 1},
    )


@pytest.fixture
def toy1() -> Task:
    return make_toy1()


def make_mixed_preconditions() -> Task:
    """Not in TNF: `reset` has no precondition (applicable in every state),
    `a12` and `light` have prevail conditions on variables they do not
    change, and `swap` changes two variables.  Operator order differs from
    the order of the operators' first precondition variables, and `setB`
    and `a01` commute, so blind A* finds two plans of equal cost and picks
    one by the order in which it generates successors."""
    return Task(
        variables=[Variable(0, "A", 3, ("0", "1", "2")),
                   Variable(1, "B", 2, ("0", "1")),
                   Variable(2, "C", 2, ("0", "1"))],
        operators=[Operator("setB", {1: 0}, {1: 1}, 1),
                   Operator("a01", {0: 0}, {0: 1}, 1),
                   Operator("a12", {0: 1, 1: 1}, {0: 2}, 1),
                   Operator("reset", {}, {2: 0}, 1),
                   Operator("light", {0: 2}, {2: 1}, 1),
                   Operator("swap", {0: 2, 2: 1}, {0: 0, 1: 0}, 0)],
        initial_state=(0, 0, 0),
        goal={0: 2, 1: 1, 2: 1},
    )


def make_alias_task() -> tuple[Task, FeatureSet]:
    """Variables a, b, c with b of domain 1; one operator setting a from 0
    to 1.  Eliminating c, b, a (the order [a, b, c]) condenses c into one
    unknown per value of b, and b's single candidate is that unknown, so b
    gets no unknown of its own."""
    variables = [Variable(0, "a", 2, ("0", "1")), Variable(1, "b", 1, ("0",)),
                 Variable(2, "c", 2, ("0", "1"))]
    task = Task(variables, [Operator("o", {0: 0}, {0: 1}, 1)], (0, 0, 0),
                {0: 1, 1: 0, 2: 0})
    return task, FeatureSet.of((Feature.of(((0, 0), (1, 0), (2, 0))),
                                Feature.of(((0, 0), (2, 1)))))


def ab(a: float = 0.0, b: float = 0.0) -> LinearExpression:
    """a times the base unknown `a` plus b times `b`."""
    return LinearExpression.build(0.0, {"a": a, "b": b})


PAPER_BE_DOMAINS = {0: 2, 1: 2}


def make_paper_be() -> list[ScopedFunction]:
    """Two scoped functions over binary variables whose entries combine two
    base unknowns, a and b; the standing worked example for the eliminator
    (variable domains `PAPER_BE_DOMAINS`)."""
    f = ScopedFunction((0,), {(0,): ab(a=3, b=-2), (1,): ab(a=4, b=2)})
    g = ScopedFunction((0, 1), {(0, 0): ab(a=8), (0, 1): ab(b=7), (1, 0): ab(b=-3)})
    return [f, g]


@pytest.fixture
def paper_be() -> list[ScopedFunction]:
    return make_paper_be()


def base_model(*names: str, lower: float = -math.inf, upper: float = math.inf) -> LpModel:
    """A model whose columns are the given base unknowns."""
    model = LpModel()
    for name in names:
        add_unknown(model, name, lower, upper)
    return model


def eliminate(model: LpModel, functions, domains, order, prefix: str = "z") -> dict[str, float]:
    """Run the symbolic eliminator (`domains` a {variable: size} map), declare
    its unknowns on the model, append its rows and return the result terms by
    unknown name."""
    unknowns, rows, result = reference_lp_constraints(
        reference_bucket_eliminate(domains, functions, list(order), prefix))
    for name in unknowns:
        add_unknown(model, name)
    for row in rows:
        add_row(model, row.expression, row.relation, row.rhs, row.name)
    return result.coefficients()


def candidates(model: LpModel) -> list[tuple[str, list[tuple[float, dict[str, float]]]]]:
    """Every elimination unknown, in declaration order, with its candidates
    read off its rows `{unknown}.{j}` (unknown - candidate >= constant) as
    (constant, {name: coefficient})."""
    out: dict[str, list] = {}
    declared = set(model.names)
    for row in model_rows(model):
        aux = row.name.rpartition(".")[0]
        if aux in declared:
            out.setdefault(aux, []).append(
                (row.rhs, {n: -c for n, c in row.expression.terms if n != aux}))
    return list(out.items())  # rows follow their unknown's declaration


def bottom_up_values(model: LpModel, base: dict[str, float]) -> dict[str, float]:
    """Values of every unknown: those named in `base` as given, and each
    other one, in declaration order, the max over its rows `{unknown}.{j}`
    of the candidate's value (the least value those rows allow)."""
    rows: dict[str, list] = {}
    for row in model_rows(model):
        rows.setdefault(row.name.rpartition(".")[0], []).append(row)
    values = dict(base)
    for name in model.names:
        if name not in values:
            values[name] = max(row.rhs - sum(c * values[n] for n, c in row.expression.terms
                                             if n != name)
                               for row in rows[name])
    return values
