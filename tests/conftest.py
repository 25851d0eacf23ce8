import os
import sys

import pytest

try:
    import potplan  # noqa: F401  (installed, e.g. pip install -e .)
except ImportError:  # running from a source checkout without installing
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from potplan.elimination import ScopedFunction, ScopedFunctionSet
from potplan.lp import LinearExpression
from potplan.task import Operator, Task, Variable


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


def ab(a: float = 0.0, b: float = 0.0, const: float = 0.0) -> LinearExpression:
    return LinearExpression.build(const, {"a": a, "b": b})


def make_paper_be() -> ScopedFunctionSet:
    """Two scoped functions over binary variables whose tables hold linear
    expressions in two base unknowns; the standing worked example for the
    symbolic eliminator."""
    f = ScopedFunction((0,), {(0,): ab(a=3, b=-2), (1,): ab(a=4, b=2)})
    g = ScopedFunction((0, 1), {(0, 0): ab(a=8), (0, 1): ab(b=7), (1, 0): ab(b=-3)})
    return ScopedFunctionSet(domains={0: 2, 1: 2}, functions=[f, g])


@pytest.fixture
def paper_be() -> ScopedFunctionSet:
    return make_paper_be()
