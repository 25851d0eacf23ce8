"""Property tests: writing a task or an assembled potential LP to text and
parsing it back gives the same object, and writing it again the same text."""

from hypothesis import given, settings, strategies as st

from potplan.direct2d import build_general_lp, sample_states, state_objective
from potplan.features import generate_features
from potplan.generator import random_task
from potplan.lp import export_lp
from potplan.reduction import reduce_3col
from potplan.task import Operator, Task, Variable, parse_sas, serialize_sas

from reference_builders import columns, complete_graph, model_rows, parse_lp, random_features

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def names(exclude=""):
    """One line of a SAS document: no line breaks, and nothing the parser
    strips or refuses in its place (`exclude`)."""
    return st.text(st.characters(categories=("L", "N", "P", "S"), exclude_characters=exclude),
                   min_size=1, max_size=10)


@st.composite
def tasks(draw) -> Task:
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    # Variable names are distinct, and so are value names within a variable;
    # facts are written `variable=value` and joined by '&'.
    var_names = draw(st.lists(names("&="), min_size=len(sizes), max_size=len(sizes),
                              unique=True))
    variables = [Variable(i, var_names[i], size, tuple(
                     draw(st.lists(names("&"), min_size=size, max_size=size, unique=True))))
                 for i, size in enumerate(sizes)]

    def values(scope):
        return {v: draw(st.integers(0, sizes[v] - 1)) for v in scope}

    def scope(min_size=0):
        return draw(st.sets(st.integers(0, len(sizes) - 1), min_size=min_size))

    operators = []
    for _ in range(draw(st.integers(0, 5))):
        eff = values(scope(min_size=1))
        pre = values(scope() - set(eff))  # prevail conditions
        pre.update(values(scope() & set(eff)))  # effect preconditions
        operators.append(Operator(draw(names()), pre, eff, draw(st.integers(0, 20))))
    return Task(variables, operators, tuple(values(range(len(sizes))).values()),
                values(scope()))


@SETTINGS
@given(tasks())
def test_sas_round_trip(task):
    text = serialize_sas(task)
    parsed = parse_sas(text)
    assert parsed == task
    assert serialize_sas(parsed) == text


def assert_lp_round_trip(model):
    text = export_lp(model)
    parsed = parse_lp(text)
    assert columns(parsed) == columns(model)
    assert model_rows(parsed) == model_rows(model)
    assert parsed.objective == model.objective
    assert export_lp(parsed) == text


@SETTINGS
@given(n_vars=st.integers(1, 4), max_dom=st.integers(2, 3), n_ops=st.integers(1, 6),
       seed=st.integers(0, 10**6), dimension=st.integers(1, 3), samples=st.integers(0, 3))
def test_potential_lp_round_trip(n_vars, max_dom, n_ops, seed, dimension, samples):
    task = random_task(n_vars, max_dom, n_ops, seed, solvable=False)
    if dimension <= 2:
        fs = generate_features(task, dimension)
    else:
        fs = random_features(task, 8, 3, seed)
    model = build_general_lp(task, fs)
    if samples:
        objective = state_objective(task, fs, *sample_states(task, samples, seed))
    else:
        objective = state_objective(task, fs, task.initial_state)
    model.set_objective(objective)
    assert_lp_round_trip(model)


def test_potential_lp_round_trip_with_assignment_suffixes():
    """Width 3 (the reduction's switch operator): elimination unknowns and
    rows carry the assignment to the remaining scope in their names."""
    red = reduce_3col(complete_graph(4))
    model = build_general_lp(red.task, red.features)
    model.set_objective(state_objective(red.task, red.features, red.task.initial_state))
    assert any("__v" in name for name in model.names if name.startswith("z_"))
    assert_lp_round_trip(model)
