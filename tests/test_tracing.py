"""The benchmark's tracer (perfbench/tracing.py) patches potplan by name: it
wraps every public function of the traced modules, `potplan.lp.linprog` and
`LinearExpression.build`, and fails to install if one of those is missing.
These tests install it as a traced benchmark call does, so that renaming a
hooked name breaks a test instead of silently zeroing a per-layer metric of
the next traced benchmark run."""

import importlib.util
import os

import pytest

import potplan.cli as cli
# The tracer looks these modules up in sys.modules.
from potplan import costpart, direct2d, elimination, features, lp, search, task  # noqa: F401

from reference_builders import features_of, format_feature, random_features

HERE = os.path.dirname(__file__)
COMPACT_502_1 = os.path.join(HERE, "data", "compact_502_1.sas")
DEAD_ENDS_52 = os.path.join(HERE, "data", "dead_ends_52.sas")

# The per-layer metrics each command's work shows up in.
SOLVE = ["task.parse_sas_s", "features.generate_features_s", "direct2d.build_direct2d_lp_s",
         "direct2d.state_objective_s", "lp.solves", "lp.check_solution_s"]
SEARCH = SOLVE + ["search.astar_s", "search.expansions", "search.heuristic_evals"]
COMPARE = SOLVE + ["task.build_transition_system_s", "task.exact_goal_distances_s",
                   "task.transitions", "costpart.project_s", "costpart.build_tcp_lp_s",
                   "costpart.build_ocp_lp_s"]


def load_tracing():
    """perfbench/tracing.py as a module, loaded from its file unchanged."""
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(HERE, os.pardir, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_prints_what_an_untraced_one_prints(capsys):
    argv = ["solve", COMPACT_502_1]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    original = cli.main
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main is not original and cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert capsys.readouterr().out == untraced
    metrics = tracer.metrics(1, 1.0, 1.0)
    assert metrics["lp.solves"] == 1 and metrics["trace.spans"] > 0
    # every solve re-checks its rows through the public check_solution
    assert metrics["lp.check_solution_s"] > 0


# compare builds the explicit transition system: 243 states for
# dead_ends_52, 59,049 for compact_502_1, which is left out.
@pytest.mark.parametrize("argv, names", [
    (["solve", COMPACT_502_1], SOLVE), (["solve", DEAD_ENDS_52], SOLVE),
    (["search", "--heuristic", "pot2", COMPACT_502_1], SEARCH),
    (["search", "--heuristic", "pot2", DEAD_ENDS_52], SEARCH),
    (["compare", DEAD_ENDS_52], COMPARE)],
    ids=["solve-compact_502_1", "solve-dead_ends_52", "search-pot2-compact_502_1",
         "search-pot2-dead_ends_52", "compare-dead_ends_52"])
def test_traced_command_reads_every_layer(capsys, argv, names):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics(1, 1.0, 1.0)
    assert [name for name in names if not metrics[name] > 0] == []


def test_traced_feature_file_counts_one_parse_per_conjunction(capsys, tmp_path):
    """`features.parse_feature_calls` counts the conjunctions of a feature
    file, one per line that is neither blank nor a comment: the reader
    parses each conjunction on its own."""
    with open(COMPACT_502_1, encoding="utf-8") as f:
        compact = task.parse_sas(f.read())
    conjunctions = [format_feature(compact, f) for f in
                    features_of(features.generate_features(compact, 1))
                    + tuple(f for f in features_of(random_features(compact, 30, 3, 0))
                            if f.size == 3)]
    path = tmp_path / "dim3.features"
    path.write_text("# atoms and triples\n\n" + "\n".join(conjunctions) + "\n\n")
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["solve", "--method", "bucket", "--dim", "3", "--features", str(path),
                         COMPACT_502_1]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics(1, 1.0, 1.0)
    assert len(conjunctions) > 30
    assert metrics["features.parse_feature_calls"] == len(conjunctions)
