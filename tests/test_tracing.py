"""The benchmark's tracer (perfbench/tracing.py) patches potplan by name: it
wraps every public function of the traced modules, `potplan.lp.linprog` and
`LinearExpression.build`, and fails to install if one of those is missing.
This test installs it as a traced benchmark call does, so that renaming a
hooked name breaks a test instead of the next traced benchmark run."""

import importlib.util
import os

import potplan.cli as cli
# The tracer looks these modules up in sys.modules.
from potplan import costpart, direct2d, elimination, features, lp, search, task  # noqa: F401

HERE = os.path.dirname(__file__)
COMPACT_502_1 = os.path.join(HERE, "data", "compact_502_1.sas")


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
