import glob
import json
import math
import os
import subprocess
import sys

import pytest

from scipy.optimize._highspy import _core as highs_core

import potplan
from potplan import cli, costpart, direct2d
from potplan.cli import main
from potplan.generator import GENERATOR_STATE_CAP, GenerationError, random_task
from potplan.lp import OPTIMALITY_TOL, export_lp
from potplan.task import (Task, build_transition_system, exact_goal_distances, parse_sas,
                          serialize_sas)
from potplan.tnf import is_tnf

from reference_builders import format_feature, parse_lp, random_features
from test_lp import REJECTED_LP
from test_task import TOY1_SAS

K4_DIMACS = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
K3_DIMACS = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


@pytest.fixture
def toy1_file(tmp_path):
    path = tmp_path / "toy1.sas"
    path.write_text(TOY1_SAS)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_task(capsys, toy1_file):
    code, out, _ = run_cli(capsys, "validate-task", toy1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"valid": True, "variables": 2, "operators": 2,
                       "states": 4, "is_tnf": True}


def test_validate_task_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.sas"
    bad.write_text("begin_version\n2\nend_version\n")
    code, _, err = run_cli(capsys, "validate-task", str(bad))
    assert code == 1 and "error" in err


def test_tnf_subcommand(capsys, tmp_path, toy1_file):
    partial = tmp_path / "partial.sas"
    partial.write_text(TOY1_SAS.replace("begin_goal\n2\n0 1\n1 1",
                                        "begin_goal\n1\n0 1"))
    out_path = tmp_path / "out.sas"
    code, _, err = run_cli(capsys, "tnf", str(partial), "-o", str(out_path))
    assert code == 0
    assert is_tnf(parse_sas(out_path.read_text()))
    assert "forgetting" in err


def test_solve_toy1(capsys, toy1_file):
    code, out, _ = run_cli(capsys, "solve", "--dim", "2", toy1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == pytest.approx(2.0)
    assert payload["status"] == "optimal"
    assert "X=0 & Y=0" in payload["weights"]


def test_solve_exhaustive_and_bucket_agree(capsys, toy1_file):
    values = {}
    for method in ("direct2d", "bucket", "exhaustive"):
        code, out, _ = run_cli(capsys, "solve", "--dim", "2",
                               "--method", method, toy1_file)
        assert code == 0
        values[method] = json.loads(out)["objective"]
    assert len({round(v, 6) for v in values.values()}) == 1


@pytest.mark.parametrize("source", ["toy1"] + [f"gen{seed}" for seed in range(6)])
def test_bucket_prints_direct2d_output_at_dimension_2(capsys, tmp_path, toy1_file, source):
    """At dimension <= 2 the bucket method builds the direct2d model, so the
    two print the same objective, goal potential, bound list and weights."""
    path = toy1_file
    if source != "toy1":
        path = str(tmp_path / "gen.sas")
        assert run_cli(capsys, "gen", "--seed", source[3:], "-o", path)[0] == 0
    for dim in ("1", "2"):
        printed = {}
        for method in ("direct2d", "bucket"):
            code, out, _ = run_cli(capsys, "solve", "--dim", dim, "--method", method, path)
            assert code == 0
            printed[method] = json.loads(out)
            assert printed[method].pop("method") == method
        assert printed["bucket"] == printed["direct2d"]


def test_solve_dim3_needs_bucket(capsys, toy1_file):
    code, _, err = run_cli(capsys, "solve", "--dim", "3",
                           "--method", "direct2d", toy1_file)
    assert code == 2
    assert "usage error" in err


def test_solve_samples_objective(capsys, toy1_file):
    code, out, _ = run_cli(capsys, "solve", "--dim", "1",
                           "--objective", "samples:6", "--seed", "5", toy1_file)
    assert code == 0
    assert json.loads(out)["objective"] <= 2.0 + 1e-6


def test_lp_export(capsys, tmp_path, toy1_file):
    out_path = tmp_path / "model.lp"
    code, _, _ = run_cli(capsys, "lp", "--dim", "1", toy1_file,
                         "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("Maximize") and text.rstrip().endswith("End")
    assert parse_lp(text).row_table()[0].shape[0] == 3
    assert export_lp(parse_lp(text)) == text


@pytest.mark.parametrize("dim", ["1", "2"])
@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                                               "data", "*.sas"))),
                         ids=os.path.basename)
def test_lp_export_reads_back(capsys, tmp_path, path, dim):
    """What `potplan lp` writes, parsed and written again, is the same text."""
    out_path = tmp_path / "model.lp"
    code, _, _ = run_cli(capsys, "lp", "--dim", dim, path, "--out", str(out_path))
    text = out_path.read_text()
    assert code == 0 and export_lp(parse_lp(text)) == text


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("method, path", [("direct2d", "compact_502_1.sas"),
                                          ("bucket", "compact_502_1.sas"),
                                          ("exhaustive", "dead_ends_52.sas")])
def test_highs_reads_the_lp_export(capsys, tmp_path, method, path):
    """HiGHS's own LP-file reader takes what `potplan lp` writes, for the
    direct2d, the dimension-3 bucket (over a feature file) and the
    exhaustive model, and reaches the optimum that `potplan solve` prints
    within OPTIMALITY_TOL: the export runs in a solver outside potplan."""
    path = os.path.join(DATA, path)
    argv = ["--method", method, path]
    if method == "bucket":
        with open(path, encoding="utf-8") as f:
            task = parse_sas(f.read())
        features = tmp_path / "dim3.features"
        features.write_text("".join(format_feature(task, f) + "\n"
                                    for f in random_features(task, 40, 3, 0)))
        argv = ["--features", str(features), *argv]
    out_path = tmp_path / "model.lp"
    assert run_cli(capsys, "lp", *argv, "--out", str(out_path))[0] == 0
    code, out, _ = run_cli(capsys, "solve", *argv)
    assert code == 0
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(out_path)) == highs_core.HighsStatus.kOk
    highs.run()
    assert highs.getModelStatus() == highs_core.HighsModelStatus.kOptimal
    assert highs.getInfo().objective_function_value == pytest.approx(
        json.loads(out)["objective"], rel=OPTIMALITY_TOL, abs=OPTIMALITY_TOL)


@pytest.mark.parametrize("name, text, message", REJECTED_LP, ids=[n for n, _, _ in REJECTED_LP])
def test_rejected_lp_text_is_domain_error(capsys, monkeypatch, toy1_file, name, text, message):
    """An LP text that parse_lp rejects, read where the CLI builds its model,
    ends as `error: ...` and exit 1, not a traceback."""
    monkeypatch.setattr(direct2d, "build_direct2d_lp", lambda task, fs: parse_lp(text))
    code, out, err = run_cli(capsys, "lp", toy1_file)
    assert code == 1 and out == "" and err.startswith("error: ") and message in err


def test_search_subcommand(capsys, toy1_file):
    for heuristic, expect_cost in (("blind", 2.0), ("pot1", 2.0), ("pot2", 2.0)):
        code, out, _ = run_cli(capsys, "search", "--heuristic", heuristic, toy1_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"] == expect_cost
        assert "wall_time" not in payload
    code, out, _ = run_cli(capsys, "search", "--heuristic", "blind",
                           "--timing", toy1_file)
    assert "wall_time" in json.loads(out)


TWICE = "error: conjunction mentions a variable twice: ((0, 0), (0, 1))\n"


@pytest.mark.parametrize("command, conjunctions, message", [
    ("solve", ["X=0 & Y=1", "Y=1 & X=0"], "error: duplicate features\n"),
    ("validate", ["X=0 & Y=1", "Y=1 & X=0"], "error: duplicate features\n"),
    ("solve", ["X=1", "X=0 & X=1"], TWICE),
    ("validate", ["X=1", "X=1 & X=0"], TWICE),
])
def test_feature_set_refusals(capsys, tmp_path, toy1_file, command, conjunctions, message):
    """A feature file (`solve --features`) or a weight file (`validate
    --weights`) that lists one conjunction twice, in two fact orders, or a
    conjunction naming a variable twice, exits 1 with the reason."""
    if command == "solve":
        path = tmp_path / "f.features"
        path.write_text("".join(c + "\n" for c in conjunctions))
        argv = ["solve", "--features", str(path), toy1_file]
    else:
        path = tmp_path / "w.json"
        path.write_text(json.dumps({c: 1.0 for c in conjunctions}))
        argv = ["validate", toy1_file, "--weights", str(path)]
    assert run_cli(capsys, *argv) == (1, "", message)


def test_search_weights_file(capsys, tmp_path, toy1_file):
    code, out, _ = run_cli(capsys, "solve", "--dim", "1", toy1_file)
    weights = json.loads(out)["weights"]
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps(weights))
    code, out, _ = run_cli(capsys, "search", "--heuristic",
                           f"weights:{weights_path}", toy1_file)
    assert code == 0 and json.loads(out)["cost"] == 2.0


def test_search_no_plan(capsys, tmp_path):
    # dropping oY leaves the goal fact Y=1 unreachable
    doc = TOY1_SAS.replace(
        "2\nbegin_operator\noX\n0\n1\n0 0 0 1\n1\nend_operator\nbegin_operator\noY\n0\n1\n0 1 0 1\n1\nend_operator",
        "1\nbegin_operator\noX\n0\n1\n0 0 0 1\n1\nend_operator")
    path = tmp_path / "hopeless.sas"
    path.write_text(doc)
    code, _, err = run_cli(capsys, "search", "--heuristic", "blind", str(path))
    assert code == 1 and "unreachable" in err


@pytest.mark.parametrize("seed", [0, 1, 3, 4, 5, 6, 7])
def test_search_dead_end_initial_state(capsys, tmp_path, seed):
    """On a task whose initial state the potential LP shows to be a dead end
    (its optimum there is unbounded, and an admissible potential is at most
    h*), `pot1` and `pot2` end as blind A* does."""
    path = tmp_path / "dead.sas"
    code, _, _ = run_cli(capsys, "gen", "--vars", "3", "--dom", "3", "--ops", "4",
                         "--allow-unsolvable", "--seed", str(seed), "-o", str(path))
    assert code == 0
    for heuristic in ("blind", "pot1", "pot2"):
        code, out, err = run_cli(capsys, "search", "--heuristic", heuristic, str(path))
        assert (code, out, err) == (1, "", "error: goal is unreachable from the initial state\n")


def test_validate_subcommand(capsys, tmp_path, toy1_file):
    _, out, _ = run_cli(capsys, "solve", "--dim", "2", toy1_file)
    weights_path = tmp_path / "w.json"
    weights_path.write_text(json.dumps(json.loads(out)["weights"]))
    code, out, _ = run_cli(capsys, "validate", "--weights", str(weights_path),
                           toy1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["goal_aware"] and payload["consistent"] and payload["admissible"]
    assert payload["counterexample"] is None


def test_validate_two_variable_state_counterexample(capsys, tmp_path):
    """A state witness of a two-variable task is printed as a state, not
    read as a (state, operator) pair."""
    sas = tmp_path / "two.sas"
    run_cli(capsys, "gen", "--vars", "2", "--dom", "2", "--ops", "4", "--seed", "3",
            "-o", str(sas))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"var0=val0": 1.0, "var0=val1": 1.0}))
    code, out, _ = run_cli(capsys, "validate", "--weights", str(weights), str(sas))
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True and payload["goal_aware"] is False
    assert payload["counterexample"] == {"state": [0, 0]}


@pytest.mark.parametrize("method", [[], ["--method", "bucket", "--dim", "3"]])
def test_solve_empty_feature_set(capsys, tmp_path, toy1_file, method):
    """Without features the model has no columns; the zero potential is
    optimal."""
    features = tmp_path / "empty.features"
    features.write_text("")
    code, out, _ = run_cli(capsys, "solve", *method, "--features", str(features), toy1_file)
    assert code == 0
    payload = json.loads(out)
    assert (payload["objective"], payload["status"], payload["weights"]) == \
        (0.0, "optimal", {})


def test_solve_empty_feature_set_prints_float_goal_potential(capsys, tmp_path, toy1_file):
    """No feature holds in the goal state: its potential is the float 0.0,
    printed as such, not the int 0."""
    features = tmp_path / "empty.features"
    features.write_text("")
    code, out, _ = run_cli(capsys, "solve", "--features", str(features), toy1_file)
    assert code == 0
    assert '"goal_potential": 0.0,' in out


@pytest.mark.parametrize("method", ["direct2d", "exhaustive"])
def test_solve_prints_no_negative_zero(capsys, tmp_path, method):
    """A zero weight prints as 0.0 whatever sign HiGHS left on it: on `gen
    --seed 0` two weights (three by the exhaustive method) came back as
    -0.0."""
    path = str(tmp_path / "gen0.sas")
    assert run_cli(capsys, "gen", "--seed", "0", "-o", path)[0] == 0
    code, out, _ = run_cli(capsys, "solve", "--method", method, path)
    assert code == 0 and "-0.0" not in out
    assert json.loads(out)["weights"]["var0=val1"] == 0.0


COMPACT_502_1 = os.path.join(os.path.dirname(__file__), "data", "compact_502_1.sas")


@pytest.mark.parametrize("method", ["direct2d", "bucket"])
def test_pinned_weights_solve_compact_502_1_exactly(capsys, tmp_path, method):
    """A planted 10-variable task on which, with every weight bounded by
    ±1e8 alone, both methods printed 11.000001013: weights parked at the
    bound cancelled in the objective.  With pinned, free weights the optimum
    is exact and the printed weights are a valid potential heuristic."""
    code, out, _ = run_cli(capsys, "solve", "--method", method, COMPACT_502_1)
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == 11.0 and payload["goal_potential"] == 0.0
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(payload["weights"]))
    code, out, _ = run_cli(capsys, "validate", "--weights", str(weights), COMPACT_502_1)
    assert code == 0
    assert json.loads(out) == {"goal_aware": True, "consistent": True, "admissible": True,
                               "counterexample": None}


DEAD_ENDS_52 = os.path.join(os.path.dirname(__file__), "data", "dead_ends_52.sas")


@pytest.mark.parametrize("method", ["exhaustive", "direct2d", "bucket"])
def test_pinned_weights_pass_the_recheck_with_dead_ends(capsys, method):
    """A planted 5-variable, domain-3 task with 20 two-variable operators and
    154 dead ends among its 243 states.  With every weight bounded by ±1e8
    alone, the exhaustive solve failed its own row re-check (rows read just
    past their slack, with most weights near the bound) and the compact
    models printed 12.00000003.  With pinned weights all three print the
    optimum 12 exactly."""
    code, out, err = run_cli(capsys, "solve", "--method", method, DEAD_ENDS_52)
    assert code == 0, err
    assert json.loads(out)["objective"] == 12.0


def test_compare_csv(capsys, toy1_file):
    code, out, _ = run_cli(capsys, "compare", "--state", "init", toy1_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "state,h_pot1,h_pot2,h_ocp2,h_tcp2,h_star"
    cells = lines[1].split(",")
    assert cells[0] == "init"
    assert [float(c) for c in cells[1:]] == [2.0, 2.0, 2.0, 2.0, 2.0]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_compare_dead_end_initial_state(capsys, tmp_path, seed):
    """At a dead-end initial state every optimum that `compare` prints is
    unbounded, which certifies h* = inf as h_star does: each is printed as
    "inf" in CSV and as the string "inf" in JSON, which has no infinity."""
    path = tmp_path / "dead.sas"
    code, _, _ = run_cli(capsys, "gen", "--vars", "3", "--dom", "3", "--ops", "4",
                         "--allow-unsolvable", "--seed", str(seed), "-o", str(path))
    assert code == 0
    code, out, err = run_cli(capsys, "compare", str(path))
    assert (code, err) == (0, "")
    assert out == "state,h_pot1,h_pot2,h_ocp2,h_tcp2,h_star\ninit,inf,inf,inf,inf,inf\n"
    code, out, err = run_cli(capsys, "compare", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=_reject_constant) == [
        {"state": "init", **dict.fromkeys(["h_pot1", "h_pot2", "h_ocp2", "h_tcp2", "h_star"],
                                          "inf")}]


def test_compare_optima_are_infinite_only_at_dead_ends():
    """The optima `compare` computes at every state of unsolvable-allowed
    random tasks: an optimum is inf only where h* is (each is admissible),
    pot2 is inf exactly where TCP is, pot1 inf implies pot2 inf, OCP inf
    implies TCP inf, and a finite pot2 equals TCP within 1e-6 (on these
    tasks the dimension-2 potential LP is as strong as TCP over all
    patterns of size at most 2)."""
    counts = [0, 0]  # states, states where pot2 is inf
    for seed in range(60):
        task = random_task(3, 3, 5, seed, solvable=False)
        ts = build_transition_system(task)
        states = list(map(tuple, ts.states.tolist()))
        patterns = costpart.all_patterns(len(task.variables))
        pot1, pot2 = (cli._potential_optima(task, dim, states) for dim in (1, 2))
        ocp, tcp = (cli._partitioning_optima(build, ts, patterns, states)
                    for build in (costpart.build_ocp_lp, costpart.build_tcp_lp))
        for values in zip(pot1, pot2, ocp, tcp, exact_goal_distances(ts).tolist()):
            h1, h2, o, t, h_star = values
            assert h_star == math.inf or max(h1, h2, o, t) < math.inf, (seed, values)
            assert (h2 == math.inf) == (t == math.inf), (seed, values)
            assert h1 < math.inf or h2 == math.inf, (seed, values)
            assert o < math.inf or t == math.inf, (seed, values)
            assert h2 == math.inf or h2 == pytest.approx(t, rel=1e-6, abs=1e-6), (seed, values)
            counts = [counts[0] + 1, counts[1] + (h2 == math.inf)]
    assert counts == [939, 810]


def test_compare_random_states_json(capsys, toy1_file):
    code, out, _ = run_cli(capsys, "compare", "--state", "random:2",
                           "--seed", "3", "--format", "json", toy1_file)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    for row in rows:
        assert row["h_tcp2"] >= row["h_ocp2"] - 1e-6


@pytest.mark.parametrize("argv", [
    ["compare", "--state", "random:abc"], ["compare", "--state", "random:-2"],
    ["solve", "--objective", "samples:abc"], ["solve", "--objective", "samples:0"],
    ["solve", "--dim", "0"], ["solve", "--dim", "-1"], ["lp", "--dim", "0"],
    ["width", "--dim", "0"]])
def test_count_must_be_positive_integer(capsys, toy1_file, argv):
    code, out, err = run_cli(capsys, *argv, toy1_file)
    assert code == 2 and "usage error" in err and out == ""


def test_width_subcommand(capsys, tmp_path, toy1_file):
    code, out, _ = run_cli(capsys, "width", "--dim", "2", toy1_file,
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_width"] == 0
    assert all(row["width"] == 0 for row in payload["operators"])


def test_reduce3col_check(capsys, tmp_path):
    k4 = tmp_path / "k4.col"
    k4.write_text(K4_DIMACS)
    out_sas = tmp_path / "k4.sas"
    code, out, _ = run_cli(capsys, "reduce3col", str(k4), "-o", str(out_sas),
                           "--check")
    assert code == 0
    assert "3-colorable: no" in out
    task = parse_sas(out_sas.read_text())
    assert len(task.variables) == 5
    weights = json.loads((tmp_path / "k4.sas.weights.json").read_text())
    assert weights["master=1"] == 5.0

    k3 = tmp_path / "k3.col"
    k3.write_text(K3_DIMACS)
    code, out, _ = run_cli(capsys, "reduce3col", str(k3), "-o",
                           str(tmp_path / "k3.sas"), "--check")
    assert "3-colorable: yes" in out


@pytest.mark.parametrize("text, line", [("p edge x 3\n", 1), ("p edge 3 1\ne 1 z\n", 2)])
def test_reduce3col_malformed_number_is_domain_error(capsys, tmp_path, text, line):
    graph = tmp_path / "bad.col"
    graph.write_text(text)
    code, out, err = run_cli(capsys, "reduce3col", str(graph), "-o", str(tmp_path / "bad.sas"))
    assert code == 1 and out == "" and err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("text, error", [
    ("p edge 3 x\ne 1 2\n", "error: line 1: expected integers, got '3 x'"),
    ("p edge 3 5\ne 1 2\n", "error: problem line declares 5 edges, found 1"),
    ("p edge 3 1\ne 0 1\n", "error: line 2: edge 0 1 leaves vertices 1..3"),
    ("p edge 3 1\ne 1 4\n", "error: line 2: edge 1 4 leaves vertices 1..3")],
    ids=["edge-count-not-integer", "edge-count-mismatch", "vertex-0", "vertex-above-n"])
def test_reduce3col_bad_problem_line_or_edge_is_domain_error(capsys, tmp_path, text, error):
    """The edge count of `p edge n m` is an integer that matches the `e`
    lines, and every endpoint lies in 1..n, checked on the edge's line."""
    graph = tmp_path / "bad.col"
    graph.write_text(text)
    code, out, err = run_cli(capsys, "reduce3col", str(graph), "-o", str(tmp_path / "bad.sas"))
    assert (code, out, err) == (1, "", error + "\n")


THREE_VAR_FEATURES = """\
# one triple plus two atoms
A=0 & B=0 & C=0
A=1
B=1
"""


@pytest.fixture
def three_var_file(tmp_path):
    from potplan.task import Operator, Task, Variable, serialize_sas
    variables = [Variable(0, "A", 2, ("0", "1")), Variable(1, "B", 2, ("0", "1")),
                 Variable(2, "C", 2, ("0", "1"))]
    operators = [Operator("oA", {0: 0}, {0: 1}, 1),
                 Operator("oB", {1: 0}, {1: 1}, 1),
                 Operator("oC", {2: 0}, {2: 1}, 1)]
    task = Task(variables, operators, (0, 0, 0), {0: 1, 1: 1, 2: 1})
    path = tmp_path / "three.sas"
    path.write_text(serialize_sas(task))
    return str(path)


def test_solve_with_feature_file(capsys, tmp_path, three_var_file):
    features_path = tmp_path / "features.txt"
    features_path.write_text(THREE_VAR_FEATURES)
    code, out, _ = run_cli(capsys, "solve", "--dim", "3", "--method", "bucket",
                           "--features", str(features_path), three_var_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    code2, out2, _ = run_cli(capsys, "solve", "--dim", "3", "--method",
                             "exhaustive", "--features", str(features_path),
                             three_var_file)
    assert json.loads(out2)["objective"] == pytest.approx(payload["objective"],
                                                          abs=1e-6)


def test_lp_with_order_file(capsys, tmp_path, three_var_file):
    features_path = tmp_path / "features.txt"
    features_path.write_text(THREE_VAR_FEATURES)
    order_path = tmp_path / "orders.json"
    order_path.write_text(json.dumps({"oA": ["A", "C", "B"],
                                      "oB": ["B", "A", "C"]}))
    out_path = tmp_path / "model.lp"
    code, _, _ = run_cli(capsys, "lp", "--dim", "3", "--method", "bucket",
                         "--features", str(features_path),
                         "--order", str(order_path), three_var_file,
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("Maximize")

    bad_order = tmp_path / "bad.json"
    bad_order.write_text(json.dumps({"missing-op": ["A"]}))
    code, _, err = run_cli(capsys, "lp", "--dim", "3", "--method", "bucket",
                           "--features", str(features_path),
                           "--order", str(bad_order), three_var_file)
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize("order", [["oA", "A"], {"oA": "A"}, {"oA": [["A"]]}])
def test_malformed_order_file_is_usage_error(capsys, tmp_path, three_var_file, order):
    features_path = tmp_path / "features.txt"
    features_path.write_text(THREE_VAR_FEATURES)
    order_path = tmp_path / "order.json"
    order_path.write_text(json.dumps(order))
    code, out, err = run_cli(capsys, "lp", "--dim", "3", "--method", "bucket",
                             "--features", str(features_path),
                             "--order", str(order_path), three_var_file)
    assert code == 2 and out == "" and err.startswith("usage error: order file")


@pytest.mark.parametrize("command", ["lp", "solve"])
@pytest.mark.parametrize("method", ["direct2d", "exhaustive"])
def test_order_file_needs_bucket_method(capsys, tmp_path, three_var_file, command, method):
    """Only bucket elimination reads `--order`; with another method the
    file, here one whose order misses variables, is a usage error rather
    than silently ignored."""
    order_path = tmp_path / "order.json"
    order_path.write_text(json.dumps({"oA": ["A"]}))
    code, out, err = run_cli(capsys, command, "--method", method, "--order", str(order_path),
                             three_var_file)
    assert code == 2 and out == "" and err.startswith("usage error: --order needs --method bucket")
    code, _, err = run_cli(capsys, command, "--method", "bucket", "--order", str(order_path),
                           three_var_file)
    assert code == 1 and "order must list every vertex exactly once" in err


@pytest.mark.parametrize("command", ["validate", "search"])
@pytest.mark.parametrize("weights", [[["X=0", 1.0]], {"X=0": "abc"}, {"X=0": None},
                                     {"X=0": float("nan")}, {"X=0": True}, {"X=0": "2.5"},
                                     {"X=0": 10 ** 400}],
                         ids=["list", "text", "null", "nan", "true", "numeric-text",
                              "int-beyond-float"])
def test_malformed_weights_file_is_domain_error(capsys, tmp_path, toy1_file, command,
                                                weights):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(weights))
    if command == "validate":
        argv = ["validate", "--weights", str(path), toy1_file]
    else:
        argv = ["search", "--heuristic", f"weights:{path}", toy1_file]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: weight")


def test_gen_round_trip(capsys, tmp_path):
    out_path = tmp_path / "gen.sas"
    code, _, _ = run_cli(capsys, "gen", "--vars", "3", "--dom", "3", "--ops", "5",
                         "--seed", "11", "-o", str(out_path))
    assert code == 0
    task = parse_sas(out_path.read_text())
    assert len(task.variables) == 3 and len(task.operators) == 5
    assert is_tnf(task)


@pytest.mark.parametrize("argv", [("--vars", "0"), ("--vars", "-2"), ("--ops", "-1"),
                                  ("--dom", "1"), ("--dom", "-5")])
def test_gen_rejects_bad_counts(capsys, argv):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 2 and out == "" and err.startswith(f"usage error: {argv[0]}")


def test_gen_without_operators(capsys):
    code, out, _ = run_cli(capsys, "gen", "--ops", "0", "--allow-unsolvable")
    assert code == 0 and parse_sas(out).operators == []


def test_gen_unsolvable_task_beyond_the_state_cap(capsys):
    """Only the solvability check builds the state space, so only a solvable
    task is held to the explicit oracles' state cap."""
    argv = ["gen", "--vars", "16", "--dom", "4", "--ops", "10"]
    code, out, _ = run_cli(capsys, *argv, "--allow-unsolvable")
    task = parse_sas(out)
    assert code == 0 and len(task.variables) == 16 and len(task.operators) == 10
    assert task.state_count() > GENERATOR_STATE_CAP
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "too large for explicit oracles" in err
    with pytest.raises(GenerationError, match="too large for explicit oracles"):
        random_task(16, 4, 10, 0, solvable=True)


def test_task_without_variables(capsys, tmp_path):
    """One state, the empty one, which is the goal: every heuristic value and
    optimum is 0."""
    sas = tmp_path / "empty.sas"
    sas.write_text(serialize_sas(Task([], [], (), {})))
    weights = tmp_path / "empty.json"
    weights.write_text("{}")
    code, out, _ = run_cli(capsys, "validate", str(sas), "--weights", str(weights))
    assert code == 0 and json.loads(out) == {"goal_aware": True, "consistent": True,
                                             "admissible": True, "counterexample": None}
    code, out, _ = run_cli(capsys, "compare", str(sas))
    assert code == 0
    assert out == "state,h_pot1,h_pot2,h_ocp2,h_tcp2,h_star\ninit,0.0,0.0,0.0,0.0,0.0\n"
    code, out, _ = run_cli(capsys, "solve", "--method", "exhaustive", str(sas))
    assert code == 0 and json.loads(out)["objective"] == 0.0


def test_gen_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "gen", "--vars", "3", "--dom", "2",
                               "--ops", "4", "--seed", "9")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_solve_byte_identical(capsys, toy1_file):
    outputs = {run_cli(capsys, "solve", "--dim", "2", toy1_file)[1]
               for _ in range(2)}
    assert len(outputs) == 1


def test_module_entry_point(toy1_file):
    # Run the package under test, installed or not.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(potplan.__file__)))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "potplan", "validate-task",
                           toy1_file], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_missing_file_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "validate-task", "/nonexistent/task.sas")
    assert code == 1 and "error" in err
