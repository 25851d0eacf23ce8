import json
import os
import subprocess
import sys

import pytest

import potplan
from potplan.cli import main
from potplan.task import parse_sas
from potplan.tnf import is_tnf

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
    from potplan.lp import parse_lp
    assert len(parse_lp(text).rows) == 3


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


def test_compare_csv(capsys, toy1_file):
    code, out, _ = run_cli(capsys, "compare", "--state", "init", toy1_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "state,h_pot1,h_pot2,h_ocp2,h_tcp2,h_star"
    cells = lines[1].split(",")
    assert cells[0] == "init"
    assert [float(c) for c in cells[1:]] == [2.0, 2.0, 2.0, 2.0, 2.0]


def test_compare_random_states_json(capsys, toy1_file):
    code, out, _ = run_cli(capsys, "compare", "--state", "random:2",
                           "--seed", "3", "--format", "json", toy1_file)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    for row in rows:
        assert row["h_tcp2"] >= row["h_ocp2"] - 1e-6


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


def test_gen_round_trip(capsys, tmp_path):
    out_path = tmp_path / "gen.sas"
    code, _, _ = run_cli(capsys, "gen", "--vars", "3", "--dom", "3", "--ops", "5",
                         "--seed", "11", "-o", str(out_path))
    assert code == 0
    task = parse_sas(out_path.read_text())
    assert len(task.variables) == 3 and len(task.operators) == 5
    assert is_tnf(task)


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
