"""Check that two source trees of potplan give the same output.

    python tools/same_output.py BEFORE_TREE AFTER_TREE [TASK.sas ...]

Runs one fixed list of `potplan.cli.main` calls in process under each tree
(one subprocess per tree, importing `potplan` from TREE/src) and compares,
call by call, stdout, the exit code and a digest of every `potplan.lp.solve`
call: whether the model has a solver session, its objective's columns
and coefficients and its column bounds, and for a model without a session (one
not solved since its last column was added) its whole row table too.  So
trees that hand rows to HiGHS differently are still compared LP by LP.
Each differing call is printed with what differs; where stdout differs and
is a JSON object under both trees, the top-level keys whose values differ
are named too (say `stdout [weights]` for a `solve` at another optimal
vertex, or `stdout [expansions, evaluated]` for a `search` that breaks ties
otherwise), and a tally of the differing calls by command and by what
differs follows.  Two checks end the report: every `solve` call whose
printed weights differ, but for those that differ only in the sign of a
zero (counted apart), has each tree's weights run through that tree's own
`validate` (goal-aware, consistent and admissible), with the number that
pass under each, and every differing `search` call is counted by whether
its plan cost is the same under both trees.

The inputs are written once into a temporary directory, with BEFORE_TREE
but for the random feature files:
`gen --seed 0..11` (whose printed tasks are compared too, as are those of
`gen --general --seed 0..5`, whose solvability check builds transition
systems outside transition normal form, and which `tnf` and `validate-task`
read back; each task also gets two `compare` calls, with `--state random:2`
and `random:3`, so that the OCP and TCP models of 24 more state sets are
compared LP by LP), and `random_task(4, 3, 6, seed)` with
`random_features(task, 10, dim, seed)` for seeds 0..5 and dimensions 1-4 as
feature files (`random_features` and `format_feature`, which writes every
feature file and weight key the tool makes, are taken from
`tests/reference_builders.py` beside this tool, and a worker of its own
writes these files with the tree this tool is in, so either tree can be
BEFORE_TREE and the files stay the same), plus four `--order` files (at dimension 3 one that reverses every
operator's min-fill order, one that gives every other operator a seeded
random order and leaves the rest to min-fill, and one missing a variable; at
dimension 2 one that gives an operator with two context variables an order
other than min-fill's, so that the lockstep pass eliminates it instead of
the width-0 pass) and the weights that `solve --method exhaustive` prints
for each random task, which `validate` reads back as they are, raised by 1
in every state (consistent, not goal-aware) and tripled (inconsistent, so
the witness names an operator).  A unit-cost chain whose weights overshoot
the goal distances by a little more at each step, within the 1e-6
tolerance per transition but not over the chain, adds a `validate` whose
only failure, and witness, is admissibility.
`random_task(4, 4, 8, seed)` for seeds 0, 15 and 34 (96 to 192 states) adds
`compare --state random:3`, as does `gen --vars 8 --dom 4 --ops 20 --seed 0`
(3,072 states), so that the cost partitioning models, whose first run
starts primal simplex at the origin, are compared LP by LP on a task of
several thousand states too.  `gen --vars 3 --dom 3 --ops 4
--allow-unsolvable --seed 0`, whose initial state is a dead end, adds
`compare` and `compare --format json`, so that unbounded optima, printed
as "inf", are compared too.  `gen --vars 9 --dom 4 --ops 60 --seed 0..3`
(9,216 to 15,552 states) adds a blind `search` each, of 712 to 5,843
expansions, so that a long search whose ties in g are broken first-in
first-out is compared too, and a `search --heuristic pot1` and `pot2` each,
of 17 to 1,398 expansions, so that potential-heuristic searches with many
ties in f are compared call by call as well.  A three-variable task with a
domain-1 variable, two features and an `--order` file under which that
variable's unknown becomes an alias adds a bucket `lp` and `solve`.
`random_task(6, 2, 16, 26)` adds direct2d and bucket `solve --dim 2` and
`lp`: 50 of its 64 states are dead ends, and its weights partly cancel in
the objective, so the order in which the objective's terms are summed can
move the printed objective (it did while the weights were boxed at ±1e8).  `reduce3col --check` runs on a triangle (3-colorable) and on K4
(not), and `validate` on the task and weights it writes for each.  Each
extra TASK.sas is run through the potential-LP calls as well; a
TASK.features file beside it adds the bucket calls over those features.
Exit code 0 when every call matches, 1 otherwise.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import numpy as np

GEN_SEEDS = range(12)
GENERAL_SEEDS = range(6)  # also `gen --general`
RANDOM_SEEDS = range(6)
COMPARE_SEEDS = (0, 15, 34)  # 96, 128 and 192 states
LARGE_COMPARE = ["--vars", "8", "--dom", "4", "--ops", "20", "--seed", "0"]  # 3,072 states
# a dead-end initial state: `compare` prints "inf" for the unbounded optima
DEAD_END_COMPARE = ["--vars", "3", "--dom", "3", "--ops", "4", "--allow-unsolvable", "--seed", "0"]
LONG_SEARCH_SEEDS = range(4)  # `gen --vars 9 --dom 4 --ops 60`, blind, pot1 and pot2 search
CANCELLING_TASK = (6, 2, 16, 26)  # random_task arguments; prints objective 25.0
# DIMACS graphs for `reduce3col --check`: 3-colorable and not
GRAPHS = {"triangle": "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n",
          "k4": "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"}


TOOL_TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_potplan(tree: str):
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import potplan.cli
    if not os.path.abspath(potplan.cli.__file__).startswith(os.path.abspath(tree)):
        raise SystemExit(f"potplan imported from {potplan.cli.__file__}, not {tree}")
    return potplan


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _task_calls(sas: str, features: str | None) -> list[list[str]]:
    calls = [["solve", sas], ["solve", "--method", "bucket", sas], ["lp", sas],
             ["width", sas]]
    if features:
        dim3 = ["--dim", "3", "--features", features, sas]
        calls += [["solve", "--method", "bucket", *dim3], ["lp", "--method", "bucket", *dim3],
                  ["width", "--features", features, "--format", "json", sas]]
    return calls


def _features_path(seed: int, dim: int) -> str:
    return f"random{seed}_dim{dim}.features"


def write_features(tree: str, workdir: str) -> None:
    """Write the random feature files with `tree`, the one this tool is in,
    and the `random_features` of its tests."""
    _import_potplan(tree)
    from potplan.generator import random_task
    sys.path.insert(0, os.path.join(TOOL_TREE, "tests"))
    from reference_builders import format_feature, random_features
    os.chdir(workdir)
    for seed in RANDOM_SEEDS:
        task = random_task(4, 3, 6, seed)
        for dim in (1, 2, 3, 4):
            _write(_features_path(seed, dim), "".join(
                format_feature(task, f) + "\n" for f in random_features(task, 10, dim, seed)))


def prepare(tree: str, workdir: str, extra: list[str]) -> None:
    """Write the inputs but the random feature files, and `calls.json`, the
    list of argument vectors."""
    potplan = _import_potplan(tree)
    from potplan.elimination import adjacency, classify, eliminate_graphs
    from potplan.features import Feature, parse_feature_file
    from potplan.generator import random_task
    from potplan.task import Operator, Task, Variable, serialize_sas
    sys.path.insert(0, os.path.join(TOOL_TREE, "tests"))
    from reference_builders import format_feature
    os.chdir(workdir)
    calls = []
    for seed in GEN_SEEDS:
        sas = f"gen{seed}.sas"
        with contextlib.redirect_stdout(io.StringIO()):
            potplan.cli.main(["gen", "--seed", str(seed), "-o", sas])
        calls.append(["gen", "--seed", str(seed)])
        if seed in GENERAL_SEEDS:
            general = f"general{seed}.sas"
            with contextlib.redirect_stdout(io.StringIO()):
                potplan.cli.main(["gen", "--general", "--seed", str(seed), "-o", general])
            calls += [["gen", "--general", "--seed", str(seed)], ["tnf", general],
                      ["validate-task", general]]
        calls += [["search", sas, "--heuristic", h] for h in ("pot1", "pot2")]
        calls += [["compare", sas, "--state", f"random:{k}", "--format", "json"] for k in (2, 3)]
        calls += [["solve", "--method", m, "--dim", d, sas]
                  for m in ("direct2d", "bucket") for d in ("1", "2")]
        calls += [["lp", sas], ["width", sas]]
    for seed in RANDOM_SEEDS:
        task = random_task(4, 3, 6, seed)
        sas = _write(f"random{seed}.sas", serialize_sas(task))
        exhaustive = [["solve", "--method", "exhaustive", sas],
                      ["lp", "--method", "exhaustive", sas]]
        calls += [*exhaustive, *([*argv, "--objective", "samples:5"] for argv in exhaustive)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            potplan.cli.main(exhaustive[0])
        solved = json.loads(out.getvalue())["weights"]
        weights = _write(f"random{seed}.weights.json", json.dumps(solved))
        # +1 on every value of the first variable: +1 in every state
        raised = dict(solved)
        for val in range(task.variables[0].domain_size):
            atom = format_feature(task, Feature(((0, val),)))
            raised[atom] = raised.get(atom, 0.0) + 1.0
        tripled = {text: 3 * weight for text, weight in solved.items()}
        calls += [["validate", sas, "--weights", path] for path in (
            weights, _write(f"random{seed}.raised.json", json.dumps(raised)),
            _write(f"random{seed}.tripled.json", json.dumps(tripled)))]
        calls += [["compare", sas], ["search", sas, "--heuristic", "blind"]]
        for dim in (1, 2, 3, 4):
            features = _features_path(seed, dim)
            with open(features, encoding="utf-8") as f:
                fs = parse_feature_file(task, f.read())
            methods = ("direct2d", "bucket") if dim <= 2 else ("bucket",)
            for method in methods:
                base = ["--method", method, "--features", features, sas]
                calls += [["solve", *base], ["lp", *base],
                          ["solve", "--objective", "samples:5", *base]]
            calls.append(["width", "--features", features, "--format", "json", sas])
            if seed == 0 and dim == 2:
                # increasing ids, the reverse of min-fill's order, for an
                # operator with two context variables
                classes = classify(task, fs)
                op = next(op for k, op in enumerate(task.operators)
                          if len({v for i in classes.feature[classes.operator == k].tolist()
                                  for v, _ in fs.features[i].facts} - op.eff.keys()) > 1)
                _write("width0_order.json",
                       json.dumps({op.name: [v.name for v in task.variables]}))
                base = ["--method", "bucket", "--features", features,
                        "--order", "width0_order.json", sas]
                calls += [["solve", *base], ["lp", *base]]
            if seed in (0, 1) and dim == 3:
                names = [v.name for v in task.variables]
                if seed == 0:
                    graphs = adjacency(task, fs, classify(task, fs))
                    min_fill = eliminate_graphs(graphs, np.full(graphs.shape[:2], -1))[0]
                    orders = {op.name: [names[v] for v in min_fill[k, ::-1].tolist()]
                              for k, op in enumerate(task.operators)}
                    bad = {task.operators[0].name: names[:1]}
                    written = (("order.json", orders), ("bad_order.json", bad))
                else:
                    rng = random.Random("orders")
                    written = (("mixed_order.json", {op.name: rng.sample(names, len(names))
                                                     for op in task.operators[::2]}),)
                for name, order in written:
                    _write(name, json.dumps(order))
                    base = ["--method", "bucket", "--features", features, "--order", name, sas]
                    calls += [["solve", *base], ["lp", *base]]
    for seed in COMPARE_SEEDS:
        sas = _write(f"compare{seed}.sas", serialize_sas(random_task(4, 4, 8, seed)))
        calls.append(["compare", sas, "--state", "random:3", "--format", "json"])
    with contextlib.redirect_stdout(io.StringIO()):
        potplan.cli.main(["gen", *LARGE_COMPARE, "-o", "large_compare.sas"])
    calls.append(["compare", "large_compare.sas", "--state", "random:3", "--format", "json"])
    with contextlib.redirect_stdout(io.StringIO()):
        potplan.cli.main(["gen", *DEAD_END_COMPARE, "-o", "dead_end.sas"])
    calls += [["compare", "dead_end.sas"], ["compare", "dead_end.sas", "--format", "json"]]
    for seed in LONG_SEARCH_SEEDS:
        sas = f"long{seed}.sas"
        with contextlib.redirect_stdout(io.StringIO()):
            potplan.cli.main(["gen", "--vars", "9", "--dom", "4", "--ops", "60",
                              "--seed", str(seed), "-o", sas])
        calls += [["search", sas, "--heuristic", heuristic]
                  for heuristic in ("blind", "pot1", "pot2")]
    alias = Task([Variable(0, "a", 2, ("0", "1")), Variable(1, "b", 1, ("0",)),
                  Variable(2, "c", 2, ("0", "1"))],
                 [Operator("o", {0: 0}, {0: 1}, 1)], (0, 0, 0), {0: 1, 1: 0, 2: 0})
    sas = _write("alias.sas", serialize_sas(alias))
    features = _write("alias.features", "".join(
        format_feature(alias, f) + "\n"
        for f in (Feature(((0, 0), (1, 0), (2, 0))), Feature(((0, 0), (2, 1))))))
    _write("alias_order.json", json.dumps({"o": ["a", "b", "c"]}))
    base = ["--method", "bucket", "--dim", "3", "--features", features,
            "--order", "alias_order.json", sas]
    calls += [["lp", *base], ["solve", *base]]
    # h* = 3, 2, 1, 0 along a unit-cost chain; each weight overshoots h* by
    # 0.5e-6 more than the next, within the 1e-6 tolerance per transition
    # and at the goal, but not over the whole chain
    chain = Task([Variable(0, "x", 4, ("0", "1", "2", "3"))],
                 [Operator(f"inc{k}", {0: k}, {0: k + 1}, 1) for k in range(3)], (0,), {0: 3})
    sas = _write("chain.sas", serialize_sas(chain))
    weights = _write("chain.weights.json", json.dumps(
        {f"x={k}": 3 - k + (4 - k) * 0.5e-6 for k in range(4)}))
    calls.append(["validate", sas, "--weights", weights])
    sas = _write("cancelling.sas", serialize_sas(random_task(*CANCELLING_TASK)))
    calls += [["solve", "--method", m, "--dim", "2", sas] for m in ("direct2d", "bucket")]
    calls.append(["lp", "--dim", "2", sas])
    for name, text in GRAPHS.items():
        graph = _write(f"{name}.dimacs", text)
        sas, weights = f"{name}.sas", f"{name}.weights.json"
        with contextlib.redirect_stdout(io.StringIO()):
            potplan.cli.main(["reduce3col", graph, "-o", sas, "--weights-out", weights])
        calls += [["reduce3col", "--check", graph], ["validate", sas, "--weights", weights]]
    for sas in extra:
        features = os.path.splitext(sas)[0] + ".features"
        calls += _task_calls(sas, features if os.path.exists(features) else None)
    _write("calls.json", json.dumps(calls))


def _column_bounds(model) -> np.ndarray:
    """The (lower, upper) pairs of the columns, read from `lower` and
    `upper`, or from `unknowns` in older trees."""
    if hasattr(model, "unknowns"):
        return np.array([(lo, hi) for _, lo, hi in model.unknowns])
    return np.array(list(zip(model.lower, model.upper)))


def _digest(model) -> str:
    """Digest of one solve: whether the model has a session, its
    objective's columns and coefficients and its column bounds, then for a
    model without a session its row table (shape, indptr, indices, data,
    relation codes, right-hand sides)."""
    objective = sorted(model.objective.items())
    parts = [np.array([model._session is not None]),
             np.array([j for j, _ in objective]), np.array([c for _, c in objective]),
             _column_bounds(model)]
    if model._session is None:
        matrix, relations, rhs = model.row_table()
        parts += [np.array(matrix.shape), matrix.indptr, matrix.indices, matrix.data,
                  relations, rhs]
    h = hashlib.sha256()
    for part in parts:
        part = np.asarray(part)
        part = part.astype(np.int64 if part.dtype.kind in "iu" else float)
        h.update(repr(part.shape).encode())
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key_digests(stdout: str) -> dict[str, str] | None:
    """A digest of each top-level value when stdout is one JSON object,
    else None."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    return {key: _sha(json.dumps(value, sort_keys=True)) for key, value in payload.items()}


def _what_differs(a: dict, b: dict) -> str:
    """The record fields that differ between two runs of one call, with the
    differing top-level JSON keys after `stdout`."""
    fields = []
    for field in ("stdout", "exit", "solves"):
        if a[field] == b[field]:
            continue
        if field == "stdout" and a["keys"] is not None and b["keys"] is not None:
            keys = [k for k in {**a["keys"], **b["keys"]} if a["keys"].get(k) != b["keys"].get(k)]
            field += f" [{', '.join(keys)}]" if keys else ""
        fields.append(field)
    return ", ".join(fields)


def _call(potplan, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = potplan.cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def _printed(argv: list[str], stdout: str):
    """What a later check reads of a call's stdout: a `solve`'s weights and
    a `search`'s plan cost, else None."""
    key = {"solve": "weights", "search": "cost"}.get(argv[0])
    try:
        return json.loads(stdout).get(key) if key else None
    except (ValueError, AttributeError):
        return None


def run(tree: str, workdir: str) -> None:
    """Print one JSON record per call: stdout digest, exit code, the
    digests of its solves, the digests of stdout's top-level JSON keys
    (None when stdout is no JSON object) and what `_printed` reads."""
    potplan = _import_potplan(tree)
    os.chdir(workdir)
    with open("calls.json", encoding="utf-8") as f:
        calls = json.load(f)
    digests: list[str] = []
    solve = potplan.lp.solve

    def recording(model):
        digests.append(_digest(model))
        return solve(model)

    # wherever `solve` is bound: `potplan.lp` and the modules that import it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "potplan" and getattr(module, "solve", None) is solve:
            module.solve = recording
    records = []
    for argv in calls:
        digests.clear()
        code, stdout = _call(potplan, argv)
        records.append({"stdout": _sha(stdout), "exit": code, "solves": list(digests),
                        "keys": _key_digests(stdout), "printed": _printed(argv, stdout)})
    json.dump(records, sys.stdout)


def validate(tree: str, workdir: str, pairs: str) -> None:
    """Print, for each (task, weights file) pair in the JSON file `pairs`,
    whether `validate` under `tree` finds the weights goal-aware,
    consistent and admissible."""
    potplan = _import_potplan(tree)
    os.chdir(workdir)
    with open(pairs, encoding="utf-8") as f:
        checks = json.load(f)
    verdicts = []
    for sas, weights in checks:
        code, stdout = _call(potplan, ["validate", sas, "--weights", weights])
        report = json.loads(stdout) if code == 0 else {}
        verdicts.append(all(report.get(k) for k in ("goal_aware", "consistent", "admissible")))
    json.dump(verdicts, sys.stdout)


def check_differing(calls: list, results: list, trees: tuple[str, str], workdir: str) -> list[str]:
    """Report lines on the calls that differ: how many `solve` calls print
    weights that differ only in the sign of a zero, how many of the others
    print weights that pass each tree's own `validate`, and how many
    differing `search` calls keep the plan cost."""
    solves, zeros, searches = [], 0, []
    for n, (argv, a, b) in enumerate(zip(calls, *results)):
        if argv[0] == "solve" and a["printed"] is not None and b["printed"] is not None \
                and a["keys"]["weights"] != b["keys"]["weights"]:
            if a["printed"] == b["printed"]:  # equal as numbers, as 0.0 and -0.0 are
                zeros += 1
                continue
            sas = next(arg for arg in reversed(argv) if arg.endswith(".sas"))
            solves.append([[sas, _write(os.path.join(workdir, f"differing{n}.{side}.json"),
                                        json.dumps(record["printed"]))]
                           for side, record in enumerate((a, b))])
        elif argv[0] == "search" and _what_differs(a, b):
            searches.append(a["printed"] is not None and a["printed"] == b["printed"])
    lines = []
    if solves or zeros:
        passed = []
        for side, tree in enumerate(trees):
            pairs = _write(os.path.join(workdir, f"validate{side}.json"),
                           json.dumps([pair[side] for pair in solves]))
            passed.append(sum(json.loads(_worker("validate", tree, workdir, [pairs]))))
        lines.append(f"{len(solves) + zeros} solve calls print other weights, {zeros} of them "
                     f"only a zero of the other sign; `validate` passes {passed[0]} of the "
                     f"other {len(solves)} before and {passed[1]} after")
    if searches:
        lines.append(f"{len(searches)} search calls differ; the plan cost is equal in "
                     f"{sum(searches)}")
    return lines


def _worker(mode: str, tree: str, workdir: str, extra: list[str]) -> str:
    argv = [sys.executable, os.path.abspath(__file__), "--worker", mode, tree, workdir, *extra]
    return subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        mode, tree, workdir, *extra = argv[1:]
        if mode == "features":
            write_features(tree, workdir)
        elif mode == "prepare":
            prepare(tree, workdir, extra)
        elif mode == "validate":
            validate(tree, workdir, *extra)
        else:
            run(tree, workdir)
        return 0
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after, *extra = argv
    with tempfile.TemporaryDirectory() as workdir:
        _worker("features", TOOL_TREE, workdir, [])
        _worker("prepare", before, workdir, [os.path.abspath(p) for p in extra])
        with open(os.path.join(workdir, "calls.json"), encoding="utf-8") as f:
            calls = json.load(f)
        results = [json.loads(_worker("run", tree, workdir, [])) for tree in (before, after)]
        checks = check_differing(calls, results, (before, after), workdir)
    differ = [(argv, what) for argv, a, b in zip(calls, *results)
              if (what := _what_differs(a, b))]
    for argv, what in differ:
        print(f"differs in {what}: {' '.join(argv)}")
    tally = collections.Counter((argv[0], what) for argv, what in differ)
    for (command, what), count in sorted(tally.items()):
        print(f"{count:5d} {command}: {what}")
    for line in checks:
        print(line)
    solves = sum(len(r["solves"]) for r in results[0])
    print(f"{len(calls)} calls, {solves} solves: "
          + ("identical" if not differ else f"{len(differ)} differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
