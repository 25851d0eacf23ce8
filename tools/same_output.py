"""Check that two source trees of potplan give the same output.

    python tools/same_output.py BEFORE_TREE AFTER_TREE [TASK.sas ...]

Runs one fixed list of `potplan.cli.main` calls in process under each tree
(one subprocess per tree, importing `potplan` from TREE/src) and compares,
call by call, stdout, the exit code and a digest of every LP handed to
HiGHS through `potplan.lp._run_highs`: for a new model the cost vector, the
column and row bounds and the column-wise matrix, for a re-solve of the same
model the new cost vector alone.  A tree without `_run_highs` (older than the
direct HiGHS sessions) records no digests; its calls are then compared by
stdout and exit code only.

The inputs are written once, with BEFORE_TREE, into a temporary directory:
`gen --seed 0..11` (whose printed tasks are compared too), and
`random_task(4, 3, 6, seed)` with `random_features(task, 10, dim, seed)` for
seeds 0..5 and dimensions 1-3 as feature files, plus two `--order` files (one
valid, one missing a variable) and the weights that `solve --method
exhaustive` prints for each random task, which `validate` reads back.
`random_task(4, 4, 8, seed)` for seeds 0, 15 and 34 (96 to 192 states) adds
`compare --state random:3`.  A three-variable task with a domain-1 variable,
two features and an `--order` file under which that variable's unknown
becomes an alias adds a bucket `lp` and `solve`.  Each extra TASK.sas is run
through the potential-LP calls as well; a TASK.features file beside it adds
the bucket calls over those features.
Exit code 0 when every call matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

GEN_SEEDS = range(12)
RANDOM_SEEDS = range(6)
COMPARE_SEEDS = (0, 15, 34)  # 96, 128 and 192 states


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


def prepare(tree: str, workdir: str, extra: list[str]) -> None:
    """Write the inputs and `calls.json`, the list of argument vectors."""
    potplan = _import_potplan(tree)
    from potplan.elimination import context_dependency_graph, min_fill_order
    from potplan.features import Feature, FeatureSet, format_feature
    from potplan.generator import random_features, random_task
    from potplan.task import Operator, Task, Variable, serialize_sas
    os.chdir(workdir)
    calls = []
    for seed in GEN_SEEDS:
        sas = f"gen{seed}.sas"
        with contextlib.redirect_stdout(io.StringIO()):
            potplan.cli.main(["gen", "--seed", str(seed), "-o", sas])
        calls.append(["gen", "--seed", str(seed)])
        calls += [["search", sas, "--heuristic", h] for h in ("pot1", "pot2")]
        calls.append(["compare", sas, "--state", "random:2", "--format", "json"])
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
        weights = _write(f"random{seed}.weights.json",
                         json.dumps(json.loads(out.getvalue())["weights"]))
        calls += [["validate", sas, "--weights", weights], ["compare", sas],
                  ["search", sas, "--heuristic", "blind"]]
        for dim in (1, 2, 3):
            fs = random_features(task, 10, dim, seed)
            features = _write(f"random{seed}_dim{dim}.features",
                              "".join(format_feature(task, f) + "\n" for f in fs))
            methods = ("direct2d", "bucket") if dim <= 2 else ("bucket",)
            for method in methods:
                base = ["--method", method, "--features", features, sas]
                calls += [["solve", *base], ["lp", *base],
                          ["solve", "--objective", "samples:5", *base]]
            calls.append(["width", "--features", features, "--format", "json", sas])
            if seed == 0 and dim == 3:
                names = [v.name for v in task.variables]
                orders = {op.name: [names[v] for v in
                                    min_fill_order(context_dependency_graph(task, fs, k))[::-1]]
                          for k, op in enumerate(task.operators)}
                bad = {task.operators[0].name: names[:1]}
                for name, order in (("order.json", orders), ("bad_order.json", bad)):
                    _write(name, json.dumps(order))
                    base = ["--method", "bucket", "--features", features, "--order", name, sas]
                    calls += [["solve", *base], ["lp", *base]]
    for seed in COMPARE_SEEDS:
        sas = _write(f"compare{seed}.sas", serialize_sas(random_task(4, 4, 8, seed)))
        calls.append(["compare", sas, "--state", "random:3", "--format", "json"])
    alias = Task([Variable(0, "a", 2, ("0", "1")), Variable(1, "b", 1, ("0",)),
                  Variable(2, "c", 2, ("0", "1"))],
                 [Operator("o", {0: 0}, {0: 1}, 1)], (0, 0, 0), {0: 1, 1: 0, 2: 0})
    sas = _write("alias.sas", serialize_sas(alias))
    fs = FeatureSet((Feature(((0, 0), (1, 0), (2, 0))), Feature(((0, 0), (2, 1)))))
    features = _write("alias.features", "".join(format_feature(alias, f) + "\n" for f in fs))
    _write("alias_order.json", json.dumps({"o": ["a", "b", "c"]}))
    base = ["--method", "bucket", "--dim", "3", "--features", features,
            "--order", "alias_order.json", sas]
    calls += [["lp", *base], ["solve", *base]]
    for sas in extra:
        features = os.path.splitext(sas)[0] + ".features"
        calls += _task_calls(sas, features if os.path.exists(features) else None)
    _write("calls.json", json.dumps(calls))


def _digest(cost, lp) -> str:
    """Digest of one hand-off: the cost vector, then for a new model its
    column bounds, row bounds and CSC matrix (shape, indptr, indices, data)."""
    parts = [cost]
    if lp is not None:
        *bounds, matrix = lp
        parts += [*bounds, np.array(matrix.shape), matrix.indptr, matrix.indices, matrix.data]
    h = hashlib.sha256()
    for part in parts:
        part = np.asarray(part)
        part = part.astype(np.int64 if part.dtype.kind in "iu" else float)
        h.update(repr(part.shape).encode())
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def run(tree: str, workdir: str) -> None:
    """Print one JSON record per call: stdout digest, exit code, and the
    digests of the LPs handed to HiGHS (null if the tree cannot show them)."""
    potplan = _import_potplan(tree)
    os.chdir(workdir)
    with open("calls.json", encoding="utf-8") as f:
        calls = json.load(f)
    digests: list[str] = []
    hand_off = getattr(potplan.lp, "_run_highs", None)
    if hand_off is not None:
        def recording(highs, cost, lp=None):
            digests.append(_digest(cost, lp))
            return hand_off(highs, cost, lp)

        potplan.lp._run_highs = recording
    records = []
    for argv in calls:
        digests.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = potplan.cli.main(argv)
            except SystemExit as e:
                code = e.code
        records.append({"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                        "exit": code, "highs": list(digests) if hand_off else None})
    json.dump(records, sys.stdout)


def _worker(mode: str, tree: str, workdir: str, extra: list[str]) -> str:
    argv = [sys.executable, os.path.abspath(__file__), "--worker", mode, tree, workdir, *extra]
    return subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        mode, tree, workdir, *extra = argv[1:]
        if mode == "prepare":
            prepare(tree, workdir, extra)
        else:
            run(tree, workdir)
        return 0
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after, *extra = argv
    with tempfile.TemporaryDirectory() as workdir:
        _worker("prepare", before, workdir, [os.path.abspath(p) for p in extra])
        with open(os.path.join(workdir, "calls.json"), encoding="utf-8") as f:
            calls = json.load(f)
        results = [json.loads(_worker("run", tree, workdir, [])) for tree in (before, after)]
    digested = all(r[0]["highs"] is not None for r in results if r)
    if not digested:
        print("a tree has no lp._run_highs: comparing stdout and exit codes only")
        for records in results:
            for record in records:
                del record["highs"]
    differ = [(argv, a, b) for argv, a, b in zip(calls, *results) if a != b]
    for argv, a, b in differ:
        fields = ", ".join(key for key in a if a[key] != b[key])
        print(f"differs in {fields}: {' '.join(argv)}")
    hand_offs = sum(len(r["highs"]) for r in results[0]) if digested else 0
    print(f"{len(calls)} calls, {hand_offs} HiGHS hand-offs: "
          + ("identical" if not differ else f"{len(differ)} differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
