"""Command-line entry point.

Results go to stdout (JSON by default, CSV for tables), diagnostics to
stderr.  Exit codes: 0 success, 1 domain errors (unsolvable task, infeasible
model, unbounded model: an objective over dead ends, oversized state space),
2 usage errors.  Identical invocations with the same seed produce
byte-identical output; search timing is therefore only printed on request.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from . import costpart, direct2d, elimination, features, generator, lp, reduction, search
from .task import (DEFAULT_STATE_CAP, StateSpaceTooLargeError, TaskError, Task,
                   build_transition_system, exact_goal_distances, parse_sas,
                   serialize_sas, state_index)
from .tnf import is_tnf, to_tnf

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class CliUsageError(ValueError):
    pass


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _load_task(path: str) -> Task:
    return parse_sas(_read(path))


def _load_tnf_task(path: str) -> Task:
    task = _load_task(path)
    if not is_tnf(task):
        print("note: input task is not in transition normal form; normalizing",
              file=sys.stderr)
        task, _ = to_tnf(task)
    return task


def _feature_set(task: Task, dim: int, features_path: str | None):
    if features_path:
        return features.parse_feature_file(task, _read(features_path))
    if dim < 1:
        raise CliUsageError(f"--dim must be positive, got {dim}")
    if dim > 2:
        raise CliUsageError("--dim above 2 requires --features")
    return features.generate_features(task, dim)


def _count(spec: str) -> int:
    """N of a `kind:N` spec, which must be a positive integer."""
    try:
        n = int(spec.split(":", 1)[1])
    except ValueError:
        raise CliUsageError(f"bad count in '{spec}'") from None
    if n < 1:
        raise CliUsageError(f"'{spec}' needs a positive count")
    return n


def _parse_orderings(task: Task, path: str) -> dict[int, list[int]]:
    by_name = {op.name: i for i, op in enumerate(task.operators)}
    var_by_name = {v.name: v.id for v in task.variables}
    raw = json.loads(_read(path))
    if not isinstance(raw, dict) or not all(
            isinstance(names, list) and all(isinstance(n, str) for n in names)
            for names in raw.values()):
        raise CliUsageError("order file must map operator names to lists of variable names")
    orderings = {}
    for op_name, var_names in raw.items():
        if op_name not in by_name:
            raise CliUsageError(f"order file names unknown operator '{op_name}'")
        try:
            orderings[by_name[op_name]] = [var_by_name[n] for n in var_names]
        except KeyError as e:
            raise CliUsageError(f"order file names unknown variable {e}") from None
    return orderings


def _build_model(task: Task, fs, args) -> lp.LpModel:
    """The chosen potential model with its objective set."""
    if args.order and args.method != "bucket":
        raise CliUsageError(f"--order needs --method bucket, not {args.method}")
    if args.method == "direct2d":
        if fs.dimension > 2:
            raise CliUsageError("method direct2d needs features of dimension <= 2")
        model = direct2d.build_direct2d_lp(task, fs)
    elif args.method == "bucket":
        orderings = _parse_orderings(task, args.order) if args.order else None
        model = direct2d.build_general_lp(task, fs, orderings)
    else:  # exhaustive
        model = direct2d.build_exhaustive_lp(task, fs, state_cap=args.state_cap)
    if args.objective == "init":
        states = [task.initial_state]
    elif args.objective.startswith("samples:"):
        states = direct2d.sample_states(task, _count(args.objective), args.seed)
    else:
        raise CliUsageError(f"unknown objective '{args.objective}' (use init or samples:N)")
    model.set_objective(direct2d.state_objective(task, fs, *states))
    return model


def cmd_validate_task(args) -> int:
    task = _load_task(args.task)
    print(json.dumps({
        "valid": True,
        "variables": len(task.variables),
        "operators": len(task.operators),
        "states": task.state_count(),
        "is_tnf": is_tnf(task),
    }))
    return EXIT_OK


def cmd_tnf(args) -> int:
    task = _load_task(args.task)
    result, certificate = to_tnf(task)
    _write_output(serialize_sas(result), args.out)
    print(f"added {len(certificate.added_operators)} forgetting operators",
          file=sys.stderr)
    return EXIT_OK


def cmd_lp(args) -> int:
    task = _load_tnf_task(args.task)
    fs = _feature_set(task, args.dim, args.features)
    model = _build_model(task, fs, args)
    _write_output(lp.export_lp(model), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    task = _load_tnf_task(args.task)
    fs = _feature_set(task, args.dim, args.features)
    model = _build_model(task, fs, args)
    solution = lp.solve(model)
    if solution.status != "optimal":
        print(f"error: model is {solution.status}", file=sys.stderr)
        return EXIT_DOMAIN
    result = direct2d.extract_result(fs, task, solution)
    weights = features.weights_to_strings(task, fs, result.weights)

    def printed(value: float) -> float:
        # Adding 0.0 turns -0.0 into 0.0: round() keeps the sign of a zero,
        # which HiGHS leaves either way.
        return round(value, 9) + 0.0

    print(json.dumps({
        "objective": printed(solution.objective_value),
        "status": solution.status,
        "method": args.method,
        "dimension": fs.dimension,
        "goal_potential": printed(result.goal_potential),
        "weights": {k: printed(v) for k, v in weights.items()},
    }, indent=None, sort_keys=False))
    return EXIT_OK


def _heuristic_from_spec(task: Task, spec: str):
    if spec == "blind":
        return search.blind
    if spec in ("pot1", "pot2"):
        fs = features.generate_features(task, 1 if spec == "pot1" else 2)
        try:
            result = direct2d.solve_for_state(task, fs, task.initial_state)
        except lp.LpStatusError as e:
            if e.status != "unbounded":
                raise
            # An admissible potential is at most h*, so an unbounded optimum
            # at the initial state certifies that h* is infinite there.
            raise search.NoPlanError("goal is unreachable from the initial state") from e
        return search.PotentialHeuristic(task, fs, result.weights)
    if spec.startswith("weights:"):
        mapping = json.loads(_read(spec.split(":", 1)[1]))
        fs, w = features.weights_from_strings(task, mapping)
        return search.PotentialHeuristic(task, fs, w)
    raise CliUsageError(f"unknown heuristic '{spec}'")


def cmd_search(args) -> int:
    task = _load_tnf_task(args.task)
    try:
        result = search.astar(task, _heuristic_from_spec(task, args.heuristic))
    except search.NoPlanError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    payload = {
        "plan": [task.operators[i].name for i in result.plan],
        "cost": result.cost,
        "expansions": result.expansions,
        "expansions_before_last_f_layer": result.expansions_before_last_f_layer,
        "evaluated": result.evaluated,
    }
    if args.timing:
        payload["wall_time"] = result.wall_time
    print(json.dumps(payload))
    return EXIT_OK


def cmd_validate(args) -> int:
    task = _load_tnf_task(args.task)
    mapping = json.loads(_read(args.weights))
    fs, w = features.weights_from_strings(task, mapping)
    heuristic = search.PotentialHeuristic(task, fs, w)
    report = search.validate(task, heuristic, args.state_cap)
    counterexample = None
    if report.counterexample is not None:
        counterexample = {"state": list(report.counterexample)}
        if report.operator is not None:
            counterexample["operator"] = task.operators[report.operator].name
    print(json.dumps({
        "goal_aware": report.goal_aware,
        "consistent": report.consistent,
        "admissible": report.admissible,
        "counterexample": counterexample,
    }))
    return EXIT_OK


def _compare_states(task: Task, ts, distances, args):
    if args.state == "init":
        return [("init", task.initial_state)]
    if args.state.startswith("random:"):
        count = _count(args.state)
        finite = [i for i, d in enumerate(distances.tolist()) if d < math.inf]
        rng = random.Random(args.seed)
        picks = [finite[rng.randrange(len(finite))] for _ in range(count)]
        return [(f"s{idx}", tuple(ts.states[idx].tolist())) for idx in picks]
    raise CliUsageError(f"unknown state spec '{args.state}'")


def _optima(model: lp.LpModel, states, set_state) -> list[float]:
    """The model's maximum at each state, math.inf where it is unbounded:
    every model here is admissible, so an unbounded maximum certifies that
    h* is infinite there.  Only the objective changes between the solves,
    so each re-solve starts from the last basis."""
    values = []
    for state in states:
        set_state(state)
        solution = lp.solve(model)
        values.append(math.inf if solution.status == "unbounded"
                      else solution.require_optimal().objective_value)
    return values


def _potential_optima(task: Task, dim: int, states) -> list[float]:
    fs = features.generate_features(task, dim)
    model = direct2d.build_direct2d_lp(task, fs)
    return _optima(model, states, lambda state: model.set_objective(
        direct2d.state_objective(task, fs, state)))


def _partitioning_optima(build, ts, patterns, states) -> list[float]:
    built = build(ts, patterns, states[0])
    return _optima(built.model, states, built.set_state)


def cmd_compare(args) -> int:
    task = _load_tnf_task(args.task)
    ts = build_transition_system(task, args.state_cap)
    distances = exact_goal_distances(ts)
    patterns = costpart.all_patterns(len(task.variables))
    picks = _compare_states(task, ts, distances, args)
    states = [state for _, state in picks]
    # Models outside, states inside: one model and its solver session at a time.
    columns = {
        "h_pot1": _potential_optima(task, 1, states),
        "h_pot2": _potential_optima(task, 2, states),
        "h_ocp2": _partitioning_optima(costpart.build_ocp_lp, ts, patterns, states),
        "h_tcp2": _partitioning_optima(costpart.build_tcp_lp, ts, patterns, states),
    }
    rows = []
    for i, (label, state) in enumerate(picks):
        h_star = distances[state_index(state, ts.domain_sizes)].tolist()
        rows.append({
            "state": label,
            **{column: round(values[i], 6) if math.isfinite(values[i]) else "inf"
               for column, values in columns.items()},
            "h_star": h_star if math.isfinite(h_star) else "inf",
        })
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(str(value) for value in row.values()))
    return EXIT_OK


def cmd_width(args) -> int:
    task = _load_tnf_task(args.task)
    fs = _feature_set(task, args.dim, args.features)
    graphs = elimination.adjacency(task, fs, elimination.classify(task, fs))
    _, widths = elimination.eliminate_graphs(graphs, [[-1] * len(task.variables)] * len(graphs))
    rows = [{"operator": op.name, "edges": edges, "width": width} for op, edges, width in
            zip(task.operators, (graphs.sum(axis=(1, 2)) // 2).tolist(), widths.tolist())]
    overall = max(widths.tolist(), default=0)
    if args.format == "json":
        print(json.dumps({"operators": rows, "max_width": overall}))
    else:
        print("operator,edges,width")
        for row in rows:
            print(f"{row['operator']},{row['edges']},{row['width']}")
        print(f"max,,{overall}")
    return EXIT_OK


def cmd_reduce3col(args) -> int:
    graph = reduction.parse_dimacs(_read(args.graph))
    red = reduction.reduce_3col(graph)
    _write_output(serialize_sas(red.task), args.out)
    weights_path = args.weights_out
    if weights_path is None and args.out not in (None, "-"):
        weights_path = args.out + ".weights.json"
    if weights_path:
        payload = features.weights_to_strings(red.task, red.features, red.weights)
        with open(weights_path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
    if args.check:
        colorable = reduction.is_3colorable(graph)
        print(f"3-colorable: {'yes' if colorable else 'no'}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.vars < 1:
        raise CliUsageError(f"--vars needs a positive count, not {args.vars}")
    if args.dom < 2:
        raise CliUsageError(f"--dom needs at least 2 values, not {args.dom}")
    if args.ops < 0:
        raise CliUsageError(f"--ops must not be negative, not {args.ops}")
    task = generator.random_task(args.vars, args.dom, args.ops, args.seed,
                                 tnf=not args.general, solvable=not args.allow_unsolvable)
    _write_output(serialize_sas(task), args.out)
    return EXIT_OK


@functools.cache  # built once per process: building it takes longer than a small solve
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potplan",
        description="Potential-heuristic LPs, cost partitioning, and search "
                    "oracles for SAS+ planning tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_lp(p):
        p.add_argument("task")
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--features", help="explicit feature list file")
        p.add_argument("--method", choices=["direct2d", "bucket", "exhaustive"],
                       default="direct2d")
        p.add_argument("--objective", default="init", help="init or samples:N")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--order", help="JSON file of per-operator variable orders")
        p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)

    p = sub.add_parser("validate-task", help="parse a task and report basic facts")
    p.add_argument("task")
    p.set_defaults(func=cmd_validate_task)

    p = sub.add_parser("tnf", help="normalize a task to transition normal form")
    p.add_argument("task")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_tnf)

    p = sub.add_parser("lp", help="write the potential LP as a CPLEX LP file")
    add_common_lp(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("solve", help="solve the potential LP and print weights")
    add_common_lp(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("search", help="run A* with a heuristic")
    p.add_argument("task")
    p.add_argument("--heuristic", default="pot2",
                   help="blind | pot1 | pot2 | weights:<file>")
    p.add_argument("--timing", action="store_true",
                   help="include wall time (makes output nondeterministic)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("validate", help="exhaustively validate a weight file")
    p.add_argument("task")
    p.add_argument("--weights", required=True)
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="compare potential, OCP, and TCP values")
    p.add_argument("task")
    p.add_argument("--state", default="init", help="init or random:N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("width", help="context-dependency graph widths per operator")
    p.add_argument("task")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--features")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("reduce3col", help="turn a DIMACS graph into a task + weights")
    p.add_argument("graph")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--weights-out", default=None)
    p.add_argument("--check", action="store_true",
                   help="print whether the graph is 3-colorable, by brute force; the "
                        "written weights are consistent exactly when it prints 'no' "
                        "(check them with `potplan validate`)")
    p.set_defaults(func=cmd_reduce3col)

    p = sub.add_parser("gen", help="generate a seeded random task")
    p.add_argument("--vars", type=int, default=4)
    p.add_argument("--dom", type=int, default=3)
    p.add_argument("--ops", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--general", action="store_true", help="do not normalize")
    p.add_argument("--allow-unsolvable", action="store_true")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (features.FeatureError, StateSpaceTooLargeError, TaskError,
            generator.GenerationError, reduction.GraphError,
            costpart.AbstractionError, elimination.OrderingError,
            direct2d.PotentialLpError, lp.LpError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
