"""The three workloads: their seeded inputs, the calls of one round and the
checks on every call's output.

A case is one generated task with its files and reference answers; a round
is the calls made on one case, and a pass is one round on every case.  A
run makes one whole pass, then further rounds until its time is up.
`cases` is sized so that one pass takes about 20-30 s on a 2-vCPU virtual
machine: the tasks of one shape still differ in cost by up to a factor of
two, so a run measures as many distinct tasks as fit.  Each check is
computed by the benchmark from the task itself or follows from a property
the method must have; none compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from tasks import (PlantedTask, Potential, StateSpace, applicable, cut_walk,
                   format_conjunction, planted_task, random_triples,
                   serialize_sas, state_index, successor)

TOL = 1e-6
# `compare` prints its values rounded to six decimals, which can move two
# equal values apart by one more unit in the sixth place.
PRINTED6_TOL = TOL + 1e-6


def same_optimum(a: float, b: float) -> bool:
    """Two methods' optima agree within 1e-6 relative to their size, the
    tolerance potplan declares for comparing optima.  Weights pinned at the
    bound of 1e8 leave an objective of about ten only some 1e-6 of absolute
    precision (see FOUND in CHANGES.md)."""
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class CheckFailed(Exception):
    """A call's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


@dataclass
class Case:
    task: PlantedTask
    path: str
    refs: dict = field(default_factory=dict)


def check_weights_on_walk(case: Case, result: dict, objective: float) -> None:
    """The printed weights, evaluated by the benchmark: the initial state's
    potential is the objective, the goal's is at most 0, and every planted
    walk transition is consistent."""
    h = Potential(result["weights"])
    states = case.refs["walk_states"]
    require(abs(h(states[0]) - objective) <= TOL,
            f"initial potential {h(states[0])} is not the objective {objective}")
    require(h(states[-1]) <= TOL, f"goal potential {h(states[-1])} above 0")
    for s, t, i in zip(states, states[1:], case.task.walk):
        cost = case.task.operators[i].cost
        require(h(s) - h(t) <= cost + TOL,
                f"walk step {case.task.operators[i].name}: h drops by {h(s) - h(t)} > {cost}")


class Compact:
    """Per-task potential LPs on planted tasks: direct2d, bucket elimination
    at dimension 2, and bucket elimination over atoms plus random triples."""

    name = "compact"
    kinds = ("solve_direct2d_s", "solve_bucket_s", "solve_bucket_dim3_s")
    shape = dict(n_vars=10, dom=3, n_ops=20, scope=(2, 2), max_cost=3, walk_len=30)
    triples = 30
    cases = 20

    def make_inputs(self, seed: int, workdir: str) -> list[Case]:
        n, dom = self.shape["n_vars"], self.shape["dom"]
        atoms = [((v, x),) for v in range(n) for x in range(dom)]
        out = []
        for i in range(self.cases):
            task = planted_task(f"compact:{seed}:{i}", **self.shape)
            path = write(os.path.join(workdir, f"compact{i}.sas"), serialize_sas(task))
            triples = random_triples(f"compact-features:{seed}:{i}", n, dom, self.triples)
            features = write(os.path.join(workdir, f"compact{i}.features"),
                             "".join(format_conjunction(f) + "\n" for f in atoms + triples))
            out.append(Case(task, path, {"features": features,
                                         "walk_states": task.walk_states()}))
        return out

    def prepare(self, cases: list[Case], call) -> None:
        case = cases[0]
        call(self.kinds[0], ["solve", "--method", "direct2d", case.path],
             lambda out: self.check_solve(case, out, "direct2d", 2))

    def check_solve(self, case: Case, out: str, method: str, dimension: int) -> float:
        result = json.loads(out)
        require(result["status"] == "optimal", f"status {result['status']}")
        require(result["method"] == method and result["dimension"] == dimension,
                f"method {result['method']} dimension {result['dimension']}")
        objective = result["objective"]
        require(-TOL <= objective <= case.task.walk_cost + TOL,
                f"objective {objective} outside [0, planted walk cost {case.task.walk_cost}]")
        check_weights_on_walk(case, result, objective)
        return objective

    def run_round(self, case: Case, call) -> None:
        direct = call(self.kinds[0], ["solve", "--method", "direct2d", case.path],
                      lambda out: self.check_solve(case, out, "direct2d", 2))

        def check_bucket(out: str) -> float:
            objective = self.check_solve(case, out, "bucket", 2)
            require(same_optimum(objective, direct),
                    f"bucket objective {objective} differs from direct2d {direct}")
            return objective

        call(self.kinds[1], ["solve", "--method", "bucket", case.path], check_bucket)
        call(self.kinds[2], ["solve", "--method", "bucket", "--dim", "3", "--features",
                             case.refs["features"], case.path],
             lambda out: self.check_solve(case, out, "bucket", 3))


class Oracle:
    """Ground-truth path on small tasks with explicit state spaces: the
    cost-partitioning comparison, the exhaustive LP and the validator."""

    name = "oracle"
    kinds = ("compare_s", "solve_exhaustive_s", "validate_s")
    shape = dict(n_vars=4, dom=4, n_ops=8, scope=(2, 2), max_cost=3, walk_len=12)
    states = 2  # states per compare call
    cases = 12

    def make_inputs(self, seed: int, workdir: str) -> list[Case]:
        out = []
        for i in range(self.cases):
            task = planted_task(f"oracle:{seed}:{i}", **self.shape)
            path = write(os.path.join(workdir, f"oracle{i}.sas"), serialize_sas(task))
            space = StateSpace(task)
            out.append(Case(task, path, {
                "space": space,
                "h_star": space.goal_distances(),
                "weights": os.path.join(workdir, f"oracle{i}.weights.json"),
                "compare_seed": str(i),
            }))
        return out

    def prepare(self, cases: list[Case], call) -> None:
        """The direct2d optimum of every case, the reference for the
        exhaustive LP; the first of these calls is the warm-up."""
        for case in cases:
            case.refs["direct2d"] = call(
                "solve_direct2d", ["solve", "--method", "direct2d", case.path],
                lambda out: json.loads(out)["objective"])

    def check_compare(self, case: Case, out: str) -> None:
        rows = json.loads(out)
        require(len(rows) == self.states, f"{len(rows)} rows for {self.states} states")
        h_star = case.refs["h_star"]
        for row in rows:
            label = row["state"]
            index = int(label[1:])
            own = h_star[index]
            reported = math.inf if row["h_star"] == "inf" else row["h_star"]
            require(reported == own, f"{label}: h_star {reported}, reverse Dijkstra {own}")
            pot1, pot2, ocp, tcp = row["h_pot1"], row["h_pot2"], row["h_ocp2"], row["h_tcp2"]
            require(abs(pot2 - tcp) <= PRINTED6_TOL, f"{label}: h_pot2 {pot2} != h_tcp2 {tcp}")
            require(ocp <= tcp + PRINTED6_TOL, f"{label}: h_ocp2 {ocp} > h_tcp2 {tcp}")
            require(pot1 <= pot2 + PRINTED6_TOL, f"{label}: h_pot1 {pot1} > h_pot2 {pot2}")
            require(pot2 <= own + PRINTED6_TOL, f"{label}: h_pot2 {pot2} > h_star {own}")

    def check_exhaustive(self, case: Case, out: str) -> dict:
        result = json.loads(out)
        require(result["status"] == "optimal" and result["method"] == "exhaustive",
                f"status {result['status']} method {result['method']}")
        reference = case.refs["direct2d"]
        require(same_optimum(result["objective"], reference),
                f"exhaustive objective {result['objective']} differs from direct2d {reference}")
        return result["weights"]

    def check_validate(self, case: Case, out: str, weights: dict) -> None:
        report = json.loads(out)
        require(report["goal_aware"] and report["consistent"] and report["admissible"]
                and report["counterexample"] is None, f"validate reports {report}")
        space, h_star = case.refs["space"], case.refs["h_star"]
        h = space.potential(weights)
        require(h[space.goal] <= TOL, f"own check: goal potential {h[space.goal]}")
        worst = np.max(h[space.src] - h[space.dst] - space.cost, initial=-math.inf)
        require(worst <= TOL, f"own check: a transition is inconsistent by {worst}")
        require(bool(np.all(h <= h_star + TOL)), "own check: a state is overestimated")

    def run_round(self, case: Case, call) -> None:
        call(self.kinds[0], ["compare", "--state", f"random:{self.states}", "--seed",
                             case.refs["compare_seed"], "--format", "json", case.path],
             lambda out: self.check_compare(case, out))
        weights = call(self.kinds[1], ["solve", "--method", "exhaustive", case.path],
                       lambda out: self.check_exhaustive(case, out))
        write(case.refs["weights"], json.dumps(weights))
        call(self.kinds[2], ["validate", "--weights", case.refs["weights"], case.path],
             lambda out: self.check_validate(case, out, weights))


class Search:
    """A* with the blind heuristic and with the pot1 and pot2 potentials."""

    name = "search"
    kinds = ("search_blind_s", "search_pot1_s", "search_pot2_s")
    # Operators over one variable each: h* is a sum over variables, so pot1
    # and pot2 are exact and their A* expands little more than a plan.  With
    # interacting operators the pot1 expansion count ranged from 10 to 768
    # over the tasks of one seed, and a run's pot1 time followed its seed.
    shape = dict(n_vars=8, dom=3, n_ops=24, scope=(1, 1), max_cost=3, walk_len=60)
    cases = 24

    def make_inputs(self, seed: int, workdir: str) -> list[Case]:
        out = []
        for i in range(self.cases):
            task = planted_task(f"search:{seed}:{i}", **self.shape)
            # Cut the walk where it is farthest from the initial state, so
            # every goal is far and blind search explores most of the space.
            distance = StateSpace(task).distances_from_initial()
            along = [distance[state_index(s, task.domain_sizes)] for s in task.walk_states()]
            task = cut_walk(task, int(np.argmax(along)))
            path = write(os.path.join(workdir, f"search{i}.sas"), serialize_sas(task))
            out.append(Case(task, path, {"optimum": float(max(along))}))
        return out

    def prepare(self, cases: list[Case], call) -> None:
        case = cases[0]
        call(self.kinds[0], ["search", "--heuristic", "blind", case.path],
             lambda out: self.check_plan(case, out))

    def check_plan(self, case: Case, out: str) -> None:
        """Replay the plan with the benchmark's own successor function."""
        result = json.loads(out)
        by_name = {op.name: op for op in case.task.operators}
        state, cost = case.task.initial, 0
        for name in result["plan"]:
            op = by_name[name]
            require(applicable(state, op), f"plan step {name} is not applicable")
            state = successor(state, op)
            cost += op.cost
        require(state == case.task.goal, "plan does not reach the goal")
        optimum = case.refs["optimum"]
        require(cost == result["cost"] == optimum,
                f"plan cost {cost}, reported {result['cost']}, optimum {optimum}")

    def run_round(self, case: Case, call) -> None:
        for kind, heuristic in zip(self.kinds, ("blind", "pot1", "pot2")):
            call(kind, ["search", "--heuristic", heuristic, case.path],
                 lambda out: self.check_plan(case, out))


WORKLOADS = {w.name: w for w in (Compact(), Oracle(), Search())}
