"""Graph non-3-colorability as consistency of a dimension-3 potential.

The constructed task has one color variable per vertex plus a binary master
switch; all operators cost zero.  The potential is zero while the switch is
off; once it flips, the potential dips below zero exactly on proper
3-colorings, so the potential is consistent iff no proper coloring exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .features import FeatureSet
from .task import Operator, Task, Variable

COLORS = ("red", "green", "blue")


class GraphError(ValueError):
    pass


class TooLargeError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: frozenset[tuple[int, int]]  # pairs (u, v) with u < v

    def __post_init__(self):
        if self.vertex_count < 1:
            raise GraphError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise GraphError(f"bad edge ({u}, {v})")

    @classmethod
    def of(cls, vertex_count: int, edges) -> "Graph":
        normalized = frozenset(tuple(sorted(e)) for e in edges)
        return cls(vertex_count, normalized)


def _integers(line_no: int, tokens: list[str]) -> list[int]:
    try:
        return [int(token) for token in tokens]
    except ValueError:
        raise GraphError(f"line {line_no}: expected integers, got '{' '.join(tokens)}'") from None


def parse_dimacs(text: str) -> Graph:
    """DIMACS edge-list format: `p edge n m` then `e u v` lines (1-based)."""
    vertex_count = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphError(f"line {line_no}: expected 'p edge n m'")
            vertex_count, edge_count = _integers(line_no, parts[2:])
        elif parts[0] == "e":
            if vertex_count is None:
                raise GraphError(f"line {line_no}: edge before problem line")
            if len(parts) != 3:
                raise GraphError(f"line {line_no}: expected 'e u v'")
            u, v = _integers(line_no, parts[1:])
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise GraphError(f"line {line_no}: edge {u} {v} leaves vertices 1..{vertex_count}")
            if u == v:
                raise GraphError(f"line {line_no}: self loop")
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"line {line_no}: unknown record '{parts[0]}'")
    if vertex_count is None:
        raise GraphError("missing problem line")
    if len(edges) != edge_count:
        raise GraphError(f"problem line declares {edge_count} edges, found {len(edges)}")
    return Graph.of(vertex_count, edges)


def is_3colorable(graph: Graph, cap: int = 10 ** 6) -> bool:
    """Brute-force search over all colorings."""
    if 3 ** graph.vertex_count > cap:
        raise TooLargeError(f"3^{graph.vertex_count} colorings exceed the cap {cap}")
    for coloring in itertools.product(range(3), repeat=graph.vertex_count):
        if all(coloring[u] != coloring[v] for u, v in graph.edges):
            return True
    return False


@dataclass
class Reduction:
    graph: Graph
    task: Task
    features: FeatureSet
    weights: list[float]
    master_var: int
    master_feature: int  # index of the switch-on feature


def reduce_3col(graph: Graph) -> Reduction:
    """Build the task, feature set, and weights for a graph.

    Color-change operators carry the master switch (still off) in both
    precondition and effect, keeping the task normalized; the switch operator
    turns it on, after which nothing is applicable.  Every master/edge triple
    is a feature (most weighted zero) so the dimension-3 machinery gets a
    nontrivial feature set; the unequal-color triples with the switch on
    weigh -1 and the switch-on atom weighs |E| - 1.
    """
    n = graph.vertex_count
    variables = [Variable(v, f"color_{v}", 3, COLORS) for v in range(n)]
    master = n
    variables.append(Variable(master, "master", 2, ("0", "1")))

    operators = []
    for v in range(n):
        for c in range(3):
            for c2 in range(3):
                if c2 == c:
                    continue
                operators.append(Operator(
                    f"recolor-{v}-{COLORS[c]}-{COLORS[c2]}",
                    {v: c, master: 0}, {v: c2, master: 0}, 0))
    operators.append(Operator("switch", {master: 0}, {master: 1}, 0))

    initial = tuple([0] * n + [0])
    goal = {v: 0 for v in range(n)}
    goal[master] = 1
    task = Task(variables, operators, initial, goal)

    features = [((master, 1),)]
    values = [float(len(graph.edges) - 1)]
    for u, v in sorted(graph.edges):
        for m in (0, 1):
            for cu in range(3):
                for cv in range(3):
                    features.append(((u, cu), (v, cv), (master, m)))
                    values.append(-1.0 if m == 1 and cu != cv else 0.0)
    return Reduction(graph, task, FeatureSet.of(features), values, master, 0)
