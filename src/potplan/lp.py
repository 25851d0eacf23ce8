"""Solver-agnostic linear programs: expression algebra, model assembly, a
solve contract backed by scipy's HiGHS, and CPLEX-LP-format text export.

An optional external solver can be plugged in through the environment
variable POTPLAN_LP_SOLVER_CMD; the configured command is invoked with two
arguments (LP file path, solution file path) and must write the solution as
`<name> <value>` lines, or a single line `infeasible` / `unbounded`.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import tempfile
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

FEASIBILITY_TOL = 1e-6   # absolute, for row re-checks
OPTIMALITY_TOL = 1e-6    # relative, for optimum comparisons
SOLVER_ENV_VAR = "POTPLAN_LP_SOLVER_CMD"

RELATIONS = ("<=", "=", ">=")

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.()]*$")


class LpError(ValueError):
    pass


class MissingAssignmentError(LpError):
    pass


class SolverFailureError(LpError):
    pass


class LpStatusError(LpError):
    """Raised by callers that require an optimal solution."""

    def __init__(self, status: str):
        super().__init__(f"expected an optimal solution, solver reported '{status}'")
        self.status = status


@dataclass(frozen=True)
class LinearExpression:
    """constant + sum of coefficient * unknown; zero coefficients are dropped."""

    constant: float = 0.0
    terms: tuple[tuple[str, float], ...] = ()

    @classmethod
    def build(cls, constant: float = 0.0, terms: dict[str, float] | None = None) -> "LinearExpression":
        items = tuple(sorted((n, float(c)) for n, c in (terms or {}).items() if c != 0.0))
        return cls(float(constant), items)

    @classmethod
    def term(cls, name: str, coefficient: float = 1.0) -> "LinearExpression":
        return cls.build(0.0, {name: coefficient})

    @classmethod
    def const(cls, value: float) -> "LinearExpression":
        return cls.build(value)

    def coefficients(self) -> dict[str, float]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return self.constant == 0.0 and not self.terms

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = LinearExpression.const(other)
        merged = dict(self.terms)
        for name, coef in other.terms:
            merged[name] = merged.get(name, 0.0) + coef
        return LinearExpression.build(self.constant + other.constant, merged)

    __radd__ = __add__

    def __neg__(self):
        return LinearExpression.build(-self.constant,
                                      {n: -c for n, c in self.terms})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = LinearExpression.const(other)
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar == 0:
            return LinearExpression()
        return LinearExpression.build(self.constant * scalar,
                                      {n: c * scalar for n, c in self.terms})

    __rmul__ = __mul__

    def substitute(self, replacements: dict[str, "LinearExpression"]) -> "LinearExpression":
        """Replace whole unknowns by expressions (used to inline aliased unknowns)."""
        result = LinearExpression.const(self.constant)
        for name, coef in self.terms:
            if name in replacements:
                result = result + coef * replacements[name]
            else:
                result = result + LinearExpression.term(name, coef)
        return result


ZERO = LinearExpression()


def evaluate(expression: LinearExpression, assignment: dict[str, float]) -> float:
    """Value of the expression under a total assignment to its unknowns."""
    total = expression.constant
    for name, coef in expression.terms:
        if name not in assignment:
            raise MissingAssignmentError(f"no value for unknown '{name}'")
        total += coef * assignment[name]
    return total


@dataclass
class Row:
    expression: LinearExpression  # constant folded into rhs, see LpModel.add_row
    relation: str
    rhs: float
    name: str = ""


def _append(buffer: array, values) -> None:
    """Append a numpy-convertible sequence to a typed array in one copy."""
    buffer.frombytes(np.ascontiguousarray(values, dtype=buffer.typecode).tobytes())


class RowView(Sequence):
    """Read-only sequence over a model's rows that builds Row objects on demand."""

    def __init__(self, model: "LpModel"):
        self._model = model

    def __len__(self) -> int:
        return len(self._model._rhs)

    def __getitem__(self, index):
        m = self._model
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("row index out of range")
        start = m._row_ends[index - 1] if index else 0
        terms = {m.unknowns[j][0]: c for j, c in zip(m._columns[start:m._row_ends[index]],
                                                     m._coefficients[start:m._row_ends[index]])}
        return Row(LinearExpression.build(0.0, terms), RELATIONS[m._relations[index]],
                   m._rhs[index], m._row_names[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


class LpModel:
    """Columns with bounds, an objective, and the rows as one sparse table.

    Row i holds the terms `_columns[s:e]` / `_coefficients[s:e]` with s the
    previous row's end and e `_row_ends[i]`, plus a relation code (an index
    into RELATIONS), a right-hand side and a name ("" for unnamed).  Names of
    unknowns are resolved to column indices when a row is added; `rows`
    rebuilds name-based Row objects only for callers that ask for them.
    """

    def __init__(self):
        self.unknowns: list[tuple[str, float, float]] = []
        self.objective_sense = "max"
        self.objective = ZERO
        self._by_name: dict[str, int] = {}
        self._frozen = False
        self._columns = array("q")
        self._coefficients = array("d")
        self._row_ends = array("q")
        self._relations = array("b")
        self._rhs = array("d")
        self._row_names: list[str] = []

    @property
    def rows(self) -> RowView:
        return RowView(self)

    def freeze(self) -> "LpModel":
        self._frozen = True
        return self

    def _mutating(self):
        if self._frozen:
            raise LpError("model is frozen")

    def add_unknown(self, name: str, lower: float = -math.inf,
                    upper: float = math.inf) -> str:
        self._mutating()
        if not _NAME_RE.match(name) or name in ("free", "inf"):
            raise LpError(f"unknown name '{name}' is not LP-file safe")
        if name in self._by_name:
            raise LpError(f"unknown '{name}' declared twice")
        if lower > upper:
            raise LpError(f"unknown '{name}': lower bound {lower} above upper {upper}")
        self._by_name[name] = len(self.unknowns)
        self.unknowns.append((name, lower, upper))
        return name

    def has_unknown(self, name: str) -> bool:
        return name in self._by_name

    def index_of(self, name: str) -> int:
        return self._by_name[name]

    def _check_refs(self, expression: LinearExpression, where: str) -> None:
        for name, _ in expression.terms:
            if name not in self._by_name:
                raise LpError(f"{where} references undeclared unknown '{name}'")

    def add_row(self, expression: LinearExpression, relation: str, rhs: float,
                name: str = "") -> None:
        self._mutating()
        if relation not in RELATIONS:
            raise LpError(f"bad relation '{relation}'")
        self._check_refs(expression, "row")
        self._columns.extend(self._by_name[n] for n, _ in expression.terms)
        self._coefficients.extend(c for _, c in expression.terms)
        self._row_ends.append(len(self._columns))
        self._relations.append(RELATIONS.index(relation))
        # Fold the expression constant into the right-hand side.
        self._rhs.append(float(rhs) - expression.constant)
        self._row_names.append(name)

    def add_rows(self, indptr, columns, coefficients, relations, rhs,
                 names=None) -> None:
        """Append rows given in CSR form: row i has the terms
        `columns[indptr[i]:indptr[i + 1]]` (column indices) with the matching
        `coefficients`.  `relations` and `rhs` are one value for every row or
        one per row; `names` is one per row, or None for unnamed rows.  As in
        LinearExpression, a column repeated within a row is summed and zero
        coefficients are dropped."""
        self._mutating()
        indptr = np.asarray(indptr, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        coefficients = np.asarray(coefficients, dtype=float)
        count = len(indptr) - 1
        if count < 0 or indptr[0] != 0 or indptr[-1] != len(columns) \
                or len(coefficients) != len(columns) or np.any(np.diff(indptr) < 0):
            raise LpError("rows: indptr, columns and coefficients do not match")
        if columns.size and (columns.min() < 0 or columns.max() >= len(self.unknowns)):
            bad = columns[(columns < 0) | (columns >= len(self.unknowns))][0]
            raise LpError(f"row references undeclared unknown column {bad}")
        if isinstance(relations, str):
            relations = [relations]
        for relation in relations:
            if relation not in RELATIONS:
                raise LpError(f"bad relation '{relation}'")
        codes = np.array([RELATIONS.index(r) for r in relations], dtype=np.int8)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        names = [""] * count if names is None else list(names)
        for what, size in (("relations", len(codes)), ("right-hand sides", len(rhs))):
            if size not in (1, count):
                raise LpError(f"rows: {size} {what} for {count} rows")
        if len(names) != count:
            raise LpError(f"rows: {len(names)} names for {count} rows")
        block = csr_matrix((coefficients, columns, indptr),
                           shape=(count, len(self.unknowns)))
        block.sum_duplicates()
        block.eliminate_zeros()
        _append(self._row_ends, block.indptr[1:].astype(np.int64) + len(self._columns))
        _append(self._columns, block.indices)
        _append(self._coefficients, block.data)
        _append(self._relations, np.broadcast_to(codes, count))
        _append(self._rhs, np.broadcast_to(rhs, count))
        self._row_names.extend(names)

    def row_table(self) -> tuple[csr_matrix, np.ndarray, np.ndarray]:
        """All rows as a CSR matrix over the columns, with per-row relation
        codes (indices into RELATIONS) and right-hand sides."""
        ends = np.array(self._row_ends, dtype=np.int64)
        indptr = np.concatenate(([0], ends))
        matrix = csr_matrix((np.array(self._coefficients, dtype=float),
                             np.array(self._columns, dtype=np.int64), indptr),
                            shape=(len(ends), len(self.unknowns)))
        return (matrix, np.array(self._relations, dtype=np.int8),
                np.array(self._rhs, dtype=float))

    def row_name(self, index: int) -> str:
        return self._row_names[index] or f"c{index + 1}"

    def set_objective(self, sense: str, expression: LinearExpression) -> None:
        self._mutating()
        if sense not in ("max", "min"):
            raise LpError(f"bad objective sense '{sense}'")
        self._check_refs(expression, "objective")
        self.objective_sense = sense
        self.objective = expression


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    values: dict[str, float] | None = None
    objective_value: float | None = None
    bound_active: tuple[str, ...] = ()

    def require_optimal(self) -> "LpSolution":
        if self.status != "optimal":
            raise LpStatusError(self.status)
        return self


def check_solution(model: LpModel, values: dict[str, float],
                   tolerance: float = FEASIBILITY_TOL) -> list[str]:
    """Names of rows/bounds the assignment violates beyond the tolerance:
    rows first, in row order, then bounds in column order."""
    x = _column_values(model, values)
    matrix, relations, rhs = model.row_table()
    lhs = matrix @ x
    slack = tolerance * np.maximum(1.0, np.abs(rhs))
    # Written as "not ok" so that a NaN left-hand side counts as a violation.
    ok = np.where(relations == RELATIONS.index("<="), lhs <= rhs + slack,
                  np.where(relations == RELATIONS.index(">="), lhs >= rhs - slack,
                           np.abs(lhs - rhs) <= slack))
    violations = [model.row_name(i) for i in np.flatnonzero(~ok)]
    lower, upper = _bounds(model)
    out_of_bounds = (x < lower - tolerance) | (x > upper + tolerance)
    violations.extend(f"bound:{model.unknowns[j][0]}" for j in np.flatnonzero(out_of_bounds))
    return violations


def _column_values(model: LpModel, values: dict[str, float]) -> np.ndarray:
    """The assignment as a vector in column order."""
    try:
        return np.array([values[name] for name, _, _ in model.unknowns], dtype=float)
    except KeyError as e:
        raise MissingAssignmentError(f"no value for unknown {e}") from None


def _bounds(model: LpModel) -> tuple[np.ndarray, np.ndarray]:
    lower = np.array([lo for _, lo, _ in model.unknowns], dtype=float)
    upper = np.array([hi for _, _, hi in model.unknowns], dtype=float)
    return lower, upper


def solve(model: LpModel) -> LpSolution:
    """Solve the model; dispatches to an external solver when configured."""
    command = os.environ.get(SOLVER_ENV_VAR)
    if command:
        return _solve_external(model, command)
    return _solve_scipy(model)


def _solve_scipy(model: LpModel) -> LpSolution:
    n = len(model.unknowns)
    sense = 1.0 if model.objective_sense == "min" else -1.0
    c = np.zeros(n)
    for name, coef in model.objective.terms:
        c[model.index_of(name)] = sense * coef

    # HiGHS takes A_ub x <= b_ub and A_eq x = b_eq: negate the >= rows.
    matrix, relations, rhs = model.row_table()
    sign = np.where(relations == RELATIONS.index(">="), -1.0, 1.0)
    signed = matrix.data * np.repeat(sign, np.diff(matrix.indptr))
    equality = relations == RELATIONS.index("=")
    kwargs = {}
    if not equality.all():
        kwargs["A_ub"] = _select_rows(matrix, signed, ~equality)
        kwargs["b_ub"] = (sign * rhs)[~equality]
    if equality.any():
        kwargs["A_eq"] = _select_rows(matrix, signed, equality)
        kwargs["b_eq"] = rhs[equality]
    bounds = np.column_stack(_bounds(model))  # infinite where unbounded
    result = linprog(c, bounds=bounds, method="highs", **kwargs)

    if result.status == 2:
        return LpSolution("infeasible")
    if result.status == 3:
        return LpSolution("unbounded")
    if result.status != 0:
        raise SolverFailureError(f"linprog failed (status {result.status}): {result.message}")
    values = dict(zip((name for name, _, _ in model.unknowns), result.x.tolist()))
    return _finish(model, values)


def _select_rows(matrix: csr_matrix, data: np.ndarray, mask: np.ndarray) -> csr_matrix:
    """The rows of `matrix` where `mask` holds, with `data` in place of its
    entries (numpy masking; scipy's row indexing costs more on small models)."""
    lengths = np.diff(matrix.indptr)
    keep = np.repeat(mask, lengths)
    indptr = np.concatenate(([0], np.cumsum(lengths[mask])))
    return csr_matrix((data[keep], matrix.indices[keep], indptr),
                      shape=(len(indptr) - 1, matrix.shape[1]))


def _finish(model: LpModel, values: dict[str, float]) -> LpSolution:
    violations = check_solution(model, values)
    if violations:
        raise SolverFailureError(f"solution violates rows: {', '.join(violations[:5])}")
    objective = evaluate(model.objective, values)
    x = _column_values(model, values)
    lower, upper = _bounds(model)
    active = ((~np.isinf(lower) & (np.abs(x - lower) <= FEASIBILITY_TOL))
              | (~np.isinf(upper) & (np.abs(x - upper) <= FEASIBILITY_TOL)))
    return LpSolution("optimal", values, objective,
                      tuple(model.unknowns[j][0] for j in np.flatnonzero(active)))


def _solve_external(model: LpModel, command: str) -> LpSolution:
    with tempfile.TemporaryDirectory(prefix="potplan-lp-") as tmp:
        lp_path = os.path.join(tmp, "model.lp")
        sol_path = os.path.join(tmp, "solution.txt")
        with open(lp_path, "w", encoding="utf-8") as f:
            f.write(export_lp(model))
        argv = shlex.split(command) + [lp_path, sol_path]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SolverFailureError(
                f"external solver exited with {proc.returncode}: {proc.stderr.strip()}")
        if not os.path.exists(sol_path):
            raise SolverFailureError("external solver wrote no solution file")
        with open(sol_path, encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
    if lines and lines[0] in ("infeasible", "unbounded"):
        return LpSolution(lines[0])
    values = {name: 0.0 for name, _, _ in model.unknowns}
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise SolverFailureError(f"bad solution line '{line}'")
        name, value = parts
        if name not in values:
            raise SolverFailureError(f"solution names unknown column '{name}'")
        values[name] = float(value)
    return _finish(model, values)


def _format_coefficient(coef: float) -> str:
    if coef == 1.0:
        return "+ "
    if coef == -1.0:
        return "- "
    if coef < 0:
        return f"- {-coef!r} "
    return f"+ {coef!r} "


def _format_expression(expression: LinearExpression, order: dict[str, int]) -> str:
    parts = []
    for name, coef in sorted(expression.terms, key=lambda t: order[t[0]]):
        parts.append(f"{_format_coefficient(coef)}{name}")
    if expression.constant != 0.0:
        c = expression.constant
        parts.append(f"- {-c!r}" if c < 0 else f"+ {c!r}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def export_lp(model: LpModel) -> str:
    """CPLEX LP text: Maximize/Minimize, Subject To, Bounds, End.

    Every unknown gets a Bounds line, so parse_lp can recover the column list
    (with its order) even for columns that appear in no row.
    """
    order = {name: i for i, (name, _, _) in enumerate(model.unknowns)}
    lines = ["Maximize" if model.objective_sense == "max" else "Minimize"]
    lines.append(f" obj: {_format_expression(model.objective, order)}".rstrip())
    lines.append("Subject To")
    for i, row in enumerate(model.rows):
        lines.append(f" {model.row_name(i)}: {_format_expression(row.expression, order)} "
                     f"{row.relation} {row.rhs!r}")
    lines.append("Bounds")
    for name, lower, upper in model.unknowns:
        if math.isinf(lower) and math.isinf(upper):
            lines.append(f" {name} free")
        elif math.isinf(upper):
            lines.append(f" {name} >= {lower!r}")
        elif math.isinf(lower):
            lines.append(f" {name} <= {upper!r}")
        else:
            lines.append(f" {lower!r} <= {name} <= {upper!r}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"(<=|>=|=|\+|-|:|[A-Za-z_][A-Za-z0-9_.()]*"
                       r"|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|inf)")


def _parse_expression(tokens: list[str]) -> LinearExpression:
    expr = ZERO
    sign = 1.0
    pending: float | None = None
    for token in tokens:
        if token == "+":
            if pending is not None:
                expr = expr + sign * pending
                pending = None
            sign = 1.0
        elif token == "-":
            if pending is not None:
                expr = expr + sign * pending
                pending = None
            sign = -1.0
        elif re.match(r"^[0-9.]|^inf$", token):
            if pending is not None:
                expr = expr + sign * pending
                sign = 1.0
            pending = float(token)
        else:
            coef = sign * (pending if pending is not None else 1.0)
            expr = expr + LinearExpression.term(token, coef)
            pending = None
            sign = 1.0
    if pending is not None:
        expr = expr + sign * pending
    return expr


def parse_lp(text: str) -> LpModel:
    """Parse the LP subset written by export_lp back into a model."""
    section = None
    sense = "max"
    objective_tokens: list[str] = []
    row_specs: list[tuple[str, list[str]]] = []
    bound_lines: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("maximize", "minimize"):
            section = "objective"
            sense = "max" if lowered == "maximize" else "min"
            continue
        if lowered == "subject to":
            section = "rows"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            break
        tokens = _TOKEN_RE.findall(line)
        if section == "objective":
            if ":" in tokens:
                tokens = tokens[tokens.index(":") + 1:]
            objective_tokens.extend(tokens)
        elif section == "rows":
            name = ""
            if ":" in tokens:
                name = tokens[tokens.index(":") - 1]
                tokens = tokens[tokens.index(":") + 1:]
            row_specs.append((name, tokens))
        elif section == "bounds":
            bound_lines.append(tokens)
        else:
            raise LpError(f"unexpected line outside any section: '{line}'")

    model = LpModel()
    for tokens in bound_lines:
        if len(tokens) == 2 and tokens[-1] == "free":
            model.add_unknown(tokens[0])
            continue
        segments: list[list[str]] = [[]]
        relations = []
        for token in tokens:
            if token in ("<=", ">="):
                relations.append(token)
                segments.append([])
            else:
                segments[-1].append(token)
        if len(segments) == 3 and relations == ["<=", "<="]:
            model.add_unknown(segments[1][0], _parse_bound(segments[0]),
                              _parse_bound(segments[2]))
        elif len(segments) == 2 and _NAME_RE.match(segments[0][0]):
            name, value = segments[0][0], _parse_bound(segments[1])
            if relations == ["<="]:
                model.add_unknown(name, upper=value)
            else:
                model.add_unknown(name, lower=value)
        elif len(segments) == 2:
            name, value = segments[1][0], _parse_bound(segments[0])
            if relations == ["<="]:
                model.add_unknown(name, lower=value)
            else:
                model.add_unknown(name, upper=value)
        else:
            raise LpError(f"cannot parse bound line {tokens}")
    for name, tokens in row_specs:
        split = None
        for rel in RELATIONS:
            if rel in tokens:
                split = tokens.index(rel)
                relation = rel
        if split is None:
            raise LpError(f"row without relation: {tokens}")
        lhs = _parse_expression(tokens[:split])
        rhs = _parse_expression(tokens[split + 1:])
        if rhs.terms:
            raise LpError("unknowns on the right-hand side are not supported")
        for unk, _ in lhs.terms:
            if not model.has_unknown(unk):
                model.add_unknown(unk)
        model.add_row(lhs, relation, rhs.constant, name)
    objective = _parse_expression(objective_tokens)
    for unk, _ in objective.terms:
        if not model.has_unknown(unk):
            model.add_unknown(unk)
    model.set_objective(sense, objective)
    return model


def _parse_bound(tokens: list[str]) -> float:
    # a possibly signed number, e.g. ['-', '3.0'] or ['3.0']
    value = None
    sign = 1.0
    for token in tokens:
        if token == "-":
            sign = -1.0
        elif token != "+":
            value = math.inf if token == "inf" else float(token)
    if value is None:
        raise LpError(f"cannot parse bound from {tokens}")
    return sign * value
