"""Solver-agnostic linear programs: expression algebra, model assembly, a
solve contract backed by the HiGHS that scipy bundles, and CPLEX-LP-format
text export.

A model keeps its HiGHS object between solves as long as only its objective
changes, so that re-solving it for another objective starts from the last
optimal basis; adding a row or a column drops that session.

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
from dataclasses import dataclass

import numpy as np
# Not called: perfbench/tracing.py wraps `potplan.lp.linprog` when a traced
# benchmark run starts and fails if the name is missing, so it stays importable
# until perfbench/ is next revised.
from scipy.optimize import linprog  # noqa: F401
from scipy.optimize._highspy import _core as highs_core
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
        self._session: _Session | None = None
        self._columns = array("q")
        self._coefficients = array("d")
        self._row_ends = array("q")
        self._relations = array("b")
        self._rhs = array("d")
        self._row_names: list[str] = []

    @property
    def rows(self) -> list[Row]:
        """The rows as name-based Row objects, built anew on every access."""
        names = [name for name, _, _ in self.unknowns]
        rows, start = [], 0
        for end, code, rhs, name in zip(self._row_ends, self._relations, self._rhs,
                                        self._row_names):
            terms = {names[j]: c for j, c in zip(self._columns[start:end],
                                                 self._coefficients[start:end])}
            rows.append(Row(LinearExpression.build(0.0, terms), RELATIONS[code], rhs, name))
            start = end
        return rows

    def freeze(self) -> "LpModel":
        self._frozen = True
        return self

    def _mutating(self, keeps_session: bool = False):
        if self._frozen:
            raise LpError("model is frozen")
        if not keeps_session:
            self._session = None

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
        """Replace the objective; the next solve warm-starts from the last."""
        self._mutating(keeps_session=True)
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
    return _violations(model, model.row_table(), _column_values(model, values),
                       *_bounds(model), tolerance)


def _violations(model: LpModel, table: tuple[csr_matrix, np.ndarray, np.ndarray],
                x: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                tolerance: float) -> list[str]:
    """`check_solution` for the model's row table, a vector in column order
    and the column bounds."""
    matrix, relations, rhs = table
    lhs = matrix @ x
    slack = tolerance * np.maximum(1.0, np.abs(rhs))
    # Written as "not ok" so that a NaN left-hand side counts as a violation.
    ok = np.where(relations == RELATIONS.index("<="), lhs <= rhs + slack,
                  np.where(relations == RELATIONS.index(">="), lhs >= rhs - slack,
                           np.abs(lhs - rhs) <= slack))
    violations = [model.row_name(i) for i in np.flatnonzero(~ok)]
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


class _Session:
    """What the solves of one model share until a row or column changes:
    its HiGHS object, which keeps the last basis, and the row table and
    column bounds of the re-check."""

    def __init__(self, model: LpModel):
        self.table = model.row_table()
        self.lower, self.upper = _bounds(model)
        self.highs = highs_core._Highs()
        for option, value in (("output_flag", False), ("log_to_console", False),
                              ("presolve", "on"), ("simplex_strategy", 1)):  # dual simplex
            self.highs.setOptionValue(option, value)

    def highs_lp(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, csr_matrix]:
        """Column bounds, row bounds and the column-wise matrix as linprog
        hands them to HiGHS: the `<=` and `>=` rows first, with the `>=`
        rows negated, then the `=` rows."""
        matrix, relations, rhs = self.table
        sign = np.where(relations == RELATIONS.index(">="), -1.0, 1.0)
        equality = relations == RELATIONS.index("=")
        order = np.concatenate((np.flatnonzero(~equality), np.flatnonzero(equality)))
        signed = csr_matrix((matrix.data * np.repeat(sign, np.diff(matrix.indptr)),
                             matrix.indices, matrix.indptr), shape=matrix.shape)
        upper = (sign * rhs)[order]
        lower = np.where(equality[order], upper, -np.inf)
        return self.lower, self.upper, lower, upper, signed[order].tocsc()


_DECIDED = (highs_core.HighsModelStatus.kOptimal, highs_core.HighsModelStatus.kInfeasible,
            highs_core.HighsModelStatus.kUnbounded)


def _run_highs(highs, cost: np.ndarray, lp: tuple | None = None):
    """Hand HiGHS a model to minimize, run it and return its model status.
    `lp` is `_Session.highs_lp()` for a new model, or None to re-solve the
    model HiGHS holds with only the cost vector changed, starting from its
    last basis."""
    if lp is None:
        highs.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)
    else:
        col_lower, col_upper, row_lower, row_upper, matrix = lp
        model = highs_core.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = matrix.shape[1]
        model.num_row_ = model.a_matrix_.num_row_ = matrix.shape[0]
        model.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
        model.a_matrix_.start_ = matrix.indptr
        model.a_matrix_.index_ = matrix.indices
        model.a_matrix_.value_ = matrix.data
        model.col_cost_ = cost
        model.col_lower_ = col_lower
        model.col_upper_ = col_upper
        model.row_lower_ = row_lower
        model.row_upper_ = row_upper
        if highs.passModel(model) == highs_core.HighsStatus.kError:
            return highs_core.HighsModelStatus.kModelError  # as linprog reports it
    highs.run()
    status = highs.getModelStatus()
    if lp is None and status not in _DECIDED:
        # A warm start can end undecided (HiGHS reports "Unknown" when it
        # starts from the basis an unbounded objective left): run again
        # without that basis, as a solve of a fresh copy would.
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
    return status


def _solve_scipy(model: LpModel) -> LpSolution:
    n = len(model.unknowns)
    sense = 1.0 if model.objective_sense == "min" else -1.0
    c = np.zeros(n)
    for name, coef in model.objective.terms:
        c[model.index_of(name)] = sense * coef

    session = model._session
    if session is None:
        session = model._session = _Session(model)
        status = _run_highs(session.highs, c, session.highs_lp())
    else:
        status = _run_highs(session.highs, c)
    statuses = highs_core.HighsModelStatus
    if status == statuses.kModelError:
        model._session = None  # HiGHS holds no model to re-solve
    if status in (statuses.kInfeasible, statuses.kModelError):
        return LpSolution("infeasible")
    if status == statuses.kUnbounded:
        return LpSolution("unbounded")
    if status != statuses.kOptimal:
        raise SolverFailureError(f"HiGHS failed: {session.highs.modelStatusToString(status)}")
    x = np.array(session.highs.getSolution().col_value)
    return _finish(model, x, session.table, session.lower, session.upper)


def _finish(model: LpModel, x: np.ndarray, table: tuple[csr_matrix, np.ndarray, np.ndarray],
            lower: np.ndarray, upper: np.ndarray) -> LpSolution:
    """The optimal solution `x` (in column order) after the row re-check."""
    violations = _violations(model, table, x, lower, upper, FEASIBILITY_TOL)
    if violations:
        raise SolverFailureError(f"solution violates rows: {', '.join(violations[:5])}")
    values = dict(zip((name for name, _, _ in model.unknowns), x.tolist()))
    active = ((~np.isinf(lower) & (np.abs(x - lower) <= FEASIBILITY_TOL))
              | (~np.isinf(upper) & (np.abs(x - upper) <= FEASIBILITY_TOL)))
    return LpSolution("optimal", values, evaluate(model.objective, values),
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
    return _finish(model, _column_values(model, values), model.row_table(), *_bounds(model))


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
