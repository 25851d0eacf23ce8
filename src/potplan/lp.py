"""Solver-agnostic linear programs: a model built and read by column, a
solve contract backed by the HiGHS that scipy bundles, CPLEX-LP-format text
export, and the name-level expression algebra (LinearExpression) of the
tests' reference builders.

A model is a maximization over free columns, bounded only where
`set_bounds` puts bounds, and keeps what its builders give it, checked but
not repaired: named rows come in canonical form (columns increasing within
each row, no zero coefficient) with finite right-hand sides, or the block is
refused.  It keeps the HiGHS session built at its first solve as long as no
column is added, so that re-solving it for another objective starts from
the last optimal basis; rows appended and bounds changed after a solve are
handed to that session.  A session gets each sign row (one term, right-hand
side 0) of the model as built as a bound at 0 on its column, and the other
rows and every row appended later as rows, in model order; the model and
its row re-check keep every row.  A session's first run starts primal
simplex from the slack basis, with presolve off, when x = 0 is a feasible
basic point (presolve would throw that feasible basis away), and dual
simplex after presolve otherwise.  A warm run that ends undecided is solved
again on a fresh session.
"""

from __future__ import annotations

import math
import re
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

RELATIONS = ("<=", "=", ">=")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.()]*")
# Row names, each then "\n".
_ROW_NAMES_RE = re.compile(rf"(?:{_NAME_RE.pattern}\n)*")
# Unknown names, each then "\n": the LP file's keywords `free` and `inf` are
# no unknown's name.
_UNKNOWN_NAMES_RE = re.compile(rf"(?:(?!(?:free|inf)\n){_NAME_RE.pattern}\n)*")


class LpError(ValueError):
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


class LpModel:
    """Free columns, an objective to maximize, and named rows, all by column
    index: columns come in through `add_unknowns` and are kept as `names`
    with the float arrays `lower` and `upper`, which only `set_bounds`
    changes; rows come in through `add_rows`, the objective through
    `set_objective`, and a solution comes out as `LpSolution.x`.

    `rows` holds the rows once, as the arrays (indptr, columns,
    coefficients, relations, rhs): row i has the terms `columns[s:e]` /
    `coefficients[s:e]` with s = indptr[i] and e = indptr[i + 1], a relation
    code (an index into RELATIONS) and a right-hand side, and the name
    `row_names[i]`.  A block of rows replaces the arrays with longer ones
    and nothing writes into them, so the session, `row_table()` and
    `export_lp` read them as they are.
    """

    def __init__(self):
        self.names: list[str] = []
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.objective: dict[int, float] = {}
        self.rows = (np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0),
                     np.zeros(0, np.int8), np.zeros(0))
        self.row_names: list[str] = []
        self._session: _Session | None = None

    def add_unknowns(self, names: list[str]) -> None:
        """Declare free columns in order, one per name; a model with a
        solver session drops it.  Nothing is declared when a name is not
        LP-file safe or declared twice."""
        text = "\n".join([*names, ""])
        if text.count("\n") != len(names) or not _UNKNOWN_NAMES_RE.fullmatch(text):
            bad = next(name for name in names
                       if not _NAME_RE.fullmatch(name) or name in ("free", "inf"))
            raise LpError(f"unknown name '{bad}' is not LP-file safe")
        seen = set(self.names)
        seen.update(names)
        if len(seen) != len(self.names) + len(names):
            seen = set(self.names)
            twice = next(name for name in names if name in seen or seen.add(name))
            raise LpError(f"unknown '{twice}' declared twice")
        self._session = None
        self.names.extend(names)
        self.lower = np.append(self.lower, np.full(len(names), -math.inf))
        self.upper = np.append(self.upper, np.full(len(names), math.inf))

    def set_bounds(self, columns: list[int], lower: list[float], upper: list[float]) -> None:
        """Replace the bounds of the given columns.  Nothing changes when a
        column is undeclared or given twice, the three lengths differ, or a
        column's bounds hold no number (NaN, lower above upper, lower +inf or
        upper -inf).  A live solver session gets them too and keeps its
        basis."""
        columns = np.asarray(columns, dtype=np.int64)
        lo, hi = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        if not len(columns) == len(lo) == len(hi):
            raise LpError("bounds: not one lower and one upper bound per column")
        if np.any((columns < 0) | (columns >= len(self.names))):
            raise LpError(f"bounds of undeclared columns {columns.tolist()}")
        if len(np.unique(columns)) < len(columns):
            raise LpError(f"bounds of columns {columns.tolist()}: a column is given twice")
        # Written as "not ok" so that a NaN bound counts as empty.
        empty = np.flatnonzero(~((lo <= hi) & (lo < math.inf) & (hi > -math.inf)))
        if empty.size:
            j, name = empty[0], self.names[columns[empty[0]]]
            raise LpError(f"unknown '{name}': " + (
                f"lower bound {lo[j]} above upper {hi[j]}" if lo[j] > hi[j]
                else f"bounds [{lo[j]}, {hi[j]}] hold no number"))
        self.lower[columns], self.upper[columns] = lo, hi
        if self._session is not None:
            self._session.set_bounds(columns.astype(np.int32), self.lower, self.upper)

    def add_rows(self, indptr, columns, coefficients, relations, rhs, names) -> None:
        """Append rows given in CSR form: row i has the terms
        `columns[indptr[i]:indptr[i + 1]]` (column indices) with the matching
        `coefficients`.  `relations` and `rhs` are one value for every row or
        one per row; `names` is one LP-file safe name per row.  Rows must be
        canonical: columns increase within each row and every coefficient is
        finite and not zero.  Right-hand sides must be finite.  A block that
        breaks any of these adds nothing.  A live solver session gets the
        rows first."""
        indptr = np.asarray(indptr, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        coefficients = np.asarray(coefficients, dtype=float)
        count, sizes = len(indptr) - 1, indptr[1:] - indptr[:-1]
        if count < 0 or indptr[0] != 0 or indptr[-1] != len(columns) \
                or len(coefficients) != len(columns) or np.any(sizes < 0):
            raise LpError("rows: indptr, columns and coefficients do not match")
        if columns.size and (columns.min() < 0 or columns.max() >= len(self.names)):
            bad = columns[(columns < 0) | (columns >= len(self.names))][0]
            raise LpError(f"row references undeclared unknown column {bad}")
        relations = np.asarray(relations, dtype=str).reshape(-1, 1)
        match = relations == np.array(RELATIONS)
        if not match.any(axis=1).all():
            raise LpError(f"bad relation '{relations[~match.any(axis=1), 0][0]}'")
        codes = match.argmax(axis=1).astype(np.int8)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        for what, size in (("relations", len(codes)), ("right-hand sides", len(rhs))):
            if size not in (1, count):
                raise LpError(f"rows: {size} {what} for {count} rows")
        if len(names) != count:
            raise LpError(f"rows: {len(names)} names for {count} rows")
        if not (np.isfinite(coefficients).all() and np.isfinite(rhs).all()):
            raise LpError("rows: a coefficient or right-hand side is not finite")
        if not coefficients.all():
            raise LpError("rows: a coefficient is zero")
        row = np.repeat(np.arange(count), sizes)
        if not np.all((columns[1:] > columns[:-1]) | (row[1:] > row[:-1])):
            raise LpError("rows: columns do not increase within a row")
        text = "\n".join([*names, ""])
        if text.count("\n") != count or not _ROW_NAMES_RE.fullmatch(text):
            bad = next(name for name in names if not _NAME_RE.fullmatch(name))
            raise LpError(f"row name '{bad}' is not LP-file safe")
        indptr, columns = indptr.astype(np.int32), columns.astype(np.int32)
        codes, rhs = np.broadcast_to(codes, count), np.broadcast_to(rhs, count)
        if self._session is not None:
            self._session.add_rows(indptr, columns, coefficients, codes, rhs)
        block = (self.rows[0][-1] + indptr[1:], columns, coefficients, codes, rhs)
        self.rows = tuple(np.concatenate(pair) for pair in zip(self.rows, block))
        self.row_names.extend(names)

    def row_table(self) -> tuple[csr_matrix, np.ndarray, np.ndarray]:
        """All rows as a CSR matrix over the columns, with per-row relation
        codes (indices into RELATIONS) and right-hand sides."""
        indptr, columns, coefficients, relations, rhs = self.rows
        matrix = csr_matrix((coefficients, columns, indptr),
                            shape=(len(indptr) - 1, len(self.names)))
        return matrix, relations, rhs

    def set_objective(self, terms: dict[int, float]) -> None:
        """Replace the objective, to be maximized, given as {column:
        coefficient} (zeros are dropped); the next solve warm-starts from
        the last."""
        for column in terms:
            if not 0 <= column < len(self.names):
                raise LpError(f"objective references undeclared unknown column {column}")
        if not np.isfinite(np.array(list(terms.values()), dtype=float)).all():
            raise LpError("objective: a coefficient is not finite")
        self.objective = {int(j): float(c) for j, c in terms.items() if c != 0.0}


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None  # the unknowns' values in column order
    objective_value: float | None = None

    def require_optimal(self) -> "LpSolution":
        if self.status != "optimal":
            raise LpStatusError(self.status)
        return self


def check_solution(model: LpModel, x: np.ndarray) -> list[str]:
    """Names of the rows and bounds that the solution vector `x` (in column
    order) violates beyond FEASIBILITY_TOL: rows first, in row order, then
    bounds in column order."""
    matrix, relations, rhs = model.row_table()
    lhs = matrix @ x
    slack = FEASIBILITY_TOL * np.maximum(1.0, np.abs(rhs))
    # Written as "not ok" so that a NaN left-hand side counts as a violation.
    ok = np.where(relations == RELATIONS.index("<="), lhs <= rhs + slack,
                  np.where(relations == RELATIONS.index(">="), lhs >= rhs - slack,
                           np.abs(lhs - rhs) <= slack))
    violations = [model.row_names[i] for i in np.flatnonzero(~ok)]
    out_of_bounds = (x < model.lower - FEASIBILITY_TOL) | (x > model.upper + FEASIBILITY_TOL)
    violations.extend(f"bound:{model.names[j]}" for j in np.flatnonzero(out_of_bounds))
    return violations


def _sign_rows(indptr: np.ndarray, columns: np.ndarray, coefficients: np.ndarray,
               relations: np.ndarray, rhs: np.ndarray):
    """Split canonical CSR rows into their sign rows (one term, right-hand
    side 0) and the others.  Returns the other rows as (indptr, columns,
    coefficients, relations, rhs), the rows themselves when none is a sign
    row, and the columns that the sign rows bound at 0 from below and from
    above."""
    sizes = indptr[1:] - indptr[:-1]
    sign = (sizes == 1) & (rhs == 0)
    if not sign.any():
        return (indptr, columns, coefficients, relations, rhs), (columns[:0], columns[:0])
    rows, kept = np.flatnonzero(sign), np.flatnonzero(~sign)
    first = indptr[rows]
    # The relation that a·x's row states of x: its own for a > 0, its mirror
    # for a < 0 (RELATIONS is <=, =, >=, so 2 - code swaps <= and >=).
    codes = np.where(coefficients[first] > 0, relations[rows], 2 - relations[rows])
    at = columns[first]
    terms = np.ones(len(columns), dtype=bool)
    terms[first] = False
    others = (np.concatenate(([0], np.cumsum(sizes[kept]))).astype(np.int32), columns[terms],
              coefficients[terms], relations[kept], rhs[kept])
    return others, (at[codes >= RELATIONS.index("=")], at[codes <= RELATIONS.index("=")])


def _origin_feasible(lower: np.ndarray, upper: np.ndarray, relations: np.ndarray,
                     rhs: np.ndarray) -> bool:
    """Whether x = 0 is a feasible basic point: every column is free or has
    0 as a bound, and its bounds hold 0, and every row holds at 0."""
    free = (lower == -np.inf) & (upper == np.inf)
    rest = free | ((lower == 0) & (upper >= 0)) | ((upper == 0) & (lower <= 0))
    holds = np.where(relations == RELATIONS.index("<="), rhs >= 0,
                     np.where(relations == RELATIONS.index(">="), rhs <= 0, rhs == 0))
    return bool(rest.all() and holds.all())


class _Session:
    """A model's HiGHS object, built from the model as it is at its first
    solve and kept until a column is added: it holds the model's columns,
    the rows of the model as built other than its sign rows, in model
    order, then the rows appended since, and the last basis.

    A sign row is a row with one term and right-hand side 0: `a·x >= 0` is
    `x >= 0` for a > 0 and `x <= 0` for a < 0, `a·x <= 0` the mirror case,
    and `a·x = 0` fixes x at 0.  HiGHS gets each sign row of the model as
    built as that bound at 0 on its column, intersected with the model's
    bounds, and not as a row: a free column that a row keeps at one side of
    0 would have to be pivoted into the basis, while a bound at 0 leaves it
    non-basic there.  `below` and `above` are the columns that these rows
    bound at 0 from below and from above; bounds set later are intersected
    with them too.  Rows appended after a solve are rows.  The model and its
    row re-check keep every row; a sign row's multiplier is its column's
    `col_dual` in HiGHS, not a `row_dual`.

    `origin_feasible` says whether x = 0 is a feasible basic point of the
    model as built, with the sign rows' bounds.  HiGHS's slack basis is then
    primal feasible, so the first run is primal simplex with presolve off
    and skips phase 1: presolve would hand the simplex a reduced model whose
    slack basis is not feasible, and after postsolve HiGHS would solve the
    whole model again.  Dual simplex would first repair the dual
    infeasibility of the free columns.  Every `src/` model qualifies, since
    columns are declared free; a model with a column boxed away from 0 (a
    fresh session after `direct2d.solve_for_state`'s fallback) gets dual
    simplex after presolve."""

    def __init__(self, model: LpModel):
        self.highs = highs_core._Highs()
        self.solved = False
        for option in ("output_flag", "log_to_console"):
            self.highs.setOptionValue(option, False)
        rows, (self.below, self.above) = _sign_rows(*model.rows)
        lower, upper = self._clamped(model.lower, model.upper)
        self.origin_feasible = _origin_feasible(lower, upper, *rows[3:])
        self.highs.setOptionValue("simplex_strategy", 4 if self.origin_feasible else 1)
        self.highs.setOptionValue("presolve", "off" if self.origin_feasible else "on")
        if self.highs.addVars(len(lower), lower, upper) == highs_core.HighsStatus.kError:
            raise SolverFailureError("HiGHS refused the columns")
        self.add_rows(*rows)

    def _clamped(self, lower: np.ndarray, upper: np.ndarray):
        """The model's column bounds intersected with the sign rows' bounds
        at 0."""
        lower, upper = lower.copy(), upper.copy()
        lower[self.below] = np.maximum(lower[self.below], 0.0)
        upper[self.above] = np.minimum(upper[self.above], 0.0)
        return lower, upper

    def set_bounds(self, columns: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        """Hand the model's column bounds `lower` and `upper` of the given
        columns, intersected with the sign rows' bounds, to HiGHS, which
        keeps its basis."""
        lower, upper = self._clamped(lower, upper)
        self.highs.changeColsBounds(len(columns), columns, lower[columns], upper[columns])

    def add_rows(self, indptr: np.ndarray, columns: np.ndarray, coefficients: np.ndarray,
                 relations: np.ndarray, rhs: np.ndarray) -> None:
        """Hand rows in canonical CSR form, int32 indices, to HiGHS as
        `lower <= row <= upper`, after the rows it holds; after a solve HiGHS
        keeps its basis (the new rows' slacks become basic)."""
        lower = np.where(relations == RELATIONS.index("<="), -np.inf, rhs)
        upper = np.where(relations == RELATIONS.index(">="), np.inf, rhs)
        status = self.highs.addRows(len(rhs), lower, upper, len(columns), indptr, columns,
                                    coefficients)
        if status == highs_core.HighsStatus.kError:
            raise SolverFailureError("HiGHS refused the rows")

    def run(self, cost: np.ndarray):
        """Minimize the cost vector and return HiGHS's model status.  The
        first run starts as `__init__` set it, by `origin_feasible`; later
        ones start from the last basis by primal simplex (HiGHS uses no
        presolve with a basis), which stays primal feasible when only the
        cost changes (and after appended rows that the last optimum
        satisfies, such as `direct2d`'s tie-break row); after new bounds it
        may first have to regain feasibility."""
        if self.solved:
            self.highs.setOptionValue("simplex_strategy", 4)
        self.highs.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)
        self.highs.run()
        self.solved = True
        return self.highs.getModelStatus()


def solve(model: LpModel) -> LpSolution:
    """Solve the model in its HiGHS session (created on the first solve)."""
    if not model.names:
        # HiGHS reports "Empty" without columns, even for a row `1 <= 0`; the
        # rows read `0 <relation> rhs`, so the row re-check alone decides.
        x = np.zeros(0)
        return LpSolution("infeasible") if check_solution(model, x) else _finish(model, x)
    c = np.zeros(len(model.names))  # HiGHS minimizes the negated objective
    c[list(model.objective)] = -np.array(list(model.objective.values()))
    if model._session is None:
        model._session = _Session(model)
    session, statuses = model._session, highs_core.HighsModelStatus
    warm = session.solved
    status = session.run(c)
    if warm and status not in (statuses.kOptimal, statuses.kInfeasible, statuses.kUnbounded):
        # A warm start can end undecided (HiGHS reports "Unknown" when it
        # starts from the basis an unbounded objective left): solve again on
        # a fresh session, as a solve of a fresh copy would.
        model._session = session = _Session(model)
        status = session.run(c)
    if status == statuses.kInfeasible:
        return LpSolution("infeasible")
    if status == statuses.kUnbounded:
        return LpSolution("unbounded")
    if status != statuses.kOptimal:
        raise SolverFailureError(f"HiGHS failed: {session.highs.modelStatusToString(status)}")
    return _finish(model, np.array(session.highs.getSolution().col_value))


def _finish(model: LpModel, x: np.ndarray) -> LpSolution:
    """The optimal solution `x` (in column order) after the row re-check."""
    violations = check_solution(model, x)
    if violations:
        raise SolverFailureError(f"solution violates rows: {', '.join(violations[:5])}")
    # Summed term by term in column order, not with `sum()`, which
    # compensates from Python 3.12 on, so that the printed objective does
    # not depend on the Python version.
    value = 0.0
    for j in sorted(model.objective):
        value += model.objective[j] * float(x[j])
    return LpSolution("optimal", x, value)


def _format_coefficient(coef: float) -> str:
    sign = "- " if coef < 0 else "+ "
    return sign if abs(coef) == 1.0 else f"{sign}{abs(coef)!r} "


def _format_terms(names: list[str], terms) -> str:
    """(column, coefficient) pairs, in column order, written with their
    unknowns' names."""
    text = " ".join(f"{_format_coefficient(coef)}{names[j]}" for j, coef in terms)
    return text[2:] if text.startswith("+ ") else text


def export_lp(model: LpModel) -> str:
    """CPLEX LP text: Maximize, Subject To, Bounds, End.

    Terms are written in column order.  Every unknown gets a Bounds line, so
    a reader can recover the column list (with its order) even for columns
    that appear in no row.
    """
    names = model.names
    lines = ["Maximize", f" obj: {_format_terms(names, sorted(model.objective.items()))}".rstrip(),
             "Subject To"]
    indptr, columns, coefficients, relations, rhs = model.rows
    indptr = indptr.tolist()
    terms = list(zip(columns.tolist(), coefficients.tolist()))
    for i, (name, code, bound) in enumerate(zip(model.row_names, relations.tolist(),
                                                rhs.tolist())):
        row = _format_terms(names, terms[indptr[i]:indptr[i + 1]])
        lines.append(f" {name}: {row} {RELATIONS[code]} {bound!r}")
    lines.append("Bounds")
    for name, lower, upper in zip(names, model.lower.tolist(), model.upper.tolist()):
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
