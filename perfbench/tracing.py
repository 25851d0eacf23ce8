"""Per-layer tracing from outside the program.

The tracer replaces potplan's public functions at every place they are bound
(`classify_features` as imported into `direct2d` and `elimination`, scipy's
`linprog` as imported into `potplan.lp`, ...) with wrappers that record a span
(name, start, end, parent span, CLI call id) or a count, and restores the
originals when it is removed.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover;
calls are sequential, so the children's durations simply add up.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("task", "features", "lp", "direct2d", "elimination", "costpart", "search")

# Run once per state, transition or feature: a wrapper would cost more than
# the work it measures, so their time stays in the caller's self time.
UNWRAPPED = {
    "task.is_applicable", "task.successor", "task.state_index", "task.iter_states",
    "features.delta", "features.delta_independent", "features.format_feature",
    "lp.evaluate", "direct2d.weight_var_name", "direct2d.z_var_name",
    "search.tiebreak_key", "search.blind",
}
# Counted, not timed (also once per feature).
COUNTED = {"features.parse_feature"}


class Tracer:
    def __init__(self):
        # short name -> imported module, e.g. "lp" -> potplan.lp
        self.mods = {name: sys.modules[f"potplan.{name}"] for name in MODULES + ("cli",)}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, call id)
        self.stack: list[list] = []   # [id, start, time covered by children]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_width = 0
        self.call_id = 0
        self._next_span = 0
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = self._next_span
            self._next_span += 1
            parent = self.stack[-1][0] if self.stack else None
            frame = [span_id, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                if self.stack:
                    self.stack[-1][2] += duration
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                self.calls[name] += 1
                self.spans.append((span_id, name, frame[1], end, parent, self.call_id))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that read work counts off arguments and results -----------

    def _new_call(self, args, kwargs):
        self.call_id += 1
        return args, kwargs

    def _count_heuristic(self, args, kwargs):
        args = list(args)
        heuristic = args[1] if len(args) > 1 else kwargs["heuristic"]

        def counted(state):
            self.counts["search.heuristic_evals"] += 1
            return heuristic(state)

        if len(args) > 1:
            args[1] = counted
        else:
            kwargs = dict(kwargs, heuristic=counted)
        return tuple(args), kwargs

    def _after_linprog(self, args, kwargs, result):
        self.counts["lp.cols"] += len(args[0])
        for key in ("A_ub", "A_eq"):
            matrix = kwargs.get(key)
            if matrix is not None:
                self.counts["lp.rows"] += matrix.shape[0]
                self.counts["lp.nnz"] += matrix.nnz
        self.counts["lp.highs_iterations"] += int(result.nit)

    def _after_transition_system(self, args, kwargs, ts):
        self.counts["task.transitions"] += len(ts.transitions)

    def _after_to_lp(self, args, kwargs, pieces):
        self.counts["elimination.aux_unknowns"] += len(pieces.aux_unknowns)

    def _after_width(self, args, kwargs, width):
        self.max_width = max(self.max_width, width)

    def _after_astar(self, args, kwargs, result):
        self.counts["search.expansions"] += result.expansions

    # -- installing ------------------------------------------------------

    def _wrappers(self) -> dict:
        """Original function object -> wrapper."""
        hooks = {
            "search.astar": (self._count_heuristic, self._after_astar),
            "task.build_transition_system": (None, self._after_transition_system),
            "elimination.to_lp_constraints": (None, self._after_to_lp),
            "elimination.induced_width": (None, self._after_width),
        }
        out = {}
        for short in MODULES:
            module = self.mods[short]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                if name in COUNTED:
                    out[fn] = self._counter(name + "_calls", fn)
                else:
                    before, after = hooks.get(name, (None, None))
                    out[fn] = self._span(name, fn, before, after)
        lp = self.mods["lp"]
        out[lp.linprog] = self._span("highs.linprog", lp.linprog, after=self._after_linprog)
        cli = self.mods["cli"]
        out[cli.main] = self._span("cli.main", cli.main, before=self._new_call)
        return out

    def install(self) -> None:
        wrappers = self._wrappers()
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "potplan"
                                      or module_name.startswith("potplan.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        expression = self.mods["lp"].LinearExpression
        build = expression.__dict__["build"]
        self._patches.append((expression, "build", build))
        expression.build = classmethod(
            self._counter("lp.expressions_built", build.__func__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self, cli_calls: int, untraced_s: float, traced_s: float) -> dict:
        """Per-layer figures.  Times (`_s`) and counts are per traced CLI call;
        `elimination.max_width` is the largest width seen and
        `search.expansions_per_s` is expansions over time in A*."""
        per = 1.0 / max(cli_calls, 1)
        t, own, n, c = self.total, self.self_time, self.calls, self.counts
        out = {
            "task.parse_sas_s": t["task.parse_sas"] * per,
            "task.build_transition_system_s": t["task.build_transition_system"] * per,
            "task.exact_goal_distances_s": t["task.exact_goal_distances"] * per,
            "task.transitions": c["task.transitions"] * per,
            "features.generate_features_s": t["features.generate_features"] * per,
            "features.classify_features_s": t["features.classify_features"] * per,
            "features.classify_features_calls": n["features.classify_features"] * per,
            "features.parse_feature_calls": c["features.parse_feature_calls"] * per,
            "lp.expressions_built": c["lp.expressions_built"] * per,
            "lp.solves": n["lp.solve"] * per,
            "lp.solve_self_s": own["lp.solve"] * per,
            "lp.highs_s": t["highs.linprog"] * per,
            "lp.highs_iterations": c["lp.highs_iterations"] * per,
            "lp.check_solution_s": t["lp.check_solution"] * per,
            "lp.rows": c["lp.rows"] * per,
            "lp.cols": c["lp.cols"] * per,
            "lp.nnz": c["lp.nnz"] * per,
            "direct2d.build_direct2d_lp_s": t["direct2d.build_direct2d_lp"] * per,
            "direct2d.build_exhaustive_lp_s": t["direct2d.build_exhaustive_lp"] * per,
            "direct2d.state_objective_s": t["direct2d.state_objective"] * per,
            "elimination.min_fill_order_s": t["elimination.min_fill_order"] * per,
            "elimination.bucket_eliminate_s": t["elimination.bucket_eliminate"] * per,
            "elimination.to_lp_constraints_s": t["elimination.to_lp_constraints"] * per,
            "elimination.aux_unknowns": c["elimination.aux_unknowns"] * per,
            "elimination.max_width": float(self.max_width),
            "costpart.project_s": t["costpart.project"] * per,
            "costpart.build_tcp_lp_s": t["costpart.build_tcp_lp"] * per,
            "costpart.build_ocp_lp_s": t["costpart.build_ocp_lp"] * per,
            "search.astar_s": t["search.astar"] * per,
            "search.expansions": c["search.expansions"] * per,
            "search.expansions_per_s": (c["search.expansions"] / t["search.astar"]
                                        if t["search.astar"] else 0.0),
            "search.heuristic_evals": c["search.heuristic_evals"] * per,
            "search.validate_s": t["search.validate"] * per,
            "cli.main_self_s": own["cli.main"] * per,
            "trace.spans": len(self.spans) * per,
            "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        }
        for short in MODULES:
            out[f"{short}.self_s"] = per * sum(
                value for name, value in own.items() if name.split(".")[0] == short)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, name, start, end, parent id, call id."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
