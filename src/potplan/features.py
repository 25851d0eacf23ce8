"""Fact-conjunction features, feature sets as fact tables, the features
whose weights the potential models keep (`kept_features`), and the truth
table of features over states.  Weights are a list of floats, one per
feature in the set's order.

A feature is a conjunction of facts over pairwise distinct variables.  The
potential of a state is the sum of the weights of all features true in it.
A feature set is its table: generation, the checks, pinning and the names
of its features (`joined_facts`) all work on the table by array, and a
`Feature` object per feature is built only when something asks for one (the
parser, `reduction` and the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .task import State, Task


class FeatureError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Feature:
    facts: tuple[tuple[int, int], ...]  # sorted by variable id, variables distinct

    def __post_init__(self):
        if not self.facts:
            raise FeatureError("empty feature")
        variables = [var for var, _ in self.facts]
        if sorted(variables) != variables or len(set(variables)) != len(variables):
            raise FeatureError(f"feature facts must be sorted over distinct variables: "
                               f"{self.facts}")

    @classmethod
    def of(cls, facts) -> "Feature":
        facts = tuple(sorted(facts))
        variables = [var for var, _ in facts]
        if len(set(variables)) != len(variables):
            raise FeatureError(f"conjunction mentions a variable twice: {facts}")
        return cls(facts)

    @property
    def size(self) -> int:
        return len(self.facts)


class FeatureSet:
    """Distinct features as one table, checked once.  `fact_table` holds
    the facts as a (feature, fact, (variable, value)) int64 array, each
    feature's facts by increasing variable and its last fact repeated up to
    the set's `dimension` (the largest size), which leaves the conjunction
    unchanged; `distinct` is the (feature, fact) mask of the facts that are
    not such repeats.  A table wider than its largest feature is trimmed to
    it.  `features` builds one `Feature` per row when first asked.  The set
    also keeps what `kept_features` found for it, by domain sizes."""

    def __init__(self, fact_table):
        table = np.asarray(fact_table, dtype=np.int64)
        if table.ndim != 3 or table.shape[2] != 2:
            raise FeatureError(f"a fact table is a (feature, fact, 2) array, not {table.shape}")
        if len(table) and not table.shape[1]:
            raise FeatureError("empty feature")
        variables = table[:, :, 0]
        distinct = np.ones(variables.shape, dtype=bool)
        distinct[:, 1:] = variables[:, 1:] != variables[:, :-1]
        # a repeat repeats the fact before it, and only repeats follow one
        bad = (variables[:, 1:] < variables[:, :-1]) | distinct[:, 1:] & ~distinct[:, :-1] \
            | ~distinct[:, 1:] & (table[:, 1:, 1] != table[:, :-1, 1])
        if bad.any():
            row = table[np.flatnonzero(bad.any(axis=1))[0]]
            raise FeatureError(f"feature facts must be sorted over distinct variables: "
                               f"{tuple(map(tuple, row.tolist()))}")
        self._store(table, distinct)
        if len(table) > 1:
            rows = self.fact_table.reshape(len(table), -1)
            rows = rows[np.lexsort(rows.T)]
            if (rows[1:] == rows[:-1]).all(axis=1).any():
                raise FeatureError("duplicate features")

    def _store(self, table: np.ndarray, distinct: np.ndarray) -> None:
        self.dimension = width = int(distinct.sum(axis=1).max(initial=0))
        self.fact_table, self.distinct = table[:, :width], distinct[:, :width]
        self._kept: dict[tuple[int, ...], tuple[FeatureSet, np.ndarray]] = {}

    def _rows(self, index: np.ndarray) -> "FeatureSet":
        """The features at `index`, in that order, as a set: rows of a
        checked table, so they are not checked again."""
        rows = object.__new__(FeatureSet)
        rows._store(self.fact_table[index], self.distinct[index])
        return rows

    @classmethod
    def of(cls, features) -> "FeatureSet":
        """The set of the given `Feature`s, in their order."""
        features = tuple(features)
        width = max((f.size for f in features), default=0)
        return cls(np.array(
            [x for f in features for fact in f.facts + f.facts[-1:] * (width - f.size)
             for x in fact], dtype=np.int64).reshape(len(features), width, 2))

    @cached_property
    def features(self) -> tuple[Feature, ...]:
        return tuple(Feature(tuple(map(tuple, row[:size]))) for row, size in
                     zip(self.fact_table.tolist(), self.distinct.sum(axis=1).tolist()))

    def __len__(self) -> int:
        return len(self.fact_table)

    def __iter__(self):
        return iter(self.features)


def generate_features(task: Task, dimension: int) -> FeatureSet:
    """All facts (dimension 1), or facts plus cross-variable pairs (dimension
    2); higher dimensions take a feature file (`parse_feature_file`).  Atoms
    come by variable, then value, and pairs by (variable a, variable b,
    value a, value b), a < b."""
    if dimension < 1:
        raise FeatureError(f"dimension must be positive, got {dimension}")
    if dimension > 2:
        raise FeatureError("dimensions above 2 need a feature file")
    sizes = np.asarray(task.domain_sizes, dtype=np.int64)
    first = np.cumsum(sizes) - sizes  # row of atom (V, 0)
    variables = np.repeat(np.arange(len(sizes)), sizes)
    atoms = np.stack([variables, np.arange(len(variables)) - first[variables]], axis=1)
    if dimension == 1:
        return FeatureSet(atoms[:, None])
    a, b = np.triu_indices(len(sizes), 1)  # the variable pairs in `combinations` order
    block = sizes[a] * sizes[b]
    pair = np.repeat(np.arange(len(a)), block)
    # within a block, value a * |D_b| + value b
    k = np.arange(block.sum()) - np.repeat(np.cumsum(block) - block, block)
    size_b = sizes[b[pair]]
    pairs = np.stack([atoms[first[a[pair]] + k // size_b], atoms[first[b[pair]] + k % size_b]],
                     axis=1)
    return FeatureSet(np.concatenate([atoms[:, None].repeat(2, axis=1), pairs]))


def evaluate_potential(fs: FeatureSet, w: list[float], state: State) -> float:
    return sum((w[i] for i in np.flatnonzero(truth_matrix(fs, [state])[0]).tolist()), 0.0)


def kept_features(fs: FeatureSet, domain_sizes) -> tuple[FeatureSet, np.ndarray]:
    """The features whose weights the potential models keep, as a set in
    `fs`'s order, and their indices into `fs` (increasing); computed once
    per feature set and domain sizes.  The others are pinned: each one's
    indicator is a linear combination of the kept ones', so the kept
    features express every potential that `fs` can, and a pinned weight is
    reported as 0.

    Every variable's reference value is 0, and the anchor is the lowest-id
    variable whose atoms are all in the set.  Feature f is pinned when it has
    a fact (V, 0) such that g = f - (V, 0) is in the set (or g is empty and
    V is not the anchor) and every g + (V, u), u != 0, is in the set: then
    [f] = [g] - sum_u [g + (V, u)], where an empty g stands for the constant
    1, the sum of the anchor's atoms.  Each g + (V, u) has fewer value-0
    facts than f and g fewer facts, so by induction every pinned indicator
    is a combination of kept ones.

    Atoms are pinned by a count of each variable's atoms in the set.  For
    larger features the rule runs on integer keys: facts are numbered by
    variable, then value, and a conjunction's key has one digit per fact,
    its number + 1, first fact most significant, 0 past its last fact.  The
    keys of g and of each g + (V, u) are computed from f's and looked up
    among the set's by `searchsorted`; keys that do not fit int64 are Python
    ints.
    """
    key = tuple(domain_sizes)
    if key in fs._kept:
        return fs._kept[key]
    sizes = np.asarray(key, dtype=np.int64)
    variables, values = fs.fact_table[:, :, 0], fs.fact_table[:, :, 1]
    n, width = variables.shape
    pinned = np.zeros(n, dtype=bool)
    atom = ~fs.distinct[:, 1] if width > 1 else ~pinned
    # the variables whose atoms are all in the set; the anchor is the first
    complete = np.bincount(variables[atom, 0] if width else [], minlength=len(sizes)) == sizes
    if complete.any():
        pinned = atom & (values[:, 0] == 0) & complete[variables[:, 0]] \
            & (variables[:, 0] != complete.argmax())
    if width > 1:
        first = np.cumsum(sizes) - sizes  # the number of fact (V, 0)
        base = int(sizes.sum()) + 1
        dtype = np.int64 if base ** width <= np.iinfo(np.int64).max else object
        place = np.array([base ** k for k in range(width - 1, -1, -1)], dtype=dtype)
        keys = (np.where(fs.distinct, first[variables] + values + 1, 0).astype(dtype)
                * place).sum(axis=1)
        present = np.sort(keys)

        def found(queries):
            return present[np.minimum(np.searchsorted(present, queries), n - 1)] == queries

        # each value-0 fact of a feature that is no atom; g drops its digit
        f, k = np.nonzero(fs.distinct & (values == 0) & ~atom[:, None])
        f_keys, f_place = keys[f], place[k]
        g = f_keys - f_keys % (f_place * base) + f_keys % f_place * base
        # g + (V, u), u = 1 .. |D_V| - 1: f's key with u added to the digit
        count = sizes[variables[f, k]] - 1
        family = np.repeat(np.arange(len(f)), count)
        u = np.arange(1, len(family) + 1) - np.repeat(np.cumsum(count) - count, count)
        rule = found(g)
        rule[family[~found(f_keys[family] + u * f_place[family])]] = False
        pinned[f[rule]] = True
    index = np.flatnonzero(~pinned)
    fs._kept[key] = fs._rows(index), index
    return fs._kept[key]


def truth_matrix(fs: FeatureSet, states) -> np.ndarray:
    """(state, feature) matrix holding 1 where the feature is true in the
    state; `states` is a (state, variable) array of value indices, or a
    sequence of states."""
    facts = fs.fact_table
    states = np.asarray(states, dtype=np.int64)
    return np.all(states[:, facts[:, :, 0]] == facts[:, :, 1], axis=2).view(np.int8)


def joined_facts(fs: FeatureSet, fact_names: list[list[str]], separator: str) -> list[str]:
    """Each feature's name in the set's order: the names of its facts,
    `fact_names[variable][value]`, joined by `separator`."""
    if not len(fs):
        return []
    sizes = [len(names) for names in fact_names]
    first = np.cumsum(sizes) - sizes
    names = np.array([name for by_value in fact_names for name in by_value], dtype=object)
    names = names[first[fs.fact_table[:, :, 0]] + fs.fact_table[:, :, 1]]
    joined = names[:, 0]
    for k in range(1, fs.dimension):
        joined = joined + np.where(fs.distinct[:, k], separator + names[:, k], "")
    return joined.tolist()


def parse_feature(task: Task, text: str) -> Feature:
    by_name = {var.name: var for var in task.variables}
    facts = []
    for part in text.split("&"):
        part = part.strip()
        if "=" not in part:
            raise FeatureError(f"expected 'variable=value', found '{part}'")
        var_name, _, val_name = part.partition("=")
        var = by_name.get(var_name.strip())
        if var is None:
            raise FeatureError(f"unknown variable '{var_name.strip()}'")
        val_name = val_name.strip()
        try:
            val = var.value_names.index(val_name)
        except ValueError:
            raise FeatureError(f"unknown value '{val_name}' for variable "
                               f"{var.name}") from None
        facts.append((var.id, val))
    return Feature.of(facts)


def parse_feature_file(task: Task, text: str) -> FeatureSet:
    """One feature per non-empty line, `var=val & var=val & ...`."""
    features = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        features.append(parse_feature(task, line))
    return FeatureSet.of(features)


def weights_to_strings(task: Task, fs: FeatureSet, w: list[float]) -> dict[str, float]:
    """The weights keyed by feature, `var=val & var=val & ...`."""
    return dict(zip(joined_facts(
        fs, [[f"{var.name}={val}" for val in var.value_names] for var in task.variables],
        " & "), w))


def weights_from_strings(task: Task, mapping: dict[str, float]) -> tuple[FeatureSet, list[float]]:
    """The features and weights of a mapping read from JSON; a weight must
    be a JSON number (not a boolean or a string) other than NaN, and an
    integer must fit a float (JSON reads `1e400` as inf, which passes)."""
    if not isinstance(mapping, dict):
        raise FeatureError("weights must map feature strings to numbers")
    features, values = [], []
    for text, weight in mapping.items():
        features.append(parse_feature(task, text))
        try:
            number = not isinstance(weight, bool) and isinstance(weight, (int, float)) \
                and not math.isnan(weight)
        except OverflowError:  # an int beyond float range
            number = False
        if not number:
            raise FeatureError(f"weight of '{text}' is not a number: {weight!r}")
        values.append(float(weight))
    return FeatureSet.of(features), values
