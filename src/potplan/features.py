"""Fact-conjunction features, feature sets with their fact table, the
features whose weights the potential models keep (`kept_features`), and the
truth table of features over states.  Weights are a list of floats, one per
feature in the set's order.

A feature is a conjunction of facts over pairwise distinct variables.  The
potential of a state is the sum of the weights of all features true in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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


@dataclass
class FeatureSet:
    """Distinct features, with their `dimension` (the largest size),
    `fact_table` and `distinct`, all built once: the facts as a (feature,
    fact, (variable, value)) int64 array, each feature's last fact repeated
    up to the dimension, which leaves the conjunction unchanged, and the
    (feature, fact) mask of the facts that are not such repeats.  The set
    also keeps what `kept_features` found for it, by domain sizes."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        if len(set(self.features)) != len(self.features):
            raise FeatureError("duplicate features")
        self.dimension = width = max((f.size for f in self.features), default=0)
        self.fact_table = np.array(
            [x for f in self.features for fact in f.facts + f.facts[-1:] * (width - f.size)
             for x in fact], dtype=np.int64).reshape(len(self.features), width, 2)
        self.distinct = np.ones((len(self.features), width), dtype=bool)
        self.distinct[:, 1:] = self.fact_table[:, 1:, 0] != self.fact_table[:, :-1, 0]
        self._kept: dict[tuple[int, ...], tuple[FeatureSet, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)


def generate_features(task: Task, dimension: int) -> FeatureSet:
    """All facts (dimension 1), or facts plus cross-variable pairs (dimension
    2); higher dimensions take a feature file (`parse_feature_file`)."""
    if dimension < 1:
        raise FeatureError(f"dimension must be positive, got {dimension}")
    if dimension > 2:
        raise FeatureError("dimensions above 2 need a feature file")
    atoms = [Feature(((var.id, val),))
             for var in task.variables for val in range(var.domain_size)]
    if dimension == 1:
        return FeatureSet(tuple(atoms))
    pairs = []
    for a, b in combinations(task.variables, 2):
        for va in range(a.domain_size):
            for vb in range(b.domain_size):
                pairs.append(Feature(((a.id, va), (b.id, vb))))
    return FeatureSet(tuple(atoms + pairs))


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
    """
    key = tuple(domain_sizes)
    if key in fs._kept:
        return fs._kept[key]
    present = {f.facts for f in fs.features}
    anchor = next((v for v, size in enumerate(domain_sizes)
                   if all(((v, x),) in present for x in range(size))), None)
    index = []
    for i, f in enumerate(fs.features):
        for k, (var, val) in enumerate(f.facts):
            if val != 0:
                continue
            # g = before + after, and g + (V, u) is f with u for 0
            before, after = f.facts[:k], f.facts[k + 1:]
            if ((before + after in present) if f.size > 1 else anchor not in (None, var)) \
                    and all(before + ((var, u),) + after in present
                            for u in range(1, domain_sizes[var])):
                break  # pinned
        else:
            index.append(i)
    index = np.array(index, dtype=np.int64)
    kept = FeatureSet(tuple(fs.features[i] for i in index.tolist()))
    fs._kept[key] = kept, index
    return fs._kept[key]


def truth_matrix(fs: FeatureSet, states) -> np.ndarray:
    """(state, feature) matrix holding 1 where the feature is true in the
    state; `states` is a (state, variable) array of value indices, or a
    sequence of states."""
    facts = fs.fact_table
    states = np.asarray(states, dtype=np.int64)
    return np.all(states[:, facts[:, :, 0]] == facts[:, :, 1], axis=2).view(np.int8)


def format_feature(task: Task, feature: Feature) -> str:
    return " & ".join(
        f"{task.variables[var].name}={task.variables[var].value_names[val]}"
        for var, val in feature.facts)


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
    return FeatureSet(tuple(features))


def weights_to_strings(task: Task, fs: FeatureSet, w: list[float]) -> dict[str, float]:
    return {format_feature(task, f): w[i] for i, f in enumerate(fs.features)}


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
    return FeatureSet(tuple(features)), values
