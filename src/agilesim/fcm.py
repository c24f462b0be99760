"""Fuzzy cognitive map engine.

A concept map is a labeled, signed, weighted digraph. One synchronous
update recomputes every node from the previous state only:

    value[j] <- f(sum_i weights[i][j] * value[i])

where ``f`` is a bivalent, trivalent, or sigmoid squashing function.
There is no self-memory term: the diagonal of the weight matrix must be
zero, so a node with no incoming edges settles at ``f(0)`` after one
step and stays there. Iteration stops at a fixed point (max-norm change
below tolerance), a limit cycle (a previously seen state recurs), or an
iteration cap.

A :class:`ConceptMap` is compiled once, when it is built: for each node
``j`` the tuple of its incoming ``(i, w)`` pairs with ``w != 0`` in
ascending ``i``, and the squashing function resolved for ``(transform,
c)``. :func:`step` walks only those edges, so one update costs
O(nodes + edges) with no per-node dispatch. Each sum starts from
``0.0`` and adds ``w * value[i]`` in ascending ``i`` with zero weights
skipped, the order of the plain double loop over the matrix, so every
state is bit-identical to that loop's. The sigmoid is compiled too: a
closure with ``c`` and ``math.exp`` bound.

:func:`step` maps a sequence of node values to the next values, a tuple;
only :func:`run` wraps them in StateVectors. Each map remembers its last
step, the pair of input and output values, and :func:`step` answers an
input equal to the last one with the stored output tuple itself. The
simulator steps one shared mood map for every agent on every day, and an
idle agent's input repeats: after one idle day its mood is the map's idle
constant. Equal inputs give bit-identical outputs: a sum starting from
``0.0`` never reads as ``-0.0``, so inputs that differ only in the sign
of a zero sum alike; a number that equals a float converts to that float;
a NaN equals only the very same object. The pair is one tuple, replaced
whole, so a reader never sees half of an update.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .core import DocumentReader, InputError, list_of, load_input, real, text, write_json

BIVALENT = "bivalent"
TRIVALENT = "trivalent"
SIGMOID = "sigmoid"

FIXED_POINT = "fixed-point"
LIMIT_CYCLE = "limit-cycle"
MAX_ITERATIONS = "max-iterations"

# The largest max_iter that run accepts. A trajectory keeps every state,
# so an unbounded max_iter on a map that never settles could ask for
# tens of GB.
MAX_ITERATIONS_CAP = 100_000

# Questionnaire answer levels mapped onto the uniform five-point grid.
LIKERT_WEIGHTS = {
    "Not at all": 0.0,
    "A little": 0.25,
    "Moderately": 0.5,
    "Mostly": 0.75,
    "Completely": 1.0,
}

_BUNDLED_MAPS = (
    "michael_scenario1",
    "grace_scenario1",
    "michael_scenario2",
    "grace_scenario2",
)


class DimensionMismatchError(ValueError):
    """State length does not match the map's node count."""


def _bivalent(n: float) -> float:
    return 0.0 if n <= 0 else 1.0


def _trivalent(n: float) -> float:
    if n <= -0.5:
        return -1.0
    if n >= 0.5:
        return 1.0
    return 0.0


def _squash_function(kind: str, c: float) -> Callable[[float], float]:
    """Resolve the squashing function for ``kind`` and steepness ``c``;
    an unknown ``kind`` or a sigmoid ``c`` outside (0, inf) raises
    :class:`InputError` at ``transform`` or ``c``."""
    if kind == BIVALENT:
        return _bivalent
    if kind == TRIVALENT:
        return _trivalent
    if kind == SIGMOID:
        if not 0 < c < math.inf:
            raise InputError(f"c: sigmoid steepness must be in (0, inf) (got {c})")
        exp = math.exp

        def sigmoid(n: float) -> float:
            try:
                return 1.0 / (1.0 + exp(-c * n))
            except OverflowError:
                # -c * n is above ~709, so exp(c * n) is tiny or 0: the
                # same value, computed from the side that cannot overflow.
                e = exp(c * n)
                return e / (1.0 + e)

        return sigmoid
    raise InputError(f"transform: unknown transformation function {kind!r}")


def transform(kind: str, n: float, c: float = 5.0) -> float:
    """Apply one squashing function to a weighted input sum.

    bivalent: 0 for n <= 0, else 1. trivalent: -1 for n <= -0.5, 1 for
    n >= 0.5, else 0. sigmoid: 1 / (1 + exp(-c * n)) with steepness c;
    it does not overflow, however large ``c * n`` is.
    """
    return _squash_function(kind, c)(n)


@dataclass(frozen=True)
class ConceptMap:
    """Labeled nodes plus the connection matrix.

    ``weights[i][j]`` is the influence of node i on node j, in [-1, 1].
    The diagonal must be zero (no self-feedback).
    """

    labels: tuple[str, ...]
    weights: tuple[tuple[float, ...], ...]
    transform: str = SIGMOID
    c: float = 5.0
    # The compiled form, derived from the fields above in __post_init__.
    _incoming: tuple[tuple[tuple[int, float], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _squash: Callable[[float], float] = field(init=False, repr=False, compare=False)
    # The last step's (input values, output values); see step().
    _last: tuple[tuple[float, ...], tuple[float, ...]] = field(
        default=((), ()), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = len(self.labels)
        if not n:
            raise InputError("labels: must name at least one node")
        first: dict[str, int] = {}
        problems = []
        for i, label in enumerate(self.labels):
            if not label:
                problems.append(f"labels[{i}]: must be non-empty")
            elif first.setdefault(label, i) != i:
                problems.append(f"labels[{i}]: duplicate label {label!r}")
        if problems:
            raise InputError(problems)
        if len(self.weights) != n or any(len(row) != n for row in self.weights):
            raise InputError(
                f"weights: must be a {n}x{n} matrix matching the label count"
            )
        for i, row in enumerate(self.weights):
            for j, w in enumerate(row):
                if not abs(w) <= 1.0:
                    raise InputError(f"weights[{i}][{j}]: {w} outside [-1, 1]")
            if row[i] != 0.0:
                raise InputError(
                    f"weights[{i}][{i}]: diagonal weight {row[i]} must be 0 "
                    "(no self-feedback)"
                )
        incoming = tuple(
            tuple((i, self.weights[i][j]) for i in range(n) if self.weights[i][j])
            for j in range(n)
        )
        object.__setattr__(self, "_incoming", incoming)
        object.__setattr__(self, "_squash", _squash_function(self.transform, self.c))

    @property
    def node_count(self) -> int:
        return len(self.labels)

    def __reduce__(self):
        # The compiled form and the memo are rebuilt from the fields (the
        # sigmoid closure cannot be pickled).
        return ConceptMap, (self.labels, self.weights, self.transform, self.c)


@dataclass(frozen=True, slots=True)
class StateVector:
    """One fuzzy activation per node, at iteration k."""

    values: tuple[float, ...]
    iteration: int = 0


@dataclass(frozen=True)
class Trajectory:
    states: tuple[StateVector, ...]
    terminal: str  # FIXED_POINT | LIMIT_CYCLE | MAX_ITERATIONS

    @property
    def final(self) -> StateVector:
        return self.states[-1]


def step(cmap: ConceptMap, values: Sequence[float]) -> tuple[float, ...]:
    """One synchronous update of every node from the k-state values only.

    Returns the next values. An input equal to the map's last one is
    answered with the memo's output tuple itself.
    """
    incoming = cmap._incoming
    if len(values) != len(incoming):
        raise DimensionMismatchError(
            f"state has {len(values)} values for a {cmap.node_count}-node map"
        )
    last_input, last_output = cmap._last
    if values == last_input:
        return last_output
    squash = cmap._squash
    new_values = []
    for edges in incoming:
        total = 0.0
        for i, w in edges:
            total += w * values[i]
        new_values.append(squash(total))
    new_values = tuple(new_values)
    # tuple() so that a list passed as values cannot change the key later.
    object.__setattr__(cmap, "_last", (tuple(values), new_values))
    return new_values


def _max_norm(a: Sequence[float], b: Sequence[float]) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def run(
    cmap: ConceptMap,
    initial: StateVector,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> Trajectory:
    """Iterate until a fixed point, a limit cycle, or ``max_iter``.

    The returned trajectory includes the initial state. A fixed point is
    declared when the max-norm change of one step falls below ``tol``; a
    limit cycle when a state before the previous one recurs, that is
    when ``_max_norm(new, earlier) < tol`` for some earlier state.
    ``tol`` must be finite and > 0: under an infinite one every first
    step would read as a fixed point. ``max_iter`` must lie in
    ``[1, MAX_ITERATIONS_CAP]``; it is checked before the first step.

    The earlier states are kept sorted by one coordinate ``x``, and only
    those whose ``x`` lies in ``[new.x - tol, new.x + tol]`` are tested.
    Any state that passes the test lies there (``|new.x - earlier.x|`` is
    at most the max-norm, and rounding the window's ends is monotone),
    so the result is that of testing every earlier state. Over k
    iterations the scan makes an expected O(k log k) comparisons, not the
    full scan's O(k^2); each sorted insert also shifts up to k pointers
    in one memmove, cheaper than one step of a 12-node map up to ~10^4
    iterations. The initial state must be finite: a NaN would break the
    sort order.
    """
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1 (got {max_iter})")
    if max_iter > MAX_ITERATIONS_CAP:
        raise InputError(
            f"max_iter must be <= {MAX_ITERATIONS_CAP} (got {max_iter})"
        )
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be > 0 and finite (got {tol})")
    if not all(map(math.isfinite, initial.values)):
        raise InputError(f"initial: values must be finite (got {initial.values})")
    # A node without incoming edges is constant after one step, so sort
    # on the first node that has some.
    node = next((j for j, edges in enumerate(cmap._incoming) if edges), 0)
    key = itemgetter(node)
    earlier: list[tuple[float, ...]] = []  # values of states[:-2], by key
    states = [initial]
    current = initial
    for _ in range(max_iter):
        nxt = StateVector(step(cmap, current.values), current.iteration + 1)
        states.append(nxt)
        values = nxt.values
        if _max_norm(values, current.values) < tol:
            return Trajectory(states=tuple(states), terminal=FIXED_POINT)
        x = values[node]
        hi = x + tol
        for k in range(bisect_left(earlier, x - tol, key=key), len(earlier)):
            candidate = earlier[k]
            if candidate[node] > hi:
                break
            if _max_norm(values, candidate) < tol:
                return Trajectory(states=tuple(states), terminal=LIMIT_CYCLE)
        insort(earlier, current.values, key=key)
        current = nxt
    return Trajectory(states=tuple(states), terminal=MAX_ITERATIONS)


def elicit_weights(
    labels: Sequence[str],
    answers: Iterable[tuple[str, str, str, str]],
) -> tuple[tuple[float, ...], ...]:
    """Build a connection matrix from questionnaire answers.

    Each answer is (from_node, to_node, sign, level) with sign in
    {"+", "-"} and level one of the five agreement levels. The weight is
    ``sign * grid(level)`` on the uniform grid {0, 0.25, 0.5, 0.75, 1}.
    Unanswered pairs stay 0 (independent concepts).
    """
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    matrix = [[0.0] * n for _ in range(n)]
    seen: set[tuple[str, str]] = set()
    for origin, target, sign, level in answers:
        if origin not in index or target not in index:
            raise ValueError(f"unknown node in answer ({origin!r} -> {target!r})")
        if origin == target:
            raise ValueError(f"self-influence answer for {origin!r} is not allowed")
        pair = (origin, target)
        if pair in seen:
            raise ValueError(f"duplicate answer for pair {origin!r} -> {target!r}")
        seen.add(pair)
        if level not in LIKERT_WEIGHTS:
            raise ValueError(f"unknown agreement level {level!r}")
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-' (got {sign!r})")
        magnitude = LIKERT_WEIGHTS[level]
        matrix[index[origin]][index[target]] = (
            magnitude if sign == "+" else -magnitude
        )
    return tuple(tuple(row) for row in matrix)


# --- map documents and bundled assets --------------------------------------
#
# A map document is JSON with keys: labels, weights (row-major), transform, c.


def map_to_document(cmap: ConceptMap) -> dict:
    return {
        "labels": list(cmap.labels),
        "weights": [list(row) for row in cmap.weights],
        "transform": cmap.transform,
        "c": cmap.c,
    }


def map_from_document(doc: dict) -> ConceptMap:
    reader = DocumentReader(doc)
    labels = reader.field(doc, "labels", list_of(text))
    weights = reader.field(doc, "weights", list_of(list_of(real)))
    transform = reader.field(doc, "transform", text, default=SIGMOID)
    c = reader.field(doc, "c", real, default=5.0)
    reader.check()
    return ConceptMap(labels=labels, weights=weights, transform=transform, c=c)


def load_map(path: str | Path) -> ConceptMap:
    return load_input(path, "map", lambda handle: map_from_document(json.load(handle)))


def save_map(cmap: ConceptMap, path: str | Path) -> None:
    write_json(path, map_to_document(cmap))


def bundled_map_names() -> tuple[str, ...]:
    return _BUNDLED_MAPS


@functools.lru_cache(maxsize=None)
def bundled_map(name: str) -> ConceptMap:
    """Load one of the packaged concept maps by short name.

    Each map is read once per process; the frozen map is shared.
    """
    if name not in _BUNDLED_MAPS:
        raise KeyError(
            f"unknown bundled map {name!r} (expected one of {', '.join(_BUNDLED_MAPS)})"
        )
    payload = resources.files("agilesim.data").joinpath(f"{name}.json").read_text(
        encoding="utf-8"
    )
    return map_from_document(json.loads(payload))

