"""Measurement: congestion, allocation shares, delay, evidence-based
competence, technical productivity, correlation, and sprint-log ingestion.

Competence follows a smoothed two-sided evidence model: difficulty-
weighted positive evidence (on time AND quality above the midpoint) vs
negative evidence (late OR quality at/below the midpoint), with +1
smoothing on both sides so an empty history scores exactly 0.5.
"Satisfactory quality" means a rating strictly greater than 5 on the
0-10 scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import InputError, load_input


class MetricsError(ValueError):
    """Raised when a metric is undefined for the given input."""


class LogSchemaError(InputError):
    """Raised by :func:`ingest_log`; carries one entry per problem."""


# SprintRecord's default ``extras``: stands for "omitted".
_FRESH = object()


@dataclass(frozen=True, slots=True, init=False)
class SprintRecord:
    """One completed task as logged in a sprint activity record.

    Scales: difficulty, priority, confidence, quality on 0-10;
    mood_begin and mood_end on 1-5; collaborators >= 1.

    ``__init__`` is written by hand: it takes the arguments of the
    generated one, but sets each slot through its own setter, cheaper
    than the frozen class's ``object.__setattr__`` per field. A record
    built without ``extras`` gets a fresh empty dict of its own.
    """

    task_id: str
    assignee_id: str
    sprint_index: int
    difficulty: float
    priority: float
    confidence: float
    estimated_days: float
    actual_days: float
    quality: float
    collaborators: int
    mood_begin: float
    mood_end: float
    extras: dict = field(default_factory=dict, compare=False)

    def __init__(
        self,
        task_id: str,
        assignee_id: str,
        sprint_index: int,
        difficulty: float,
        priority: float,
        confidence: float,
        estimated_days: float,
        actual_days: float,
        quality: float,
        collaborators: int,
        mood_begin: float,
        mood_end: float,
        extras: dict = _FRESH,
    ):
        _set_task_id(self, task_id)
        _set_assignee_id(self, assignee_id)
        _set_sprint_index(self, sprint_index)
        _set_difficulty(self, difficulty)
        _set_priority(self, priority)
        _set_confidence(self, confidence)
        _set_estimated_days(self, estimated_days)
        _set_actual_days(self, actual_days)
        _set_quality(self, quality)
        _set_collaborators(self, collaborators)
        _set_mood_begin(self, mood_begin)
        _set_mood_end(self, mood_end)
        _set_extras(self, {} if extras is _FRESH else extras)

    @property
    def on_time(self) -> bool:
        return self.actual_days - self.estimated_days <= 0

    @property
    def satisfactory(self) -> bool:
        return self.quality > 5


(
    _set_task_id, _set_assignee_id, _set_sprint_index, _set_difficulty,
    _set_priority, _set_confidence, _set_estimated_days, _set_actual_days,
    _set_quality, _set_collaborators, _set_mood_begin, _set_mood_end,
    _set_extras,
) = (getattr(SprintRecord, name).__set__ for name in SprintRecord.__slots__)


def competence(records: Iterable[SprintRecord], agent: str) -> float:
    """Smoothed evidence score in (0, 1); exactly 0.5 with no history.

    Positive evidence is the summed difficulty of the agent's on-time,
    satisfactory-quality tasks; negative evidence the summed difficulty
    of tasks late or with unsatisfactory quality.
    """
    alpha = 0.0
    beta = 0.0
    for record in records:
        if record.assignee_id != agent:
            continue
        if record.on_time and record.satisfactory:
            alpha += record.difficulty
        else:
            beta += record.difficulty
    return (alpha + 1.0) / ((alpha + 1.0) + (beta + 1.0))


def technical_productivity(records: Iterable[SprintRecord], agent: str) -> float:
    """Mean difficulty-weighted workload completed per sprint; 0 with no
    history."""
    per_sprint: dict[int, float] = {}
    for record in records:
        if record.assignee_id != agent:
            continue
        per_sprint[record.sprint_index] = (
            per_sprint.get(record.sprint_index, 0.0) + record.difficulty
        )
    if not per_sprint:
        return 0.0
    # A left fold, not sum(): from Python 3.12 sum() compensates, and its
    # float result moves with the version.
    return reduce(add, per_sprint.values(), 0) / len(per_sprint)


def congestion(queue_sizes: Iterable[int]) -> float:
    """Sum of squared queue lengths over all agent-type queues."""
    total = 0.0
    for size in queue_sizes:
        if size < 0:
            raise MetricsError(f"queue size must be >= 0 (got {size})")
        total += size * size
    return total


def allocation_proportion(assigned_effort: Mapping[str, float]) -> dict[str, float]:
    """Each agent's share of the total effort in ``assigned_effort``
    (agent -> effort claimed, as ``RunResult.assigned_effort``), keyed
    in its order.

    Shares sum to 1 within 1e-9. Raises when nothing was allocated.
    """
    grand_total = reduce(add, assigned_effort.values(), 0)
    if grand_total <= 0:
        raise MetricsError("no allocations")
    return {agent: effort / grand_total for agent, effort in assigned_effort.items()}


def delay_percentage(records: Iterable[SprintRecord]) -> float:
    """Fraction of sprint records finished late, in [0, 1]: late means
    actual days exceed estimated days. Raises when there are none. The
    records are read once, so a generator serves as well as a list.
    """
    total = late = 0
    for record in records:
        total += 1
        if not record.on_time:
            late += 1
    if not total:
        raise MetricsError("no completions")
    return late / total


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample correlation coefficient in [-1, 1].

    Requires equal lengths >= 2 and nonzero variance on both sides.
    """
    if len(x) != len(y):
        raise MetricsError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise MetricsError(f"need at least 2 points (got {n})")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [value - mean_x for value in x]
    dy = [value - mean_y for value in y]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise MetricsError("zero variance: correlation undefined")
    cov = math.fsum(a * b for a, b in zip(dx, dy))
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


# --- sprint activity logs ---------------------------------------------------
#
# CSV schema: one header row naming every SprintRecord field, in any
# order and each once; the three optional pass-through columns are kept
# in ``extras`` and any other column is ignored.

_REQUIRED_COLUMNS = SprintRecord.__slots__[:-1]  # every field but extras
_OPTIONAL_COLUMNS = ("workload", "final_score", "team_score")

_RANGES = {
    "difficulty": (0.0, 10.0),
    "priority": (0.0, 10.0),
    "confidence": (0.0, 10.0),
    "quality": (0.0, 10.0),
    "mood_begin": (1.0, 5.0),
    "mood_end": (1.0, 5.0),
}


class _ParsedCells(dict):
    """Raw cell text -> ``parse(text)``, each distinct text parsed once.

    The key is the raw text, so ``"-0"`` and ``"0"`` are parsed apart. A
    text whose parse raises is not stored.
    """

    __slots__ = ("parse",)

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, raw):
        value = self[raw] = self.parse(raw)
        return value


def ingest_log(path: str | Path) -> list[SprintRecord]:
    """Parse and range-validate a sprint activity CSV.

    Every problem is collected (with its row number: the file line on
    which the record ends, header = row 1, blank lines counted) and
    raised together as a :class:`LogSchemaError`, as is a log without
    records.
    """
    return load_input(path, "log", _read_log)


def _read_log(handle) -> list[SprintRecord]:
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise LogSchemaError(["file is empty: no header row"])
    problems = [
        f"missing required column: {col}"
        for col in _REQUIRED_COLUMNS
        if col not in header
    ]
    problems += [
        f"duplicate column: {col}"
        for col in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS
        if header.count(col) > 1
    ]
    if problems:
        raise LogSchemaError(problems)
    position = {name: index for index, name in enumerate(header)}
    (
        task_at, assignee_at, sprint_at, difficulty_at, priority_at,
        confidence_at, estimated_at, actual_at, quality_at,
        collaborators_at, mood_begin_at, mood_end_at,
    ) = (position[col] for col in _REQUIRED_COLUMNS)
    optional = tuple(col for col in _OPTIONAL_COLUMNS if col in position)
    optional_at = tuple((col, position[col]) for col in optional)
    numeric = _REQUIRED_COLUMNS[2:] + optional
    (
        (difficulty_low, difficulty_high), (priority_low, priority_high),
        (confidence_low, confidence_high), (quality_low, quality_high),
        (mood_begin_low, mood_begin_high), (mood_end_low, mood_end_high),
    ) = (
        _RANGES[col]
        for col in (
            "difficulty", "priority", "confidence", "quality", "mood_begin", "mood_end"
        )
    )
    width = len(header)
    records: list[SprintRecord] = []
    errors: list[str] = []
    isfinite = math.isfinite
    inf = math.inf
    # Each row is read by position and checked in one expression; a row
    # shorter than the header reads its missing cells as empty. A row
    # that fails here is re-read cell by cell to word its errors. A log
    # repeats few cell texts, so each distinct number and assignee is
    # parsed once, on its first sight; the records that share a text
    # share its value. task_id is unique per row and is not memoised.
    floats = _ParsedCells(float)
    names = _ParsedCells(str.strip)
    for row in reader:
        if not row:  # a blank line
            continue
        if len(row) < width:
            row += [""] * (width - len(row))
        try:
            sprint = floats[row[sprint_at]]
            difficulty = floats[row[difficulty_at]]
            priority = floats[row[priority_at]]
            confidence = floats[row[confidence_at]]
            estimated = floats[row[estimated_at]]
            actual = floats[row[actual_at]]
            quality = floats[row[quality_at]]
            collaborators = floats[row[collaborators_at]]
            mood_begin = floats[row[mood_begin_at]]
            mood_end = floats[row[mood_end_at]]
            extras = {}
            for col, index in optional_at:
                raw = row[index]
                if raw and not raw.isspace():
                    extras[col] = value = floats[raw]
                    if not isfinite(value):
                        raise ValueError(col)
        except ValueError:
            pass
        else:
            if (
                sprint.is_integer()
                and difficulty_low <= difficulty <= difficulty_high
                and priority_low <= priority <= priority_high
                and confidence_low <= confidence <= confidence_high
                and 0.0 <= estimated < inf
                and 0.0 <= actual < inf
                and quality_low <= quality <= quality_high
                and collaborators >= 1.0
                and collaborators.is_integer()
                and mood_begin_low <= mood_begin <= mood_begin_high
                and mood_end_low <= mood_end <= mood_end_high
            ):
                records.append(
                    SprintRecord(
                        row[task_at].strip(),
                        names[row[assignee_at]],
                        int(sprint),
                        difficulty,
                        priority,
                        confidence,
                        estimated,
                        actual,
                        quality,
                        int(collaborators),
                        mood_begin,
                        mood_end,
                        extras,
                    )
                )
                continue
        problems = _row_errors(
            dict(zip(header, row)), reader.line_num, numeric, optional
        )
        # The two readings agree on which rows are valid; should they
        # not, a rejected row is still named rather than dropped.
        errors += problems or [f"row {reader.line_num}: rejected"]
    if errors or not records:
        raise LogSchemaError(errors or ["no records"])
    return records


def _row_errors(row, row_no, numeric, optional) -> list[str]:
    """The problems of one rejected row, read cell by cell (``row`` maps
    column name to cell)."""
    problems = []
    parsed: dict[str, float] = {}
    for column in numeric:
        raw = row[column].strip()
        if not raw and column in optional:
            continue
        try:
            parsed[column] = value = float(raw)
        except ValueError:
            problems.append(f"row {row_no}: {column} is not numeric ({raw!r})")
            continue
        if not math.isfinite(value):
            problems.append(f"row {row_no}: {column} must be finite")
    if problems:
        return problems
    for column, (low, high) in _RANGES.items():
        value = parsed[column]
        if not low <= value <= high:
            problems.append(
                f"row {row_no}: {column} {value} outside [{low:g}, {high:g}]"
            )
    for column in ("actual_days", "estimated_days"):
        if parsed[column] < 0:
            problems.append(f"row {row_no}: {column} must be >= 0")
    if parsed["collaborators"] < 1:
        problems.append(f"row {row_no}: collaborators must be >= 1")
    for column in ("sprint_index", "collaborators"):
        if not parsed[column].is_integer():
            problems.append(f"row {row_no}: {column} must be an integer")
    return problems
