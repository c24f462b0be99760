"""Measurement: congestion, allocation shares, delay, evidence-based
competence, technical productivity, correlation, and sprint-log ingestion.

Competence follows a smoothed two-sided evidence model: difficulty-
weighted positive evidence (on time AND quality above the midpoint) vs
negative evidence (late OR quality at/below the midpoint), with +1
smoothing on both sides so an empty history scores exactly 0.5.
"Satisfactory quality" means a rating strictly greater than 5 on the
0-10 scale.

A sprint log is read in chunks of rows, each turned into columns and
checked on its distinct cell texts. A chunk of plain lines is split on
its commas; from its first other chunk on, a log is read by
``csv.reader``. :func:`summarize_log`, which the ``ingest`` command
reports, folds each agent's competence, productivity and late count
from those columns without building records; :func:`ingest_log` builds
a :class:`SprintRecord` per row from the same columns for library
callers. Both reject a log with the same errors."""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice, repeat
from operator import add, and_, gt, le, sub
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import InputError, load_input


class MetricsError(ValueError):
    """Raised when a metric is undefined for the given input."""


class LogSchemaError(InputError):
    """Raised when a sprint log is rejected; carries one entry per problem."""


@dataclass(frozen=True, slots=True)
class SprintRecord:
    """One completed task as logged in a sprint activity record.

    Scales: difficulty, priority, confidence, quality on 0-10;
    mood_begin and mood_end on 1-5; collaborators >= 1.
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

    @property
    def on_time(self) -> bool:
        return self.actual_days - self.estimated_days <= 0

    @property
    def satisfactory(self) -> bool:
        return self.quality > 5


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
    return _evidence_score(alpha, beta)


def _evidence_score(alpha: float, beta: float) -> float:
    """Competence from positive and negative evidence, +1 on each side."""
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
    return _mean_per_sprint(list(per_sprint.values()))


def _mean_per_sprint(totals: list[float]) -> float:
    """The mean of per-sprint workload totals, in first-seen order."""
    # A left fold, not sum(): from Python 3.12 sum() compensates, and its
    # float result moves with the version.
    return reduce(add, totals, 0) / len(totals)


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

# Rows per chunk: a log is read, checked and handed on this many rows at
# a time, so memory stays flat in the length of the log. A plain chunk
# holds its joined text and its split cells at once. In the benchmark's
# toolkit body (goalnet, then ingest of a 50 000-row log; 2 vCPUs,
# Python 3.11) ru_maxrss peaked at 24.5-25.1 MB at 4 096 rows, near
# goalnet's own peak, against 26.3-26.9 MB at 8 192 and no less at
# 2 048; the time per log was the same at all three sizes.
_CHUNK_ROWS = 4096


def _in_range(low: float, high: float):
    def check(text: str) -> float:
        value = float(text)
        if low <= value <= high:
            return value
        raise ValueError(text)

    return check


def _days(text: str) -> float:
    value = float(text)
    if 0.0 <= value < math.inf:
        return value
    raise ValueError(text)


def _sprint(text: str) -> int:
    value = float(text)
    if value.is_integer():
        return int(value)
    raise ValueError(text)


def _collaborators(text: str) -> int:
    value = float(text)
    if value >= 1.0 and value.is_integer():
        return int(value)
    raise ValueError(text)


def _name(text: str) -> str:
    name = text.strip()
    if name:
        return name
    raise ValueError(text)


def _optional(text: str) -> float | None:
    """A pass-through cell: None when blank, else a finite number."""
    if not text or text.isspace():
        return None
    value = float(text)
    if math.isfinite(value):
        return value
    raise ValueError(text)


def _cell_checks(optional: Sequence[str]) -> dict:
    """Column -> the check of one cell text: it returns the cell's value
    or raises ValueError. A row is valid when each of its cells is, so a
    column can be checked on its distinct texts alone. The ranges are
    read from ``_RANGES`` on each call."""
    checks = {
        "assignee_id": _name,
        "sprint_index": _sprint,
        "estimated_days": _days,
        "actual_days": _days,
        "collaborators": _collaborators,
    }
    for column, (low, high) in _RANGES.items():
        checks[column] = _in_range(low, high)
    for column in optional:
        checks[column] = _optional
    return checks


def _log_chunks(handle):
    """Read a sprint log in chunks of ``_CHUNK_ROWS`` rows and yield each
    as columns: a dict from column name to an iterator over the chunk's
    values, in row order, emptied when the next chunk is asked for.
    Blank lines are skipped; a row shorter than the header reads its
    missing cells as empty.

    The header is read by ``csv.reader``; the rows after it come from
    :func:`_body_columns`, which splits plain chunks on their commas and
    reads the rest of the log, from its first other chunk, by
    ``csv.reader``.

    Each column keeps a memo from cell text to value, so a distinct text
    is checked once per log. Once a text fails its check no further
    chunk is yielded; the rest of the log is still checked, then the
    handle is read again from where it started to word the problems of
    each row holding a failed text, and all of them are raised as one
    :class:`LogSchemaError`. So is a log without records.
    """
    start = handle.tell()
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
    optional = tuple(col for col in _OPTIONAL_COLUMNS if col in position)
    checks = _cell_checks(optional)
    memos = {col: {} for col in checks}
    rejected = {col: set() for col in checks}
    clean = True
    rows = 0
    for columns in _body_columns(handle, len(header)):
        rows += len(columns[0])
        for col, check in checks.items():
            memo, bad = memos[col], rejected[col]
            for text in set(columns[position[col]]).difference(memo, bad):
                try:
                    memo[text] = check(text)
                except ValueError:
                    bad.add(text)
            clean = clean and not bad
        if clean:
            values = {
                col: map(memos[col].__getitem__, columns[position[col]])
                for col in checks
            }
            values["task_id"] = map(str.strip, columns[position["task_id"]])
            yield values
            values.clear()
        # Only one chunk's cells are alive at a time: drop these before
        # the next chunk is read.
        del columns
    if not clean:
        handle.seek(start)
        raise LogSchemaError(_worded_errors(handle, position, rejected, optional))
    if not rows:
        raise LogSchemaError(["no records"])


def _body_columns(handle, width):
    """The rows after the header of a log ``width`` columns wide, as a
    list of columns per chunk of up to ``_CHUNK_ROWS`` rows; a chunk of
    blank lines yields nothing.

    A chunk of lines is plain when it holds no quote, carriage return or
    NUL, each of its lines has ``width - 1`` commas and none is longer
    than the csv field size limit (so no cell is either). ``csv.reader``
    reads each such line as the line split on its commas, so a plain
    chunk is split on its commas in one call. From the first chunk that
    is not plain to the end of the log, the lines go through
    ``csv.reader``, which skips blank rows, pads short ones, reads a
    quoted cell across lines and chunks and raises on a NUL (before
    Python 3.11) or a cell over the limit.
    """
    limit = csv.field_size_limit()
    commas = {width - 1}
    while lines := list(islice(handle, _CHUNK_ROWS)):
        text = "".join(lines)
        if (
            '"' in text
            or "\r" in text
            or "\0" in text
            or set(map(str.count, lines, repeat(","))) != commas
            or max(map(len, lines)) > limit
        ):
            break
        # As below, only one chunk's cells are alive at a time.
        del lines
        cells = text.removesuffix("\n").replace("\n", ",").split(",")
        del text
        columns = [cells[at::width] for at in range(width)]
        del cells
        yield columns
        del columns
    else:
        return
    del text
    reader = csv.reader(chain(lines, handle))
    del lines
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        if not all(chunk):  # a blank line reads as an empty row
            chunk = list(filter(None, chunk))
            if not chunk:
                continue
        if min(map(len, chunk)) < width:
            for row in chunk:
                if len(row) < width:
                    row += [""] * (width - len(row))
        columns = list(zip(*chunk))
        del chunk  # the columns hold its cells
        yield columns
        del columns


def _worded_errors(handle, position, rejected, optional) -> list[str]:
    """The problems of each row of the log at ``handle`` that holds a
    text in ``rejected`` (column -> failed texts), in file order."""
    reader = csv.reader(handle)
    header = next(reader)
    width = len(header)
    failed_at = [(position[col], texts) for col, texts in rejected.items() if texts]
    numeric = _REQUIRED_COLUMNS[2:] + optional
    errors: list[str] = []
    for row in reader:
        if not row:  # a blank line
            continue
        if len(row) < width:
            row += [""] * (width - len(row))
        if any(row[at] in texts for at, texts in failed_at):
            problems = _row_errors(
                dict(zip(header, row)), reader.line_num, numeric, optional
            )
            # The column checks and the cell-by-cell reading agree on
            # which rows are valid; should they not, a rejected row is
            # still named rather than dropped.
            errors += problems or [f"row {reader.line_num}: rejected"]
    return errors


def _row_errors(row, row_no, numeric, optional) -> list[str]:
    """The problems of one rejected row, read cell by cell (``row`` maps
    column name to cell)."""
    problems = []
    if not row["assignee_id"].strip():
        problems.append(f"row {row_no}: assignee_id is blank")
    unreadable = []
    parsed: dict[str, float] = {}
    for column in numeric:
        raw = row[column].strip()
        if not raw and column in optional:
            continue
        try:
            parsed[column] = value = float(raw)
        except ValueError:
            unreadable.append(f"row {row_no}: {column} is not numeric ({raw!r})")
            continue
        if not math.isfinite(value):
            unreadable.append(f"row {row_no}: {column} must be finite")
    if unreadable:
        return problems + unreadable
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


def ingest_log(path: str | Path) -> list[SprintRecord]:
    """Parse and range-validate a sprint activity CSV into records.

    Every problem is collected (with its row number: the file line on
    which the record ends, header = row 1, blank lines counted) and
    raised together as a :class:`LogSchemaError`, as is a log without
    records.
    """
    return load_input(path, "log", _read_log)


def _read_log(handle) -> list[SprintRecord]:
    records: list[SprintRecord] = []
    for values in _log_chunks(handle):
        columns = [values[col] for col in _REQUIRED_COLUMNS]
        optional = [col for col in _OPTIONAL_COLUMNS if col in values]
        if optional:
            # extras: each row's non-blank pass-through cells
            rows = zip(*(values[col] for col in optional))
            columns.append(
                [
                    {col: v for col, v in zip(optional, row) if v is not None}
                    for row in rows
                ]
            )
        records += map(SprintRecord, *columns)
    return records


@dataclass(frozen=True, slots=True)
class LogSummary:
    """What ``agilesim ingest`` reports of a sprint log: how many records
    it holds and how many of them finished late, and each agent's
    competence and technical productivity, keyed in sorted agent order.
    Each value equals what ``delay_percentage``, ``competence`` and
    ``technical_productivity`` give over the log's records."""

    records: int
    late: int
    competence: dict[str, float]
    productivity: dict[str, float]

    @property
    def delay(self) -> float:
        """The fraction of records finished late."""
        return self.late / self.records


def summarize_log(path: str | Path) -> LogSummary:
    """Validate a sprint activity CSV as :func:`ingest_log` does, with
    the same errors, and fold it per agent without building records."""
    return load_input(path, "log", _summarize_log)


def _summarize_log(handle) -> LogSummary:
    # Per agent, in file order: the evidence summed per (agent, positive)
    # and the difficulty summed per (agent, sprint), each key in
    # first-seen order and each float added in the order the
    # record-based metrics add it.
    evidence: dict[tuple[str, bool], float] = defaultdict(float)
    per_sprint: dict[tuple[str, int], float] = defaultdict(float)
    records = late = 0
    for values in _log_chunks(handle):
        names = list(values["assignee_id"])
        # SprintRecord.on_time: actual_days - estimated_days <= 0
        slip = map(sub, values["actual_days"], values["estimated_days"])
        on_time = list(map(le, slip, repeat(0)))
        records += len(on_time)
        late += on_time.count(False)
        # positive evidence: on time and satisfactory (quality > 5)
        positive = map(and_, on_time, map(gt, values["quality"], repeat(5)))
        for sprint_key, evidence_key, difficulty in zip(
            zip(names, values["sprint_index"]),
            zip(names, positive),
            values["difficulty"],
        ):
            evidence[evidence_key] += difficulty
            per_sprint[sprint_key] += difficulty
    totals: dict[str, list[float]] = {}
    for (name, _), total in per_sprint.items():
        totals.setdefault(name, []).append(total)
    agents = sorted(totals)
    return LogSummary(
        records,
        late,
        {
            agent: _evidence_score(evidence[agent, True], evidence[agent, False])
            for agent in agents
        },
        {agent: _mean_per_sprint(totals[agent]) for agent in agents},
    )
