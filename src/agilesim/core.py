"""Shared domain types and the catalog of preset team scenarios.

Teams are described by per-category head counts, competence, and daily
effort capacity. A scenario combines a team with a task mix, a horizon,
and run parameters (seed, repetitions, acceptance weight, allocator,
mood mode). Nine presets cover three team sizes (20 / 50 / 160 heads)
crossed with three competence profiles.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO


class Category(str, Enum):
    """Developer-agent behavior categories, most to least competent."""

    HCA = "HCA"
    MCA = "MCA"
    MIA = "MIA"
    HIA = "HIA"


class Allocator(str, Enum):
    SMART = "SMART"
    AWR = "AWR"


class InputError(ValueError):
    """Malformed input from outside the program.

    ``errors`` holds one entry per problem, each starting with its field
    path; a single message is taken as a one-entry list.
    """

    def __init__(self, errors: str | list[str]):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


class UnknownPresetError(InputError, KeyError):
    """Raised when a preset name is not in the catalog."""


class ScenarioValidationError(InputError):
    """Raised by :func:`validate` with every violation listed."""


@dataclass(frozen=True)
class TaskTypeSpec:
    """Static properties shared by every task of one type.

    ``priority`` orders the common queue, ``utility`` is the reward for a
    successful completion, and ``effort`` is the work required to finish
    one task of this type.
    """

    type_id: str
    priority: float
    utility: float
    effort: float


@dataclass
class AgentState:
    """A developer agent: identity, context, and pending work.

    ``competence`` is a scalar in [0, 1], the agent's skill at every
    task type. ``pending`` holds accepted-but-unfinished tasks in
    acceptance order, which is the service order, as ``[type_id,
    claim_day, count]`` runs. Only the head task can be partly served;
    ``head_remaining`` is its remaining effort while ``pending`` is
    non-empty. ``queued`` counts the tasks those runs hold per type,
    with no zero entries, so a queue's sizes are read without walking
    its runs; the simulator checks the two agree.
    """

    agent_id: str
    category: Category
    competence: float
    mood: float
    max_effort: float
    pending: deque[list] = field(default_factory=deque)
    head_remaining: float = 0.0
    pending_effort: float = 0.0
    recent_completions: dict[str, int] = field(default_factory=dict)
    queued: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CategorySpec:
    category: Category
    count: int
    competence: float
    max_effort: float


@dataclass(frozen=True)
class TeamConfig:
    """Team composition: one spec per category, in roster order."""

    categories: tuple[CategorySpec, ...]

    def head_count(self) -> int:
        return sum(c.count for c in self.categories)

    def build_agents(self, mood: float = 1.0) -> list[AgentState]:
        """Instantiate the roster. Agent ids are ``dev-NNN`` in declared
        category order, so id order follows the roster order."""
        agents: list[AgentState] = []
        serial = 0
        for spec in self.categories:
            for _ in range(spec.count):
                agents.append(
                    AgentState(
                        agent_id=f"dev-{serial:03d}",
                        category=spec.category,
                        competence=spec.competence,
                        mood=mood,
                        max_effort=spec.max_effort,
                    )
                )
                serial += 1
        return agents


@dataclass(frozen=True)
class MoodMode:
    """Mood dynamics selector: a fixed value, or daily concept-map
    coupling driven by each agent's completion outcomes."""

    kind: str  # "constant" | "fcm-coupled"
    value: float = 1.0

    @classmethod
    def constant(cls, value: float = 1.0) -> "MoodMode":
        return cls(kind="constant", value=value)

    @classmethod
    def fcm_coupled(cls) -> "MoodMode":
        return cls(kind="fcm-coupled")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    team: TeamConfig
    task_mix: tuple[tuple[TaskTypeSpec, int], ...]
    horizon_days: int = 100
    repetitions: int = 10
    seed: int = 0
    psi: float = 1.0
    allocator: Allocator = Allocator.SMART
    mood_mode: MoodMode = MoodMode.constant(1.0)

    def task_types(self) -> dict[str, TaskTypeSpec]:
        return {spec.type_id: spec for spec, _ in self.task_mix}

    def total_tasks(self) -> int:
        return sum(count for _, count in self.task_mix)


# Category profiles used by every preset: (competence, daily max effort).
_PROFILES = {
    Category.HCA: (0.9, 20.0),
    Category.MCA: (0.7, 15.0),
    Category.MIA: (0.3, 15.0),
    Category.HIA: (0.1, 10.0),
}

# Per-type (utility, effort) ladder shared by all presets; priority is
# taken equal to utility since higher-value work heads the common queue.
_TASK_LADDER = ((10.0, 10.0), (8.0, 8.0), (5.0, 5.0), (3.0, 3.0), (1.0, 1.0))

# Head counts per preset in HCA/MCA/MIA/HIA order, with the per-type task
# count. The two large rosters marked "scaled" are rebuilt at 160 heads by
# scaling the small-team mixes (L-M from S-M, L-C mirroring L-I), because
# only ratios are available for them.
_PRESET_ROSTERS: dict[str, tuple[tuple[int, int, int, int], int]] = {
    "S-I": ((1, 5, 5, 9), 100),
    "S-M": ((5, 5, 5, 5), 100),
    "S-C": ((9, 5, 5, 1), 100),
    "M-I": ((2, 13, 13, 22), 300),
    "M-M": ((12, 13, 13, 12), 300),
    "M-C": ((22, 13, 13, 2), 300),
    "L-I": ((10, 40, 40, 70), 1000),
    "L-M": ((40, 40, 40, 40), 1000),  # scaled
    "L-C": ((70, 40, 40, 10), 1000),  # scaled
}

PRESET_NAMES = tuple(_PRESET_ROSTERS)


def _task_mix(per_type_count: int) -> tuple[tuple[TaskTypeSpec, int], ...]:
    mix = []
    for idx, (utility, effort) in enumerate(_TASK_LADDER, start=1):
        spec = TaskTypeSpec(
            type_id=f"T{idx}", priority=utility, utility=utility, effort=effort
        )
        mix.append((spec, per_type_count))
    return tuple(mix)


def preset(name: str) -> ScenarioConfig:
    """Return one of the nine preset scenarios (S/M/L x I/M/C).

    All presets run 100 days with 10 repetitions. Team sizes are 20, 50,
    and 160 heads; the large medium-competence and high-competence
    rosters are reconstructions at 160 heads preserving the small-team
    ratios (L-M: 40/40/40/40; L-C: 70/40/40/10, mirroring L-I), since no
    explicit 160-person roster exists for them.
    """
    try:
        counts, per_type = _PRESET_ROSTERS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset: {name!r} (expected one of {', '.join(PRESET_NAMES)})"
        ) from None
    categories = tuple(
        CategorySpec(cat, count, *_PROFILES[cat])
        for cat, count in zip(Category, counts)
    )
    return ScenarioConfig(
        name=name,
        team=TeamConfig(categories=categories),
        task_mix=_task_mix(per_type),
        horizon_days=100,
        repetitions=10,
    )


# The largest scenario validate accepts, so that a valid scenario asks
# for bounded work and memory: a run costs time per task, per agent-day
# and per type-day, and keeps one float series per agent-day; under
# fcm-coupled mood it keeps every repetition's. Each cap is 100x the
# largest preset or benchmark input: 100 days, 160 heads, 15 000 tasks
# of 5 types and 10 repetitions.
MAX_HORIZON_DAYS = 10_000
MAX_HEAD_COUNT = 16_000
MAX_AGENT_DAYS = 1_600_000
MAX_REPEATED_AGENT_DAYS = 16_000_000
MAX_TASKS = 1_500_000
MAX_TASK_TYPES = 500
MAX_REPETITIONS = 1_000


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant and return the config unchanged.

    Raises :class:`ScenarioValidationError` carrying one entry per
    violation, each prefixed with the offending field path. Real-valued
    fields must be finite before their range is checked. Sizes are
    bounded by the ``MAX_*`` caps: ``horizon_days``, ``repetitions``,
    each head count and their total, each task count, their total and
    the number of task types, the agent-days (total head count x
    ``horizon_days``) and the repeated agent-days (agent-days x
    ``repetitions``).
    """
    errors: list[str] = []

    def check(path: str, value: float, ok: bool, rule: str) -> None:
        if not math.isfinite(value):
            errors.append(f"{path}: must be finite (got {value})")
        elif not ok:
            errors.append(f"{path}: {rule} (got {value})")

    def at_most(path: str, value: int, cap: int, what: str = "must be") -> None:
        if value > cap:
            errors.append(f"{path}: {what} <= {cap} (got {value})")

    if not config.name:
        errors.append("name: must be non-empty")
    if config.horizon_days < 1:
        errors.append(f"horizon_days: must satisfy horizon_days >= 1 (got {config.horizon_days})")
    at_most("horizon_days", config.horizon_days, MAX_HORIZON_DAYS)
    if config.repetitions < 1:
        errors.append(f"repetitions: must satisfy repetitions >= 1 (got {config.repetitions})")
    at_most("repetitions", config.repetitions, MAX_REPETITIONS)
    # random.Random seeds from abs(n), so a negative seed would replay the
    # quality draws of a non-negative one.
    if config.seed < 0:
        errors.append(f"seed: must satisfy seed >= 0 (got {config.seed})")
    check("psi", config.psi, config.psi >= 0, "must satisfy psi >= 0")
    heads = config.team.head_count()
    if heads <= 0:
        errors.append("team: total head-count must be > 0")
    at_most("team", heads, MAX_HEAD_COUNT, "total head-count must be")
    if heads * config.horizon_days > MAX_AGENT_DAYS:
        errors.append(
            f"horizon_days: total head-count x horizon_days must be <= "
            f"{MAX_AGENT_DAYS} (got {heads} x {config.horizon_days})"
        )
    if config.repetitions * heads * config.horizon_days > MAX_REPEATED_AGENT_DAYS:
        errors.append(
            f"repetitions: repetitions x total head-count x horizon_days must be "
            f"<= {MAX_REPEATED_AGENT_DAYS} (got {config.repetitions} x {heads} x "
            f"{config.horizon_days})"
        )
    for spec in config.team.categories:
        path = f"team.{spec.category.value}"
        if spec.count < 0:
            errors.append(f"{path}.count: must be >= 0 (got {spec.count})")
        at_most(f"{path}.count", spec.count, MAX_HEAD_COUNT)
        check(
            f"{path}.competence",
            spec.competence,
            0.0 < spec.competence <= 1.0,
            "competence must be within (0, 1]",
        )
        check(f"{path}.max_effort", spec.max_effort, spec.max_effort > 0, "must be > 0")
    tasks = config.total_tasks()
    if tasks <= 0:
        errors.append("tasks: total task count must be > 0")
    at_most("tasks", tasks, MAX_TASKS, "total task count must be")
    at_most("tasks", len(config.task_mix), MAX_TASK_TYPES, "task type count must be")
    seen: set[str] = set()
    for idx, (spec, count) in enumerate(config.task_mix):
        path = f"tasks[{idx}]"
        if spec.type_id in seen:
            errors.append(f"{path}.type_id: duplicate type id {spec.type_id!r}")
        seen.add(spec.type_id)
        if count < 0:
            errors.append(f"{path}.count: must be >= 0 (got {count})")
        at_most(f"{path}.count", count, MAX_TASKS)
        check(f"{path}.utility", spec.utility, spec.utility >= 0, "must be >= 0")
        check(f"{path}.effort", spec.effort, spec.effort > 0, "must be > 0")
        check(f"{path}.priority", spec.priority, spec.priority >= 0, "must be >= 0")
    if config.mood_mode.kind not in ("constant", "fcm-coupled"):
        errors.append(f"mood_mode.kind: unknown kind {config.mood_mode.kind!r}")
    mood = config.mood_mode.value
    check("mood_mode.value", mood, 0.0 <= mood <= 1.0, "mood must be within [0, 1]")
    if errors:
        raise ScenarioValidationError(errors)
    return config


# --- input documents ------------------------------------------------------

_REQUIRED = object()


def integer(value) -> int:
    """Field kind for a whole number: an int or an integral float such
    as ``3.0``. A bool, a fraction or any other type is rejected."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"not a whole number: {value!r}")


def real(value) -> float:
    """Field kind for a real number: an int or a float. A bool, which
    ``float`` would read as 0.0 or 1.0, a string or any other type is
    rejected."""
    if type(value) is float or type(value) is int:
        return float(value)
    raise ValueError(f"not a number: {value!r}")


def boolean(value) -> bool:
    """Field kind for a JSON ``true`` or ``false``; ``bool`` would read
    any non-empty string, ``"false"`` too, as true."""
    if type(value) is bool:
        return value
    raise ValueError(f"not true or false: {value!r}")


def text(value) -> str:
    """Field kind for a JSON string; ``str`` would turn any value, a
    number, a list or an object too, into text."""
    if type(value) is str:
        return value
    raise ValueError(f"not a string: {value!r}")


def list_of(kind: Callable) -> Callable:
    """Field kind for a JSON list whose items all convert with ``kind``."""

    def convert(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return tuple(kind(item) for item in value)

    return convert


class DocumentReader:
    """Reads typed fields out of a decoded JSON document.

    Every problem is collected with its field path (``tasks[3].effort``)
    and :meth:`check` raises them together as one ``error``. A field kind
    is ``dict`` or ``list``, which the value must already be, or a
    converter such as :func:`integer`, :func:`real`, :func:`boolean`,
    :func:`text` or :func:`list_of`. A JSON null counts as a missing key.
    """

    def __init__(self, doc, error: type[InputError] = InputError):
        if not isinstance(doc, dict):
            raise error(["document: expected a JSON object"])
        self.error = error
        self.errors: list[str] = []

    def field(self, entry: dict, key: str, kind, at: str = "", default=_REQUIRED):
        """Return ``entry[key]`` converted by ``kind``, ``default`` when it
        is missing, or None after recording the problem at ``at.key``."""
        path = f"{at}.{key}" if at else key
        value = entry.get(key)
        if value is None:
            if default is _REQUIRED:
                self.errors.append(f"{path}: required key missing")
            return None if default is _REQUIRED else default
        if kind is dict or kind is list:
            if isinstance(value, kind):
                return value
            self.errors.append(
                f"{path}: expected {'an object' if kind is dict else 'a list'}"
            )
            return None
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            self.errors.append(f"{path}: invalid value {value!r}")
            return None

    def objects(
        self, entry: dict, key: str, at: str = "", default=_REQUIRED
    ) -> Iterator[tuple[str, dict]]:
        """Yield ``(path, item)`` for each object in the list at ``key``;
        an item that is not an object is recorded at its path."""
        path = f"{at}.{key}" if at else key
        for index, item in enumerate(self.field(entry, key, list, at, default) or ()):
            if isinstance(item, dict):
                yield f"{path}[{index}]", item
            else:
                self.errors.append(f"{path}[{index}]: expected an object")

    def check(self) -> None:
        if self.errors:
            raise self.error(self.errors)


def load_input(path: str | Path, kind: str, build: Callable[[TextIO], Any]) -> Any:
    """Open a UTF-8 text file and build it from the handle.

    A leading byte-order mark, as spreadsheet exports and some editors
    write, is skipped. Undecodable text, invalid JSON or CSV and every
    :class:`InputError` that ``build`` raises come out as entries
    prefixed ``invalid <kind> file <path>: ``; the error keeps its class.
    """
    where = f"invalid {kind} file {path}"
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            if handle.read(1) != "\ufeff":
                handle.seek(0)
            return build(handle)
    except InputError as exc:
        exc.errors = [f"{where}: {error}" for error in exc.errors]
        exc.args = ("; ".join(exc.errors),)
        raise
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        raise InputError(f"{where}: {exc}") from None


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV file with ``\\n`` line ends: ``header``, then
    ``rows``. The csv writer renders a float as its ``repr``, which reads
    back bit for bit."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv_text(path: str | Path, header: Sequence, chunks: Iterable[str]) -> None:
    """Write a UTF-8 CSV file as ``write_csv`` does: ``header``, then
    each of ``chunks``, text already rendered as ``write_csv`` renders
    rows (string cells by ``csv_cells``, numbers by ``repr``), one
    ``write`` per chunk."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        for chunk in chunks:
            handle.write(chunk)


class _Collected(list):
    """A sink for ``csv.writer`` that keeps what it is given."""

    write = list.append


def csv_cells(values: Iterable[str]) -> dict[str, str]:
    """Each distinct value mapped to the text ``write_csv`` writes for it
    as one cell of a row of several cells."""
    sink = _Collected()
    writer = csv.writer(sink, lineterminator="\n")
    cells = {}
    for value in dict.fromkeys(values):
        # A row of one empty cell is written as '""', so render the value
        # before an empty last cell and cut that cell's "," and the line end.
        writer.writerow((value, ""))
        cells[value] = "".join(sink)[:-2]
        sink.clear()
    return cells


_json_text = json.encoder.encode_basestring_ascii


def write_json(path: str | Path, doc: Any) -> None:
    """Write ``doc`` as UTF-8 JSON indented by 2, ending in a newline:
    the bytes of ``json.dumps(doc, indent=2) + "\\n"``.

    With ``indent`` set, ``json`` (before Python 3.13) lays the text out
    in its pure-Python encoder and joins the whole document into one
    string. So the text is streamed into the file instead, one ``write``
    per piece, with no document string or chunk list in memory: each
    value and key is rendered as ``json`` renders it, strings by
    ``json``'s own C ``encode_basestring_ascii``, in about half the time
    on a goal net.

    The file is opened, and truncated, before the first piece. An
    unsupported value or key raises ``json``'s ``TypeError`` and leaves
    the file holding the pieces before it: a partial, invalid document
    where an earlier one may have been. A document that contains itself
    raises ``RecursionError``, not ``json``'s ``ValueError``.
    """
    with open(path, "w", encoding="utf-8") as handle:
        _write_json_value(handle.write, doc, "\n")
        handle.write("\n")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_scalar(value: Any) -> str:
    """``json``'s text for a value that is not a list, tuple or dict: a
    string, ``None``, bool or number (an ``IntEnum`` as its int)."""
    if isinstance(value, str):
        return _json_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    json.JSONEncoder().default(value)  # raises json's TypeError


def _json_key(key: Any) -> str:
    """A dict key other than a string, quoted as ``json`` writes it: its
    JSON text as a string."""
    if isinstance(key, float):
        return _json_text(_json_float(key))
    if key is None or isinstance(key, int):
        return _json_text(_json_scalar(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


_JSON_CONTAINERS = (list, tuple, dict)


def _write_json_value(write: Callable[[str], Any], value: Any, newline: str) -> None:
    """Write ``value`` as ``json.dumps(value, indent=2)`` lays it out at
    the depth whose line break and indent are ``newline``. No value is
    both a container and a scalar, so containers are tested first."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        separator = "{" + inner
        comma = "," + inner
        for key, item in value.items():
            key = _json_text(key) if isinstance(key, str) else _json_key(key)
            if isinstance(item, str):
                write(f"{separator}{key}: {_json_text(item)}")
            elif isinstance(item, _JSON_CONTAINERS):
                write(f"{separator}{key}: ")
                _write_json_value(write, item, inner)
            else:
                write(f"{separator}{key}: {_json_scalar(item)}")
            separator = comma
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        comma = "," + inner
        try:
            # A list of strings, such as a net's ids, is written in one piece.
            strings = comma.join(map(_json_text, value))
        except TypeError:
            pass
        else:
            write("[" + inner + strings + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            if isinstance(item, _JSON_CONTAINERS):
                write(separator)
                _write_json_value(write, item, inner)
            else:
                write(separator + _json_scalar(item))
            separator = comma
        write(newline + "]")
    else:
        write(_json_scalar(value))


# --- scenario files -------------------------------------------------------
#
# A scenario document is JSON with top-level keys: name, team, tasks,
# horizon_days, repetitions, seed, psi, allocator, mood_mode.


def scenario_to_document(config: ScenarioConfig) -> dict:
    team = {
        spec.category.value: {
            "count": spec.count,
            "competence": spec.competence,
            "max_effort": spec.max_effort,
        }
        for spec in config.team.categories
    }
    tasks = [
        {
            "type_id": spec.type_id,
            "priority": spec.priority,
            "utility": spec.utility,
            "effort": spec.effort,
            "count": count,
        }
        for spec, count in config.task_mix
    ]
    if config.mood_mode.kind == "constant":
        mood = f"constant:{config.mood_mode.value}"
    else:
        mood = "fcm-coupled"
    return {
        "name": config.name,
        "team": team,
        "tasks": tasks,
        "horizon_days": config.horizon_days,
        "repetitions": config.repetitions,
        "seed": config.seed,
        "psi": config.psi,
        "allocator": config.allocator.value,
        "mood_mode": mood,
    }


def _parse_mood_mode(raw) -> MoodMode:
    raw = str(raw)
    if raw == "fcm-coupled":
        return MoodMode.fcm_coupled()
    if raw == "constant":
        return MoodMode.constant(1.0)
    if raw.startswith("constant:"):
        return MoodMode.constant(float(raw.split(":", 1)[1]))
    raise ValueError(raw)


def scenario_from_document(doc: dict) -> ScenarioConfig:
    """Build and validate a scenario. Every missing or unconvertible
    field is reported with its path before the config is validated."""
    reader = DocumentReader(doc, ScenarioValidationError)
    read = reader.field
    categories = []
    for cat_name, entry in (read(doc, "team", dict) or {}).items():
        path = f"team.{cat_name}"
        try:
            category = Category(cat_name)
        except ValueError:
            reader.errors.append(f"{path}: unknown category")
            continue
        if not isinstance(entry, dict):
            reader.errors.append(f"{path}: expected an object")
            continue
        categories.append(
            CategorySpec(
                category=category,
                count=read(entry, "count", integer, path),
                competence=read(entry, "competence", real, path),
                max_effort=read(entry, "max_effort", real, path),
            )
        )
    task_mix = []
    for path, entry in reader.objects(doc, "tasks"):
        spec = TaskTypeSpec(
            type_id=read(entry, "type_id", text, path),
            priority=read(entry, "priority", real, path),
            utility=read(entry, "utility", real, path),
            effort=read(entry, "effort", real, path),
        )
        task_mix.append((spec, read(entry, "count", integer, path)))
    config = ScenarioConfig(
        name=read(doc, "name", text),
        team=TeamConfig(categories=tuple(categories)),
        task_mix=tuple(task_mix),
        horizon_days=read(doc, "horizon_days", integer),
        repetitions=read(doc, "repetitions", integer),
        seed=read(doc, "seed", integer),
        psi=read(doc, "psi", real, default=1.0),
        allocator=read(doc, "allocator", Allocator, default=Allocator.SMART),
        mood_mode=read(
            doc, "mood_mode", _parse_mood_mode, default=MoodMode.constant()
        ),
    )
    reader.check()
    return validate(config)


def load_scenario(path: str | Path) -> ScenarioConfig:
    return load_input(
        path, "scenario", lambda handle: scenario_from_document(json.load(handle))
    )


def save_scenario(config: ScenarioConfig, path: str | Path) -> None:
    write_json(path, scenario_to_document(config))


def with_overrides(
    config: ScenarioConfig,
    seed: int | None = None,
    allocator: Allocator | str | None = None,
    repetitions: int | None = None,
) -> ScenarioConfig:
    """Copy a scenario with the given run parameters replaced, validated.
    None keeps the current value."""
    return validate(
        replace(
            config,
            seed=config.seed if seed is None else seed,
            allocator=config.allocator if allocator is None else Allocator(allocator),
            repetitions=config.repetitions if repetitions is None else repetitions,
        )
    )
