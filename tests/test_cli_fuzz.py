"""Mutation fuzz of the command line.

Each case takes one valid input (a scenario, a concept map, the story
corpus and its goals, a sprint log), deletes one key or replaces one
value, and runs it through ``cli.main``. Whatever the mutation, the run
exits 0 or exits 2 with ``error:`` lines; nothing escapes ``main`` and
no traceback is printed. A replaced value may be 10**20, above every
size cap of a scenario, so a huge count exits 2 instead of running long.
"""

import contextlib
import copy
import io
import json
import math
import random
from importlib import resources

import pytest

from agilesim import core
from agilesim.cli import main

CASES_PER_INPUT = 40
REPLACEMENTS = (None, "x", [], {}, [1], -1, 10**20, math.nan, math.inf, True)
LOG_HEADER = (
    "task_id,assignee_id,sprint_index,difficulty,priority,confidence,"
    "estimated_days,actual_days,quality,collaborators,mood_begin,mood_end"
).split(",")


def bundled_doc(name):
    return json.loads(resources.files("agilesim.data").joinpath(name).read_text("utf-8"))


def slots(value):
    """Every (container, key) pair of a decoded JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in list(items):
        yield value, key
        if isinstance(item, (dict, list)):
            yield from slots(item)


def mutate(doc, rng):
    doc = copy.deepcopy(doc)
    container, key = rng.choice(list(slots(doc)))
    if rng.random() < 0.25:
        del container[key]
    else:
        container[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc


def sprint_log(rng):
    rows = [
        [f"t{i}", f"s{i % 4}", str(1 + i % 3), str(2 + i % 7), "5", "7",
         "3", str(2 + i % 3), str(4 + i % 6), "1", "3", "4"]
        for i in range(20)
    ]
    table = [list(LOG_HEADER), *rows]
    row = rng.randrange(len(table))
    column = rng.randrange(len(LOG_HEADER))
    if rng.random() < 0.25:
        del table[row][column]
    else:
        value = rng.choice(REPLACEMENTS)
        table[row][column] = "" if value is None else json.dumps(value)
    return "\n".join(",".join(cells) for cells in table) + "\n"


def scenario_case(rng, tmp):
    doc = core.scenario_to_document(core.with_overrides(core.preset("S-M"), repetitions=1))
    (tmp / "scenario.json").write_text(json.dumps(mutate(doc, rng)), encoding="utf-8")
    return ["simulate", "--scenario", str(tmp / "scenario.json")]


def map_case(rng, tmp):
    doc = mutate(bundled_doc("michael_scenario1.json"), rng)
    (tmp / "map.json").write_text(json.dumps(doc), encoding="utf-8")
    return ["fcm", "--map", str(tmp / "map.json"), "--initial", "0.5,0,0"]


def corpus_case(mutated):
    def case(rng, tmp):
        for name in ("stories.json", "goals.json"):
            doc = bundled_doc(name)
            if name == mutated:
                doc = mutate(doc, rng)
            (tmp / name).write_text(json.dumps(doc), encoding="utf-8")
        return ["goalnet", "--stories", str(tmp / "stories.json"),
                "--goals", str(tmp / "goals.json")]
    return case


def log_case(rng, tmp):
    (tmp / "log.csv").write_text(sprint_log(rng), encoding="utf-8")
    return ["ingest", "--log", str(tmp / "log.csv"),
            "--correlate", "competence:productivity"]


INPUTS = {
    "scenario": scenario_case,
    "map": map_case,
    "stories": corpus_case("stories.json"),
    "goals": corpus_case("goals.json"),
    "log": log_case,
}


@pytest.mark.parametrize("name", INPUTS)
def test_mutated_input_exits_0_or_2(name, tmp_path):
    rng = random.Random(f"cli-fuzz-{name}")
    for case in range(CASES_PER_INPUT):
        argv = [*INPUTS[name](rng, tmp_path), "--out", str(tmp_path / "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        except Exception as exc:
            pytest.fail(f"case {case}: {argv} raised {exc!r}")
        err = stderr.getvalue()
        context = f"case {case}: {argv}\n{err}"
        assert code in (0, 2), context
        assert "Traceback" not in err, context
        if code == 2:
            assert err.startswith("error: "), context
