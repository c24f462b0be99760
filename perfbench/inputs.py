"""Seeded input generator for the benchmark workloads.

Every file is a pure function of the workload seed, so two runs with the
same seed (on any commit) read byte-identical inputs; `write_inputs`
returns the sha256 of each file so a result records which inputs it used.
This module imports nothing from the package under test: the generator
must not change when the program does.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

# The presets' category profiles (competence, daily effort) and task
# ladder (utility, effort), restated so the scenario documents do not
# depend on the program. Rosters are HCA/MCA/MIA/HIA head counts.
_PROFILES = {"HCA": (0.9, 20.0), "MCA": (0.7, 15.0), "MIA": (0.3, 15.0), "HIA": (0.1, 10.0)}
_LADDER = ((10.0, 10.0), (8.0, 8.0), (5.0, 5.0), (3.0, 3.0), (1.0, 1.0))

# overload: M-M with ten times the per-type task count (15 000 tasks,
# ~108 % of the team's capacity), so queues and congestion grow.
OVERLOAD_ROSTER = (12, 13, 13, 12)
OVERLOAD_PER_TYPE = 3000
# mood_fcm: the L-M roster with concept-map mood coupling. Five
# repetitions instead of the presets' ten halve a body, so a run has
# twice the bodies to average over.
MOOD_ROSTER = (40, 40, 40, 40)
MOOD_PER_TYPE = 1000
MOOD_REPETITIONS = 5

# toolkit sizes.
MAP_NODES = 12
MAP_STEEPNESS = 8.0
MAP_MAX_ITER = 1000
MAP_TOL = 1e-6
STORY_GOALS = 10
STORY_TOPS = 500
STORY_SUBS = 4  # sub-stories per top story: 500 + 2000 = 2500 stories
LOG_AGENTS = 200
LOG_ROWS = 50_000
LOG_SPRINTS = 20

_WORDS = (
    "search browse filter sort export import share review approve track "
    "compare archive tag rate schedule notify sync upload download print "
    "catalog order invoice report profile cart wishlist ticket budget team "
    "dashboard calendar message document photo video playlist map route"
).split()
_ROLES = ("visitor", "admin", "editor", "customer", "manager", "analyst", "agent")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def scenario_document(name, roster, per_type, seed, mood_mode):
    team = {
        cat: {"count": count, "competence": comp, "max_effort": effort}
        for (cat, (comp, effort)), count in zip(_PROFILES.items(), roster)
    }
    tasks = [
        {"type_id": f"T{i}", "priority": u, "utility": u, "effort": e, "count": per_type}
        for i, (u, e) in enumerate(_LADDER, start=1)
    ]
    return {
        "name": name,
        "team": team,
        "tasks": tasks,
        "horizon_days": 100,
        "repetitions": 10,
        "seed": seed,
        "psi": 1.0,
        "allocator": "SMART",
        "mood_mode": mood_mode,
    }


def reference_orbit(weights, initial, steepness, steps):
    """Synchronous sigmoid updates with the map's arithmetic: incoming
    terms summed left to right in ascending source order, zero weights
    skipped. The orbit is chaotic, so only the same operations in the
    same order reproduce the program's states."""
    n = len(initial)
    orbit = [tuple(initial)]
    values = initial
    for _ in range(steps):
        nxt = []
        for j in range(n):
            total = 0.0
            for i in range(n):
                w = weights[i][j]
                if w:
                    total += w * values[i]
            nxt.append(1.0 / (1.0 + math.exp(-steepness * total)))
        values = tuple(nxt)
        orbit.append(values)
    return orbit


def never_settles(orbit, tol):
    """True when no two states of the orbit lie within `tol` in the max
    norm, so the iteration neither reaches a fixed point nor detects a
    limit cycle. Pairs within tol in the max norm are within tol on the
    first coordinate, so a scan of the states sorted by it suffices."""
    ordered = sorted(orbit)
    for index, state in enumerate(ordered):
        for other in ordered[index + 1 :]:
            if other[0] - state[0] >= tol:
                break
            if max(abs(a - b) for a, b in zip(state, other)) < tol:
                return False
    return True


def concept_map(rng: random.Random):
    """A random sigmoid map whose orbit from its initial state never
    settles within MAP_MAX_ITER steps. Candidates are drawn from `rng`
    until one qualifies (about one in five does); the tolerance gets a
    tenfold margin so a near miss cannot decide the outcome."""
    n = MAP_NODES
    while True:
        weights = [
            [round(rng.uniform(-1, 1), 3) if i != j and rng.random() < 0.5 else 0.0 for j in range(n)]
            for i in range(n)
        ]
        initial = tuple(round(rng.random(), 3) for _ in range(n))
        orbit = reference_orbit(weights, initial, MAP_STEEPNESS, MAP_MAX_ITER)
        if never_settles(orbit, 10 * MAP_TOL):
            doc = {
                "labels": [f"C{i:02d}" for i in range(n)],
                "weights": weights,
                "transform": "sigmoid",
                "c": MAP_STEEPNESS,
            }
            return doc, initial


def _goal_text(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 5)))


def story_corpus(rng: random.Random):
    """STORY_TOPS top stories, each with STORY_SUBS sub-stories, spread
    over STORY_GOALS high-level goals. Every sub-story carries tasks, so
    the net gets one card per sub-story."""
    goals = [f"Goal {g:02d} {_goal_text(rng)}" for g in range(STORY_GOALS)]
    stories = []
    assignment = {}
    for top in range(1, STORY_TOPS + 1):
        role = rng.choice(_ROLES)
        stories.append(
            {
                "id": str(top),
                "text": f"As a {role}, I want to {_goal_text(rng)} so that {_goal_text(rng)}",
            }
        )
        assignment[str(top)] = goals[rng.randrange(STORY_GOALS)]
        for sub in range(1, STORY_SUBS + 1):
            stories.append(
                {
                    "id": f"{top}.{sub}",
                    "text": f"As a {role}, I want to {_goal_text(rng)}",
                    "tasks": [f"Task {k} {_goal_text(rng)}" for k in range(rng.randint(1, 3))],
                }
            )
    return {"stories": stories}, {"root": "Generated product", "goals": goals, "assignment": assignment}


_LOG_COLUMNS = (
    "task_id", "assignee_id", "sprint_index", "difficulty", "priority", "confidence",
    "estimated_days", "actual_days", "quality", "collaborators", "mood_begin", "mood_end",
)


def sprint_log_rows(rng: random.Random):
    """LOG_ROWS completed tasks over LOG_AGENTS agents. Each agent has a
    latent skill that drives lateness and quality, so competence and
    productivity vary across agents and their correlation is defined."""
    skill = [rng.random() for _ in range(LOG_AGENTS)]
    for row in range(LOG_ROWS):
        agent = rng.randrange(LOG_AGENTS)
        estimated = rng.randint(1, 8)
        slip = rng.gauss(1.5 - 2.5 * skill[agent], 1.0)
        yield (
            f"task-{row:06d}",
            f"dev-{agent:03d}",
            rng.randrange(LOG_SPRINTS),
            round(rng.uniform(0.5, 10.0), 2),
            round(rng.uniform(0.0, 10.0), 2),
            round(rng.uniform(0.0, 10.0), 2),
            estimated,
            max(0, estimated + round(slip)),
            round(min(10.0, max(0.0, rng.gauss(3.0 + 6.0 * skill[agent], 1.5))), 2),
            rng.randint(1, 4),
            rng.randint(1, 5),
            rng.randint(1, 5),
        )


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, str]:
    """Write the inputs of one workload into `directory`; return the
    sha256 of each file by name. `sweep` runs the bundled presets and
    needs no files."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "overload":
        _write_json(directory / "scenario.json",
                    scenario_document("overload", OVERLOAD_ROSTER, OVERLOAD_PER_TYPE, seed, "constant:1.0"))
    elif workload == "mood_fcm":
        doc = scenario_document("mood_fcm", MOOD_ROSTER, MOOD_PER_TYPE, seed, "fcm-coupled")
        doc["repetitions"] = MOOD_REPETITIONS
        _write_json(directory / "scenario.json", doc)
    elif workload == "toolkit":
        # One generator per input, so resizing one leaves the others unchanged.
        cmap, initial = concept_map(random.Random(f"map-{seed}"))
        _write_json(directory / "map.json", cmap)
        (directory / "initial.txt").write_text(",".join(map(repr, initial)) + "\n", encoding="utf-8")
        stories, goals = story_corpus(random.Random(f"stories-{seed}"))
        _write_json(directory / "stories.json", stories)
        _write_json(directory / "goals.json", goals)
        with open(directory / "sprint_log.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(_LOG_COLUMNS)
            writer.writerows(sprint_log_rows(random.Random(f"log-{seed}")))
    elif workload != "sweep":
        raise ValueError(f"unknown workload {workload!r}")
    return {path.name: sha256_file(path) for path in sorted(directory.iterdir())}
