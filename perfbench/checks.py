"""Output checks: exact digests at the default seed, invariants on any seed.

Each function returns a list of failure messages for one operation's
output directory; an empty list means the operation's output is
correct. Like the input generator, this module does not import the
package under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 0
SHARE_TOL = 1e-9
FCM_TOL = 1e-5


def digest_tree(directory: Path) -> dict[str, str]:
    """sha256 of every file under `directory`, by relative path."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def recipe_digest(directory: Path) -> str:
    """The fingerprint recipe `find . -name '*.csv' | sort | xargs cat |
    sha256sum`, run inside `directory`."""
    paths = sorted(
        directory.rglob("*.csv"), key=lambda p: ("./" + p.relative_to(directory).as_posix()).encode()
    )
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def digest_failures(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    failures = [f"{name}: missing" for name in sorted(expected.keys() - actual.keys())]
    failures += [f"{name}: unexpected file" for name in sorted(actual.keys() - expected.keys())]
    failures += [
        f"{name}: sha256 {actual[name][:16]} != {expected[name][:16]}"
        for name in sorted(expected.keys() & actual.keys())
        if actual[name] != expected[name]
    ]
    return failures


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def simulation_failures(scenario_dir: Path) -> list[str]:
    """Seed-independent invariants of one `simulate --compare` output:
    SMART beats AWR, allocation shares sum to 1, cumulative utility never
    decreases."""
    name = scenario_dir.name
    try:
        summary = {row["allocator"]: float(row["mean_utility"]) for row in _rows(scenario_dir / "summary.csv")}
        shares: dict[str, float] = {}
        for row in _rows(scenario_dir / "allocation.csv"):
            shares[row["allocator"]] = shares.get(row["allocator"], 0.0) + float(row["share"])
        series: dict[tuple[str, str], list[tuple[int, float]]] = {}
        for row in _rows(scenario_dir / "utility.csv"):
            series.setdefault((row["allocator"], row["run"]), []).append(
                (int(row["day"]), float(row["cumulative_utility"]))
            )
    except (OSError, KeyError, ValueError) as exc:
        return [f"{name}: unreadable output ({exc!r})"]
    failures = []
    if set(summary) != {"SMART", "AWR"}:
        failures.append(f"{name}: summary allocators {sorted(summary)}")
    elif not summary["SMART"] > summary["AWR"]:
        failures.append(f"{name}: SMART {summary['SMART']} does not beat AWR {summary['AWR']}")
    if set(shares) != {"SMART", "AWR"}:
        failures.append(f"{name}: allocation allocators {sorted(shares)}")
    for allocator, total in shares.items():
        if abs(total - 1.0) > SHARE_TOL:
            failures.append(f"{name}: {allocator} shares sum to {total!r}")
    if not series:
        failures.append(f"{name}: empty utility.csv")
    for (allocator, run), points in series.items():
        values = [value for _, value in sorted(points)]
        if any(later < earlier for earlier, later in zip(values, values[1:])):
            failures.append(f"{name}: {allocator} run {run} cumulative utility decreases")
    return failures


def _trajectory(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [[float(value) for value in row[1:]] for row in reader]


def reference_map_failures(op_dir: Path, reference: dict) -> list[str]:
    """A bundled map's trajectory matches its published table within
    1e-5 on every iteration both contain, and it ends at the published
    equilibrium. The table runs on past the point where `fcm` detects the
    fixed point and stops, so the trajectory may be the shorter one; a
    trajectory cut short before it settles fails the equilibrium check."""
    try:
        rows = _trajectory(op_dir / "trajectory.csv")
    except (OSError, StopIteration, ValueError) as exc:
        return [f"{op_dir.name}: unreadable trajectory ({exc!r})"]
    if len(rows) < 2:
        return [f"{op_dir.name}: trajectory has {len(rows)} rows"]
    failures = []
    final, equilibrium = rows[-1], reference["equilibrium"]
    if len(final) != len(equilibrium) or any(abs(a - b) > FCM_TOL for a, b in zip(final, equilibrium)):
        failures.append(f"{op_dir.name}: ends at {final}, equilibrium {equilibrium}")
    for iteration, (got, want) in enumerate(zip(rows, reference["iterations"])):
        if len(got) != len(want) or any(abs(a - b) > FCM_TOL for a, b in zip(got, want)):
            failures.append(f"{op_dir.name}: iteration {iteration} is {got}, reference {want}")
    return failures


def orbit_failures(op_dir: Path, max_iter: int) -> list[str]:
    """The generated map runs to the iteration cap with every activation
    in [0, 1]: the input generator picked an orbit that never settles."""
    try:
        rows = _trajectory(op_dir / "trajectory.csv")
    except (OSError, StopIteration, ValueError) as exc:
        return [f"{op_dir.name}: unreadable trajectory ({exc!r})"]
    failures = []
    if len(rows) != max_iter + 1:
        failures.append(f"{op_dir.name}: stopped after {len(rows) - 1} of {max_iter} iterations")
    if any(not 0.0 <= value <= 1.0 for row in rows for value in row):
        failures.append(f"{op_dir.name}: activation outside [0, 1]")
    return failures


def goalnet_failures(op_dir: Path, expected_nodes: int) -> list[str]:
    try:
        doc = json.loads((op_dir / "net.json").read_text(encoding="utf-8"))
        dot = (op_dir / "net.dot").read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        return [f"{op_dir.name}: unreadable net ({exc!r})"]
    failures = []
    if len(doc.get("nodes", ())) != expected_nodes:
        failures.append(f"{op_dir.name}: {len(doc.get('nodes', ()))} nodes, expected {expected_nodes}")
    if not dot.startswith("digraph"):
        failures.append(f"{op_dir.name}: net.dot is not a digraph")
    return failures


def ingest_failures(op_dir: Path, agents: int) -> list[str]:
    try:
        competence = [float(row["competence"]) for row in _rows(op_dir / "competence.csv")]
        productivity = [float(row["productivity"]) for row in _rows(op_dir / "productivity.csv")]
        correlations = [float(row["r"]) for row in _rows(op_dir / "correlations.csv")]
    except (OSError, KeyError, ValueError) as exc:
        return [f"{op_dir.name}: unreadable output ({exc!r})"]
    failures = []
    if len(competence) != agents or len(productivity) != agents:
        failures.append(f"{op_dir.name}: {len(competence)}/{len(productivity)} agents, expected {agents}")
    if any(not 0.0 < value < 1.0 for value in competence):
        failures.append(f"{op_dir.name}: competence outside (0, 1)")
    if len(correlations) != 1 or not -1.0 <= correlations[0] <= 1.0:
        failures.append(f"{op_dir.name}: correlations {correlations}")
    return failures
