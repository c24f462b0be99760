"""Behaviour fingerprint: the sha256 of every CSV written by two
reference ``simulate`` runs must match the digests in fingerprint.json.

The runs are the nine presets with both allocators (2 repetitions) and
L-M with fcm-coupled mood, both allocators (2 repetitions). A refactor
that keeps behaviour keeps every digest; a deliberate behaviour change
records new digests and says why in CHANGES.md.

Run as a script, it prints the digests it computed as JSON on stdout,
reports on stderr whether they match the recorded ones, and exits 1 if
any differs:

    PYTHONPATH=src python tests/test_fingerprint.py > new.json
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from agilesim import core
from agilesim.cli import main

RECORDED = Path(__file__).with_name("fingerprint.json")
RUNS = ("all-presets", "lm-fcm-coupled")


def _simulate(run: str, out: Path) -> None:
    if run == "all-presets":
        source = ["--all-presets"]
    else:
        scenario = out.with_suffix(".json")
        config = dataclasses.replace(
            core.preset("L-M"), mood_mode=core.MoodMode.fcm_coupled()
        )
        core.save_scenario(config, scenario)
        source = ["--scenario", str(scenario)]
    argv = ["simulate", *source, "--compare", "--repetitions", "2", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def digests(run: str, root: Path) -> dict[str, str]:
    """sha256 of every CSV one run writes, keyed by its path under the
    run's output directory."""
    out = root / run
    _simulate(run, out)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }


def combined(files: dict[str, str], root: Path) -> str:
    """The ``find . -name '*.csv' | sort | xargs cat | sha256sum`` value."""
    sha = hashlib.sha256()
    for rel in sorted(files):
        sha.update((root / rel).read_bytes())
    return sha.hexdigest()


def _recorded() -> dict[str, dict[str, str]]:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def test_all_presets_digests(tmp_path):
    assert digests("all-presets", tmp_path) == _recorded()["all-presets"]


def test_lm_fcm_coupled_digests(tmp_path):
    assert digests("lm-fcm-coupled", tmp_path) == _recorded()["lm-fcm-coupled"]


def cli() -> int:
    recorded = _recorded()
    with tempfile.TemporaryDirectory() as tmp:
        computed = {run: digests(run, Path(tmp)) for run in RUNS}
        for run in RUNS:
            print(f"{run}: {combined(computed[run], Path(tmp) / run)}", file=sys.stderr)
    json.dump(computed, sys.stdout, indent=2, sort_keys=True)
    print()
    differing = [
        f"{run}/{rel}"
        for run in RUNS
        for rel in sorted(set(computed[run]) | set(recorded.get(run, {})))
        if computed[run].get(rel) != recorded.get(run, {}).get(rel)
    ]
    for rel in differing:
        print(f"differs: {rel}", file=sys.stderr)
    print("digests differ" if differing else "digests match", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(cli())
