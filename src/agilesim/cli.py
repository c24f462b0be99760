"""Batch command-line interface.

Subcommands: ``simulate`` (run scenarios, optionally comparing both
allocators on identical seeds), ``fcm`` (iterate a concept map and
report its attractor), ``goalnet`` (build and export a goal net from a
story corpus), and ``ingest`` (sprint-log metrics).

Exit codes: 0 success, 1 runtime invariant breach, 2 usage or input
error. A malformed input file or flag prints one ``error:`` line per
problem, naming the file and the field path. The default output
directory comes from the AGILESIM_OUT environment variable when set.

Output contracts. Every CSV carries a header row; CSV and JSON files are
written through ``core.write_csv``, ``core.write_csv_text`` and
``core.write_json``.

* ``utility.csv``: day, run, allocator, cumulative_utility
* ``allocation.csv``: agent, category, share, allocator
* ``queues.csv``: day, agent, pending_workload, congestion, allocator
  (series from the first trajectory). It is rendered a day at a time
  and keeps the bytes ``core.write_csv`` writes for those rows.
* ``summary.csv``: scenario, allocator, repetitions, mean_utility,
  std_utility, mean_completed, mean_delay_pct
* ``trajectory.csv``: iteration, then one column per map node
* ``competence.csv``, ``productivity.csv``: agent, then the metric
* ``correlations.csv``: x, y, r, n
* ``net.json``: the goal net as JSON (``goalnet.to_document``)
* ``net.dot``: the goal net in Graphviz DOT (``goalnet.export_dot``)
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

from . import __version__, core, fcm, goalnet, metrics, simulation


_SERIES = ("competence", "productivity")


def _default_out() -> str:
    return os.environ.get("AGILESIM_OUT", "agilesim-out")


def _queue_cells(agent: str, pending: list[float]):
    """An agent's ``agent,pending_workload`` cells, day by day. The series
    holds one float object over an idle stretch, so the text is rendered
    once per stretch. Not once per value: 0.0 == -0.0, and the two print
    differently."""
    previous = text = None
    for value in pending:
        if value is not previous:
            previous, text = value, f"{agent},{value!r}"
        yield text


def _write_queues(path: Path, firsts: dict[str, simulation.RunResult]) -> None:
    """Write ``queues.csv`` from each allocator's first run: the bytes
    ``core.write_csv`` writes for rows ``[day, agent, pending_workload,
    congestion, allocator]``, rendered and written a day at a time."""
    cells = core.csv_cells(
        [*firsts, *(agent for first in firsts.values() for agent in first.categories)]
    )

    def days():
        for allocator, first in firsts.items():
            columns = [
                _queue_cells(cells[agent], first.pending_workload[agent])
                for agent in first.categories
            ]
            last = "," + cells[allocator] + "\n"
            # A day's rows differ only in their agent and pending_workload cells.
            for day, (texts, load) in enumerate(zip(zip(*columns), first.congestion)):
                head = f"{day},"
                tail = f",{load!r}{last}"
                yield head + (tail + head).join(texts) + tail

    core.write_csv_text(
        path, ["day", "agent", "pending_workload", "congestion", "allocator"], days()
    )


def _write_simulation_outputs(
    out_dir: Path, results: dict[str, simulation.RepeatedResult]
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    core.write_csv(
        out_dir / "utility.csv",
        ["day", "run", "allocator", "cumulative_utility"],
        (
            [day, run_index, allocator, value]
            for allocator, repeated in results.items()
            for run_index, outcome in enumerate(repeated.outcomes)
            for day, value in enumerate(accumulate(outcome.utility))
        ),
    )

    shares = []
    for allocator, repeated in results.items():
        share_sums: dict[str, float] = {}
        counted = 0
        index = report = None
        for outcome in repeated.outcomes:
            # Outcomes are grouped by trajectory: one report per trajectory.
            if outcome.trajectory != index:
                index = outcome.trajectory
                trajectory = repeated.trajectories[index]
                try:
                    report = metrics.allocation_proportion(trajectory.assigned_effort)
                except metrics.MetricsError:
                    report = None
            if report is None:
                continue
            counted += 1
            for agent, share in report.items():
                share_sums[agent] = share_sums.get(agent, 0.0) + share
        if not counted:
            continue
        first = repeated.trajectories[0]
        for agent, category in first.categories.items():
            share = share_sums.get(agent, 0.0) / counted
            shares.append([agent, category, share, allocator])
    core.write_csv(
        out_dir / "allocation.csv", ["agent", "category", "share", "allocator"], shares
    )

    _write_queues(
        out_dir / "queues.csv",
        {allocator: r.trajectories[0] for allocator, r in results.items()},
    )

    summaries = []
    for allocator, repeated in results.items():
        completed = repeated.mean["completed_count"]
        delays = repeated.mean["delay_count"]
        summaries.append(
            [
                repeated.trajectories[0].scenario,
                allocator,
                len(repeated.outcomes),
                repeated.mean["global_utility"],
                repeated.std["global_utility"],
                completed,
                delays / completed if completed else 0.0,
            ]
        )
    core.write_csv(
        out_dir / "summary.csv",
        [
            "scenario",
            "allocator",
            "repetitions",
            "mean_utility",
            "std_utility",
            "mean_completed",
            "mean_delay_pct",
        ],
        summaries,
    )


def _simulate_one(config: core.ScenarioConfig, args, out_dir: Path) -> None:
    """Apply ``--seed/--allocator/--repetitions``, run, write the CSVs."""
    config = core.with_overrides(
        config, seed=args.seed, allocator=args.allocator, repetitions=args.repetitions
    )
    allocators = list(core.Allocator) if args.compare else [config.allocator]
    results = {
        a.value: simulation.run_repeated(core.with_overrides(config, allocator=a))
        for a in allocators
    }
    _write_simulation_outputs(out_dir, results)
    for allocator, repeated in results.items():
        print(
            f"{config.name} {allocator}: mean utility "
            f"{repeated.mean['global_utility']:.1f} "
            f"(sd {repeated.std['global_utility']:.1f}) over "
            f"{len(repeated.outcomes)} runs"
        )
    if args.compare:
        smart = results[core.Allocator.SMART.value].mean["global_utility"]
        awr = results[core.Allocator.AWR.value].mean["global_utility"]
        verdict = ">" if smart > awr else ("=" if smart == awr else "<")
        print(f"{config.name}: SMART {smart:.1f} {verdict} AWR {awr:.1f}")


def cmd_simulate(args) -> int:
    if args.compare and args.allocator:
        raise core.InputError(
            "--allocator: cannot be combined with --compare, which runs both allocators"
        )
    out_root = Path(args.out)
    if args.all_presets:
        for name in core.PRESET_NAMES:
            _simulate_one(core.preset(name), args, out_root / name)
        return 0
    if args.preset:
        config = core.preset(args.preset)
    else:
        config = core.load_scenario(args.scenario)
    _simulate_one(config, args, out_root)
    return 0


def cmd_fcm(args) -> int:
    if args.map in fcm.bundled_map_names():
        cmap = fcm.bundled_map(args.map)
    else:
        cmap = fcm.load_map(args.map)
        if "iteration" in cmap.labels:  # trajectory.csv's first column
            i = cmap.labels.index("iteration")
            raise core.InputError(
                f"invalid map file {args.map}: labels[{i}]: 'iteration' is reserved"
            )
    cmap = replace(
        cmap,
        transform=args.transform or cmap.transform,
        c=cmap.c if args.c is None else args.c,
    )
    try:
        values = tuple(float(part) for part in args.initial.split(","))
    except ValueError:
        values = ()
    if len(values) != cmap.node_count or not all(map(math.isfinite, values)):
        raise core.InputError(
            f"--initial: expected {cmap.node_count} finite comma-separated values "
            f"for a {cmap.node_count}-node map (got {args.initial!r})"
        )
    trajectory = fcm.run(
        cmap,
        fcm.StateVector(values=values),
        max_iter=args.max_iter,
        tol=args.tol,
    )
    final = trajectory.final
    rendered = ", ".join(f"{v:.6f}" for v in final.values)
    print(f"terminal: {trajectory.terminal} at iteration {final.iteration}")
    print(f"state: ({rendered})")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    core.write_csv(
        out_dir / "trajectory.csv",
        ["iteration", *cmap.labels],
        ([state.iteration, *state.values] for state in trajectory.states),
    )
    return 0


def cmd_goalnet(args) -> int:
    stories = goalnet.load_stories(args.stories)
    goals, assignment, root_label = goalnet.load_goals(args.goals)
    net = goalnet.build_goal_net(stories, goals, assignment, root_label=root_label)
    violations = goalnet.validate_net(net)
    if violations:
        for violation in violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    goalnet.save_net(net, out_dir / "net.json")
    (out_dir / "net.dot").write_text(goalnet.export_dot(net), encoding="utf-8")
    print(
        f"valid goal net: {len(net.nodes)} nodes, {net.levels()} levels, "
        f"{len(net.transitions)} transitions, {len(net.cards)} cards"
    )
    return 0


def cmd_ingest(args) -> int:
    records = metrics.ingest_log(args.log)
    # One pass groups the log by agent; each bucket keeps file order, so
    # the per-agent metrics sum the same values in the same order as a
    # scan of the whole log would.
    by_agent: dict[str, list[metrics.SprintRecord]] = {}
    for record in records:
        by_agent.setdefault(record.assignee_id, []).append(record)
    agents = sorted(by_agent)
    competence = {
        agent: metrics.competence(by_agent[agent], agent) for agent in agents
    }
    productivity = {
        agent: metrics.technical_productivity(by_agent[agent], agent)
        for agent in agents
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = {"competence": competence, "productivity": productivity}
    # Each series is built in sorted agent order, which is the row order.
    for name, values in series.items():
        core.write_csv(out_dir / f"{name}.csv", ["agent", name], values.items())
    delay = metrics.delay_percentage(records)
    print(f"records: {len(records)} across {len(agents)} agents")
    print(f"delay percentage: {delay:.4f}")
    for agent in agents:
        print(
            f"{agent}: competence {competence[agent]:.4f}, "
            f"productivity {productivity[agent]:.2f}"
        )
    if args.correlate:
        rows = []
        for spec in args.correlate:
            left, right = spec.split(":")
            x = [series[left][agent] for agent in agents]
            y = [series[right][agent] for agent in agents]
            try:
                r = metrics.pearson(x, y)
            except metrics.MetricsError as exc:
                raise core.InputError(f"--correlate {spec}: {exc}") from None
            rows.append((left, right, r, len(agents)))
            print(f"pearson({left}, {right}) = {r:.4f} (n={len(agents)})")
        core.write_csv(out_dir / "correlations.csv", ["x", "y", "r", "n"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agilesim",
        description="Agile-team task allocation simulator and metrics toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario (or all presets)")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="preset scenario name (e.g. S-M)")
    source.add_argument("--scenario", help="path to a scenario JSON file")
    source.add_argument(
        "--all-presets", action="store_true", help="run every preset scenario"
    )
    sim.add_argument("--seed", type=int, default=None, help="override the seed")
    sim.add_argument(
        "--allocator", choices=[a.value for a in core.Allocator], default=None
    )
    sim.add_argument(
        "--repetitions", type=int, default=None, help="override repetition count"
    )
    sim.add_argument(
        "--compare",
        action="store_true",
        help="run both allocators on identical seeds and summarize side by side",
    )
    sim.add_argument("--out", default=_default_out(), help="output directory")
    sim.set_defaults(func=cmd_simulate)

    fcm_cmd = sub.add_parser("fcm", help="iterate a concept map to its attractor")
    fcm_cmd.add_argument(
        "--map",
        required=True,
        help="map file path or bundled name "
        f"({', '.join(fcm.bundled_map_names())})",
    )
    fcm_cmd.add_argument(
        "--initial", required=True, help="comma-separated initial node values"
    )
    fcm_cmd.add_argument(
        "--max-iter",
        type=int,
        default=200,
        help="most iterations to run, 1 to "
        f"{fcm.MAX_ITERATIONS_CAP} (default: %(default)s)",
    )
    fcm_cmd.add_argument("--tol", type=float, default=1e-6)
    fcm_cmd.add_argument(
        "--transform", choices=(fcm.BIVALENT, fcm.TRIVALENT, fcm.SIGMOID), default=None
    )
    fcm_cmd.add_argument("--c", type=float, default=None, help="sigmoid steepness")
    fcm_cmd.add_argument("--out", default=_default_out())
    fcm_cmd.set_defaults(func=cmd_fcm)

    net_cmd = sub.add_parser("goalnet", help="build a goal net from stories")
    net_cmd.add_argument("--stories", required=True, help="story corpus file")
    net_cmd.add_argument("--goals", required=True, help="high-level goals file")
    net_cmd.add_argument("--out", default=_default_out())
    net_cmd.set_defaults(func=cmd_goalnet)

    ingest_cmd = sub.add_parser("ingest", help="compute metrics from a sprint log")
    ingest_cmd.add_argument("--log", required=True, help="activity log CSV")
    ingest_cmd.add_argument(
        "--correlate",
        action="append",
        default=None,
        choices=[f"{x}:{y}" for x in _SERIES for y in _SERIES],
        metavar="X:Y",
        help="emit the correlation between two per-agent series (repeatable)",
    )
    ingest_cmd.add_argument("--out", default=_default_out())
    ingest_cmd.set_defaults(func=cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except core.InputError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing or unreadable input, unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except simulation.SimulationInvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
