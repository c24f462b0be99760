"""Steadiness report: run workloads repeatedly and summarise each metric.

    python3 perfbench/steady.py                       # every workload, one run each
    python3 perfbench/steady.py --runs 10 --passes 2  # what an acceptance check does

Each run is `run.py`, measuring for the `run_seconds` of BENCHMARK.json,
with its own seed: 0 to N-1 in the first pass, N to 2N-1 in the second,
and so on. Within a pass the runs of one workload follow each other.
For every end-to-end metric (or per-layer metric with `--trace 1`) the
report prints the median and quartiles over the runs of the first pass
and the spread of each pass, the distance between the quartiles as a
share of the median, next to the metric's bound in BENCHMARK.json. With
two passes it also prints how far the second median moved from the
first. `fail_frac` and
`agent_days_per_s` are printed too but not gated: the first is 0 on
correct code, the second a function of `wall_s`. The number
of CPUs, the Python version, the git revision and the load average are
recorded with the results in `.perfbench/steady.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run as bench

REPORTED = {"fail_frac": "ratio", "agent_days_per_s": "1/s"}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = bench.ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["report"] = json.loads(saved.read_text(encoding="utf-8"))["report"]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and pass")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    passes = []
    for index in range(args.passes):
        runs = {w: [] for w in bench.WORKLOADS}
        for workload in bench.WORKLOADS:
            for seed in range(index * args.runs, (index + 1) * args.runs):
                result = one_run(workload, seed, seconds, args.trace)
                runs[workload].append(result)
                print(f"pass {index + 1} seed {seed} {workload}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"bodies={result['report']['bodies']} "
                      f"load={result['report']['environment']['loadavg'][0]:.2f}", flush=True)
        passes.append(runs)

    table = {}
    print(f"\n{'workload':9s} {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}" + ("  drift" if args.passes > 1 else ""))
    for workload in bench.WORKLOADS:
        first = passes[0][workload]
        names = list(first[0]["metrics"]) + [n for n in REPORTED if first[0]["report"].get(n) is not None]
        for name in names:
            per_pass = []
            for runs in passes:
                if name in REPORTED:
                    values = [r["report"][name] for r in runs[workload]]
                    unit = REPORTED[name]
                else:
                    values = [r["metrics"][name]["value"] for r in runs[workload]]
                    unit = runs[workload][0]["metrics"][name]["unit"]
                per_pass.append(summary(values))
            s = per_pass[0]
            bound = bounds.get(name) if not args.trace else None
            spreads = "/".join(f"{p['spread']:.3f}" for p in per_pass)
            line = (f"{workload:9s} {name:40s} {unit:6s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                    f"{spreads:>7s} {bound if bound is not None else '-':>6}")
            if args.passes > 1:
                base, last = per_pass[0]["median"], per_pass[-1]["median"]
                line += f"  {(last - base) / base if base else float('nan'):+.3f}"
            print(line)
            table.setdefault(workload, {})[name] = {"unit": unit, "passes": per_pass, "bound": bound}
    environment = bench.environment()
    print(json.dumps(environment))
    out = bench.ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": args.runs, "passes": args.passes,
                               "trace": args.trace, "environment": environment, "metrics": table},
                              indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
