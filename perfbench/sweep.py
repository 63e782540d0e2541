#!/usr/bin/env python3
"""Repeat the benchmark over seeds and judge its spread against BENCHMARK.json.

    python3 perfbench/sweep.py run --seeds 1-10 --out perfbench/results/set1.jsonl
    python3 perfbench/sweep.py summary perfbench/results/set1.jsonl [perfbench/results/set2.jsonl]

``run`` calls run.py once per (workload, seed), one at a time, and appends
each run's detail record and result object as one JSON line. ``summary``
prints, per workload and end-to-end metric, the median and quartiles over the
runs and their spread (quartile distance over median), flagging a spread over
a third of the bound (``~``) or over the bound (``!``). Given a second file it
also prints how much worse the second median is, flagging excess over the
bound (``!``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            record = {**json.loads(lines[-2]), "result": json.loads(lines[-1]), "wall_s": wall}
            with out.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            result = record["result"]
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} failed={result['failed']}/{result['attempted']}")
    return 0


def table(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        for name, metric in record["result"]["metrics"].items():
            values.setdefault((record["detail"]["workload"], name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_summary(args: argparse.Namespace) -> int:
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    first = table(args.first)
    second = table(args.second) if args.second else {}
    print(f"{'workload':18} {'metric':16} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  {'bound':>6} {'worse':>7}")
    for (workload, name), values in sorted(first.items()):
        spec = metrics.get(name)
        if spec is None or len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        s = spread(values) if med else 0.0
        flag = "!" if s > spec["bound"] else "~" if s > spec["bound"] / 3 else " "
        worse = ""
        if (workload, name) in second:
            other = statistics.median(second[(workload, name)])
            change = (other - med) / med if med else 0.0
            change = change if spec["better"] == "lower" else -change
            worse = f"{change:+7.3f}{'!' if change > spec['bound'] else ' '}"
        print(f"{workload:18} {name:16} {len(values):4} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f}{flag} {spec['bound']:6g} {worse}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    run.add_argument("--workloads", help="comma-separated; default every workload in BENCHMARK.json")
    run.add_argument("--seconds", type=float, help="default run_seconds from BENCHMARK.json")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True, help="JSON-lines file to append to")
    run.set_defaults(func=cmd_run)
    summary = sub.add_parser("summary")
    summary.add_argument("first")
    summary.add_argument("second", nargs="?")
    summary.set_defaults(func=cmd_summary)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
