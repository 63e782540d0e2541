#!/usr/bin/env python3
"""edgecount benchmark: one workload, one closed-loop client, one thread.

    python3 perfbench/run.py --workload trials_gate --seed 1 --seconds 10 --trace 0

Imports edgecount from ``src/`` of the checkout this file sits in. The seed
picks the estimator seed of every timed operation; the graphs and the
accuracy set are fixed per workload (see README.md). Every operation's output
is checked. The last stdout line is the result object; the line before it is
a detail record (environment stamp, ``m_hat`` digests, sample counts). With
``--trace 1`` the run replays each operation stage by stage, prints the
per-layer metrics instead of the end-to-end ones and writes its spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import edgecount
    from edgecount import cli
    from edgecount.estimator import (
        BRANCH_COLLISION,
        BRANCH_FAILED,
        BRANCH_NON_COLLISION,
        BRANCH_ZERO_EDGES,
        EstimatorParams,
        estimate_edges,
        plan_layout,
    )
    from edgecount.generators import gen_gnm
    from edgecount.graph import write_edge_list
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import edgecount from {SRC}: {exc}") from None
if not Path(edgecount.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: edgecount was imported from {edgecount.__file__}, not from {SRC}")

try:
    import tracing  # perfbench/tracing.py; it needs edgecount's stage functions
except ImportError as exc:  # the untraced run does not need it
    tracing = None
    TRACING_IMPORT_ERROR = str(exc)

EPSILON = 0.25
GRAPH_SEED = 0
BRANCHES = {BRANCH_COLLISION, BRANCH_NON_COLLISION, BRANCH_ZERO_EDGES, BRANCH_FAILED}

# (name, unit, better); every untraced run emits all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_mem_mb", "MB", "lower"),
    ("queries_per_op", "count", "lower"),
    ("plan_per_n", "ratio", "lower"),
    ("rel_err_p50", "ratio", "lower"),
    ("rel_err_max", "ratio", "lower"),
    ("within_eps_rate", "ratio", "higher"),
    ("ok_frac", "ratio", "higher"),
)

# (name, unit, better); every traced run emits all of them.
LAYER_METRICS = (
    ("cli.main_ms", "ms", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("graph.read_edge_list_ms", "ms", "lower"),
    ("graph.parse_ms", "ms", "lower"),
    ("graph.build_graph_ms", "ms", "lower"),
    ("graph.read_mb_per_s", "MB/s", "higher"),
    ("graph.write_edge_list_ms", "ms", "lower"),
    ("graph.write_mb_per_s", "MB/s", "higher"),
    ("generators.gen_gnm_ms", "ms", "lower"),
    ("generators.edges_out", "count", "higher"),
    ("estimator.estimate_edges_ms", "ms", "lower"),
    ("estimator.build_sample_plan_ms", "ms", "lower"),
    ("estimator.plan_queries", "count", "lower"),
    ("estimator.collision_majority_vote_ms", "ms", "lower"),
    ("estimator.vote_rounds", "count", "lower"),
    ("estimator.vote_hits", "count", "lower"),
    ("estimator.count_collisions_ms", "ms", "lower"),
    ("estimator.collisions", "count", "higher"),
    ("estimator.classify_heavy_ms", "ms", "lower"),
    ("estimator.heavy_mass_estimate_ms", "ms", "lower"),
    ("estimator.choose_endpoints_ms", "ms", "lower"),
    ("estimator.heavy_fraction_estimate_ms", "ms", "lower"),
    ("estimator.heavy_buckets", "count", "lower"),
    ("estimator.zero_degree_probes", "count", "lower"),
    ("estimator.unattributed_ms", "ms", "lower"),
    ("oracle.answer_plan_ms", "ms", "lower"),
    ("oracle.ns_per_query", "ns", "lower"),
    ("oracle.queries_deg", "count", "lower"),
    ("oracle.queries_rand_edge", "count", "lower"),
    ("oracle.queries_nbr", "count", "lower"),
    ("oracle.queries_pair", "count", "lower"),
    ("oracle.transcript_mb", "MB", "lower"),
    ("buckets.bucket_config_ms", "ms", "lower"),
    ("buckets.bucket_indices_ms", "ms", "lower"),
    ("buckets.t", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # the workload graph is gnm:n,m
    m: int
    accuracy_ops: int  # size of the fixed accuracy set
    setup_reps: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        # acceptance-criterion graph: dense branch, plan of 7.4 n, per-query and per-call cost
        Workload("trials_gate", 10_000, 100_000, accuracy_ops=200, setup_reps=9),
        # sparse collision branch at large n, plan of 1.1 n: length-n arrays and oracle gathers
        Workload("trials_large", 1_000_000, 500_000, accuracy_ops=50),
    )
}


def derive(seed: int, label: str) -> int:
    """Stable 63-bit seed for one labelled input of a run."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Outcome:
    m_hat: float | None
    branch: str | None
    queries: int | None
    text: str  # serialized output, compared byte for byte on the repeat
    problem: str | None = None


class Bench:
    """One run of one workload: set-up, operations, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.expected_queries = plan_layout(workload.n, self.params(0)).total
        self.attempted = 0
        self.failed: dict[str, str] = {}  # operation id -> first problem seen
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.path = self.work / "G.txt"
        self.graph = None
        self.tracer = None

    def close(self) -> None:
        for path in self.work.iterdir():
            path.unlink()
        self.work.rmdir()

    # -- operations and their checks ----------------------------------------

    @staticmethod
    def params(master_seed: int) -> EstimatorParams:
        return EstimatorParams(epsilon=EPSILON, master_seed=master_seed)

    @staticmethod
    def run_cli(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def estimate_argv(self, master_seed: int) -> list[str]:
        return ["estimate", "--file", str(self.path), "--eps", str(EPSILON), "--seed", str(master_seed)]

    def estimate(self, master_seed: int) -> Outcome:
        """One operation of the workload, checked."""
        report = estimate_edges(self.graph, self.params(master_seed))
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        return self.check(report.m_hat, report.branch, report.queries.total, text)

    def check_cli(self, code: int, out: str) -> Outcome:
        if code != 0:
            return Outcome(None, None, None, out, f"cli exit code {code}")
        try:
            payload = json.loads(out)
            return self.check(payload["m_hat"], payload["branch"], sum(payload["queries"].values()), out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return Outcome(None, None, None, out, f"cli output does not parse: {exc!r}")

    def check(self, m_hat, branch, queries: int, text: str) -> Outcome:
        problem = None
        if branch not in BRANCHES:
            problem = f"unknown branch {branch!r}"
        elif branch == BRANCH_FAILED or m_hat is None:
            problem = "estimate failed"
        elif queries != self.expected_queries:
            problem = f"ledger total {queries} != plan_layout total {self.expected_queries}"
        return Outcome(m_hat, branch, queries, text, problem)

    def attempt(self, op_id: str, fn, *args) -> tuple[Outcome | None, float]:
        """Run and time one operation; a raise or a failed check marks it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = fn(*args)
        except Exception as exc:  # the loop goes on; the failure is counted
            if tracing is not None and isinstance(exc, tracing.TraceUnavailable):
                raise
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.fail(op_id, "raised")
            return None, elapsed
        elapsed = time.perf_counter() - start
        if outcome.problem:
            self.fail(op_id, outcome.problem)
        return outcome, elapsed

    def fail(self, op_id: str, problem: str) -> None:
        print(f"perfbench: {self.w.name} {op_id}: {problem}", file=sys.stderr)
        self.failed.setdefault(op_id, problem)

    def timed_loop(self, body) -> tuple[int, float]:
        """Closed loop: ``body(i)`` for i = 0, 1, ... until ``seconds`` have passed."""
        start = time.perf_counter()
        deadline = start + self.seconds
        i = 0
        while True:
            body(i)
            i += 1
            if time.perf_counter() >= deadline:
                return i, time.perf_counter() - start

    # -- set-up -------------------------------------------------------------

    def setup_once(self) -> None:
        self.graph = gen_gnm(self.w.n, self.w.m, GRAPH_SEED)

    def check_graph(self) -> None:
        if (self.graph.n, self.graph.m) != (self.w.n, self.w.m):
            raise RuntimeError(f"set-up built n={self.graph.n} m={self.graph.m}, expected gnm:{self.w.n},{self.w.m}")

    # -- the untraced run: end-to-end metrics -------------------------------

    def run_untraced(self) -> tuple[dict[str, float], dict[str, object]]:
        setup_times = []
        for _ in range(self.w.setup_reps):
            start = time.perf_counter()
            self.setup_once()
            setup_times.append(time.perf_counter() - start)
        self.check_graph()
        # The accuracy set runs first and doubles as the warm-up of the estimator.
        accuracy = [
            self.attempt(f"accuracy:{j}", self.estimate, derive(GRAPH_SEED, f"accuracy:{j}"))[0]
            for j in range(self.w.accuracy_ops)
        ]

        outcomes: list[Outcome | None] = []
        durations: list[float] = []

        def body(i: int) -> None:
            outcome, elapsed = self.attempt(f"op:{i}", self.estimate, derive(self.seed, f"op:{i}"))
            outcomes.append(outcome)
            durations.append(elapsed)

        count, wall = self.timed_loop(body)

        # the first operation once more, untimed, under tracemalloc
        tracemalloc.start()
        try:
            repeat, _ = self.attempt("repeat:op:0", self.estimate, derive(self.seed, "op:0"))
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        first = outcomes[0]
        if first is not None and repeat is not None and repeat.text != first.text:
            self.fail("op:0", "the repeated first operation printed different output")

        # a failed estimate counts as 100 % off
        errors = [1.0 if o is None or o.m_hat is None else abs(o.m_hat - self.w.m) / self.w.m for o in accuracy]
        queries = [o.queries for o in outcomes if o is not None and o.queries is not None]
        ms = sorted(1e3 * d for d in durations)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0],
            "ops_per_s": count / wall,
            "peak_mem_mb": peak_bytes / 1e6,
            "queries_per_op": statistics.fmean(queries) if queries else 0.0,
            "plan_per_n": self.expected_queries / self.w.n,
            "rel_err_p50": statistics.median(errors),
            "rel_err_max": max(errors),
            "within_eps_rate": sum(e <= EPSILON for e in errors) / len(errors),
            "ok_frac": 1.0 - len(self.failed) / self.attempted,
        }
        detail = {
            "timed_ops": count,
            "timed_digest": digest([o.m_hat if o else None for o in outcomes]),
            "accuracy_ops": len(accuracy),
            "accuracy_digest": digest([o.m_hat if o else None for o in accuracy]),
            "setup_s_all": setup_times,
            "failed_frac": len(self.failed) / self.attempted,
        }
        return metrics, detail

    # -- the traced run: per-layer metrics ----------------------------------

    def run_traced(self) -> tuple[dict[str, float], dict[str, object]]:
        self.tracer = tracer = tracing.Tracer()
        tracer.op = "setup"
        with tracer.span("setup"):
            with tracer.interpose((edgecount.generators, "build_graph", "graph.build_graph")):
                with tracer.span("generators.gen_gnm"):
                    self.setup_once()
        self.check_graph()
        self.attempt("roundtrip", self.roundtrip)

        op_times: dict[str, dict[str, float]] = {}
        replay_counts: list[dict[str, float]] = []

        def body(i: int) -> None:
            op_id = f"op:{i}"
            self.attempt(op_id, self.traced_op, op_id, derive(self.seed, op_id), op_times, replay_counts)

        count, _ = self.timed_loop(body)
        tracer.op = None
        if not op_times:
            raise tracing.TraceUnavailable("no operation completed its replay")
        metrics = tracing.layer_metrics(tracer, op_times, replay_counts, self.path.stat().st_size, self.graph.m)
        return metrics, {"traced_ops": count}

    def roundtrip(self) -> Outcome:
        """Write the graph and estimate the file through the CLI once, so the
        file and CLI layers are measured on the workload graph too."""
        tracer = self.tracer
        tracer.op = "roundtrip"
        with tracer.span("graph.write_edge_list"):
            write_edge_list(self.graph, self.path)
        master_seed = derive(self.seed, "roundtrip")
        with tracer.interpose(*tracing.CLI_ESTIMATE_TARGETS), tracer.span("cli.main"):
            code, out = self.run_cli(self.estimate_argv(master_seed))
        outcome = self.check_cli(code, out)
        direct = self.estimate(master_seed)
        if not outcome.problem and (outcome.m_hat, outcome.branch) != (direct.m_hat, direct.branch):
            outcome.problem = "cli estimate of the written file differs from estimate_edges"
        return outcome

    def traced_op(self, op_id, master_seed, op_times, replay_counts) -> Outcome:
        """The operation untraced, then its traced stage-by-stage replay,
        which must reproduce estimate_edges's m_hat and branch."""
        tracer = self.tracer
        tracer.op = None
        start = time.perf_counter()
        outcome = self.estimate(master_seed)
        untraced = time.perf_counter() - start
        if outcome.problem:
            return outcome
        tracer.op = op_id
        try:
            replay = tracing.replay_estimate(tracer, self.graph, self.params(master_seed))
        except Exception as exc:  # the program changed under the replay
            raise tracing.TraceUnavailable(f"tracing {op_id} raised {exc!r}") from exc
        traced = next(s.seconds for s in tracer.spans if s.op == op_id and s.name == "estimator.replay")
        if (replay.m_hat, replay.branch) != (outcome.m_hat, outcome.branch):
            outcome.problem = f"replay gave {replay.branch} {replay.m_hat}, estimate_edges {outcome.branch} {outcome.m_hat}"
            return outcome
        op_times[op_id] = {"untraced": untraced, "traced": traced}
        replay_counts.append(replay.counts)
        return outcome


def digest(m_hats: list[float | None]) -> str:
    return hashlib.sha256(json.dumps(m_hats).encode()).hexdigest()[:16]


def environment() -> dict[str, object]:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the detail record."""
    OUT.mkdir(exist_ok=True)
    bench = Bench(workload, seed, seconds)
    try:
        if not traced:
            table = END_TO_END
            values, detail = bench.run_untraced()
        else:
            # if a refactor broke the trace, the layer metrics are reported missing
            table = LAYER_METRICS
            if tracing is None:
                values, detail = {}, {"trace_unavailable": TRACING_IMPORT_ERROR}
            else:
                try:
                    values, detail = bench.run_traced()
                except tracing.TraceUnavailable as exc:
                    traceback.print_exc()
                    values, detail = {}, {"trace_unavailable": str(exc)}
    finally:
        bench.close()
    detail.update(
        workload=workload.name,
        graph=f"gnm:{workload.n},{workload.m}",
        seed=seed,
        seconds=seconds,
        trace=int(traced),
        attempted=bench.attempted,
        problems=bench.failed,
        environment=environment(),
    )
    if bench.tracer is not None:
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        spans_path.write_text(json.dumps({"detail": detail, "metrics": values, "spans": bench.tracer.as_json()}))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    missing = [name for name, _, _ in table if name not in values]
    if missing:
        detail["missing_metrics"] = missing
    result = {
        "correct": not bench.failed,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in table if name in values},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
