"""Spans, call interposition and the stage-by-stage replay of ``estimate_edges``.

Everything here lives outside the program: spans are recorded around calls
into each module's public functions, either made directly by the benchmark
(the replay) or by temporarily replacing a module attribute that the program
looks up at call time (``interpose``). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

import edgecount.cli
import edgecount.graph
from edgecount.buckets import BucketConfig
from edgecount.estimator import (
    BRANCH_COLLISION,
    BRANCH_FAILED,
    BRANCH_NON_COLLISION,
    EstimatorParams,
    build_sample_plan,
    choose_endpoints,
    classify_heavy,
    collision_edge_estimate,
    collision_majority_vote,
    count_collisions,
    heavy_fraction_estimate,
    heavy_mass_estimate,
    plan_layout,
)
from edgecount.oracle import QueryLedger, answer_plan
from edgecount.seeding import derive_rng, derive_seed

# The stages of estimate_edges, in the order it runs them.
STAGES = (
    "estimator.build_sample_plan",
    "oracle.answer_plan",
    "estimator.collision_majority_vote",
    "estimator.count_collisions",
    "buckets.bucket_config",
    "estimator.classify_heavy",
    "estimator.heavy_mass_estimate",
    "estimator.choose_endpoints",
    "estimator.heavy_fraction_estimate",
)


class TraceUnavailable(RuntimeError):
    """The program no longer has a function or attribute the trace relies on."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: str | None  # operation id shared by every span of one operation

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), float("nan"), parent, self.op)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self, index: int) -> float:
        """Span duration minus the part its direct children cover."""
        children = sum(s.seconds for s in self.spans if s.parent == index)
        return self.spans[index].seconds - children

    @contextlib.contextmanager
    def interpose(self, *targets: tuple[object, str, str]):
        """Record a span named ``span_name`` around every call of
        ``module.attr`` while the block runs, then restore the originals."""
        saved = []
        try:
            for module, attr, span_name in targets:
                if not hasattr(module, attr):
                    raise TraceUnavailable(f"{module.__name__}.{attr} is gone")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, span_name: str):
        def traced(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)

        return traced

    def as_json(self) -> list[dict[str, object]]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


# Call sites the benchmark interposes on. Each entry is (module, attribute
# looked up at call time, span name).
CLI_ESTIMATE_TARGETS = (
    (edgecount.cli, "read_edge_list", "graph.read_edge_list"),
    (edgecount.graph, "build_graph", "graph.build_graph"),
    (edgecount.cli, "estimate_edges", "estimator.estimate_edges"),
)


@dataclass(frozen=True)
class Replay:
    """What the replay computed, for comparison with ``estimate_edges``."""

    m_hat: float | None
    branch: str
    counts: dict[str, float]


def replay_estimate(tracer: Tracer, graph, params: EstimatorParams) -> Replay:
    """Run the stages of ``estimate_edges`` one public call at a time.

    Mirrors ``estimate_edges`` on a graph with edges, including its seed
    labels, so the result must match it exactly.
    """
    n = graph.n
    with tracer.span("estimator.replay"):
        with tracer.span("estimator.build_sample_plan"):
            plan = build_sample_plan(n, params)
        layout = plan_layout(n, params)
        ledger = QueryLedger()
        with tracer.span("oracle.answer_plan"):
            transcript = answer_plan(graph, plan, derive_seed(params.master_seed, "oracle:answers"), ledger)
        ans_a, ans_b = transcript.ans_a, transcript.ans_b
        vote = layout.vote_slice
        with tracer.span("estimator.collision_majority_vote"):
            k = collision_majority_vote(ans_a[vote], ans_b[vote], layout.vote_rounds, layout.vote_batch)
        coll = layout.collision_slice
        size = layout.collision_size
        with tracer.span("estimator.count_collisions"):
            edges = np.column_stack((ans_a[coll], ans_b[coll]))
            reps = [count_collisions(edges[j * size : (j + 1) * size]) for j in range(layout.collision_reps)]
        r = sorted(reps)[len(reps) // 2]
        with tracer.span("buckets.bucket_config"):
            config = BucketConfig(n, params.gamma)
        degrees = ans_a[layout.degree_slice]
        with tracer.span("estimator.classify_heavy"):
            heavy = classify_heavy(degrees, config, params.epsilon)
        with tracer.span("estimator.heavy_mass_estimate"):
            mass = heavy_mass_estimate(heavy, config)
        endpoint = layout.endpoint_slice
        with tracer.span("estimator.choose_endpoints"):
            endpoints = choose_endpoints(
                ans_a[endpoint], ans_b[endpoint], derive_rng(params.master_seed, "estimate:endpoint-coins")
            )
        with tracer.span("estimator.heavy_fraction_estimate"):
            fraction = heavy_fraction_estimate(endpoints, plan.arg_a[layout.degree_slice], degrees, heavy, config)
        if r > 0 and k == 1:
            m_hat, branch = collision_edge_estimate(size, r), BRANCH_COLLISION
        elif fraction == 0.0:
            m_hat, branch = None, BRANCH_FAILED
        else:
            m_hat, branch = mass / (2.0 * fraction), BRANCH_NON_COLLISION

    # One direct call on the sample classify_heavy bucketed, outside the
    # replay span so it does not count as tracing overhead.
    with tracer.span("buckets.bucket_indices"):
        config.bucket_indices(degrees[degrees >= 1])

    vote_edges = np.column_stack((ans_a[vote], ans_b[vote]))
    batch = layout.vote_batch
    queries = ledger.as_dict()
    arrays = (plan.kinds, plan.arg_a, plan.arg_b, ans_a, ans_b)
    counts = {
        "estimator.plan_queries": len(plan),
        "estimator.vote_rounds": layout.vote_rounds,
        "estimator.vote_hits": sum(
            count_collisions(vote_edges[j * batch : (j + 1) * batch]) > 0 for j in range(layout.vote_rounds)
        ),
        "estimator.collisions": r,
        "estimator.heavy_buckets": len(heavy.indices),
        "estimator.zero_degree_probes": int((degrees == 0).sum()),
        "oracle.queries_deg": queries.get("deg", 0),
        "oracle.queries_rand_edge": queries.get("rand_edge", 0),
        # kinds the estimator never issues; 0 also once the oracle drops them
        "oracle.queries_nbr": queries.get("nbr", 0),
        "oracle.queries_pair": queries.get("pair", 0),
        "oracle.transcript_mb": sum(a.nbytes for a in arrays) / 1e6,  # computed from array sizes
        "buckets.t": config.t,
    }
    return Replay(m_hat=m_hat, branch=branch, counts=counts)


def _median(values: list[float]) -> float:
    if not values:
        raise TraceUnavailable("no span recorded for a required metric")
    return float(statistics.median(values))


def layer_metrics(
    tracer: Tracer,
    op_times: dict[str, dict[str, float]],
    replay_counts: list[dict[str, float]],
    file_bytes: int,
    edges_out: int,
) -> dict[str, float]:
    """Fold the spans of a traced run into the per-layer metrics.

    ``op_times`` maps each traced operation id to the ``untraced`` seconds
    of the ``estimate_edges`` call its replay reproduced and the ``traced``
    seconds of that replay.
    """
    spans = tracer.spans

    def durations(name: str) -> list[float]:
        return [s.seconds for s in spans if s.name == name]

    def self_times(name: str) -> list[float]:
        return [tracer.self_seconds(i) for i, s in enumerate(spans) if s.name == name]

    stages = {op: dict.fromkeys(STAGES, 0.0) for op in op_times}
    for s in spans:
        if s.op in stages and s.name in STAGES:
            stages[s.op][s.name] += s.seconds

    def stage_ms(name: str) -> float:
        return 1e3 * _median([per_op[name] for per_op in stages.values()])

    def op_median(key: str) -> float:
        return _median([times[key] for times in op_times.values()])

    reads = {i for i, s in enumerate(spans) if s.name == "graph.read_edge_list"}
    read_s = _median(durations("graph.read_edge_list"))
    write_s = _median(durations("graph.write_edge_list"))
    answer_ms = stage_ms("oracle.answer_plan")
    unattributed = [op_times[op]["untraced"] - sum(stages[op].values()) for op in op_times]
    out = {
        "cli.main_ms": 1e3 * _median(durations("cli.main")),
        "cli.overhead_ms": 1e3 * _median(self_times("cli.main")),
        "graph.read_edge_list_ms": 1e3 * read_s,
        "graph.parse_ms": 1e3 * _median(self_times("graph.read_edge_list")),
        "graph.build_graph_ms": 1e3
        * _median([s.seconds for s in spans if s.name == "graph.build_graph" and s.parent in reads]),
        "graph.read_mb_per_s": file_bytes / 1e6 / read_s,
        "graph.write_edge_list_ms": 1e3 * write_s,
        "graph.write_mb_per_s": file_bytes / 1e6 / write_s,
        "generators.gen_gnm_ms": 1e3 * _median(durations("generators.gen_gnm")),
        "generators.edges_out": edges_out,
        "estimator.estimate_edges_ms": 1e3 * op_median("untraced"),
        "estimator.build_sample_plan_ms": stage_ms("estimator.build_sample_plan"),
        "estimator.collision_majority_vote_ms": stage_ms("estimator.collision_majority_vote"),
        "estimator.count_collisions_ms": stage_ms("estimator.count_collisions"),
        "estimator.classify_heavy_ms": stage_ms("estimator.classify_heavy"),
        "estimator.heavy_mass_estimate_ms": stage_ms("estimator.heavy_mass_estimate"),
        "estimator.choose_endpoints_ms": stage_ms("estimator.choose_endpoints"),
        "estimator.heavy_fraction_estimate_ms": stage_ms("estimator.heavy_fraction_estimate"),
        "estimator.unattributed_ms": 1e3 * _median(unattributed),
        "oracle.answer_plan_ms": answer_ms,
        "buckets.bucket_config_ms": stage_ms("buckets.bucket_config"),
        "buckets.bucket_indices_ms": 1e3 * _median(durations("buckets.bucket_indices")),
        "trace.overhead_frac": op_median("traced") / op_median("untraced") - 1.0,
    }
    for name in replay_counts[0]:
        out[name] = _median([counts[name] for counts in replay_counts])
    out["oracle.ns_per_query"] = answer_ms * 1e6 / out["estimator.plan_queries"]
    return out
