"""Metered graph access through declared query plans.

A :class:`QueryPlan` fixes every query up front; :func:`answer_plan` resolves
the whole batch in one call. Because no answer exists before the last query is
declared, nothing downstream can steer later queries with earlier answers.
Two query kinds are supported, the only two the estimator issues: degree
lookup and uniform random edge (with replacement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import Graph

DEG, RAND_EDGE = 0, 1


class EmptyGraphError(RuntimeError):
    """Random-edge queries are unanswerable on a graph with no edges."""


@dataclass(frozen=True)
class PlanProvenance:
    """What a plan was derived from; plans are pure functions of this."""

    n: int
    epsilon: float | None
    seed: int


class QueryPlan:
    """Ordered, immutable query sequence stored columnar for batch answering.

    Equality compares the query sequence only, which is what a
    non-adaptivity audit needs; provenance is bookkeeping.
    """

    __slots__ = ("kinds", "arg_a", "arg_b", "provenance")

    def __init__(self, kinds: np.ndarray, arg_a: np.ndarray, arg_b: np.ndarray, provenance: PlanProvenance):
        if not (len(kinds) == len(arg_a) == len(arg_b)):
            raise ValueError("plan columns must have equal length")
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.arg_a = np.ascontiguousarray(arg_a, dtype=np.int64)
        self.arg_b = np.ascontiguousarray(arg_b, dtype=np.int64)
        self.provenance = provenance
        for arr in (self.kinds, self.arg_a, self.arg_b):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryPlan):
            return NotImplemented
        return (
            np.array_equal(self.kinds, other.kinds)
            and np.array_equal(self.arg_a, other.arg_a)
            and np.array_equal(self.arg_b, other.arg_b)
        )

    def counts(self) -> dict[str, int]:
        return {
            "deg": int(np.count_nonzero(self.kinds == DEG)),
            "rand_edge": int(np.count_nonzero(self.kinds == RAND_EDGE)),
        }


Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def deg_block(vertices: np.ndarray) -> Block:
    vertices = np.asarray(vertices, dtype=np.int64)
    count = vertices.shape[0]
    return np.full(count, DEG, np.uint8), vertices, np.full(count, -1, np.int64)


def rand_edge_block(count: int) -> Block:
    return np.full(count, RAND_EDGE, np.uint8), np.full(count, -1, np.int64), np.full(count, -1, np.int64)


def plan_from_blocks(provenance: PlanProvenance, *blocks: Block) -> QueryPlan:
    kinds = np.concatenate([b[0] for b in blocks]) if blocks else np.empty(0, np.uint8)
    arg_a = np.concatenate([b[1] for b in blocks]) if blocks else np.empty(0, np.int64)
    arg_b = np.concatenate([b[2] for b in blocks]) if blocks else np.empty(0, np.int64)
    return QueryPlan(kinds, arg_a, arg_b, provenance)


@dataclass
class QueryLedger:
    """Running per-kind query tally; counts only ever grow."""

    deg: int = 0
    rand_edge: int = 0

    @property
    def total(self) -> int:
        return self.deg + self.rand_edge

    def record(self, kinds: np.ndarray) -> None:
        self.deg += int(np.count_nonzero(kinds == DEG))
        self.rand_edge += int(np.count_nonzero(kinds == RAND_EDGE))

    def snapshot(self) -> "QueryLedger":
        return QueryLedger(self.deg, self.rand_edge)

    def as_dict(self) -> dict[str, int]:
        return {"deg": self.deg, "rand_edge": self.rand_edge}


@dataclass(frozen=True)
class Transcript:
    """A plan plus positionally aligned answers.

    Answer columns by kind: degree lookups put the degree in ``ans_a`` and
    ``-1`` in ``ans_b``; random edges fill ``ans_a``/``ans_b`` with the stored
    ``u < v`` endpoint order.
    """

    plan: QueryPlan
    ans_a: np.ndarray
    ans_b: np.ndarray
    answer_seed: int
    ledger: QueryLedger


def _validate_plan(graph: Graph, plan: QueryPlan) -> None:
    if plan.provenance.n != graph.n:
        raise ValueError(f"plan was built for n={plan.provenance.n}, graph has n={graph.n}")
    kinds, a = plan.kinds, plan.arg_a
    unknown = kinds > RAND_EDGE
    if unknown.any():
        pos = int(np.flatnonzero(unknown)[0])
        raise ValueError(f"query {pos} has unknown kind {int(kinds[pos])}; only DEG and RAND_EDGE are answered")
    bad = (kinds == DEG) & ((a < 0) | (a >= graph.n))
    if bad.any():
        pos = int(np.flatnonzero(bad)[0])
        raise ValueError(f"query {pos} (Deg({int(a[pos])})) has invalid arguments")


def answer_plan(graph: Graph, plan: QueryPlan, answer_seed: int, ledger: QueryLedger | None = None) -> Transcript:
    """Answer every query in ``plan`` against ``graph`` in one batch.

    Random-edge draws are i.i.d. uniform over the edge set, driven solely by
    ``answer_seed``. The ledger (fresh unless one is passed in to accumulate a
    session) grows by exactly the plan's per-kind multiplicities; a plan
    containing random-edge queries fails atomically on an edgeless graph,
    before anything is metered.
    """
    _validate_plan(graph, plan)
    kinds = plan.kinds
    rand_mask = kinds == RAND_EDGE
    n_rand = int(np.count_nonzero(rand_mask))
    if n_rand and graph.m == 0:
        raise EmptyGraphError("graph has no edges; random-edge queries cannot be answered")

    # every degree argument is in range (validated above); the rand-edge rows
    # carry -1, which the clip maps to a real vertex, and are overwritten below
    ans_a = graph.degrees.take(plan.arg_a, mode="clip").astype(np.int64, copy=False)
    ans_b = np.full(len(plan), -1, dtype=np.int64)

    if n_rand:
        rng = np.random.default_rng(answer_seed)
        idx = rng.integers(0, graph.m, size=n_rand)
        ans_a[rand_mask] = graph.edges[idx, 0]
        ans_b[rand_mask] = graph.edges[idx, 1]

    if ledger is None:
        ledger = QueryLedger()
    ledger.record(kinds)
    return Transcript(plan=plan, ans_a=ans_a, ans_b=ans_b, answer_seed=answer_seed, ledger=ledger)


PlanFn = Callable[[Graph, float, int], QueryPlan]


def audit_nonadaptive(plan_fn: PlanFn, graphs: Sequence[Graph], epsilon: float, seed: int) -> bool:
    """True iff ``plan_fn`` emits one identical query sequence for every graph.

    ``plan_fn`` receives each graph so that adaptive cheaters (plans shaped by
    edges or degrees) are expressible and get caught; a compliant planner uses
    nothing beyond ``graph.n``, ``epsilon`` and ``seed``. All graphs must share
    the same vertex count, otherwise the comparison is meaningless.
    """
    graphs = list(graphs)
    if len({g.n for g in graphs}) > 1:
        raise ValueError("audit requires graphs with identical vertex counts")
    plans = [plan_fn(g, epsilon, seed) for g in graphs]
    return all(p == plans[0] for p in plans[1:])
