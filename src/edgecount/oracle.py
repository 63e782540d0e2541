"""Metered graph access: degree lookups and uniform random edges, with replacement.

These are the only two query kinds the estimator issues, and each has one
metered primitive: :func:`answer_degree_codes`, which answers degrees as
codes of a :class:`~edgecount.graph.DegreeCodes` table, such as the
``graph.degree_codes`` each graph builds once, and :func:`answer_rand_edge_ids`,
which draws edges as positions in ``graph.edges``. Only ``graph.py`` reads a
code's bits; :func:`answer_degrees` decodes the answers into plain degrees
with :meth:`~edgecount.graph.DegreeCodes.decoded`. Callers that only compare
edges (the collision counts, the lower-bound distinguisher) read positions,
as uint32 keys while ``m <= 2**32``, and the estimator gathers the endpoints
it draws from them; :func:`answer_rand_edges` gathers rows for
:func:`answer_plan`. A :class:`QueryPlan` fixes every
query up front, degree probes first, and :func:`answer_plan` answers it
whole for audits; callers may feed the primitives block by block instead,
from a stream fixed before any answer, so no answer steers a later query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import DegreeCodes, Graph, checked_int, checked_vector, frozen, top_value

# kind codes of the columnar views
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
    """Degree probes of ``deg_vertices``, in order, then ``n_rand`` random edges.

    Probed vertices are refused as :func:`answer_degree_codes` refuses them,
    at ``n = provenance.n``, and kept as :func:`~edgecount.graph.frozen` gives them. Equality compares the query sequence only, which
    is what a non-adaptivity audit needs; provenance is bookkeeping. The three
    columnar properties give one row per query, built on each access.
    """

    __slots__ = ("deg_vertices", "n_rand", "provenance")

    def __init__(self, deg_vertices: np.ndarray, n_rand: int, provenance: PlanProvenance):
        n_rand = checked_int(n_rand, "random-edge count")
        if n_rand < 0:
            raise ValueError("random-edge count must be non-negative")
        self.deg_vertices = frozen(_checked_probes(deg_vertices, provenance.n, "degree-probe vertices"))
        self.n_rand = n_rand
        self.provenance = provenance

    def __len__(self) -> int:
        return int(self.deg_vertices.shape[0]) + self.n_rand

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryPlan):
            return NotImplemented
        return self.n_rand == other.n_rand and np.array_equal(self.deg_vertices, other.deg_vertices)

    def counts(self) -> dict[str, int]:
        return {"deg": int(self.deg_vertices.shape[0]), "rand_edge": self.n_rand}

    @property
    def kinds(self) -> np.ndarray:
        return np.repeat(np.array([DEG, RAND_EDGE], np.uint8), [self.deg_vertices.shape[0], self.n_rand])

    @property
    def arg_a(self) -> np.ndarray:
        return np.concatenate((self.deg_vertices, np.full(self.n_rand, -1, np.int64)))

    @property
    def arg_b(self) -> np.ndarray:
        return np.full(len(self), -1, np.int64)


Block = tuple[np.ndarray, int]


def rand_edge_block(count: int) -> Block:
    return np.empty(0, np.int64), count


def plan_from_blocks(provenance: PlanProvenance, *blocks: Block) -> QueryPlan:
    """Join ``(vertices, count)`` blocks into one plan; every degree probe must precede every random edge."""
    rand_seen = False
    for vertices, count in blocks:
        if count < 0:
            raise ValueError("random-edge count must be non-negative")
        if rand_seen and len(vertices):
            raise ValueError("a degree block cannot follow a random-edge block")
        rand_seen = rand_seen or count > 0
    vertices = np.concatenate([b[0] for b in blocks]) if blocks else np.empty(0, np.int64)
    return QueryPlan(vertices, sum(b[1] for b in blocks), provenance)


@dataclass
class QueryLedger:
    """Running per-kind query tally; counts only ever grow."""

    deg: int = 0
    rand_edge: int = 0

    @property
    def total(self) -> int:
        return self.deg + self.rand_edge

    def as_dict(self) -> dict[str, int]:
        return {"deg": self.deg, "rand_edge": self.rand_edge}


@dataclass(frozen=True)
class Transcript:
    """A plan plus its answers, block by block.

    ``degrees[i]`` is the degree of ``plan.deg_vertices[i]``; row ``j`` of the
    ``(n_rand, 2)`` array ``edges`` is random edge ``j`` in its stored
    ``u < v`` order. The two columnar properties, built on each access,
    answer a degree probe with ``(degree, -1)`` and a random edge with its row.
    """

    plan: QueryPlan
    degrees: np.ndarray
    edges: np.ndarray
    answer_seed: int
    ledger: QueryLedger

    @property
    def ans_a(self) -> np.ndarray:
        return np.concatenate((self.degrees, self.edges[:, 0]))

    @property
    def ans_b(self) -> np.ndarray:
        return np.concatenate((np.full(self.degrees.shape[0], -1, np.int64), self.edges[:, 1]))


def _checked_probes(vertices: np.ndarray, n: int, what: str) -> np.ndarray:
    """1-d degree-probe ``vertices`` as contiguous int64 ids; one outside ``0..n-1`` is named with its position."""
    v = checked_vector(vertices, None, what)
    if v.size and top_value(v) >= n:
        pos = int(np.flatnonzero((v < 0) | (v >= n))[0])
        raise ValueError(f"query {pos} (Deg({int(v[pos])})) has invalid arguments")
    return np.ascontiguousarray(v, np.int64)


def answer_degree_codes(table: DegreeCodes, vertices: np.ndarray, ledger: QueryLedger) -> np.ndarray:
    """Answer ``Deg(v)`` for each of ``vertices``, in order, as :meth:`DegreeCodes.gather` of ``table``.

    Vertices that are not a 1-d array of integers, or one outside ``0..n-1``,
    named by its position, raise ``ValueError`` before anything is metered; otherwise
    ``ledger.deg`` grows by the probe count. The codes may carry the marks of
    any marking, which :meth:`~DegreeCodes.decoded` and :meth:`~DegreeCodes.fold` drop.
    """
    v = _checked_probes(vertices, table.n, "vertices")
    ledger.deg += int(v.shape[0])
    return table.gather(v)


def answer_degrees(graph: Graph, vertices: np.ndarray, ledger: QueryLedger) -> np.ndarray:
    """:func:`answer_degree_codes` on ``graph.degree_codes``, decoded to int64 degrees, so any marks are shifted away."""
    return DegreeCodes.decoded(answer_degree_codes(graph.degree_codes, vertices, ledger)).astype(np.int64)


def answer_rand_edge_ids(graph: Graph, rng: np.random.Generator, count: int, ledger: QueryLedger) -> np.ndarray:
    """Answer ``count`` random-edge queries as positions in ``graph.edges``, uint32 while ``m <= 2**32``, else int64.

    A :class:`~edgecount.graph.Graph` checks that its rows are distinct when
    it is built, so equal positions are equal edges and repeats can be
    counted on the positions alone. The positions are i.i.d. uniform over
    ``0..m-1``, drawn from ``rng`` alone, so consecutive calls on one
    generator give the same positions as one call for their total. numpy
    draws a range of at most ``2**32`` from the same 32-bit stream at either
    dtype, so the uint32 keys equal the int64 draws and leave ``rng`` in the
    same state. Any draw on an edgeless graph raises :class:`EmptyGraphError`
    before anything is metered; otherwise ``ledger.rand_edge`` grows by ``count``.
    """
    if count and graph.m == 0:
        raise EmptyGraphError("graph has no edges; random-edge queries cannot be answered")
    ids = rng.integers(0, graph.m, size=count, dtype=np.uint32 if graph.m <= 2**32 else np.int64)
    ledger.rand_edge += count
    return ids


def answer_rand_edges(graph: Graph, rng: np.random.Generator, count: int, ledger: QueryLedger) -> np.ndarray:
    """:func:`answer_rand_edge_ids` as a ``(count, 2)`` array of the stored ``u < v`` rows."""
    return graph.edges.take(answer_rand_edge_ids(graph, rng, count, ledger), axis=0)


def answer_plan(graph: Graph, plan: QueryPlan, answer_seed: int, ledger: QueryLedger | None = None) -> Transcript:
    """Answer every query in ``plan`` against ``graph`` in one batch.

    Composes :func:`answer_degrees` and :func:`answer_rand_edges`, the
    random edges drawn from a generator seeded with ``answer_seed``. The
    ledger (fresh unless one is passed in to accumulate a session) grows by
    exactly the plan's per-kind multiplicities; an invalid plan, or one with
    random-edge queries on an edgeless graph, fails before anything is
    metered.
    """
    if plan.provenance.n != graph.n:
        raise ValueError(f"plan was built for n={plan.provenance.n}, graph has n={graph.n}")
    ledger = QueryLedger() if ledger is None else ledger
    # the probes were checked at n: only the random edges can fail, so they go first
    edges = answer_rand_edges(graph, np.random.default_rng(answer_seed), plan.n_rand, ledger)
    degrees = answer_degrees(graph, plan.deg_vertices, ledger)
    return Transcript(plan=plan, degrees=degrees, edges=edges, answer_seed=answer_seed, ledger=ledger)


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
