"""Non-adaptive edge estimation from one up-front query plan.

The plan bundles four blocks: uniform vertex degree probes, random-edge draws
feeding the heavy-mass fraction, many small random-edge batches for the
sparse-regime collision vote, and one large random-edge sample for the
collision-count estimate. The plan is a pure function of ``(n, params)``, so
no query ever depends on an answer. :func:`build_sample_plan` and
:func:`~edgecount.oracle.answer_plan` give it and its transcript whole, for
audits; :func:`estimate_edges` draws, answers and folds the same queries
block by block and never holds either.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .buckets import BucketConfig, gamma_for
from .graph import MAX_VERTICES, DegreeCodes, Graph, checked_int, checked_ints, checked_vector, pair_codes, run_starts
from .oracle import (
    PlanProvenance,
    QueryLedger,
    QueryPlan,
    answer_degree_codes,
    answer_rand_edge_ids,
)
from .seeding import check_master_seed, derive_rng

BRANCH_COLLISION = "collision"
BRANCH_NON_COLLISION = "non_collision"
BRANCH_ZERO_EDGES = "zero_edges"
BRANCH_FAILED = "failed"

# Largest plan that plan_layout sizes. Its degree probes alone would fill
# 32 GiB as int64 vertices, so only misset constants ask for more.
MAX_PLAN_QUERIES = 2**32

# Radix of the row kernels' pair codes: their endpoints must lie below it.
_ROW_RADIX = 2**32

# Degree probes drawn, answered and folded at a time by estimate_edges: a
# chunk's int64 vertices take 512 KiB.
_DEGREE_CHUNK = 2**16

# Largest code of a uint8 degree-code table whose probes are tallied two
# codes at a time: the pair tally has 256 bins per code up to the table's
# top code, and above this it costs more than counting codes one at a time.
_PAIR_TOP_CODE = 63


@dataclass(frozen=True)
class EstimatorParams:
    """Accuracy target, seed, and the tunable sample-size constants.

    ``epsilon`` must lie in ``(0, 0.8]``; ``gamma``, the bucket growth rate,
    is set to ``epsilon / 10``. The ``c_*`` constants scale the four sample
    blocks; the defaults are calibrated for the acceptance targets at
    ``n = 10**4, epsilon = 0.25``. ``collision_reps`` > 1 switches the
    collision estimate to the median over that many independent samples.
    A real ``epsilon`` or ``c_*``, a numpy scalar too, is stored as a ``float``;
    a bool or any other value there raises ``TypeError`` naming the field.
    """

    epsilon: float
    master_seed: int = 0
    c_s: float = 2.0
    c_t: float = 2.0
    c_f: float = 2.0
    c_r: float = 5.0
    gamma: float = field(init=False)
    collision_reps: int = 1

    def __post_init__(self) -> None:
        for name in ("epsilon", "c_s", "c_t", "c_f", "c_r"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 0.0 < self.epsilon <= 0.8:
            raise ValueError("epsilon must be in (0, 0.8]")
        object.__setattr__(self, "master_seed", check_master_seed(self.master_seed))
        for name in ("c_s", "c_t", "c_f", "c_r"):
            # NaN compares false with everything, so it is caught here, not by "<= 0"
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        reps = checked_int(self.collision_reps, "collision_reps")
        if reps < 1:
            raise ValueError("collision_reps must be at least 1")
        object.__setattr__(self, "collision_reps", reps)
        object.__setattr__(self, "gamma", gamma_for(self.epsilon))


@dataclass(frozen=True)
class PlanLayout:
    """Block sizes and positions of the standard sample plan."""

    degree_size: int
    endpoint_size: int
    vote_rounds: int
    vote_batch: int
    collision_reps: int
    collision_size: int

    @property
    def vote_size(self) -> int:
        return self.vote_rounds * self.vote_batch

    @property
    def block_counts(self) -> tuple[int, int, int, int]:
        """Queries in the degree, endpoint, vote and collision blocks, in plan order."""
        return (self.degree_size, self.endpoint_size, self.vote_size, self.collision_reps * self.collision_size)

    @property
    def total(self) -> int:
        return sum(self.block_counts)

    def _slice(self, block: int) -> slice:
        start = sum(self.block_counts[:block])
        return slice(start, start + self.block_counts[block])

    @property
    def degree_slice(self) -> slice:
        return self._slice(0)

    @property
    def endpoint_slice(self) -> slice:
        return self._slice(1)

    @property
    def vote_slice(self) -> slice:
        return self._slice(2)

    @property
    def collision_slice(self) -> slice:
        return self._slice(3)


@dataclass(frozen=True)
class _Block:
    """A row of the sizing table: how one plan block is sized, and what its errors call it."""

    label: str  # the block, in the query-ceiling error
    inputs: tuple[str, ...]  # the parameters ``size`` reads
    size: Callable[[int, EstimatorParams], float]  # the sized count at n before rounding up
    unit: str = ""  # the sized count in the sizing error, when it is not the whole block
    repeats: tuple[str, ...] = ()  # the parameters counting copies of the sized count


# The sized blocks in plan order. The vote block is its rounds times a batch
# of ceil(sqrt(2n)) edges; the collision block is collision_reps samples.
_BLOCKS = (
    _Block("degree sample", ("c_s", "epsilon"), lambda n, p: p.c_s * math.sqrt(n) * math.log(n) / p.epsilon**2.5),
    _Block("endpoint sample", ("c_t", "epsilon"), lambda n, p: p.c_t * math.sqrt(p.epsilon * n) * math.log(n)),
    _Block("vote", ("c_r",), lambda n, p: p.c_r * math.log(n), unit="vote rounds"),
    _Block(
        "collision sample",
        ("c_f", "epsilon"),
        lambda n, p: p.c_f * math.sqrt(n) * math.log(n) / p.epsilon,
        repeats=("collision_reps",),
    ),
)


def _named(params: EstimatorParams, names: tuple[str, ...]) -> str:
    return ", ".join(f"{name}={getattr(params, name)}" for name in names)


def _block_size(n: int, params: EstimatorParams, block: _Block) -> int:
    """``block.size`` at ``n`` rounded up; a ``ValueError`` naming its inputs if that is no positive count."""
    try:
        count = math.ceil(block.size(n, params))
    except (OverflowError, ZeroDivisionError):  # an infinite or undefined float size
        count = 0
    if count < 1:
        unit = block.unit or block.label
        raise ValueError(f"cannot size the {unit} at n={n} from {_named(params, block.inputs)}")
    return count


def plan_layout(n: int, params: EstimatorParams) -> PlanLayout:
    """Block sizes of the standard plan at ``n``.

    A block whose size overflows, divides by an underflowed ``epsilon**2.5``
    or rounds to zero raises ``ValueError`` naming the parameters it came
    from, and so does a plan of more than :data:`MAX_PLAN_QUERIES` queries,
    naming those of its largest block.
    """
    n = checked_int(n, "n")
    if n < 2:
        raise ValueError("estimation requires n >= 2")
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} exceeds the supported maximum {MAX_VERTICES}")
    degree, endpoint, rounds, collision = (_block_size(n, params, block) for block in _BLOCKS)
    layout = PlanLayout(degree, endpoint, rounds, math.ceil(math.sqrt(2 * n)), params.collision_reps, collision)
    if layout.total > MAX_PLAN_QUERIES:
        _, label, inputs = max(
            (count, block.label, _named(params, block.inputs + block.repeats))
            for count, block in zip(layout.block_counts, _BLOCKS)
        )
        raise ValueError(
            f"the plan at n={n} has more than MAX_PLAN_QUERIES={MAX_PLAN_QUERIES} queries; "
            f"its largest block, the {label}, comes from {inputs}"
        )
    return layout


def resolved_params(n: int, params: EstimatorParams) -> dict[str, object]:
    """``params`` as a dict plus the block sizes of its plan at ``n``, as the reports print them."""
    layout = plan_layout(n, params)
    return {
        **asdict(params),
        "degree_sample_size": layout.degree_size,
        "endpoint_sample_size": layout.endpoint_size,
        "vote_rounds": layout.vote_rounds,
        "vote_batch_size": layout.vote_batch,
        "collision_sample_size": layout.collision_size,
    }


def _degree_vertex_chunks(n: int, params: EstimatorParams, count: int) -> Iterator[np.ndarray]:
    """The ``count`` degree-probe vertices of the plan, in order, in chunks.

    The only place the stream is drawn. Chunked draws from one generator
    give the same values as one draw of ``count``.
    """
    rng = derive_rng(params.master_seed, "plan:degree-vertices")
    for start in range(0, count, _DEGREE_CHUNK):
        yield rng.integers(0, n, size=min(_DEGREE_CHUNK, count - start), dtype=np.int64)


def build_sample_plan(n: int, params: EstimatorParams) -> QueryPlan:
    """Build the full query plan from ``(n, params)`` alone.

    Degree probes target i.i.d. uniform vertices drawn from the plan stream of
    ``params.master_seed``; every other block is random-edge draws. The result
    is byte-identical across calls with equal inputs and never looks at any
    graph. It holds the queries :func:`estimate_edges` streams.
    """
    layout = plan_layout(n, params)
    vertices = np.empty(layout.degree_size, dtype=np.int64)
    start = 0
    # each chunk is copied out and freed before the next is drawn
    for chunk in _degree_vertex_chunks(n, params, layout.degree_size):
        vertices[start : start + chunk.shape[0]] = chunk
        start += chunk.shape[0]
    vertices.setflags(write=False)
    provenance = PlanProvenance(n=n, epsilon=params.epsilon, seed=params.master_seed)
    return QueryPlan(vertices, layout.total - layout.degree_size, provenance)


@dataclass(frozen=True)
class HeavySet:
    """Bucket indices classified heavy from sampled degrees, plus the evidence."""

    indices: np.ndarray  # sorted bucket indices that cleared the threshold
    bucket_counts: np.ndarray  # sampled-degree tallies per bucket, length t
    sample_size: int  # degree probes issued, including degree-0 results
    threshold: float  # the cleared per-bucket sample-frequency bound

    def heavy_mask(self) -> np.ndarray:
        mask = np.zeros(self.bucket_counts.shape[0], dtype=bool)
        mask[self.indices] = True
        return mask


def classify_heavy(degree_answers: np.ndarray, config: BucketConfig, epsilon: float) -> HeavySet:
    """Mark buckets whose sampled frequency clears ``sqrt(eps / 6n) / t``.

    Degree-0 answers stay in the sample size but join no bucket, matching how
    isolated vertices carry no edge mass.
    """
    degree_answers = checked_vector(degree_answers, config.n, "degree answers")
    if degree_answers.shape[0] == 0:
        raise ValueError("cannot classify from an empty degree sample")
    return _heavy_set(config.bucket_counts(degree_answers), int(degree_answers.shape[0]), config, epsilon)


def _heavy_set(counts: np.ndarray, sample_size: int, config: BucketConfig, epsilon: float) -> HeavySet:
    """:func:`classify_heavy` from the per-bucket ``counts`` of its ``sample_size`` probes."""
    threshold = math.sqrt(epsilon / (6.0 * config.n)) / config.t
    indices = np.flatnonzero(counts / sample_size >= threshold)
    return HeavySet(indices=indices, bucket_counts=counts, sample_size=sample_size, threshold=threshold)


def sampled_heavy_set(graph: Graph, params: EstimatorParams, ledger: QueryLedger) -> HeavySet:
    """:func:`classify_heavy` of the plan's degree probes, answered from ``graph`` one chunk at a time.

    The heavy set that classifying the degree block of
    :func:`~edgecount.oracle.answer_plan` gives, streamed from ``graph.degree_codes``,
    whose marks it ignores, without holding the probes or their answers;
    ``ledger.deg`` grows by the block's size.
    """
    layout, config = plan_layout(graph.n, params), BucketConfig(graph.n, params.gamma)
    return _stream_degree_block(graph.degree_codes, params, layout, config, ledger)[0]


def heavy_mass_estimate(heavy: HeavySet, config: BucketConfig) -> float:
    """Scale sampled bucket tallies up to a degree-mass estimate for the heavy part."""
    per_bucket = heavy.bucket_counts[heavy.indices] * config.powers[heavy.indices]
    return float(config.n / heavy.sample_size * per_bucket.sum())


def choose_endpoints(edge_u: np.ndarray, edge_v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pick one endpoint of each answered edge with a fair coin; the columns must be 1-d integer arrays of one length.

    This is the degree-proportional vertex draw; the coin randomness is
    post-processing and issues no queries.
    """
    edge_u, edge_v = checked_vector(edge_u, None, "edge_u"), checked_vector(edge_v, None, "edge_v")
    if edge_u.shape != edge_v.shape:
        raise ValueError(f"edge_u and edge_v must have equal lengths, got {edge_u.shape[0]} and {edge_v.shape[0]}")
    coins = rng.integers(0, 2, size=edge_u.shape[0])
    return np.where(coins == 1, edge_v, edge_u)


def heavy_fraction_estimate(
    endpoints: np.ndarray,
    sampled_vertices: np.ndarray,
    sampled_degrees: np.ndarray,
    heavy: HeavySet,
    config: BucketConfig,
) -> float:
    """Estimate the fraction of edge-endpoint mass sitting in heavy buckets.

    Each chosen endpoint is matched against every copy of itself in the
    degree sample (pair counting with multiplicity), restricted to vertices
    whose bucket is heavy. Rescaling by ``n / |sample|`` and the number of
    endpoint draws makes the estimate unbiased for the true heavy fraction,
    using transcript data only.
    """
    if np.size(endpoints) == 0:
        raise ValueError("heavy fraction needs at least one endpoint draw")
    if np.shape(sampled_vertices) != np.shape(sampled_degrees):
        raise ValueError("sampled vertices and degrees must align one to one")
    sampled_degrees = checked_vector(sampled_degrees, config.n, "degree answers")
    endpoints = checked_vector(endpoints, config.n - 1, "endpoints")
    sampled_vertices = checked_ints(sampled_vertices, config.n - 1, "sampled vertices")
    hit = np.flatnonzero(np.isin(sampled_vertices, endpoints) & (sampled_degrees >= 1))
    return _heavy_fraction(endpoints, sampled_vertices[hit], sampled_degrees[hit], heavy, config)


def _heavy_fraction(
    endpoints: np.ndarray, vertices: np.ndarray, degrees: np.ndarray, heavy: HeavySet, config: BucketConfig
) -> float:
    """:func:`heavy_fraction_estimate` from the ``vertices`` and ``degrees`` of its checked probes that hit an endpoint.

    Degree 0 is left out, and every hit vertex must be one of the ``endpoints``
    drawn. A heavy hit then matches each draw of its vertex: once for the
    first draw, plus once for each repeated draw of it.
    """
    hits = vertices[heavy.heavy_mask()[config.bucket_indices(degrees)]]
    matched_pairs = hits.shape[0]
    ordered = np.sort(endpoints)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]  # one entry per draw after a vertex's first
    if repeats.size:
        # the few repeats are searched into the sorted hits, not the hits
        # into the draws: unsorted keys make a search several times slower
        hits.sort()
        matched_pairs += int((np.searchsorted(hits, repeats, "right") - np.searchsorted(hits, repeats, "left")).sum())
    return float(config.n / heavy.sample_size * matched_pairs / endpoints.shape[0])


def count_collisions(edges: np.ndarray | Iterable[tuple[int, int]]) -> int:
    """Number of index pairs ``i < j`` whose edges, ``(k, 2)`` rows, are identical.

    Another shape, or an endpoint outside ``0..2**32-1`` that would alias in the pair codes: ``ValueError``.
    """
    arr = checked_ints(list(edges) if not isinstance(edges, np.ndarray) else edges, _ROW_RADIX - 1, "edge endpoints")
    if arr.size == 0:
        return 0
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (k, 2) rows, got shape {arr.shape}")
    arr = arr.astype(np.int64, copy=False)
    codes = pair_codes(arr[:, 0], arr[:, 1], _ROW_RADIX)
    codes.sort()
    return _sorted_collisions(codes)


def count_id_collisions(keys: np.ndarray) -> int:
    """:func:`count_collisions` of the rows of ``graph.rows`` at the 1-d positions ``keys``, which stay unsorted."""
    return _sorted_collisions(np.sort(checked_vector(keys, None, "edge keys")))


def _sorted_collisions(keys: np.ndarray) -> int:
    """Number of index pairs ``i < j`` with equal keys in a sorted 1-d array."""
    # a run of c equal keys repeats its key c - 1 times and holds
    # c * (c - 1) / 2 colliding pairs; sorting beats numpy 2.x's hash-based
    # np.unique(return_counts=True), and only the few repeats are counted
    repeats = keys[1:].take(np.flatnonzero(keys[1:] == keys[:-1]))
    extra = np.diff(np.append(np.flatnonzero(run_starts(repeats)), repeats.shape[0]))
    return int((extra * (extra + 1) // 2).sum())


def collision_edge_estimate(sample_count: int, collisions: int) -> float:
    """Invert the expected collision count, ``C(sample_count, 2) / collisions``, for counts that draws can give."""
    sample_count, collisions = checked_int(sample_count, "sample_count"), checked_int(collisions, "collisions")
    if sample_count < 2:
        raise ValueError(f"sample_count must be at least 2, got {sample_count}")
    pairs = math.comb(sample_count, 2)
    if not 1 <= collisions <= pairs:
        raise ValueError(f"collisions must lie in 1..{pairs} for sample_count={sample_count}, got {collisions}")
    return pairs / collisions


def collision_majority_vote(edge_u: np.ndarray, edge_v: np.ndarray, rounds: int, batch_size: int) -> int:
    """1 if more than half of the rounds saw any within-batch collision, else 0.

    Round ``j`` is the batch of edges ``j * batch_size .. (j + 1) * batch_size - 1``;
    fewer than ``rounds * batch_size`` edges is an error, and so is an
    endpoint outside ``0..2**32-1``, as in :func:`count_collisions`.
    """
    size = rounds * batch_size
    edge_u = checked_ints(edge_u, _ROW_RADIX - 1, "edge endpoints").astype(np.int64, copy=False)
    edge_v = checked_ints(edge_v, _ROW_RADIX - 1, "edge endpoints").astype(np.int64, copy=False)
    if min(edge_u.shape[0], edge_v.shape[0]) < size:
        raise ValueError(f"vote needs {rounds} x {batch_size} = {size} edges")
    codes = pair_codes(edge_u[:size], edge_v[:size], _ROW_RADIX).reshape(rounds, batch_size)
    codes.sort(axis=1)
    return _sorted_majority_vote(codes)


def _sorted_majority_vote(batches: np.ndarray) -> int:
    """1 if more than half of the rows of a row-sorted 2-d array hold a repeated key, else 0."""
    votes = int(np.count_nonzero((batches[:, 1:] == batches[:, :-1]).any(axis=1)))
    return 1 if 2 * votes > batches.shape[0] else 0


@dataclass(frozen=True)
class EstimateReport:
    """One estimation run: the estimate, which branch produced it, and the bill."""

    m_hat: float | None
    branch: str
    r: int
    k: int
    d_tilde_h: float
    p_tilde_h: float
    queries: QueryLedger

    def to_json_dict(self) -> dict[str, object]:
        return asdict(self)


def estimate_edges(graph: Graph, params: EstimatorParams) -> EstimateReport:
    """Run the full non-adaptive estimator against ``graph``.

    Branches: ``zero_edges``, before any query, when the graph reports no
    edges; ``collision`` when the sparse-regime vote fires and collisions
    were observed, giving the inverse-collision estimate; ``non_collision``
    for the bucketed ratio estimate; ``failed`` when that ratio is
    degenerate. The ledger in the report accounts for every issued query.

    Issues the queries of :func:`build_sample_plan` as
    :func:`~edgecount.oracle.answer_plan` would answer them, one block or
    chunk at a time. The random-edge blocks come first, from the one answer
    generator, so that the chosen endpoints are known when the degree block
    streams past and only its tally and endpoint hits are kept.
    """
    layout = plan_layout(graph.n, params)
    ledger = QueryLedger()
    if graph.m == 0:
        return EstimateReport(
            m_hat=0.0, branch=BRANCH_ZERO_EDGES, r=0, k=0, d_tilde_h=0.0, p_tilde_h=0.0, queries=ledger
        )
    config = BucketConfig(graph.n, params.gamma)
    rng = derive_rng(params.master_seed, "oracle:answers")
    # edge i's endpoints sit at 2i and 2i + 1 of the flat rows: only the chosen one is gathered
    first = 2 * answer_rand_edge_ids(graph, rng, layout.endpoint_size, ledger).astype(np.int64)
    coins = derive_rng(params.master_seed, "estimate:endpoint-coins")
    endpoints = graph.rows.ravel().take(choose_endpoints(first, first + 1, coins))
    del first, coins  # only the chosen endpoints are read from here on
    # the vote and the collision count only compare edges: they read drawn positions as keys, never rows
    votes = answer_rand_edge_ids(graph, rng, layout.vote_size, ledger).reshape(layout.vote_rounds, layout.vote_batch)
    votes.sort(axis=1)
    k = _sorted_majority_vote(votes)
    del votes  # freed before the collision samples and the degree block
    rep_counts = []
    for _ in range(layout.collision_reps):
        keys = answer_rand_edge_ids(graph, rng, layout.collision_size, ledger)
        keys.sort()  # the estimate's own keys, sorted in place rather than copied
        rep_counts.append(_sorted_collisions(keys))
    del keys  # freed before the degree block
    r = sorted(rep_counts)[len(rep_counts) // 2]  # upper median; identity for one rep

    # the degree block reads the endpoint draws as marks on the graph's code
    # table, held for the block and cleared after it
    with graph.degree_codes.marking(endpoints) as table:
        heavy, *hits = _stream_degree_block(table, params, layout, config, ledger)
    mass = heavy_mass_estimate(heavy, config)
    fraction = _heavy_fraction(endpoints, *hits, heavy, config)
    if r > 0 and k == 1:
        m_hat: float | None = collision_edge_estimate(layout.collision_size, r)
        branch = BRANCH_COLLISION
    elif fraction == 0.0:
        m_hat = None
        branch = BRANCH_FAILED
    else:
        m_hat = mass / (2.0 * fraction)
        branch = BRANCH_NON_COLLISION
    return EstimateReport(m_hat=m_hat, branch=branch, r=r, k=k, d_tilde_h=mass, p_tilde_h=fraction, queries=ledger)


def _stream_degree_block(
    table: DegreeCodes, params: EstimatorParams, layout: PlanLayout, config: BucketConfig, ledger: QueryLedger
) -> tuple[HeavySet, np.ndarray, np.ndarray]:
    """Draw, answer and fold the degree block one chunk at a time.

    Returns the heavy set of the whole block and the vertices and degrees of
    the probes on a marked vertex of ``table``, degree 0 left out. Every
    chunk is answered from ``table``, a graph's ``degree_codes`` with the
    endpoint draws marked, or as it is for a heavy set alone.
    """
    # the codes of a uint8 or uint16 table are counted as they come and folded
    # once, those of a table whose top code is at most _PAIR_TOP_CODE two at a
    # time, as uint16 pairs: half the increments, into bins too many to
    # contend, and the others one at a time into bins up to the largest code
    # seen. A wider table's chunks are decoded and counted by bucket whole
    paired = table.top_code <= _PAIR_TOP_CODE
    code_counts = np.zeros(256 * (table.top_code + 1) if paired else 0, dtype=np.intp)
    leftover = []  # the last code of each odd-length chunk, which has no pair
    counts = np.zeros(config.t, dtype=np.intp)
    # the probes on a marked endpoint, the only ones that can match an
    # endpoint draw: their vertices and their codes
    hit_vertices, hit_codes = [], []
    for vertices in _degree_vertex_chunks(table.n, params, layout.degree_size):
        codes = answer_degree_codes(table, vertices, ledger)
        hit = np.flatnonzero(table.marked(codes))
        hit_vertices.append(vertices.take(hit))
        hit_codes.append(codes.take(hit))
        del vertices, hit  # freed before the tally
        if paired:
            even = codes.shape[0] & ~1
            code_counts += np.bincount(codes[:even].view(np.uint16), minlength=code_counts.shape[0])
            if even < codes.shape[0]:
                leftover.append(codes[-1])
        elif table.top_code >= 2**16:
            counts += config.bucket_counts(table.decoded(codes))
        else:
            tally = np.bincount(codes, minlength=code_counts.shape[0])
            tally[: code_counts.shape[0]] += code_counts
            code_counts = tally
        del codes  # freed before the next chunk is drawn
    if paired:
        # a pair holds one code in each byte: its row and its column, in either byte order
        pairs = code_counts.reshape(-1, 256)
        top = pairs.shape[0]
        code_counts = pairs.sum(axis=0)[:top] + pairs.sum(axis=1) + np.bincount(leftover, minlength=top)
    counts += config.fold(table.fold(code_counts))
    heavy = _heavy_set(counts, layout.degree_size, config, params.epsilon)
    degrees = table.decoded(np.concatenate(hit_codes))
    nonzero = degrees >= 1  # degree 0 is in no bucket
    return heavy, np.concatenate(hit_vertices)[nonzero], degrees[nonzero]
