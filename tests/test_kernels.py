"""The post-processing kernels against reference copies of their direct formulas.

Each reference below is the straightforward version of a kernel: a binary
search per degree, length-n tallies and masks, one collision count per vote
round, hashed run counts for collisions. The kernels must give exactly the same results, with memory that grows
with the sample, plus one n-entry degree code table; code tallies stop at 2^16 bins, and a wider table's
codes are counted by bucket.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgecount import (
    BucketConfig,
    EstimatorParams,
    HeavySet,
    build_sample_plan,
    classify_heavy,
    collision_edge_estimate,
    collision_majority_vote,
    count_collisions,
    estimate_edges,
    graph_from_spec,
    heavy_fraction_estimate,
    plan_layout,
)
from edgecount import estimator
from edgecount.buckets import DENSE_DEGREES
from edgecount.estimator import (
    _heavy_fraction,
    _sorted_collisions,
    _sorted_majority_vote,
    _stream_degree_block,
    count_id_collisions,
)
from edgecount.generators import gen_path
from edgecount.graph import MAX_VERTICES, pair_codes, run_starts, sorted_unique
from edgecount.oracle import DegreeCodes, QueryLedger, answer_degree_codes


def ref_bucket_indices(config: BucketConfig, degrees: np.ndarray) -> np.ndarray:
    return np.searchsorted(config.powers, degrees, side="left")


def ref_bucket_counts(degree_answers: np.ndarray, config: BucketConfig) -> np.ndarray:
    nonzero = degree_answers >= 1
    return np.bincount(ref_bucket_indices(config, degree_answers[nonzero]), minlength=config.t)


def ref_heavy_fraction(endpoints, sampled_vertices, sampled_degrees, heavy: HeavySet, config: BucketConfig) -> float:
    multiplicity = np.bincount(sampled_vertices, minlength=config.n)
    heavy_vertex = np.zeros(config.n, dtype=bool)
    nonzero = sampled_degrees >= 1
    if nonzero.any():
        heavy_vertex[sampled_vertices[nonzero]] = heavy.heavy_mask()[ref_bucket_indices(config, sampled_degrees[nonzero])]
    matched_pairs = int((multiplicity[endpoints] * heavy_vertex[endpoints]).sum())
    return float(config.n / heavy.sample_size * matched_pairs / endpoints.shape[0])


def ref_count_collisions(edges) -> int:
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    codes = (np.minimum(arr[:, 0], arr[:, 1]) << np.int64(32)) | np.maximum(arr[:, 0], arr[:, 1])
    _, counts = np.unique(codes, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def ref_vote(edge_u, edge_v, rounds: int, batch_size: int) -> int:
    votes = 0
    for j in range(rounds):
        batch = range(j * batch_size, (j + 1) * batch_size)
        pairs = [tuple(sorted((int(edge_u[i]), int(edge_v[i])))) for i in batch]
        votes += len(set(pairs)) < len(pairs)
    return 1 if 2 * votes > rounds else 0


@st.composite
def degree_samples(draw):
    """A bucket table plus a degree sample consistent with one degree per
    vertex; degrees span 0 (no bucket) up to n (the top of the table), and
    small vertex ranges make repeated samples and endpoints common."""
    n = draw(st.integers(2, 300))
    gamma = draw(st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degree_of = rng.integers(0, draw(st.sampled_from((1, 3, n))) + 1, size=n)
    degree_of[:2] = (n, 0)
    span = draw(st.integers(1, n))
    sampled = rng.integers(0, span, size=draw(st.integers(1, 80)))
    endpoints = rng.integers(0, span, size=draw(st.integers(1, 60)))
    return BucketConfig(n, gamma), degree_of, sampled, endpoints


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5000), st.floats(0.01, 2.0), st.lists(st.integers(0, 10**6), min_size=1, max_size=50))
def test_bucket_indices_match_binary_search(n, gamma, raw):
    config = BucketConfig(n, gamma)
    degrees = np.array([1 + r % n for r in raw] + [1, n], dtype=np.int64)
    got = config.bucket_indices(degrees)
    assert got.dtype == np.intp
    assert np.array_equal(got, ref_bucket_indices(config, degrees))
    assert config.bucket_indices(np.zeros(0, dtype=np.int64)).shape == (0,)
    for bad in (0, n + 1):
        with pytest.raises(ValueError):
            config.bucket_indices(np.append(degrees, bad))


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(INTEGER_DTYPES),
    st.integers(2, 3 * DENSE_DEGREES),
    st.floats(0.01, 1.0),
    st.lists(st.integers(0, 3 * DENSE_DEGREES), max_size=60),
    st.integers(0, 20),
)
def test_bucket_counts_and_the_fold_match_binary_search(dtype, n, gamma, raw, zeros):
    # degrees on both sides of DENSE_DEGREES, where the dtype and n allow,
    # plus zeros; both ways into the fold give the per-bucket reference
    config = BucketConfig(n, gamma)
    top = min(n, int(np.iinfo(dtype).max))
    degrees = np.array([r % (top + 1) for r in raw] + [0] * zeros, dtype=dtype)
    expected = ref_bucket_counts(degrees, config)
    counts = config.bucket_counts(degrees)
    assert counts.dtype == np.intp and counts.shape == (config.t,)
    assert np.array_equal(counts, expected)
    folded = config.fold(np.bincount(degrees.astype(np.intp)))
    assert folded.dtype == np.intp
    assert np.array_equal(folded, expected)


def test_bucket_counts_of_a_hub_size_no_tally_by_its_degree():
    # a per-degree tally up to the hub's degree would take 24 MB
    config = BucketConfig(3_000_000, 0.025)
    degrees = np.array([0, 1, 3_000_000])
    tracemalloc.start()
    try:
        counts = config.bucket_counts(degrees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2 and counts[0] == 1 and counts[config.bucket_index(3_000_000)] == 1
    assert peak < 10**6


@settings(max_examples=150, deadline=None)
@given(degree_samples(), st.floats(0.01, 0.8))
def test_classify_heavy_counts_match_reference(sample, epsilon):
    config, degree_of, sampled, _ = sample
    degrees = degree_of[sampled]
    heavy = classify_heavy(degrees, config, epsilon)
    expected = ref_bucket_counts(degrees, config)
    assert heavy.bucket_counts.dtype == np.int64
    assert np.array_equal(heavy.bucket_counts, expected)
    assert heavy.sample_size == degrees.shape[0]
    assert np.array_equal(heavy.indices, np.flatnonzero(expected / degrees.shape[0] >= heavy.threshold))


@settings(max_examples=200, deadline=None)
@given(degree_samples(), st.floats(0.01, 0.8), st.randoms(use_true_random=False))
def test_heavy_fraction_matches_reference(sample, epsilon, rnd):
    config, degree_of, sampled, endpoints = sample
    degrees = degree_of[sampled]
    classified = classify_heavy(degrees, config, epsilon)
    # also an arbitrary heavy set, so light buckets with samples occur too
    subset = np.array(sorted(rnd.sample(range(config.t), rnd.randint(0, config.t))), dtype=np.int64)
    arbitrary = HeavySet(indices=subset, bucket_counts=classified.bucket_counts, sample_size=degrees.shape[0], threshold=0.0)
    for heavy in (classified, arbitrary):
        got = heavy_fraction_estimate(endpoints, sampled, degrees, heavy, config)
        assert got == ref_heavy_fraction(endpoints, sampled, degrees, heavy, config)


@st.composite
def degrees_across_the_dense_cutoff(draw):
    """A bucket table on ``n > DENSE_DEGREES`` and degrees biased to both
    sides of the cutoff and to ``n``."""
    n = draw(st.integers(DENSE_DEGREES + 1, 4 * DENSE_DEGREES))
    config = BucketConfig(n, draw(st.floats(0.01, 1.0)))
    degree = st.sampled_from((1, DENSE_DEGREES - 1, DENSE_DEGREES, n)) | st.integers(1, n)
    return config, np.array(draw(st.lists(degree, min_size=1, max_size=40)), dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(degrees_across_the_dense_cutoff())
def test_bucket_indices_across_the_dense_cutoff_match_binary_search(sample):
    config, degrees = sample
    assert np.array_equal(config.bucket_indices(degrees), ref_bucket_indices(config, degrees))
    two_rows = np.resize(degrees, (2, degrees.shape[0]))
    assert np.array_equal(config.bucket_indices(two_rows), ref_bucket_indices(config, two_rows))
    for bad in (0, config.n + 1):
        with pytest.raises(ValueError, match="degrees must lie in 1..n"):
            config.bucket_indices(np.append(degrees, bad))


@settings(max_examples=25, deadline=None)
@given(degrees_across_the_dense_cutoff(), st.sampled_from((0.25, 0.5)), st.integers(0, 2**32 - 1))
def test_streamed_heavy_set_across_the_dense_cutoff_matches_reference(sample, epsilon, seed):
    # a degree table whose vertices take the drawn degrees (and 0), so
    # probes land on both sides of the cutoff in chunk after chunk
    config, palette = sample
    n = config.n
    rng = np.random.default_rng(seed)
    degree_of = np.append(palette, 0)[rng.integers(0, palette.shape[0] + 1, size=n)]
    params = EstimatorParams(epsilon=epsilon, master_seed=seed)
    layout = plan_layout(n, params)
    endpoints = rng.integers(0, n, size=50)
    with DegreeCodes(degree_of).marking(endpoints) as table:
        heavy, hit_vertices, hit_degrees = _stream_degree_block(table, params, layout, config, QueryLedger())

    sampled = build_sample_plan(n, params).deg_vertices
    degrees = degree_of[sampled]
    expected = ref_bucket_counts(degrees, config)
    assert np.array_equal(heavy.bucket_counts, expected)
    assert heavy.sample_size == layout.degree_size
    assert np.array_equal(heavy.indices, np.flatnonzero(expected / degrees.shape[0] >= heavy.threshold))
    assert np.array_equal(classify_heavy(degrees, config, epsilon).bucket_counts, expected)
    hit = np.isin(sampled, endpoints) & (degrees >= 1)
    assert np.array_equal(hit_vertices, sampled[hit])
    assert np.array_equal(hit_degrees, degrees[hit])


# the largest degree of each degree table below and the dtype of its codes,
# the narrowest that holds 2 * largest + 1
WIDTH_CASES = [
    (126, np.uint8),
    (127, np.uint8),
    (128, np.uint16),
    (2**15 - 1, np.uint16),
    (2**15, np.uint32),
    (DENSE_DEGREES + 5, np.uint32),
]


def _width_degrees(largest: int, sampled: np.ndarray, n: int) -> np.ndarray:
    """Degrees from 0 up to ``largest`` on ``n`` vertices, ``largest`` on the first probes."""
    rng = np.random.default_rng(largest)
    palette = [d for d in (0, 1, 2, 5, 126, 127, 128, 2**15 - 1, 2**15, DENSE_DEGREES, largest) if d <= largest]
    degree_of = rng.choice(np.array(palette, dtype=np.int64), size=n)
    degree_of[sampled[:5]] = largest
    return degree_of


@pytest.mark.parametrize("largest, code_dtype", WIDTH_CASES, ids=["126", "127", "128", "32767", "32768", "dense"])
def test_streamed_heavy_set_matches_reference_at_every_code_width(largest, code_dtype):
    # the uint32 tables' top codes lie above 2^16: each of their chunks is
    # decoded and counted by bucket whole; the widest one has probed degrees
    # on both sides of DENSE_DEGREES
    n = DENSE_DEGREES + 7
    params = EstimatorParams(epsilon=0.25, master_seed=3)
    layout = plan_layout(n, params)
    config = BucketConfig(n, params.gamma)
    sampled = build_sample_plan(n, params).deg_vertices
    degree_of = _width_degrees(largest, sampled, n)
    table = DegreeCodes(degree_of)
    degrees = degree_of[sampled]
    codes = answer_degree_codes(table, sampled, QueryLedger())
    assert codes.dtype == code_dtype
    assert np.array_equal(table.decoded(codes), degrees)
    if largest > DENSE_DEGREES:
        assert (degrees < DENSE_DEGREES).any() and (degrees >= DENSE_DEGREES).any()

    # endpoints on the largest-degree probes and elsewhere
    endpoints = np.concatenate((sampled[:3], sampled[7:40], np.arange(0, n, 997)))
    with DegreeCodes(degree_of).marking(endpoints) as table:
        heavy, hit_vertices, hit_degrees = _stream_degree_block(table, params, layout, config, QueryLedger())
    expected = classify_heavy(degrees, config, params.epsilon)
    assert np.array_equal(heavy.bucket_counts, expected.bucket_counts)
    assert np.array_equal(heavy.indices, expected.indices)
    assert heavy.sample_size == expected.sample_size == layout.degree_size
    hit = np.isin(sampled, endpoints) & (degrees >= 1)
    assert hit[:3].all()
    assert np.array_equal(hit_vertices, sampled[hit])
    assert np.array_equal(hit_degrees, degrees[hit])


def test_a_uint64_code_chunk_is_decoded_and_counted_by_bucket():
    # codes of a degree of 2^31 or more are uint64, which older numpy's
    # np.bincount refuses; the stream decodes a wide table's chunks and
    # counts them by bucket, which casts them to intp after its range check,
    # degree 0 in none
    config = BucketConfig(2**33, 0.25)
    degrees = np.array([0, 1, 1, 5, DENSE_DEGREES - 1, DENSE_DEGREES, 2**31, 2**32 + 3], dtype=np.int64)
    codes = (2 * degrees + np.arange(degrees.shape[0]) % 2).astype(np.uint64)
    decoded = DegreeCodes.decoded(codes)
    assert decoded.dtype == np.uint64 and decoded.tolist() == degrees.tolist()
    counts = config.bucket_counts(decoded)
    assert np.array_equal(counts, np.bincount(config.bucket_indices(degrees[degrees >= 1]), minlength=config.t))
    assert counts.sum() == degrees.shape[0] - 1


@pytest.mark.parametrize("zeros", [False, True], ids=["no-narrow-code", "only-zero-narrow-codes"])
def test_streamed_wide_table_whose_chunks_hold_no_nonzero_narrow_code(zeros):
    # every degree is 33,000, whose codes lie above 2^16, so no chunk holds a
    # code below 2^16; with every other degree 0, the only such codes are
    # those of degree 0, marked or not
    n = 40_000
    degree_of = np.full(n, 33_000)
    if zeros:
        degree_of[::2] = 0
    params = EstimatorParams(epsilon=0.25, master_seed=3)
    layout = plan_layout(n, params)
    config = BucketConfig(n, params.gamma)
    sampled = build_sample_plan(n, params).deg_vertices
    degrees = degree_of[sampled]
    endpoints = np.arange(0, n, 7)
    with DegreeCodes(degree_of).marking(endpoints) as table:
        assert table.top_code >= 2**16
        heavy, hit_vertices, hit_degrees = _stream_degree_block(table, params, layout, config, QueryLedger())
    assert np.array_equal(heavy.bucket_counts, ref_bucket_counts(degrees, config))
    assert heavy.sample_size == layout.degree_size
    hit = np.isin(sampled, endpoints) & (degrees >= 1)
    assert np.array_equal(hit_vertices, sampled[hit])
    assert np.array_equal(hit_degrees, degrees[hit])


@pytest.mark.parametrize("bad_degree", [-1, DENSE_DEGREES + 8, 2**40])
def test_streamed_degree_answers_outside_zero_to_n_rejected_on_uint32_codes(bad_degree):
    # a probed vertex on a table with uint32 codes: the table refuses a degree
    # outside 0..n when it is built, so no probe can answer one
    n = DENSE_DEGREES + 7
    params = EstimatorParams(epsilon=0.25, master_seed=3)
    sampled = build_sample_plan(n, params).deg_vertices
    degree_of = _width_degrees(2**15, sampled, n)
    degree_of[sampled[-1]] = bad_degree
    with pytest.raises(ValueError) as info:
        DegreeCodes(degree_of)
    assert str(info.value) == f"degrees must lie in 0..{n}"


@st.composite
def small_code_tables(draw):
    """A degree table whose probed codes top out at a drawn code near the
    pair rule, its endpoints and a degree chunk size.

    The largest degree sits on the plan's first probe and is marked for an
    odd top code; every other probed vertex has a smaller degree. A table of
    uint32 codes comes from a degree of at least 2^15, on a graph of more
    than 2^15 vertices, on a vertex no probe reaches, and a table whose top
    code lies above every probed code from a degree above the largest on
    another such vertex. Chunk sizes are small and often odd, or leave one
    probe in the last chunk.
    """
    wide, above = draw(st.booleans()), draw(st.booleans())
    n = draw(st.integers(33, 120)) + (2**15 if wide else 0)
    top_code = draw(st.sampled_from((62, 63, 64, 65)))
    params = EstimatorParams(epsilon=0.8, master_seed=draw(st.integers(0, 2**32 - 1)))
    sampled = build_sample_plan(n, params).deg_vertices
    rng = np.random.default_rng(params.master_seed)
    largest = top_code // 2
    degree_of = rng.integers(0, largest, size=n)
    degree_of[sampled[0]] = largest
    endpoints = rng.choice(np.flatnonzero(degree_of < largest), size=draw(st.integers(1, 12)))
    if top_code % 2:
        endpoints = np.append(endpoints, sampled[0])
    if wide or above:
        unprobed = np.setdiff1d(np.arange(n), sampled)
        assume(unprobed.size >= wide + above)
        if wide:
            degree_of[unprobed[0]] = draw(st.integers(2**15, n))
        if above:
            degree_of[unprobed[-1]] = draw(st.integers(largest + 1, n))
    size = sampled.shape[0]
    chunk = draw(st.integers(1, 40) | st.sampled_from((size - 1, (size - 1) // 2)).filter(lambda c: c >= 1))
    return degree_of, params, endpoints, top_code, chunk


@settings(max_examples=80, deadline=None)
@given(small_code_tables())
def test_pair_tally_matches_classify_heavy_on_both_sides_of_the_rule(table_case):
    degree_of, params, endpoints, top_code, chunk = table_case
    n = degree_of.shape[0]
    layout = plan_layout(n, params)
    config = BucketConfig(n, params.gamma)
    sampled = build_sample_plan(n, params).deg_vertices
    table = DegreeCodes(degree_of)
    wide = bool((degree_of >= 2**15).any())
    above = bool((degree_of > top_code // 2).any())  # only on a vertex no probe reaches
    with table.marking(endpoints):
        assert int(answer_degree_codes(table, sampled, QueryLedger()).max()) == top_code
    assert (table.top_code > (top_code | 1)) == (wide or above)
    assert (table.top_code <= estimator._PAIR_TOP_CODE) == (top_code < 64 and not wide and not above)
    degrees = table.decoded(answer_degree_codes(table, sampled, QueryLedger()))
    with mock.patch.object(estimator, "_DEGREE_CHUNK", chunk):
        with table.marking(endpoints):
            heavy, hit_vertices, hit_degrees = _stream_degree_block(table, params, layout, config, QueryLedger())
    expected = classify_heavy(degrees, config, params.epsilon)
    assert np.array_equal(heavy.bucket_counts, expected.bucket_counts)
    assert np.array_equal(heavy.indices, expected.indices)
    assert heavy.sample_size == expected.sample_size == layout.degree_size
    hit = np.isin(sampled, endpoints) & (degrees >= 1)
    assert np.array_equal(hit_vertices, sampled[hit])
    assert np.array_equal(hit_degrees, degrees[hit])


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 60), st.integers(1, 126), st.booleans(), st.integers(0, 2**32 - 1))
def test_pair_tally_rejects_a_field_above_n(n, excess, negative, seed):
    # a probed vertex whose field above n the codes would hold exactly, on
    # both sides of the pair rule, also with a negative degree on a vertex no
    # probe reaches: the table refuses either degree when it is built
    params = EstimatorParams(epsilon=0.8, master_seed=seed)
    sampled = build_sample_plan(n, params).deg_vertices
    degree_of = np.random.default_rng(seed).integers(0, n + 1, size=n)
    degree_of[sampled[-1]] = min(n + excess, 126)
    if negative:
        unprobed = np.setdiff1d(np.arange(n), sampled)
        assume(unprobed.size > 0)
        degree_of[unprobed[0]] = -1
    with pytest.raises(ValueError) as info:
        DegreeCodes(degree_of)
    assert str(info.value) == f"degrees must lie in 0..{n}"


def ref_searchsorted_match(endpoints, hit_vertices, hit_degrees, heavy: HeavySet, config: BucketConfig) -> float:
    """The heavy-fraction match as one search of every heavy hit into the distinct endpoint draws."""
    hits = np.sort(hit_vertices[heavy.heavy_mask()[config.bucket_indices(hit_degrees)]])
    ordered = np.sort(endpoints)
    starts = np.flatnonzero(run_starts(ordered))
    draws = np.diff(np.append(starts, ordered.shape[0]))
    matched_pairs = int(draws[np.searchsorted(ordered[starts], hits)].sum())
    return float(config.n / heavy.sample_size * matched_pairs / endpoints.shape[0])


@st.composite
def endpoint_draws_with_hits(draw):
    """Distinct endpoints drawn once, twice or three to five times, each with
    heavy and light hits, on a bucket table whose heavy set is drawn too."""
    n = draw(st.integers(8, 2000))
    config = BucketConfig(n, draw(st.floats(0.05, 1.0)))
    assume(config.t >= 2)
    # the top bucket is heavy and the bottom one light, so both kinds of hit exist
    heavy_buckets = {config.t - 1} | set(draw(st.lists(st.integers(1, config.t - 2), max_size=5)))
    bucket_of = config.bucket_indices(np.arange(1, n + 1))
    is_heavy = np.isin(bucket_of, sorted(heavy_buckets))
    heavy_degrees = np.flatnonzero(is_heavy) + 1
    light_degrees = np.flatnonzero(~is_heavy) + 1
    vertices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30, unique=True))
    endpoints, hit_vertices, hit_degrees = [], [], []
    for vertex in vertices:
        endpoints += [vertex] * draw(st.sampled_from((1, 2, 3, 4, 5)))
        for degrees, count in ((heavy_degrees, draw(st.integers(0, 3))), (light_degrees, draw(st.integers(0, 3)))):
            hit_vertices += [vertex] * count
            hit_degrees += [int(degrees[draw(st.integers(0, degrees.shape[0] - 1))]) for _ in range(count)]
    order = draw(st.permutations(range(len(hit_vertices))))
    heavy = HeavySet(
        indices=np.array(sorted(heavy_buckets), dtype=np.int64),
        bucket_counts=np.zeros(config.t, dtype=np.int64),
        sample_size=draw(st.integers(max(1, len(hit_vertices)), 10**6)),
        threshold=0.0,
    )
    return (
        np.array(draw(st.permutations(endpoints)), dtype=np.int64),
        np.array(hit_vertices, dtype=np.int64)[order],
        np.array(hit_degrees, dtype=np.int64)[order],
        heavy,
        config,
    )


@settings(max_examples=300, deadline=None)
@given(endpoint_draws_with_hits())
def test_repeat_only_match_equals_the_search_into_distinct_draws(case):
    endpoints, hit_vertices, hit_degrees, heavy, config = case
    got = _heavy_fraction(endpoints, hit_vertices, hit_degrees, heavy, config)
    assert got == ref_searchsorted_match(endpoints, hit_vertices, hit_degrees, heavy, config)


def test_heavy_fraction_counts_duplicates_on_both_sides():
    config = BucketConfig(10, 0.5)
    sampled = np.array([3, 3, 3, 7], dtype=np.int64)
    degrees = np.array([10, 10, 10, 0], dtype=np.int64)  # degree n, and degree 0
    heavy = classify_heavy(degrees, config, epsilon=0.5)
    endpoints = np.array([3, 3, 7, 1, 7], dtype=np.int64)
    # 3 samples of vertex 3 x 2 draws of it; vertex 7 has degree 0
    assert heavy_fraction_estimate(endpoints, sampled, degrees, heavy, config) == 10 / 4 * 6 / 5
    assert ref_heavy_fraction(endpoints, sampled, degrees, heavy, config) == 10 / 4 * 6 / 5


def test_degree_answers_outside_zero_to_n_rejected():
    config = BucketConfig(10, 0.5)
    vertices = np.array([1, 2], dtype=np.int64)
    heavy = classify_heavy(np.array([10, 0]), config, epsilon=0.5)
    for degrees in (np.array([3, -1]), np.array([3, 11]), np.array([3, 10**15])):
        with pytest.raises(ValueError, match="0..10"):
            classify_heavy(degrees, config, epsilon=0.5)
        with pytest.raises(ValueError, match="0..10"):
            heavy_fraction_estimate(vertices, vertices, degrees, heavy, config)


def test_heavy_fraction_rejects_misaligned_samples():
    config = BucketConfig(10, 0.5)
    degrees = np.array([10, 10, 10], dtype=np.int64)
    heavy = classify_heavy(degrees, config, epsilon=0.5)
    endpoints = np.array([3], dtype=np.int64)
    for vertices in (np.array([3, 3], dtype=np.int64), np.array([3, 3, 3, 3], dtype=np.int64)):
        with pytest.raises(ValueError, match="align"):
            heavy_fraction_estimate(endpoints, vertices, degrees, heavy, config)


pair_lists = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=60)
endpoint_ids = st.integers(0, 5) | st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(endpoint_ids, endpoint_ids), max_size=80))
def test_count_collisions_matches_hashed_counts(pairs):
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert count_collisions(edges) == ref_count_collisions(edges)


@st.composite
def pairs_below_radix(draw):
    """A radix up to ``MAX_VERTICES`` and endpoint pairs in ``0..radix-1``,
    biased to both ends of both ranges."""
    radix = draw(st.integers(1, 8) | st.integers(MAX_VERTICES - 8, MAX_VERTICES) | st.integers(1, MAX_VERTICES))
    ids = st.integers(0, min(3, radix - 1)) | st.integers(max(0, radix - 4), radix - 1) | st.integers(0, radix - 1)
    return radix, draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(endpoint_ids, endpoint_ids), min_size=1, max_size=40), pairs_below_radix())
def test_pair_codes_are_the_shifted_codes_and_invert_by_divmod(pairs, below_radix):
    u, v = np.array(pairs, dtype=np.int64).T
    shifted = (np.minimum(u, v) << np.int64(32)) | np.maximum(u, v)
    assert np.array_equal(pair_codes(u, v, 2**32), shifted)
    radix, pairs = below_radix
    u, v = np.array(pairs, dtype=np.int64).T
    high, low = np.divmod(pair_codes(u, v, radix), radix)
    assert np.array_equal(high, np.minimum(u, v))
    assert np.array_equal(low, np.maximum(u, v))


# two distinct edges each, whose radix-2**32 codes are equal
ALIASING_EDGES = [
    [(0, 2**32), (1, 2**32)],
    [(-1, 5), (-1, 2**32 + 5)],
    [(3, 2**40), (3, 2**40 + 2**32)],
    [(1, 2**32 + 2), (1, 2)],
]


@pytest.mark.parametrize("pairs", ALIASING_EDGES)
def test_row_kernels_reject_endpoints_that_alias(pairs):
    edges = np.array(pairs, dtype=np.int64)
    with pytest.raises(ValueError, match=r"edge endpoints must lie in 0\.\.4294967295"):
        count_collisions(edges)
    with pytest.raises(ValueError, match=r"edge endpoints must lie in 0\.\.4294967295"):
        collision_majority_vote(edges[:, 0], edges[:, 1], 1, 2)


@pytest.mark.parametrize(
    "edges, shape",
    [
        (np.array([[0, 1, 2], [0, 1, 2]]), r"\(2, 3\)"),
        (np.zeros((2, 2, 2), dtype=np.int64), r"\(2, 2, 2\)"),
        (np.array([0, 1, 0, 1]), r"\(4,\)"),
        ([0, 1, 0, 1], r"\(4,\)"),
    ],
    ids=["three-wide", "three-d", "flat", "flat-list"],
)
def test_count_collisions_refuses_edges_that_are_not_pair_rows(edges, shape):
    # these were re-cut into pairs: two equal 3-wide rows counted 0, the
    # zeros 6 and the flat run 1
    with pytest.raises(ValueError, match=rf"^edges must be \(k, 2\) rows, got shape {shape}$"):
        count_collisions(edges)
    with mock.patch.object(estimator, "pair_codes", side_effect=AssertionError("encoded")):
        with pytest.raises(ValueError, match="rows"):
            count_collisions(edges)
    assert count_collisions(np.zeros((0, 2), dtype=np.int64)) == 0


def test_count_id_collisions_refuses_keys_that_are_not_one_row():
    # each row was sorted on its own and the rows compared: [[1, 1], [2, 2]] counted 0
    with pytest.raises(ValueError, match=r"^edge keys must be a 1-d array, got shape \(2, 2\)$"):
        count_id_collisions(np.array([[1, 1], [2, 2]]))
    with pytest.raises(ValueError, match="^edge keys must be integers, got dtype float64$"):
        count_id_collisions(np.array([1.0, 1.0]))
    assert count_id_collisions(np.array([1, 1, 2], dtype=np.uint32)) == 1


@pytest.mark.parametrize(
    "sample_count, collisions, message",
    [
        (10, 1.5, "^collisions must be an integer, got 1.5$"),
        (True, 1, "^sample_count must be an integer, got True$"),
        (10, True, "^collisions must be an integer, got True$"),
        (10.0, 1, "^sample_count must be an integer, got 10.0$"),
    ],
    ids=["fractional", "bool-sample", "bool-collisions", "float-sample"],
)
def test_collision_edge_estimate_refuses_counts_that_are_not_integers(sample_count, collisions, message):
    # the first three read 30.0, 0.0 and 45.0 (the last as C(10, 2) / True),
    # and a float sample count raised math.comb's TypeError, naming nothing
    with pytest.raises(ValueError, match=message):
        collision_edge_estimate(sample_count, collisions)
    assert collision_edge_estimate(np.int64(10), np.uint8(1)) == 45.0


@settings(max_examples=200, deadline=None)
@given(pair_lists, st.integers(0, 8), st.integers(0, 6), st.integers(0, 3))
def test_majority_vote_matches_per_round_scan(pairs, rounds, batch_size, extra):
    size = rounds * batch_size
    if len(pairs) < size + extra:
        pairs = (pairs + [(0, 1), (2, 3), (4, 5), (1, 0)] * (size + extra))[: size + extra]
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert collision_majority_vote(edges[:, 0], edges[:, 1], rounds, batch_size) == ref_vote(
        edges[:, 0], edges[:, 1], rounds, batch_size
    )


# edge counts either side of the uint8 and uint16 limits, where a key one
# byte too narrow would alias position 256 or 65536 with position 0
ID_EDGE_COUNTS = (255, 256, 257, 65535, 65536, 65537)
ID_GRAPH_EDGES = {m: gen_path(m + 1).edges for m in ID_EDGE_COUNTS}


@st.composite
def drawn_edge_ids(draw):
    """Edge positions on one of the ``ID_EDGE_COUNTS`` edge counts, biased to
    both ends of the range and with repeats mixed in."""
    m = draw(st.sampled_from(ID_EDGE_COUNTS))
    position = st.integers(0, 3) | st.integers(m - 4, m - 1) | st.integers(0, m - 1)
    ids = draw(st.lists(position, min_size=1, max_size=60))
    ids += draw(st.lists(st.sampled_from(ids), max_size=20))
    return m, np.array(draw(st.permutations(ids)), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(drawn_edge_ids(), st.integers(1, 6))
def test_id_kernels_match_the_row_kernels(drawn, rounds):
    m, ids = drawn
    rows = ID_GRAPH_EDGES[m].take(ids, axis=0)
    keys = ids.astype(np.uint32)
    assert _sorted_collisions(np.sort(keys)) == count_collisions(rows)
    assert count_id_collisions(keys) == count_collisions(rows)
    batch = ids.shape[0] // rounds
    batches = np.sort(keys[: rounds * batch].reshape(rounds, batch), axis=1)
    assert _sorted_majority_vote(batches) == collision_majority_vote(rows[:, 0], rows[:, 1], rounds, batch)


def test_majority_vote_rejects_too_few_edges():
    u = np.zeros(14, dtype=np.int64)
    v = np.ones(14, dtype=np.int64)
    with pytest.raises(ValueError, match="15 edges"):
        collision_majority_vote(u, v, rounds=5, batch_size=3)
    with pytest.raises(ValueError):
        collision_majority_vote(np.zeros(15, dtype=np.int64), v, rounds=5, batch_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62) | st.integers(-3, 3), max_size=200))
def test_sorted_unique_matches_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    assert np.array_equal(sorted_unique(arr), np.unique(arr))


def test_postprocessing_memory_does_not_scale_with_n():
    # 1,000 samples on n = 10**7: one length-n bool mask (n bytes) is the
    # only allowance; length-n int64 tallies would need 8 n bytes
    n = 10**7
    config = BucketConfig(n, 0.025)
    rng = np.random.default_rng(5)
    sampled = rng.integers(0, n, size=1000)
    degrees = rng.integers(0, 30, size=1000)
    endpoints = np.concatenate((sampled[:300], rng.integers(0, n, size=700)))
    tracemalloc.start()
    try:
        heavy = classify_heavy(degrees, config, epsilon=0.25)
        fraction = heavy_fraction_estimate(endpoints, sampled, degrees, heavy, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fraction > 0
    assert peak < 2 * n


def test_estimate_memory_is_about_two_words_per_query():
    # the plan and its answers are blocks: a vertex and a degree per probe,
    # a (u, v) row per random edge, and the edge indices while they are drawn
    graph = graph_from_spec("gnm:200000,100000", 0)
    params = EstimatorParams(epsilon=0.25, master_seed=1)
    estimate_edges(graph, params)
    tracemalloc.start()
    try:
        estimate_edges(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * plan_layout(graph.n, params).total


@pytest.mark.parametrize(
    "spec, bound",
    [("gnm:10000,100000", 750_000), ("gnm:1000000,500000", 1_000_000), ("star:300000", 1_450_000)],
)
def test_estimate_peak_holds_one_probe_chunk(spec, bound):
    # the peak holds one chunk of int64 probe vertices with its codes, marks
    # and hits, and the endpoint draws, kept to clear their marks; the n-byte
    # code table is the graph's, built with it. The vertices are freed before
    # a chunk's codes are tallied, by one np.bincount. Tallied with the
    # vertices still held, the peaks were 1.03 and 2.25 MB; with a code table
    # built per estimate, 0.65 and 1.82 MB. The star's uint32 codes are
    # decoded and counted by bucket a chunk at a time, at 1.23 MB; tallied
    # by code below 2^16 and counted by bucket above it, they peaked at
    # 1.29 MB, and a code tally of 2^16 bins at 2.62 MB
    graph = graph_from_spec(spec, 0)
    tracemalloc.start()
    try:
        estimate_edges(graph, EstimatorParams(0.25, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_heavy_fraction_rejects_vertices_outside_the_graph():
    config = BucketConfig(10, 0.5)
    heavy = HeavySet(
        indices=np.arange(config.t), bucket_counts=np.zeros(config.t, dtype=np.int64), sample_size=2, threshold=0.0
    )
    # a negative id used to index the endpoint mask from its end and count as
    # a match, so this call returned 10.0
    with pytest.raises(ValueError, match="endpoints must lie in 0..9"):
        heavy_fraction_estimate(np.array([-1]), np.array([-1, -1]), np.array([10, 10]), heavy, config)
    with pytest.raises(ValueError, match="endpoints must lie in 0..9"):
        heavy_fraction_estimate(np.array([10]), np.array([1, 2]), np.array([10, 10]), heavy, config)
    with pytest.raises(ValueError, match="sampled vertices must lie in 0..9"):
        heavy_fraction_estimate(np.array([1]), np.array([1, -1]), np.array([10, 10]), heavy, config)
    with pytest.raises(ValueError, match="sampled vertices must lie in 0..9"):
        heavy_fraction_estimate(np.array([1]), np.array([1, 10]), np.array([10, 10]), heavy, config)
    assert heavy_fraction_estimate(np.array([9]), np.array([0, 9]), np.array([10, 10]), heavy, config) == 5.0
