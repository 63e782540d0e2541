import copy
import json
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecount import (
    BRANCH_COLLISION,
    BRANCH_FAILED,
    BRANCH_NON_COLLISION,
    BRANCH_ZERO_EDGES,
    BucketConfig,
    DegreeCodes,
    EstimatorParams,
    Graph,
    GraphValidationError,
    HeavySet,
    QueryLedger,
    QueryPlan,
    answer_degree_codes,
    answer_plan,
    answer_rand_edge_ids,
    build_graph,
    build_sample_plan,
    choose_endpoints,
    classify_heavy,
    collision_edge_estimate,
    collision_majority_vote,
    count_collisions,
    derive_rng,
    derive_seed,
    estimate_edges,
    exact_bucket_sizes,
    exact_heavy_fraction,
    gen_clique_plus_isolated,
    gen_gnm,
    gen_path,
    graph_from_spec,
    heavy_fraction_estimate,
    heavy_mass_estimate,
    heavy_vertex_mask,
    plan_layout,
)
from edgecount import estimator
from edgecount.estimator import _DEGREE_CHUNK, MAX_PLAN_QUERIES
from edgecount.graph import MAX_VERTICES
from edgecount.oracle import DEG, RAND_EDGE

REFERENCE_N = 10_000


def test_params_validation():
    with pytest.raises(ValueError, match="epsilon"):
        EstimatorParams(epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        EstimatorParams(epsilon=0.81)
    with pytest.raises(ValueError, match="c_t"):
        EstimatorParams(epsilon=0.5, c_t=0.0)
    with pytest.raises(ValueError, match="collision_reps"):
        EstimatorParams(epsilon=0.5, collision_reps=0)
    with pytest.raises(ValueError, match="collision_reps must be an integer, got 1.5"):
        EstimatorParams(epsilon=0.5, collision_reps=1.5)
    assert type(EstimatorParams(epsilon=0.5, collision_reps=np.int64(3)).collision_reps) is int
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"master_seed must lie in 0..{2**64 - 1}, got {seed}"):
            EstimatorParams(epsilon=0.5, master_seed=seed)
    with pytest.raises(ValueError, match="master_seed must be an integer, got 1.5"):
        EstimatorParams(epsilon=0.5, master_seed=1.5)
    # a bool is no integer here, though operator.index reads True as 1
    with pytest.raises(ValueError, match="^master_seed must be an integer, got True$"):
        EstimatorParams(epsilon=0.5, master_seed=True)
    with pytest.raises(ValueError, match="^collision_reps must be an integer, got True$"):
        EstimatorParams(epsilon=0.5, collision_reps=True)
    seeded = EstimatorParams(epsilon=0.5, master_seed=np.int64(3))
    assert type(seeded.master_seed) is int and seeded.master_seed == 3
    assert EstimatorParams(epsilon=0.4).gamma == pytest.approx(0.04)
    # gamma is derived, not set, and bit-equal to epsilon / 10 (not epsilon * 0.1)
    with pytest.raises(TypeError):
        EstimatorParams(epsilon=0.25, gamma=0.1)
    for epsilon in (0.1, 0.25, 0.8):
        assert EstimatorParams(epsilon=epsilon).gamma == epsilon / 10.0


@pytest.mark.parametrize("name", ["c_s", "c_t", "c_f", "c_r"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite_constants(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        EstimatorParams(epsilon=0.25, **{name: value})


@pytest.mark.parametrize("name", ["epsilon", "c_s", "c_t", "c_f", "c_r"])
@pytest.mark.parametrize("value", [True, np.True_, "2", None])
def test_params_name_a_real_field_that_is_no_real_number(name, value):
    with pytest.raises(TypeError) as info:
        EstimatorParams(**{"epsilon": 0.25, name: value})
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"c_s": 1e308}, "degree sample at n=1000 from c_s=1e+308, epsilon=0.25"),
        ({"epsilon": 1e-300}, "degree sample at n=1000 from c_s=2.0, epsilon=1e-300"),
        ({"c_t": 1e308}, "endpoint sample at n=1000 from c_t=1e+308, epsilon=0.25"),
        ({"c_t": 1e-300, "epsilon": 1e-100}, "endpoint sample at n=1000 from c_t=1e-300, epsilon=1e-100"),
        ({"c_r": 1e308}, "vote rounds at n=1000 from c_r=1e+308"),
        ({"c_f": 1e308}, "collision sample at n=1000 from c_f=1e+308, epsilon=0.25"),
    ],
)
def test_plan_layout_names_the_parameters_of_an_unsizeable_block(overrides, named):
    params = EstimatorParams(**{"epsilon": 0.25, **overrides})
    for build in (plan_layout, build_sample_plan):
        with pytest.raises(ValueError) as info:
            build(1000, params)
        assert str(info.value) == f"cannot size the {named}"


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"c_s": 1e12}, "degree sample, comes from c_s=1000000000000.0, epsilon=0.25"),
        ({"c_s": 1e300}, "degree sample, comes from c_s=1e+300, epsilon=0.25"),
        ({"c_t": 1e12}, "endpoint sample, comes from c_t=1000000000000.0, epsilon=0.25"),
        ({"c_r": 1e9}, "vote, comes from c_r=1000000000.0"),
        ({"collision_reps": 10**7}, "collision sample, comes from c_f=2.0, epsilon=0.25, collision_reps=10000000"),
        ({"collision_reps": 10**400}, "collision sample, comes from c_f=2.0, epsilon=0.25, collision_reps=1000"),
    ],
)
def test_plan_layout_rejects_plans_above_the_query_ceiling(overrides, named):
    params = EstimatorParams(**{"epsilon": 0.25, **overrides})
    graph = gen_gnm(1000, 2000, seed=0)
    for build in (plan_layout, build_sample_plan, lambda n, p: estimate_edges(graph, p)):
        # rejected before any block is drawn
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                build(1000, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(info.value)
        assert message.startswith(f"the plan at n=1000 has more than MAX_PLAN_QUERIES={MAX_PLAN_QUERIES} queries; ")
        assert f"its largest block, the {named}" in message
        assert peak < 100_000


def test_plan_query_ceiling_is_inclusive(monkeypatch):
    params = EstimatorParams(epsilon=0.25)
    total = plan_layout(1000, params).total
    monkeypatch.setattr(estimator, "MAX_PLAN_QUERIES", total)
    assert plan_layout(1000, params).total == total
    monkeypatch.setattr(estimator, "MAX_PLAN_QUERIES", total - 1)
    with pytest.raises(ValueError, match=f"has more than MAX_PLAN_QUERIES={total - 1} queries"):
        plan_layout(1000, params)


@pytest.mark.parametrize("bad_degree", [99, -1])
def test_estimate_checks_degree_answers_once_before_tallying(bad_degree):
    # a degree table whose vertex 3 claims a degree outside 0..n is refused
    # when the oracle's table is built, once per estimate, so no estimate
    # ever answers that degree
    with pytest.raises(ValueError) as info:
        DegreeCodes(np.array([1, 2, 1, bad_degree]))
    assert str(info.value) == "degrees must lie in 0..4"


@pytest.mark.parametrize("row", [[0, 7], [-1, 2]])
def test_estimate_checks_the_chosen_endpoints(row):
    # a hand-built graph whose one edge has an endpoint outside 0..n-1 (a
    # negative one would index the endpoint mask from its end) is refused
    # when it is built, so no estimate ever draws that endpoint
    with pytest.raises(GraphValidationError) as info:
        Graph(4, [row])
    assert str(info.value) == f"edge ({row[0]}, {row[1]}): endpoint out of range for n=4"


def test_sample_sizes_frozen_at_reference_scale():
    params = EstimatorParams(epsilon=0.25)
    layout = plan_layout(REFERENCE_N, params)
    assert layout.degree_size == 58_947
    assert layout.endpoint_size == 922
    assert layout.vote_rounds == 47
    assert layout.vote_batch == 142
    assert layout.collision_size == 7_369
    assert layout.total == 73_912
    assert layout.total == layout.degree_size + layout.endpoint_size + layout.vote_size + layout.collision_size


def test_layout_slices_partition_the_plan():
    layout = plan_layout(500, EstimatorParams(epsilon=0.5, collision_reps=3))
    assert layout.degree_slice.stop == layout.endpoint_slice.start
    assert layout.endpoint_slice.stop == layout.vote_slice.start
    assert layout.vote_slice.stop == layout.collision_slice.start
    assert layout.collision_slice.stop == layout.total
    assert layout.collision_slice.stop - layout.collision_slice.start == 3 * layout.collision_size
    with pytest.raises(ValueError):
        plan_layout(1, EstimatorParams(epsilon=0.5))


def test_plan_layout_rejects_vertex_counts_beyond_max():
    params = EstimatorParams(epsilon=0.25)
    assert plan_layout(MAX_VERTICES, params).total > 0
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        plan_layout(MAX_VERTICES + 1, params)
    # rejected before the ~600 MB degree-vertex block is drawn
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            build_sample_plan(MAX_VERTICES + 1, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_sample_plan_deterministic_and_graph_blind():
    params = EstimatorParams(epsilon=0.5, master_seed=4)
    layout = plan_layout(300, params)
    plan = build_sample_plan(300, params)
    assert plan == build_sample_plan(300, params)
    assert plan != build_sample_plan(300, EstimatorParams(epsilon=0.5, master_seed=5))
    assert len(plan) == layout.total
    assert plan.counts() == {
        "deg": layout.degree_size,
        "rand_edge": layout.total - layout.degree_size,
    }
    degree_vertices = plan.arg_a[: layout.degree_size]
    assert np.all(plan.kinds[: layout.degree_size] == DEG)
    assert np.all((degree_vertices >= 0) & (degree_vertices < 300))
    assert np.all(plan.kinds[layout.degree_size :] == RAND_EDGE)
    assert plan.provenance.n == 300
    assert plan.provenance.epsilon == 0.5
    assert plan.provenance.seed == 4


def test_classify_heavy_single_bucket_for_clique_sample():
    config = BucketConfig(100, 0.025)
    heavy = classify_heavy(np.full(400, 99), config, epsilon=0.25)
    assert heavy.indices.tolist() == [config.bucket_index(99)]
    assert heavy.bucket_counts.sum() == 400
    assert heavy.sample_size == 400


def test_classify_heavy_degree_zero_answers_join_no_bucket():
    config = BucketConfig(100, 0.025)
    heavy = classify_heavy(np.zeros(50, dtype=np.int64), config, epsilon=0.25)
    assert heavy.indices.size == 0
    assert heavy.bucket_counts.sum() == 0
    assert heavy.sample_size == 50
    with pytest.raises(ValueError):
        classify_heavy(np.zeros(0, dtype=np.int64), config, epsilon=0.25)


def test_classify_threshold_frozen_value():
    config = BucketConfig(REFERENCE_N, 0.024)
    assert config.t == 390
    heavy = classify_heavy(np.array([1]), config, epsilon=0.24)
    assert heavy.threshold == pytest.approx(math.sqrt(0.24 / 60_000.0) / 390)
    assert heavy.threshold == pytest.approx(5.128205128205128e-06)


def test_heavy_mass_estimate_full_clique_sample():
    config = BucketConfig(100, 0.025)
    heavy = classify_heavy(np.full(100, 99), config, epsilon=0.25)
    mass = heavy_mass_estimate(heavy, config)
    assert mass == pytest.approx(100 * config.powers[config.bucket_index(99)])
    assert 9900 <= mass <= 1.025 * 9900


def test_heavy_mass_estimate_empty_heavy_set():
    config = BucketConfig(100, 0.025)
    heavy = HeavySet(
        indices=np.zeros(0, dtype=np.int64),
        bucket_counts=np.zeros(config.t, dtype=np.int64),
        sample_size=10,
        threshold=0.1,
    )
    assert heavy_mass_estimate(heavy, config) == 0.0


@pytest.mark.parametrize(
    "edge_u, edge_v, message",
    [
        ([1, 2, 3], [5], "^edge_u and edge_v must have equal lengths, got 3 and 1$"),
        (np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64), r"^edge_u must be a 1-d array, got shape \(2, 2\)$"),
        ([1, 2], [1.0, 2.0], "^edge_v must be integers, got dtype float64$"),
    ],
    ids=["lengths", "two-d", "float"],
)
def test_choose_endpoints_refuses_columns_that_are_not_one_length_of_integers(edge_u, edge_v, message):
    # [1, 2, 3] against [5] broadcast to [5, 5, 5], and (2, 2) columns drew one coin per column
    rng = derive_rng(0, "estimate:endpoint-coins")
    with pytest.raises(ValueError, match=message):
        choose_endpoints(edge_u, edge_v, rng)
    assert rng.bit_generator.state == derive_rng(0, "estimate:endpoint-coins").bit_generator.state


def test_choose_endpoints_is_a_fair_coin():
    count = 20_000
    u = np.arange(count) * 2
    v = np.arange(count) * 2 + 1
    rng = derive_rng(0, "estimate:endpoint-coins")
    picked = choose_endpoints(u, v, rng)
    assert np.all((picked == u) | (picked == v))
    share_v = (picked == v).mean()
    assert 0.47 <= share_v <= 0.53
    again = choose_endpoints(u, v, derive_rng(0, "estimate:endpoint-coins"))
    assert np.array_equal(picked, again)


def test_heavy_fraction_is_one_when_everything_is_heavy():
    config = BucketConfig(100, 0.025)
    sampled_vertices = np.arange(100)
    sampled_degrees = np.full(100, 99)
    heavy = classify_heavy(sampled_degrees, config, epsilon=0.25)
    fraction = heavy_fraction_estimate(np.array([0, 5, 99]), sampled_vertices, sampled_degrees, heavy, config)
    assert fraction == 1.0


def test_heavy_fraction_edge_cases():
    config = BucketConfig(100, 0.025)
    sampled_vertices = np.arange(10)
    sampled_degrees = np.zeros(10, dtype=np.int64)
    heavy = classify_heavy(sampled_degrees, config, epsilon=0.25)
    assert heavy_fraction_estimate(np.array([3, 4]), sampled_vertices, sampled_degrees, heavy, config) == 0.0
    with pytest.raises(ValueError):
        heavy_fraction_estimate(np.zeros(0, dtype=np.int64), sampled_vertices, sampled_degrees, heavy, config)


def test_classify_heavy_refuses_answers_that_are_not_one_row():
    # (2, 2) answers were classified with a sample size of 2, not 4
    config = BucketConfig(100, 0.025)
    with pytest.raises(ValueError, match=r"^degree answers must be a 1-d array, got shape \(2, 2\)$"):
        classify_heavy(np.full((2, 2), 5), config, epsilon=0.25)


def test_heavy_fraction_refuses_endpoints_or_samples_that_are_not_one_row():
    # (1, 2) endpoints were counted as 1 draw: the estimate read 5.0, not 2.5
    config = BucketConfig(100, 0.025)
    vertices, degrees = np.array([0, 1]), np.array([99, 99])
    heavy = classify_heavy(degrees, config, epsilon=0.25)
    with pytest.raises(ValueError, match=r"^endpoints must be a 1-d array, got shape \(1, 2\)$"):
        heavy_fraction_estimate(np.array([[0, 1]]), vertices, degrees, heavy, config)
    with pytest.raises(ValueError, match=r"^degree answers must be a 1-d array, got shape \(1, 2\)$"):
        heavy_fraction_estimate(np.array([0, 1]), vertices.reshape(1, 2), degrees.reshape(1, 2), heavy, config)


def test_heavy_fraction_conditionally_unbiased():
    # with the degree sample held fixed, the estimator's mean over fresh edge
    # draws and coins must hit the exact degree-weighted target
    g = gen_gnm(2000, 6000, seed=3)
    config = BucketConfig.from_epsilon(2000, 0.5)
    sample_rng = np.random.default_rng(42)
    sampled_vertices = sample_rng.integers(0, 2000, size=800)
    sampled_degrees = g.degrees[sampled_vertices]
    heavy = classify_heavy(sampled_degrees, config, epsilon=0.5)
    mask = heavy_vertex_mask(g, heavy.indices, config)
    multiplicity = np.bincount(sampled_vertices, minlength=2000)
    target = (2000 / 800) * float(
        (g.degrees.astype(np.float64) / (2.0 * g.m) * multiplicity * mask).sum()
    )
    assert target > 0
    estimates = []
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        drawn = rng.integers(0, g.m, size=300)
        endpoints = choose_endpoints(g.edges[drawn, 0], g.edges[drawn, 1], rng)
        estimates.append(
            heavy_fraction_estimate(endpoints, sampled_vertices, sampled_degrees, heavy, config)
        )
    estimates = np.array(estimates)
    stderr = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - target) <= 3 * stderr


def test_bucket_frequencies_track_true_bucket_sizes():
    g = gen_gnm(2000, 6000, seed=3)
    config = BucketConfig.from_epsilon(2000, 0.5)
    true_sizes = exact_bucket_sizes(g, config)
    modal = int(np.argmax(true_sizes))
    p = true_sizes[modal] / 2000
    rng = np.random.default_rng(7)
    freqs = []
    for _ in range(200):
        sample = rng.integers(0, 2000, size=1000)
        heavy = classify_heavy(g.degrees[sample], config, epsilon=0.5)
        freqs.append(heavy.bucket_counts[modal] / heavy.sample_size)
    freqs = np.array(freqs)
    stderr = math.sqrt(p * (1 - p) / (1000 * 200))
    assert abs(freqs.mean() - p) <= 3 * stderr


@pytest.fixture(scope="module")
def dense_graph():
    return gen_gnm(REFERENCE_N, 100_000, seed=7)


@pytest.fixture(scope="module")
def pipeline_trials(dense_graph):
    rows = []
    for trial in range(200):
        params = EstimatorParams(epsilon=0.25, master_seed=derive_seed(99, f"trial:{trial}"))
        report = estimate_edges(dense_graph, params)
        plan = build_sample_plan(REFERENCE_N, params)
        transcript = answer_plan(
            dense_graph, plan, derive_seed(params.master_seed, "oracle:answers")
        )
        heavy = classify_heavy(transcript.degrees, BucketConfig(REFERENCE_N, params.gamma), params.epsilon)
        rows.append((report, report.d_tilde_h, report.p_tilde_h, heavy, params))
    return rows


def test_sampled_mass_tracks_exact_bucket_mass(dense_graph, pipeline_trials):
    ratios = []
    for _, mass, _, heavy, params in pipeline_trials:
        config = BucketConfig(REFERENCE_N, params.gamma)
        sizes = exact_bucket_sizes(dense_graph, config)
        exact_scaled = float((sizes[heavy.indices] * config.powers[heavy.indices]).sum())
        ratios.append(mass / exact_scaled)
    mean = float(np.mean(ratios))
    assert abs(mean - 1.0) <= 0.02


def test_sampled_fraction_tracks_exact_heavy_fraction(dense_graph, pipeline_trials):
    ratios = []
    for _, _, fraction, heavy, params in pipeline_trials:
        config = BucketConfig(REFERENCE_N, params.gamma)
        exact = exact_heavy_fraction(dense_graph, heavy.indices, config)
        ratios.append(fraction / exact)
    mean = float(np.mean(ratios))
    assert abs(mean - 1.0) <= 0.03


def test_ratio_estimate_composes_mass_and_fraction(pipeline_trials):
    for report, mass, fraction, _, _ in pipeline_trials[:20]:
        assert report.branch == BRANCH_NON_COLLISION
        assert report.m_hat == pytest.approx(mass / (2 * fraction))


def test_degenerate_fraction_takes_failed_branch():
    # a single degree probe, on no chosen endpoint
    g = gen_clique_plus_isolated(100, 99)
    params = EstimatorParams(epsilon=0.25, master_seed=0, c_s=0.0001)
    assert plan_layout(100, params).degree_size == 1
    report = estimate_edges(g, params).to_json_dict()
    assert report["branch"] == BRANCH_FAILED
    assert report["m_hat"] is None
    assert report["p_tilde_h"] == 0.0
    assert report["d_tilde_h"] > 0.0
    # the public kernels on the whole transcript see the same zero fraction
    assert reference_report(g, params) == report


def test_complete_graph_estimates_cluster_near_truth():
    g = gen_clique_plus_isolated(100, 100)
    true_m = g.m
    assert true_m == math.comb(100, 2)
    hits = 0
    for seed in range(200):
        report = estimate_edges(g, EstimatorParams(epsilon=0.25, master_seed=seed))
        assert report.branch == BRANCH_NON_COLLISION
        if 0.75 * true_m <= report.m_hat <= 1.25 * true_m:
            hits += 1
    assert hits >= 190


def test_estimate_edges_dense_branch(dense_graph):
    params = EstimatorParams(epsilon=0.25, master_seed=0)
    report = estimate_edges(dense_graph, params)
    assert report.branch == BRANCH_NON_COLLISION
    assert report.k == 0
    assert abs(report.m_hat - 100_000) <= 0.25 * 100_000
    assert report.queries.total == plan_layout(REFERENCE_N, params).total


def test_estimate_edges_sparse_branch():
    g = gen_path(REFERENCE_N)
    params = EstimatorParams(epsilon=0.25, master_seed=0)
    report = estimate_edges(g, params)
    assert report.branch == BRANCH_COLLISION
    assert report.k == 1
    assert report.r > 0
    layout = plan_layout(REFERENCE_N, params)
    assert report.m_hat == pytest.approx(math.comb(layout.collision_size, 2) / report.r)


def test_estimate_edges_failed_branch():
    g = gen_clique_plus_isolated(100, 99)
    report = estimate_edges(g, EstimatorParams(epsilon=0.25, master_seed=0, c_s=0.0001))
    assert report.branch == BRANCH_FAILED
    assert report.m_hat is None
    assert report.k == 0
    assert report.r > 0
    assert report.p_tilde_h == 0.0


def test_estimate_edges_zero_edges_branch():
    g = build_graph(50, [])
    report = estimate_edges(g, EstimatorParams(epsilon=0.5))
    assert report.branch == BRANCH_ZERO_EDGES
    assert report.m_hat == 0.0
    assert report.queries.total == 0


def test_report_json_shape(dense_graph):
    report = estimate_edges(dense_graph, EstimatorParams(epsilon=0.25))
    payload = report.to_json_dict()
    assert list(payload) == ["m_hat", "branch", "r", "k", "d_tilde_h", "p_tilde_h", "queries"]
    assert sorted(payload["queries"]) == ["deg", "rand_edge"]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(8, 60),
    density=st.floats(0.0, 1.0),
    epsilon=st.sampled_from([0.25, 0.5, 0.8]),
    master_seed=st.integers(0, 2**32),
    graph_seed=st.integers(0, 2**32),
)
def test_estimate_report_invariants(n, density, epsilon, master_seed, graph_seed):
    m = int(density * math.comb(n, 2))
    g = gen_gnm(n, m, seed=graph_seed)
    params = EstimatorParams(epsilon=epsilon, master_seed=master_seed)
    report = estimate_edges(g, params)
    layout = plan_layout(n, params)
    if report.branch == BRANCH_ZERO_EDGES:
        assert m == 0
        assert report.m_hat == 0.0
        assert report.queries.total == 0
        return
    assert report.queries.total == layout.total
    assert (report.branch == BRANCH_COLLISION) == (report.r > 0 and report.k == 1)
    if report.branch == BRANCH_COLLISION:
        assert report.m_hat == pytest.approx(math.comb(layout.collision_size, 2) / report.r)
    elif report.branch == BRANCH_FAILED:
        assert report.m_hat is None
        assert report.p_tilde_h == 0.0
    else:
        assert report.m_hat >= 0.0
        assert report.m_hat == pytest.approx(report.d_tilde_h / (2 * report.p_tilde_h))


def reference_report(graph, params):
    """``estimate_edges(graph, params).to_json_dict()`` rebuilt from the whole
    plan and transcript with the public kernels, block by block in plan order."""
    n = graph.n
    layout = plan_layout(n, params)
    plan = build_sample_plan(n, params)
    transcript = answer_plan(graph, plan, derive_seed(params.master_seed, "oracle:answers"))
    offset = layout.degree_size
    blocks = {
        name: transcript.edges[piece.start - offset : piece.stop - offset]
        for name, piece in (
            ("endpoint", layout.endpoint_slice),
            ("vote", layout.vote_slice),
            ("collision", layout.collision_slice),
        )
    }
    vote = blocks["vote"]
    k = collision_majority_vote(vote[:, 0], vote[:, 1], layout.vote_rounds, layout.vote_batch)
    size = layout.collision_size
    reps = sorted(count_collisions(blocks["collision"][j * size : (j + 1) * size]) for j in range(layout.collision_reps))
    r = reps[len(reps) // 2]
    config = BucketConfig(n, params.gamma)
    heavy = classify_heavy(transcript.degrees, config, params.epsilon)
    mass = heavy_mass_estimate(heavy, config)
    drawn = blocks["endpoint"]
    endpoints = choose_endpoints(drawn[:, 0], drawn[:, 1], derive_rng(params.master_seed, "estimate:endpoint-coins"))
    fraction = heavy_fraction_estimate(endpoints, plan.deg_vertices, transcript.degrees, heavy, config)
    if r > 0 and k == 1:
        m_hat, branch = collision_edge_estimate(size, r), BRANCH_COLLISION
    elif fraction == 0.0:
        m_hat, branch = None, BRANCH_FAILED
    else:
        m_hat, branch = mass / (2.0 * fraction), BRANCH_NON_COLLISION
    return {
        "m_hat": m_hat,
        "branch": branch,
        "r": r,
        "k": k,
        "d_tilde_h": mass,
        "p_tilde_h": fraction,
        "queries": transcript.ledger.as_dict(),
    }


# Graphs whose degree block spans several chunks at epsilon = 0.25: sparse
# and skewed (collision branch) and dense (non-collision branch).
STREAM_GRAPHS = ("gnm:200000,100000", "skewed:200000,2.5", "gnm:60000,600000")


@pytest.fixture(scope="module", params=STREAM_GRAPHS)
def stream_graph(request):
    return graph_from_spec(request.param, 7)


def test_stream_graphs_span_several_degree_chunks(stream_graph):
    assert plan_layout(stream_graph.n, EstimatorParams(epsilon=0.25)).degree_size > _DEGREE_CHUNK


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_estimate_matches_the_whole_transcript(stream_graph, seed, reps):
    params = EstimatorParams(epsilon=0.25, master_seed=seed, collision_reps=reps)
    streamed = json.dumps(estimate_edges(stream_graph, params).to_json_dict(), sort_keys=True)
    assert streamed == json.dumps(reference_report(stream_graph, params), sort_keys=True)


@pytest.mark.parametrize("reps", [1, 3])
def test_streamed_queries_and_answers_concatenate_to_the_plan(monkeypatch, stream_graph, reps):
    probes, degrees, rand_counts, edges = [], [], [], []

    def record_degree_codes(table, vertices, ledger):
        probes.append(vertices.copy())
        codes = answer_degree_codes(table, vertices, ledger)
        degrees.append(DegreeCodes.decoded(codes))
        return codes

    def record_rand_edge_ids(graph, rng, count, ledger):
        rand_counts.append(count)
        ids = answer_rand_edge_ids(graph, rng, count, ledger)
        edges.append(graph.edges.take(ids, axis=0))
        return ids

    monkeypatch.setattr(estimator, "answer_degree_codes", record_degree_codes)
    monkeypatch.setattr(estimator, "answer_rand_edge_ids", record_rand_edge_ids)
    n = stream_graph.n
    params = EstimatorParams(epsilon=0.25, master_seed=5, collision_reps=reps)
    report = estimate_edges(stream_graph, params)

    layout = plan_layout(n, params)
    plan = build_sample_plan(n, params)
    assert QueryPlan(np.concatenate(probes), sum(rand_counts), plan.provenance) == plan
    assert len(probes) == -(-layout.degree_size // _DEGREE_CHUNK)
    assert rand_counts == [layout.endpoint_size, layout.vote_size] + [layout.collision_size] * reps
    assert report.queries.as_dict() == plan.counts()
    transcript = answer_plan(stream_graph, plan, derive_seed(params.master_seed, "oracle:answers"))
    assert np.array_equal(np.concatenate(degrees), transcript.degrees)
    assert np.array_equal(np.concatenate(edges), transcript.edges)


def test_an_estimate_that_fails_mid_stream_leaves_no_mark(monkeypatch):
    graph = graph_from_spec(STREAM_GRAPHS[0], 7)
    params = EstimatorParams(epsilon=0.25, master_seed=3)
    chunks = []

    def fail_on_second_chunk(table, vertices, ledger):
        chunks.append(vertices.shape[0])
        if len(chunks) == 2:
            raise RuntimeError("second chunk")
        return answer_degree_codes(table, vertices, ledger)

    with monkeypatch.context() as patch:
        patch.setattr(estimator, "answer_degree_codes", fail_on_second_chunk)
        with pytest.raises(RuntimeError, match="^second chunk$"):
            estimate_edges(graph, params)
    assert len(chunks) == 2
    table = graph.degree_codes
    assert not table.marked(answer_degree_codes(table, np.arange(graph.n), QueryLedger())).any()
    fresh = graph_from_spec(STREAM_GRAPHS[0], 7)
    assert estimate_edges(graph, params) == estimate_edges(fresh, params)


def test_concurrent_estimates_on_one_graph_match_sequential_ones():
    # each estimate marks its own endpoint draws, on the shared code table or,
    # while another estimate holds it, on an unmarked copy; a foreign or lost
    # mark would move the heavy fraction. The threads switch often, so that
    # estimates interleave inside their degree streams
    graph = graph_from_spec("gnm:10000,100000", 0)
    seeds = [range(20 * i, 20 * i + 20) for i in range(3)]
    reports = [[] for _ in seeds]

    def run(i):
        for seed in seeds[i]:
            reports[i].append(estimate_edges(graph, EstimatorParams(epsilon=0.25, master_seed=seed)))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, run_seeds in enumerate(seeds):
        assert reports[i] == [estimate_edges(graph, EstimatorParams(epsilon=0.25, master_seed=s)) for s in run_seeds]


def test_an_estimate_inside_a_marking_and_on_copied_graphs_equals_one_outside():
    # the estimate marks a copy of the held table rather than wait for it in
    # vain, and pickles and copies of a graph rebuild its table; joined with
    # a timeout, so that a wait fails the test rather than hanging it
    graph = graph_from_spec(STREAM_GRAPHS[0], 7)
    params = EstimatorParams(epsilon=0.25, master_seed=3)
    expected = estimate_edges(graph, params)
    reports = []

    def run():
        with graph.degree_codes.marking(np.arange(0, graph.n, 3)):
            reports.append(estimate_edges(graph, params))
        reports.extend(estimate_edges(other, params) for other in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert reports == [expected] * 3


def test_estimate_peak_memory_stays_below_8_mb():
    # the whole plan and transcript of this graph take 14 MB
    graph = graph_from_spec("gnm:1000000,500000", 0)
    params = EstimatorParams(epsilon=0.25, master_seed=1)
    tracemalloc.start()
    try:
        report = estimate_edges(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.queries.total == plan_layout(graph.n, params).total
    assert peak < 8_000_000


def test_estimate_peak_memory_on_gnm_stays_within_2_6_mb():
    # half-size degree chunks, no per-degree table beyond the dense cutoff
    # and the endpoint rows freed once the endpoints are chosen: 2.42 MB
    graph = graph_from_spec("gnm:1000000,500000", 0)
    params = EstimatorParams(epsilon=0.25, master_seed=1)
    tracemalloc.start()
    try:
        estimate_edges(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_600_000


def test_estimate_peak_memory_on_gnm_stays_within_2_3_mb():
    # its uint8 degree codes top out below 64, so each chunk is tallied as
    # half as many uint16 pairs, whose intp cast in bincount is half the
    # size: 2.25 MB
    graph = graph_from_spec("gnm:1000000,500000", 0)
    params = EstimatorParams(epsilon=0.25, master_seed=1)
    tracemalloc.start()
    try:
        estimate_edges(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_300_000


def test_estimate_peak_memory_stays_below_10_mb_when_the_hub_is_probed():
    # the hub's degree n - 1 used to size an intp tally and a bucket lookup
    # table, 24 MB each at this n
    graph = graph_from_spec("star:3000000", 0)
    params = EstimatorParams(epsilon=0.25, master_seed=2)
    assert np.count_nonzero(build_sample_plan(graph.n, params).deg_vertices == 0) >= 1
    tracemalloc.start()
    try:
        report = estimate_edges(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.queries.total == plan_layout(graph.n, params).total
    assert peak < 10_000_000


def test_estimate_peak_memory_stays_below_6_mb_when_the_hub_is_probed():
    # the graph's one n-byte table of degree codes, saturated at the hub,
    # replaces the n-byte endpoint mask and the gathers from the 4-byte degree table
    graph = graph_from_spec("star:3000000", 0)
    params = EstimatorParams(epsilon=0.25, master_seed=2)
    assert np.count_nonzero(build_sample_plan(graph.n, params).deg_vertices == 0) >= 1
    tracemalloc.start()
    try:
        report = estimate_edges(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.queries.total == plan_layout(graph.n, params).total
    assert peak < 6_000_000
