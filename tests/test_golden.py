"""Byte-identity pins: digests of estimates, the lower-bound experiment and
generated graphs.

The pinned digests were recorded before the post-processing kernels and the
sort-based dedupe replaced their direct forms. Any change to a random stream,
a bucket boundary, a tie rule or the edge order of a generator moves them.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from edgecount import EstimatorParams, build_graph, estimate_edges, gen_gnm, graph_from_spec, run_distinguishing_experiment

ESTIMATE_GRAPHS = ("gnm:2000,8000", "gnm:3000,1000", "skewed:2000,3.0", "star:1500")

# degree blocks of several chunks each at epsilon = 0.25
STREAMED_GRAPHS = ("gnm:200000,100000", "skewed:200000,2.5", "gnm:60000,600000")

# two stars and a dense graph with a hub of degree 2^15 or more, and a heavy-tailed graph
HUB_SPECS = ("star:300000", "star:40000")


def _hub_graphs():
    yield from (graph_from_spec(spec) for spec in HUB_SPECS)
    dense = gen_gnm(40000, 2_800_000, 0)
    spokes = np.arange(1, dense.n, dtype=np.int64)
    yield build_graph(dense.n, np.concatenate((dense.edges, np.column_stack((np.zeros_like(spokes), spokes)))))
    yield graph_from_spec("skewed:200000,1.2")


GENERATED_GRAPHS = (
    ("gnm:10000,100000", 0),
    ("gnm:1000000,500000", 0),
    ("gnm:3000,1000", 7),
    ("gnm:5000,40000", 3),
    ("skewed:20000,2.5", 1),
    ("gnm:2000,8000", 7),
)


def test_estimates_are_byte_identical():
    # 4 graphs x 30 seeds x 2 epsilons x 1 or 3 collision reps
    h = hashlib.sha256()
    count = 0
    for spec in ESTIMATE_GRAPHS:
        graph = graph_from_spec(spec, 7)
        for seed in range(30):
            for epsilon in (0.25, 0.5):
                for reps in (1, 3):
                    params = EstimatorParams(epsilon=epsilon, master_seed=seed, collision_reps=reps)
                    report = estimate_edges(graph, params).to_json_dict()
                    h.update(json.dumps(report, sort_keys=True).encode())
                    count += 1
    assert count == 480
    assert h.hexdigest()[:16] == "0faff9878a66c508"


def test_streamed_estimates_are_byte_identical():
    # 3 graphs x 5 seeds x 1 or 3 collision reps; pinned on the estimator
    # that answered the whole plan at once
    h = hashlib.sha256()
    count = 0
    for spec in STREAMED_GRAPHS:
        graph = graph_from_spec(spec, 7)
        for seed in range(5):
            for reps in (1, 3):
                params = EstimatorParams(epsilon=0.25, master_seed=seed, collision_reps=reps)
                report = estimate_edges(graph, params).to_json_dict()
                h.update(json.dumps(report, sort_keys=True).encode())
                count += 1
    assert count == 30
    assert h.hexdigest()[:16] == "b8373f51307a5da8"


def test_hub_estimates_are_byte_identical():
    # 4 graphs x 6 seeds x 2 epsilons x 1 or 3 collision reps; pinned while
    # degrees of 2^15 or more still had their own saturated code form
    h = hashlib.sha256()
    count = 0
    for graph in _hub_graphs():
        for seed in range(6):
            for epsilon in (0.25, 0.5):
                for reps in (1, 3):
                    params = EstimatorParams(epsilon=epsilon, master_seed=seed, collision_reps=reps)
                    report = estimate_edges(graph, params).to_json_dict()
                    h.update(json.dumps(report, sort_keys=True).encode())
                    count += 1
    assert count == 96
    assert h.hexdigest()[:16] == "94917af88c302726"


def test_lower_bound_experiment_is_byte_identical():
    result = run_distinguishing_experiment(2000, 60, 200, 5)
    payload = json.dumps([result.summary_dict(), result.csv_rows()], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest()[:16] == "1eaad10b5e37ea04"


def test_generated_graphs_are_byte_identical():
    h = hashlib.sha256()
    for spec, seed in GENERATED_GRAPHS:
        graph = graph_from_spec(spec, seed)
        h.update(graph.edges.tobytes() + graph.degrees.tobytes())
    assert h.hexdigest()[:16] == "474db82f7b7d7fe3"
