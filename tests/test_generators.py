from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgecount import (
    GraphValidationError,
    build_graph,
    gen_clique_plus_isolated,
    gen_gnm,
    gen_lowerbound_instance,
    gen_path,
    gen_skewed,
    gen_star,
    graph_from_spec,
)
from edgecount import generators
from edgecount.graph import MAX_VERTICES, pair_codes, run_starts, sorted_unique


def test_gnm_complete_graph():
    g = gen_gnm(10, 45, seed=3)
    assert g.m == 45
    assert np.all(g.degrees == 9)


def test_gnm_exact_count_large_sparse():
    g = gen_gnm(10_000, 100_000, seed=1)
    assert g.n == 10_000
    assert g.m == 100_000


def test_gnm_exact_count_rejection_path():
    # enough candidate pairs to force sampling by rejection rather than
    # enumerating them all
    g = gen_gnm(3000, 5000, seed=2)
    assert g.m == 5000
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    assert gen_gnm(3000, 0, seed=2).m == 0


def test_gnm_deterministic():
    a = gen_gnm(500, 2000, seed=9)
    b = gen_gnm(500, 2000, seed=9)
    assert a == b
    assert a.edges.tobytes() == b.edges.tobytes()
    assert a != gen_gnm(500, 2000, seed=10)


def test_gnm_bounds():
    assert gen_gnm(5, 0, seed=0).m == 0
    with pytest.raises(GraphValidationError, match="outside"):
        gen_gnm(5, 11, seed=0)
    with pytest.raises(GraphValidationError):
        gen_gnm(0, 0, seed=0)


def test_path_and_star_shapes():
    p = gen_path(10_000)
    assert p.m == 9999
    assert p.degrees[0] == p.degrees[-1] == 1
    assert np.all(p.degrees[1:-1] == 2)

    s = gen_star(100)
    assert s.m == 99
    assert s.degrees[0] == 99
    assert np.all(s.degrees[1:] == 1)


def test_clique_plus_isolated():
    g = gen_clique_plus_isolated(10_000, 500)
    assert g.m == math.comb(500, 2)
    assert g.m >= 8 * g.n  # dense enough for the sparse-regime vote to say no
    assert np.all(g.degrees[:500] == 499)
    assert np.all(g.degrees[500:] == 0)
    with pytest.raises(GraphValidationError, match="outside"):
        gen_clique_plus_isolated(10, 11)


def test_skewed_degree_tail_follows_exponent():
    flat = gen_skewed(5000, 1.5, seed=4)
    steep = gen_skewed(5000, 4.5, seed=4)
    d_max = round(math.sqrt(5000))
    for g in (flat, steep):
        assert g.m > 0
        assert g.degrees.max() <= d_max + 1
    # a flatter tail yields noticeably more edge mass
    assert flat.m > 1.5 * steep.m
    assert gen_skewed(5000, 1.5, seed=4) == flat


def test_gen_named_dispatch():
    assert graph_from_spec("path:5").m == 4
    assert graph_from_spec("star:5").m == 4
    assert graph_from_spec("clique_plus_isolated:6,3").m == 3
    assert graph_from_spec("skewed:50,2.0", seed=1).n == 50
    with pytest.raises(GraphValidationError, match="unknown graph shape"):
        graph_from_spec("torus:5")
    with pytest.raises(GraphValidationError, match="needs k"):
        graph_from_spec("clique_plus_isolated:5")
    with pytest.raises(GraphValidationError, match="needs an exponent"):
        graph_from_spec("skewed:50")


@pytest.mark.parametrize(
    "call, spec, message",
    [
        (lambda: gen_path(1), "path:1", "path requires n >= 2"),
        (lambda: gen_star(1), "star:1", "star requires n >= 2"),
        (lambda: gen_clique_plus_isolated(1, 1), "clique_plus_isolated:1,1", "clique_plus_isolated requires n >= 2"),
        (lambda: gen_skewed(1, 2.0, 0), "skewed:1,2.0", "skewed requires n >= 2"),
        (lambda: gen_skewed(50, 0.0, 0), "skewed:50,0", "skewed requires a positive exponent"),
        (lambda: gen_skewed(50, -1.5, 0), "skewed:50,-1.5", "skewed requires a positive exponent"),
        (lambda: gen_skewed(50, float("nan"), 0), "skewed:50,nan", "skewed requires a positive exponent"),
    ],
    ids=["path", "star", "clique", "skewed-n", "skewed-zero", "skewed-negative", "skewed-nan"],
)
def test_generators_refuse_shapes_below_their_minimum(call, spec, message):
    with pytest.raises(GraphValidationError) as info:
        call()
    assert str(info.value) == message
    with pytest.raises(GraphValidationError) as info:
        graph_from_spec(spec)
    assert str(info.value) == f"bad graph spec {spec!r}: {message}"


def test_graph_from_spec():
    assert graph_from_spec("gnm:100,250", seed=1).m == 250
    assert graph_from_spec("path:40").m == 39
    assert graph_from_spec("clique_plus_isolated:10,4").m == 6
    assert graph_from_spec("skewed:100,2.5", seed=2).n == 100
    for bad in ("gnm", "gnm:10", "path:a", "path:10,20", "blob:3"):
        with pytest.raises(GraphValidationError, match="spec"):
            graph_from_spec(bad)


def test_lowerbound_instance_shape():
    inst = gen_lowerbound_instance(10_000, seed=5)
    assert inst.planted_set.size == 2 * math.ceil(math.sqrt(10_000)) + 1 == 201
    assert inst.graph_a.m == 10_000
    assert inst.graph_b.m == 10_000 // 2 - 1 == 4999
    assert inst.graph_a.degrees.sum() == 2 * 10_000
    assert inst.graph_b.degrees.sum() == 2 * 4999

    planted = set(inst.planted_set.tolist())
    for g in (inst.graph_a, inst.graph_b):
        endpoints = set(g.edges.ravel().tolist())
        assert endpoints <= planted
        outside = np.setdiff1d(np.arange(g.n), inst.planted_set)
        assert np.all(g.degrees[outside] == 0)

    # the sparse-support edge set is carved out of the dense one
    edges_a = {tuple(e) for e in inst.graph_a.edges.tolist()}
    edges_b = {tuple(e) for e in inst.graph_b.edges.tolist()}
    assert edges_b < edges_a


def test_lowerbound_instance_small_n_capacity():
    inst = gen_lowerbound_instance(100, seed=0)
    side = inst.planted_set.size
    assert side == 21
    assert math.comb(side, 2) == 210 >= 100
    assert inst.graph_a.m == 100
    assert inst.graph_b.m == 49


def test_lowerbound_instance_determinism_and_variation():
    a = gen_lowerbound_instance(200, seed=7)
    b = gen_lowerbound_instance(200, seed=7)
    assert a.graph_a == b.graph_a
    assert a.graph_b == b.graph_b
    assert np.array_equal(a.planted_set, b.planted_set)
    c = gen_lowerbound_instance(200, seed=8)
    assert not np.array_equal(a.planted_set, c.planted_set)


def test_lowerbound_instance_needs_room():
    for n in (2, 6):
        with pytest.raises(GraphValidationError, match="n >= 7"):
            gen_lowerbound_instance(n, seed=0)
    assert gen_lowerbound_instance(7, seed=0).planted_set.size == 7


def reference_gen_gnm(n, m, seed):
    """The rejection path as it stood before: every pass re-dedupes all draws so
    far, then one argsort picks the first m distinct codes in draw order."""
    rng = np.random.default_rng(seed)
    collected = np.empty(0, dtype=np.int64)
    distinct = 0
    while distinct < m:
        batch = max(2 * (m - distinct), 1024)
        u = rng.integers(0, n, size=batch, dtype=np.int64)
        v = rng.integers(0, n, size=batch, dtype=np.int64)
        keep = u != v
        codes = np.minimum(u[keep], v[keep]) * np.int64(n) + np.maximum(u[keep], v[keep])
        collected = np.concatenate((collected, codes))
        distinct = sorted_unique(collected).size
    order = np.argsort(collected)
    ordered = collected[order]
    first_pos = np.minimum.reduceat(order, np.flatnonzero(run_starts(ordered)))
    codes = collected[np.sort(first_pos)[:m]]
    return build_graph(n, np.column_stack((codes // n, codes % n)))


def assert_same_graph(a, b):
    assert a.n == b.n
    assert a.edges.tobytes() == b.edges.tobytes()
    assert a.degrees.tobytes() == b.degrees.tobytes()


@pytest.mark.parametrize(
    "n, m",
    [
        (60, 0),  # no pass
        (60, 5),  # one pass, no repeats
        (60, 700),  # one pass, repeats
        (60, 1500),  # several passes, many repeats
        (60, 1770),  # every pair: passes until the last pair turns up
        (2, 1),
        (300, 40000),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gnm_rejection_matches_reference_selection(monkeypatch, n, m, seed):
    # push small graphs through the rejection path, where repeats and
    # several passes are cheap to reach
    monkeypatch.setattr(generators, "_DENSE_ENUMERATION_LIMIT", 0)
    assert_same_graph(gen_gnm(n, m, seed), reference_gen_gnm(n, m, seed))


@pytest.mark.parametrize("n, m", [(3000, 0), (3000, 5000), (10_000, 100_000), (3_000_000, 300_000)])
def test_gnm_matches_reference_selection_at_size(n, m):
    # every case is above the dense enumeration limit, so this is the rejection
    # path at full size; the last case's pair codes reach n * n = 9 * 10**12
    assert_same_graph(gen_gnm(n, m, 7), reference_gen_gnm(n, m, 7))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_gnm_rejection_matches_reference_property(data):
    # random sizes reach the prefix-extension rounds; several passes need m
    # near the number of pairs, so the top quarter is drawn as often as the rest
    n = data.draw(st.integers(2, 80), label="n")
    pairs = n * (n - 1) // 2
    m = data.draw(st.integers(0, pairs) | st.integers(pairs * 3 // 4, pairs), label="m")
    seed = data.draw(st.integers(0, 2**63), label="seed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "_DENSE_ENUMERATION_LIMIT", 0)
        got = gen_gnm(n, m, seed)
    assert_same_graph(got, reference_gen_gnm(n, m, seed))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_gnm_rejection_walks_past_self_loops(n, data):
    # a sixth to a half of the draws at n <= 6 are self-loops, so they cut
    # into the prefix of draws a pass encodes, often more than once
    pairs = n * (n - 1) // 2
    m = data.draw(st.integers(0, pairs), label="m")
    seed = data.draw(st.integers(0, 2**63), label="seed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "_DENSE_ENUMERATION_LIMIT", 0)
        got = gen_gnm(n, m, seed)
    assert_same_graph(got, reference_gen_gnm(n, m, seed))


def whole_batch_gen_gnm(n, m, seed):
    """The rejection path as it stood when every pass drew all ``batch`` values
    of u and then of v, of which it reads only prefixes."""
    rng = np.random.default_rng(seed)
    seen = np.empty(0, dtype=np.int64)
    while seen.size < m:
        need = m - seen.size
        batch = max(2 * need, 1024)
        u = rng.integers(0, n, size=batch, dtype=np.int64)
        v = rng.integers(0, n, size=batch, dtype=np.int64)
        found = np.empty(0, dtype=np.int64)
        read = 0
        while found.size < need and read < batch:
            us, vs = u[read : read + need - found.size], v[read : read + need - found.size]
            read += us.shape[0]
            codes = sorted_unique(pair_codes(us, vs, n)[us != vs])
            if seen.size:
                codes = codes[seen.take(np.searchsorted(seen, codes), mode="clip") != codes]
            found = generators._union(found, codes)
        seen = generators._union(seen, found)
    return build_graph(n, np.column_stack(np.divmod(seen, n)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2001, 4000), m=st.integers(0, 2000) | st.integers(0, 100_000), seed=st.integers(0, 2**63))
@example(n=2100, m=1_500_000, seed=1)  # one pass: the first prefix, then 33 extension rounds
@example(n=2001, m=1_990_000, seed=4)  # 370 passes, up to 150 rounds in one
@example(n=2001, m=100_000, seed=0)  # 61 self-loops among the first prefix's draws
@example(n=2001, m=100_001, seed=0)  # an odd first prefix: the extension rounds start on a buffered half word
def test_gnm_matches_whole_batch_draws(n, m, seed):
    # no monkeypatching: every n here is in the rejection regime
    assert n * (n - 1) // 2 > generators._DENSE_ENUMERATION_LIMIT
    assert_same_graph(gen_gnm(n, m, seed), whole_batch_gen_gnm(n, m, seed))


def test_gnm_forms_only_the_draws_it_reads():
    # the graph itself holds about 17 MB and the peak reads 21.5 MB; whole-batch draws peaked at 38 MB,
    # and forming the unread rest of a pass's u whole instead of in chunks adds 2-4 MB
    tracemalloc.start()
    try:
        gen_gnm(10**6, 5 * 10**5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23e6


def test_gnm_rejects_too_many_vertices():
    with pytest.raises(GraphValidationError, match=f"supported maximum {MAX_VERTICES}"):
        gen_gnm(MAX_VERTICES + 1, 1, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gen_gnm(10.5, 5, 0), "vertex count must be an integer, got 10.5"),
        (lambda: gen_gnm(10, 5.5, 0), "m must be an integer, got 5.5"),
        (lambda: gen_path(10.5), "vertex count must be an integer, got 10.5"),
        (lambda: gen_star(10.5), "vertex count must be an integer, got 10.5"),
        (lambda: gen_clique_plus_isolated(10.5, 2), "vertex count must be an integer, got 10.5"),
        (lambda: gen_clique_plus_isolated(10, 2.5), "k must be an integer, got 2.5"),
        (lambda: gen_skewed(100.5, 2.5, 0), "vertex count must be an integer, got 100.5"),
        (lambda: gen_lowerbound_instance(10.5, 0), "vertex count must be an integer, got 10.5"),
        # checked before each shape compares n with its minimum
        (lambda: gen_path("5"), "vertex count must be an integer, got '5'"),
        (lambda: gen_star(None), "vertex count must be an integer, got None"),
        (lambda: gen_gnm("5", 2, 0), "vertex count must be an integer, got '5'"),
        (lambda: gen_lowerbound_instance("9", 0), "vertex count must be an integer, got '9'"),
        (lambda: gen_skewed(50, "2", 0), "skewed exponent must be a real number, got '2'"),
        (lambda: gen_skewed(50, None, 0), "skewed exponent must be a real number, got None"),
        (lambda: gen_skewed(100, True, 0), "skewed exponent must be a real number, got True"),
        (lambda: gen_gnm(10, True, 0), "m must be an integer, got True"),
    ],
    ids=[
        "gnm-n",
        "gnm-m",
        "path",
        "star",
        "clique-n",
        "clique-k",
        "skewed",
        "lowerbound",
        "path-str",
        "star-none",
        "gnm-str",
        "lowerbound-str",
        "skewed-exponent-str",
        "skewed-exponent-none",
        "skewed-exponent-bool",
        "gnm-m-bool",
    ],
)
def test_generators_refuse_sizes_that_are_no_integers(call, message):
    with pytest.raises(GraphValidationError) as info:
        call()
    assert str(info.value) == message
