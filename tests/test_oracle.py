from __future__ import annotations

import copy
import pickle
import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecount import (
    DegreeCodes,
    EmptyGraphError,
    EstimatorParams,
    PlanProvenance,
    QueryLedger,
    QueryPlan,
    answer_degree_codes,
    answer_degrees,
    answer_plan,
    answer_rand_edge_ids,
    answer_rand_edges,
    audit_nonadaptive,
    build_graph,
    build_sample_plan,
    gen_clique_plus_isolated,
    gen_gnm,
    gen_path,
    gen_star,
    graph_from_spec,
    plan_from_blocks,
    rand_edge_block,
)


def _plan(n, degs=(), rand_edges=0, seed=0):
    """Degree probes at ``degs``, then ``rand_edges`` random-edge draws."""
    return QueryPlan(np.array(degs, np.int64), rand_edges, PlanProvenance(n=n, epsilon=None, seed=seed))


def test_rand_edge_uniform_on_two_edge_path(path3):
    plan = _plan(3, rand_edges=100_000)
    transcript = answer_plan(path3, plan, answer_seed=17)
    edges = list(zip(transcript.ans_a.tolist(), transcript.ans_b.tolist()))
    freq01 = edges.count((0, 1)) / len(edges)
    assert abs(freq01 - 0.5) <= 0.01
    assert set(edges) == {(0, 1), (1, 2)}


def test_rand_edge_uniform_chi_square():
    g = gen_gnm(8, 10, seed=2)
    plan = _plan(8, rand_edges=100_000)
    transcript = answer_plan(g, plan, answer_seed=23)
    codes = transcript.ans_a * 8 + transcript.ans_b
    counts = np.bincount(np.searchsorted(g.edges[:, 0] * 8 + g.edges[:, 1], codes), minlength=g.m)
    result = scipy.stats.chisquare(counts)
    assert result.pvalue >= 1e-3


def test_rand_edge_reports_stored_order():
    g = gen_gnm(50, 300, seed=4)
    transcript = answer_plan(g, _plan(50, rand_edges=500), answer_seed=1)
    assert np.all(transcript.ans_a < transcript.ans_b)


def test_rand_edge_on_empty_graph_is_atomic():
    g = build_graph(4, [])
    ledger = QueryLedger()
    with pytest.raises(EmptyGraphError):
        answer_plan(g, _plan(4, degs=[0], rand_edges=1), answer_seed=0, ledger=ledger)
    assert ledger.total == 0


def test_non_edge_queries_work_on_empty_graph():
    g = build_graph(3, [])
    transcript = answer_plan(g, _plan(3, degs=[1, 0, 2]), answer_seed=0)
    assert transcript.ans_a.tolist() == [0, 0, 0]
    assert transcript.ans_b.tolist() == [-1, -1, -1]
    assert transcript.ledger.as_dict() == {"deg": 3, "rand_edge": 0}


def test_answer_determinism(path3):
    plan = _plan(3, rand_edges=50)
    first = answer_plan(path3, plan, answer_seed=9)
    second = answer_plan(path3, plan, answer_seed=9)
    assert np.array_equal(first.ans_a, second.ans_a)
    assert np.array_equal(first.ans_b, second.ans_b)
    third = answer_plan(path3, plan, answer_seed=10)
    assert not np.array_equal(first.ans_a, third.ans_a) or not np.array_equal(first.ans_b, third.ans_b)


def test_ledger_accumulates_across_plans(triangle):
    ledger = QueryLedger()
    answer_plan(triangle, _plan(3, degs=[0, 1], rand_edges=1), answer_seed=0, ledger=ledger)
    answer_plan(triangle, _plan(3, degs=[2], rand_edges=1), answer_seed=1, ledger=ledger)
    assert ledger.as_dict() == {"deg": 3, "rand_edge": 2}
    assert ledger.total == 5


def test_plan_validation_errors(triangle):
    with pytest.raises(ValueError, match="Deg\\(7\\)"):
        answer_plan(triangle, _plan(3, degs=[7]), answer_seed=0)
    with pytest.raises(ValueError, match="Deg\\(-1\\)"):
        answer_plan(triangle, _plan(3, degs=[0, -1]), answer_seed=0)
    with pytest.raises(ValueError, match="built for n=4"):
        answer_plan(triangle, _plan(4, degs=[0]), answer_seed=0)


def test_answer_degrees_meters_and_rejects_before_metering(triangle):
    ledger = QueryLedger()
    degrees = answer_degrees(triangle, np.array([2, 0, 2]), ledger)
    assert degrees.dtype == np.int64
    assert degrees.tolist() == [2, 2, 2]
    assert ledger.as_dict() == {"deg": 3, "rand_edge": 0}
    with pytest.raises(ValueError, match="query 1 \\(Deg\\(3\\)\\)"):
        answer_degrees(triangle, np.array([0, 3]), ledger)
    assert ledger.as_dict() == {"deg": 3, "rand_edge": 0}


def test_answer_degrees_reads_the_graphs_table_without_building_one():
    # a table built per call would take n bytes, 1 MB here
    graph = graph_from_spec("gnm:1000000,500000", 0)
    vertices = np.array([5, 999_999, 5])
    tracemalloc.start()
    try:
        degrees = answer_degrees(graph, vertices, QueryLedger())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degrees.tolist() == graph.degrees.take(vertices).tolist()
    assert peak < 2**16


def test_consecutive_rand_edge_calls_answer_like_one_plan():
    g = gen_gnm(300, 2000, seed=1)
    whole = answer_plan(g, _plan(300, rand_edges=1000), answer_seed=4)
    rng = np.random.default_rng(4)
    ledger = QueryLedger()
    parts = [answer_rand_edges(g, rng, count, ledger) for count in (1, 0, 333, 666)]
    assert np.array_equal(np.concatenate(parts), whole.edges)
    assert ledger.as_dict() == {"deg": 0, "rand_edge": 1000}


def test_rand_edges_on_empty_graph_fail_before_metering():
    g = build_graph(4, [])
    ledger = QueryLedger()
    with pytest.raises(EmptyGraphError):
        answer_rand_edges(g, np.random.default_rng(0), 1, ledger)
    assert answer_rand_edges(g, np.random.default_rng(0), 0, ledger).shape == (0, 2)
    assert ledger.total == 0


@pytest.mark.parametrize("count", [0, 1, 777])
def test_rand_edges_are_the_rows_at_the_drawn_ids(count):
    g = gen_gnm(300, 2000, seed=1)
    id_ledger, row_ledger = QueryLedger(), QueryLedger()
    ids = answer_rand_edge_ids(g, np.random.default_rng(8), count, id_ledger)
    rows = answer_rand_edges(g, np.random.default_rng(8), count, row_ledger)
    assert ids.dtype == np.uint32
    assert ids.shape == (count,)
    assert np.array_equal(rows, g.edges.take(ids, axis=0))
    assert id_ledger == row_ledger == QueryLedger(deg=0, rand_edge=count)


class _EdgeCount:
    """A stand-in graph that has only the edge count ``m`` the random-edge draw reads."""

    def __init__(self, m: int):
        self.m = m


@pytest.mark.parametrize("counts", [(0,), (1,), (7,), (99_050,), (7, 99_050)])
@pytest.mark.parametrize("m", [1, 2, 2000, 2**31 + 1, 2**32])
def test_rand_edge_ids_are_the_int64_draws_as_uint32_keys(m, counts):
    # numpy draws a range of at most 2**32 from one 32-bit stream at either
    # dtype: the keys must equal the int64 draws and leave the same state
    keyed, plain = np.random.default_rng(12), np.random.default_rng(12)
    ledger = QueryLedger()
    for count in counts:
        keys = answer_rand_edge_ids(_EdgeCount(m), keyed, count, ledger)
        assert keys.dtype == np.uint32
        assert np.array_equal(keys, plain.integers(0, m, size=count))
    assert keyed.bit_generator.state == plain.bit_generator.state
    assert ledger == QueryLedger(deg=0, rand_edge=sum(counts))


def test_rand_edge_ids_widen_to_int64_above_2_to_the_32_edges():
    rng = np.random.default_rng(0)
    assert answer_rand_edge_ids(_EdgeCount(2**32), rng, 3, QueryLedger()).dtype == np.uint32
    assert answer_rand_edge_ids(_EdgeCount(2**32 + 1), rng, 3, QueryLedger()).dtype == np.int64


def test_rand_edge_ids_on_empty_graph_fail_before_metering():
    g = build_graph(4, [])
    ledger = QueryLedger()
    with pytest.raises(EmptyGraphError):
        answer_rand_edge_ids(g, np.random.default_rng(0), 1, ledger)
    ids = answer_rand_edge_ids(g, np.random.default_rng(0), 0, ledger)
    assert ids.shape == (0,)
    rows = answer_rand_edges(g, np.random.default_rng(0), 0, ledger)
    assert np.array_equal(rows, g.edges.take(ids, axis=0))
    assert rows.shape == (0, 2)
    assert ledger.total == 0


def ref_columns(graph, degs, n_rand, answer_seed):
    """One-row-per-query columns of the same plan and answers, built directly:
    kind 0 = degree probe, kind 1 = random edge; a degree probe answers
    (degree, -1) and a random edge (u, v)."""
    kinds = np.concatenate((np.zeros(len(degs), np.uint8), np.ones(n_rand, np.uint8)))
    arg_a = np.concatenate((np.asarray(degs, np.int64), np.full(n_rand, -1, np.int64)))
    arg_b = np.full(kinds.shape[0], -1, np.int64)
    ans_a = np.full(kinds.shape[0], -1, np.int64)
    ans_b = np.full(kinds.shape[0], -1, np.int64)
    ans_a[kinds == 0] = graph.degrees[arg_a[kinds == 0]]
    if n_rand:
        idx = np.random.default_rng(answer_seed).integers(0, graph.m, size=n_rand)
        ans_a[kinds == 1] = graph.edges[idx, 0]
        ans_b[kinds == 1] = graph.edges[idx, 1]
    return kinds, arg_a, arg_b, ans_a, ans_b


@pytest.mark.parametrize("n_degs, n_rand", [(25, 57), (0, 33), (25, 0)])
def test_columnar_views_match_direct_columns(n_degs, n_rand):
    g = gen_gnm(40, 100, seed=3)
    degs = np.random.default_rng(n_degs).integers(0, 40, size=n_degs)
    plan = _plan(40, degs=degs, rand_edges=n_rand)
    transcript = answer_plan(g, plan, answer_seed=8)
    views = (plan.kinds, plan.arg_a, plan.arg_b, transcript.ans_a, transcript.ans_b)
    for got, expected in zip(views, ref_columns(g, degs, n_rand, answer_seed=8)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    assert transcript.degrees.shape == (n_degs,)
    assert transcript.edges.shape == (n_rand, 2)
    assert plan.deg_vertices.flags.writeable is False


def test_plan_leaves_the_callers_array_alone():
    vertices = np.arange(3)
    plan = QueryPlan(vertices, 0, PlanProvenance(5, None, 0))
    assert vertices.flags.writeable
    vertices[0] = 4
    assert plan.deg_vertices.tolist() == [0, 1, 2]
    assert plan.deg_vertices.flags.writeable is False


def test_built_plan_keeps_its_own_vertices_without_a_copy():
    plan = build_sample_plan(1000, EstimatorParams(epsilon=0.5, master_seed=3))
    assert plan.deg_vertices.flags.owndata and not plan.deg_vertices.flags.writeable
    again = QueryPlan(plan.deg_vertices, plan.n_rand, plan.provenance)
    assert again.deg_vertices is plan.deg_vertices


def test_plan_blocks_in_order_with_nonnegative_count():
    provenance = PlanProvenance(n=3, epsilon=None, seed=0)
    with pytest.raises(ValueError, match="cannot follow a random-edge block"):
        plan_from_blocks(provenance, (np.array([0]), 0), rand_edge_block(2), (np.array([1]), 0))
    with pytest.raises(ValueError, match="cannot follow a random-edge block"):
        plan_from_blocks(provenance, rand_edge_block(2), ([1], 0))
    # empty blocks hold no queries, so they may sit anywhere
    empty = (np.array([], np.int64), 0)
    plan = plan_from_blocks(provenance, rand_edge_block(0), (np.array([1]), 0), rand_edge_block(2), empty)
    assert plan == QueryPlan(np.array([1]), 2, provenance)
    assert len(plan) == 3
    with pytest.raises(ValueError, match="non-negative"):
        QueryPlan(np.array([0]), -1, provenance)
    # a negative block must not cancel the queries of an earlier one
    with pytest.raises(ValueError, match="random-edge count must be non-negative"):
        plan_from_blocks(PlanProvenance(3, None, 0), rand_edge_block(3), rand_edge_block(-2))


@st.composite
def graph_with_queries(draw):
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]), max_size=30))
    g = build_graph(n, pairs)
    degs = draw(st.lists(st.integers(0, n - 1), max_size=25))
    return g, degs


@settings(max_examples=60, deadline=None)
@given(graph_with_queries())
def test_local_queries_match_direct_inspection(case):
    g, degs = case
    transcript = answer_plan(g, _plan(g.n, degs=degs), answer_seed=3)
    edge_set = {tuple(e) for e in g.edges.tolist()}
    for v, answer in zip(degs, transcript.ans_a.tolist()):
        assert answer == sum(v in e for e in edge_set)
    assert np.all(transcript.ans_b == -1)


@settings(max_examples=40, deadline=None)
@given(graph_with_queries(), st.integers(0, 10))
def test_ledger_matches_plan_multiplicities(case, extra_edges):
    g, degs = case
    plan = _plan(g.n, degs=degs, rand_edges=extra_edges if g.m else 0)
    transcript = answer_plan(g, plan, answer_seed=0)
    assert transcript.ledger.as_dict() == plan.counts()
    assert transcript.ledger.total == len(plan)


@settings(max_examples=40, deadline=None)
@given(graph_with_queries(), st.integers(0, 10))
def test_each_metered_call_grows_the_ledger_by_the_answers_it_returns(case, count):
    g, degs = case
    vertices = np.array(degs, dtype=np.int64)
    count = count if g.m else 0
    rng = np.random.default_rng(5)
    ledger = QueryLedger()
    calls = [
        ("deg", lambda: answer_degree_codes(g.degree_codes, vertices, ledger)),
        ("deg", lambda: answer_degrees(g, vertices, ledger)),
        ("rand_edge", lambda: answer_rand_edge_ids(g, rng, count, ledger)),
    ]
    for kind, call in calls:
        before = ledger.as_dict()
        answers = call()
        grown = {key: value - before[key] for key, value in ledger.as_dict().items()}
        assert grown == {"deg": 0, "rand_edge": 0, kind: answers.shape[0]}
    before = ledger.as_dict()
    transcript = answer_plan(g, _plan(g.n, degs=degs, rand_edges=count), answer_seed=0, ledger=ledger)
    grown = {key: value - before[key] for key, value in ledger.as_dict().items()}
    assert grown == {"deg": transcript.degrees.shape[0], "rand_edge": transcript.edges.shape[0]}


@pytest.mark.parametrize("shape", [(2, 3), (1, 0), ()])
def test_degree_probes_that_are_not_one_row_are_refused_before_metering(triangle, shape):
    # a (2, 3) array was answered with 6 degrees but metered as 2 probes
    probes = np.zeros(shape, dtype=np.int64)
    ledger = QueryLedger()
    message = rf"^vertices must be a 1-d array, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        answer_degree_codes(triangle.degree_codes, probes, ledger)
    with pytest.raises(ValueError, match=message):
        answer_degrees(triangle, probes, ledger)
    assert ledger.total == 0


def test_a_plan_of_probes_that_are_not_one_row_is_refused():
    # a (2, 2) plan had len 2 and counted 2 degree probes
    with pytest.raises(ValueError, match=r"^degree-probe vertices must be a 1-d array, got shape \(2, 2\)$"):
        QueryPlan(np.zeros((2, 2), dtype=np.int64), 0, PlanProvenance(3, None, 0))


def _sample_plan_fn(graph, epsilon, seed):
    return build_sample_plan(graph.n, EstimatorParams(epsilon=epsilon, master_seed=seed))


def _adaptive_plan_fn(graph, epsilon, seed):
    # cheats: aims a degree probe at the highest-degree vertex it saw
    target = int(np.argmax(graph.degrees))
    return QueryPlan(np.array([target]), 0, PlanProvenance(graph.n, epsilon, seed))


def test_audit_accepts_graph_blind_planner():
    n = 300
    graphs = [gen_path(n), gen_gnm(n, 600, seed=1), gen_clique_plus_isolated(n, 30)]
    assert audit_nonadaptive(_sample_plan_fn, graphs, epsilon=0.5, seed=11)


def test_audit_catches_adaptive_planner():
    graphs = [gen_path(50), gen_clique_plus_isolated(50, 10)]
    assert not audit_nonadaptive(_adaptive_plan_fn, graphs, epsilon=0.5, seed=0)


def test_audit_vacuous_and_mismatched():
    assert audit_nonadaptive(_sample_plan_fn, [gen_path(20)], epsilon=0.5, seed=0)
    assert audit_nonadaptive(_sample_plan_fn, [], epsilon=0.5, seed=0)
    with pytest.raises(ValueError, match="identical vertex counts"):
        audit_nonadaptive(_sample_plan_fn, [gen_path(10), gen_path(11)], epsilon=0.5, seed=0)


def test_plan_equality_is_content_based():
    a = plan_from_blocks(PlanProvenance(5, 0.5, 1), rand_edge_block(3))
    b = _plan(5, rand_edges=3, seed=99)
    assert a == b
    assert a != _plan(5, rand_edges=4)


def _answer_every_vertex(graph):
    """Degree answers for each vertex twice, in a shuffled order."""
    vertices = np.random.default_rng(graph.n).permutation(np.tile(np.arange(graph.n), 2))
    return vertices, answer_plan(graph, _plan(graph.n, degs=vertices), answer_seed=0)


@pytest.mark.parametrize(
    "graph, largest, code_dtype",
    [
        (graph_from_spec("gnm:300,0"), 0, np.uint8),
        (gen_star(256), 255, np.uint16),
        (gen_star(257), 256, np.uint16),
        (gen_star(65536), 65535, np.uint32),
        (gen_star(65537), 65536, np.uint32),
        (gen_gnm(2000, 30000, seed=5), None, np.uint8),
    ],
    ids=["edgeless", "star-255", "star-256", "star-65535", "star-65536", "gnm"],
)
def test_degree_answers_from_compact_table_match_degrees(graph, largest, code_dtype):
    if largest is not None:
        assert int(graph.degrees.max()) == largest
    assert answer_degree_codes(graph.degree_codes, np.arange(graph.n), QueryLedger()).dtype == code_dtype
    assert graph.degree_codes.degrees.flags.writeable is False
    assert graph.degrees.dtype == np.int64
    vertices, transcript = _answer_every_vertex(graph)
    assert transcript.degrees.dtype == np.int64
    assert np.array_equal(transcript.degrees, graph.degrees.take(vertices))


def test_degree_table_of_an_empty_graph_is_an_empty_uint8_table():
    graph = build_graph(0, [])
    assert answer_degree_codes(graph.degree_codes, np.arange(0), QueryLedger()).dtype == np.uint8
    assert graph.degree_codes.degrees.shape == (0,)
    assert graph.degree_codes.degrees.flags.writeable is False
    transcript = answer_plan(graph, _plan(0), answer_seed=0)
    assert transcript.degrees.dtype == np.int64
    assert transcript.degrees.shape == (0,)


def test_degree_answers_reject_a_table_that_is_not_integer():
    # float degrees, which the packed codes would truncate, are refused when
    # the table is built
    with pytest.raises(ValueError, match="^degrees must be integers, got dtype float64$"):
        DegreeCodes(np.array([1.0, 2.0, 1.0, 0.0]))


def test_degree_codes_decode_read_only_degrees_and_keep_no_given_array():
    given = np.array([1, 2, 2, 2, 1], dtype=np.uint8)
    table = DegreeCodes(given)
    assert table.n == 5 and table.degrees.dtype == np.uint8 and table.degrees.flags.writeable is False
    given[0] = 3  # a later write to the caller's array never reaches the table
    assert [name for name in DegreeCodes.__slots__ if isinstance(getattr(table, name), np.ndarray)] == ["_codes"]
    assert table.degrees.tolist() == [1, 2, 2, 2, 1]


@pytest.mark.parametrize("marked", [[0, 3], [-1]])
def test_degree_codes_reject_marks_outside_the_graph(triangle, marked):
    # -1 would otherwise mark the last vertex
    with pytest.raises(ValueError, match="marked vertices must lie in 0..2"):
        with triangle.degree_codes.marking(np.array(marked)):
            pass


def _marks(table):
    return table.marked(answer_degree_codes(table, np.arange(table.n), QueryLedger())).tolist()


def test_marking_refuses_a_vertex_outside_the_graph_before_any_bit_changes(triangle):
    # the check runs first: while another marking holds the table, a refused
    # marking touches no bit of it, and -1 never reaches the last vertex
    table = triangle.degree_codes
    refused = []

    def mark(bad):
        with pytest.raises(ValueError, match="^marked vertices must lie in 0..2$"):
            with table.marking(bad):
                pass
        refused.append(bad)

    with table.marking([1]):
        for bad in ([1, 3], [-1]):
            thread = threading.Thread(target=mark, args=(bad,))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert _marks(table) == [False, True, False]
    assert refused == [[1, 3], [-1]]
    assert _marks(table) == [False, False, False]


def test_a_marking_while_the_table_is_held_marks_an_unmarked_copy(triangle):
    # nested in the holder's block or in another thread, the second marking
    # neither waits for the first nor sees or clears its marks; the holder
    # runs in a daemon thread, so that a wait fails the test, not hangs it
    table = triangle.degree_codes
    seen = []

    def mark(vertices):
        with table.marking(vertices) as copy:
            seen.append((copy is table, _marks(copy), _marks(table)))
        seen.append(_marks(table))

    def hold():
        with table.marking([1]) as held:
            seen.append(held is table)
            mark([0])
            other = threading.Thread(target=mark, args=([0, 1],), daemon=True)
            other.start()
            other.join(timeout=10)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    holder.join(timeout=20)
    assert not holder.is_alive()
    assert seen == [
        True,
        (False, [True, False, False], [False, True, False]),
        [False, True, False],
        (False, [True, True, False], [False, True, False]),
        [False, True, False],
    ]
    assert _marks(table) == [False, False, False]
    with table.marking([2]) as free:  # released: the table itself is marked again
        assert free is table and _marks(table) == [False, False, True]


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("load", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_pickled_and_copied_tables_are_built_again_unmarked(triangle, load):
    # a table holds a lock, which pickle refuses; a copy taken while a mark is
    # held carries none, and a graph's copy decodes read-only degrees
    with triangle.degree_codes.marking([0, 2]):
        table, graph = load(triangle.degree_codes), load(triangle)
    for other in (table, graph.degree_codes):
        assert other is not triangle.degree_codes and other.top_code == triangle.degree_codes.top_code
        assert _marks(other) == [False, False, False]
    assert graph == triangle
    assert not any(a.flags.writeable for a in (graph.edges, graph.degrees, graph.degree_codes.degrees))
    with graph.degree_codes.marking([1]) as held:
        assert held is graph.degree_codes and _marks(held) == [False, True, False]


@pytest.mark.parametrize(
    "degrees, top_code",
    [
        ([0, 31, 5], 63),  # exact uint8
        ([0, 32, 5], 65),
        ([0, 126, 5], 253),
        ([0, 127, 5], 255),
        ([0, 128, 5], 257),  # uint16
        ([0, 2**15 - 1, 5], 2**16 - 1),
        ([0, 2**15, 5], 2**16 + 1),  # uint32
    ],
)
def test_degree_codes_top_code_is_the_largest_code_a_mark_can_make(degrees, top_code):
    # the first three vertices take the degrees; n is just large enough to allow them
    n = max(3, max(degrees))
    degree_of = np.pad(degrees, (0, n - 3))
    vertices = np.arange(3)
    table = DegreeCodes(degree_of)
    assert table.top_code == top_code
    with table.marking([1]):
        assert answer_degree_codes(table, vertices, QueryLedger()).max() == top_code
    assert answer_degree_codes(table, vertices, QueryLedger()).max() == top_code - 1
    # the table's rules read the codes of each width
    for marked in ([1], [], [0, 1, 2]):
        with table.marking(marked):
            codes = answer_degree_codes(table, vertices, QueryLedger())
        assert table.marked(codes).tolist() == [i in marked for i in range(3)]
        assert table.decoded(codes).tolist() == degrees
        per_degree = np.bincount(degrees)
        assert table.fold(np.bincount(codes, minlength=top_code + 1)).tolist() == per_degree.tolist()
