from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecount import EdgeListParseError, GraphValidationError, build_graph, read_edge_list, write_edge_list


@st.composite
def raw_edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=60,
        )
    )
    return n, pairs


def test_build_graph_normalizes_and_deduplicates():
    g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g.m == 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.degrees.tolist() == [1, 2, 1]


def test_build_graph_empty():
    g = build_graph(5, [])
    assert g.n == 5
    assert g.m == 0
    assert g.degrees.tolist() == [0] * 5


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphValidationError, match=r"self-loop \(2, 2\)"):
        build_graph(4, [(0, 1), (2, 2)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphValidationError, match="out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphValidationError, match="out of range"):
        build_graph(3, [(-1, 1)])


def test_build_graph_rejects_bad_shape():
    with pytest.raises(GraphValidationError, match="pairs"):
        build_graph(3, np.array([[0, 1, 2]]))


def test_graph_is_immutable(triangle):
    with pytest.raises(ValueError):
        triangle.edges[0, 0] = 5


def test_graph_equality_ignores_input_order():
    a = build_graph(4, [(2, 3), (0, 1)])
    b = build_graph(4, [(1, 0), (3, 2), (0, 1)])
    assert a == b
    assert a != build_graph(4, [(0, 1)])


def test_vertex_count_beyond_int64_range_rejected():
    # isqrt(2**63 - 1) + 1: u * n + v could overflow int64; must fail before
    # the length-n degree array is allocated
    with pytest.raises(GraphValidationError, match="3037000500 exceeds the supported maximum 3037000499"):
        build_graph(3_037_000_500, [])


@settings(max_examples=60, deadline=None)
@given(raw_edge_lists())
def test_graph_invariants(case):
    n, pairs = case
    g = build_graph(n, pairs)
    # normalization and canonical order
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    codes = g.edges[:, 0] * n + g.edges[:, 1]
    assert np.all(np.diff(codes) > 0)
    # the handshake identity
    assert g.degrees.sum() == 2 * g.m
    # degrees agree with a direct tally of the deduplicated pair set
    unique_pairs = {(min(u, v), max(u, v)) for u, v in pairs}
    assert g.m == len(unique_pairs)
    for v in range(n):
        assert g.degrees[v] == sum(v in p for p in unique_pairs)


def test_edge_list_round_trip(tmp_path):
    g = build_graph(6, [(0, 5), (2, 1), (3, 4), (0, 1)])
    target = tmp_path / "g.el"
    write_edge_list(g, target)
    assert read_edge_list(target) == g
    # canonical bytes: first line n, then sorted edges
    assert target.read_text().splitlines()[0] == "6"


def test_edge_list_round_trip_empty(tmp_path):
    g = build_graph(4, [])
    target = tmp_path / "empty.el"
    write_edge_list(g, target)
    assert target.read_text() == "4\n"
    assert read_edge_list(target) == g


def test_read_edge_list_reports_line_numbers(tmp_path):
    bad_edge = tmp_path / "bad_edge.el"
    bad_edge.write_text("3\n0 1\n0 x\n")
    with pytest.raises(EdgeListParseError, match="line 3"):
        read_edge_list(bad_edge)

    bad_count = tmp_path / "bad_count.el"
    bad_count.write_text("abc\n0 1\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        read_edge_list(bad_count)

    wrong_arity = tmp_path / "arity.el"
    wrong_arity.write_text("3\n0 1 2\n")
    with pytest.raises(EdgeListParseError, match="line 2"):
        read_edge_list(wrong_arity)

    empty = tmp_path / "nothing.el"
    empty.write_text("")
    with pytest.raises(EdgeListParseError, match="missing vertex count"):
        read_edge_list(empty)


def test_read_edge_list_rejects_self_loop_file(tmp_path):
    loop = tmp_path / "loop.el"
    loop.write_text("2\n0 0\n")
    with pytest.raises(GraphValidationError, match="self-loop"):
        read_edge_list(loop)


def test_read_edge_list_skips_blank_lines(tmp_path):
    f = tmp_path / "padded.el"
    f.write_text("3\n\n0 1\n\n1 2\n\n")
    assert read_edge_list(f) == build_graph(3, [(0, 1), (1, 2)])
