from __future__ import annotations

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgecount import (
    DegreeCodes,
    EdgeListParseError,
    Graph,
    GraphValidationError,
    build_graph,
    read_edge_list,
    write_edge_list,
)
from edgecount.generators import gen_gnm
from edgecount.graph import MAX_VERTICES, format_edges, graph_from_codes


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


def test_graph_from_codes_decodes_sorted_codes():
    g = graph_from_codes(4, np.array([1, 6, 11], dtype=np.int64))
    assert g == build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degrees.tolist() == [1, 2, 2, 1]
    assert graph_from_codes(0, np.empty(0, dtype=np.int64)).m == 0


@pytest.mark.parametrize(
    "codes, error, message",
    [
        ([6, 1], GraphValidationError, r"^edge row 1 \(0, 1\): repeated or out of order"),
        ([1, 1], GraphValidationError, r"^edge row 1 \(0, 1\): repeated or out of order"),
        ([-1, 1], GraphValidationError, r"^edge \(-1, 3\): endpoint out of range for n=4$"),
        ([1, 16], GraphValidationError, r"^edge \(4, 0\): endpoint out of range for n=4$"),
        ([1, 5], GraphValidationError, r"^edge row 1 \(1, 1\): not u < v$"),
        ([4], GraphValidationError, r"^edge row 0 \(1, 0\): not u < v$"),
    ],
    ids=["descending", "repeated", "negative", "beyond", "loop", "reversed"],
)
def test_graph_from_codes_rejects_bad_codes(codes, error, message):
    # the decoded rows are refused as the Graph's edges, a negative code,
    # which no pair of ids in 0..n-1 encodes to, too
    with pytest.raises(error, match=message):
        graph_from_codes(4, np.array(codes, dtype=np.int64))


def test_graph_is_immutable(triangle):
    with pytest.raises(ValueError):
        triangle.edges[0, 0] = 5


def test_hand_built_graph_converts_list_edges_and_degrees():
    graph = Graph(4, [[0, 1], [1, 2]])
    assert isinstance(graph.edges, np.ndarray) and isinstance(graph.degrees, np.ndarray)
    assert graph.edges.shape == (2, 2)
    assert graph.m == 2
    assert graph.edges.flags.writeable is False
    assert graph.degrees.flags.writeable is False
    assert graph.degree_codes.degrees.tolist() == [1, 2, 1, 0]
    assert graph == build_graph(4, [(0, 1), (1, 2)])


@pytest.mark.parametrize("read_only", [False, True])
def test_hand_built_graph_leaves_the_callers_arrays_alone(read_only):
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    # a read-only view of a writeable array still lets its owner write
    given_edges = edges.view()
    given_edges.setflags(write=not read_only)
    graph = Graph(4, given_edges)
    assert edges.flags.writeable
    assert given_edges.flags.writeable == (not read_only)
    edges[0, 0] = 3
    assert graph.edges.tolist() == [[0, 1], [1, 2]]


def test_read_only_arrays_that_own_their_data_are_kept_without_a_copy():
    graph = gen_gnm(50, 100, seed=1)
    again = Graph(graph.n, graph.edges)
    assert again.edges is graph.edges


def _build_peak(n, edges):
    """Tracemalloc peak of building ``Graph(n, edges)``, in bytes."""
    tracemalloc.start()
    try:
        Graph(n, edges)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edges_of_another_integer_dtype_are_converted_once():
    # the int64 conversion of int32 edges is the graph's own, kept and not
    # copied again: one 8 MB copy above read-only int64 edges, plus 64 KiB of
    # headroom for small objects, where a second copy would add 8 MB more
    edges = gen_gnm(10**6, 5 * 10**5, 0).edges
    narrow = edges.astype(np.int32)
    assert _build_peak(10**6, narrow) <= _build_peak(10**6, edges) + edges.nbytes + 2**16
    assert Graph(10**6, narrow) == Graph(10**6, edges)


def test_a_graph_retains_its_edges_and_its_degree_codes_alone():
    # 8 MB of int64 edges, then 1 MB of uint8 codes; a narrow degree table
    # kept beside them added 1 MB, and an int64 one 8 MB more
    gen_gnm(1000, 500, 0)  # numpy's first-call allocations stay out of the trace
    tracemalloc.start()
    try:
        graph = gen_gnm(10**6, 5 * 10**5, 0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.m == 5 * 10**5
    assert retained <= 9_500_000


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DegreeCodes([1.0, 2.0, 1.0, 0.0]), "degrees must be integers, got dtype float64"),
        (lambda: DegreeCodes([True, True, True, False]), "degrees must be integers, got dtype bool"),
        (lambda: DegreeCodes([1, 2, 1, -1]), "degrees must lie in 0..4"),
        (lambda: DegreeCodes([1, 2, 1, 5]), "degrees must lie in 0..4"),
        (lambda: DegreeCodes([[1, 2], [1, 0]]), "degrees must have shape (4,), got (2, 2)"),
        (lambda: Graph(4.0, [[0, 1], [1, 2]]), "vertex count must be an integer, got 4.0"),
    ],
    ids=["float", "bool", "negative", "n+1", "2-d", "float-n"],
)
def test_hand_built_graph_refuses_degrees_outside_the_contract(build, message):
    # a graph derives its degrees, so a degree table is checked where the
    # oracle is handed one, with the table's length as its n
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_graph_derives_its_degrees_from_its_edges():
    g = gen_gnm(10_000, 100_000, 1)
    # degrees that disagree with the edges cannot be handed in
    with pytest.raises(TypeError):
        Graph(g.n, g.edges, np.minimum(3 * g.degrees, g.n))
    for graph, expected in (
        (Graph(4, [[0, 1], [1, 2]]), [1, 2, 1, 0]),
        (Graph(3, []), [0, 0, 0]),
        (Graph(0, []), []),
    ):
        assert graph.degrees.dtype == np.int64 and graph.degrees.flags.writeable is False
        assert graph.degrees.tolist() == expected
        assert np.array_equal(graph.degrees, np.bincount(graph.edges.ravel(), minlength=graph.n))
        with pytest.raises(ValueError, match="read-only"):
            graph.degrees[:] = 1


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 1], [1, 2], [1, 2]], "edge row 2 (1, 2): repeated or out of order"),
        ([[1, 2], [0, 1]], "edge row 1 (0, 1): repeated or out of order"),
        ([[0, 1], [2, 2]], "edge row 1 (2, 2): not u < v"),
        ([[0, 1], [2, 1]], "edge row 1 (2, 1): not u < v"),
        ([[0, 1], [-1, 2]], "edge (-1, 2): endpoint out of range for n=4"),
        ([[0, 1], [1, 4]], "edge (1, 4): endpoint out of range for n=4"),
        ([[0.0, 1.0], [1.0, 2.0]], "edge endpoints must be integers, got dtype float64"),
        ([[0, 1, 2]], "edges must be an iterable of vertex pairs, got shape (1, 3)"),
        ([0, 1], "edges must be an iterable of vertex pairs, got shape (2,)"),
    ],
    ids=["repeated", "unsorted", "loop", "reversed", "negative", "n", "float", "3-column", "1-d"],
)
def test_hand_built_graph_refuses_edges_outside_the_contract(edges, message):
    with pytest.raises(GraphValidationError) as info:
        Graph(4, edges)
    assert str(info.value) == message


def test_graph_refuses_every_row_written_twice():
    # with each edge in two rows, repeats of a drawn position would miss half the
    # repeats of a drawn edge, and the collision estimate would double
    graph = gen_gnm(100_000, 50_000, seed=0)
    with pytest.raises(GraphValidationError, match="^edge row 1 .*: repeated or out of order$"):
        Graph(graph.n, np.repeat(graph.edges, 2, axis=0))


@pytest.mark.parametrize(
    "edges, m",
    [
        ([], 0),
        (np.empty(0, dtype=np.float64), 0),
        (np.empty((0, 3), dtype=np.int32), 0),
        (np.array([[0, 1], [1, 2]], dtype=np.uint16), 2),
    ],
    ids=["list", "float", "3-column", "uint16"],
)
def test_graph_stores_edges_as_read_only_int64_rows(edges, m):
    graph = Graph(4, edges)
    assert graph.edges.shape == (m, 2) and graph.edges.dtype == np.int64
    assert graph.edges.flags.writeable is False
    assert graph == build_graph(4, [(0, 1), (1, 2)][:m])


def test_hand_built_graph_stores_a_numpy_integer_n_as_an_int():
    graph = Graph(np.int64(4), [[0, 1], [1, 2]])
    assert type(graph.n) is int and graph.n == 4
    assert graph.degree_codes.gather(np.arange(4)).dtype == np.uint8


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


def _loadtxt_int(field):
    """``int(field)`` for what ``np.loadtxt`` reads as an int64, ASCII digits after an optional sign."""
    digits = field[1:] if field[:1] in ("+", "-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(field)
    return int(field)


def reference_read_edge_list(path):
    """The line-by-line reader as it stood before the bulk parse, with loadtxt's rule for an integer."""
    text = Path(path).read_text(encoding="ascii")
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if n is None:
            if len(fields) != 1:
                raise EdgeListParseError(f"line {lineno}: expected a single vertex count, got {raw!r}")
            try:
                n = _loadtxt_int(fields[0])
            except ValueError:
                raise EdgeListParseError(f"line {lineno}: vertex count is not an integer: {raw!r}") from None
            continue
        if len(fields) != 2:
            raise EdgeListParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            pairs.append((_loadtxt_int(fields[0]), _loadtxt_int(fields[1])))
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: endpoints are not integers: {raw!r}") from None
    if n is None:
        raise EdgeListParseError("line 1: missing vertex count")
    return build_graph(n, pairs)


def outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)


_TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["+1", "-1", "-0", "01", "1_0", "#", "#1", "1.0", "x", "0x1", "99999999999999999999",
                     "9223372036854775807", "-9223372036854775809", "\x00", "1\x7f"]),
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f"])
_ODD_BREAKS = st.sampled_from(["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])


@st.composite
def edge_list_texts(draw):
    """Well-formed edge lists, half of them then corrupted in one to three places."""
    n = draw(st.integers(2, 12))
    lines = [str(n)]
    for _ in range(draw(st.integers(0, 8))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        lines.append(f"{u}{draw(_SEPARATORS)}{v if v != u else (u + 1) % n}")
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x1f"])))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(lines)))
            kind = draw(st.sampled_from(["fields", "break", "count", "drop"]))
            if kind == "fields":
                lines.insert(at, draw(_SEPARATORS).join(draw(st.lists(_TOKENS, min_size=1, max_size=3))))
            elif kind == "break" and at < len(lines):
                cut = draw(st.integers(0, len(lines[at])))
                lines[at] = lines[at][:cut] + draw(_ODD_BREAKS) + lines[at][cut:]
            elif kind == "count" and lines:
                lines[0] = draw(st.sampled_from(["", f" {n} ", f"+{n}", "x", f"{n} {n}", "-1", "1_2"]))
            elif kind == "drop" and lines:
                del lines[min(at, len(lines) - 1)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_list_texts())
def test_reader_matches_line_by_line_reference(tmp_path, text):
    path = tmp_path / "g.el"
    path.write_bytes(text.encode("ascii"))
    new, ref = outcome(read_edge_list, path), outcome(reference_read_edge_list, path)
    if isinstance(ref, Graph):
        assert isinstance(new, Graph) and new == ref
        assert new.degrees.tobytes() == ref.degrees.tobytes()
    else:
        assert new == ref


CORRUPTED_TEXTS = [
    ("", "line 1: missing vertex count"),
    ("\n\n", "line 1: missing vertex count"),
    ("3 3\n0 1\n", "line 1: expected a single vertex count"),
    ("abc\n0 1\n", "line 1: vertex count is not an integer"),
    ("3\n0\n", "line 2: expected 'u v'"),
    ("3\n0 1 2\n", "line 2: expected 'u v'"),
    ("3\n1\x0b2\n", "line 2: expected 'u v'"),
    ("3\n1\x0c2\n", "line 2: expected 'u v'"),
    ("3\n1\x1c2\n", "line 2: expected 'u v'"),
    ("3\n\n0 1\n0 x\n", "line 4: endpoints are not integers"),
    ("3\n0 1\n#0 2\n", "line 3: endpoints are not integers"),
    ("3\n0 1.0\n", "line 2: endpoints are not integers"),
    ("3\r\n0 1\r\n1\r\n", "line 3: expected 'u v'"),
    ("3\n1_0 2\n", "line 2: endpoints are not integers"),
    ("30\n1_0 2\n", "line 2: endpoints are not integers"),
    ("1_0\n0 1\n", "line 1: vertex count is not an integer"),
    ("3\n99999999999999999999 1\n", "out of range for n=3"),
    ("3\n0 0\n", "self-loop (0, 0)"),
]


@pytest.mark.parametrize("text, message", CORRUPTED_TEXTS)
def test_corrupted_files_name_the_fault(tmp_path, text, message):
    path = tmp_path / "bad.el"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(ValueError) as caught:
        read_edge_list(path)
    assert message in str(caught.value)
    assert outcome(reference_read_edge_list, path) == (type(caught.value), str(caught.value))


def test_reader_accepts_what_loadtxt_accepts(tmp_path):
    path = tmp_path / "odd.el"
    path.write_bytes(b"\n +12 \r\n\n0\t+1\r\n01 10\n-0 11\x1f\n\n")
    assert read_edge_list(path) == build_graph(12, [(0, 1), (1, 10), (0, 11)])


def test_a_field_longer_than_int_reads_is_not_an_integer(tmp_path):
    # int refuses more digits than sys.get_int_max_str_digits(), leading zeros too
    path = tmp_path / "long.el"
    path.write_text("3\n" + "0" * 5000 + "1 2\n0\n")
    with pytest.raises(EdgeListParseError, match="^line 2: endpoints are not integers"):
        read_edge_list(path)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"3\n0 1\n1 2\xc3\xa9\n", "line 3: endpoints are not integers: '1 2\\udcc3\\udca9'"),
        (b"\xff3\n0 1\n", "line 1: vertex count is not an integer: '\\udcff3'"),
        (b"3\r\n0 1\r1 2\x0b\x80\n", "line 4: expected 'u v', got '\\udc80'"),
    ],
)
def test_a_byte_beyond_ascii_is_a_parse_error_naming_its_line(tmp_path, data, message):
    # the byte is read as a lone surrogate, named by its escape; lines are
    # counted as str.splitlines counts them, so \r and \x0b end one
    path = tmp_path / "bytes.el"
    path.write_bytes(data)
    with pytest.raises(EdgeListParseError) as caught:
        read_edge_list(path)
    assert str(caught.value) == message


def test_endpoint_beyond_int64_is_a_validation_error(tmp_path):
    with pytest.raises(GraphValidationError, match="beyond the int64 range"):
        build_graph(3, [(0, 1), (99999999999999999999, 1)])
    with pytest.raises(GraphValidationError, match="beyond the int64 range"):
        build_graph(3, [(0, -(2**63) - 1)])
    path = tmp_path / "huge.el"
    path.write_text("3\n0 1\n99999999999999999999 1\n")
    with pytest.raises(GraphValidationError, match="out of range for n=3"):
        read_edge_list(path)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, MAX_VERTICES - 1), st.integers(0, MAX_VERTICES - 1)), max_size=40)
    | st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40)
)
def test_format_edges_matches_fstring_lines(rows):
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    assert format_edges(edges) == "".join(f"{u} {v}\n" for u, v in rows).encode("ascii")


def test_format_edges_covers_every_digit_count():
    ids = np.array([0, 9, 10, 99, 100, 10**9 - 1, 10**9, MAX_VERTICES - 1], dtype=np.int64)
    edges = np.column_stack((ids, ids[::-1]))
    assert format_edges(edges) == "".join(f"{u} {v}\n" for u, v in edges.tolist()).encode("ascii")
    assert format_edges(np.empty((0, 2), dtype=np.int64)) == b""


def test_write_edge_list_matches_fstring_file(tmp_path):
    g = build_graph(1000, [(u, (7 * u + 3) % 1000) for u in range(1000) if (7 * u + 3) % 1000 != u])
    target = tmp_path / "g.el"
    write_edge_list(g, target)
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges]
    assert target.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    write_edge_list(build_graph(7, []), target)
    assert target.read_bytes() == b"7\n"


@pytest.mark.parametrize("text", ["6\n", "6", "6\n\n \n\t\n", "6\r\n\r\n"])
def test_edgeless_file_reads_without_warnings(tmp_path, text):
    path = tmp_path / "edgeless.el"
    path.write_bytes(text.encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_edge_list(path) == build_graph(6, [])
