"""Immutable simple undirected graphs with a flat, canonical edge list and packed degree codes."""

from __future__ import annotations

import itertools
import math
import operator
import re
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# Largest vertex count whose ``pair_codes(u, v, n)`` fit in int64.
MAX_VERTICES = math.isqrt(2**63 - 1)


class GraphValidationError(ValueError):
    """Raised when raw edges violate the simple-graph contract."""


class EdgeListParseError(ValueError):
    """Raised when an edge-list file is malformed; the message names the line."""


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Edges are stored as ``rows``, a read-only uint32 ``(m, 2)`` array whose
    rows have ``0 <= u < v <= n-1`` and strictly increase in lexicographic
    order: each edge is one row, and equal edge sets have identical bytes.
    uint32 holds every id below :data:`MAX_VERTICES`; :attr:`edges` widens the
    rows to int64 on each read. Isolated vertices are allowed. A graph stores
    only ``n``, as an ``int``, the rows and ``degree_codes``, and changes only
    in the mark bits of one :meth:`DegreeCodes.marking` at a time, so trials
    can share it. The edges given are narrowed and :func:`frozen`, and refused
    with :class:`GraphValidationError`, naming the first bad row, unless they
    keep these rules and ``n`` passes :func:`check_vertex_count`.
    """

    n: int
    rows: np.ndarray
    degree_codes: DegreeCodes = field(repr=False)

    def __init__(self, n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> None:
        n = check_vertex_count(n)
        rows = _converted(_vertex_pairs(edges, n), np.uint32)
        self._keep(n, rows, rows[:, 0].astype(np.int64) * n + rows[:, 1])  # numpy 1.x keeps uint32 * n in uint32

    def _keep(self, n: int, rows: np.ndarray, codes: np.ndarray) -> Graph:
        """Keep ``rows`` in ``0..n-1``, refused unless each is ``u < v`` and its int64 pair code exceeds the last."""
        for bad, why in (rows[:, 0] >= rows[:, 1], "not u < v"), (codes[1:] <= codes[:-1], "repeated or out of order"):
            if bad.any():  # the first bad row; the order check starts at row 1
                i = int(np.argmax(bad)) + rows.shape[0] - bad.shape[0]
                raise GraphValidationError(f"edge row {i} ({rows[i, 0]}, {rows[i, 1]}): {why}")
        degrees = np.zeros(n, dtype=np.int64)
        np.add.at(degrees, rows.ravel(), 1)  # in place, where np.bincount would copy the rows to intp first
        for name, value in ("n", n), ("rows", frozen(rows)), ("degree_codes", DegreeCodes(degrees)):
            object.__setattr__(self, name, value)
        return self

    @property
    def edges(self) -> np.ndarray:
        """The rows, widened on each read to a fresh read-only int64 ``(m, 2)`` array."""
        return _converted(self.rows, np.int64)

    @property
    def m(self) -> int:
        return int(self.rows.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Each vertex's edge count: ``degree_codes.degrees`` widened on each access to a read-only int64 copy."""
        return _converted(self.degree_codes.degrees, np.int64)

    def __reduce__(self) -> tuple[type[Graph], tuple[int, np.ndarray]]:
        return Graph, (self.n, self.rows)  # built again, so a copy's arrays are read-only too

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.rows, other.rows)


def _vertex_pairs(values: object, n: int) -> np.ndarray:
    """``values`` as ``(m, 2)`` endpoints in ``0..n-1``, in their own integer dtype as :func:`checked_ints` gives them."""
    arr = checked_ints(values, None, "edge endpoints", GraphValidationError)
    arr = arr.reshape(0, 2) if arr.size == 0 else arr
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError(f"edges must be an iterable of vertex pairs, got shape {arr.shape}")
    if arr.size and top_value(arr) >= n:
        u, v = arr[np.argmax(((arr < 0) | (arr >= n)).any(axis=1))]
        raise GraphValidationError(f"edge ({u}, {v}): endpoint out of range for n={n}")
    return arr


def checked_ints(values: np.ndarray, top: int | None, what: str, error: type[ValueError] = ValueError) -> np.ndarray:
    """``np.asarray(values)`` in its own integer dtype, without a copy; empty input as empty int64.

    The one rule for the vertex ids and degrees the library is handed: raises
    ``error`` naming ``what`` unless the dtype is an integer one (bool is not),
    and unless every value lies in ``0..top`` when ``top`` is not None.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {arr.dtype}")
    if top is not None and top_value(arr) > top:
        raise error(f"{what} must lie in 0..{top}")
    return arr


def checked_vector(values: np.ndarray, top: int | None, what: str) -> np.ndarray:
    """:func:`checked_ints` of a 1-d array; any other shape raises ``ValueError`` naming ``what`` and the shape."""
    arr = checked_ints(values, top, what)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-d array, got shape {arr.shape}")
    return arr


def top_value(arr: np.ndarray) -> int:
    """Largest value of integer ``arr``, 0 when empty and ``2**64`` when one is negative; one pass, viewed unsigned."""
    largest = int(arr.view(arr.dtype.str.replace("i", "u")).max(initial=0))
    return 2**64 if arr.dtype.kind == "i" and largest >> (8 * arr.itemsize - 1) else largest


def _converted(values: np.ndarray, dtype: type | np.dtype) -> np.ndarray:
    """``values`` as ``dtype``, without a copy when they are; a fresh conversion is read-only, so :func:`frozen` keeps it."""
    arr = values.astype(dtype, copy=False)
    if arr is not values:
        arr.setflags(write=False)
    return arr


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only and owns its data, else a read-only copy, so no caller's array is frozen or shared."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


class DegreeCodes:
    """Each vertex's degree and one mark bit, packed into one code per vertex.

    The code of ``v`` is ``deg(v) << 1 | marked(v)``, so one gather per probe
    answers both the degree and whether the probe hit a marked vertex. The
    codes take the narrowest unsigned dtype that holds :attr:`top_code`,
    ``2 * largest degree + 1``: uint8 up to a degree of 127, uint16 up to
    ``2^15-1``, uint32 up to ``2^31-1`` and uint64 beyond. ``n`` is the
    table's length. The codes are all a table stores: :meth:`decoded` is the
    one rule that turns codes into degrees, and :attr:`degrees` applies it
    to the whole table. Only this module reads a code's bits: callers ask
    :meth:`marked`, :meth:`decoded` and :meth:`fold`. The table is the
    oracle's index, not a query: built once per :class:`Graph`, read only
    through the metered :func:`~edgecount.oracle.answer_degree_codes`. Its
    codes are read-only and carry marks only while a :meth:`marking` holds
    them; a mark is the low bit, which a degree shifts away and :meth:`fold`
    sums. Degrees that are not a 1-d integer table in ``0..n`` raise
    ``ValueError``.
    """

    __slots__ = ("n", "top_code", "_codes", "_lock")

    def __init__(self, degrees: np.ndarray):
        degrees = checked_ints(degrees, None, "degrees")
        if degrees.ndim != 1:
            raise ValueError(f"degrees must have shape ({degrees.size},), got {degrees.shape}")
        n = degrees.shape[0]
        top = top_value(degrees)  # one pass: the range check and the code width
        if top > n:
            raise ValueError(f"degrees must lie in 0..{n}")
        codes = degrees.astype(np.min_scalar_type(2 * top + 1))
        np.add(codes, codes, out=codes)  # the shift; np.left_shift is several times slower on uint8
        codes.setflags(write=False)
        self.n, self.top_code, self._codes = n, 2 * top + 1, codes
        self._lock = threading.Lock()

    @property
    def degrees(self) -> np.ndarray:
        """Each vertex's degree, decoded from the codes on each access into a read-only array of their dtype."""
        degrees = self.decoded(self._codes)
        degrees.setflags(write=False)
        return degrees

    @contextmanager
    def marking(self, vertices: np.ndarray) -> Iterator[DegreeCodes]:
        """Yield this table with ``vertices`` marked, and clear the marks on exit, even on an exception.

        A vertex outside ``0..n-1`` raises ``ValueError`` before any bit changes.
        One marking at a time marks in place; any other, nested or in another
        thread, marks an unmarked copy of the codes instead of waiting.
        """
        marked = checked_ints(vertices, self.n - 1, "marked vertices")
        if not self._lock.acquire(blocking=False):
            copy = DegreeCodes(self.degrees)  # the same codes, unmarked
            with copy.marking(marked):
                yield copy
            return
        try:
            self._codes.setflags(write=True)
            self._codes[marked.astype(np.intp, copy=False)] |= 1  # a transient intp copy indexes 2x faster
            yield self
        finally:
            self._codes[marked.astype(np.intp, copy=False)] &= ~self._codes.dtype.type(1)
            self._codes.setflags(write=False)
            self._lock.release()

    def __reduce__(self) -> tuple[type[DegreeCodes], tuple[np.ndarray]]:
        return DegreeCodes, (self.degrees,)  # built again: unmarked, with a lock of its own

    @staticmethod
    def marked(codes: np.ndarray) -> np.ndarray:
        """The mark bits of ``codes`` as a bool mask; a 1-byte 0 or 1 is a valid bool, so uint8 needs no cast."""
        return (codes & 1).view(bool) if codes.itemsize == 1 else (codes & 1).astype(bool)

    @staticmethod
    def decoded(codes: np.ndarray) -> np.ndarray:
        """The degree of each of ``codes``, any mark shifted away, in the dtype of the codes."""
        return codes >> 1

    def gather(self, vertices: np.ndarray) -> np.ndarray:
        """The codes of int64 ``vertices`` in ``0..n-1``, unchecked and unmetered: the oracle does both."""
        return self._codes.take(vertices)  # take gathers faster than indexing

    @staticmethod
    def fold(code_counts: np.ndarray) -> np.ndarray:
        """Per-degree counts from per-code ``code_counts`` up to :attr:`top_code`, marks summed."""
        return np.add.reduceat(code_counts, np.arange(0, code_counts.shape[0], 2))


def checked_int(value: object, what: str, error: type[ValueError] = ValueError) -> int:
    """``operator.index(value)``, so numpy integers pass; a bool or anything else raises ``error`` naming ``what``."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise error(f"{what} must be an integer, got {value!r}")


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the elements of a sorted 1-d array that differ from their predecessor."""
    starts = np.empty(ordered.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array.

    Sorts and keeps the first element of each run: on large int64 inputs
    this is tens of times faster than ``np.unique``, which numpy 2.x answers
    through a hash table.
    """
    ordered = np.sort(values)
    return ordered[run_starts(ordered)]


def pair_codes(u: np.ndarray, v: np.ndarray, radix: int) -> np.ndarray:
    """``min(u, v) * radix + max(u, v)`` of each int64 endpoint pair, built with one temporary.

    The one encoding of unordered vertex pairs; for ids in ``0..radix-1``,
    equal codes are equal pairs. At a vertex count up to :data:`MAX_VERTICES`
    ``divmod(code, radix)`` gives back ``(min, max)``; at ``2**32`` the array
    product wraps modulo 2**64, without a warning, to ``min << 32 | max``.
    """
    codes = np.minimum(u, v)
    codes *= radix
    codes += np.maximum(u, v)
    return codes


def build_graph(n: int, raw_edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Validate, normalize and deduplicate raw edges into a :class:`Graph`.

    Pairs may arrive in either endpoint order and may repeat; both are
    normalized away. Self-loops and out-of-range endpoints are errors that
    name the offending pair; so are endpoints beyond the int64 range, and
    endpoints that are not integers. Vertex counts above :data:`MAX_VERTICES`
    are rejected before anything is allocated.
    """
    n = check_vertex_count(n)
    arr = np.asarray(raw_edges)
    if arr.dtype.kind != "i" and not isinstance(raw_edges, np.ndarray):
        # numpy infers float64, uint64 or object for Python ints beyond int64
        try:
            np.asarray(raw_edges, dtype=np.int64)
        except OverflowError:
            raise GraphValidationError(f"edge endpoint beyond the int64 range: out of range for n={n}") from None
    arr = _converted(_vertex_pairs(arr, n), np.int64)
    first, second = arr[:, 0], arr[:, 1]
    loops = first == second
    if loops.any():
        u = first[np.argmax(loops)]
        raise GraphValidationError(f"self-loop ({u}, {u}) is not allowed")
    return graph_from_codes(n, sorted_unique(pair_codes(first, second, n)))


def check_vertex_count(n: int) -> int:
    """``n`` as an ``int``, unless it is no integer in ``0..MAX_VERTICES``, where pair codes overflow int64."""
    n = checked_int(n, "vertex count", GraphValidationError)
    if n < 0:
        raise GraphValidationError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphValidationError(f"vertex count {n} exceeds the supported maximum {MAX_VERTICES}")
    return n


def graph_from_codes(n: int, codes: np.ndarray) -> Graph:
    """:class:`Graph` whose rows decode from int64 pair ``codes``, refused as ``Graph(n, edges)`` refuses the rows."""
    if codes.size and top_value(codes) >= n * n:  # an endpoint is out of range: its int64 decoding, which
        _vertex_pairs(np.column_stack(np.divmod(codes, n or 1)), n)  # nothing wraps, goes to the check that names it
    rows = np.empty((codes.shape[0], 2), dtype=np.uint32)
    np.divmod(codes, n, out=(rows[:, 0], rows[:, 1]), casting="unsafe", dtype=np.int64)
    rows.setflags(write=False)  # the graph's own, so frozen keeps it
    return object.__new__(Graph)._keep(n, rows, codes)


def format_edges(edges: np.ndarray) -> bytes:
    """ASCII ``"u v\\n"`` per row of a ``(k, 2)`` array of non-negative ids.

    The bytes equal ``"".join(f"{u} {v}\\n" for u, v in edges)``. Every id
    is written right-aligned into a fixed-width row of digit bytes, one
    column per decimal place, and the leading zeros are then dropped by one
    mask.
    """
    ids = np.ascontiguousarray(edges, dtype=np.int64).ravel()
    if ids.size == 0:
        return b""
    width = len(str(int(ids.max())))
    cells = np.empty((ids.size, width + 1), dtype=np.uint8)
    cells[0::2, width] = ord(" ")
    cells[1::2, width] = ord("\n")
    rest = ids
    digits = np.ones(ids.size, dtype=np.int64)
    for place in range(width - 1, -1, -1):
        rest, cells[:, place] = np.divmod(rest, 10)
        if place:
            digits += rest > 0
    cells[:, :width] += ord("0")
    return cells[np.arange(width + 1) >= width - digits[:, None]].tobytes()


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``n`` on the first line, then one ``u v`` edge per line."""
    with open(path, "wb") as out:
        out.write(f"{graph.n}\n".encode("ascii"))
        out.write(format_edges(graph.edges))


def read_edge_list(path: str | Path) -> Graph:
    """Parse the text format written by :func:`write_edge_list`.

    Blank lines are ignored. Any other malformed line raises
    :class:`EdgeListParseError` carrying its 1-based line number. A byte
    beyond ASCII is read as a lone surrogate, which no field check accepts,
    so its line is malformed too.

    The lines after a well-formed count line are parsed in bulk by
    ``np.loadtxt``; anything it rejects, and any row that is not two
    fields, goes through the line-by-line parser, which alone words the
    errors. Both read the same ``str.splitlines`` lines, so characters such
    as ``\\x0b`` end a line in both.
    """
    lines = Path(path).read_text(encoding="ascii", errors="surrogateescape").splitlines()
    parsed = _parse_bulk(lines)
    n, pairs = parsed if parsed is not None else _parse_lines(lines)
    return build_graph(n, pairs)


def _integer(field: str) -> int | None:
    """``int(field)`` if ``field`` is ASCII digits after an optional sign, as ``np.loadtxt`` reads one, else None."""
    try:
        return int(field) if re.fullmatch(r"[+-]?[0-9]+", field) else None
    except ValueError:  # more digits than int converts
        return None


def _parse_bulk(lines: list[str]) -> tuple[int, np.ndarray] | None:
    """Vertex count and ``(k, 2)`` edge array, or None to defer to :func:`_parse_lines`."""
    fields = lines[0].split() if lines else []
    n = _integer(fields[0]) if len(fields) == 1 else None
    if n is None:
        return None
    if not any(map(str.strip, itertools.islice(lines, 1, None))):
        # no edge lines; loadtxt would warn about empty input
        return n, np.empty((0, 2), dtype=np.int64)
    try:
        pairs = np.loadtxt(lines, dtype=np.int64, comments=None, skiprows=1, ndmin=2)
    except (ValueError, OverflowError):
        return None
    return (n, pairs) if pairs.shape[1] == 2 else None


def _parse_lines(lines: list[str]) -> tuple[int, list[tuple[int, int]]]:
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if n is None:
            if len(fields) != 1:
                raise EdgeListParseError(f"line {lineno}: expected a single vertex count, got {raw!r}")
            n = _integer(fields[0])
            if n is None:
                raise EdgeListParseError(f"line {lineno}: vertex count is not an integer: {raw!r}")
            continue
        if len(fields) != 2:
            raise EdgeListParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = map(_integer, fields)
        if u is None or v is None:
            raise EdgeListParseError(f"line {lineno}: endpoints are not integers: {raw!r}")
        pairs.append((u, v))
    if n is None:
        raise EdgeListParseError("line 1: missing vertex count")
    return n, pairs
