"""Immutable simple undirected graphs with a flat, canonical edge list."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

# Largest vertex count whose ``u * n + v`` edge codes fit in int64; it also
# keeps every endpoint below 2**32, as the ``<< 32`` collision key needs.
MAX_VERTICES = math.isqrt(2**63 - 1)


class GraphValidationError(ValueError):
    """Raised when raw edges violate the simple-graph contract."""


class EdgeListParseError(ValueError):
    """Raised when an edge-list file is malformed; the message names the line."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Edges are stored as an ``(m, 2)`` int64 array with ``u < v`` per row,
    deduplicated and sorted lexicographically, so equal edge sets always have
    identical bytes. Isolated vertices are allowed. Instances never change
    after construction and can be shared freely across concurrent trials.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.edges, self.degrees):
            try:
                arr.setflags(write=False)
            except ValueError:
                pass  # views of caller-owned memory stay as they are

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)


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


def build_graph(n: int, raw_edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Validate, normalize and deduplicate raw edges into a :class:`Graph`.

    Pairs may arrive in either endpoint order and may repeat; both are
    normalized away. Self-loops and out-of-range endpoints are errors that
    name the offending pair. Vertex counts above :data:`MAX_VERTICES` are
    rejected before anything is allocated.
    """
    if n < 0:
        raise GraphValidationError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphValidationError(f"vertex count {n} exceeds the supported maximum {MAX_VERTICES}")
    arr = np.asarray(raw_edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError("edges must be an iterable of vertex pairs")

    bad = (arr < 0) | (arr >= n)
    if bad.any():
        u, v = arr[np.flatnonzero(bad.any(axis=1))[0]]
        raise GraphValidationError(f"edge ({u}, {v}): endpoint out of range for n={n}")
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        u = arr[np.flatnonzero(loops)[0], 0]
        raise GraphValidationError(f"self-loop ({u}, {u}) is not allowed")

    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    codes = sorted_unique(lo * np.int64(n) + hi)
    edges = np.column_stack((codes // n, codes % n)) if codes.size else np.empty((0, 2), dtype=np.int64)
    degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    return Graph(n=n, edges=edges, degrees=degrees)


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``n`` on the first line, then one ``u v`` edge per line."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_edge_list(path: str | Path) -> Graph:
    """Parse the text format written by :func:`write_edge_list`.

    Blank lines are ignored. Any other malformed line raises
    :class:`EdgeListParseError` carrying its 1-based line number.
    """
    text = Path(path).read_text(encoding="ascii")
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if n is None:
            if len(fields) != 1:
                raise EdgeListParseError(f"line {lineno}: expected a single vertex count, got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise EdgeListParseError(f"line {lineno}: vertex count is not an integer: {raw!r}") from None
            continue
        if len(fields) != 2:
            raise EdgeListParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: endpoints are not integers: {raw!r}") from None
    if n is None:
        raise EdgeListParseError("line 1: missing vertex count")
    return build_graph(n, pairs)
