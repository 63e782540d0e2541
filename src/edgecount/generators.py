"""Seeded graph generators, including the planted-support pair used by the
sample-complexity demonstration."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    GraphValidationError,
    build_graph,
    check_vertex_count,
    checked_int,
    graph_from_codes,
    pair_codes,
    read_edge_list,
    run_starts,
)

# Above this many candidate pairs we sample edges by rejection instead of
# materializing every pair, which keeps gen_gnm cheap for large sparse graphs.
_DENSE_ENUMERATION_LIMIT = 2_000_000


def _vertex_count(n: int, shape: str, least: int) -> int:
    """:func:`check_vertex_count` of ``n``, which the graph ``shape`` needs to be at least ``least``."""
    n = check_vertex_count(n)
    if n < least:
        raise GraphValidationError(f"{shape} requires n >= {least}")
    return n


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly ``m`` distinct edges on ``n`` vertices."""
    n = _vertex_count(n, "gnm", 1)
    m = checked_int(m, "m", GraphValidationError)
    max_pairs = n * (n - 1) // 2
    if not 0 <= m <= max_pairs:
        raise GraphValidationError(f"gnm: m={m} outside [0, {max_pairs}] for n={n}")
    rng = np.random.default_rng(seed)
    if max_pairs <= _DENSE_ENUMERATION_LIMIT:
        iu, iv = np.triu_indices(n, k=1)
        chosen = rng.permutation(max_pairs)[:m]
        return build_graph(n, np.column_stack((iu[chosen], iv[chosen])))

    # Draw batches of pair codes until m distinct ones have been seen; the edge set is the first m
    # distinct codes in draw order, so it is uniform. ``seen`` holds the sorted distinct codes of the
    # earlier passes. A pass that still needs ``need`` codes keeps the codes new to ``seen`` from the
    # shortest prefix of its draws that holds ``need`` of them: it encodes and dedupes its first
    # ``need`` draws, self-loops dropped, and while ``d`` codes are missing the next ``d`` draws, each
    # of which adds at most one new code. Of its batch-long draws u and v, only these prefixes are formed,
    # through two cursors on the one stream: after the first ``need`` values of u, ``rest`` starts where
    # ``rng`` stands and serves the extension rounds' u in order, while ``rng`` draws and drops the rest
    # of u in bounded chunks and then reads v. A pass that ends short of ``need`` has read all of v, so
    # the next pass starts where v ends.
    rest = np.random.default_rng()  # unseeded: each pass sets its state before it draws
    seen = np.empty(0, dtype=np.int64)
    while seen.size < m:
        need = m - seen.size
        batch = max(2 * need, 1024)
        u = rng.integers(0, n, size=need, dtype=np.int64)
        rest.bit_generator.state = rng.bit_generator.state
        for start in range(need, batch, 2**16):
            rng.integers(0, n, size=min(batch - start, 2**16), dtype=np.int64)
        found, read = _new_codes(u, rng.integers(0, n, size=need, dtype=np.int64), n, seen), need
        while found.size < need and read < batch:
            take = min(need - found.size, batch - read)
            u = rest.integers(0, n, size=take, dtype=np.int64)
            found = _union(found, _new_codes(u, rng.integers(0, n, size=take, dtype=np.int64), n, seen))
            read += take
        seen = _union(seen, found)
    return graph_from_codes(n, seen)


def _new_codes(u: np.ndarray, v: np.ndarray, n: int, seen: np.ndarray) -> np.ndarray:
    """Sorted distinct codes of the pairs ``(u, v)`` that are no self-loop and not in the sorted ``seen``."""
    codes = pair_codes(u, v, n)[u != v]
    codes.sort()
    starts = run_starts(codes)
    codes = codes if starts.all() else codes[starts]
    return codes if seen.size == 0 else codes[seen.take(np.searchsorted(seen, codes), mode="clip") != codes]


def _union(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted 1-d arrays of distinct values."""
    if ordered.size == 0:
        return values
    slots = np.searchsorted(ordered, values)
    new = ordered.take(slots, mode="clip") != values
    return np.insert(ordered, slots[new], values[new])


def gen_path(n: int) -> Graph:
    n = _vertex_count(n, "path", 2)
    u = np.arange(n - 1, dtype=np.int64)
    return build_graph(n, np.column_stack((u, u + 1)))


def gen_star(n: int) -> Graph:
    n = _vertex_count(n, "star", 2)
    spokes = np.arange(1, n, dtype=np.int64)
    return build_graph(n, np.column_stack((np.zeros(n - 1, dtype=np.int64), spokes)))


def gen_clique_plus_isolated(n: int, k: int) -> Graph:
    """Clique on vertices ``0..k-1``; the remaining ``n - k`` vertices are isolated."""
    n = _vertex_count(n, "clique_plus_isolated", 2)
    k = checked_int(k, "k", GraphValidationError)
    if not 0 <= k <= n:
        raise GraphValidationError(f"clique_plus_isolated: k={k} outside [0, {n}]")
    iu, iv = np.triu_indices(k, k=1)
    return build_graph(n, np.column_stack((iu, iv)))


def gen_skewed(n: int, exponent: float, seed: int) -> Graph:
    """Heavy-tailed random graph: degrees drawn with P(d) proportional to
    ``d**-exponent`` over ``1..round(sqrt(n))``, realized as a simple graph by
    pairing stubs and dropping self-loops and duplicate pairs."""
    n = _vertex_count(n, "skewed", 2)
    if isinstance(exponent, bool) or not isinstance(exponent, numbers.Real):  # before a comparison raises TypeError
        raise GraphValidationError(f"skewed exponent must be a real number, got {exponent!r}")
    if not exponent > 0:  # NaN compares false with everything
        raise GraphValidationError("skewed requires a positive exponent")
    rng = np.random.default_rng(seed)
    d_max = max(2, round(math.sqrt(n)))
    weights = np.arange(1, d_max + 1, dtype=float) ** -exponent
    weights /= weights.sum()
    target = rng.choice(d_max, size=n, p=weights).astype(np.int64) + 1
    if target.sum() % 2:
        target[int(np.argmin(target))] += 1
    stubs = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), target))
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    return build_graph(n, np.column_stack((u[keep], v[keep])))


def graph_from_spec(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a compact ``name:arg1,arg2`` string.

    Understood forms: ``gnm:n,m``, ``path:n``, ``star:n``,
    ``clique_plus_isolated:n,k``, ``skewed:n,exponent``.
    """
    name, _, argstr = spec.partition(":")
    args = [a for a in argstr.split(",") if a] if argstr else []
    if name not in ("gnm", "path", "star", "clique_plus_isolated", "skewed"):
        raise GraphValidationError(f"bad graph spec {spec!r}: unknown graph shape {name!r}")
    if name == "clique_plus_isolated" and len(args) == 1:
        raise GraphValidationError(f"bad graph spec {spec!r}: clique_plus_isolated needs k")
    if name == "skewed" and len(args) == 1:
        raise GraphValidationError(f"bad graph spec {spec!r}: skewed needs an exponent")
    try:
        if name == "gnm" and len(args) == 2:
            return gen_gnm(int(args[0]), int(args[1]), seed)
        if name == "path" and len(args) == 1:
            return gen_path(int(args[0]))
        if name == "star" and len(args) == 1:
            return gen_star(int(args[0]))
        if name == "clique_plus_isolated" and len(args) == 2:
            return gen_clique_plus_isolated(int(args[0]), int(args[1]))
        if name == "skewed" and len(args) == 2:
            return gen_skewed(int(args[0]), float(args[1]), seed)
    except ValueError as exc:
        raise GraphValidationError(f"bad graph spec {spec!r}: {exc}") from None
    raise GraphValidationError(f"bad graph spec {spec!r}")


def load_graph(source: str, seed: int = 0) -> Graph:
    """Resolve ``file:PATH`` to an edge-list file, anything else via
    :func:`graph_from_spec`."""
    if source.startswith("file:"):
        return read_edge_list(source[len("file:") :])
    return graph_from_spec(source, seed)


@dataclass(frozen=True)
class LowerBoundInstance:
    """Two graphs that agree everywhere a local probe is likely to look.

    Both graphs place all their edges inside the same small planted vertex
    set (a clique's worth of candidate slots); every vertex outside it is
    isolated. ``graph_a`` realizes ``n`` distinct slots, ``graph_b`` only
    ``n // 2 - 1``, so uniform edge draws collide about twice as often on
    ``graph_b`` while degree or neighbor probes almost never touch either.
    """

    graph_a: Graph
    graph_b: Graph
    planted_set: np.ndarray


def gen_lowerbound_instance(n: int, seed: int) -> LowerBoundInstance:
    """Sample a fresh placement and slot mapping for the instance pair.

    Needs ``n >= 7``, so that the planted set fits among the ``n`` vertices.
    """
    n = check_vertex_count(n)
    side = 2 * math.ceil(math.sqrt(n)) + 1
    if n < 7:
        raise GraphValidationError(f"lower-bound instance needs n >= 7 (planted set of {side} cannot fit n={n})")

    rng = np.random.default_rng(seed)
    planted = np.sort(rng.choice(n, size=side, replace=False).astype(np.int64))
    # with s = ceil(sqrt(n)), the planted set offers s * (2s + 1) >= 2n + sqrt(n) candidate slots, so at least n
    iu, iv = np.triu_indices(side, k=1)
    shuffle = rng.permutation(iu.shape[0])
    slot_u = planted[iu[shuffle]]
    slot_v = planted[iv[shuffle]]

    edges_a = np.column_stack((slot_u[:n], slot_v[:n]))
    support_b = rng.permutation(n)[: n // 2 - 1]  # fresh uniform bijection, truncated
    edges_b = np.column_stack((slot_u[support_b], slot_v[support_b]))
    return LowerBoundInstance(
        graph_a=build_graph(n, edges_a),
        graph_b=build_graph(n, edges_b),
        planted_set=planted,
    )
