"""Seeded graph generators, including the planted-support pair used by the
sample-complexity demonstration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphValidationError, build_graph, pair_codes, read_edge_list, run_starts

# Above this many candidate pairs we sample edges by rejection instead of
# materializing every pair, which keeps gen_gnm cheap for large sparse graphs.
_DENSE_ENUMERATION_LIMIT = 2_000_000


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly ``m`` distinct edges on ``n`` vertices."""
    if n < 1:
        raise GraphValidationError("gnm requires n >= 1")
    max_pairs = n * (n - 1) // 2
    if not 0 <= m <= max_pairs:
        raise GraphValidationError(f"gnm: m={m} outside [0, {max_pairs}] for n={n}")
    rng = np.random.default_rng(seed)
    if max_pairs <= _DENSE_ENUMERATION_LIMIT:
        iu, iv = np.triu_indices(n, k=1)
        chosen = rng.permutation(max_pairs)[:m]
        return build_graph(n, np.column_stack((iu[chosen], iv[chosen])))

    # Draw batches of pair codes until m distinct ones have been seen, and
    # keep the first m distinct codes in draw order so the edge set is
    # uniform. Each pass sorts only its own batch: ``seen`` holds the sorted
    # distinct codes of the earlier passes, and ``firsts`` each pass's codes
    # drawn for the first time, in draw order.
    seen = np.empty(0, dtype=np.int64)
    firsts: list[np.ndarray] = []
    distinct = 0
    while distinct < m:
        batch = max(2 * (m - distinct), 1024)
        u = rng.integers(0, n, size=batch, dtype=np.int64)
        v = rng.integers(0, n, size=batch, dtype=np.int64)
        codes = pair_codes(u, v, n)[u != v]
        fresh, first_pos = _first_draws(codes, n * n)
        new = ~_sorted_member(seen, fresh)
        is_first = np.zeros(codes.size, dtype=bool)
        is_first[first_pos[new]] = True
        firsts.append(codes[is_first])
        distinct += firsts[-1].size
        if distinct < m:
            added = fresh[new]
            seen = np.insert(seen, np.searchsorted(seen, added), added)

    edges = np.empty((m, 2), dtype=np.int64)
    filled = 0
    for codes in firsts:
        rows = edges[filled : filled + codes.size]
        np.divmod(codes[: rows.shape[0]], n, out=(rows[:, 0], rows[:, 1]))
        filled += rows.shape[0]
    return build_graph(n, edges)


def _first_draws(codes: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of ``codes`` (all in ``0..bound-1``), sorted, and the
    position of the first draw of each.

    When a code and its position fit in 63 bits together, one sort of the
    packed ``code << shift | position`` keys yields both, at the cost of a
    plain sort, several times cheaper than an argsort. Larger codes and
    batches take an argsort and the least position in each run of equal
    codes.
    """
    shift = codes.size.bit_length()
    if (bound - 1).bit_length() + shift <= 63:
        keys = codes << shift
        keys |= np.arange(codes.size, dtype=np.int64)
        keys.sort()
        ordered = keys >> shift
        starts = run_starts(ordered)
        return ordered[starts], keys[starts] & np.int64((1 << shift) - 1)
    order = np.argsort(codes)
    ordered = codes[order]
    starts = np.flatnonzero(run_starts(ordered))
    return ordered[starts], np.minimum.reduceat(order, starts)


def _sorted_member(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` that occur in the sorted 1-d array ``ordered``."""
    if ordered.size == 0:
        return np.zeros(values.shape, dtype=bool)
    return ordered.take(np.searchsorted(ordered, values), mode="clip") == values


def gen_path(n: int) -> Graph:
    if n < 2:
        raise GraphValidationError("path requires n >= 2")
    u = np.arange(n - 1, dtype=np.int64)
    return build_graph(n, np.column_stack((u, u + 1)))


def gen_star(n: int) -> Graph:
    if n < 2:
        raise GraphValidationError("star requires n >= 2")
    spokes = np.arange(1, n, dtype=np.int64)
    return build_graph(n, np.column_stack((np.zeros(n - 1, dtype=np.int64), spokes)))


def gen_clique_plus_isolated(n: int, k: int) -> Graph:
    """Clique on vertices ``0..k-1``; the remaining ``n - k`` vertices are isolated."""
    if n < 2:
        raise GraphValidationError("clique_plus_isolated requires n >= 2")
    if not 0 <= k <= n:
        raise GraphValidationError(f"clique_plus_isolated: k={k} outside [0, {n}]")
    iu, iv = np.triu_indices(k, k=1)
    return build_graph(n, np.column_stack((iu, iv)))


def gen_skewed(n: int, exponent: float, seed: int) -> Graph:
    """Heavy-tailed random graph: degrees drawn with P(d) proportional to
    ``d**-exponent`` over ``1..round(sqrt(n))``, realized as a simple graph by
    pairing stubs and dropping self-loops and duplicate pairs."""
    if n < 2:
        raise GraphValidationError("skewed requires n >= 2")
    if exponent <= 0:
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
    mapping_seed: int


def gen_lowerbound_instance(n: int, seed: int) -> LowerBoundInstance:
    """Sample a fresh placement and slot mapping for the instance pair.

    Needs ``n >= 7``: the planted set must both fit among the ``n`` vertices
    and offer at least ``n`` candidate edge slots.
    """
    side = 2 * math.ceil(math.sqrt(n)) + 1 if n >= 1 else 0
    if n < 7:
        raise GraphValidationError(f"lower-bound instance needs n >= 7 (planted set of {side} cannot fit n={n})")
    capacity = side * (side - 1) // 2
    if capacity < n:
        raise GraphValidationError(f"planted set of {side} offers only {capacity} slots for n={n}")

    rng = np.random.default_rng(seed)
    planted = np.sort(rng.choice(n, size=side, replace=False).astype(np.int64))
    iu, iv = np.triu_indices(side, k=1)
    shuffle = rng.permutation(capacity)
    slot_u = planted[iu[shuffle]]
    slot_v = planted[iv[shuffle]]

    edges_a = np.column_stack((slot_u[:n], slot_v[:n]))
    support_b = rng.permutation(n)[: n // 2 - 1]  # fresh uniform bijection, truncated
    edges_b = np.column_stack((slot_u[support_b], slot_v[support_b]))
    return LowerBoundInstance(
        graph_a=build_graph(n, edges_a),
        graph_b=build_graph(n, edges_b),
        planted_set=planted,
        mapping_seed=seed,
    )
