"""Full-visibility oracles used to validate the sampled estimator in tests.

These read the whole graph, so they must never sit on a query-metered path;
they exist to give tests exact reference values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buckets import BucketConfig
from .graph import Graph, checked_ints


def exact_bucket_sizes(graph: Graph, config: BucketConfig) -> np.ndarray:
    """True per-bucket vertex counts; degree-0 vertices appear nowhere."""
    return config.bucket_counts(graph.degrees).astype(np.int64)


@dataclass(frozen=True)
class HeavyLightDecomposition:
    """Exact split of edges by which side of the heavy classification they touch."""

    heavy_degree_mass: int
    edges_heavy: int
    edges_light: int
    edges_cross: int
    m: int


def heavy_vertex_mask(graph: Graph, heavy_indices: np.ndarray, config: BucketConfig) -> np.ndarray:
    bucket_is_heavy = np.zeros(config.t, dtype=bool)
    bucket_is_heavy[checked_ints(heavy_indices, config.t - 1, "heavy bucket indices")] = True
    mask = np.zeros(graph.n, dtype=bool)
    degrees = graph.degrees
    nonzero = degrees >= 1
    mask[nonzero] = bucket_is_heavy[config.bucket_indices(degrees[nonzero])]
    return mask


def heavy_light_decomposition(graph: Graph, heavy_indices: np.ndarray, config: BucketConfig) -> HeavyLightDecomposition:
    """Count heavy/light/cross edges and the heavy degree mass, checking the
    degree-mass identity on every call."""
    mask = heavy_vertex_mask(graph, heavy_indices, config)
    heavy_u, heavy_v = mask[graph.edges].T
    edges_heavy = int((heavy_u & heavy_v).sum())
    edges_light = int((~heavy_u & ~heavy_v).sum())
    edges_cross = graph.m - edges_heavy - edges_light
    mass = int(graph.degree_codes.degrees[mask].sum())  # the decoded table, which graph.degrees widens
    if mass != 2 * edges_heavy + edges_cross:
        raise RuntimeError("identity broken: heavy degree mass != 2 * edges_heavy + edges_cross")
    return HeavyLightDecomposition(
        heavy_degree_mass=mass,
        edges_heavy=edges_heavy,
        edges_light=edges_light,
        edges_cross=edges_cross,
        m=graph.m,
    )


def exact_heavy_degree_mass(graph: Graph, heavy_indices: np.ndarray, config: BucketConfig) -> int:
    return heavy_light_decomposition(graph, heavy_indices, config).heavy_degree_mass


def exact_heavy_fraction(graph: Graph, heavy_indices: np.ndarray, config: BucketConfig) -> float:
    """True probability that a degree-proportional vertex draw is heavy."""
    if graph.m == 0:
        raise ValueError("heavy fraction undefined on an edgeless graph")
    return exact_heavy_degree_mass(graph, heavy_indices, config) / (2.0 * graph.m)
