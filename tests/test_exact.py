import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecount import (
    BucketConfig,
    build_graph,
    exact_bucket_sizes,
    exact_heavy_degree_mass,
    exact_heavy_fraction,
    gen_clique_plus_isolated,
    gen_path,
    gen_star,
    heavy_light_decomposition,
    heavy_vertex_mask,
)


@pytest.fixture
def clique100():
    return gen_clique_plus_isolated(100, 100)


def test_bucket_sizes_on_clique(clique100):
    config = BucketConfig(100, 0.025)
    sizes = exact_bucket_sizes(clique100, config)
    idx = config.bucket_index(99)
    assert sizes[idx] == 100
    assert sizes.sum() == 100


def test_bucket_sizes_on_star():
    g = gen_star(10)
    config = BucketConfig(10, 0.1)
    sizes = exact_bucket_sizes(g, config)
    assert sizes[config.bucket_index(1)] == 9
    assert sizes[config.bucket_index(9)] == 1
    assert sizes.sum() == 10


def test_clique_decomposition_is_all_heavy(clique100):
    config = BucketConfig(100, 0.025)
    heavy = np.array([config.bucket_index(99)])
    decomp = heavy_light_decomposition(clique100, heavy, config)
    assert decomp.edges_heavy == 4950
    assert decomp.edges_cross == 0
    assert decomp.edges_light == 0
    assert decomp.heavy_degree_mass == 9900
    assert decomp.m == 4950
    assert exact_heavy_fraction(clique100, heavy, config) == 1.0


def test_empty_heavy_set_sees_no_mass(clique100):
    config = BucketConfig(100, 0.025)
    none = np.zeros(0, dtype=np.int64)
    decomp = heavy_light_decomposition(clique100, none, config)
    assert decomp.heavy_degree_mass == 0
    assert decomp.edges_heavy == 0
    assert decomp.edges_light == 4950
    assert exact_heavy_degree_mass(clique100, none, config) == 0
    assert exact_heavy_fraction(clique100, none, config) == 0.0


def test_heavy_fraction_needs_edges():
    g = build_graph(5, [])
    config = BucketConfig(5, 0.1)
    with pytest.raises(ValueError):
        exact_heavy_fraction(g, np.array([0]), config)


@st.composite
def graph_and_heavy_choice(draw):
    n = draw(st.integers(2, 40))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=80,
        )
    )
    gamma = draw(st.floats(0.05, 1.0))
    config = BucketConfig(n, gamma)
    heavy = draw(st.sets(st.integers(0, config.t - 1), max_size=config.t))
    return build_graph(n, pairs), config, np.array(sorted(heavy), dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(graph_and_heavy_choice())
def test_decomposition_matches_direct_count(case):
    g, config, heavy = case
    heavy_buckets = set(heavy.tolist())
    flags = [
        d >= 1 and config.bucket_index(int(d)) in heavy_buckets for d in g.degrees.tolist()
    ]
    expected_heavy = sum(1 for u, v in g.edges.tolist() if flags[u] and flags[v])
    expected_light = sum(1 for u, v in g.edges.tolist() if not flags[u] and not flags[v])
    decomp = heavy_light_decomposition(g, heavy, config)
    assert decomp.edges_heavy == expected_heavy
    assert decomp.edges_light == expected_light
    assert decomp.edges_cross == g.m - expected_heavy - expected_light
    assert decomp.heavy_degree_mass == sum(
        int(d) for d, f in zip(g.degrees.tolist(), flags) if f
    )
    assert decomp.heavy_degree_mass == 2 * decomp.edges_heavy + decomp.edges_cross
    assert np.array_equal(heavy_vertex_mask(g, heavy, config), np.array(flags))


@settings(max_examples=80, deadline=None)
@given(graph_and_heavy_choice())
def test_scaled_bucket_mass_brackets_true_mass(case):
    g, config, heavy = case
    sizes = exact_bucket_sizes(g, config)
    scaled = float((sizes[heavy] * config.powers[heavy]).sum())
    mass = exact_heavy_degree_mass(g, heavy, config)
    assert mass <= scaled + 1e-9
    assert scaled <= (1.0 + config.gamma) * mass + 1e-9


_INCONSISTENT_DEGREES = """
import numpy as np
from edgecount import BucketConfig, DegreeCodes, Graph, heavy_light_decomposition

# path 0-1-2 on four vertices, but isolated vertex 3 claims degree 1; a
# Graph derives its degrees, so its degree codes are overwritten after it is built
g = Graph(4, np.array([[0, 1], [1, 2]]))
object.__setattr__(g, "degree_codes", DegreeCodes(np.array([1, 2, 1, 1])))
config = BucketConfig(4, 0.05)
try:
    heavy_light_decomposition(g, np.arange(config.t), config)
except RuntimeError as exc:
    print(exc)
"""


def test_identity_checks_survive_optimized_mode(subprocess_env):
    # python -O strips asserts; the decomposition identities must still fire
    result = subprocess.run(
        [sys.executable, "-O", "-c", _INCONSISTENT_DEGREES],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "identity broken: heavy degree mass != 2 * edges_heavy + edges_cross"


@pytest.mark.parametrize(
    "indices, message",
    [
        ([0.9], "heavy bucket indices must be integers, got dtype float64"),
        ([-1], "heavy bucket indices must lie in 0..{top}"),
        ([0, "t"], "heavy bucket indices must lie in 0..{top}"),
    ],
    ids=["float", "negative", "t"],
)
def test_heavy_vertex_mask_refuses_bucket_indices_outside_0_to_t_minus_1(indices, message):
    # a float index would be truncated, and -1 would mark the top bucket
    config = BucketConfig(5, 0.5)
    indices = [config.t if i == "t" else i for i in indices]
    with pytest.raises(ValueError) as info:
        heavy_vertex_mask(gen_path(5), indices, config)
    assert str(info.value) == message.format(top=config.t - 1)
    assert heavy_vertex_mask(gen_path(5), [0], config).tolist() == [True, False, False, False, True]
