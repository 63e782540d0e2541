"""Every entry point that is handed vertex ids or degrees refuses non-integer dtypes and out-of-range values."""

import json
import re

import numpy as np
import pytest

from edgecount import (
    BucketConfig,
    DegreeCodes,
    EstimatorParams,
    GraphValidationError,
    HeavySet,
    PlanProvenance,
    QueryLedger,
    QueryPlan,
    TrialConfig,
    answer_degree_codes,
    answer_degrees,
    answer_plan,
    bucket_count,
    build_graph,
    classify_heavy,
    collision_majority_vote,
    count_collisions,
    estimate_edges,
    gen_gnm,
    gen_path,
    heavy_fraction_estimate,
    plan_layout,
    resolved_params,
    run_accuracy_trials,
)

PATH = gen_path(4)
CONFIG = BucketConfig(4, 0.5)
HEAVY = HeavySet(
    indices=np.arange(CONFIG.t), bucket_counts=np.zeros(CONFIG.t, dtype=np.int64), sample_size=2, threshold=0.0
)
ONE = np.array([1])


def _ones(ids):
    return np.ones(len(ids), dtype=np.int64)


def _marked_top_code(ids):
    with PATH.degree_codes.marking(ids):
        return PATH.degree_codes.top_code


# (entry point on a 1-d run of ids, error type, name in the messages,
#  range message for the ids [2**56 or more, 1], result on no ids)
ENTRY_POINTS = {
    "build_graph": (
        lambda ids: build_graph(4, np.reshape(ids, (-1, 2))).m,
        GraphValidationError,
        "edge endpoints",
        "endpoint out of range for n=4",
        0,
    ),
    "QueryPlan": (
        lambda ids: answer_plan(PATH, QueryPlan(ids, 0, PlanProvenance(4, None, 0)), 0).degrees.tolist(),
        ValueError,
        "degree-probe vertices",
        r"query 0 \(Deg\(-?\d+\)\) has invalid arguments",
        [],
    ),
    "DegreeCodes": (
        _marked_top_code,
        ValueError,
        "marked vertices",
        "marked vertices must lie in 0..3",
        5,
    ),
    "answer_degrees": (
        lambda ids: answer_degrees(PATH, ids, QueryLedger()).tolist(),
        ValueError,
        "vertices",
        r"query 0 \(Deg\(\d+\)\) has invalid arguments",
        [],
    ),
    "answer_degree_codes": (
        lambda ids: answer_degree_codes(DegreeCodes(PATH.degree_codes.degrees), ids, QueryLedger()).tolist(),
        ValueError,
        "vertices",
        r"query 0 \(Deg\(\d+\)\) has invalid arguments",
        [],
    ),
    "count_collisions": (
        lambda ids: count_collisions(np.reshape(ids, (-1, 2))),
        ValueError,
        "edge endpoints",
        r"edge endpoints must lie in 0\.\.4294967295",
        0,
    ),
    "collision_majority_vote": (
        lambda ids: collision_majority_vote(ids, ids, 1, len(ids)),
        ValueError,
        "edge endpoints",
        r"edge endpoints must lie in 0\.\.4294967295",
        0,
    ),
    "classify_heavy": (
        lambda ids: classify_heavy(ids, CONFIG, 0.25),
        ValueError,
        "degree answers",
        r"degree answers must lie in 0\.\.4",
        "cannot classify from an empty degree sample",
    ),
    "heavy_fraction_estimate endpoints": (
        lambda ids: heavy_fraction_estimate(ids, ONE, ONE, HEAVY, CONFIG),
        ValueError,
        "endpoints",
        r"endpoints must lie in 0\.\.3",
        "heavy fraction needs at least one endpoint draw",
    ),
    "heavy_fraction_estimate sampled vertices": (
        lambda ids: heavy_fraction_estimate(ONE, ids, _ones(ids), HEAVY, CONFIG),
        ValueError,
        "sampled vertices",
        r"sampled vertices must lie in 0\.\.3",
        0.0,
    ),
    "heavy_fraction_estimate sampled degrees": (
        lambda ids: heavy_fraction_estimate(ONE, _ones(ids), ids, HEAVY, CONFIG),
        ValueError,
        "degree answers",
        r"degree answers must lie in 0\.\.4",
        0.0,
    ),
}

NON_INTEGER_IDS = [
    pytest.param([0.5, 1.0], "float64", id="float-list"),
    pytest.param(np.array([0.0, 1.0]), "float64", id="whole-float-array"),
    pytest.param(np.array([0.5, 1.5], dtype=np.float32), "float32", id="float32-array"),
    pytest.param([True, False], "bool", id="bool-list"),
    pytest.param(np.array([True, True]), "bool", id="bool-array"),
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("ids, dtype", NON_INTEGER_IDS)
def test_non_integer_ids_are_refused(entry, ids, dtype):
    call, error, what, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(error, match=f"^{re.escape(f'{what} must be integers, got dtype {dtype}')}$"):
        call(ids)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "big, dtype",
    [
        pytest.param(2**63, np.uint64, id="uint64-2**63"),
        pytest.param(2**64 - 1, np.uint64, id="uint64-max"),
        pytest.param(2**56, ">i8", id="big-endian-2**56"),  # its bytes read little-endian are 1
    ],
)
def test_ids_beyond_the_range_are_refused_in_any_integer_dtype(entry, big, dtype):
    call, error, _, message, _ = ENTRY_POINTS[entry]
    with pytest.raises(error, match=message):
        call(np.array([big, 1], dtype=dtype))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_empty_ids_pass_the_dtype_rule(entry):
    call, _, _, _, expected = ENTRY_POINTS[entry]
    if isinstance(expected, str):  # an empty sample is an error of its own, not a dtype one
        with pytest.raises(ValueError, match=expected):
            call([])
    else:
        assert call([]) == expected


@pytest.mark.parametrize("pairs", [[(0.5, 2.7)], [(True, False)], [(0, 1), (1, 2.0)]])
def test_build_graph_refuses_listed_non_integer_endpoints(pairs):
    with pytest.raises(GraphValidationError, match="^edge endpoints must be integers, got dtype"):
        build_graph(4, pairs)


def test_query_plan_names_a_uint64_vertex_as_the_caller_passed_it():
    ledger = QueryLedger()
    with pytest.raises(ValueError) as info:
        answer_plan(gen_path(3), QueryPlan(np.array([2**63], np.uint64), 0, PlanProvenance(3, None, 0)), 0, ledger)
    assert str(info.value) == "query 0 (Deg(9223372036854775808)) has invalid arguments"
    assert ledger.total == 0


@pytest.mark.parametrize(
    "call, error, what",
    [
        (lambda n: plan_layout(n, EstimatorParams(epsilon=0.25)), ValueError, "n"),
        (lambda n: bucket_count(n, 0.025), ValueError, "n"),
        (lambda n: BucketConfig(n, 0.025), ValueError, "n"),
        (lambda n: build_graph(n, [(0, 1)]), GraphValidationError, "vertex count"),
        (lambda n: gen_path(n), GraphValidationError, "vertex count"),
        (lambda n: gen_gnm(n, 10, 0), GraphValidationError, "vertex count"),
    ],
    ids=["plan_layout", "bucket_count", "BucketConfig", "build_graph", "gen_path", "gen_gnm"],
)
@pytest.mark.parametrize("n", [100.5, 4.0, True], ids=["fraction", "whole-float", "bool"])
def test_vertex_counts_must_be_integers(call, error, what, n):
    with pytest.raises(error) as info:
        call(n)
    assert type(info.value) is error
    assert str(info.value) == f"{what} must be an integer, got {n!r}"


def test_numpy_integer_vertex_counts_keep_working():
    params = EstimatorParams(epsilon=0.25)
    assert plan_layout(np.int64(10000), params) == plan_layout(10000, params)
    assert bucket_count(np.uint32(10000), 0.025) == bucket_count(10000, 0.025)
    assert BucketConfig(np.int32(10000), 0.025).t == BucketConfig(10000, 0.025).t
    assert build_graph(np.int64(4), [(0, 1)]) == build_graph(4, [(0, 1)])
    assert gen_gnm(np.int64(100), 10, 0) == gen_gnm(100, 10, 0)
    assert type(gen_path(np.uint8(10)).n) is int


def test_narrow_integer_ids_answer_as_int64_ones():
    for dtype in (np.uint8, np.int16, np.uint32, ">i8"):
        ids = np.array([3, 0, 2, 1], dtype=dtype)
        assert answer_degrees(PATH, ids, QueryLedger()).tolist() == [1, 1, 2, 2]
        assert count_collisions(ids.reshape(-1, 2)) == 0
        assert build_graph(4, ids.reshape(-1, 2)) == build_graph(4, [(0, 3), (1, 2)])


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_a_negative_narrow_id_is_refused_where_its_unsigned_view_is_in_range(dtype):
    # viewed unsigned, an int8 -1 reads 255 (an int16 one 65535), which lies inside 0..n here
    n = 2 * int(np.iinfo(dtype).max) + 2
    ids = np.array([-1], dtype=dtype)
    with pytest.raises(GraphValidationError, match=f"^edge \\(-1, 1\\): endpoint out of range for n={n}$"):
        build_graph(n, np.array([[-1, 1]], dtype=dtype))
    with pytest.raises(ValueError, match=f"^marked vertices must lie in 0..{n - 1}$"):
        with DegreeCodes(np.zeros(n, dtype=np.int64)).marking(ids):
            pass
    with pytest.raises(ValueError, match=f"^degrees must lie in 0..{n}$"):
        DegreeCodes(np.append(np.zeros(n - 1, dtype=dtype), ids))
    with pytest.raises(ValueError, match=r"^query 0 \(Deg\(-1\)\) has invalid arguments$"):
        answer_degree_codes(DegreeCodes(np.zeros(n, dtype=np.int64)), ids, QueryLedger())


def test_numpy_scalar_params_are_stored_as_floats():
    scalars = EstimatorParams(
        epsilon=np.float32(0.3), c_s=np.float64(2.0), c_t=np.int64(2), c_f=np.float32(2.5), c_r=np.float16(5.0)
    )
    floats = EstimatorParams(epsilon=float(np.float32(0.3)), c_s=2.0, c_t=2.0, c_f=2.5, c_r=5.0)
    for name in ("epsilon", "c_s", "c_t", "c_f", "c_r", "gamma"):
        assert type(getattr(scalars, name)) is float
    assert scalars == floats
    assert json.dumps(resolved_params(10**6, scalars)) == json.dumps(resolved_params(10**6, floats))
    graph = gen_gnm(10000, 100000, 1)
    assert estimate_edges(graph, scalars) == estimate_edges(graph, floats)
    with pytest.raises(TypeError):
        EstimatorParams(epsilon="0.25")


def test_trial_config_stores_the_normalised_params():
    config = TrialConfig(graph="gnm:500,2000", epsilon=np.float32(0.5), trials=2, c_s=np.float32(2.5))
    assert type(config.epsilon) is float and type(config.c_s) is float and config.c_t is None
    assert config.epsilon == config.params_for(0).epsilon
    json.dumps(run_accuracy_trials(config).summary_dict())
