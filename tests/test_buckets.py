import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecount import BucketConfig, bucket_count, buckets
from edgecount.buckets import MAX_BUCKETS
from edgecount.graph import MAX_VERTICES


def test_bucket_count_frozen_values():
    assert bucket_count(1000, 0.1) == 74
    assert bucket_count(1000, 0.1) == math.ceil(math.log(1000) / math.log(1.1)) + 1
    assert bucket_count(2, 0.5) == 3


def test_bucket_count_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bucket_count(1, 0.1)
    with pytest.raises(ValueError):
        bucket_count(100, 0.0)
    with pytest.raises(ValueError):
        bucket_count(100, -0.5)


@pytest.mark.parametrize(
    "n, gamma, message",
    [
        (10, float("nan"), "bucket_count requires a finite gamma > 0"),
        (10, float("inf"), "bucket_count requires a finite gamma > 0"),
        (1000, 1e-10, f"bucket_count at n=1000, gamma=1e-10 needs more than MAX_BUCKETS={MAX_BUCKETS} buckets"),
        (10, 5e-324, f"bucket_count at n=10, gamma=5e-324 needs more than MAX_BUCKETS={MAX_BUCKETS} buckets"),
        # a bool is no growth rate, though it compares as 1, and a string is no real number
        (10, True, "bucket_count requires a finite gamma > 0"),
        (10, np.True_, "bucket_count requires a finite gamma > 0"),
        (10, "0.5", "bucket_count requires a finite gamma > 0"),
    ],
    ids=["nan", "inf", "too-many", "subnormal", "bool", "numpy-bool", "string"],
)
def test_bucket_config_refuses_a_gamma_it_cannot_tabulate(n, gamma, message):
    with pytest.raises(ValueError) as info:
        BucketConfig(n, gamma)
    assert str(info.value) == message


def test_bucket_ceiling_is_inclusive(monkeypatch):
    t = bucket_count(1000, 0.1)
    monkeypatch.setattr(buckets, "MAX_BUCKETS", t)
    assert BucketConfig(1000, 0.1).t == t
    monkeypatch.setattr(buckets, "MAX_BUCKETS", t - 1)
    with pytest.raises(ValueError, match=f"needs more than MAX_BUCKETS={t - 1} buckets"):
        bucket_count(1000, 0.1)


def test_degree_one_lands_in_first_bucket():
    config = BucketConfig(1000, 0.1)
    assert config.bucket_index(1) == 0


def test_degree_two_crosses_seven_doublings_of_ten_percent():
    assert 1.1**7 < 2 <= 1.1**8
    assert BucketConfig(1000, 0.1).bucket_index(2) == 8


def test_powers_cover_all_degrees():
    config = BucketConfig(1000, 0.1)
    assert config.powers[-1] >= 1000
    assert config.powers[0] == 1.0
    assert config.powers[1] == pytest.approx(1.1)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5000), st.floats(0.01, 2.0))
def test_every_positive_degree_maps_into_the_table(n, gamma):
    config = BucketConfig(n, gamma)
    degrees = np.unique(np.concatenate([[1, n - 1], np.linspace(1, n - 1, 12, dtype=np.int64)]))
    indices = config.bucket_indices(degrees)
    assert np.all(indices >= 0)
    assert np.all(indices < config.t)
    for d, i in zip(degrees.tolist(), indices.tolist()):
        assert d <= config.powers[i]
        if i > 0:
            assert d > config.powers[i - 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2000), st.floats(0.02, 1.0), st.integers(1, 1999))
def test_vector_and_scalar_indexers_agree(n, gamma, d):
    if d >= n:
        d = n - 1
    config = BucketConfig(n, gamma)
    assert config.bucket_indices(np.array([d]))[0] == config.bucket_index(d)


def test_out_of_range_degrees_rejected():
    config = BucketConfig(100, 0.1)
    with pytest.raises(ValueError):
        config.bucket_index(0)
    with pytest.raises(ValueError):
        config.bucket_index(101)
    with pytest.raises(ValueError):
        config.bucket_indices(np.array([5, 0]))
    with pytest.raises(ValueError):
        config.bucket_indices(np.array([5, 200]))
    # a degree that is no integer is refused by name, not rounded, read as
    # 1, or taken as a boolean mask or an index error
    config = BucketConfig(10, 0.5)
    with pytest.raises(ValueError, match="^degrees must be integers, got dtype float64$"):
        config.bucket_indices(np.array([1.5, 2.0]))
    with pytest.raises(ValueError, match="^degrees must be integers, got dtype bool$"):
        config.bucket_indices(np.array([True, True, True]))
    with pytest.raises(ValueError, match="^degree must be an integer, got 2.5$"):
        config.bucket_index(2.5)
    with pytest.raises(ValueError, match="^degree must be an integer, got True$"):
        config.bucket_index(True)
    with pytest.raises(ValueError, match="^degrees must be integers, got dtype float64$"):
        config.bucket_counts(np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match=r"^degrees must lie in 1\.\.n$"):
        config.bucket_counts(np.array([0, 11]))


@pytest.mark.parametrize("degree", [0, -3, 101, 2**64, -(2**70)])
def test_scalar_lookup_refuses_a_degree_as_the_vector_one_does(degree):
    with pytest.raises(ValueError, match=r"^degrees must lie in 1\.\.n$"):
        BucketConfig(100, 0.1).bucket_index(degree)


@pytest.mark.parametrize("degrees", [np.array([-5, 2]), [-5, 2], np.array([0, -1, 3])], ids=["array", "list", "with-zero"])
def test_bucket_counts_refuse_a_negative_degree(degrees):
    # a negative degree was dropped with degree 0, and a list raised a bare TypeError
    with pytest.raises(ValueError, match=r"^degrees must lie in 1\.\.n$"):
        BucketConfig(100, 0.1).bucket_counts(degrees)


def test_bucket_counts_take_a_list_and_leave_degree_zero_out():
    config = BucketConfig(100, 0.1)
    counts = config.bucket_counts([0, 2, 2, 100])
    assert counts.shape == (config.t,)
    assert counts.sum() == 3
    assert counts[config.bucket_index(2)] == 2 and counts[config.bucket_index(100)] == 1


def test_epsilon_constructor_divides_by_ten():
    config = BucketConfig.from_epsilon(10_000, 0.25)
    assert config.gamma == pytest.approx(0.025)
    assert config.t == bucket_count(10_000, 0.025)


def test_powers_table_is_read_only():
    config = BucketConfig(50, 0.5)
    with pytest.raises(ValueError):
        config.powers[0] = 99.0


def loop_powers(n: int, gamma: float) -> np.ndarray:
    """The boundary table as the per-bucket loop built it."""
    t = bucket_count(n, gamma)
    powers = np.empty(t, dtype=np.float64)
    powers[0] = 1.0
    for i in range(1, t):
        powers[i] = powers[i - 1] * (1.0 + gamma)
    while powers[-1] < n:
        powers = np.append(powers, powers[-1] * (1.0 + gamma))
    return powers


@pytest.mark.parametrize("n", [2, 3, 10, 999, 10_000, 10**6, 12_345_678, 10**9, MAX_VERTICES])
@pytest.mark.parametrize("gamma", [0.001, 0.0125, 0.025, 0.05, 0.08, 0.5, 1.0])
def test_powers_match_the_loop_bit_for_bit(n, gamma):
    config = BucketConfig(n, gamma)
    expected = loop_powers(n, gamma)
    assert config.t == expected.shape[0]
    assert config.powers.tobytes() == expected.tobytes()
