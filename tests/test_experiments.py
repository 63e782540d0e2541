import dataclasses
import hashlib
import json

import numpy as np
import pytest

import edgecount.experiments
from edgecount import (
    QueryBudgetError,
    QueryLedger,
    TrialConfig,
    estimate_edges,
    plan_layout,
    run_accuracy_trials,
    run_distinguishing_experiment,
    run_ph_bound_check,
    run_query_budget_check,
    write_experiment_files,
)


@pytest.fixture(scope="module")
def small_bench():
    return TrialConfig(graph="gnm:500,2000", epsilon=0.5, trials=2, master_seed=3)


def test_accuracy_trials_are_reproducible(small_bench):
    first = run_accuracy_trials(small_bench)
    second = run_accuracy_trials(small_bench)
    assert first.summary_dict() == second.summary_dict()
    assert first.rows == second.rows
    assert first.csv_rows() == second.csv_rows()


def test_accuracy_trials_account_every_query(small_bench):
    stats = run_accuracy_trials(small_bench)
    assert stats.n == 500
    assert stats.m_true == 2000
    layout = plan_layout(500, small_bench.params_for(0))
    for row in stats.rows:
        assert row.queries["deg"] == layout.degree_size
        assert row.queries["rand_edge"] == layout.total - layout.degree_size
        assert set(row.queries) == {"deg", "rand_edge"}
    assert stats.resolved_params["plan_total"] == layout.total
    header, rows = stats.csv_rows()
    assert len(rows) == 2
    assert header == ["trial", "m_hat", "branch", "rel_error", "r", "k", "queries_deg", "queries_rand_edge"]


def test_query_budget_grid():
    rows = run_query_budget_check([1000, 2000], [0.5, 0.25], master_seed=1)
    assert [(row["n"], row["epsilon"]) for row in rows] == [
        (1000, 0.5),
        (1000, 0.25),
        (2000, 0.5),
        (2000, 0.25),
    ]
    for row in rows:
        assert row["measured_total"] == row["formula_total"]
        assert row["ratio_to_scale"] <= row["ratio_bound"]
    halving = rows[1]["deg"] / rows[0]["deg"]
    assert abs(halving - 2**2.5) <= 0.1 * 2**2.5
    doubling = rows[2]["measured_total"] / rows[0]["measured_total"]
    assert 1.3 <= doubling <= 1.8


def test_query_budget_mismatch_raises_named_assertion(monkeypatch):
    def overbilled(graph, params):
        report = estimate_edges(graph, params)
        ledger = QueryLedger(report.queries.deg, report.queries.rand_edge + 1)
        return dataclasses.replace(report, queries=ledger)

    monkeypatch.setattr(edgecount.experiments, "estimate_edges", overbilled)
    with pytest.raises(QueryBudgetError, match="!= plan formula") as info:
        run_query_budget_check([1000], [0.5], master_seed=1)
    assert isinstance(info.value, AssertionError)


def test_ph_bound_on_complete_graph():
    stats = run_ph_bound_check("clique_plus_isolated:100,100", epsilon=0.25, trials=5)
    assert stats.bound == pytest.approx(0.46875)
    assert stats.fraction_meeting_bound == 1.0
    assert all(value == 1.0 for value in stats.heavy_fractions)
    assert stats.summary_dict()["experiment"] == "ph_bound"


def test_ph_bound_on_skewed_degrees():
    stats = run_ph_bound_check("skewed:10000,4.0", epsilon=0.25, trials=25)
    assert stats.m >= stats.n / 2
    assert stats.fraction_meeting_bound >= 0.9


@pytest.mark.parametrize(
    "spec, trials, digest", [("gnm:10000,100000", 100, "7f3636a2668e4fb2"), ("skewed:10000,4.0", 25, "192fb528a0e4c618")]
)
def test_ph_bound_heavy_fractions_are_byte_identical(spec, trials, digest):
    # pinned when each trial classified the degree block of a whole plan
    stats = run_ph_bound_check(spec, epsilon=0.25, trials=trials, master_seed=0)
    assert hashlib.sha256(json.dumps(stats.heavy_fractions).encode()).hexdigest()[:16] == digest


def test_ph_bound_rejects_sparse_graphs():
    with pytest.raises(ValueError, match="m >= n/2"):
        run_ph_bound_check("gnm:100,10", epsilon=0.25, trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_ph_bound_rejects_fewer_than_one_trial(monkeypatch, trials):
    def no_graph(*args):
        raise AssertionError("the graph was loaded before trials was checked")

    monkeypatch.setattr(edgecount.experiments, "load_graph", no_graph)
    with pytest.raises(ValueError) as info:
        run_ph_bound_check("gnm:2000,8000", epsilon=0.25, trials=trials)
    assert str(info.value) == f"trials must be at least 1, got {trials}"


def test_distinguisher_is_blind_at_tiny_sample_sizes():
    result = run_distinguishing_experiment(10_000, q=2, trials=200, master_seed=0)
    assert result.accuracy <= 0.55
    assert result.probe_size == 2
    from_rows = (
        sum(row.correct_a for row in result.rows) + sum(row.correct_b for row in result.rows)
    ) / (2 * result.trials)
    assert result.accuracy == pytest.approx(from_rows)


def test_distinguisher_separates_at_large_sample_sizes():
    result = run_distinguishing_experiment(10_000, q=300, trials=60, master_seed=0)
    assert result.accuracy >= 0.70
    assert result.mean_collisions_a > 0
    assert 1.4 <= result.collision_ratio_b_over_a <= 2.6
    assert result.probe_set_miss_rate >= result.probe_set_miss_floor
    assert result.probe_per_probe_miss_rate >= 0.9
    assert result.probe_size == 300


def test_distinguisher_reproducible():
    first = run_distinguishing_experiment(2_000, q=5, trials=20, master_seed=9)
    second = run_distinguishing_experiment(2_000, q=5, trials=20, master_seed=9)
    assert first.summary_dict() == second.summary_dict()
    assert first.rows == second.rows


@pytest.mark.parametrize(
    "n, q, trials, message",
    [
        (10, 0, 5, "q must be at least 1, got 0"),
        (10, -1, 5, "q must be at least 1, got -1"),
        (10, 5, 0, "trials must be at least 1, got 0"),
        (10, 5, -2, "trials must be at least 1, got -2"),
        (3, 5, 5, "n must be at least 7 for the lower-bound instance, got 3"),
        (0, 5, 5, "n must be at least 7 for the lower-bound instance, got 0"),
        (1000, 2.5, 5, "q must be an integer, got 2.5"),
        (1000.5, 10, 5, "n must be an integer, got 1000.5"),
    ],
)
def test_distinguisher_rejects_sizes_it_cannot_run(monkeypatch, n, q, trials, message):
    def no_instances(*args):
        raise AssertionError("an instance was drawn before the sizes were checked")

    monkeypatch.setattr(edgecount.experiments, "gen_lowerbound_instance", no_instances)
    with pytest.raises(ValueError) as info:
        run_distinguishing_experiment(n, q=q, trials=trials, master_seed=0)
    assert str(info.value) == message


@pytest.mark.parametrize("trials", [0, -3])
def test_trial_config_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError) as info:
        TrialConfig(graph="gnm:500,2000", trials=trials)
    assert str(info.value) == f"trials must be at least 1, got {trials}"


@pytest.mark.parametrize("trials", [2.5, "3", None])
def test_trial_config_rejects_a_trial_count_that_is_no_integer(trials):
    with pytest.raises(ValueError) as info:
        TrialConfig(graph="gnm:100,200", trials=trials)
    assert str(info.value) == f"trials must be an integer, got {trials!r}"


def test_trial_config_takes_any_integer_trial_count():
    config = TrialConfig(graph="gnm:100,200", epsilon=0.5, trials=np.int64(2))
    assert type(config.trials) is int
    assert len(run_accuracy_trials(config).rows) == 2


@pytest.mark.parametrize("trials", [2.5, "3"])
def test_ph_bound_rejects_a_trial_count_that_is_no_integer(monkeypatch, trials):
    def no_graph(*args):
        raise AssertionError("the graph was loaded before trials was checked")

    monkeypatch.setattr(edgecount.experiments, "load_graph", no_graph)
    with pytest.raises(ValueError) as info:
        run_ph_bound_check("gnm:2000,8000", epsilon=0.25, trials=trials)
    assert str(info.value) == f"trials must be an integer, got {trials!r}"


@pytest.mark.parametrize("trials", [2.5, "3"])
def test_distinguisher_rejects_a_trial_count_that_is_no_integer(monkeypatch, trials):
    def no_instances(*args):
        raise AssertionError("an instance was drawn before trials was checked")

    monkeypatch.setattr(edgecount.experiments, "gen_lowerbound_instance", no_instances)
    with pytest.raises(ValueError) as info:
        run_distinguishing_experiment(100, q=5, trials=trials, master_seed=0)
    assert str(info.value) == f"trials must be an integer, got {trials!r}"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"epsilon": 0.9}, "epsilon must be in (0, 0.8]"),
        ({"c_r": -1.0}, "c_r must be positive"),
        ({"collision_reps": 0}, "collision_reps must be at least 1"),
        ({"master_seed": -1}, f"master_seed must lie in 0..{2**64 - 1}, got -1"),
    ],
)
def test_trial_config_rejects_bad_parameters(overrides, message):
    with pytest.raises(ValueError) as info:
        TrialConfig(graph="gnm:500,2000", **overrides)
    assert str(info.value) == message


def test_write_experiment_files(tmp_path):
    header = ["trial", "value"]
    rows = [[0, 1.5], [1, 2.5]]
    summary = {"experiment": "bench", "n": 100}
    csv_path, json_path = write_experiment_files("bench", 100, 0.5, 7, header, rows, summary, tmp_path / "a")
    assert csv_path.name == "bench-100-0.5-7.csv"
    assert json_path.name == "bench-100-0.5-7.json"
    assert csv_path.read_text() == "trial,value\n0,1.5\n1,2.5\n"
    assert json.loads(json_path.read_text()) == summary
    again_csv, again_json = write_experiment_files("bench", 100, 0.5, 7, header, rows, summary, tmp_path / "b")
    assert again_csv.read_bytes() == csv_path.read_bytes()
    assert again_json.read_bytes() == json_path.read_bytes()
    lb_csv, _ = write_experiment_files("lowerbound", 1000, 300, 0, header, rows, summary, tmp_path / "a")
    assert lb_csv.name == "lowerbound-1000-300-0.csv"
    # tags that agree in their first six digits name different files
    first, _ = write_experiment_files("lowerbound", 100, 1234567, 0, header, [[0, 1]], summary, tmp_path / "c")
    second, _ = write_experiment_files("lowerbound", 100, 1234571, 0, header, [[0, 2]], summary, tmp_path / "c")
    assert (first.name, second.name) == ("lowerbound-100-1234567-0.csv", "lowerbound-100-1234571-0.csv")
    assert first.read_text() == "trial,value\n0,1\n"
