"""Reproducible experiment harness: accuracy trials, query-budget checks, the
heavy-fraction bound, and the planted-support distinguishing demo.

Every experiment derives all of its randomness from one master seed, so
trials are independent, order-insensitive, and safe to parallelize; rerunning
with the same configuration reproduces every number exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .buckets import BucketConfig
from .estimator import (
    BRANCH_COLLISION,
    BRANCH_FAILED,
    EstimatorParams,
    count_id_collisions,
    estimate_edges,
    plan_layout,
    resolved_params,
    sampled_heavy_set,
)
from .exact import heavy_light_decomposition
from .generators import gen_lowerbound_instance, load_graph
from .graph import checked_int
from .oracle import QueryLedger, answer_rand_edge_ids
from .seeding import check_master_seed, derive_seed


def _check_count(name: str, value: int, minimum: int = 1, purpose: str = "") -> int:
    """``value`` as an ``int``; ``ValueError`` naming it unless it is an integer of at least ``minimum``.

    ``purpose`` follows the minimum in the error, as in ``n must be at least 7 for ...``.
    """
    count = checked_int(value, name)
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}{purpose}, got {count}")
    return count


def _summary(experiment: str, record, omit: tuple[str, ...], **extra: object) -> dict[str, object]:
    """``{"experiment": experiment}``, every field of the dataclass ``record`` not in ``omit``, and ``extra``."""
    own = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in omit}
    return {"experiment": experiment, **own, **extra}


def _csv_table(rows: list) -> tuple[list[str], list[list[object]]]:
    """CSV header and rows of a non-empty list of row dataclasses, one column per field in field order.

    A dict field gives one ``<field>_<key>`` column per key, and a bool is written as 0 or 1.
    """
    table = []
    for row in rows:
        cells: dict[str, object] = {}
        for name, value in asdict(row).items():
            if isinstance(value, dict):
                cells.update((f"{name}_{key}", item) for key, item in value.items())
            else:
                cells[name] = int(value) if isinstance(value, bool) else value
        table.append(cells)
    return list(table[0]), [list(cells.values()) for cells in table]


class QueryBudgetError(AssertionError):
    """A metered query total broke the plan formula or its budget bound.

    It subclasses :class:`AssertionError` so that callers treating the
    budget check as an assertion still catch it.
    """


# the EstimatorParams fields a caller sets; gamma is derived from epsilon
_PARAM_NAMES = tuple(f.name for f in fields(EstimatorParams) if f.init)


@dataclass(frozen=True)
class TrialConfig:
    """Inputs for a batch of estimation trials on one graph.

    The other fields are the :class:`EstimatorParams` fields of their names, a
    ``c_*`` left ``None`` taking its default there. ``trials`` that is no
    integer or is below 1, and bad parameters, raise ``ValueError`` here; an
    ``epsilon`` or ``c_*`` that is no real number raises ``TypeError``.
    """

    graph: str  # generator spec, or "file:PATH"
    epsilon: float = 0.25
    trials: int = 100
    master_seed: int = 0
    c_s: float | None = None
    c_t: float | None = None
    c_f: float | None = None
    c_r: float | None = None
    collision_reps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _check_count("trials", self.trials))
        params = self.params_for(self.master_seed)
        # store the values as the params normalised them, so reports print plain numbers
        for name in _PARAM_NAMES:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, getattr(params, name))

    def params_for(self, trial_seed: int) -> EstimatorParams:
        given = {name: getattr(self, name) for name in _PARAM_NAMES if getattr(self, name) is not None}
        return EstimatorParams(**{**given, "master_seed": trial_seed})


@dataclass(frozen=True)
class TrialRow:
    trial: int
    m_hat: float | None
    branch: str
    rel_error: float | None
    r: int
    k: int
    queries: dict[str, int]


@dataclass(frozen=True)
class TrialStats:
    """Aggregated outcome of :func:`run_accuracy_trials`."""

    config: TrialConfig
    n: int
    m_true: int
    rows: list[TrialRow]
    success_rate: float
    collision_branch_rate: float
    vote_one_rate: float
    failed_trials: int
    mean_rel_error: float | None
    max_rel_error: float | None
    mean_queries: dict[str, float]
    resolved_params: dict[str, object]

    def summary_dict(self) -> dict[str, object]:
        c = self.config
        shown = {"graph": c.graph, "epsilon": c.epsilon, "trials": c.trials, "master_seed": c.master_seed}
        omit = ("config", "rows", "resolved_params")
        return _summary("bench", self, omit, **shown, success_target=c.epsilon, params=self.resolved_params)

    def csv_rows(self) -> tuple[list[str], list[list[object]]]:
        return _csv_table(self.rows)


def _relative_error(m_hat: float | None, m_true: int) -> float | None:
    if m_hat is None:
        return None
    if m_true == 0:
        return 0.0 if m_hat == 0 else None
    return abs(m_hat - m_true) / m_true


def run_accuracy_trials(config: TrialConfig) -> TrialStats:
    """Estimate the same graph ``config.trials`` times with per-trial seeds."""
    graph = load_graph(config.graph, derive_seed(config.master_seed, "graph"))
    rows: list[TrialRow] = []
    for j in range(config.trials):
        params = config.params_for(derive_seed(config.master_seed, f"trial:{j}"))
        report = estimate_edges(graph, params)
        rows.append(
            TrialRow(
                trial=j,
                m_hat=report.m_hat,
                branch=report.branch,
                rel_error=_relative_error(report.m_hat, graph.m),
                r=report.r,
                k=report.k,
                queries=report.queries.as_dict(),
            )
        )

    finite = [row.rel_error for row in rows if row.rel_error is not None]
    successes = sum(rel <= config.epsilon for rel in finite)
    params = config.params_for(config.master_seed)
    resolved = {**resolved_params(graph.n, params), "plan_total": plan_layout(graph.n, params).total}
    return TrialStats(
        config=config,
        n=graph.n,
        m_true=graph.m,
        rows=rows,
        success_rate=successes / config.trials,
        collision_branch_rate=sum(row.branch == BRANCH_COLLISION for row in rows) / config.trials,
        vote_one_rate=sum(row.k == 1 for row in rows) / config.trials,
        failed_trials=sum(row.branch == BRANCH_FAILED for row in rows),
        mean_rel_error=float(np.mean(finite)) if finite else None,
        max_rel_error=float(np.max(finite)) if finite else None,
        mean_queries={
            key: float(np.mean([row.queries[key] for row in rows])) for key in ("deg", "rand_edge")
        },
        resolved_params=resolved,
    )


def run_query_budget_check(ns: list[int], epsilons: list[float], master_seed: int = 0) -> list[dict[str, object]]:
    """Measure real ledgers over an ``(n, epsilon)`` grid against the plan formula.

    Each cell estimates one sparse random graph and checks that the metered
    total equals the formula total exactly, and that the total divided by
    ``sqrt(n) * ln(n) / eps**2.5`` stays below a constant determined by the
    sample-size multipliers; either failure raises :class:`QueryBudgetError`.
    """
    rows: list[dict[str, object]] = []
    for n in ns:
        graph = load_graph(f"gnm:{n},{2 * n}", derive_seed(master_seed, f"budget-graph:{n}"))
        for eps in epsilons:
            params = EstimatorParams(epsilon=eps, master_seed=derive_seed(master_seed, f"budget:{n}:{eps}"))
            layout = plan_layout(n, params)
            report = estimate_edges(graph, params)
            measured = report.queries.total
            scale = math.sqrt(n) * math.log(n) / params.epsilon**2.5
            ratio = measured / scale
            bound = params.c_s + params.c_t + math.sqrt(2.0) * params.c_r + params.c_f + 1.0
            if measured != layout.total:
                raise QueryBudgetError(f"ledger {measured} != plan formula {layout.total} at n={n}, eps={eps}")
            if ratio > bound:
                raise QueryBudgetError(f"query ratio {ratio:.3f} exceeds bound {bound:.3f} at n={n}, eps={eps}")
            rows.append(
                {
                    "n": graph.n,
                    "epsilon": params.epsilon,
                    "measured_total": measured,
                    "formula_total": layout.total,
                    "deg": report.queries.deg,
                    "rand_edge": report.queries.rand_edge,
                    "ratio_to_scale": ratio,
                    "ratio_bound": bound,
                }
            )
    return rows


@dataclass(frozen=True)
class PhBoundStats:
    """How often the sampled heavy classification kept enough degree mass."""

    graph: str
    n: int
    m: int
    epsilon: float
    trials: int
    master_seed: int
    bound: float
    fraction_meeting_bound: float
    heavy_fractions: list[float]

    def summary_dict(self) -> dict[str, object]:
        return _summary("ph_bound", self, omit=("heavy_fractions",))


def run_ph_bound_check(graph_source: str, epsilon: float, trials: int, master_seed: int = 0) -> PhBoundStats:
    """Check the true heavy fraction against ``1/2 - eps/8`` across trials.

    Only meaningful in the dense regime; graphs with ``m < n/2`` are rejected.
    ``trials`` that is no integer or is below 1, and parameters that
    :class:`EstimatorParams` refuses, raise ``ValueError`` before the graph is
    loaded. The heavy classification comes from the plan's metered degree
    probes, streamed as :func:`estimate_edges` streams them, while the
    fraction it earns is scored by the exact oracle (which also re-checks
    the decomposition identities every trial).
    """
    trials = _check_count("trials", trials)
    params = EstimatorParams(epsilon=epsilon, master_seed=master_seed)
    graph = load_graph(graph_source, derive_seed(params.master_seed, "graph"))
    if graph.m < graph.n / 2:
        raise ValueError(f"heavy-fraction bound applies to m >= n/2 (got m={graph.m}, n={graph.n})")
    bound = 0.5 - params.epsilon / 8.0
    config = BucketConfig(graph.n, params.gamma)
    values: list[float] = []
    for j in range(trials):
        trial = replace(params, master_seed=derive_seed(params.master_seed, f"trial:{j}"))
        heavy = sampled_heavy_set(graph, trial, QueryLedger())
        decomposition = heavy_light_decomposition(graph, heavy.indices, config)  # checks the identities
        values.append(decomposition.heavy_degree_mass / (2.0 * graph.m))
    meeting = sum(value >= bound for value in values)
    return PhBoundStats(
        graph=graph_source,
        n=graph.n,
        m=graph.m,
        epsilon=params.epsilon,
        trials=trials,
        master_seed=params.master_seed,
        bound=bound,
        fraction_meeting_bound=meeting / trials,
        heavy_fractions=values,
    )


@dataclass(frozen=True)
class DistinguishRow:
    trial: int
    collisions_a: int
    collisions_b: int
    correct_a: bool
    correct_b: bool
    probe_hits: int


@dataclass(frozen=True)
class DistinguishResult:
    """Outcome of the two-support distinguishing experiment at one sample size."""

    n: int
    q: int
    trials: int
    master_seed: int
    threshold: float
    accuracy: float
    mean_collisions_a: float
    mean_collisions_b: float
    collision_ratio_b_over_a: float | None
    probe_size: int
    probe_set_miss_rate: float
    probe_per_probe_miss_rate: float
    probe_set_miss_floor: float
    rows: list[DistinguishRow] = field(repr=False)

    def summary_dict(self) -> dict[str, object]:
        return _summary("lowerbound", self, omit=("rows",))

    def csv_rows(self) -> tuple[list[str], list[list[object]]]:
        return _csv_table(self.rows)


def run_distinguishing_experiment(n: int, q: int, trials: int, master_seed: int = 0) -> DistinguishResult:
    """Score the best-threshold collision distinguisher on fresh instance pairs.

    Per trial, a new placement and slot mapping is drawn, both graphs are
    sampled with ``q`` random-edge queries each, and the decision rule guesses
    the sparse-support case whenever the collision count, taken on the drawn
    edge positions, exceeds the midpoint of the two expected counts. A fixed
    probe set (vertices ``0..q-1``) is also scored against each placement:
    how often the whole set misses the planted vertices, and the per-probe
    miss rate.

    ``n``, ``q`` or ``trials`` that is no integer, ``n`` below 7 (too small
    for the planted set), ``q`` or ``trials`` below 1, or a bad ``master_seed``
    raise ``ValueError`` naming the parameter before any instance is drawn.
    """
    n = _check_count("n", n, 7, " for the lower-bound instance")
    q = _check_count("q", q)
    trials = _check_count("trials", trials)
    master_seed = check_master_seed(master_seed)
    expected_a = math.comb(q, 2) / n
    expected_b = math.comb(q, 2) / (n // 2 - 1)
    threshold = (expected_a + expected_b) / 2.0
    probe_set = np.arange(min(q, n), dtype=np.int64)

    rows: list[DistinguishRow] = []
    for j in range(trials):
        instance = gen_lowerbound_instance(n, derive_seed(master_seed, f"instance:{j}"))
        counts = {}
        for label, graph in (("a", instance.graph_a), ("b", instance.graph_b)):
            rng = np.random.default_rng(derive_seed(master_seed, f"answers:{label}:{j}"))
            counts[label] = count_id_collisions(answer_rand_edge_ids(graph, rng, q, QueryLedger()))
        probe_hits = int(np.isin(probe_set, instance.planted_set).sum())
        rows.append(
            DistinguishRow(j, counts["a"], counts["b"], counts["a"] <= threshold, counts["b"] > threshold, probe_hits)
        )

    correct = sum(row.correct_a + row.correct_b for row in rows)
    mean_a = sum(row.collisions_a for row in rows) / trials
    mean_b = sum(row.collisions_b for row in rows) / trials
    set_misses = sum(row.probe_hits == 0 for row in rows)
    probe_hit_total = sum(row.probe_hits for row in rows)
    side = 2 * math.ceil(math.sqrt(n)) + 1
    return DistinguishResult(
        n=n,
        q=q,
        trials=trials,
        master_seed=master_seed,
        threshold=threshold,
        accuracy=correct / (2 * trials),
        mean_collisions_a=mean_a,
        mean_collisions_b=mean_b,
        collision_ratio_b_over_a=(mean_b / mean_a) if mean_a > 0 else None,
        probe_size=int(probe_set.size),
        probe_set_miss_rate=set_misses / trials,
        probe_per_probe_miss_rate=1.0 - probe_hit_total / (trials * probe_set.size),
        probe_set_miss_floor=max(0.0, 1.0 - q * side / n),
        rows=rows,
    )


def write_experiment_files(
    name: str, n: int, tag: float, seed: int, header: list[str], rows: list[list[object]], summary: dict[str, object], out_dir: str | Path
) -> tuple[Path, Path]:
    """Write ``{name}-{n}-{tag}-{seed}.csv`` and ``.json`` under ``out_dir``.

    ``tag`` is epsilon for estimation benches and the sample size ``q`` for
    the distinguishing experiment, written as ``str(tag)`` so that distinct
    tags name distinct files. Output bytes depend only on the arguments.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-{n}-{tag}-{seed}"
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    with csv_path.open("w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return csv_path, json_path
