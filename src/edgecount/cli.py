"""Command-line front end: estimate, bench, lowerbound, gen.

Exit codes: 0 on success, 1 for usage or input errors, 2 when an estimation
run ends in the failed branch, 141 (128 + SIGPIPE) when the reader of stdout
closes it early. All file outputs are byte-stable for a fixed argument vector.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .estimator import BRANCH_FAILED, estimate_edges, resolved_params
from .experiments import (
    TrialConfig,
    run_accuracy_trials,
    run_distinguishing_experiment,
    write_experiment_files,
)
from .generators import load_graph
from .graph import read_edge_list, write_edge_list
from .seeding import derive_seed

OUT_DIR_ENV = "EDGECOUNT_OUT_DIR"


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


def _add_trial_config(parser: argparse.ArgumentParser) -> None:
    """Options stored under :class:`TrialConfig` field names (``--file PATH`` as ``file:PATH``), defaults left to it."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="generator spec, e.g. gnm:10000,100000 or path:10000, or file:PATH")
    source.add_argument(
        "--file", dest="graph", type="file:{}".format, metavar="FILE", help="edge-list file (first line n, then 'u v' lines)"
    )
    parser.add_argument("--eps", dest="epsilon", metavar="EPS", type=float, help="accuracy target in (0, 0.8]")
    parser.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="master seed")
    parser.add_argument("--c-s", type=float, help="degree-sample multiplier")
    parser.add_argument("--c-t", type=float, help="endpoint-sample multiplier")
    parser.add_argument("--c-f", type=float, help="collision-sample multiplier")
    parser.add_argument("--c-r", type=float, help="vote-round multiplier")
    parser.add_argument("--collision-reps", type=int, help="median-of-reps collision samples")


def _add_outputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=_default_out_dir(), help=f"output directory (default ${OUT_DIR_ENV} or .)")
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="what to print on stdout")


def _trial_config(args: argparse.Namespace) -> TrialConfig:
    given = {f.name: getattr(args, f.name, None) for f in fields(TrialConfig)}
    return TrialConfig(**{name: value for name, value in given.items() if value is not None})


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _trial_config(args)
    params = config.params_for(config.master_seed)
    if config.graph.startswith("file:"):
        graph = read_edge_list(config.graph[len("file:") :])  # the benchmark's tracer wraps cli.read_edge_list
    else:
        graph = load_graph(config.graph, derive_seed(config.master_seed, "graph"))
    report = estimate_edges(graph, params)
    payload = report.to_json_dict()
    payload["n"] = graph.n
    payload["params"] = resolved_params(graph.n, params)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 2 if report.branch == BRANCH_FAILED else 0


def _write_outputs(args: argparse.Namespace, name: str, n: int, tag: float, seed: int, result) -> int:
    """Write ``result``'s CSV and JSON files, print one as ``--format`` asks, and name both on stderr."""
    summary = result.summary_dict()
    csv_path, json_path = write_experiment_files(name, n, tag, seed, *result.csv_rows(), summary, args.out)
    if args.format == "csv":
        sys.stdout.write(csv_path.read_text(encoding="ascii"))
    else:
        print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    stats = run_accuracy_trials(_trial_config(args))
    return _write_outputs(args, "bench", stats.n, stats.config.epsilon, stats.config.master_seed, stats)


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    result = run_distinguishing_experiment(args.n, args.q, args.trials, args.seed)
    return _write_outputs(args, "lowerbound", result.n, result.q, result.master_seed, result)


def _cmd_gen(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, derive_seed(args.seed, "graph"))
    write_edge_list(graph, args.out)
    print(f"wrote {args.out}: n={graph.n} m={graph.m}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgecount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the edge count of one graph")
    _add_trial_config(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_bench = sub.add_parser("bench", help="repeated estimation trials with accuracy stats")
    _add_trial_config(p_bench)
    p_bench.add_argument("--trials", type=int)
    _add_outputs(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_low = sub.add_parser("lowerbound", help="planted-support distinguishing experiment")
    p_low.add_argument("--n", type=int, required=True)
    p_low.add_argument("--q", type=int, default=10, help="random-edge samples per case")
    p_low.add_argument("--trials", type=int, default=500)
    p_low.add_argument("--seed", type=int, default=0)
    _add_outputs(p_low)
    p_low.set_defaults(func=_cmd_lowerbound)

    p_gen = sub.add_parser("gen", help="write a generated graph as an edge-list file")
    p_gen.add_argument("--graph", required=True, help="generator spec")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output edge-list path")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; the contract reserves 2 for
        # estimation failures, so remap
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # surface a closed pipe here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left early (e.g. `| head`); send the unflushed rest, and
        # the flush at exit, to devnull so nothing is reported
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
