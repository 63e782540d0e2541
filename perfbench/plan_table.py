#!/usr/bin/env python3
"""Query-plan size of the default estimator, from ``plan_layout`` alone.

    python3 perfbench/plan_table.py [--out perfbench/results/plan_table.json]

Needs no graph and takes no time: the plan is a function of ``n`` and the
parameters. ``plan_ge_n`` marks where the "sublinear" plan issues at least
as many queries as reading all ``n`` degrees would.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from edgecount.estimator import EstimatorParams, plan_layout  # noqa: E402

NS = (10_000, 100_000, 1_000_000, 10_000_000)
EPSILONS = (0.25, 0.5, 0.8)


def plan_rows() -> list[dict[str, object]]:
    rows = []
    for eps in EPSILONS:
        for n in NS:
            layout = plan_layout(n, EstimatorParams(epsilon=eps))
            rows.append(
                {
                    "n": n,
                    "epsilon": eps,
                    "degree": layout.degree_size,
                    "endpoint": layout.endpoint_size,
                    "vote": layout.vote_size,
                    "collision": layout.collision_reps * layout.collision_size,
                    "plan_total": layout.total,
                    "plan_per_n": layout.total / n,
                    "plan_ge_n": layout.total >= n,
                }
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="also write the table to this JSON file")
    args = parser.parse_args()
    text = json.dumps(plan_rows(), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
