"""Record the report checksums ``run.py`` checks every run against.

Usage, from the root of a checkout::

    python3 perfbench/record_expected.py --workload churn
    python3 perfbench/record_expected.py --sizes tiny

Runs every plan seed a run can reach (see ``run.plan_seed``) once,
untimed and untraced, and merges the checksums into
``perfbench/expected.json`` under the chosen sizes.
Re-record only when a change is *meant* to alter what the program
computes; a performance change must leave every recorded checksum as
it is.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import (
    EXPECTED_PATH,
    ITERATIONS,
    RECORDED_SEEDS,
    ROOT,
    SIZES,
    load_expected,
    plan_seed,
)
from workloads import WORKLOADS, StepClock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="workload to record (repeatable; default: all)",
    )
    parser.add_argument("--sizes", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    sizes = SIZES[args.sizes]
    recorded: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=ROOT) as tmp:
        for name in args.workload or list(WORKLOADS):
            plan_seeds = [
                plan_seed(seed, iteration)
                for iteration in range(ITERATIONS[name])
                for seed in range(RECORDED_SEEDS)
            ]
            for seed in plan_seeds:
                workload = WORKLOADS[name](seed, sizes, Path(tmp))
                outcome = workload.outcome(
                    workload.iterate(workload.setup(), StepClock())
                )
                recorded.setdefault(name, {})[str(seed)] = outcome.checksum
                print(f"{name} seed {seed}: {outcome.checksum}", flush=True)
    # Merge at the end so concurrent recorders of different workloads
    # only race for the final rewrite.
    expected = load_expected()
    by_workload = expected.setdefault(sizes.name, {})
    for name, seeds in recorded.items():
        merged = {**by_workload.get(name, {}), **seeds}
        by_workload[name] = dict(
            sorted(merged.items(), key=lambda kv: int(kv[0]))
        )
    EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
