"""Fast self-test of the benchmark at tiny sizes (well under a minute).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that:

* every metric ``BENCHMARK.json`` names is printed, with its unit, by
  ``--trace 0`` (end-to-end) and ``--trace 1`` (per-layer) runs of every
  workload, and the last output line has exactly the result keys;
* every deterministic per-layer count repeats exactly across two
  traced runs of the same seed;
* a corrupted or missing recorded checksum fails the run: ``correct``
  is false, every attempted operation is failed, and the command exits
  1;
* the outside-in tracer agrees with the program's own SpanProfiler.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run
from workloads import TINY, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _main(argv, expected=None) -> tuple[int, dict, str]:
    """Run the CLI in-process; returns (exit code, last line, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, expected=expected)
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def _metrics_match(result: dict, declared: list[dict], label: str):
    printed = result["metrics"]
    for metric in declared:
        entry = printed.get(metric["name"])
        assert entry is not None, f"{label}: {metric['name']} not printed"
        assert entry["unit"] == metric["unit"], (
            f"{label}: {metric['name']} unit {entry['unit']!r} != "
            f"{metric['unit']!r}"
        )
        assert isinstance(entry["value"], (int, float)), label
    extra = set(printed) - {m["name"] for m in declared}
    assert not extra, f"{label}: undeclared metrics {sorted(extra)}"


def check_cli_output() -> None:
    """The real command line prints every declared metric."""
    for workload in WORKLOADS:
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--sizes", "tiny"],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, f"{label}: {proc.stderr[-2000:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, label
            assert result["correct"] is True and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            _metrics_match(result, BENCHMARK[declared], label)
            print(f"ok   {label}: {len(result['metrics'])} metrics")


def check_deterministic_counts() -> None:
    """Counts repeat exactly across two traced runs of one seed."""
    for workload in WORKLOADS:
        runs = [
            run.run_benchmark(workload, 5, 1.0, True, sizes=TINY)[0][
                "metrics"
            ]
            for _ in range(2)
        ]
        for name in run.DETERMINISTIC_PER_LAYER:
            first, second = (r[name]["value"] for r in runs)
            assert first == second, f"{workload} {name}: {first} != {second}"
        print(f"ok   {workload}: deterministic counts repeat exactly")


def check_corrupted_checksum() -> None:
    """A wrong or missing recorded checksum fails every operation and
    exits 1."""
    recorded = run.load_expected()[TINY.name]
    for workload in WORKLOADS:
        seeds = recorded[workload]
        for case, digests in (
            ("corrupted", {**seeds, "0": "0" * 64}),
            ("missing", {k: v for k, v in seeds.items() if k != "0"}),
        ):
            for trace in ("0", "1"):
                code, result, _ = _main(
                    ["--workload", workload, "--seed", "0", "--seconds",
                     "1", "--trace", trace, "--sizes", "tiny"],
                    expected={workload: digests},
                )
                label = f"{workload} --trace {trace} {case}"
                assert code == 1, f"{label}: exit code {code}"
                assert result["correct"] is False, label
                assert result["failed"] == result["attempted"] >= 1, label
    print("ok   corrupted or missing checksums fail every operation")


def check_cross_check() -> None:
    """Tracer and SpanProfiler totals agree on churn."""
    code, result, text = _main(
        ["--workload", "churn", "--seed", "0", "--xcheck", "--sizes", "tiny"]
    )
    assert code == 0 and result["correct"], text
    lines = text.splitlines()
    table = next(i for i, line in enumerate(lines) if "tracer span" in line)
    print("ok   tracer agrees with SpanProfiler:")
    print("\n".join("     " + line for line in lines[table:table + 4]))


def main() -> int:
    checks = (
        check_cli_output,
        check_deterministic_counts,
        check_corrupted_checksum,
        check_cross_check,
    )
    failed = 0
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    print("selftest " + ("failed" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
