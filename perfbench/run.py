"""Seeded end-to-end and per-layer benchmark of the IQ-Paths reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload churn --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all             # every workload
    python3 perfbench/run.py --workload churn --xcheck  # tracer vs profiler

``--trace 0`` prints the end-to-end metrics (measured with tracing off
and read at a reference machine speed, see ``speed.py``);
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; each metric carries
its value and unit.  An operation is one offered session.  Any failed
output check fails every operation of the run, and the command then
exits 1.  See ``perfbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.middleware.service import IQPathsService  # noqa: E402
from repro.obs.context import Observability  # noqa: E402
from repro.workload.scenarios import make_scale_run  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import LayerTracer, TraceRun, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    TINY,
    WORKLOADS,
    Sizes,
    StepClock,
    report_outcome,
)

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    raise ImportError(f"repro imported from {repro.__file__}, not {ROOT}/src")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Set-ups before each iteration; ``setup_s`` is the median of all of
#: a run's set-ups.
SETUP_REPS = 5

#: Speed probes on each side of a set-up, and after each iteration.
SETUP_PROBES = 3

#: Workload iterations one end-to-end run makes, each on its own plan
#: seed (see :func:`plan_seed`).  Fixed, so every run of a seed measures
#: the same work; sized to fit ``run_seconds`` on a slow run.
ITERATIONS = {"churn": 3, "chaos-soak": 4}

#: Run seeds fold onto this many rows of recorded plan seeds, so every
#: iteration of every run has a recorded checksum to match.
RECORDED_SEEDS = 20

SUB_SEED_STRIDE = 1000

SIZES = {sizes.name: sizes for sizes in (FULL, TINY)}

_clock = time.perf_counter_ns

END_TO_END_UNITS = {
    "setup_s": "s",
    "sessions_per_s": "sessions/s",
    "steps_per_s": "steps/s",
    "admit_p50_ms": "ms",
    "admit_p95_ms": "ms",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "network.realize_s": "s",
    "workload.plan_s": "s",
    "middleware.open_stream.calls": "count",
    "middleware.open_stream.self_s": "s",
    "middleware.close_stream.self_s": "s",
    "middleware.advance.self_s": "s",
    "middleware.handles_retained": "count",
    "middleware.handles_open": "count",
    "core.admission.calls": "count",
    "core.admission.self_s": "s",
    "core.admission.rejects": "count",
    "core.mapping.admission.calls": "count",
    "core.mapping.admission.self_s": "s",
    "core.mapping.remap.calls": "count",
    "core.mapping.remap.self_s": "s",
    "core.pgos.remap.calls": "count",
    "core.pgos.remap.self_s": "s",
    "core.pgos.remap.degraded": "count",
    "core.pgos.remap.same_as_admission_ratio": "fraction",
    "core.pgos.observe.self_s": "s",
    "monitoring.ks_check.calls": "count",
    "monitoring.ks_check.fire_ratio": "fraction",
    "monitoring.cdf.calls": "count",
    "sim.deliver.calls": "count",
    "sim.deliver.self_s": "s",
    "robustness.health.self_share": "fraction",
    "robustness.health.transitions": "count",
    "robustness.degradation.calls": "count",
    "robustness.degradation.self_share": "fraction",
    "checkpoint.save.calls": "count",
    "checkpoint.save.self_share": "fraction",
    "checkpoint.snapshot_bytes_last": "bytes",
    "violation_rate": "fraction",
    "reject_rate": "fraction",
    "degrade_rate": "fraction",
    "trace.wall_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics that are pure functions of the seed: they must
#: repeat exactly across runs, where timings only repeat within noise.
DETERMINISTIC_PER_LAYER = tuple(
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "bytes")
) + (
    "core.pgos.remap.same_as_admission_ratio",
    "monitoring.ks_check.fire_ratio",
    "violation_rate",
    "reject_rate",
    "degrade_rate",
)

#: Outside-in span vs the program's own SpanProfiler span, for --xcheck.
XCHECK_PAIRS = (
    ("core.admission", "service.admission"),
    ("core.pgos.remap", "pgos.remap"),
    ("sim.deliver", "service.delivery"),
)

#: Largest relative gap --xcheck accepts between the two totals.
XCHECK_TOLERANCE = 0.10


def load_expected() -> dict[str, dict[str, dict[str, str]]]:
    """Recorded checksums: sizes -> workload -> plan seed (as text) ->
    hex digest."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def plan_seed(seed: int, iteration: int) -> int:
    """The plan seed of a run's ``iteration``-th workload iteration.

    Run seed ``n`` plans from ``n mod RECORDED_SEEDS``, and each later
    iteration draws fresh plans, so one run averages over several seeds
    rather than repeating one.  Every plan seed this returns is one
    :mod:`record_expected` records.
    """
    return seed % RECORDED_SEEDS + iteration * SUB_SEED_STRIDE


@dataclass
class Checks:
    """Output checks of one run; any failure fails every operation."""

    #: Recorded checksums of this workload, by plan seed (as text).
    expected: dict[str, str]
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def outcome(self, outcome, seed: int, label: str) -> None:
        self.attempted += outcome.offered
        recorded = self.expected.get(str(seed))
        if recorded is None:
            self.errors.append(
                f"{label}: no recorded checksum for plan seed {seed}"
            )
        elif outcome.checksum != recorded:
            self.errors.append(
                f"{label}: seed {seed} checksum {outcome.checksum[:12]} "
                f"!= recorded {recorded[:12]}"
            )
        verdicts = outcome.admitted + outcome.degraded + outcome.rejected
        if verdicts != outcome.offered:
            self.errors.append(
                f"{label}: admitted+degraded+rejected={verdicts} != "
                f"offered={outcome.offered}"
            )

    def same(self, first, second, label: str) -> None:
        if first.checksum != second.checksum:
            self.errors.append(
                f"{label}: checksum {second.checksum[:12]} != untraced "
                f"{first.checksum[:12]}"
            )

    @property
    def correct(self) -> bool:
        return not self.errors


@contextmanager
def timed_open_stream(samples_ns: list[int], at_ns: list[int]):
    """Record the latency of every ``IQPathsService.open_stream`` call,
    rejections included, and when each call ended."""
    original = IQPathsService.__dict__["open_stream"]

    def timed(self, *args, **kwargs):
        start = _clock()
        try:
            return original(self, *args, **kwargs)
        finally:
            end = _clock()
            samples_ns.append(end - start)
            at_ns.append(end)

    IQPathsService.open_stream = timed
    try:
        yield
    finally:
        IQPathsService.open_stream = original


def _percentile_ms(samples_ns: np.ndarray, q: float) -> float:
    return float(np.percentile(samples_ns, q)) / 1e6


@dataclass
class Iteration:
    """What one timed end-to-end iteration measured: raw samples and
    when each ended."""

    sessions: int
    steps: int
    admit_ns: list[int]
    admit_at: list[int]
    step_ns: list[int]
    step_at: list[int]
    tail_ns: int
    end_at: int


def measure_end_to_end(
    make, seed: int, seconds: float, iterations: int, checks: Checks
) -> tuple[dict, dict, float]:
    """Run ``iterations`` iterations of the workload, each on its own
    plan seed and each after ``SETUP_REPS`` timed set-ups.

    Returns the metrics read at the reference speed (see ``speed.py``),
    the same metrics unscaled, and the run's speed factor.
    ``seconds`` is only a hard stop: no further iteration starts once
    it is spent (at full sizes this happens only on a very slow run).
    """
    probe = SpeedProbe()
    setup_ns: list[int] = []
    setup_at: list[int] = []
    done: list[Iteration] = []
    began = _clock()
    for iteration in range(iterations):
        if iteration and _clock() - began > seconds * 1e9:
            checks.notes.append(
                f"note: --seconds spent; stopped after {iteration} of "
                f"{iterations} iterations"
            )
            break
        workload = make(plan_seed(seed, iteration))
        for _ in range(SETUP_REPS):
            gc.collect()
            start = probe.probe(SETUP_PROBES)
            prepared = workload.setup()
            end = _clock()
            setup_ns.append(end - start)
            setup_at.append(end)
            probe.probe(SETUP_PROBES)
        admit_ns: list[int] = []
        admit_at: list[int] = []
        steps = StepClock(probe)
        gc.collect()
        with timed_open_stream(admit_ns, admit_at):
            report = workload.iterate(prepared, steps)
            end = steps.stop()
        probe.probe(SETUP_PROBES)
        outcome = workload.outcome(report)
        checks.outcome(outcome, workload.seed, f"iteration {iteration}")
        done.append(
            Iteration(
                outcome.offered, outcome.steps, admit_ns, admit_at,
                steps.samples_ns, steps.at_ns, steps.tail_ns, end,
            )
        )
        prepared = report = None

    def unscaled(at_ns, samples_ns):
        return np.asarray(samples_ns, dtype=np.float64)

    return (
        summarise(setup_ns, setup_at, done, probe.scale),
        summarise(setup_ns, setup_at, done, unscaled),
        probe.factor(),
    )


def summarise(setup_ns, setup_at, iterations: list[Iteration], scale):
    """End-to-end metrics of samples read through ``scale(at_ns,
    samples_ns)``: the median set-up, and means over iterations.

    Each iteration is summarised on its own (its throughput, its
    percentiles), so no statistic pools samples of different seeds.
    """
    mean = statistics.fmean
    rows = []
    for i in iterations:
        step_ns = scale(i.step_at, i.step_ns)
        wall_s = (step_ns.sum() + scale([i.end_at], [i.tail_ns])[0]) / 1e9
        admit_ns = scale(i.admit_at, i.admit_ns)
        rows.append({
            "sessions_per_s": i.sessions / wall_s,
            "steps_per_s": i.steps / wall_s,
            "admit_p50_ms": _percentile_ms(admit_ns, 50),
            "admit_p95_ms": _percentile_ms(admit_ns, 95),
            "step_p50_ms": _percentile_ms(step_ns, 50),
            "step_p90_ms": _percentile_ms(step_ns, 90),
        })
    return {
        "setup_s": float(np.median(scale(setup_at, setup_ns))) / 1e9,
        **{name: mean(row[name] for row in rows) for name in rows[0]},
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


def _one_pass(workload) -> tuple[Any, float]:
    """Set-up plus one iteration; wall time excludes the checks."""
    gc.collect()
    start = _clock()
    result = workload.iterate(workload.setup(), StepClock())
    wall_s = (_clock() - start) / 1e9
    return workload.outcome(result), wall_s


def measure_per_layer(make, seed: int, checks: Checks) -> dict:
    """One untraced pass, then one traced pass of set-up + iteration,
    both on the run's first plan seed."""
    workload = make(plan_seed(seed, 0))
    untraced, untraced_wall = _one_pass(workload)
    checks.outcome(untraced, workload.seed, "untraced pass")
    with LayerTracer() as tracer:
        traced, traced_wall = _one_pass(workload)
    checks.outcome(traced, workload.seed, "traced pass")
    checks.same(untraced, traced, "traced pass")
    untraced = None
    # Both front doors end in ChurnDriver.run, which the tracer hooks.
    service = tracer.counts.last_driver.service
    return layer_metrics(
        TraceRun(
            tracer=tracer,
            traced_wall_s=traced_wall,
            untraced_wall_s=untraced_wall,
            handles_retained=len(service.handles),
            handles_open=sum(1 for h in service.handles.values() if h.open),
            extra={
                "violation_rate": traced.violation_rate,
                "reject_rate": traced.rejected / traced.offered,
                "degrade_rate": traced.degraded / traced.offered,
            },
        )
    )


def cross_check(make, seed: int, checks: Checks) -> list[str]:
    """Tracer totals against the program's SpanProfiler in one pass.

    Both wrap the same calls in the same run, so their inclusive totals
    must agree up to wrapper overhead; larger gaps are errors.
    """
    workload = make(plan_seed(seed, 0))
    obs = Observability(enabled=True, profile=True)
    scenario, _ = workload.setup()
    with LayerTracer() as tracer:
        driver = make_scale_run(
            scenario,
            seed=workload.seed,
            max_sessions=workload.sizes.churn_max_sessions,
            obs=obs,
        )
        report = driver.run(scenario.duration)
    checks.outcome(report_outcome(report), workload.seed, "profiled pass")
    profiled: dict[str, int] = {}
    for row in obs.prof.report().rows:
        profiled[row["name"]] = profiled.get(row["name"], 0) + row["cum_ns"]
    lines = [f"{'tracer span':<18} {'tracer_s':>10} "
             f"{'profiler span':<18} {'profiler_s':>10} {'ratio':>7}"]
    for ours, theirs in XCHECK_PAIRS:
        ours_s = tracer.total_s(ours)
        theirs_s = profiled.get(theirs, 0) / 1e9
        ratio = ours_s / theirs_s if theirs_s else float("inf")
        lines.append(
            f"{ours:<18} {ours_s:>10.4f} {theirs:<18} {theirs_s:>10.4f} "
            f"{ratio:>7.3f}"
        )
        if abs(ratio - 1.0) > XCHECK_TOLERANCE:
            checks.errors.append(
                f"xcheck: {ours} {ours_s:.4f}s vs {theirs} "
                f"{theirs_s:.4f}s (ratio {ratio:.3f})"
            )
    return lines


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = FULL,
    expected: Optional[dict[str, dict[str, str]]] = None,
    xcheck: bool = False,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines.

    ``expected`` holds the recorded checksums of ``sizes`` by workload
    (default: those in ``expected.json``).
    """
    if expected is None:
        expected = load_expected()[sizes.name]
    checks = Checks(expected=expected.get(workload_name, {}))
    notes: list[str] = []
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=ROOT) as tmp:

        def make(plan_seed: int):
            return WORKLOADS[workload_name](plan_seed, sizes, Path(tmp))

        try:
            if xcheck:
                notes.extend(cross_check(make, seed, checks))
                values, units = {}, {}
            elif trace:
                values = measure_per_layer(make, seed, checks)
                units = PER_LAYER_UNITS
            else:
                values, unscaled, factor = measure_end_to_end(
                    make, seed, seconds, ITERATIONS[workload_name], checks
                )
                units = END_TO_END_UNITS
                notes.append(
                    f"note: kernel time {factor:.3f}x the reference; "
                    "unscaled: " + ", ".join(
                        f"{name}={value:.6g}"
                        for name, value in unscaled.items()
                    )
                )
        except Exception as exc:
            # The run's boundary: any escaping error fails the run.
            traceback.print_exc()
            checks.errors.append(f"{type(exc).__name__}: {exc}")
            values, units = {}, {}
    notes.extend(dict.fromkeys(checks.notes))
    notes.extend(f"FAILED {error}" for error in checks.errors)
    attempted = max(checks.attempted, 1)
    result = {
        "correct": checks.correct,
        "attempted": attempted,
        "failed": 0 if checks.correct else attempted,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    return result, notes


def _render(workload: str, result: dict) -> list[str]:
    lines = [f"[{workload}] correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    return lines


def main(
    argv: Optional[list[str]] = None,
    expected: Optional[dict[str, dict[str, str]]] = None,
) -> int:
    """CLI entry; ``expected`` overrides the recorded checksums of the
    chosen sizes (workload -> plan seed -> digest)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--xcheck",
        action="store_true",
        help="compare tracer and SpanProfiler totals on churn",
    )
    parser.add_argument(
        "--sizes",
        choices=SIZES,
        default="full",
        help="tiny: seconds-long smoke sizes for the self-test",
    )
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.xcheck and names != ["churn"]:
        parser.error("--xcheck runs on --workload churn only")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, notes = run_benchmark(
            name, args.seed, args.seconds, bool(args.trace),
            sizes=SIZES[args.sizes],
            expected=expected,
            xcheck=args.xcheck,
        )
        print("\n".join(notes + _render(name, result)), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, entry in result["metrics"].items():
            combined["metrics"][prefix + metric] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
