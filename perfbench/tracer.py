"""Outside-in per-layer tracer: wraps the public calls into ``repro``.

The program under test carries no tracing of its own for this
benchmark.  Instead :class:`LayerTracer` replaces, for the duration of a
``with`` block, the functions and methods each layer exposes with thin
timing wrappers, and puts the originals back on exit.  A wrapper keeps
per-span call counts, inclusive time and *self* time (inclusive time
minus the time spent in nested wrapped calls), so summing self times
never counts a nanosecond twice.

Span names are ``<layer>.<call>``; :func:`layer_metrics` turns the raw
aggregates into the per-layer metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import repro.checkpoint.workload as checkpoint_workload
import repro.core.admission as core_admission
import repro.core.pgos as core_pgos
import repro.middleware.service as middleware_service
import repro.workload.scenarios as workload_scenarios
from repro.core.admission import AdmissionController
from repro.core.pgos import PGOSScheduler
from repro.middleware.service import IQPathsService
from repro.monitoring.monitor import PathMonitor
from repro.network.emulab import EmulabTestbed
from repro.robustness.health import HealthTracker
from repro.sim.vectorized import VectorizedDelivery
from repro.workload.driver import ChurnDriver

_clock = time.perf_counter_ns


@dataclass
class SpanStats:
    """Aggregates of one span name."""

    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


@dataclass
class LayerCounts:
    """Deterministic outcomes counted at the span boundaries."""

    admission_rejects: int = 0
    remap_degraded: int = 0
    remap_same_as_admission: int = 0
    ks_fired: int = 0
    health_transitions: int = 0
    snapshot_bytes_last: int = 0
    #: ``rates_mbps`` of the last successful admission mapping.
    last_admission_rates: Optional[dict] = None
    #: The last :class:`ChurnDriver` whose ``run`` was traced.
    last_driver: Any = None


class LayerTracer:
    """Patch-and-restore span recorder over the ``repro`` layers."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts = LayerCounts()
        # One child-time accumulator per open span, innermost last.
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(args, result)``
        runs after the clock stops, so its cost is the caller's."""
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stats.calls += 1
                stats.self_ns += elapsed - stack.pop()
                stats.total_ns += elapsed
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a method defined
        on class ``owner``) by its traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        counts = self.counts

        def admission_decision(args, decision):
            if not decision.admitted:
                counts.admission_rejects += 1

        def admission_mapping(args, mapping):
            counts.last_admission_rates = mapping.rates_mbps

        def remapped(args, mapping):
            if args[0].degraded:
                counts.remap_degraded += 1
            if mapping.rates_mbps == counts.last_admission_rates:
                counts.remap_same_as_admission += 1

        def ks_checked(args, fired):
            if fired:
                counts.ks_fired += 1

        def health_updated(args, fired):
            counts.health_transitions += len(fired)

        def snapshot_saved(args, result):
            store = args[1]
            counts.snapshot_bytes_last = store.path.stat().st_size

        def driver_ran(args, report):
            counts.last_driver = args[0]

        try:
            self.patch(EmulabTestbed, "realize", "network.realize")
            self.patch(workload_scenarios, "plan_sessions", "workload.plan")
            self.patch(
                ChurnDriver, "run", "workload.driver", on_result=driver_ran
            )
            self.patch(IQPathsService, "__init__", "middleware.init")
            self.patch(IQPathsService, "open_stream", "middleware.open_stream")
            self.patch(
                IQPathsService, "close_stream", "middleware.close_stream"
            )
            self.patch(IQPathsService, "advance", "middleware.advance")
            self.patch(IQPathsService, "report", "middleware.report")
            self.patch(
                AdmissionController,
                "try_admit",
                "core.admission",
                on_result=admission_decision,
            )
            self.patch(
                core_admission,
                "compute_mapping",
                "core.mapping.admission",
                on_result=admission_mapping,
            )
            self.patch(core_pgos, "compute_mapping", "core.mapping.remap")
            self.patch(
                PGOSScheduler, "remap", "core.pgos.remap", on_result=remapped
            )
            self.patch(PGOSScheduler, "observe", "core.pgos.observe")
            self.patch(PathMonitor, "cdf", "monitoring.cdf")
            self.patch(
                PathMonitor,
                "cdf_changed_significantly",
                "monitoring.ks_check",
                on_result=ks_checked,
            )
            self.patch(VectorizedDelivery, "deliver", "sim.deliver")
            self.patch(
                HealthTracker,
                "update",
                "robustness.health",
                on_result=health_updated,
            )
            self.patch(
                middleware_service,
                "plan_degradation",
                "robustness.degradation",
            )
            self.patch(
                checkpoint_workload,
                "run_scale_scenario_checkpointed",
                "checkpoint.run",
            )
            self.patch(
                checkpoint_workload,
                "_save",
                "checkpoint.save",
                on_result=snapshot_saved,
            )
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.calls if stats is not None else 0

    def self_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.self_ns / 1e9 if stats is not None else 0.0

    def total_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.total_ns / 1e9 if stats is not None else 0.0

    def attributed_s(self) -> float:
        """Summed self time of every span (no double counting)."""
        return sum(s.self_ns for s in self.spans.values()) / 1e9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class TraceRun:
    """What one traced pass left behind, for :func:`layer_metrics`."""

    tracer: LayerTracer
    traced_wall_s: float
    untraced_wall_s: float
    handles_retained: int
    handles_open: int
    extra: dict[str, float] = field(default_factory=dict)


def layer_metrics(run: TraceRun) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name.

    Layers that only some workloads exercise (health, degradation,
    checkpoint) report busy time as a share of traced wall time, so a
    workload without them reads 0 as a share rather than as a timing.
    """
    t = run.tracer
    c = t.counts
    wall = run.traced_wall_s
    ks_calls = t.calls("monitoring.ks_check")
    remaps = t.calls("core.pgos.remap")
    metrics = {
        "network.realize_s": t.self_s("network.realize"),
        "workload.plan_s": t.self_s("workload.plan"),
        "middleware.open_stream.calls": t.calls("middleware.open_stream"),
        "middleware.open_stream.self_s": t.self_s("middleware.open_stream"),
        "middleware.close_stream.self_s": t.self_s("middleware.close_stream"),
        "middleware.advance.self_s": t.self_s("middleware.advance"),
        "middleware.handles_retained": run.handles_retained,
        "middleware.handles_open": run.handles_open,
        "core.admission.calls": t.calls("core.admission"),
        "core.admission.self_s": t.self_s("core.admission"),
        "core.admission.rejects": c.admission_rejects,
        "core.mapping.admission.calls": t.calls("core.mapping.admission"),
        "core.mapping.admission.self_s": t.self_s("core.mapping.admission"),
        "core.mapping.remap.calls": t.calls("core.mapping.remap"),
        "core.mapping.remap.self_s": t.self_s("core.mapping.remap"),
        "core.pgos.remap.calls": remaps,
        "core.pgos.remap.self_s": t.self_s("core.pgos.remap"),
        "core.pgos.remap.degraded": c.remap_degraded,
        "core.pgos.remap.same_as_admission_ratio": _ratio(
            c.remap_same_as_admission, remaps
        ),
        "core.pgos.observe.self_s": t.self_s("core.pgos.observe"),
        "monitoring.ks_check.calls": ks_calls,
        "monitoring.ks_check.fire_ratio": _ratio(c.ks_fired, ks_calls),
        "monitoring.cdf.calls": t.calls("monitoring.cdf"),
        "sim.deliver.calls": t.calls("sim.deliver"),
        "sim.deliver.self_s": t.self_s("sim.deliver"),
        "robustness.health.self_share": _ratio(
            t.self_s("robustness.health"), wall
        ),
        "robustness.health.transitions": c.health_transitions,
        "robustness.degradation.calls": t.calls("robustness.degradation"),
        "robustness.degradation.self_share": _ratio(
            t.self_s("robustness.degradation"), wall
        ),
        "checkpoint.save.calls": t.calls("checkpoint.save"),
        "checkpoint.save.self_share": _ratio(
            t.self_s("checkpoint.save"), wall
        ),
        "checkpoint.snapshot_bytes_last": c.snapshot_bytes_last,
        "trace.wall_s": wall,
        "trace.coverage": _ratio(t.attributed_s(), wall),
        "trace.overhead_ratio": _ratio(wall, run.untraced_wall_s),
    }
    metrics.update(run.extra)
    return metrics
