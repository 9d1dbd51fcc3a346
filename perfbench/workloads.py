"""The benchmark's workloads, each driven through a public front door.

Every workload is split into a *set-up* (plans, realization, service
construction) and one *iteration* (the measured run).  Arrivals are
open-loop in virtual time: the plans are a pure function of the seed
and never wait on the wall clock.  In wall time the benchmark is a
single closed-loop caller, so it reports work per wall second and
latency per call.

``churn``
    The ``baseline`` scenario unchanged, through
    :func:`~repro.workload.scenarios.make_scale_run` and
    :meth:`~repro.workload.driver.ChurnDriver.run`.
``chaos-soak``
    ``flash-crowd-chaos`` stretched so its fault campaign spans a long
    run, through :func:`~repro.checkpoint.workload.
    run_scale_scenario_checkpointed` with snapshots into a scratch
    directory.

The checkpointed front door is looked up through its module at call
time, so the outside-in tracer's patch (see ``tracer.py``) sees it.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import repro.checkpoint.workload as checkpoint_workload
from repro.checkpoint.policy import CheckpointConfig
from repro.checkpoint.snapshot import CheckpointStore
from repro.runner.fingerprint import code_fingerprint
from repro.workload.scenarios import make_scale_run, make_scenario

from speed import SpeedProbe

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class Sizes:
    """How much work one iteration of each workload does."""

    #: Key of these sizes' checksums in ``expected.json``.
    name: str = "full"
    #: ``None`` keeps the ``baseline`` scenario's own duration.
    churn_duration: Optional[float] = None
    churn_max_sessions: Optional[int] = None
    soak_seconds: float = 300.0
    soak_checkpoint_every_s: float = 5.0


FULL = Sizes()

#: Seconds-scale sizes for the self-test.
TINY = Sizes(
    name="tiny",
    churn_duration=4.0,
    churn_max_sessions=40,
    soak_seconds=8.0,
    soak_checkpoint_every_s=2.0,
)


class StepClock:
    """``on_step`` hook recording the wall time between delivery steps.

    With a :class:`~speed.SpeedProbe` it also times the probe's kernel
    at step boundaries, at most once per ``PROBE_EVERY_NS``, and leaves
    that time out of the steps.  ``stop`` records the time from the last
    step to the end.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None):
        self.probe = probe
        self.samples_ns: list[int] = []
        #: When each step sample ended.
        self.at_ns: list[int] = []
        self.tail_ns = 0
        self._last: Optional[int] = None

    def start(self) -> None:
        self._last = _clock()

    def __call__(self, k: int = 0, t: float = 0.0) -> None:
        now = _clock()
        if self._last is not None:
            self.samples_ns.append(now - self._last)
            self.at_ns.append(now)
        if self.probe is not None and self.probe.due(now):
            now = self.probe.probe()
        self._last = now

    def stop(self) -> int:
        now = _clock()
        self.tail_ns = now - self._last
        return now


@dataclass
class Outcome:
    """What one iteration produced, for the output checks."""

    checksum: str
    offered: int
    admitted: int
    degraded: int
    rejected: int
    violation_rate: float
    steps: int


def report_outcome(report) -> Outcome:
    return Outcome(
        checksum=report.checksum(),
        offered=report.offered,
        admitted=report.admitted,
        degraded=report.degraded,
        rejected=report.rejected,
        violation_rate=report.violation_rate,
        steps=int(round(report.duration / report.dt)),
    )


class Workload:
    """One named workload: ``setup``, a timed ``iterate``, then
    ``outcome`` (the untimed checks' view of what the iteration did)."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch

    def setup(self) -> Any:
        raise NotImplementedError

    def iterate(self, prepared: Any, clock: StepClock) -> Any:
        raise NotImplementedError

    def outcome(self, report) -> Outcome:
        return report_outcome(report)


class Churn(Workload):
    name = "churn"

    def setup(self):
        scenario = make_scenario(
            "baseline", duration=self.sizes.churn_duration
        )
        driver = make_scale_run(
            scenario,
            seed=self.seed,
            max_sessions=self.sizes.churn_max_sessions,
        )
        return scenario, driver

    def iterate(self, prepared, clock):
        scenario, driver = prepared
        driver.on_step = clock
        clock.start()
        return driver.run(scenario.duration)


class ChaosSoak(Workload):
    name = "chaos-soak"

    def setup(self):
        scenario = make_scenario(
            "flash-crowd-chaos", duration=self.sizes.soak_seconds
        )
        fingerprint = code_fingerprint()
        # The checkpointed front door builds its own driver; building one
        # here times the same plan + realization + service construction.
        make_scale_run(scenario, seed=self.seed)
        return scenario, fingerprint

    def iterate(self, prepared, clock):
        scenario, fingerprint = prepared
        root = Path(tempfile.mkdtemp(prefix="soak-", dir=self.scratch))
        try:
            clock.start()
            report = checkpoint_workload.run_scale_scenario_checkpointed(
                scenario,
                CheckpointStore(root),
                seed=self.seed,
                config=CheckpointConfig(
                    every_s=self.sizes.soak_checkpoint_every_s
                ),
                fingerprint=fingerprint,
                resume=False,
                on_step=clock,
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return report


WORKLOADS: dict[str, Callable[..., Workload]] = {
    Churn.name: Churn,
    ChaosSoak.name: ChaosSoak,
}
