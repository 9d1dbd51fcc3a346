"""Differential battery: trail-backed mapping vs from-scratch mapping.

:class:`repro.core.mapping.MappingTrail` lets :func:`compute_mapping`
adopt the last complete mapping whole or replay the unchanged
precedence prefix of the last run.  Its contract is **identity** with a
from-scratch run, not approximate agreement: the same rates in the same
dict order, the same achieved guarantees, the same packet counts, and
on rejection the same :class:`AdmissionError` (stream and message).

Hypothesis drives a real :class:`PGOSScheduler` (real path monitors,
an :class:`AdmissionController` sharing the scheduler's trail, as the
middleware wires them) through random sequences of stream additions,
removals, downgrades, CDF advances, RTT drift and quarantine flips.
After every operation the admission decision and the serving remap are
compared against fresh, trail-less runs on the same inputs, and the
lazily compiled V_P / V_S schedule against an eager ``compile()``.

``derandomize=True`` keeps the battery reproducible run-to-run: it
gates the byte-identity of every workload checksum.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionController
from repro.core.mapping import MappingTrail, PathQoSEstimate, compute_mapping
from repro.core.pgos import PGOSScheduler
from repro.core.spec import StreamSpec
from repro.errors import AdmissionError
from repro.monitoring.cdf import EmpiricalCDF

PATHS = ("A", "B", "C")
#: (bandwidth mean, std, RTT ms) per path: one fat high-RTT path.
PATH_PARAMS = {
    "A": (40.0, 6.0, 20.0),
    "B": (25.0, 10.0, 60.0),
    "C": (60.0, 4.0, 140.0),
}
TW = 1.0


def ordered(d):
    """Nested dicts as nested item lists: dict order is compared too."""
    return [
        (k, ordered(v) if isinstance(v, dict) else v) for k, v in d.items()
    ]


def assert_same_mapping(got, want):
    assert ordered(got.rates_mbps) == ordered(want.rates_mbps)
    assert ordered(got.achieved_probability) == ordered(
        want.achieved_probability
    )
    assert ordered(got.achieved_violation_rate) == ordered(
        want.achieved_violation_rate
    )
    assert ordered(got.packets) == ordered(want.packets)


def scratch(specs, cdfs, qos):
    """From-scratch mapping, or the AdmissionError it raises."""
    try:
        return compute_mapping(specs, cdfs, TW, qos=qos)
    except AdmissionError as exc:
        return exc


@st.composite
def stream_specs(draw, name):
    kind = draw(st.sampled_from(["prob", "prob", "viol", "elastic", "both"]))
    ceiling = draw(st.sampled_from([None, None, 50.0, 100.0]))
    mbps = draw(st.sampled_from([2.0, 5.0, 8.0, 12.0, 20.0, 35.0]))
    if kind == "elastic":
        return StreamSpec(
            name=name, elastic=True, nominal_mbps=mbps, max_rtt_ms=ceiling
        )
    if kind == "viol":
        return StreamSpec(
            name=name,
            required_mbps=mbps,
            max_violation_rate=draw(st.sampled_from([0.01, 0.05, 0.2])),
            packet_size=draw(st.sampled_from([1000, 1500])),
            max_rtt_ms=ceiling,
        )
    return StreamSpec(
        name=name,
        required_mbps=mbps,
        probability=draw(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99])),
        elastic=kind == "both",
        max_rtt_ms=ceiling,
    )


@st.composite
def operations(draw):
    ops = []
    for i in range(draw(st.integers(min_value=4, max_value=14))):
        op = draw(
            st.sampled_from(
                ["add", "add", "add", "remove", "downgrade", "advance",
                 "rtt", "quarantine", "offer"]
            )
        )
        if op in ("add", "offer"):
            ops.append((op, draw(stream_specs(f"s{i}"))))
        elif op in ("remove", "downgrade"):
            ops.append((op, draw(st.integers(min_value=0, max_value=20))))
        elif op == "advance":
            ops.append(
                (op, draw(st.integers(min_value=1, max_value=40)))
            )
        elif op == "rtt":
            ops.append(
                (
                    op,
                    (
                        draw(st.sampled_from(PATHS)),
                        draw(st.sampled_from([10.0, 45.0, 80.0, 160.0])),
                    ),
                )
            )
        else:
            ops.append(
                (op, draw(st.sets(st.sampled_from(PATHS), max_size=2)))
            )
    return ops


def make_scheduler(seed):
    sched = PGOSScheduler(history_window=120)
    sched.setup(
        [StreamSpec(name="boot", required_mbps=1.0)], list(PATHS), 0.1, TW
    )
    sched.streams.clear()
    rng = np.random.default_rng(seed)
    for _ in range(120):
        observe(sched, rng)
    return sched, rng


def observe(sched, rng):
    bw = {
        p: max(0.0, float(mu + sd * rng.standard_normal()))
        for p, (mu, sd, _) in PATH_PARAMS.items()
    }
    rtt = {
        p: float(r * (1.0 + 0.1 * rng.standard_normal()))
        for p, (_, _, r) in PATH_PARAMS.items()
    }
    sched.observe(0, bw, rtt_ms=rtt)


def apply(sched, admission, rng, op, arg):
    """Apply one operation the way the middleware would."""
    streams = sched.streams
    if op == "add":
        _, cdfs, qos = sched.mapping_inputs()
        if admission.try_admit(streams + [arg], cdfs, qos).admitted:
            sched.add_stream(arg)
    elif op == "offer":
        # Admission only: exercises failed runs and rejection hints.
        _, cdfs, qos = sched.mapping_inputs()
        admission.try_admit(streams + [arg], cdfs, qos)
    elif op == "remove" and streams:
        sched.remove_stream(streams[arg % len(streams)].name)
    elif op == "downgrade" and streams:
        spec = streams[arg % len(streams)]
        if spec.probability is not None:
            sched.remove_stream(spec.name)
            sched.add_stream(
                replace(spec, probability=max(0.05, spec.probability - 0.3))
            )
    elif op == "advance":
        for _ in range(arg):
            observe(sched, rng)
    elif op == "rtt":
        # RTT drifts while the bandwidth CDFs stay put: only the
        # eligible paths of streams with ceilings change.
        path, level = arg
        for _ in range(10):
            sched.observe(0, {}, rtt_ms={path: level})
    elif op == "quarantine":
        sched.set_quarantine(arg)


def check_admission(sched, admission):
    """Trail-backed admission == fresh admission, field by field."""
    _, cdfs, qos = sched.mapping_inputs()
    for specs in (sched.streams, sched.streams[::-1]):
        got = admission.try_admit(specs, cdfs, qos)
        want = AdmissionController(tw=TW).try_admit(specs, cdfs, qos)
        assert got.admitted == want.admitted
        assert got.rejected_stream == want.rejected_stream
        assert got.reason == want.reason
        assert got.suggested_probability == want.suggested_probability
        assert got.admitted_streams == want.admitted_streams
        assert (got.mapping is None) == (want.mapping is None)
        if got.mapping is not None:
            assert_same_mapping(got.mapping, want.mapping)


def check_remap(sched):
    """Serving remap == from-scratch mapping; lazy schedule == eager."""
    usable, cdfs, qos = sched.mapping_inputs()
    want = scratch(list(sched.streams), cdfs, qos)
    if isinstance(want, AdmissionError):
        with pytest.raises(AdmissionError) as err:
            compute_mapping(
                sched.streams, cdfs, TW, qos=qos, trail=sched.trail
            )
        assert err.value.stream_name == want.stream_name
        assert str(err.value) == str(want)
        return
    got = sched.remap()
    assert not sched.degraded
    assert_same_mapping(got, want)
    eager = want.compile(
        stream_order=sched.stream_precedence(), path_order=usable
    )
    schedule = sched.schedule
    assert schedule == eager
    assert schedule.vp == eager.vp
    assert list(schedule.vs.items()) == list(eager.vs.items())
    assert ordered(schedule.stream_path_packets) == ordered(
        eager.stream_path_packets
    )


class TestTrailIdentity:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(operations(), st.integers(min_value=0, max_value=2**16))
    def test_every_operation_maps_like_scratch(self, ops, seed):
        sched, rng = make_scheduler(seed)
        admission = AdmissionController(tw=TW, trail=sched.trail)
        for op, arg in ops:
            apply(sched, admission, rng, op, arg)
            check_remap(sched)
            check_admission(sched, admission)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(operations(), st.integers(min_value=0, max_value=2**16))
    def test_remap_after_admission_adopts(self, ops, seed):
        """Admitted at t, remapped at t: the remap adopts the object."""
        sched, rng = make_scheduler(seed)
        admission = AdmissionController(tw=TW, trail=sched.trail)
        for op, arg in ops:
            apply(sched, admission, rng, op, arg)
            _, cdfs, qos = sched.mapping_inputs()
            decision = admission.try_admit(list(sched.streams), cdfs, qos)
            if not decision.admitted:
                continue
            mapping = sched.remap()
            assert not sched.degraded
            assert sched.trail.adopted
            assert mapping is decision.mapping


class TestRttDriftUnderOneSnapshot:
    """Same CDF snapshots, new RTT estimates: eligible paths are inputs."""

    CDFS = {
        "A": EmpiricalCDF(np.linspace(40.0, 60.0, 50)),
        "B": EmpiricalCDF(np.linspace(20.0, 30.0, 50)),
    }
    FAST = {
        "A": PathQoSEstimate(rtt_ms=20.0),
        "B": PathQoSEstimate(rtt_ms=20.0),
    }
    SLOW_A = {
        "A": PathQoSEstimate(rtt_ms=90.0),
        "B": PathQoSEstimate(rtt_ms=20.0),
    }

    def _specs(self, steer_p):
        return [
            StreamSpec(name="bulk", required_mbps=3.0, probability=0.8),
            StreamSpec(
                name="steer",
                required_mbps=5.0,
                probability=steer_p,
                max_rtt_ms=50.0,
            ),
        ]

    def test_ceiling_stream_first_in_precedence(self):
        specs = self._specs(steer_p=0.9)
        trail = MappingTrail()
        first = compute_mapping(
            specs, self.CDFS, TW, qos=self.FAST, trail=trail
        )
        assert list(first.rates_mbps["steer"]) == ["A"]
        second = compute_mapping(
            specs, self.CDFS, TW, qos=self.SLOW_A, trail=trail
        )
        assert (trail.adopted, trail.reused) == (False, 0)
        assert list(second.rates_mbps["steer"]) == ["B"]
        assert_same_mapping(
            second, compute_mapping(specs, self.CDFS, TW, qos=self.SLOW_A)
        )

    def test_ceiling_stream_later_in_precedence(self):
        specs = self._specs(steer_p=0.7)
        trail = MappingTrail()
        compute_mapping(specs, self.CDFS, TW, qos=self.FAST, trail=trail)
        second = compute_mapping(
            specs, self.CDFS, TW, qos=self.SLOW_A, trail=trail
        )
        assert (trail.adopted, trail.reused, trail.placed) == (False, 1, 1)
        assert list(second.rates_mbps["steer"]) == ["B"]
        assert_same_mapping(
            second, compute_mapping(specs, self.CDFS, TW, qos=self.SLOW_A)
        )

