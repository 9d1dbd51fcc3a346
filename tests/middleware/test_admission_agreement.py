"""Admission and the serving scheduler decide on the same inputs.

Admission control maps the open streams plus the newcomer; the remap
that installs them maps the same set again.  Both read the paths, CDFs
and RTT/loss estimates from :meth:`PGOSScheduler.mapping_inputs`, so a
set admitted at time *t* remaps at *t* without degrading, and the remap
adopts the admission mapping instead of recomputing it.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import StreamSpec
from repro.errors import AdmissionError
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed


def make_realization(rtt_ms=None):
    testbed = make_figure8_testbed(
        profile_a="abilene-moderate", profile_b="light"
    )
    realization = testbed.realize(seed=77, duration=60.0, dt=0.1)
    for path, level in (rtt_ms or {}).items():
        qos = realization.qos[path]
        realization.qos[path] = dataclasses.replace(
            qos, rtt_ms=np.full_like(qos.rtt_ms, level)
        )
    return realization


#: Path B carries the bandwidth, but at 200 ms RTT; A is fast but thin.
SLOW_FAT_B = {"A": 20.0, "B": 200.0}


class TestCeilingsAtAdmission:
    def test_stream_that_fits_only_on_high_rtt_path_is_rejected(self):
        service = IQPathsService(
            make_realization(SLOW_FAT_B), warmup_intervals=200
        )
        # RTT is monitored from the first delivery step on.
        service.open_stream(StreamSpec(name="probe", required_mbps=1.0))
        service.advance(1.0)
        with pytest.raises(AdmissionError):
            service.open_stream(
                StreamSpec(
                    name="steer",
                    required_mbps=55.0,
                    probability=0.9,
                    max_rtt_ms=100.0,
                )
            )
        assert not service.handles.get("steer")

    def test_same_stream_without_ceiling_is_admitted(self):
        service = IQPathsService(
            make_realization(SLOW_FAT_B), warmup_intervals=200
        )
        service.open_stream(StreamSpec(name="probe", required_mbps=1.0))
        service.advance(1.0)
        handle = service.open_stream(
            StreamSpec(name="steer", required_mbps=55.0, probability=0.9)
        )
        assert handle.admitted


stream = st.builds(
    StreamSpec,
    name=st.just("x"),
    required_mbps=st.sampled_from([2.0, 8.0, 20.0, 55.0]),
    probability=st.sampled_from([0.8, 0.9, 0.95]),
    max_rtt_ms=st.sampled_from([None, 50.0, 150.0, 300.0]),
)


class TestAdmittedSetsRemapClean:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        st.lists(stream, min_size=1, max_size=6),
        st.sampled_from([{}, SLOW_FAT_B, {"A": 120.0, "B": 40.0}]),
    )
    def test_admitted_at_t_remaps_at_t_undegraded(self, specs, rtts):
        service = IQPathsService(
            make_realization(rtts), warmup_intervals=200
        )
        service.open_stream(StreamSpec(name="probe", required_mbps=1.0))
        service.advance(1.0)
        scheduler = service.scheduler
        for i, spec in enumerate(specs):
            spec = dataclasses.replace(spec, name=f"s{i}")
            try:
                service.open_stream(spec)
            except AdmissionError:
                continue
            mapping = scheduler.remap()
            assert not scheduler.degraded
            assert scheduler.trail.adopted
            assert spec.name in mapping.rates_mbps


def _reopen_run(vectorized: bool) -> str:
    """Digest of a run that closes and reopens names mid-population."""
    service = IQPathsService(
        make_realization(),
        warmup_intervals=200,
        sim_backend="vectorized" if vectorized else "scalar",
    )

    def crit(name, mbps):
        return StreamSpec(name=name, required_mbps=mbps, probability=0.9)

    service.open_stream(crit("a", 4.0))
    service.open_stream(
        StreamSpec(name="bulk", elastic=True, nominal_mbps=20.0)
    )
    service.open_stream(crit("b", 6.0))
    service.advance(3.0)
    service.close_stream("a")
    service.open_stream(crit("c", 5.0))
    service.advance(2.0)
    # "a" comes back: it keeps its first slot in ``handles``.
    service.open_stream(crit("a", 7.0))
    service.advance(3.0)
    service.close_stream("bulk")
    service.close_stream("b")
    service.open_streams([crit("b", 3.0), crit("d", 2.0)])
    service.open_stream(
        StreamSpec(name="bulk", elastic=True, nominal_mbps=9.0)
    )
    service.advance(4.0)
    payload = {
        "state": service.state_dict(),
        "reports": {
            name: [float(v) for v in report.mbps]
            for name, report in service.reports().items()
        },
    }
    blob = json.dumps(payload, sort_keys=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


#: Recorded from the handle-scanning implementation this replaced.
REOPEN_DIGEST = (
    "221602890b54628bfb850d9ca4f16465c83333d84dc8ddf51565edee4f4eb4fd"
)


class TestReopenOrder:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_close_and_reopen_keeps_report_bytes(self, vectorized):
        assert _reopen_run(vectorized) == REOPEN_DIGEST
