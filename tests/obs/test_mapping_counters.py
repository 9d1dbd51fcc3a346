"""Deterministic mapping counters: how each PGOS mapping was obtained.

``mapping.adopted`` counts mappings taken whole from the trail (the
remap after an admission), ``mapping.computed`` the rest;
``mapping.prefix_positions_reused`` and ``mapping.positions_placed``
split the computed runs' precedence positions into replayed and newly
placed ones.  They are pure functions of the seed, so they are pinned
exactly, next to the report checksum they ride with.
"""

from repro.core.mapping import MappingTrail, compute_mapping
from repro.core.spec import StreamSpec
from repro.monitoring.cdf import EmpiricalCDF
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.workload.scenarios import run_scenario

#: ``baseline`` at seed 0 (checksum 10be0973…): 1183 admissions and 711
#: remaps make 1894 mappings, of which 604 remaps adopt.
BASELINE_SEED0 = {
    "mapping.adopted": 604,
    "mapping.computed": 1290,
    "mapping.prefix_positions_reused": 37265,
    "mapping.positions_placed": 61341,
}


def test_baseline_seed0_counters_exact():
    obs = Observability()
    report = run_scenario("baseline", seed=0, obs=obs)
    assert report.checksum().startswith("10be0973")
    current = obs.metrics.to_dict()["current"]
    got = {name: current[name]["value"] for name in BASELINE_SEED0}
    assert got == BASELINE_SEED0
    remaps = obs.trace.events(name="remap")
    assert len(remaps) == 711
    assert sum(e.fields["adopted"] for e in remaps) == 604
    assert all(e.category == Category.SCHEDULER for e in remaps)


def _cdfs():
    return {
        "A": EmpiricalCDF([30.0, 35.0, 40.0, 45.0]),
        "B": EmpiricalCDF([10.0, 20.0, 30.0, 40.0]),
    }


def test_trail_reports_each_run():
    cdfs = _cdfs()
    specs = [
        StreamSpec(name=f"s{i}", required_mbps=2.0, probability=0.9)
        for i in range(3)
    ]
    obs = Observability()
    trail = MappingTrail()
    trail.bind_observability(obs)
    first = compute_mapping(specs, cdfs, 1.0, trail=trail)
    assert (trail.adopted, trail.reused, trail.placed) == (False, 0, 3)
    assert compute_mapping(specs, cdfs, 1.0, trail=trail) is first
    assert trail.adopted
    compute_mapping(specs[:2], cdfs, 1.0, trail=trail)
    assert (trail.adopted, trail.reused, trail.placed) == (False, 2, 0)
    counters = obs.metrics.to_dict()["current"]
    assert counters["mapping.adopted"]["value"] == 1
    assert counters["mapping.computed"]["value"] == 2
    assert counters["mapping.prefix_positions_reused"]["value"] == 2
    assert counters["mapping.positions_placed"]["value"] == 3


def test_disabled_observability_records_nothing():
    trail = MappingTrail()
    compute_mapping(
        [StreamSpec(name="s", required_mbps=2.0, probability=0.9)],
        _cdfs(),
        1.0,
        trail=trail,
    )
    assert trail.placed == 1
    assert NULL_OBS.metrics.names() == []
