"""Runtime admission control.

The paper: "If this still fails due to limited bandwidth, an upcall is made
to inform the application that it is not possible to schedule this
particular stream.  The application can reduce its bandwidth requirement
(e.g., from 95% to 90%) or try to adjust its behavior."

:class:`AdmissionController` packages this protocol: it attempts the full
resource mapping, and on failure reports *which* stream did not fit
together with the best probability the overlay could actually offer it —
the hint the application needs to renegotiate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.errors import AdmissionError
from repro.core.guarantees import probabilistic_guarantee
from repro.core.mapping import (
    MappingTrail,
    PathQoSEstimate,
    ResourceMapping,
    compute_mapping,
    shifted_cdf,
)
from repro.core.spec import StreamSpec
from repro.monitoring.cdf import EmpiricalCDF


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission attempt.

    ``admitted`` streams carry a ``mapping``; a rejection names the
    ``rejected_stream`` and, when possible, the ``suggested_probability``
    the overlay *can* guarantee for its bandwidth (the renegotiation hint).
    """

    admitted: bool
    mapping: Optional[ResourceMapping] = None
    rejected_stream: Optional[str] = None
    reason: str = ""
    suggested_probability: Optional[float] = None
    admitted_streams: tuple[str, ...] = field(default_factory=tuple)


class AdmissionController:
    """Admits stream sets against the current path distributions.

    ``trail`` is the :class:`MappingTrail` its mappings reuse and extend
    (a private one by default); sharing the serving scheduler's trail
    lets the scheduler adopt the admission mapping instead of redoing it.
    """

    def __init__(self, tw: float = 1.0, trail: Optional[MappingTrail] = None):
        if tw <= 0:
            raise ValueError(f"tw must be positive, got {tw}")
        self.tw = tw
        self.trail = trail if trail is not None else MappingTrail()

    def try_admit(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Optional[Mapping[str, PathQoSEstimate]] = None,
    ) -> AdmissionDecision:
        """Attempt to admit all ``specs``; never raises on rejection.

        ``qos`` is the monitored RTT/loss per path, as the serving
        scheduler maps with it (streams with ceilings only fit on paths
        meeting them).
        """
        try:
            mapping = compute_mapping(
                specs, cdfs, self.tw, qos=qos, trail=self.trail
            )
        except AdmissionError as exc:
            return self._reject(specs, cdfs, qos, exc)
        return AdmissionDecision(
            admitted=True,
            mapping=mapping,
            admitted_streams=tuple(s.name for s in specs),
        )

    def _reject(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        qos: Optional[Mapping[str, PathQoSEstimate]],
        exc: AdmissionError,
    ) -> AdmissionDecision:
        rejected = exc.stream_name
        others = [s for s in specs if s.name != rejected]
        rejected_spec = next(s for s in specs if s.name == rejected)
        suggestion = None
        admitted_names: tuple[str, ...] = ()
        try:
            partial = compute_mapping(
                others, cdfs, self.tw, qos=qos, trail=self.trail
            )
            admitted_names = tuple(s.name for s in others)
            suggestion = self._best_offer(rejected_spec, cdfs, partial)
        except AdmissionError:
            # Even the remaining set does not fit; no hint available.
            partial = None
        return AdmissionDecision(
            admitted=False,
            mapping=partial,
            rejected_stream=rejected,
            reason=str(exc),
            suggested_probability=suggestion,
            admitted_streams=admitted_names,
        )

    def _best_offer(
        self,
        spec: StreamSpec,
        cdfs: Mapping[str, EmpiricalCDF],
        partial: ResourceMapping,
    ) -> Optional[float]:
        """Best single-path probability for ``spec`` given prior promises."""
        if spec.required_mbps is None:
            return None
        best = 0.0
        for path, cdf in cdfs.items():
            allocated = sum(
                partial.rate(stream, path)
                for stream in partial.rates_mbps
            )
            residual = shifted_cdf(cdf, allocated)
            best = max(
                best, probabilistic_guarantee(residual, spec.required_mbps)
            )
        return best if best > 0 else None
