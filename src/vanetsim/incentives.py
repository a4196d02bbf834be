"""Contribution metrics that convert carry/forward effort into a score.

Three scoring rules share the same record shape:

* basic linear:      alpha * t + (1 - alpha) * f
* bounded ratio:     alpha * (t / T) + (1 - alpha) * f   (or t * T, see below)
* saturating blend:  w_t * T * (1 - exp(-min(t, T)))
                     + w_f * f
                     + w_d * D * exp(-d / d_scale)       (zero beyond D)

Time inputs to the pure functions are unitless; the config layer divides
raw seconds by ``time_scale`` before calling them. Distances stay in
metres with an explicit decay scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import (
    PROPORTIONAL_SCHEMES,
    TWO_TERM_SCHEMES,
    ContributionRecord,
    PacketSpec,
    Scheme,
    ValidationError,
    WeightSet,
)

FIRST_PROPOSAL_MODES = ("ratio", "product")
DISTANCE_AGGREGATES = ("mean", "min", "max", "last")


def time_term(stored_time: float, deadline: float) -> float:
    """Saturating storage credit: deadline * (1 - exp(-min(t, deadline))).

    Grows from 0, saturates at just under ``deadline`` once the packet has
    been held for its whole lifetime; holding longer earns nothing more.
    """
    if not stored_time >= 0:
        raise ValidationError("stored_time must be non-negative")
    if not deadline > 0:
        raise ValidationError("deadline must be positive")
    t = min(stored_time, deadline)
    # expm1 keeps relative accuracy for small t where exp(-t) ~ 1
    return deadline * -math.expm1(-t)


def forward_term(forward_count: int) -> float:
    """Forwarding credit is linear in the number of handoffs."""
    if not forward_count >= 0:
        raise ValidationError("forward_count must be non-negative")
    return float(forward_count)


def distance_term(dist: float, interest_radius: float, decay_scale: float) -> float:
    """Proximity credit: interest_radius * exp(-d / decay_scale), 0 beyond it.

    Relaying near the origin is worth the most; the value decays with the
    relay's distance from the origin and drops to exactly zero once the
    relay happens outside the packet's region of interest.
    """
    if not dist >= 0:
        raise ValidationError("dist must be non-negative")
    if not interest_radius > 0:
        raise ValidationError("interest_radius must be positive")
    if not decay_scale > 0:
        raise ValidationError("decay_scale must be positive")
    if dist > interest_radius:
        return 0.0
    return interest_radius * math.exp(-dist / decay_scale)


def contribution_basic(alpha: float, stored_time: float, forward_count: int) -> float:
    """Two-term linear blend; time credit is unbounded."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError("alpha must lie in [0, 1]")
    if not stored_time >= 0:
        raise ValidationError("stored_time must be non-negative")
    return alpha * stored_time + (1.0 - alpha) * forward_term(forward_count)


def contribution_first(
    alpha: float,
    stored_time: float,
    deadline: float,
    forward_count: int,
    mode: str = "ratio",
) -> float:
    """Deadline-aware two-term blend.

    ``ratio`` reads the time credit as t / T (bounded by 1 while the
    packet is alive); ``product`` reads it as t * T. Both readings are
    kept selectable because they reward storage very differently.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie strictly between 0 and 1")
    if not stored_time >= 0:
        raise ValidationError("stored_time must be non-negative")
    if not deadline > 0:
        raise ValidationError("deadline must be positive")
    if mode == "ratio":
        time_credit = stored_time / deadline
    elif mode == "product":
        time_credit = stored_time * deadline
    else:
        raise ValidationError(f"unknown first-proposal mode: {mode!r}")
    return alpha * time_credit + (1.0 - alpha) * forward_term(forward_count)


def contribution_second(
    weights: WeightSet,
    stored_time: float,
    deadline: float,
    forward_count: int,
    dist: float,
    interest_radius: float,
    distance_scale: float,
) -> float:
    """Three-term blend of saturating time, linear forwards, decaying distance."""
    return (
        weights.time_weight * time_term(stored_time, deadline)
        + weights.forward_weight * forward_term(forward_count)
        + weights.distance_weight * distance_term(dist, interest_radius, distance_scale)
    )


def effective_distance(
    relay_distances: list[float],
    receive_distance: float,
    aggregate: str = "mean",
) -> float:
    """Collapse a record's relay positions into the metric's single distance.

    A vehicle that never forwarded is scored at the distance where it
    received (it still carried the packet there).
    """
    if not relay_distances:
        return receive_distance
    if aggregate == "mean":
        return math.fsum(relay_distances) / len(relay_distances)
    if aggregate == "min":
        return min(relay_distances)
    if aggregate == "max":
        return max(relay_distances)
    if aggregate == "last":
        return relay_distances[-1]
    raise ValidationError(f"unknown distance aggregate: {aggregate!r}")


def _default_weights() -> WeightSet:
    return WeightSet(time_weight=0.25, forward_weight=0.5, distance_weight=0.25)


@dataclass(frozen=True)
class IncentiveConfig:
    """Scheme selection plus the knobs shared by the scoring rules."""

    scheme: Scheme = Scheme.SECOND_PROPOSAL
    weights: WeightSet = field(default_factory=_default_weights)
    time_scale: float = 60.0
    distance_scale: float = 100.0
    first_proposal_mode: str = "ratio"
    distance_aggregate: str = "mean"

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not 0 < self.time_scale < math.inf:
            raise ValidationError("time_scale must be positive and finite")
        if not 0 < self.distance_scale < math.inf:
            raise ValidationError("distance_scale must be positive and finite")
        if self.distance_aggregate not in DISTANCE_AGGREGATES:
            raise ValidationError(
                f"distance_aggregate must be one of {DISTANCE_AGGREGATES}"
            )
        if self.first_proposal_mode not in FIRST_PROPOSAL_MODES:
            raise ValidationError(
                f"first_proposal_mode must be one of {FIRST_PROPOSAL_MODES}"
            )
        if self.scheme in TWO_TERM_SCHEMES:
            if not self.weights.is_two_term:
                raise ValidationError(
                    f"{self.scheme.value} uses two terms; distance_weight must be 0"
                )
        if self.scheme is Scheme.FIRST_PROPOSAL:
            if not 0.0 < self.weights.time_weight < 1.0:
                raise ValidationError(
                    "the first-proposal scheme needs a time weight strictly"
                    " between 0 and 1"
                )

    def contribution_for(self, record: ContributionRecord, packet: PacketSpec) -> float:
        """Score one vehicle's carry/forward record; the packet gives the deadline and interest radius."""
        if self.scheme not in PROPORTIONAL_SCHEMES:
            raise ValidationError(
                f"scheme {self.scheme.value} does not use contribution scoring"
            )
        alpha = self.weights.time_weight
        t = record.stored_time / self.time_scale
        deadline = packet.deadline / self.time_scale
        if self.scheme is Scheme.BASIC_LINEAR:
            return contribution_basic(alpha, t, record.forward_count)
        if self.scheme is Scheme.FIRST_PROPOSAL:
            return contribution_first(
                alpha, t, deadline, record.forward_count, self.first_proposal_mode
            )
        d_eff = effective_distance(
            record.relay_distances, record.receive_distance, self.distance_aggregate
        )
        return contribution_second(
            self.weights, t, deadline, record.forward_count,
            d_eff, packet.interest_radius, self.distance_scale,
        )

    def score_records(
        self, records: list[ContributionRecord], packet: PacketSpec
    ) -> list[ContributionRecord]:
        """Fill in ``contribution`` on every record, in place."""
        for rec in records:
            rec.contribution = self.contribution_for(rec, packet)
        return records
