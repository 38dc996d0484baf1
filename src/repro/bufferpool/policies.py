"""Pluggable admission policies for the shared buffer pool.

A policy answers one question per ``store`` attempt: may partition ``p``
take one more unit, given its occupancy, its static quota and the pool's
free headroom?  Policies are registered by name so
:func:`create_policy` can instantiate one from a
:class:`~repro.bufferpool.spec.PoolSpec`, and every decision comes
back as a :class:`Verdict` so rejections stay explainable all the way up
into :class:`~repro.openflow.pktbuffer.BufferFullError`.

Semantics (DESIGN.md §14):

``static``
    ``occupancy_p < quota_p`` — each partition keeps its private share;
    with one partition per switch sized at the buffer capacity this is
    bit-identical to the historical unpooled behaviour.

``dt``
    Classic Dynamic Threshold (Choudhury & Hahne): admit while
    ``occupancy_p < alpha * free_pool``.  Free headroom is shared, so a
    busy partition may exceed its static share while the pool is slack
    and is squeezed as the pool fills (the admission threshold falls to
    zero exactly when the pool is exhausted).

``delay``
    BShare-style: the DT inequality with the threshold scaled by the
    partition's observed packet_in round-trip EWMA — partitions whose
    packets are coming back quickly (controller healthy, short holds)
    get more room; partitions whose holds drag past ``delay_target``
    (loss, retries, slow controller) are throttled before they starve
    the rest of the pool.  The hold times come from the pool's release
    path, i.e. from the same §III.B span decomposition the tracer sees.

Policies are deterministic: no randomness, no wall clock — decisions are
pure functions of pool state plus (for ``delay``) hold-time history, so
pooled runs stay bit-identical across serial/parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

from .spec import PoolSpec

#: Delay policy: multiplicative clamp on the DT threshold scale so one
#: pathological EWMA can neither zero a partition nor unbound it.
_DELAY_SCALE_MIN = 0.25
_DELAY_SCALE_MAX = 4.0


@dataclass(frozen=True)
class Verdict:
    """One admission decision with its explanation.

    ``reason`` is a short machine-greppable token (``"admit"``,
    ``"quota"``, ``"pool-full"``, ``"threshold"``); it surfaces in
    rejection counters and in ``BufferFullError`` context.
    """

    admitted: bool
    reason: str

    def __bool__(self) -> bool:
        return self.admitted


ADMIT = Verdict(True, "admit")

_POLICIES: Dict[str, Type["AdmissionPolicy"]] = {}


def register_policy(name: str) -> Callable[[type], type]:
    """Class decorator registering an admission policy under ``name``."""
    def wrap(cls: type) -> type:
        if name in _POLICIES:
            raise ValueError(f"policy {name!r} already registered")
        _POLICIES[name] = cls
        cls.name = name
        return cls
    return wrap


def registered_policies() -> tuple:
    """Names of every registered policy, sorted."""
    return tuple(sorted(_POLICIES))


def create_policy(spec: PoolSpec) -> "AdmissionPolicy":
    """Instantiate the policy named by ``spec.policy``."""
    try:
        cls = _POLICIES[spec.policy]
    except KeyError:
        raise ValueError(
            f"no admission policy registered as {spec.policy!r} "
            f"(have {registered_policies()})") from None
    return cls(spec)


class AdmissionPolicy:
    """Base class: a named, spec-configured admission rule."""

    name = "abstract"

    def __init__(self, spec: PoolSpec):
        self.spec = spec

    def admits(self, occupancy: int, quota: int, free_pool: int,
               partition: str) -> Verdict:
        """May ``partition`` (currently at ``occupancy`` units, static
        share ``quota``) take one more unit while ``free_pool`` units
        remain unclaimed pool-wide?"""
        raise NotImplementedError

    def observe_hold(self, partition: str, held: float) -> None:
        """A unit of ``partition`` was held for ``held`` seconds (store
        to release — the packet_in round trip).  Default: ignored."""


@register_policy("static")
class StaticPolicy(AdmissionPolicy):
    """Private quotas: partition ``p`` never exceeds ``quota_p``."""

    def admits(self, occupancy: int, quota: int, free_pool: int,
               partition: str) -> Verdict:
        if occupancy >= quota:
            return Verdict(False, "quota")
        if free_pool <= 0:
            # Unreachable when quotas tile the pool exactly, but quotas
            # may oversubscribe it (rounding, explicit capacity).
            return Verdict(False, "pool-full")
        return ADMIT


@register_policy("dt")
class DynamicThresholdPolicy(AdmissionPolicy):
    """Admit while ``occupancy_p < alpha * free_pool``."""

    def admits(self, occupancy: int, quota: int, free_pool: int,
               partition: str) -> Verdict:
        if free_pool <= 0:
            return Verdict(False, "pool-full")
        if occupancy >= self.spec.alpha * free_pool:
            return Verdict(False, "threshold")
        return ADMIT


@register_policy("delay")
class DelayAwarePolicy(AdmissionPolicy):
    """DT with the threshold scaled by each partition's hold-time EWMA.

    ``scale_p = clamp(delay_target / ewma_p, 0.25, 4.0)`` — a partition
    holding units twice as long as the target sees half the threshold.
    Before the first release a partition is neutral (``scale = 1``), so
    an idle pool behaves exactly like ``dt``.
    """

    def __init__(self, spec: PoolSpec):
        super().__init__(spec)
        self._ewma: Dict[str, float] = {}

    def observe_hold(self, partition: str, held: float) -> None:
        previous = self._ewma.get(partition)
        if previous is None:
            self._ewma[partition] = held
        else:
            w = self.spec.ewma_weight
            self._ewma[partition] = w * held + (1.0 - w) * previous

    def threshold_scale(self, partition: str) -> float:
        """The clamped ``delay_target / ewma`` factor for ``partition``."""
        ewma = self._ewma.get(partition)
        if ewma is None or ewma <= 0.0:
            return 1.0
        scale = self.spec.delay_target / ewma
        if scale < _DELAY_SCALE_MIN:
            return _DELAY_SCALE_MIN
        if scale > _DELAY_SCALE_MAX:
            return _DELAY_SCALE_MAX
        return scale

    def ewma(self, partition: str) -> Optional[float]:
        """Observed hold-time EWMA for ``partition`` (None before any)."""
        return self._ewma.get(partition)

    def admits(self, occupancy: int, quota: int, free_pool: int,
               partition: str) -> Verdict:
        if free_pool <= 0:
            return Verdict(False, "pool-full")
        limit = self.spec.alpha * self.threshold_scale(partition) * free_pool
        if occupancy >= limit:
            return Verdict(False, "threshold")
        return ADMIT
