"""The sharding seam: *where* a scenario's event loop is partitioned.

Historically the stack ran one :class:`~repro.simkit.Simulator` per run.
:class:`ShardSpec` lifts that assumption into an explicit, frozen value
object that rides :class:`~repro.scenarios.ScenarioSpec`, crosses the
fork boundary, and feeds the result cache's content hash (CACHE_SCHEMA
v6), so sharded and unsharded runs of the same grid point can never
share cache entries.

Two modes ship:

* ``off`` — the historical single event loop.
* ``per-switch`` — the scenario is partitioned at switch boundaries:
  each switch (with its adjacent hosts/sources) and the controller get
  their own :class:`~repro.simkit.Simulator`, synchronized with
  conservative (Chandy–Misra–Bryant-style) lookahead derived from the
  minimum propagation delay on cut cables.  ``workers`` groups the
  partitions onto that many event loops (``None`` = one per partition).

A spec says nothing about the wire: rounds always travel as the pickled
per-destination batches of :mod:`repro.shard.transport`.  Combinations
a sharded run cannot carry (the hybrid engine, a shared buffer pool) are
refused by :class:`~repro.scenarios.ScenarioSpec` when it is built.

This module is dependency-light on purpose: ``scenarios.spec`` imports
it, so it must not import simulation machinery.  The coordinator itself
lives in :mod:`repro.shard.coordinator`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: The sharding modes a spec may name.
SHARD_MODES = ("off", "per-switch")


@dataclass(frozen=True)
class ShardSpec:
    """How to partition a scenario's event loop, hashable and picklable."""

    #: ``off`` (one event loop) or ``per-switch`` (one loop per switch
    #: partition plus one for the controller).
    mode: str = "off"
    #: Per-switch only: group the partitions onto this many event loops
    #: (processes under the fork transport).  ``None`` resolves at plan
    #: time to one loop per partition.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in SHARD_MODES:
            raise ValueError(f"unknown shard mode {self.mode!r}; "
                             f"expected one of {SHARD_MODES}")
        if self.mode == "off" and self.workers is not None:
            raise ValueError("shard=off takes no worker count")
        if self.workers is not None and self.workers < 1:
            raise ValueError(
                f"shard workers must be >= 1, got {self.workers!r}")

    @property
    def is_active(self) -> bool:
        """True when the scenario runs on partitioned event loops."""
        return self.mode != "off"

    @property
    def name(self) -> str:
        """CLI-style name: ``off``, ``per-switch``, ``per-switch:2``."""
        if self.workers is not None:
            return f"{self.mode}:{self.workers}"
        return self.mode

    def with_workers(self, workers: Optional[int]) -> "ShardSpec":
        """This sharding with a different worker count."""
        return replace(self, workers=workers)

    def cache_token(self) -> str:
        """Canonical text for the result cache's content hash.

        Only what changes the partitioning keys the cache.  How shards
        are carried (inline or forked) is an execution detail that
        ``shard-verify`` proves bit-identical, so it stays out; this
        text is pinned byte for byte in ``tests/test_scenarios.py``.
        """
        return f"mode={self.mode}|workers={self.workers!r}"


#: The historical single event loop.
OFF = ShardSpec()
#: One event loop per switch partition (plus the controller's).
PER_SWITCH = ShardSpec(mode="per-switch")


def parse_shard(text: str) -> ShardSpec:
    """Parse a CLI shard string: ``off``, ``per-switch``, ``per-switch:2``.

    The optional suffix is the number of worker event loops.
    """
    mode, _, arg = text.strip().lower().partition(":")
    mode = mode.strip()
    if mode not in SHARD_MODES:
        raise ValueError(f"unknown shard mode {text!r}; expected "
                         f"'off' or 'per-switch[:workers]'")
    if not arg:
        return ShardSpec(mode=mode)
    if mode == "off":
        raise ValueError(f"'off' takes no worker count, got {text!r}")
    try:
        workers = int(arg)
    except ValueError:
        raise ValueError(
            f"shard worker count must be an integer, got {text!r}") from None
    return ShardSpec(mode=mode, workers=workers)
