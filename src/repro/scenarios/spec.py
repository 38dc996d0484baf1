"""Declarative scenario descriptions: what topology to build, not how.

A :class:`ScenarioSpec` is a frozen, hashable value object naming a
topology *shape* (``single``, ``line``, ``fanin``), its size, the
calibration to resolve by name, and optional per-switch config
overrides.  Because it is immutable and canonical it can ride inside
:class:`~repro.parallel.tasks.SweepJob`, cross the fork boundary, and
feed the result cache's content hash — two specs that differ in any way
never share a cache entry (see :func:`ScenarioSpec.cache_token`).

Shapes shipped here, each K sources → s1 → … → sN → host2 under one
shared controller:

* ``single`` — the paper's Fig. 1 testbed: host1 — switch — host2 (1×1).
* ``line``  — host1 — s1 — ... — sN — host2 (N×1; the per-path
  control-overhead compounding study).
* ``fanin`` — k traffic-source hosts converging through one switch onto
  one egress host (1×K; incast-style flow arrivals).

One function wires every shape:
:func:`repro.scenarios.builders.build_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..bufferpool.spec import PoolSpec, pool_cache_token
from ..engine.spec import PACKET, EngineSpec
from ..shard.spec import OFF, ShardSpec

#: Every topology shape; :func:`~repro.scenarios.builders.build_scenario`
#: wires each as K sources → N switches → host2.
SHAPES = ("single", "line", "fanin")

#: Override payload: ((datapath_id, ((field, value), ...)), ...).
SwitchOverrides = Tuple[Tuple[int, Tuple[Tuple[str, object], ...]], ...]


@dataclass(frozen=True)
class ScenarioSpec:
    """One topology scenario, hashable and picklable.

    ``calibration`` names a calibration factory (resolved lazily by
    :func:`~repro.scenarios.build_scenario`, so an explicit
    :class:`~repro.experiments.calibration.TestbedCalibration` object
    passed to ``build_scenario`` always wins).  ``switch_overrides``
    replaces individual :class:`~repro.switchsim.SwitchConfig` fields on
    specific datapaths, e.g. a slower middle switch on a line.
    """

    #: Topology shape, one of :data:`SHAPES`.
    shape: str = "single"
    #: Switches on the data path (``line`` length; 1 for the others).
    n_switches: int = 1
    #: Traffic-source hosts (``fanin`` width; 1 for the others).
    n_sources: int = 1
    #: Named calibration, resolved by ``build_scenario``.
    calibration: str = "default"
    #: Per-datapath SwitchConfig field replacements, canonicalized.
    switch_overrides: SwitchOverrides = field(default=())
    #: Shared buffer-pool plan (``None`` = private per-switch buffers,
    #: the historical behaviour).  See :mod:`repro.bufferpool`.
    pool: Optional[PoolSpec] = None
    #: Execution engine: how traffic advances (``packet`` = every packet
    #: a discrete event, the historical behaviour; ``hybrid`` = table-hit
    #: traffic as analytic flow aggregates).  See :mod:`repro.engine`.
    engine: EngineSpec = PACKET
    #: Event-loop sharding: ``off`` = one Simulator (the historical
    #: behaviour); ``per-switch`` = partitioned event loops synchronized
    #: with conservative lookahead.  See :mod:`repro.shard`.
    shard: ShardSpec = OFF

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown scenario shape {self.shape!r}; "
                             f"registered: {sorted(SHAPES)}")
        if self.n_switches < 1:
            raise ValueError(
                f"need at least one switch, got {self.n_switches}")
        if self.n_sources < 1:
            raise ValueError(
                f"need at least one source host, got {self.n_sources}")
        # A size the shape does not read would name and cache a second
        # spec for the same testbed.
        if self.shape != "line" and self.n_switches != 1:
            raise ValueError(f"shape {self.shape!r} has one switch, "
                             f"got n_switches={self.n_switches}")
        if self.shape != "fanin" and self.n_sources != 1:
            raise ValueError(f"shape {self.shape!r} has one source host, "
                             f"got n_sources={self.n_sources}")
        # Cross-axis checks run at construction, so a combination that
        # cannot run fails when the spec is built (through ``with_*`` in
        # either order), at the CLI, and not inside every sweep task.
        if self.shard.is_active and self.engine.is_hybrid:
            raise ValueError(
                "sharded execution does not compose with the hybrid engine: "
                "its per-pktgen drivers reach across switch boundaries; run "
                "with engine=packet or shard=off")
        if self.shard.is_active and self.pool is not None:
            raise ValueError(
                "sharded execution does not compose with a shared buffer "
                "pool: pool admission is cross-switch-synchronous; run with "
                "pool=None or shard=off")
        # Canonicalize overrides so logically equal specs hash equal
        # (and produce the same cache token) regardless of input order.
        canonical = tuple(sorted(
            (int(dpid), tuple(sorted((str(k), v) for k, v in fields)))
            for dpid, fields in self.switch_overrides))
        for dpid, _fields in canonical:
            if not 1 <= dpid <= self.n_switches:
                raise ValueError(
                    f"override for datapath {dpid}, but the shape's "
                    f"datapaths are 1..{self.n_switches}")
        object.__setattr__(self, "switch_overrides", canonical)

    @property
    def name(self) -> str:
        """CLI-style name: ``single``, ``line:4``, ``fanin:3``."""
        if self.shape == "line":
            base = f"line:{self.n_switches}"
        elif self.shape == "fanin":
            base = f"fanin:{self.n_sources}"
        else:
            base = self.shape
        if self.pool is not None:
            base += f"+pool={self.pool.name}"
        if self.engine.mode != "packet":
            base += f"+engine={self.engine.name}"
        if self.shard.is_active:
            base += f"+shard={self.shard.name}"
        return base

    def with_pool(self, pool: Optional[PoolSpec]) -> "ScenarioSpec":
        """This scenario with a different buffer-pool plan."""
        return replace(self, pool=pool)

    def with_engine(self, engine: EngineSpec) -> "ScenarioSpec":
        """This scenario advanced by a different execution engine."""
        return replace(self, engine=engine)

    def with_shard(self, shard: ShardSpec) -> "ScenarioSpec":
        """This scenario executed on a different event-loop sharding."""
        return replace(self, shard=shard)

    def override_for(self, datapath_id: int) -> Dict[str, object]:
        """SwitchConfig field replacements for one datapath (may be {})."""
        for dpid, fields in self.switch_overrides:
            if dpid == datapath_id:
                return dict(fields)
        return {}

    def cache_token(self) -> str:
        """Canonical text for the result cache's content hash.

        Every field participates: two specs differing only in topology
        (or calibration name, or one override, or the pool plan) must
        never collide.  ``pool=None`` keys as ``pool=private`` so
        historical cache entries stay addressable under the same token
        shape.
        """
        return (f"shape={self.shape}|switches={self.n_switches}"
                f"|sources={self.n_sources}|calibration={self.calibration}"
                f"|overrides={self.switch_overrides!r}"
                f"|pool={pool_cache_token(self.pool)}"
                f"|engine={self.engine.cache_token()}"
                f"|shard={self.shard.cache_token()}")


#: The default spec: the paper's single-switch Fig. 1 testbed.
SINGLE = ScenarioSpec()


def single_scenario(calibration: str = "default") -> ScenarioSpec:
    """The paper's Fig. 1 testbed."""
    return ScenarioSpec(shape="single", calibration=calibration)


def line_scenario(n_switches: int,
                  calibration: str = "default") -> ScenarioSpec:
    """host1 — s1 — ... — sN — host2 with one shared controller."""
    return ScenarioSpec(shape="line", n_switches=n_switches,
                        calibration=calibration)


def fanin_scenario(n_sources: int,
                   calibration: str = "default") -> ScenarioSpec:
    """k source hosts converging through one switch onto one egress."""
    return ScenarioSpec(shape="fanin", n_sources=n_sources,
                        calibration=calibration)


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a CLI scenario string: ``single``, ``line:4``, ``fanin:3``."""
    shape, _, arg = text.strip().partition(":")
    shape = shape.strip().lower()
    if shape == "single":
        if arg:
            raise ValueError(f"'single' takes no size, got {text!r}")
        return single_scenario()
    if shape in ("line", "fanin"):
        if not arg:
            raise ValueError(
                f"{shape!r} needs a size, e.g. '{shape}:3' (got {text!r})")
        try:
            size = int(arg)
        except ValueError:
            raise ValueError(
                f"scenario size must be an integer, got {text!r}") from None
        return (line_scenario(size) if shape == "line"
                else fanin_scenario(size))
    raise ValueError(f"unknown scenario {text!r}; expected 'single', "
                     f"'line:N' or 'fanin:K'")
