"""Scenario layer: declarative, topology-agnostic experiment testbeds.

A :class:`ScenarioSpec` names *what* to build (shape, size, calibration,
per-switch overrides); one wiring function, :func:`build_scenario`,
knows *how* for every shape: K sources → s1 → … → sN → host2 under one
shared controller.  It returns the same :class:`Testbed` protocol for
every shape, so the runner, the parallel engine, the result cache, the
observers and the CLI are all topology-agnostic.

Shipped shapes: ``single`` (the paper's Fig. 1 testbed, 1×1, the
default), ``line:N`` (an N-switch path, N×1) and ``fanin:K`` (K source
hosts converging through one switch, 1×K).

A spec may also carry a :class:`~repro.bufferpool.PoolSpec`
(``spec.with_pool(...)``): the wiring then connects every switch's buffer
to one :class:`~repro.bufferpool.SharedBufferPool` and the testbed
exposes it as ``testbed.pool``.
"""

from ..engine.spec import HYBRID, PACKET, EngineSpec, parse_engine
from .builders import (PORT_HOST1, PORT_HOST2, build_scenario,
                       build_testbed, shard_workload)
from .spec import (SHAPES, SINGLE, ScenarioSpec, fanin_scenario,
                   line_scenario, parse_scenario, single_scenario)
from .testbed import Testbed

__all__ = [
    "ScenarioSpec", "SHAPES", "SINGLE", "single_scenario", "line_scenario",
    "fanin_scenario", "parse_scenario",
    "EngineSpec", "PACKET", "HYBRID", "parse_engine",
    "Testbed",
    "build_scenario", "build_testbed", "shard_workload",
    "PORT_HOST1", "PORT_HOST2",
]
