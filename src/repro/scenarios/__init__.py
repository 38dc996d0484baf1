"""Scenario layer: declarative, topology-agnostic experiment testbeds.

A :class:`ScenarioSpec` names *what* to build (shape, size, calibration,
per-switch overrides); one builder per shape knows *how*.  Every builder
returns the same :class:`Testbed` protocol, so the runner, the parallel
engine, the result cache, the observers and the CLI are all
topology-agnostic.

Shipped shapes: ``single`` (the paper's Fig. 1 testbed, the default),
``line:N`` (an N-switch path, one shared controller) and ``fanin:K``
(K source hosts converging through one switch).

A spec may also carry a :class:`~repro.bufferpool.PoolSpec`
(``spec.with_pool(...)``): the builder then wires every switch's buffer
to one :class:`~repro.bufferpool.SharedBufferPool` and the testbed
exposes it as ``testbed.pool``.
"""

from ..engine.spec import HYBRID, PACKET, EngineSpec, parse_engine
from .builders import (PORT_HOST1, PORT_HOST2, PORT_TOWARD_HOST1,
                       PORT_TOWARD_HOST2, build_scenario, build_testbed,
                       shard_workload)
from .spec import (SHAPES, SINGLE, ScenarioSpec, fanin_scenario,
                   line_scenario, parse_scenario, single_scenario)
from .testbed import Testbed

__all__ = [
    "ScenarioSpec", "SHAPES", "SINGLE", "single_scenario", "line_scenario",
    "fanin_scenario", "parse_scenario",
    "EngineSpec", "PACKET", "HYBRID", "parse_engine",
    "Testbed",
    "build_scenario", "build_testbed", "shard_workload",
    "PORT_HOST1", "PORT_HOST2", "PORT_TOWARD_HOST1", "PORT_TOWARD_HOST2",
]
