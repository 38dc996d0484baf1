"""repro — reproduction of "Adopting SDN Switch Buffer: Benefits Analysis
and Mechanism Design" (ICDCS 2017; journal version IEEE TCC 2021).

The package layers, bottom-up:

* :mod:`repro.simkit` — discrete-event simulation kernel.
* :mod:`repro.packets` — packet/header models with wire-accurate sizes.
* :mod:`repro.openflow` — OpenFlow messages, flow tables, packet buffer.
* :mod:`repro.netsim` — hosts, links, topology.
* :mod:`repro.switchsim` / :mod:`repro.controllersim` — the OVS-like
  switch and Floodlight-like controller of the paper's testbed.
* :mod:`repro.trafficgen` — pktgen-style workloads.
* :mod:`repro.core` — **the paper's contribution**: the no-buffer /
  packet-granularity / flow-granularity buffer mechanisms and the benefit
  analysis.
* :mod:`repro.metrics` — tcpdump-like captures, CPU samplers, per-flow
  delay tracking.
* :mod:`repro.scenarios` — declarative topology layer: a
  :class:`~repro.scenarios.ScenarioSpec` names a shape (``single``,
  ``line:N``, ``fanin:K``) and one wiring function builds it into a
  common :class:`~repro.scenarios.Testbed`.
* :mod:`repro.bufferpool` — shared dynamic buffer pools: one unit
  budget arbitrated across per-switch/per-port partitions under
  ``static`` / ``dt`` / ``delay`` admission policies.
* :mod:`repro.analytic` — closed-form M/M/1 sanity estimates the
  simulator is bounded against.
* :mod:`repro.experiments` — the harness regenerating every table and
  figure.
* :mod:`repro.parallel` — sweep execution, in-process or multi-core,
  with an on-disk result cache and progress telemetry (bit-identical at
  any worker count).

Quickstart::

    from repro import (buffer_256, no_buffer, run_once,
                       single_packet_flows)
    from repro.simkit import RandomStreams, mbps

    workload = single_packet_flows(mbps(50), n_flows=200,
                                   rng=RandomStreams(1))
    result = run_once(buffer_256(), workload)
    print(result.control_load_up_mbps, result.setup_delay_summary())
"""

from .core import (BufferConfig, BufferMechanism, FlowGranularityBuffer,
                   NoBuffer, PacketGranularityBuffer, buffer_16, buffer_256,
                   create_mechanism, flow_buffer_256, no_buffer)
from .experiments import (FIGURES, build_testbed, run_benefits_experiment,
                          run_mechanism_experiment, run_once, sweep)
from .metrics import RunMetrics
from .parallel import ResultCache, derive_seed
from .scenarios import (ScenarioSpec, build_scenario, fanin_scenario,
                        line_scenario, parse_scenario, single_scenario)
from .trafficgen import batched_multi_packet_flows, single_packet_flows

__version__ = "1.0.0"

__all__ = [
    "BufferConfig", "BufferMechanism", "NoBuffer",
    "PacketGranularityBuffer", "FlowGranularityBuffer",
    "no_buffer", "buffer_16", "buffer_256", "flow_buffer_256",
    "create_mechanism",
    "build_testbed", "run_once", "sweep", "FIGURES",
    "run_benefits_experiment", "run_mechanism_experiment",
    "RunMetrics",
    "derive_seed", "ResultCache",
    "ScenarioSpec", "build_scenario", "parse_scenario",
    "single_scenario", "line_scenario", "fanin_scenario",
    "single_packet_flows", "batched_multi_packet_flows",
    "__version__",
]
