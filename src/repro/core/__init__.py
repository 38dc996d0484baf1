"""The paper's contribution: SDN switch buffer mechanisms.

* :class:`NoBuffer`, :class:`PacketGranularityBuffer` — the OpenFlow
  baseline behaviours analysed in §IV.
* :class:`FlowGranularityBuffer` — the proposed mechanism (§V,
  Algorithms 1–2).
* :class:`BufferConfig` / :func:`create_mechanism` — declarative
  configuration used by the experiment harness.
* :mod:`analysis <repro.core.analysis>` — benefit summaries (the headline
  percentages quoted in the paper's abstract).
"""

from .analysis import (HeadlineClaim, build_headline_claims, crossover_rate,
                       percent_increase, percent_reduction)
from .config import (MECHANISM_FLOW, MECHANISM_NO_BUFFER, MECHANISM_PACKET,
                     BufferConfig, buffer_16, buffer_256, create_mechanism,
                     flow_buffer_256, no_buffer)
from .mechanisms import (BufferMechanism, FlowGranularityBuffer,
                         MissDecision, NoBuffer, PacketGranularityBuffer,
                         ReleaseResult)
from .ops import NO_OPS, BufferOps

__all__ = [
    "BufferConfig", "create_mechanism",
    "MECHANISM_NO_BUFFER", "MECHANISM_PACKET", "MECHANISM_FLOW",
    "no_buffer", "buffer_16", "buffer_256", "flow_buffer_256",
    "BufferMechanism", "NoBuffer", "PacketGranularityBuffer",
    "FlowGranularityBuffer", "MissDecision", "ReleaseResult",
    "BufferOps", "NO_OPS",
    "HeadlineClaim", "build_headline_claims", "crossover_rate",
    "percent_increase", "percent_reduction",
]
