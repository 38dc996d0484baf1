"""Per-switch sharded execution with conservative lookahead.

``repro.shard`` partitions a scenario's event loop at switch boundaries
— each switch partition (and the controller) runs its own
:class:`~repro.simkit.Simulator`, in its own forked worker under the
default transport — synchronized with Chandy–Misra–Bryant-style
conservative horizons derived from the minimum propagation delay on cut
cables.  Results merge bit-identically to serial execution; the verify
mode (:func:`verify_shard_equivalence`, ``repro-sdn-buffer
shard-verify``) asserts exactly that, down to per-component event
ordering.

Entry points:

* :class:`ShardSpec` / :func:`parse_shard` — the value object riding
  :class:`~repro.scenarios.ScenarioSpec` (``--shard per-switch[:N]``);
* :func:`execute_sharded` — one sharded repetition, returning the
  coordination report (rounds, messages, horizon stalls, per-shard
  spans) alongside the metrics; ``run_once`` reaches it transparently
  when the scenario's shard is active, and both end through
  ``run_once``'s own tail.
"""

from .coordinator import (ShardCoordinator, ShardRunReport,
                          ShardRunResult, execute_sharded)
from .partition import CutLink, PartitionPlan, build_partition_plan
from .seam import EventRecorder, ShardContext, first_packet_uids
from .spec import OFF, PER_SWITCH, SHARD_MODES, ShardSpec, parse_shard
from .transport import ShardChannel, TransportStats, loopback_pair
from .verify import (VerifyReport, metrics_fingerprint,
                     verify_shard_equivalence)

__all__ = [
    "OFF", "PER_SWITCH", "SHARD_MODES", "ShardSpec", "parse_shard",
    "ShardChannel", "TransportStats", "loopback_pair",
    "CutLink", "PartitionPlan", "build_partition_plan",
    "EventRecorder", "ShardContext", "first_packet_uids",
    "ShardCoordinator", "ShardRunReport", "ShardRunResult",
    "execute_sharded",
    "VerifyReport", "metrics_fingerprint", "verify_shard_equivalence",
]
