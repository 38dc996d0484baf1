"""The shard wire: pickled per-destination batches, cut-through relay, stats.

A cross-shard message is a ``(deliver_time, cut_index, per_link_seq,
item)`` tuple (:data:`~repro.shard.seam.ShardMessage`).  A worker groups
what it sent in one round by destination shard and pickles each group
once, into a *batch*; its reply carries one ``(dst, delivery_times,
blob)`` triple per destination.  The coordinator routes each blob to its
destination as opaque bytes — cut-through relay: it never unpickles an
item — and keeps the delivery times, which are all its horizons,
coalescing and deadline cut read.  Every message therefore costs two
codec operations, one ``pickle.dumps`` and one ``pickle.loads``, both in
the workers.

A batch can hold messages on both sides of a ``run_until`` deadline, and
the coordinator cannot split a blob it never opens.  So each advance
carries its deadline, and the receiving channel holds back the messages
past it until an advance whose deadline covers them: every message is
injected at the same advance as if it had travelled alone.

Rounds ride a :class:`ShardChannel` over anything with ``send_bytes``
and ``recv_bytes``: a duplex pipe to a forked worker, or the two ends of
a :func:`loopback_pair` when the shard runs in the coordinator's own
process, so inline runs go through the very code a fork run does.  Every
message on a channel is one pickled tuple.  Advance and reply are the
hot path and the only traffic :class:`TransportStats` counts and times;
the cold-path control messages (ready, collect, state, stop, error) are
a handful per run.

The wire is an execution detail and stays out of the result cache's
key: :meth:`repro.shard.spec.ShardSpec.cache_token` does not mention it.
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from .seam import ShardMessage

#: One destination's share of a round: ``(dst shard, delivery times,
#: pickled list of its messages)``.
Batch = Tuple[int, List[float], bytes]


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _pack_batches(groups: Sequence[Tuple[int, List[ShardMessage]]]
                 ) -> List[Batch]:
    """Pickle each destination's messages once, keeping their times."""
    return [(dst, [message[0] for message in messages], _dumps(messages))
            for dst, messages in groups]


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class TransportStats:
    """Hot-path accounting for one channel side (advance/reply only)."""

    frames_out: int = 0
    frames_in: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    encode_seconds: float = 0.0
    decode_seconds: float = 0.0

    def merge(self, other) -> None:
        values = other if isinstance(other, dict) else asdict(other)
        self.frames_out += values["frames_out"]
        self.frames_in += values["frames_in"]
        self.bytes_out += values["bytes_out"]
        self.bytes_in += values["bytes_in"]
        self.encode_seconds += values["encode_seconds"]
        self.decode_seconds += values["decode_seconds"]

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# The channel and its in-process carrier
# ---------------------------------------------------------------------------

class Loopback:
    """One end of an in-process duplex byte pipe (see :func:`loopback_pair`).

    ``send_bytes`` queues onto the peer's inbox and ``recv_bytes`` pops
    this end's own, first in first out: the two calls a
    :class:`ShardChannel` makes of a ``multiprocessing`` connection.
    The protocol is strict request/reply, so a receive always finds the
    message its peer sent just before.
    """

    __slots__ = ("_inbox", "_outbox")

    def __init__(self, inbox: deque, outbox: deque) -> None:
        self._inbox = inbox
        self._outbox = outbox

    def send_bytes(self, data: bytes) -> None:
        self._outbox.append(data)

    def recv_bytes(self) -> bytes:
        return self._inbox.popleft()


def loopback_pair() -> Tuple[Loopback, Loopback]:
    """Two joined :class:`Loopback` ends: what one sends, the other gets."""
    forward, backward = deque(), deque()
    return Loopback(backward, forward), Loopback(forward, backward)


class ShardChannel:
    """One end of the coordinator↔worker wire.

    The coordinator's end sends advances (``t_end``, deadline, the
    routed blobs, inclusive flag) and receives replies with their
    batches still pickled.  A worker's end receives an advance as
    ``("advance", t_end, messages, inclusive)`` — the messages due by
    the deadline, unpickled — and replies with its outbox grouped by
    destination (:meth:`ShardContext.take_outbox
    <repro.shard.seam.ShardContext.take_outbox>`).
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.stats = TransportStats()
        #: Worker end: shipped messages whose delivery lies past the
        #: deadline of the advance that carried them.
        self._held: List[ShardMessage] = []

    # -- sending --------------------------------------------------------
    def send_control(self, obj) -> None:
        self.conn.send_bytes(_dumps(obj))

    def send_ready(self, next_time: float, groups) -> None:
        """Announce a built shard, with the messages its adoption sent."""
        self.send_control(("ready", (next_time, _pack_batches(groups))))

    def send_advance(self, t_end: float, deadline: float,
                     blobs: List[bytes], inclusive: bool) -> None:
        start = perf_counter()
        self._ship(_dumps(("advance", t_end, deadline, blobs, inclusive)),
                   start)

    def send_reply(self, groups, next_time: float,
                   completed: Optional[int]) -> None:
        start = perf_counter()
        self._ship(_dumps(("advanced", (_pack_batches(groups), next_time,
                                        completed))), start)

    def _ship(self, data: bytes, start: float) -> None:
        stats = self.stats
        stats.encode_seconds += perf_counter() - start
        stats.frames_out += 1
        stats.bytes_out += len(data)
        self.conn.send_bytes(data)

    # -- receiving ------------------------------------------------------
    def recv(self):
        data = self.conn.recv_bytes()
        start = perf_counter()
        message = pickle.loads(data)
        tag = message[0]
        if tag == "advance":
            _tag, t_end, deadline, blobs, inclusive = message
            message = ("advance", t_end, self._release(deadline, blobs),
                       inclusive)
        elif tag != "advanced":
            return message
        stats = self.stats
        stats.decode_seconds += perf_counter() - start
        stats.frames_in += 1
        stats.bytes_in += len(data)
        return message

    def _release(self, deadline: float,
                 blobs: List[bytes]) -> List[ShardMessage]:
        """Unpickle ``blobs``; return every held message due by
        ``deadline`` and keep holding the rest."""
        held = self._held
        for blob in blobs:
            held.extend(pickle.loads(blob))
        self._held = [message for message in held if message[0] > deadline]
        return [message for message in held if message[0] <= deadline]
