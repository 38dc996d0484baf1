"""Closed forms for the table-hit data path (the hybrid fast path).

Once a flow's rules are installed path-wide, a packet's journey is pure
dataplane forwarding: per link a store-and-forward transmission plus
propagation, per switch a datapath lookup plus egress handling.  The
hybrid engine (:mod:`repro.engine.hybrid`) advances such packets
analytically with two numbers:

* :func:`hit_path_latency` — the unloaded latency of one packet from
  the source host's NIC to egress at the *last* switch (where the
  discrete simulator stamps ``packet_egress``).
* :func:`hit_path_spacing` — the minimum sustainable inter-departure
  time of back-to-back packets: the **finite-rate link occupancy**
  extension over the pure M/M/1 node of :mod:`repro.analytic.mm1`.  A
  100 Mbps link cannot carry 1000-byte frames closer than 80 µs apart
  no matter how idle every queue is, and a switch CPU cannot look up
  packets faster than its per-packet datapath cost.

The egress time of the k-th packet of a train sent at times ``t_k``
then follows the Lindley-style recurrence::

    e_k = max(t_k + L, e_{k-1} + S)

(:func:`train_last_egress`; closed form for arithmetic trains in
:func:`arithmetic_last_egress`).  Like :mod:`~repro.analytic.mm1`,
everything here is plain arithmetic over duck-typed calibration reads —
no simulation imports, so the model can never perturb a run.
"""

from __future__ import annotations

from typing import Iterable


def transmission_time(wire_len: int, link_rate_bps: float) -> float:
    """Store-and-forward serialization time of one frame on one link."""
    if link_rate_bps <= 0:
        raise ValueError(
            f"link_rate_bps must be > 0, got {link_rate_bps!r}")
    if wire_len < 0:
        raise ValueError(f"wire_len must be >= 0, got {wire_len!r}")
    return wire_len * 8.0 / link_rate_bps


def hit_path_latency(calibration, n_switches: int, wire_len: int) -> float:
    """Unloaded source-NIC → last-switch-egress latency of one packet.

    Counts one data link (transmission + propagation) *into* each switch
    and one datapath traversal (lookup + egress handling) *through* each
    switch; the final link to the sink host lies beyond the egress stamp
    and is deliberately excluded.
    """
    if n_switches < 1:
        raise ValueError(f"need at least one switch, got {n_switches}")
    return n_switches * _hop_time(calibration, wire_len)


def hit_path_lookup_leads(calibration, n_switches: int,
                          wire_len: int) -> list:
    """How long before its last-switch egress each switch looks a packet up.

    The unloaded path of :func:`hit_path_latency`: the last switch's
    lookup precedes the egress stamp by its egress handling, and each
    switch before it looks the packet up one hop earlier still.
    """
    hop = _hop_time(calibration, wire_len)
    egress = calibration.switch.egress_cost_per_packet
    return [egress + (n_switches - 1 - index) * hop
            for index in range(n_switches)]


def _hop_time(calibration, wire_len: int) -> float:
    """One data link into a switch plus one datapath traversal of it."""
    switch = calibration.switch
    tx = transmission_time(wire_len, calibration.data_link_rate_bps)
    return (tx + calibration.link_propagation_delay
            + switch.dp_cost_per_packet + switch.egress_cost_per_packet)


def hit_path_spacing(calibration, wire_len: int) -> float:
    """Minimum sustainable packet spacing on the hit path (seconds).

    The finite-rate occupancy bound: the tighter of the data link's
    serialization time and the switch CPU's per-packet pipeline cost.
    A train offered faster than this queues; the recurrence in
    :func:`train_last_egress` makes the backlog explicit.
    """
    switch = calibration.switch
    tx = transmission_time(wire_len, calibration.data_link_rate_bps)
    return max(tx, switch.dp_cost_per_packet + switch.egress_cost_per_packet)


def train_last_egress(times: Iterable[float], latency: float,
                      spacing: float, prev_egress: float) -> float:
    """Last-switch egress time of the last packet of an explicit train.

    ``times`` are absolute send times in ascending order;
    ``prev_egress`` seeds the recurrence with the egress time of the
    packet that opened the flow (the head of the line the train queues
    behind).
    """
    egress = prev_egress
    for t in times:
        candidate = t + latency
        backlog = egress + spacing
        egress = candidate if candidate > backlog else backlog
    return egress


def arithmetic_last_egress(first: float, gap: float, count: int,
                           latency: float, spacing: float,
                           prev_egress: float) -> float:
    """Closed form of :func:`train_last_egress` for arithmetic trains.

    For sends at ``first + k·gap`` (k = 0..count-1) the recurrence
    ``e_k = max(t_k + L, e_{k-1} + S)`` is maximized at one of its
    endpoints, giving O(1) instead of O(count)::

        e_last = max(t_last + L,  first + L + (count-1)·S,
                     prev_egress + count·S)
    """
    if count <= 0:
        return prev_egress
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap!r}")
    last = first + (count - 1) * gap
    return max(last + latency,
               first + latency + (count - 1) * spacing,
               prev_egress + count * spacing)
