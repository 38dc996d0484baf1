"""Tests for the flow table: lookup, timeouts, eviction."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.openflow import FlowEntry, FlowTable, Match, OutputAction
from repro.openflow.flowtable import _exact_key_from_match
from repro.packets import udp_packet


def _packet(i=0):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.{i // 256}.{i % 256}", "10.0.0.2", 1000 + i, 2000)


def _exact_entry(packet, in_port=1, **kwargs):
    return FlowEntry(match=Match.exact_from_packet(packet, in_port=in_port),
                     actions=(OutputAction(2),), **kwargs)


@pytest.mark.parametrize("in_port", [1, 7])
def test_exact_key_of_a_match_is_the_packets_key(in_port):
    packet = _packet(3)
    match = Match.exact_from_packet(packet, in_port=in_port)
    assert _exact_key_from_match(match) == packet.exact_key(in_port)


@pytest.mark.parametrize("wildcard", [f.name for f in fields(Match)])
def test_any_wildcarded_field_gives_no_exact_key(wildcard):
    match = Match.exact_from_packet(_packet(3), in_port=1)
    assert _exact_key_from_match(match) is not None
    assert _exact_key_from_match(replace(match, **{wildcard: None})) is None


def test_lookup_miss_on_empty_table():
    table = FlowTable()
    assert table.lookup(_packet(), in_port=1, now=0.0) is None
    assert table.miss_count == 1


def test_exact_insert_and_hit():
    table = FlowTable()
    packet = _packet()
    table.insert(_exact_entry(packet), now=0.0)
    entry = table.lookup(packet, in_port=1, now=1.0)
    assert entry is not None
    assert entry.packet_count == 1
    assert entry.byte_count == packet.wire_len
    assert entry.last_used == 1.0


def test_hit_requires_matching_in_port():
    table = FlowTable()
    packet = _packet()
    table.insert(_exact_entry(packet, in_port=1), now=0.0)
    assert table.lookup(packet, in_port=2, now=1.0) is None


def test_wildcard_entry_matches():
    table = FlowTable()
    table.insert(FlowEntry(match=Match(ip_dst="10.0.0.2"),
                           actions=(OutputAction(2),)), now=0.0)
    assert table.lookup(_packet(5), in_port=9, now=1.0) is not None


def test_higher_priority_wildcard_beats_lower():
    table = FlowTable()
    low = FlowEntry(match=Match(ip_dst="10.0.0.2"),
                    actions=(OutputAction(1),), priority=10)
    high = FlowEntry(match=Match(tp_dst=2000),
                     actions=(OutputAction(2),), priority=20)
    table.insert(low, now=0.0)
    table.insert(high, now=0.0)
    entry = table.lookup(_packet(), in_port=1, now=1.0)
    assert entry is high


def test_exact_entry_and_higher_priority_wildcard():
    table = FlowTable()
    packet = _packet()
    exact = _exact_entry(packet, priority=10)
    wildcard = FlowEntry(match=Match(), actions=(OutputAction(9),),
                         priority=100)
    table.insert(exact, now=0.0)
    table.insert(wildcard, now=0.0)
    assert table.lookup(packet, in_port=1, now=1.0) is wildcard


def test_idle_timeout_expires_entry():
    table = FlowTable()
    packet = _packet()
    table.insert(_exact_entry(packet, idle_timeout=5.0), now=0.0)
    assert table.lookup(packet, in_port=1, now=4.0) is not None
    # Last use at t=4; idle expires at t=9.
    assert table.lookup(packet, in_port=1, now=9.5) is None


def test_hard_timeout_expires_despite_use():
    table = FlowTable()
    packet = _packet()
    table.insert(_exact_entry(packet, hard_timeout=10.0), now=0.0)
    assert table.lookup(packet, in_port=1, now=9.0) is not None
    assert table.lookup(packet, in_port=1, now=10.5) is None


def test_zero_timeouts_never_expire():
    table = FlowTable()
    packet = _packet()
    table.insert(_exact_entry(packet), now=0.0)
    assert table.lookup(packet, in_port=1, now=1e9) is not None


def test_expire_sweep_returns_expired_entries():
    table = FlowTable()
    table.insert(_exact_entry(_packet(1), hard_timeout=1.0), now=0.0)
    table.insert(_exact_entry(_packet(2), hard_timeout=100.0), now=0.0)
    expired = table.expire(now=50.0)
    assert len(expired) == 1
    assert len(table) == 1


def test_reinsert_same_match_replaces():
    table = FlowTable(capacity=10)
    packet = _packet()
    table.insert(_exact_entry(packet), now=0.0)
    replacement = _exact_entry(packet)
    evicted = table.insert(replacement, now=1.0)
    assert evicted is None
    assert len(table) == 1


def test_lru_eviction_at_capacity():
    table = FlowTable(capacity=2, eviction="lru")
    p1, p2, p3 = _packet(1), _packet(2), _packet(3)
    table.insert(_exact_entry(p1), now=0.0)
    table.insert(_exact_entry(p2), now=1.0)
    table.lookup(p1, in_port=1, now=2.0)   # p1 is now most recently used
    evicted = table.insert(_exact_entry(p3), now=3.0)
    assert evicted is not None
    assert table.lookup(p2, in_port=1, now=4.0) is None   # p2 was evicted
    assert table.lookup(p1, in_port=1, now=4.0) is not None
    assert table.evictions == 1


def test_fifo_eviction_ignores_recency():
    table = FlowTable(capacity=2, eviction="fifo")
    p1, p2, p3 = _packet(1), _packet(2), _packet(3)
    table.insert(_exact_entry(p1), now=0.0)
    table.insert(_exact_entry(p2), now=1.0)
    table.lookup(p1, in_port=1, now=2.0)
    table.insert(_exact_entry(p3), now=3.0)
    assert table.lookup(p1, in_port=1, now=4.0) is None   # oldest evicted


def _scan_victim(table):
    """The full-table scan the eviction heap replaced: the exact entry
    with the least (last_used | installed_at, entry_id)."""
    score = "last_used" if table.eviction == "lru" else "installed_at"
    return min((e for e in table.entries() if e.match.wildcard_count == 0),
               key=lambda e: (getattr(e, score), e.entry_id))


def test_lru_tie_on_last_used_evicts_the_lowest_entry_id():
    table = FlowTable(capacity=3)
    p1, p2, p3, p4, p5 = (_packet(i) for i in range(1, 6))
    e1, e2, e3 = (_exact_entry(p) for p in (p1, p2, p3))
    for entry in (e1, e2, e3):
        table.insert(entry, now=0.0)
    # p2 is hit before p1 at the same instant; hit order must not matter.
    table.lookup(p2, in_port=1, now=1.0)
    table.lookup(p1, in_port=1, now=1.0)
    assert table.insert(_exact_entry(p4), now=1.0) is e3
    # e1, e2 and the new entry were all last used at t=1.
    assert table.insert(_exact_entry(p5), now=1.0) is e1


def test_victim_after_stale_heap_items():
    # A hit, a DELETE, an expiry and an exact replacement each leave a
    # heap item whose entry is gone or whose score fell behind, and a
    # clear leaves only such items; the victim must still be the one
    # the full scan picks.
    table = FlowTable(capacity=4)
    packets = [_packet(i) for i in range(10)]
    a, b, c, d = (_exact_entry(packets[i]) for i in range(4))
    for entry in (a, b, c, d):
        table.insert(entry, now=0.0)
    idle = _exact_entry(packets[4], idle_timeout=1.5)
    assert table.insert(idle, now=1.0) is a
    assert table.remove(c.match) == 1
    new_c = _exact_entry(packets[2])
    table.insert(new_c, now=2.0)
    table.lookup(packets[1], in_port=1, now=3.0)         # b: 0 -> 3
    assert table.insert(_exact_entry(packets[3]), now=3.0) is None
    assert table.expire(now=3.0) == [idle]
    table.insert(_exact_entry(packets[5]), now=3.0)
    # b's item still says 0, but new_c is the least recently used.
    assert _scan_victim(table) is new_c
    assert table.insert(_exact_entry(packets[6]), now=4.0) is new_c

    table.clear()
    refill = [_exact_entry(packets[i]) for i in range(4)]
    for entry in refill:
        table.insert(entry, now=5.0)
    table.lookup(packets[0], in_port=1, now=6.0)
    assert _scan_victim(table) is refill[1]
    assert table.insert(_exact_entry(packets[9]), now=6.0) is refill[1]


def test_only_a_full_table_holds_the_eviction_heap():
    table = FlowTable(capacity=8)
    packets = [_packet(i) for i in range(40)]
    for i in range(8):
        table.insert(_exact_entry(packets[i]), now=float(i))
    assert table._heap is None
    table.insert(_exact_entry(packets[8]), now=8.0)
    assert len(table._heap) == 8
    # Deleting most rules leaves their items stale; the next insert
    # drops the mostly stale heap, and the next eviction rebuilds it.
    for i in range(1, 8):
        table.remove(_exact_entry(packets[i]).match)
    table.insert(_exact_entry(packets[20]), now=20.0)
    assert table._heap is None
    for i in range(21, 27):
        table.insert(_exact_entry(packets[i]), now=float(i))
    evicted = table.insert(_exact_entry(packets[30]), now=30.0)
    assert evicted.match == _exact_entry(packets[8]).match
    assert len(table._heap) == 8


def test_every_expiry_path_reports_to_the_listener():
    reported = []
    table = FlowTable(on_expire=lambda now, entry: reported.append(
        (now, entry)))
    packet = _packet(1)
    lazy = _exact_entry(packet, idle_timeout=0.2, send_flow_removed=True)
    table.insert(lazy, now=0.0)
    assert table.lookup(packet, in_port=1, now=0.25) is None
    assert table.expire(now=0.3) == []
    wildcard = FlowEntry(match=Match(ip_dst="10.9.9.9"),
                         actions=(OutputAction(2),), hard_timeout=1.0)
    table.insert(wildcard, now=0.3)
    # A miss still sweeps the dead wildcards it walks past.
    assert table.lookup(_packet(2), in_port=1, now=1.5) is None
    swept = _exact_entry(_packet(3), idle_timeout=0.1)
    table.insert(swept, now=1.5)
    # A DELETE sweeps dead rules before it deletes.
    assert table.remove(Match(ip_src="10.99.0.1"), now=2.0) == 0
    assert reported == [(0.25, lazy), (1.5, wildcard), (2.0, swept)]
    assert table.expirations == 3


def test_remove_covered_entries():
    table = FlowTable()
    table.insert(_exact_entry(_packet(1)), now=0.0)
    table.insert(_exact_entry(_packet(2)), now=0.0)
    removed = table.remove(Match(ip_dst="10.0.0.2"))
    assert removed == 2
    assert len(table) == 0


def test_remove_strict_requires_identical_match_and_priority():
    table = FlowTable()
    packet = _packet()
    entry = _exact_entry(packet, priority=7)
    table.insert(entry, now=0.0)
    assert table.remove(entry.match, strict_priority=8) == 0
    assert table.remove(entry.match, strict_priority=7) == 1


def test_invalid_construction():
    with pytest.raises(ValueError):
        FlowTable(capacity=0)
    with pytest.raises(ValueError):
        FlowTable(eviction="random")


def test_clear_empties_table():
    table = FlowTable()
    table.insert(_exact_entry(_packet(1)), now=0.0)
    table.clear()
    assert len(table) == 0


def test_entries_lists_all():
    table = FlowTable()
    table.insert(_exact_entry(_packet(1)), now=0.0)
    table.insert(FlowEntry(match=Match(), actions=(OutputAction(1),)),
                 now=0.0)
    assert len(table.entries()) == 2


def test_wildcard_replacement_keeps_tiebreak_rank():
    # Re-installing an identical wildcard match+priority replaces the
    # entry in place; it must keep the original entry's rank so the
    # winner of an equal-priority tie never changes as a side effect —
    # not even after a later insert forces a re-sort.
    table = FlowTable()
    packet = _packet()
    first = Match(ip_src=packet.ip.src_ip)
    second = Match(in_port=1)
    table.insert(FlowEntry(match=first, actions=(OutputAction(2),),
                           priority=1), now=0.0)
    table.insert(FlowEntry(match=second, actions=(OutputAction(2),),
                           priority=1), now=0.0)
    assert table.lookup(packet, in_port=1, now=0.0).match == first
    # Replace the first entry, then insert an unrelated rule (re-sort).
    table.insert(FlowEntry(match=first, actions=(OutputAction(3),),
                           priority=1), now=1.0)
    table.insert(FlowEntry(match=Match(tp_dst=9), actions=(OutputAction(2),),
                           priority=1), now=1.0)
    winner = table.lookup(packet, in_port=1, now=1.0)
    assert winner.match == first
    assert winner.actions == (OutputAction(3),)


# ----------------------------------------------------------------------
# The deadline index behind expire() (DESIGN.md §22)
# ----------------------------------------------------------------------

def test_sweep_expires_a_rule_whose_rounded_deadline_lies_past_now():
    # now - last_used rounds to exactly 5.0, so the scan expires the
    # rule, while last_used + 5.0 rounds to one ulp past now: an index
    # that popped only keys <= now would keep it alive.
    last_used, now = 1.7230766406148734, 6.723076640614873
    assert now - last_used == 5.0 and last_used + 5.0 > now
    table = FlowTable()
    entry = _exact_entry(_packet(), idle_timeout=5.0)
    table.insert(entry, now=last_used)
    assert table.expire(now=now) == [entry]
    assert len(table) == 0


def test_sweep_keeps_a_rule_whose_rounded_deadline_is_now():
    # The opposite rounding: last_used + 5.0 lands exactly on now, yet
    # now - last_used < 5.0, so the rule is alive and is_expired must
    # decide.  The sweep keeps it, terminates, and a later one expires it.
    last_used = 4.494910647887381
    now = last_used + 5.0
    assert now - last_used < 5.0
    table = FlowTable()
    entry = _exact_entry(_packet(), idle_timeout=5.0)
    table.insert(entry, now=last_used)
    assert table.expire(now=now) == []
    assert table.expire(now=now) == []
    assert len(table) == 1
    assert table.expire(now=now + 0.1) == [entry]


def test_sweep_reports_in_key_order_after_a_replacement():
    # b is due before a's replacement and has the lower entry_id, but
    # the replacement keeps a's key position, so a full scan reports it
    # first — and so must the index.
    reported = []
    table = FlowTable(on_expire=lambda now, entry: reported.append(entry))
    primer = _exact_entry(_packet(0), idle_timeout=0.5)
    a = _exact_entry(_packet(1), idle_timeout=5.0)
    b = _exact_entry(_packet(2), idle_timeout=5.0)
    table.insert(primer, now=0.0)
    table.insert(a, now=0.0)
    table.insert(b, now=1.0)
    assert table.expire(now=1.0) == [primer]        # builds the index
    replacement = _exact_entry(_packet(1), idle_timeout=5.0)
    table.insert(replacement, now=2.0)
    assert b.entry_id < replacement.entry_id
    assert table.expire(now=7.0) == [replacement, b]
    assert reported == [primer, replacement, b]


def test_sweep_examines_only_due_and_stale_entries(monkeypatch):
    # 1000 live rules: 10 due, 2 more whose items went stale when a hit
    # refreshed them after the index was built.  The sweep must call
    # is_expired on those 12 items only (a full scan calls it 1000
    # times) and expire the 10 that are due.
    calls = []
    original = FlowEntry.is_expired

    def counted(entry, now):
        calls.append(entry)
        return original(entry, now)

    table = FlowTable(capacity=2000)
    packets = [_packet(i) for i in range(1001)]
    table.insert(_exact_entry(packets[1000], idle_timeout=0.5), now=0.0)
    assert len(table.expire(now=0.5)) == 1          # builds the index
    early = [_exact_entry(packets[i], idle_timeout=5.0) for i in range(12)]
    for entry in early:
        table.insert(entry, now=0.5)
    for packet in packets[12:1000]:
        table.insert(_exact_entry(packet, idle_timeout=5.0), now=1.0)
    table.lookup(packets[0], in_port=1, now=2.0)
    table.lookup(packets[1], in_port=1, now=2.0)
    monkeypatch.setattr(FlowEntry, "is_expired", counted)
    assert table.expire(now=5.5) == early[2:]
    assert sorted(e.entry_id for e in calls) == sorted(
        e.entry_id for e in early)
    assert len(table) == 990


def test_tables_hold_no_deadline_index_until_a_rule_could_be_due():
    table = FlowTable()
    table.insert(_exact_entry(_packet(1), idle_timeout=5.0), now=0.0)
    table.insert(_exact_entry(_packet(2), hard_timeout=3.0), now=1.0)
    table.insert(_exact_entry(_packet(3)), now=1.0)     # never expires
    for tick in range(1, 40):
        assert table.expire(now=tick / 10) == []
    assert table._deadlines is None
    assert table.expire(now=4.0)[0].hard_timeout == 3.0
    assert len(table._deadlines) == 1


def test_mostly_stale_deadline_index_is_dropped_and_rebuilt():
    table = FlowTable()
    packets = [_packet(i) for i in range(4)]
    table.insert(_exact_entry(packets[0], idle_timeout=1.0), now=0.0)
    assert len(table.expire(now=1.0)) == 1          # builds the index
    for packet in packets[1:3]:
        table.insert(_exact_entry(packet, idle_timeout=1.0), now=1.0)
        table.remove(_exact_entry(packet).match)
    assert len(table._deadlines) == 2               # both stale
    last = _exact_entry(packets[3], idle_timeout=1.0)
    table.insert(last, now=1.5)
    # Three items for one live rule: the index is dropped, and its least
    # key (2.0) bounds every live deadline until the rebuild.
    assert table._deadlines is None
    assert table.expire(now=1.9) == []
    assert table._deadlines is None
    assert table.expire(now=2.5) == [last]
    assert table._deadlines == []


def test_credit_never_moves_last_used_backwards():
    table = FlowTable()
    packet = _packet()
    entry = _exact_entry(packet, idle_timeout=5.0)
    table.insert(entry, now=0.0)
    entry.credit(10, 10_000, last_used=3.0)
    assert table.lookup(packet, in_port=1, now=1.0) is entry
    assert entry.last_used == 3.0
    assert (entry.packet_count, entry.byte_count) == (
        11, 10_000 + packet.wire_len)
    assert table.expire(now=7.9) == []
    assert table.expire(now=8.0) == [entry]


def test_find_has_no_side_effects():
    table = FlowTable()
    packet = _packet()
    exact = _exact_entry(packet, idle_timeout=1.0, priority=5)
    wildcard = FlowEntry(match=Match(ip_dst="10.0.0.2"),
                         actions=(OutputAction(2),), priority=9)
    table.insert(exact, now=0.0)
    table.insert(wildcard, now=0.0)
    assert table.find(packet, in_port=1, now=0.5) is wildcard
    table.remove(wildcard.match, strict_priority=9)
    assert table.find(packet, in_port=1, now=0.5) is exact
    assert table.find(packet, in_port=1, now=2.0) is None  # dead, unswept
    assert (table.lookups, table.hits, table.expirations, len(table)) \
        == (0, 0, 0, 1)
    assert exact.last_used == 0.0
