"""Model-based stateful testing of the flow table.

Hypothesis drives random sequences of inserts, lookups, deletes and time
advances against both the real :class:`FlowTable` and a brutally simple
reference model (a list scanned linearly).  Any divergence in lookup
results, sizes, expiry reports or eviction victims is a bug in the
optimized table (its exact-match hash index, lazy expiry, or eviction
heap).  One machine runs without eviction pressure; two more run a
four-rule table under LRU and FIFO, where the model picks every victim
with the full scan the table's heap replaced.

Two more machines hold the sweep's deadline index to the full scan it
replaced (``ScanExpiryTable``): the same operations go to both tables,
and after every step their expiry reports, listener calls, counters and
sizes must be equal, order included.
"""

from __future__ import annotations

import math
import pathlib
import sys
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine,
                                 initialize, invariant, multiple,
                                 precondition, rule)

from repro.openflow import FlowEntry, FlowTable, Match, OutputAction
from repro.packets import udp_packet

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "benchmarks"))

from bench_simkit import ScanExpiryTable  # noqa: E402

#: A tiny universe of addresses so operations collide often.
_IPS = [f"10.0.0.{i}" for i in range(1, 5)]
_PORTS = [1000, 2000]
#: One exact flow: (src, dst, sport, dport, in_port).
_FLOWS = st.tuples(st.sampled_from(_IPS), st.sampled_from(_IPS),
                   st.sampled_from(_PORTS), st.sampled_from(_PORTS),
                   st.sampled_from([1, 2]))


def _packet(src_ip, dst_ip, src_port, dst_port):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      src_ip, dst_ip, src_port, dst_port)


class _ReferenceTable:
    """The obviously-correct model: a list, scanned in full."""

    def __init__(self, capacity, eviction):
        self.capacity = capacity
        self.eviction = eviction
        self.entries = []           # (match, priority, entry_id, state)
        #: Every entry removed because it timed out, in removal order.
        self.expired = []
        self._next_id = 0

    def insert(self, match, priority, now, idle, hard):
        """Install a rule; returns the evicted entry, if any."""
        # Replacement semantics: identical match+priority replaces
        # (exact matches replace on match alone, like the real table).
        # A wildcard replacement keeps the replaced entry's id — its
        # tie-break rank — mirroring the real table's in-place slot
        # reuse; an exact replacement is a new entry with a fresh id.
        exact = match.wildcard_count == 0

        def replaces(existing):
            return existing["match"] == match and (
                exact or existing["priority"] == priority)

        replaced = [e for e in self.entries if replaces(e)]
        if replaced and not exact:
            entry_id = replaced[0]["id"]
        else:
            self._next_id += 1
            entry_id = self._next_id
        evicted = None
        if not replaced and len(self.entries) >= self.capacity:
            evicted = self._evict()
        self.entries = [e for e in self.entries if not replaces(e)]
        self.entries.append({
            "match": match, "priority": priority, "id": entry_id,
            "installed": now, "last_used": now, "idle": idle,
            "hard": hard})
        return evicted

    def _evict(self):
        """The full scan: the least (last_used | installed, id) exact
        entry, or the least (last_used, id) wildcard when no exact entry
        is left."""
        exact = [e for e in self.entries
                 if e["match"].wildcard_count == 0]
        if exact:
            score = "last_used" if self.eviction == "lru" else "installed"
            victim = min(exact, key=lambda e: (e[score], e["id"]))
        else:
            victim = min(self.entries,
                         key=lambda e: (e["last_used"], e["id"]))
        self.entries.remove(victim)
        return victim

    def _alive(self, entry, now):
        if entry["hard"] > 0 and now - entry["installed"] >= entry["hard"]:
            return False
        if entry["idle"] > 0 and now - entry["last_used"] >= entry["idle"]:
            return False
        return True

    def sweep(self, now, examined=lambda entry: True):
        """Remove (and record) the dead entries among ``examined``."""
        keep = []
        for entry in self.entries:
            if examined(entry) and not self._alive(entry, now):
                self.expired.append(entry)
            else:
                keep.append(entry)
        self.entries = keep

    def lookup(self, packet, in_port, now):
        # Expiry is lazy, as in the real table: a lookup removes only the
        # dead rules it examines — the packet's own exact rule and every
        # wildcard — so unswept dead rules still fill the table.
        self.sweep(now, lambda e: (e["match"].wildcard_count > 0
                                   or e["match"].matches(packet, in_port)))
        candidates = [e for e in self.entries
                      if e["match"].matches(packet, in_port)]
        if not candidates:
            return None
        # Tie-break mirrors the real table: higher priority wins; at
        # equal priority an exact entry beats wildcards, then earlier id.
        best = max(candidates,
                   key=lambda e: (e["priority"],
                                  e["match"].wildcard_count == 0,
                                  -e["id"]))
        best["last_used"] = now
        return best

    def remove_covered(self, match, now):
        self.sweep(now)
        removed = [e for e in self.entries if match.covers(e["match"])]
        self.entries = [e for e in self.entries
                        if not match.covers(e["match"])]
        return len(removed)


def _same_rule(real, model):
    """A real entry and a model entry describe the same installed rule."""
    if real is None or model is None:
        return real is None and model is None
    return ((real.match, real.priority, real.installed_at, real.last_used)
            == (model["match"], model["priority"], model["installed"],
                model["last_used"]))


class FlowTableMachine(RuleBasedStateMachine):
    """Random operation sequences, both implementations in lockstep."""

    capacity = 10_000           # no eviction pressure
    eviction = "lru"

    def __init__(self):
        super().__init__()
        self.expired = []
        self.real = FlowTable(
            capacity=self.capacity, eviction=self.eviction,
            on_expire=lambda now, entry: self.expired.append(entry))
        self.model = _ReferenceTable(self.capacity, self.eviction)
        self.now = 0.0

    matches = Bundle("matches")
    exact_flows = Bundle("exact_flows")

    @rule(target=matches,
          src=st.sampled_from(_IPS) | st.none(),
          dst=st.sampled_from(_IPS) | st.none(),
          sport=st.sampled_from(_PORTS) | st.none(),
          dport=st.sampled_from(_PORTS) | st.none(),
          in_port=st.sampled_from([1, 2]) | st.none())
    def make_match(self, src, dst, sport, dport, in_port):
        return Match(in_port=in_port, ip_src=src, ip_dst=dst,
                     tp_src=sport, tp_dst=dport)

    @rule(match=matches, priority=st.integers(1, 5),
          idle=st.sampled_from([0.0, 2.0]),
          hard=st.sampled_from([0.0, 5.0]))
    def insert(self, match, priority, idle, hard):
        entry = FlowEntry(match=match, actions=(OutputAction(2),),
                          priority=priority, idle_timeout=idle,
                          hard_timeout=hard)
        evicted = self.real.insert(entry, now=self.now)
        assert _same_rule(evicted, self.model.insert(
            match, priority, self.now, idle, hard))

    @rule(target=exact_flows,
          src=st.sampled_from(_IPS), dst=st.sampled_from(_IPS),
          sport=st.sampled_from(_PORTS), dport=st.sampled_from(_PORTS),
          in_port=st.sampled_from([1, 2]), priority=st.integers(1, 5),
          idle=st.sampled_from([0.0, 2.0]))
    def insert_exact(self, src, dst, sport, dport, in_port, priority,
                     idle):
        """Fully-exact entries exercise the real table's hash index."""
        match = Match.exact_from_packet(_packet(src, dst, sport, dport),
                                        in_port=in_port)
        entry = FlowEntry(match=match, actions=(OutputAction(2),),
                          priority=priority, idle_timeout=idle)
        evicted = self.real.insert(entry, now=self.now)
        assert _same_rule(evicted, self.model.insert(
            match, priority, self.now, idle, 0.0))
        return (src, dst, sport, dport, in_port)

    @rule(src=st.sampled_from(_IPS), dst=st.sampled_from(_IPS),
          sport=st.sampled_from(_PORTS), dport=st.sampled_from(_PORTS),
          in_port=st.sampled_from([1, 2]))
    def lookup(self, src, dst, sport, dport, in_port):
        packet = _packet(src, dst, sport, dport)
        real_hit = self.real.lookup(packet, in_port, now=self.now)
        model_hit = self.model.lookup(packet, in_port, now=self.now)
        assert (real_hit is None) == (model_hit is None)
        if real_hit is not None:
            # Same winning rule: identical match and priority.
            assert real_hit.priority == model_hit["priority"]
            assert real_hit.match == model_hit["match"]

    @rule(flow=exact_flows)
    def lookup_installed(self, flow):
        """Look up a flow that once got an exact rule: hits (which move
        LRU scores) and lazily found expiries become common, not a
        one-in-128 draw."""
        self.lookup(*flow)

    @rule(flow=exact_flows, priority=st.integers(1, 5),
          idle=st.sampled_from([0.0, 2.0]))
    def reinstall(self, flow, priority, idle):
        """Re-install an exact rule, replacing the live one if any."""
        self.insert_exact(*flow, priority=priority, idle=idle)

    @rule(match=matches)
    def remove_covered(self, match):
        real_removed = self.real.remove(match, now=self.now)
        model_removed = self.model.remove_covered(match, self.now)
        assert real_removed == model_removed

    @rule(delta=st.sampled_from([0.0, 0.5, 1.5, 3.0]))
    def advance_time(self, delta):
        # A zero step keeps more operations on one timestamp, so equal
        # scores reach the eviction's entry_id tie-break.
        self.now += delta

    @rule()
    def sweep(self):
        swept = self.real.expire(self.now)
        before = len(self.model.expired)
        self.model.sweep(self.now)
        assert len(swept) == len(self.model.expired) - before

    @invariant()
    def sizes_agree(self):
        # Both sides expire lazily at the same points, so unswept dead
        # entries count on both.
        assert len(self.real) == len(self.model.entries)

    @invariant()
    def expiries_reported(self):
        # Every entry that timed out reached the listener exactly once,
        # whichever path removed it.
        assert (Counter((e.match, e.priority) for e in self.expired)
                == Counter((e["match"], e["priority"])
                           for e in self.model.expired))
        assert self.real.expirations == len(self.model.expired)


class LruEvictionMachine(FlowTableMachine):
    """A four-rule table: most inserts evict, and every victim must be
    the one the model's full scan picks."""

    capacity = 4

    @initialize(target=FlowTableMachine.exact_flows,
                flows=st.lists(_FLOWS, min_size=capacity + 1,
                               max_size=capacity + 1, unique=True))
    def fill(self, flows):
        """Start past full, so the eviction heap exists from the first
        step and every later hit leaves a stored score behind."""
        for flow in flows:
            self.insert_exact(*flow, priority=1, idle=0.0)
        return multiple(*flows)


class FifoEvictionMachine(LruEvictionMachine):
    eviction = "fifo"


#: Install times at which ``t + 5.0`` rounds past (first) or onto
#: (second) the sweep time where ``is_expired`` flips.
_AWKWARD_STARTS = [1.7230766406148734, 4.494910647887381]


class IndexedSweepMachine(RuleBasedStateMachine):
    """The deadline-indexed sweep against the full scan, in lockstep.

    Every rule is installed as two twins with one ``entry_id`` (one per
    table), so eviction tie-breaks agree and reports compare by id.
    Times start on an awkward float and advance by awkward steps, and
    some sweeps land a few ulps from a rule's deadline, so keys and
    ``is_expired`` disagree by a rounding now and then.
    """

    capacity = 10_000

    def __init__(self):
        super().__init__()
        self.reports = ([], [])
        self.tables = tuple(
            cls(capacity=self.capacity,
                on_expire=lambda now, entry, log=log: log.append(
                    (now, entry.entry_id)))
            for cls, log in ((FlowTable, self.reports[0]),
                             (ScanExpiryTable, self.reports[1])))
        self.now = 0.0

    flows = Bundle("flows")

    @initialize(start=st.sampled_from(_AWKWARD_STARTS), build=st.booleans())
    def prime(self, start, build):
        """Start the clock on a time whose sums round awkwardly, most
        runs with the index already built (a short-lived rule and the
        sweep that expires it), the rest building it lazily later."""
        if build:
            self.now = start - 0.1
            self._install(Match(ip_dst="10.9.9.9"), 1, 0.1, 0.0)
            self._install(Match.exact_from_packet(
                _packet("10.9.9.9", "10.9.9.9", 1, 1), in_port=3),
                1, 0.1, 0.0)
        self.now = start
        self.sweep()

    def _install(self, match, priority, idle, hard):
        first = None
        evicted = []
        for table in self.tables:
            entry = FlowEntry(match=match, actions=(OutputAction(2),),
                              priority=priority, idle_timeout=idle,
                              hard_timeout=hard)
            if first is None:
                first = entry
            else:
                entry.entry_id = first.entry_id
            victim = table.insert(entry, now=self.now)
            evicted.append(victim and victim.entry_id)
        assert evicted[0] == evicted[1]

    @rule(target=flows, flow=_FLOWS, priority=st.integers(1, 3),
          idle=st.sampled_from([0.0, 0.3, 1.0, 5.0]),
          hard=st.sampled_from([0.0, 0.7, 5.0]))
    def insert_exact(self, flow, priority, idle, hard):
        src, dst, sport, dport, in_port = flow
        self._install(Match.exact_from_packet(
            _packet(src, dst, sport, dport), in_port=in_port),
            priority, idle, hard)
        return flow

    @rule(flow=flows, priority=st.integers(1, 3),
          idle=st.sampled_from([0.0, 0.3, 1.0, 5.0]),
          hard=st.sampled_from([0.0, 0.7, 5.0]))
    def replace_exact(self, flow, priority, idle, hard):
        self.insert_exact(flow, priority, idle, hard)

    @rule(src=st.sampled_from(_IPS) | st.none(),
          dport=st.sampled_from(_PORTS) | st.none(),
          priority=st.integers(1, 3),
          idle=st.sampled_from([0.0, 1.0]),
          hard=st.sampled_from([0.0, 0.7]))
    def insert_wildcard(self, src, dport, priority, idle, hard):
        self._install(Match(ip_src=src, tp_dst=dport), priority, idle,
                      hard)

    @rule(flow=flows)
    def lookup(self, flow):
        src, dst, sport, dport, in_port = flow
        packet = _packet(src, dst, sport, dport)
        hits = [table.lookup(packet, in_port, now=self.now)
                for table in self.tables]
        assert [h and h.entry_id for h in hits] \
            == [hits[1] and hits[1].entry_id] * 2

    @rule(flow=flows, packets=st.integers(1, 50),
          ahead=st.sampled_from([0.0, 0.05, 0.9, 3.3]))
    def refresh_ahead(self, flow, packets, ahead):
        """The hybrid engine's segment credit: ``last_used`` moves to a
        lookup that still lies ahead."""
        src, dst, sport, dport, in_port = flow
        packet = _packet(src, dst, sport, dport)
        found = [table.find(packet, in_port, now=self.now)
                 for table in self.tables]
        assert [f and f.entry_id for f in found] \
            == [found[1] and found[1].entry_id] * 2
        for entry in found:
            if entry is not None:
                entry.credit(packets, packets * 1000, self.now + ahead)

    @rule(flow=flows, strict=st.integers(1, 3) | st.none(),
          exact=st.booleans())
    def delete(self, flow, strict, exact):
        """DELETE (``strict`` None) or DELETE_STRICT, each with the
        pre-sweep a switch makes first."""
        src, dst, sport, dport, in_port = flow
        match = (Match.exact_from_packet(_packet(src, dst, sport, dport),
                                         in_port=in_port)
                 if exact else Match(ip_src=src))
        removed = [table.remove(match, strict_priority=strict,
                                now=self.now) for table in self.tables]
        assert removed[0] == removed[1]

    @precondition(lambda self: len(self.tables[0]) > 8)
    @rule()
    def clear(self):
        for table in self.tables:
            table.clear()

    @rule(delta=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0, 2.5, 5.0,
                                 0.123456789]))
    def advance_time(self, delta):
        self.now += delta

    @rule(flow=flows, ulps=st.integers(-2, 2))
    def sweep_at_deadline(self, flow, ulps):
        """Sweep within a few ulps of a live rule's idle deadline, where
        the rounded key and ``is_expired`` can disagree."""
        src, dst, sport, dport, in_port = flow
        entry = self.tables[0].find(_packet(src, dst, sport, dport),
                                    in_port, now=self.now)
        if entry is None or entry.idle_timeout <= 0:
            return
        target = entry.last_used + entry.idle_timeout
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.copysign(math.inf, ulps))
        self.now = max(self.now, target)
        self.sweep()

    @rule()
    def sweep(self):
        swept = [[entry.entry_id for entry in table.expire(self.now)]
                 for table in self.tables]
        assert swept[0] == swept[1]

    @invariant()
    def tables_agree(self):
        indexed, scanned = self.tables
        assert self.reports[0] == self.reports[1]
        assert indexed.expirations == scanned.expirations
        assert indexed.generation == scanned.generation
        assert len(indexed) == len(scanned)
        assert ([e.entry_id for e in indexed.entries()]
                == [e.entry_id for e in scanned.entries()])


class IndexedSweepEvictionMachine(IndexedSweepMachine):
    """A six-rule table: inserts evict, and stale index items pile up."""

    capacity = 6


_SETTINGS = settings(max_examples=40, stateful_step_count=30,
                     deadline=None)
FlowTableMachine.TestCase.settings = _SETTINGS
LruEvictionMachine.TestCase.settings = _SETTINGS
FifoEvictionMachine.TestCase.settings = _SETTINGS
_SWEEP_SETTINGS = settings(max_examples=60, stateful_step_count=50,
                           deadline=None)
IndexedSweepMachine.TestCase.settings = _SWEEP_SETTINGS
IndexedSweepEvictionMachine.TestCase.settings = _SWEEP_SETTINGS
TestFlowTableAgainstModel = FlowTableMachine.TestCase
TestLruEvictionAgainstScan = LruEvictionMachine.TestCase
TestFifoEvictionAgainstScan = FifoEvictionMachine.TestCase
TestIndexedSweepAgainstScan = IndexedSweepMachine.TestCase
TestIndexedSweepUnderEviction = IndexedSweepEvictionMachine.TestCase
