"""Flow table: prioritized rules with timeouts and capacity eviction.

The table keeps an O(1) hash index for fully-exact entries (the kind the
reactive forwarding app installs — one per 5-tuple flow) and a linear,
priority-ordered list for wildcard entries.  Idle/hard timeouts and
LRU/FIFO eviction model the paper's observation that "rules for inactive
flows will be kicked out and replaced by rules for active flows", which is
why even TCP flows can hit the miss path mid-connection (§VI.B).

A full table evicts the exact entry with the least ``(last_used,
entry_id)`` under LRU (``(installed_at, entry_id)`` under FIFO), and a
wildcard only when no exact entry is left.  The victim comes from a
lazily validated binary heap over the exact entries, so an insert into a
full table costs O(log n) amortized instead of a scan of the table.  The
heap is built at a table's first eviction and dropped once most of it is
stale, so tables that never fill hold no index at all (DESIGN.md §19).

The periodic :meth:`FlowTable.expire` sweep finds expired exact
entries through a second lazily validated heap, keyed by each entry's
earliest possible expiry, so a sweep examines only the entries that are
due instead of every live rule.  It removes exactly the entries a full
scan would, reports them in the scan's order, and is built at the first
sweep at which any rule could be due (DESIGN.md §22).  Wildcard entries
are still scanned.

Every expiry — the periodic sweep, the lazy removal of an expired rule
that a lookup finds, and the sweep a DELETE makes first — is counted in
``expirations`` and reported to the table's ``on_expire`` listener,
which the switch datapath turns into ``flow_expired`` events (and so
into FlowRemoved messages).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional, Tuple

from ..packets import Packet
from .actions import Action
from .match import Match

#: Entry-id source (diagnostics; stable ordering for FIFO eviction).
_entry_ids = itertools.count(1)


def _exact_key_from_match(match: Match) -> Optional[tuple]:
    """Hash key for a fully-exact match; ``None`` if any field wildcarded.

    The fields in ``Match``'s declaration order, which is also the
    layout of :meth:`Packet.exact_key`, so a rule's key equals the key
    of every packet it matches exactly.
    """
    values = (match.in_port, match.eth_src, match.eth_dst, match.eth_type,
              match.ip_src, match.ip_dst, match.ip_proto, match.tp_src,
              match.tp_dst)
    if None in values:
        return None
    return values


#: A sweep at ``now`` examines every deadline item keyed at or below
#: ``now + |now| * _DUE_MARGIN``.  ``is_expired`` compares a rounded
#: difference (``now - last_used >= idle``) while the key is a rounded
#: sum (``last_used + idle``); for non-negative times the two roundings
#: put an expired entry's key at most ``now * (1 + 2**-53)**2`` above
#: ``now``, well inside this margin (DESIGN.md §22).
_DUE_MARGIN = 2.0 ** -50


@dataclass
class FlowEntry:
    """One installed rule."""

    match: Match
    actions: Tuple[Action, ...]
    priority: int = 0x8000
    idle_timeout: float = 0.0       # 0 = never idle-expires
    hard_timeout: float = 0.0       # 0 = never hard-expires
    cookie: int = 0
    #: Emit a FlowRemoved to the controller when this rule dies.
    send_flow_removed: bool = False
    installed_at: float = 0.0
    last_used: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    #: Rank of this rule's key in its table's exact-index order, which
    #: is the order a full sweep reports expiries in.  Set by the table
    #: while its deadline index exists; a same-key replacement inherits
    #: the replaced rule's rank, as it inherits its dict position.
    key_rank: int = field(default=0, init=False, repr=False,
                          compare=False)

    def touch(self, now: float, wire_len: int) -> None:
        """Record a packet hit (see :meth:`credit` on ``last_used``)."""
        if now > self.last_used:
            self.last_used = now
        self.packet_count += 1
        self.byte_count += wire_len

    def credit(self, packets: int, byte_count: int,
               last_used: float) -> None:
        """Record ``packets`` hits, the last of them at ``last_used``.

        ``last_used`` never moves backwards: the hybrid engine credits a
        whole segment ahead of time (its last lookup lies in the
        future), and a packet still queued from before can hit the rule
        after that.  Both flow-table indexes rely on it only growing.
        """
        if last_used > self.last_used:
            self.last_used = last_used
        self.packet_count += packets
        self.byte_count += byte_count

    def is_expired(self, now: float) -> bool:
        """Idle or hard timeout elapsed?"""
        if self.hard_timeout > 0 and now - self.installed_at >= self.hard_timeout:
            return True
        if self.idle_timeout > 0 and now - self.last_used >= self.idle_timeout:
            return True
        return False


def _deadline(entry: FlowEntry) -> float:
    """The earliest time ``entry`` can expire (``inf`` if it never does).

    It only grows: hits move ``last_used`` forward and ``installed_at``
    is fixed at insert.
    """
    deadline = math.inf
    if entry.hard_timeout > 0:
        deadline = entry.installed_at + entry.hard_timeout
    if entry.idle_timeout > 0:
        idle_deadline = entry.last_used + entry.idle_timeout
        if idle_deadline < deadline:
            deadline = idle_deadline
    return deadline


_key_rank = attrgetter("key_rank")


class FlowTable:
    """A single flow table with capacity-based eviction.

    ``eviction`` is ``"lru"`` (least recently used, the default — matches
    the LRU caching behaviour of [13] the paper cites) or ``"fifo"``
    (oldest installation first).  ``on_expire(now, entry)`` is called
    for every entry that leaves the table because it timed out.

    Every call must pass a ``now`` no earlier than the previous call's
    (simulated time, never negative): the eviction heap and the deadline
    index rely on an entry's score and deadline only ever growing.
    """

    def __init__(self, capacity: int = 2048, eviction: str = "lru",
                 on_expire: Optional[
                     Callable[[float, FlowEntry], None]] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if eviction not in ("lru", "fifo"):
            raise ValueError(f"unknown eviction policy {eviction!r}")
        self.capacity = capacity
        self.eviction = eviction
        self.on_expire = on_expire
        self._exact: dict[tuple, FlowEntry] = {}
        #: Wildcard entries, kept sorted by (-priority, entry_id).
        self._wildcards: list[FlowEntry] = []
        #: Eviction index over the exact entries: a heap of
        #: ``(score, entry_id, push_seq, key, entry)`` items, ``None``
        #: until the first eviction (see :meth:`_evict_exact`).
        #: ``push_seq`` keeps two items from ever comparing entries.
        self._heap: Optional[list] = None
        self._push_seq = itertools.count()
        self._score = attrgetter("last_used" if eviction == "lru"
                                 else "installed_at")
        #: Expiry index over the timed exact entries: a heap of
        #: ``(deadline, entry_id, key, entry)`` items, ``None`` until a
        #: sweep could find a rule due (see :meth:`_expire_exact`).
        #: Exact entries never share an ``entry_id``, so only items of
        #: one entry can tie up to their entries, which then compare
        #: equal as the same object.
        self._deadlines: Optional[list] = None
        #: While there is no deadline index: a lower bound on every live
        #: exact entry's deadline.
        self._due_floor = math.inf
        self._key_ranks = itertools.count()
        #: Mutation counter: any structural change bumps this, letting
        #: exact-match caches above the table validate their entries.
        self.generation = 0
        #: Statistics.
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.evictions = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    # Size
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._exact) + len(self._wildcards)

    @property
    def is_full(self) -> bool:
        """True when at capacity (the next insert will evict)."""
        return len(self) >= self.capacity

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, packet: Packet, in_port: int,
               now: float) -> Optional[FlowEntry]:
        """Find the highest-priority live entry matching ``packet``.

        Expired entries encountered during lookup are removed (and
        reported) lazily, in addition to the periodic :meth:`expire` sweep.
        """
        self.lookups += 1
        best: Optional[FlowEntry] = None

        key = packet.exact_key(in_port)
        exact = self._exact.get(key)
        if exact is not None:
            if exact.is_expired(now):
                del self._exact[key]
                self._expired([exact], now)
            else:
                best = exact

        if self._wildcards:
            survivors = []
            for entry in self._wildcards:
                if entry.is_expired(now):
                    continue
                survivors.append(entry)
                if best is None or entry.priority > best.priority:
                    if entry.match.matches(packet, in_port):
                        best = entry
            if len(survivors) != len(self._wildcards):
                expired = [e for e in self._wildcards if e.is_expired(now)]
                self._wildcards = survivors
                self._expired(expired, now)

        if best is not None:
            best.touch(now, packet.wire_len)
            self.hits += 1
        return best

    def find(self, packet: Packet, in_port: int,
             now: float) -> Optional[FlowEntry]:
        """The live entry :meth:`lookup` would return, without its side
        effects: nothing is counted, touched or removed."""
        best = self._exact.get(packet.exact_key(in_port))
        if best is not None and best.is_expired(now):
            best = None
        for entry in self._wildcards:
            if best is not None and entry.priority <= best.priority:
                break
            if (not entry.is_expired(now)
                    and entry.match.matches(packet, in_port)):
                return entry
        return best

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, entry: FlowEntry, now: float) -> Optional[FlowEntry]:
        """Install ``entry``; returns the evicted entry, if any.

        Installing an entry with the same exact key (or identical wildcard
        match + priority) replaces the old one without eviction.
        """
        entry.installed_at = now
        entry.last_used = now
        key = _exact_key_from_match(entry.match)
        replaced = False
        if key is not None:
            replaced_exact = self._exact.get(key)
            replaced = replaced_exact is not None
        else:
            for i, existing in enumerate(self._wildcards):
                if (existing.match == entry.match
                        and existing.priority == entry.priority):
                    # A replacement keeps the old entry's rank: the list
                    # position is reused, so the id must be too — else
                    # the next re-sort would silently change which rule
                    # wins equal-priority ties.
                    entry.entry_id = existing.entry_id
                    self._wildcards[i] = entry
                    replaced = True
                    break

        evicted: Optional[FlowEntry] = None
        if not replaced and self.is_full:
            evicted = self._evict_one()

        if key is not None:
            self._exact[key] = entry
            self._index_deadline(key, entry, replaced_exact)
            heap = self._heap
            if heap is not None:
                heapq.heappush(heap, (now, entry.entry_id,
                                      next(self._push_seq), key, entry))
                if len(heap) > 2 * len(self._exact):
                    # Mostly stale items: rebuilt at the next eviction.
                    self._heap = None
        elif not replaced:
            self._wildcards.append(entry)
            self._wildcards.sort(key=lambda e: (-e.priority, e.entry_id))
        self.insertions += 1
        self.generation += 1
        return evicted

    def _index_deadline(self, key: tuple, entry: FlowEntry,
                        replaced: Optional[FlowEntry]) -> None:
        """Track ``entry``, just installed at ``key`` over ``replaced``."""
        deadline = _deadline(entry)
        deadlines = self._deadlines
        if deadlines is None:
            if deadline < self._due_floor:
                self._due_floor = deadline
            return
        # A replacement keeps its key's place in key order.
        entry.key_rank = (replaced.key_rank if replaced is not None
                          else next(self._key_ranks))
        if deadline != math.inf:
            heapq.heappush(deadlines, (deadline, entry.entry_id, key, entry))
            if len(deadlines) > 2 * len(self._exact):
                # Mostly stale items: rebuilt by the first sweep that
                # reaches the least key, a bound on every live deadline.
                self._due_floor = deadlines[0][0]
                self._deadlines = None

    def _evict_one(self) -> FlowEntry:
        """Remove one entry according to the eviction policy."""
        if self._exact:
            victim = self._evict_exact()
        else:
            # Wildcards are only evicted if there are no exact entries;
            # real switches strongly prefer evicting microflow rules.
            victim = min(self._wildcards,
                         key=lambda e: (e.last_used, e.entry_id))
            self._wildcards.remove(victim)
        self.evictions += 1
        return victim

    def _evict_exact(self) -> FlowEntry:
        """Remove and return the exact entry a full scan would pick.

        The pick is the least ``(score, entry_id)``, score being
        ``last_used`` (LRU) or ``installed_at`` (FIFO).  Every live exact
        entry has at least one heap item, and an item's stored score
        never exceeds its entry's current score (time only moves
        forward; hits update ``last_used`` without touching the heap).
        Items whose entry has left the table are dropped, items whose
        score fell behind are re-pushed at the current score, and the
        first top item that is fresh is the scan's pick, ties included.
        """
        exact = self._exact
        score = self._score
        heap = self._heap
        if heap is None:
            heap = self._heap = [
                (score(entry), entry.entry_id, next(self._push_seq), key,
                 entry) for key, entry in exact.items()]
            heapq.heapify(heap)
        while True:
            stored, entry_id, _seq, key, entry = heap[0]
            if exact.get(key) is not entry:
                heapq.heappop(heap)
                continue
            current = score(entry)
            if stored != current:
                heapq.heapreplace(heap, (current, entry_id,
                                         next(self._push_seq), key, entry))
                continue
            heapq.heappop(heap)
            del exact[key]
            return entry

    def remove(self, match: Match, strict_priority: Optional[int] = None,
               now: Optional[float] = None) -> int:
        """Delete entries covered by ``match``; returns how many.

        With ``strict_priority`` only an identical match at that priority is
        removed (OFPFC_DELETE_STRICT); otherwise all covered entries go
        (OFPFC_DELETE).  When ``now`` is given, entries that had already
        expired are swept out (and reported) first and not counted as
        deletions — a dead rule cannot be deleted twice.
        """
        if now is not None:
            self.expire(now)
        removed = 0
        if strict_priority is not None:
            key = _exact_key_from_match(match)
            if key is not None and key in self._exact:
                if self._exact[key].priority == strict_priority:
                    del self._exact[key]
                    removed += 1
            else:
                keep = [e for e in self._wildcards
                        if not (e.match == match
                                and e.priority == strict_priority)]
                removed += len(self._wildcards) - len(keep)
                self._wildcards = keep
            if removed:
                self.generation += 1
            return removed

        for key, entry in list(self._exact.items()):
            if match.covers(entry.match):
                del self._exact[key]
                removed += 1
        keep = [e for e in self._wildcards if not match.covers(e.match)]
        removed += len(self._wildcards) - len(keep)
        self._wildcards = keep
        if removed:
            self.generation += 1
        return removed

    def expire(self, now: float) -> list[FlowEntry]:
        """Sweep out every expired entry; returns what was removed.

        Exact entries come first, in the table's key order, then
        wildcards in priority order — the order a scan of the table
        meets them in.
        """
        expired = self._expire_exact(now)
        keep = []
        for entry in self._wildcards:
            if entry.is_expired(now):
                expired.append(entry)
            else:
                keep.append(entry)
        self._wildcards = keep
        if expired:
            self._expired(expired, now)
        return expired

    def _expire_exact(self, now: float) -> list[FlowEntry]:
        """Remove and return the expired exact entries, in key order.

        Between sweeps, every live timed exact entry has an item whose
        key does not exceed its current deadline: items are pushed at
        insert (or when the index is built) with the entry's deadline,
        and deadlines only grow.  A sweep pops every item keyed within
        :data:`_DUE_MARGIN` of ``now``, which covers every expired
        entry, and ``is_expired`` decides each one as the scan did.
        Items whose entry has left the table are dropped; entries that
        live on are re-pushed at their current deadline once the pops
        are done (a rounding can key a live entry at or below ``now``).
        """
        limit = now + abs(now) * _DUE_MARGIN
        deadlines = self._deadlines
        if deadlines is None:
            if self._due_floor > limit:
                return []
            deadlines = self._build_deadlines()
        exact = self._exact
        due: list[FlowEntry] = []
        later = []
        while deadlines and deadlines[0][0] <= limit:
            _due, entry_id, key, entry = heapq.heappop(deadlines)
            if exact.get(key) is not entry:
                continue
            if entry.is_expired(now):
                del exact[key]
                due.append(entry)
            else:
                later.append((_deadline(entry), entry_id, key, entry))
        for item in later:
            heapq.heappush(deadlines, item)
        if len(due) > 1:
            due.sort(key=_key_rank)
        return due

    def _build_deadlines(self) -> list:
        """Index every live timed exact entry; ranks follow key order."""
        ranks = self._key_ranks = itertools.count()
        deadlines = []
        for key, entry in self._exact.items():
            entry.key_rank = next(ranks)
            deadline = _deadline(entry)
            if deadline != math.inf:
                deadlines.append((deadline, entry.entry_id, key, entry))
        heapq.heapify(deadlines)
        self._deadlines = deadlines
        self._due_floor = math.inf
        return deadlines

    def _expired(self, entries: list[FlowEntry], now: float) -> None:
        """Count and report ``entries``, just removed as timed out."""
        self.expirations += len(entries)
        self.generation += 1
        if self.on_expire is not None:
            for entry in entries:
                self.on_expire(now, entry)

    def entries(self) -> list[FlowEntry]:
        """All live entries (exact first, then wildcards by priority)."""
        return list(self._exact.values()) + list(self._wildcards)

    def clear(self) -> None:
        """Drop every entry (counters retained)."""
        self._exact.clear()
        self._wildcards.clear()
        self._deadlines = None
        self._due_floor = math.inf
        self.generation += 1

    @property
    def miss_count(self) -> int:
        """Lookups that found no entry."""
        return self.lookups - self.hits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowTable(size={len(self)}/{self.capacity}, "
                f"hits={self.hits}/{self.lookups})")
