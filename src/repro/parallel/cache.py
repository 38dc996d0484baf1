"""On-disk result cache for sweep tasks.

Each completed repetition's :class:`~repro.metrics.RunMetrics` is stored
under a content hash of everything that determines it: the buffer
config, the calibration, the workload-factory identity, the task's
(rate, rep, seed) coordinates, ``run_once``'s run shape, and the repro
version.  Re-running ``repro-sdn-buffer all`` after editing one
figure's settings then only recomputes the runs whose inputs actually
changed; everything else is a hit.

Entries are written atomically (temp file + ``os.replace``) so parallel
workers and concurrent CLI invocations can share one cache directory,
and a corrupted or truncated entry degrades to a miss, never an error —
but not a silent one: it is counted, deleted and warned about.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import warnings
from pathlib import Path
from typing import Optional, Union

from ..experiments.runner import (DEFAULT_DRAIN, DEFAULT_MAX_EXTENDS,
                                  DEFAULT_SETTLE)
from ..metrics import RunMetrics
from .tasks import SweepJob, SweepTask, factory_fingerprint

#: Bump when the cached payload's meaning changes.
#: v2: the scenario (topology) joined the key — before that, runs of the
#: same mechanism on different topologies could poison each other.
#: v3: the fault spec joined the key — lossy and faultless runs of the
#: same grid point must never share an entry.
#: v4: the shared-pool spec joined the key (through the scenario token:
#: ``pool=private`` when absent) — pooled and private runs of the same
#: grid point must never share an entry.
#: v5: the execution engine joined the key (through the scenario token:
#: ``engine=mode=packet|...`` for historical runs) — hybrid-engine and
#: packet-engine runs of the same grid point must never share an entry.
#: v6: the shard spec joined the key (through the scenario token:
#: ``shard=mode=off|workers=None`` for historical runs) — sharded and
#: serial runs of the same grid point are asserted bit-identical by the
#: shard verify mode, but share no entries: an equivalence bug must
#: never let one mode's results satisfy the other's lookups.
CACHE_SCHEMA = 6


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR``, else XDG, else ``~/.cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-sdn-buffer"


def _canonical(obj: object) -> str:
    """Deterministic textual form of configs (dataclasses, containers)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canonical(item) for item in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        return "{" + ", ".join(f"{_canonical(k)}: {_canonical(v)}"
                               for k, v in items) + "}"
    return repr(obj)


def task_key(job: SweepJob, task: SweepTask) -> str:
    """Content hash identifying one repetition's full input set.

    Deliberately excludes ``job_id`` (a process-local counter), the
    display-only ``label_override``, and anything about scheduling, so
    the same logical run hits the same entry across processes, worker
    counts and sessions.  The scenario participates through its
    canonical :meth:`~repro.scenarios.ScenarioSpec.cache_token`: two
    specs differing only in topology never share an entry, and since
    the execution engine (:class:`~repro.engine.EngineSpec`) rides the
    scenario token, neither do hybrid- and packet-engine runs of the
    same grid point (schema v5).  Likewise the
    fault spec (:meth:`~repro.faults.FaultSpec.cache_token`): a lossy
    run can never satisfy a faultless lookup, and ``faults=None`` keys
    identically to the explicit null spec.
    """
    from .. import __version__
    from ..faults import NO_FAULTS
    from ..scenarios import SINGLE
    scenario = job.scenario if job.scenario is not None else SINGLE
    faults = job.faults if job.faults is not None else NO_FAULTS
    payload = "|".join((
        f"schema={CACHE_SCHEMA}",
        f"repro={__version__}",
        f"config={_canonical(job.config)}",
        f"calibration={_canonical(job.calibration)}",
        f"factory={factory_fingerprint(job.factory)}",
        f"scenario={scenario.cache_token()}",
        f"faults={faults.cache_token()}",
        f"rate={task.rate_mbps!r}",
        f"rep={task.rep}",
        f"seed={task.seed}",
        # Tasks run ``run_once`` at its defaults; keying them makes a
        # change to one of them miss every older entry.
        f"settle={DEFAULT_SETTLE!r}",
        f"drain={DEFAULT_DRAIN!r}",
        f"max_extends={DEFAULT_MAX_EXTENDS}",
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-entry cache of :class:`RunMetrics`, keyed by hash."""

    def __init__(self, root: Union[str, os.PathLike, None] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Unreadable or wrong-type entries (each also counted a miss).
        self.corrupt = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        """Entry path; two-char fan-out keeps directories small."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[RunMetrics]:
        """The cached metrics for ``key``, or None (miss / corrupt)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:
            # Truncated/corrupt entry (unpickling can raise almost
            # anything): drop it and recompute.
            self._drop_corrupt(path, type(exc).__name__)
            return None
        if not isinstance(value, RunMetrics):
            self._drop_corrupt(path, f"payload is {type(value).__name__}, "
                                     f"not RunMetrics")
            return None
        self.hits += 1
        return value

    def _drop_corrupt(self, path: Path, why: str) -> None:
        """Count, warn about and delete an entry that cannot be used."""
        self.misses += 1
        self.corrupt += 1
        warnings.warn(f"result cache: dropping corrupt entry {path} "
                      f"({why})", RuntimeWarning, stacklevel=3)
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, metrics: RunMetrics) -> None:
        """Store ``metrics`` atomically (safe under concurrent writers)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(metrics, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self.stores += 1

    def stats(self) -> str:
        """One-line hit/miss/corrupt/store accounting for telemetry."""
        return (f"{self.hits} hits, {self.misses} misses "
                f"({self.corrupt} corrupt), "
                f"{self.stores} stores under {self.root}")
