"""Exception hierarchy for the simulation kernel.

Keeping kernel errors in their own module lets higher layers catch precise
failure classes (``except SchedulingError``) instead of broad ``Exception``
clauses, and keeps import cycles out of :mod:`repro.simkit.simulator`.
"""

from __future__ import annotations


class SimkitError(Exception):
    """Base class for every error raised by the simulation kernel."""


class SchedulingError(SimkitError):
    """An event was scheduled at an invalid time (e.g. in the past)."""
