"""Beeshield: guarded bee runtime, quarantine, and chaos harness.

Public surface:

* :class:`ResilienceRegistry` / :class:`BeeHealth` — per-bee fault
  accounting and the quarantine/backoff state machine.
* :class:`BeeGuard` — the per-database shield wrapping every bee call
  site (one instance lives at ``db.shield``).
* :class:`QueryTimeout` — raised by ``db.sql(..., timeout=...)``.
* :mod:`repro.resilience.chaos` — seeded fault injection at named
  sites; :mod:`repro.resilience.campaign` — the oracle-style chaos
  campaign (``python -m repro.verify --pass resilience``).
"""

from repro.resilience.errors import BeeDegradeError, ChaosFault, QueryTimeout
from repro.resilience.guard import BeeGuard
from repro.resilience.registry import BeeHealth, ResilienceRegistry

__all__ = [
    "BeeDegradeError",
    "BeeGuard",
    "BeeHealth",
    "ChaosFault",
    "QueryTimeout",
    "ResilienceRegistry",
]
