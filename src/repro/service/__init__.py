"""Concurrent service layer over the functional database engine.

See :mod:`repro.service.service` for the architecture (derivation-
cluster locking, global write serialisation, deadlines, retry,
admission control, circuit breaker, drain) and
``docs/ROBUSTNESS.md`` for the operator's view. The chaos soak that
validates all of it — single node, replicated and sharded topologies,
one runner — lives in :mod:`repro.faults.soak`
(``python -m repro.faults --soak``).
"""

from repro.service.admission import AdmissionGate
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.locks import EXCLUSIVE, SHARED, LockManager
from repro.service.retry import DEFAULT_RETRYABLE, RetryPolicy
from repro.service.service import WRITE_RESOURCE, DatabaseService

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "LockManager",
    "SHARED",
    "EXCLUSIVE",
    "RetryPolicy",
    "DEFAULT_RETRYABLE",
    "DatabaseService",
    "WRITE_RESOURCE",
]
