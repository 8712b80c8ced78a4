"""Admission control: the overload front door (paper section 4.3.3).

The paper's TMPFAIL contract says an overloaded server answers
"temporary failure, back off and retry" instead of blocking.  This
package supplies the other half of that contract -- the parts that
actually back off: per-service token buckets, per-node circuit
breakers, and an :class:`AdmissionController` that wires them
into the client, fabric, and query paths with a shed-N1QL-before-KV
degradation order.  Deterministic by construction: virtual time only,
seeded jitter only.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .controller import AdmissionConfig, AdmissionController
from .tokens import ExponentialBackoff, TokenBucket

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CircuitBreaker",
    "ExponentialBackoff",
    "TokenBucket",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]
