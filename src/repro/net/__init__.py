"""The network front end: a TCP service over one TINTIN engine.

* :mod:`repro.net.protocol` — length-prefixed binary frames; row
  payloads reuse the WAL v2 tagged-row codec.
* :mod:`repro.net.admission` — the bounded, priority-shedding,
  watermark-backpressured waiting room in front of the scheduler.
* :mod:`repro.net.server` — the asyncio server: pipelined sessions
  (one staging run per flush, the commit guard), deadlines, SLOWDOWN
  broadcast, /health + /metrics, graceful drain.
* :mod:`repro.net.client` — the blocking client: staging deferred to
  the commit's flush (one round trip per transaction), retry with
  backoff and jitter on idempotent requests, overload-aware commit
  retry.
* :mod:`repro.net.faults` — deterministic fault injection across the
  full commit path (connection drops, stalled reads, fsync delays,
  scheduler stalls).
"""

from ..errors import (
    ConnectionLost,
    DeadlineExceeded,
    NetworkError,
    OverloadError,
    ProtocolError,
)
from .admission import AdmissionQueue, AdmissionStats
from .client import RemoteRows, TintinClient
from .faults import DropConnection, FaultInjector
from .protocol import PROTOCOL_MAGIC, PROTOCOL_VERSION
from .server import TintinServer

__all__ = [
    "AdmissionQueue",
    "AdmissionStats",
    "ConnectionLost",
    "DeadlineExceeded",
    "DropConnection",
    "FaultInjector",
    "NetworkError",
    "OverloadError",
    "ProtocolError",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "RemoteRows",
    "TintinClient",
    "TintinServer",
]
