"""Analysis daemon: a long-running multi-client query server.

The server package turns the what-if service into genuine multi-user
infrastructure -- the oq-engine pattern (calculation engine behind a
daemon with persistent state) applied to the session/catalog layer:

* :mod:`repro.server.protocol` -- the line-delimited JSON wire format
  (typed deltas, event/error models, results; floats round-trip exactly);
* :mod:`repro.server.pool` -- the sharded, fingerprint-keyed
  :class:`SessionPool` (one session per bus segment, LRU-bounded);
* :mod:`repro.server.daemon` -- :class:`AnalysisDaemon`, the
  transport-independent request handler of every op in
  :data:`repro.server.protocol.OPS`, which serves every request on its
  caller's thread;
* :mod:`repro.server.tcp` -- the threading TCP front end;
* :mod:`repro.server.client` -- :class:`InProcessClient` and
  :class:`TcpClient`, one API over both transports, with shared
  retry/backoff (:class:`RetryPolicy`) and typed error codes;
* :mod:`repro.server.faults` -- deterministic fault injection
  (``REPRO_FAULTS``) and :mod:`repro.server.harness` -- the restartable
  test harness built on it.

``python -m repro.server`` starts a daemon serving the case-study
workloads (see :mod:`repro.server.__main__`).
"""

from repro.server.client import (
    BaseClient,
    ConnectionLost,
    DaemonError,
    InProcessClient,
    RetryPolicy,
    TcpClient,
)
from repro.server.daemon import AnalysisDaemon
from repro.server.faults import FaultInjector, FaultSpecError
from repro.server.harness import ServerHarness
from repro.server.pool import SessionPool, UnknownTargetError
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    config_from_json,
    config_to_json,
    delta_from_json,
    delta_to_json,
    deltas_from_json,
    deltas_to_json,
    event_model_from_json,
    event_model_to_json,
    error_model_from_json,
    error_model_to_json,
    path_from_json,
    path_to_json,
    system_delta_from_json,
    system_delta_to_json,
    system_from_json,
    system_to_json,
)
from repro.server.tcp import DaemonServer, start_server

__all__ = [
    "AnalysisDaemon",
    "BaseClient",
    "ConnectionLost",
    "DaemonError",
    "DaemonServer",
    "FaultInjector",
    "FaultSpecError",
    "InProcessClient",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RetryPolicy",
    "ServerHarness",
    "SessionPool",
    "TcpClient",
    "UnknownTargetError",
    "config_from_json",
    "config_to_json",
    "delta_from_json",
    "delta_to_json",
    "deltas_from_json",
    "deltas_to_json",
    "error_model_from_json",
    "error_model_to_json",
    "event_model_from_json",
    "event_model_to_json",
    "path_from_json",
    "path_to_json",
    "start_server",
    "system_delta_from_json",
    "system_delta_to_json",
    "system_from_json",
    "system_to_json",
]
