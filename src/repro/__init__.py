"""repro: SymTA/S-style automotive network timing analysis.

A from-scratch reproduction of the analysis technology described in
Richter, Jersak, Ernst, "How OEMs and Suppliers can face the Network
Integration Challenges" (ERTS 2006): CAN schedulability analysis with jitter
and bus-error models, sensitivity/robustness analysis, genetic priority
optimization, compositional system-level analysis over ECUs and gateways, and
the OEM/supplier requirement-vs-guarantee methodology.

Quickstart
----------
>>> from repro import powertrain_system, analyze_schedulability
>>> kmatrix, bus, controllers = powertrain_system()
>>> report = analyze_schedulability(kmatrix, bus, controllers=controllers)
>>> report.all_deadlines_met
True

The subpackages group the functionality:

* :mod:`repro.events` -- standard event models (periodic, jitter, burst);
* :mod:`repro.can` -- CAN frames, K-Matrix, buses, controllers;
* :mod:`repro.errors` -- sporadic and burst bus-error models;
* :mod:`repro.analysis` -- load analysis and response-time analysis;
* :mod:`repro.sensitivity` -- jitter/error sensitivity and robustness;
* :mod:`repro.optimize` -- priority assignment baselines and the GA;
* :mod:`repro.ecu` -- OSEK-style task scheduling inside ECUs;
* :mod:`repro.gateway` -- store-and-forward gateways between buses;
* :mod:`repro.core` -- the compositional system-level analysis engine;
* :mod:`repro.service` -- the what-if analysis service: cached-kernel
  sessions, typed deltas with incremental re-analysis, and the one
  scenario catalog for bus and system sessions;
* :mod:`repro.server` -- the long-running analysis daemon: sharded session
  pool, admission control and drain, line-delimited JSON protocol over TCP
  or in-process, ``python -m repro.server`` CLI;
* :mod:`repro.whatif` -- system-level what-if analysis: typed topology
  deltas (move message, bus speed, gateway routes, ECU budgets),
  :class:`SystemSession` with incremental end-to-end path latency, and the
  topology scenario families;
* :mod:`repro.parallel` -- deterministic parallel evaluation of the
  engine's ``incremental=False`` reference sweep over bus segments;
* :mod:`repro.sim` -- a discrete-event CAN simulator for cross-validation;
* :mod:`repro.monitor` -- the live conformance monitor: observed frame
  streams checked online against the analytic bounds (violation flagging,
  event-model refitting, declarative alert rules, windowed metrics
  history), served through the daemon's ``monitor_*`` ops;
* :mod:`repro.supplychain` -- data sheets, requirements and contracts;
* :mod:`repro.diagnostics` -- flashing and diagnostics traffic models;
* :mod:`repro.flexray` -- static-segment FlexRay/TimeTable analysis;
* :mod:`repro.workloads` -- the case-study network and synthetic workloads;
* :mod:`repro.reporting` -- helpers that print paper-shaped tables;
* :mod:`repro.obs` -- observability: the dependency-free metrics registry
  (counters, gauges, histograms) and request tracing (span trees,
  slowest-trace retention, slow-query log) wired through the serving tier.
"""

from repro.analysis import (
    CanBusAnalysis,
    SchedulabilityReport,
    analyze_schedulability,
    bus_load,
    message_loss_fraction,
    worst_case_response_time,
)
from repro.can import CanBus, CanMessage, KMatrix
from repro.cancel import Cancelled, CancelToken, DeadlineExceeded
from repro.errors import BurstErrorModel, NoErrors, SporadicErrorModel
from repro.events import (
    EmpiricalEventTrace,
    EventModel,
    PeriodicEventModel,
    PeriodicWithBurst,
    PeriodicWithJitter,
    fit_periodic_jitter,
)
from repro.obs import MetricsHistory, MetricsRegistry, Trace, TraceRing
from repro.optimize import optimize_priorities, paper_scenarios
from repro.parallel import parallel_map
from repro.sensitivity import jitter_sensitivity_all, max_tolerable_jitter_fraction
from repro.server import (
    AnalysisDaemon,
    ConnectionLost,
    DaemonError,
    DaemonServer,
    FaultInjector,
    InProcessClient,
    RetryPolicy,
    SessionPool,
    TcpClient,
    start_server,
)
from repro.service import (
    AddMessageDelta,
    AnalysisSession,
    BusConfiguration,
    ErrorModelDelta,
    EventModelDelta,
    JitterDelta,
    PriorityDelta,
    QueryResult,
    RemoveMessageDelta,
    ScenarioCatalog,
    SessionStats,
    WhatIfScenario,
    builtin_catalog,
)
from repro.whatif import (
    AddGatewayRouteDelta,
    BusSpeedDelta,
    EcuTaskDelta,
    GatewayConfigDelta,
    MoveMessageDelta,
    RemoveGatewayRouteDelta,
    SegmentConfigDelta,
    SystemQueryResult,
    SystemSession,
    apply_system_deltas,
    builtin_system_catalog,
)
from repro.core import EndToEndPath, PathLatency, path_latency
# After repro.core: the monitor pulls in the service layer, whose session
# module and the compositional engine import each other -- the engine side
# must initialize first (same reason repro.server precedes repro.service
# above).
from repro.monitor import (
    Alert,
    AlertEngine,
    AlertRule,
    ConformanceMonitor,
    IngestReport,
    MonitorConfig,
    ObservedFrame,
    ViolationRecord,
    frames_from_trace,
    inject_jitter_burst,
)
from repro.sim import (
    CanBusSimulator,
    NeverSentError,
    SimulationConfig,
    SimulationTrace,
    Simulator,
    TransmissionRecord,
    UnknownMessageError,
)
from repro.store import ResultStore
from repro.workloads import (
    WorkloadRegistry,
    builtin_registry,
    powertrain_kmatrix,
    powertrain_system,
)

__version__ = "1.4.0"

__all__ = [
    "__version__",
    "CanBus",
    "CanMessage",
    "KMatrix",
    "EventModel",
    "EmpiricalEventTrace",
    "PeriodicEventModel",
    "PeriodicWithJitter",
    "PeriodicWithBurst",
    "fit_periodic_jitter",
    "NoErrors",
    "SporadicErrorModel",
    "BurstErrorModel",
    "CanBusAnalysis",
    "SchedulabilityReport",
    "analyze_schedulability",
    "bus_load",
    "message_loss_fraction",
    "worst_case_response_time",
    "jitter_sensitivity_all",
    "max_tolerable_jitter_fraction",
    "optimize_priorities",
    "paper_scenarios",
    "parallel_map",
    "powertrain_kmatrix",
    "powertrain_system",
    "AnalysisSession",
    "QueryResult",
    "SessionStats",
    "BusConfiguration",
    "JitterDelta",
    "ErrorModelDelta",
    "EventModelDelta",
    "PriorityDelta",
    "AddMessageDelta",
    "RemoveMessageDelta",
    "WhatIfScenario",
    "ScenarioCatalog",
    "builtin_catalog",
    "AnalysisDaemon",
    "SessionPool",
    "InProcessClient",
    "TcpClient",
    "DaemonServer",
    "DaemonError",
    "ConnectionLost",
    "RetryPolicy",
    "FaultInjector",
    "CancelToken",
    "Cancelled",
    "DeadlineExceeded",
    "MetricsHistory",
    "MetricsRegistry",
    "Trace",
    "TraceRing",
    "start_server",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "ConformanceMonitor",
    "IngestReport",
    "MonitorConfig",
    "ObservedFrame",
    "ViolationRecord",
    "frames_from_trace",
    "inject_jitter_burst",
    "CanBusSimulator",
    "Simulator",
    "SimulationConfig",
    "SimulationTrace",
    "TransmissionRecord",
    "NeverSentError",
    "UnknownMessageError",
    "AddGatewayRouteDelta",
    "BusSpeedDelta",
    "EcuTaskDelta",
    "EndToEndPath",
    "GatewayConfigDelta",
    "MoveMessageDelta",
    "PathLatency",
    "RemoveGatewayRouteDelta",
    "SegmentConfigDelta",
    "SystemQueryResult",
    "SystemSession",
    "apply_system_deltas",
    "builtin_system_catalog",
    "path_latency",
    "ResultStore",
    "WorkloadRegistry",
    "builtin_registry",
]
