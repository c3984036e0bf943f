"""System-level what-if analysis: typed topology deltas over one session.

The paper's headline claim is *system-level* compositional analysis --
verifying end-to-end latencies across ECUs, buses and gateways as the
architecture changes.  This package is that layer:

* :mod:`repro.whatif.system_deltas` -- frozen, hashable topology edits
  (:class:`MoveMessageDelta`, :class:`BusSpeedDelta`,
  :class:`AddGatewayRouteDelta` / :class:`RemoveGatewayRouteDelta`,
  :class:`GatewayConfigDelta`, :class:`EcuTaskDelta`, and
  :class:`SegmentConfigDelta` wrapping any per-bus service delta) applied
  copy-on-write to a :class:`~repro.core.system.SystemModel`;
* :mod:`repro.whatif.session` -- :class:`SystemSession`, the incremental
  query engine: one analysis session per bus shared by every topology, a
  fingerprint-keyed whole-result cache, gateway-reachability-aware
  invalidation, and first-class end-to-end
  :meth:`~SystemSession.path_latency` queries, all bit-identical to a
  from-scratch engine run;
* :mod:`repro.whatif.catalog` -- named topology scenario families
  (message re-mapping sweeps, bus-speed degradation, gateway failover),
  registered in the one :class:`~repro.service.catalog.ScenarioCatalog`
  type by :func:`builtin_system_catalog`.

The analysis daemon serves this layer through the ``system_query`` and
``scenario`` ops (see :mod:`repro.server.daemon`).
"""

from repro.core.system import downstream_closure, influence_edges
from repro.whatif.catalog import (
    STANDARD_BIT_RATES_BPS,
    builtin_system_catalog,
    bus_speed_degradation_scenario,
    gateway_failover_scenario,
    message_remap_sweep_scenario,
)
from repro.whatif.session import (
    SystemQueryResult,
    SystemQueryStats,
    SystemSession,
    SystemSessionStats,
)
from repro.whatif.system_deltas import (
    AddGatewayRouteDelta,
    BusSpeedDelta,
    EcuTaskDelta,
    GatewayConfigDelta,
    MoveMessageDelta,
    RemoveGatewayRouteDelta,
    SegmentConfigDelta,
    SystemDelta,
    apply_system_deltas,
)

__all__ = [
    "STANDARD_BIT_RATES_BPS",
    "AddGatewayRouteDelta",
    "BusSpeedDelta",
    "EcuTaskDelta",
    "GatewayConfigDelta",
    "MoveMessageDelta",
    "RemoveGatewayRouteDelta",
    "SegmentConfigDelta",
    "SystemDelta",
    "SystemQueryResult",
    "SystemQueryStats",
    "SystemSession",
    "SystemSessionStats",
    "apply_system_deltas",
    "builtin_system_catalog",
    "bus_speed_degradation_scenario",
    "downstream_closure",
    "gateway_failover_scenario",
    "influence_edges",
    "message_remap_sweep_scenario",
]
