"""Named workload registry: server-side expansion of parameterised workloads.

PR 5's ``register`` op ships a *full topology* over the wire.  That is fine
for bespoke fleets, but most clients of a large deployment analyse
variations of a handful of generator families -- and a million-user front
end should ship ``("multibus_chain", {"n_buses": 12, "seed": 3})``
(kilobytes) rather than the expanded topology (megabytes).  The daemon
expands the named generator server-side, registers the result exactly as if
the client had sent it, and -- because registration keys everything by
configuration fingerprint -- identical parameters from different clients
dedupe into the same pool sessions and the same persistent-store entries.

Every builtin generator is deterministic in its parameters (seeded RNGs),
so a named workload is a stable, repeatable fingerprint across processes
and machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.can.bus import CanBus
from repro.core.system import SystemModel
from repro.errors.models import NoErrors, SporadicErrorModel
from repro.server.protocol import Param
from repro.service.deltas import BusConfiguration
from repro.workloads.multibus import multibus_system
from repro.workloads.powertrain import PowertrainConfig, powertrain_system
from repro.workloads.scaling import scaling_benchmark_case, synthetic_kmatrix


class UnknownWorkloadError(ValueError):
    """The requested generator name is not registered."""

    def __init__(self, name: str, known) -> None:
        super().__init__(
            f"unknown workload generator {name!r}; known: {sorted(known)}"
        )
        self.name = name


@dataclass(frozen=True)
class WorkloadDef:
    """One registered generator.

    ``params`` declares every accepted parameter (name and JSON kind;
    absent ones take the builder's defaults).  :meth:`expand` checks a
    request's parameters against them: an undeclared name or a value of
    another kind is a :class:`~repro.server.protocol.ProtocolError` -- a
    typo'd parameter silently falling back to a default, or ``8.7`` read
    as 8, would fingerprint (and cache) the wrong workload.
    """

    name: str
    kind: str  # "system" or "config"
    builder: Callable[..., "SystemModel | BusConfiguration"]
    params: tuple[Param, ...]
    description: str

    def expand(self, params: Mapping | None) -> "SystemModel | BusConfiguration":
        """Check ``params`` against the declarations and run the builder."""
        checked = Param(self.name, "object", fields=self.params).check(
            params or {}, f"workload {self.name!r}")
        # An absent (or null) parameter keeps the builder's default.
        return self.builder(**{key: value for key, value in checked.items() if value is not None})


class WorkloadRegistry:
    """Name -> generator table the daemon expands ``register`` requests with."""

    def __init__(self) -> None:
        self._defs: dict[str, WorkloadDef] = {}

    def add(self, definition: WorkloadDef) -> None:
        """Register (or replace) one generator definition."""
        self._defs[definition.name] = definition

    def names(self) -> list[str]:
        """Sorted generator names."""
        return sorted(self._defs)

    def get(self, name: str) -> WorkloadDef:
        """Definition of one generator (raises :class:`UnknownWorkloadError`)."""
        try:
            return self._defs[name]
        except KeyError:
            raise UnknownWorkloadError(name, self._defs) from None

    def expand(self, name: str, params: Mapping | None = None) -> "SystemModel | BusConfiguration":
        """Expand a named workload into a topology or bus configuration."""
        return self.get(name).expand(params)

    def describe(self) -> dict:
        """JSON-friendly listing (generator -> kind, params, description)."""
        return {
            name: {
                "kind": definition.kind,
                "params": sorted(param.name for param in definition.params),
                "description": definition.description,
            }
            for name, definition in sorted(self._defs.items())
        }


def _synthetic_bus(
    n_messages: int = 30,
    n_ecus: int = 6,
    seed: int = 0,
    bit_rate_bps: float = 500_000.0,
    id_policy: str = "block",
    error_interarrival_ms: float = 0.0,
    assumed_jitter_fraction: float = 0.0,
) -> BusConfiguration:
    kmatrix = synthetic_kmatrix(n_messages, n_ecus=n_ecus, seed=seed, id_policy=id_policy)
    error_model = (
        SporadicErrorModel(min_interarrival=error_interarrival_ms)
        if error_interarrival_ms > 0
        else NoErrors()
    )
    return BusConfiguration(
        kmatrix=kmatrix,
        bus=CanBus(name=f"Synthetic-{n_messages}", bit_rate_bps=bit_rate_bps),
        error_model=error_model,
        assumed_jitter_fraction=assumed_jitter_fraction,
    )


def _powertrain(
    n_messages: int = 54,
    n_ecus: int = 8,
    n_gateways: int = 2,
    seed: int = 2006,
    assumed_jitter_fraction: float = 0.0,
) -> BusConfiguration:
    config = PowertrainConfig(
        seed=seed, n_ecus=n_ecus, n_gateways=n_gateways, n_messages=n_messages
    )
    kmatrix, bus, controllers = powertrain_system(config)
    return BusConfiguration(
        kmatrix=kmatrix,
        bus=bus,
        controllers=controllers,
        assumed_jitter_fraction=assumed_jitter_fraction,
    )


def _scaling_case(n_messages: int = 60, seed: int = 1, n_ecus: int = 6) -> BusConfiguration:
    kmatrix, bus = scaling_benchmark_case(n_messages, seed=seed, n_ecus=n_ecus)
    return BusConfiguration(kmatrix=kmatrix, bus=bus)


def builtin_registry() -> WorkloadRegistry:
    """Registry of the builtin generator families."""
    registry = WorkloadRegistry()
    registry.add(
        WorkloadDef(
            name="multibus_chain",
            kind="system",
            builder=multibus_system,
            params=(
                Param("n_buses", "integer"),
                Param("messages_per_bus", "integer"),
                Param("seed", "integer"),
                Param("n_ecus", "integer"),
                Param("bit_rate_bps", "float"),
                Param("routes_per_gateway", "integer"),
                Param("error_interarrival_ms", "float"),
                Param("assumed_jitter_fraction", "float"),
                Param("polling_period_ms", "float"),
            ),
            description="Chain of CAN segments coupled by polling gateways.",
        )
    )
    registry.add(
        WorkloadDef(
            name="synthetic_bus",
            kind="config",
            builder=_synthetic_bus,
            params=(
                Param("n_messages", "integer"),
                Param("n_ecus", "integer"),
                Param("seed", "integer"),
                Param("bit_rate_bps", "float"),
                Param("id_policy", "string"),
                Param("error_interarrival_ms", "float"),
                Param("assumed_jitter_fraction", "float"),
            ),
            description="One random-but-valid synthetic K-Matrix on one bus.",
        )
    )
    registry.add(
        WorkloadDef(
            name="powertrain",
            kind="config",
            builder=_powertrain,
            params=(
                Param("n_messages", "integer"),
                Param("n_ecus", "integer"),
                Param("n_gateways", "integer"),
                Param("seed", "integer"),
                Param("assumed_jitter_fraction", "float"),
            ),
            description="The paper-style synthetic power-train case study.",
        )
    )
    registry.add(
        WorkloadDef(
            name="scaling_case",
            kind="config",
            builder=_scaling_case,
            params=(
                Param("n_messages", "integer"),
                Param("seed", "integer"),
                Param("n_ecus", "integer"),
            ),
            description="Constant-utilization scaling workload (perf sweeps).",
        )
    )
    return registry
