"""The four workloads: seeded inputs, set-up, the timed drive and the checks.

Every input comes from repro's own seeded generators and a
``random.Random(seed)``; the daemon receives only the generated requests.
A workload object is built once per run and serves both passes of a traced
run, so the same seed replays the same request stream and the reference
answers are computed once per distinct request.

The timed drive of every workload returns a :class:`Drive`: primary-request
latencies, dashboard-read latencies and generator lateness (open loop only),
the timed window on the shared monotonic clock, and the answers to check.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import shutil
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional

from answers import (
    bus_reference,
    check_final_status,
    check_ingest,
    check_query,
    check_status_read,
    check_system_query,
    monitor_reference,
    system_reference,
)

#: The CLI daemon's ``powertrain`` target, rebuilt here for the reference
#: answers (``python -m repro.server`` registers exactly this).
POWERTRAIN_MESSAGES = 80
POWERTRAIN_JITTER_FRACTION = 0.15


def powertrain_config():
    from repro.service.deltas import BusConfiguration
    from repro.workloads.powertrain import (
        PowertrainConfig,
        powertrain_bus,
        powertrain_controllers,
        powertrain_kmatrix,
    )
    config = PowertrainConfig(n_messages=POWERTRAIN_MESSAGES)
    return BusConfiguration(
        kmatrix=powertrain_kmatrix(config), bus=powertrain_bus(config),
        assumed_jitter_fraction=POWERTRAIN_JITTER_FRACTION,
        controllers=powertrain_controllers(config))


@dataclass
class Drive:
    """What one timed drive measured and received."""

    started: float = 0.0
    ended: float = 0.0
    latencies: list = field(default_factory=list)       # seconds, primary
    reads: list = field(default_factory=list)           # seconds from due
    lateness: list = field(default_factory=list)        # seconds late
    primary_failed: int = 0
    read_sent: int = 0
    read_failed: int = 0
    passes: list = field(default_factory=list)          # monitor: per pass
    answers: list = field(default_factory=list)         # (kind, key, value)

    @property
    def seconds(self) -> float:
        return self.ended - self.started


#: Worker processes that compute reference answers after the timed region,
#: when the daemon has stopped; fewer jobs than ``_POOL_MIN_JOBS`` run
#: inline, since a worker's start-up would cost more than it saves.
CHECK_WORKERS = 2
_POOL_MIN_JOBS = 16


def compute_references(function, jobs: dict) -> dict:
    """``{key: function(*args)}`` for ``jobs = {key: args}``."""
    keys = list(jobs)
    if len(keys) < _POOL_MIN_JOBS:
        return {key: function(*jobs[key]) for key in keys}
    # Forked workers, not spawned ones: the spawn and forkserver methods
    # start a resource-tracker process that nothing joins and that outlives
    # the benchmark.  A fork pool starts every worker before its manager
    # thread, and leaving the ``with`` block joins each of them.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=context) as pool:
        values = pool.map(function, *zip(*(jobs[key] for key in keys)),
                          chunksize=8)
        return dict(zip(keys, values))


def blocks(rng: random.Random, recipe) -> Iterator[str]:
    """Endless request kinds: every block holds each kind of ``recipe`` its
    count of times, in a seeded order, so every seed sends the same mix."""
    while True:
        block = [kind for kind, count in recipe for _ in range(count)]
        rng.shuffle(block)
        yield from block


def round_robin(rng: random.Random, items) -> Iterator:
    """Every item once per round, each round in a fresh seeded order."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _closed_loop(conn, seconds: float, next_request, call) -> Drive:
    """Send ``next_request()`` back to back until ``seconds`` have passed."""
    drive = Drive(started=time.perf_counter())
    deadline = drive.started + seconds
    while True:
        key, request = next_request()
        result, elapsed, code = call(conn, request)
        if code is None:
            drive.latencies.append(elapsed)
            drive.answers.append(("primary", key, result))
        else:
            drive.primary_failed += 1
        if time.perf_counter() >= deadline:
            break
    drive.ended = time.perf_counter()
    return drive


class Workload:
    """Shared shape; subclasses fill in the traffic."""

    name = ""
    primary_op = ""
    target = "powertrain"

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self._references: dict = {}

    def daemon_flags(self) -> list[str]:
        return ["--port", "0"]

    def prepare(self, spawn) -> None:
        """Untimed input preparation before the first measured daemon."""

    def begin_pass(self, index: int) -> None:
        """Reset per-pass state, so every pass replays the same stream."""

    def first_answer(self, conn) -> None:
        raise NotImplementedError

    def warm(self, conn) -> None:
        """Untimed warm-up on the daemon about to be measured."""

    def drive(self, conn, seconds: float, connect) -> Drive:
        raise NotImplementedError

    def collect(self, conn, drive: Drive) -> None:
        """Untimed reads of end-of-run state, before the final metrics."""

    def check(self, drive: Drive) -> list[str]:
        raise NotImplementedError

    def _references_for(self, function, jobs: dict) -> dict:
        """Reference answers ``function(*args)`` for ``jobs = {key: args}``,
        each distinct request computed once per run."""
        missing = {key: args for key, args in jobs.items()
                   if key not in self._references}
        self._references.update(compute_references(function, missing))
        return self._references


# --------------------------------------------------------------------------- #
# Single-bus what-if workloads
# --------------------------------------------------------------------------- #
class _WhatIf(Workload):
    primary_op = "query"

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        from repro.server.protocol import deltas_to_json
        self._to_json = deltas_to_json
        self.config = powertrain_config()
        self.messages = list(self.config.kmatrix)
        self._restart()

    def _restart(self) -> None:
        self.rng = random.Random(self.seed)
        self._kinds = blocks(self.rng, (("jitter", 15), ("swap", 3),
                                        ("error", 2)))
        self._jittered = round_robin(self.rng, self.messages)
        self._seen: set = set()

    def _fresh_deltas(self) -> tuple:
        """A delta sequence naming a configuration not drawn before.

        Each block of 20 holds 15 single-message ``JitterDelta``s (messages
        in a reshuffled round robin), 3 ``PriorityDelta`` swaps and 2
        ``ErrorModelDelta``s; the values come from the seeded generator.
        """
        from repro.errors.models import SporadicErrorModel
        from repro.service.deltas import (
            ErrorModelDelta,
            JitterDelta,
            PriorityDelta,
        )
        while True:
            kind = next(self._kinds)
            if kind == "jitter":
                message = next(self._jittered)
                deltas = (JitterDelta(
                    message_name=message.name,
                    jitter=self.rng.uniform(0.0, 0.3 * message.period)),)
            elif kind == "swap":
                first, second = self.rng.sample(self.messages, 2)
                deltas = (PriorityDelta(swap=(first.name, second.name)),)
            else:
                deltas = (ErrorModelDelta(SporadicErrorModel(
                    min_interarrival=self.rng.uniform(10.0, 100.0))),)
            key = repr(self._to_json(deltas))
            if key not in self._seen:
                self._seen.add(key)
                return key, deltas

    @staticmethod
    def _query(conn, deltas):
        result, elapsed, code = conn.call(
            "query", lambda client: client.query("powertrain", deltas))
        if result is not None:
            result = {name: entry["worst_case"]
                      for name, entry in result["results"].items()}
        return result, elapsed, code

    def first_answer(self, conn) -> None:
        result, _, code = self._query(conn, ())
        if code is not None:
            raise RuntimeError(f"first query failed: {code}")

    def check(self, drive: Drive) -> list[str]:
        references = self._references_for(bus_reference, {
            key: (self.config, deltas)
            for _, (key, deltas), _ in drive.answers})
        problems = []
        for _, (key, _), worst in drive.answers:
            problem = check_query({"results": {
                name: {"worst_case": value} for name, value in worst.items()}},
                references[key])
            if problem:
                problems.append(f"{key}: {problem}")
        return problems


class WhatIfSweep(_WhatIf):
    """Every query asks for a configuration the session has not seen."""

    name = "whatif_sweep"

    def begin_pass(self, index: int) -> None:
        self._restart()

    def drive(self, conn, seconds: float, connect) -> Drive:
        def next_request():
            key, deltas = self._fresh_deltas()
            return (key, deltas), deltas
        return _closed_loop(conn, seconds, next_request,
                            lambda c, deltas: self._query(c, deltas))


class WhatIfHot(_WhatIf):
    """A small hot set, warmed untimed, so every query is a cache hit."""

    name = "whatif_hot"
    #: Well below the daemon's per-session LRU of 64 configurations.
    HOT_SET = 24

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        self.hot = [self._fresh_deltas() for _ in range(self.HOT_SET)]

    def warm(self, conn) -> None:
        for _, deltas in self.hot:
            if self._query(conn, deltas)[2] is not None:
                raise RuntimeError("hot-set warm-up query failed")

    def drive(self, conn, seconds: float, connect) -> Drive:
        pick = random.Random(self.seed + 1)

        def next_request():
            key, deltas = pick.choice(self.hot)
            return (key, deltas), deltas
        return _closed_loop(conn, seconds, next_request,
                            lambda c, deltas: self._query(c, deltas))


# --------------------------------------------------------------------------- #
# System-level exploration
# --------------------------------------------------------------------------- #
class SystemExplore(Workload):
    """Topology what-ifs against a gateway chain registered over the wire."""

    name = "system_explore"
    primary_op = "system_query"
    target = "fleet"
    #: multibus_chain parameters: a miss costs tens of milliseconds.
    PARAMS = {"n_buses": 4, "messages_per_bus": 30, "seed": 7}
    #: Every n-th new configuration is published by the earlier daemon
    #: generation, so the measured daemon reads it from the store.
    STORE_EVERY = 10
    #: Revisits pick among this many most recent distinct configurations
    #: (the system session keeps 128).
    RECENT = 48
    #: Requests materialised up front, replayed cyclically if a run
    #: outlasts them.
    STREAM = 4000
    #: The earlier generation publishes within this many leading requests
    #: (more than a run reaches in its measured seconds).
    POPULATE_SPAN = 600

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        from repro.workloads.multibus import multibus_paths, multibus_system
        params = dict(self.PARAMS)
        self.params = params
        self.system = multibus_system(**params)
        self.paths = multibus_paths(self.system)
        self.seed_store = workdir / "store-seed"
        self.store_dir = self.seed_store
        self.stream = self._build_stream(random.Random(seed))

    def daemon_flags(self) -> list[str]:
        return ["--port", "0", "--store-dir", str(self.store_dir)]

    def _new_deltas(self, kind: str, rng: random.Random, buses,
                    gateways) -> tuple:
        from repro.service.deltas import JitterDelta
        from repro.whatif.system_deltas import (
            AddGatewayRouteDelta,
            BusSpeedDelta,
            GatewayConfigDelta,
            MoveMessageDelta,
            RemoveGatewayRouteDelta,
            SegmentConfigDelta,
        )
        if kind == "speed":
            bus = next(buses)
            rate = self.system.buses[bus].bus.bit_rate_bps
            return (BusSpeedDelta(bus, rate * rng.uniform(0.6, 1.0)),)
        if kind == "jitter":
            return (SegmentConfigDelta(next(buses), (
                JitterDelta(fraction=rng.uniform(0.05, 0.35)),)),)
        if kind == "gateway":
            return (GatewayConfigDelta(
                next(gateways), polling_period=rng.uniform(1.0, 8.0)),)
        if kind == "failover":
            gateway = next(gateways)
            route = rng.choice(self.system.gateways[gateway].routes)
            return (RemoveGatewayRouteDelta(gateway,
                                            route.destination_message),
                    AddGatewayRouteDelta(
                        f"{gateway}-backup", route,
                        polling_period=rng.uniform(2.0, 8.0)))
        source, target = rng.sample(sorted(self.system.buses), 2)
        movable = self.system.buses[source].kmatrix.sorted_by_priority()[-1]
        top = max(m.can_id for m in self.system.buses[target].kmatrix)
        return (MoveMessageDelta(movable.name, target,
                                 new_can_id=top + rng.randint(1, 200)),)

    def _build_stream(self, rng: random.Random) -> list:
        """The request stream: blocks of 20 with 4 revisits of a recent
        configuration and 16 new ones (5 bus-speed, 5 segment-jitter,
        4 gateway-polling, 1 failover, 1 message move), buses and gateways
        in reshuffled round robin."""
        from repro.server.protocol import system_deltas_to_json
        kinds = blocks(rng, (("revisit", 4), ("speed", 5), ("jitter", 5),
                             ("gateway", 4), ("failover", 1), ("move", 1)))
        buses = round_robin(rng, sorted(self.system.buses))
        gateways = round_robin(rng, sorted(self.system.gateways))
        stream, recent, seen = [], [], set()
        while len(stream) < self.STREAM:
            kind = next(kinds)
            if kind == "revisit" and recent:
                stream.append(rng.choice(recent[-self.RECENT:]) + (False,))
                continue
            if kind == "revisit":
                kind = "speed"
            deltas = self._new_deltas(kind, rng, buses, gateways)
            key = repr(system_deltas_to_json(deltas))
            if key in seen:
                continue
            seen.add(key)
            recent.append((key, deltas))
            stream.append((key, deltas,
                           len(recent) % self.STORE_EVERY == 0))
        return stream

    def begin_pass(self, index: int) -> None:
        """Each pass restarts from the store the earlier generation left."""
        self.store_dir = self.workdir / f"store-pass{index}"
        shutil.copytree(self.seed_store, self.store_dir)

    def _query(self, conn, deltas):
        result, elapsed, code = conn.call(
            "system_query", lambda client: client.system_query(
                self.target, deltas, paths=self.paths))
        if result is not None:
            result = {"messages": {name: {"worst_case": entry["worst_case"]}
                                   for name, entry
                                   in result["messages"].items()},
                      "paths": result.get("paths", [])}
        return result, elapsed, code

    def _register(self, conn) -> None:
        _, _, code = conn.call(
            "register", lambda client: client.register_workload(
                self.target, "multibus_chain", self.params))
        if code is not None:
            raise RuntimeError(f"register failed: {code}")

    def prepare(self, spawn) -> None:
        """An earlier daemon generation publishes part of the stream."""
        daemon, conn = spawn()
        try:
            self._register(conn)
            leading = self.stream[:self.POPULATE_SPAN]
            for _, deltas, stored in [(None, (), True)] + leading:
                if stored and self._query(conn, deltas)[2] is not None:
                    raise RuntimeError("store population query failed")
        finally:
            daemon.stop(conn.client)
            conn.close()

    def first_answer(self, conn) -> None:
        self._register(conn)
        if self._query(conn, ())[2] is not None:
            raise RuntimeError("first system query failed")

    def drive(self, conn, seconds: float, connect) -> Drive:
        position = itertools.cycle(self.stream)

        def next_request():
            key, deltas, _ = next(position)
            return (key, deltas), deltas
        return _closed_loop(conn, seconds, next_request,
                            lambda c, deltas: self._query(c, deltas))

    def check(self, drive: Drive) -> list[str]:
        references = self._references_for(system_reference, {
            key: (self.system, deltas, self.paths)
            for _, (key, deltas), _ in drive.answers})
        problems = []
        for _, (key, _), answer in drive.answers:
            problem = check_system_query(answer, references[key])
            if problem:
                problems.append(f"{key}: {problem}")
        return problems


# --------------------------------------------------------------------------- #
# Conformance monitoring with dashboard reads
# --------------------------------------------------------------------------- #
class MonitorReplay(Workload):
    """Closed-loop ``monitor_ingest`` replay plus open-loop dashboard reads."""

    name = "monitor_replay"
    primary_op = "monitor_ingest"
    #: Simulated bus time (ms), frames per ingest request and requests per
    #: pass.  Every chunk closes a window, so chunk latency rises with the
    #: chunk's position in the pass; with an odd number of chunks the median
    #: over whole passes is one position's latency, not the midpoint of two
    #: neighbours that differ by a step of that rise.
    REPLAY_MS = 4000.0
    CHUNK = 1024
    CHUNKS = 13
    #: Dashboard reads per second on the second connection.
    READ_RATE = 20.0

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        from repro.monitor import chunked, frames_from_trace, inject_jitter_burst
        from repro.sim import CanBusSimulator, SimulationConfig
        self.config = powertrain_config()
        rng = random.Random(seed)
        trace = CanBusSimulator(
            self.config.kmatrix, self.config.bus,
            controllers=self.config.controllers,
            config=SimulationConfig(duration=self.REPLAY_MS,
                                    seed=rng.randrange(1 << 30))).run()
        frames = frames_from_trace(trace)
        # A burst far past the registered jitter on the lowest-priority
        # 100 ms message, so the observed envelope escapes and the monitor
        # refits; fixed, so seeds differ only in the recorded traffic.
        victim = max((m for m in self.config.kmatrix if m.period == 100.0),
                     key=lambda m: m.can_id)
        frames = inject_jitter_burst(
            frames, victim.name, start=500.0, count=5,
            shift=0.8 * victim.period)
        if len(frames) < self.CHUNK * self.CHUNKS:
            raise RuntimeError(f"recorded trace too short: {len(frames)} "
                               f"frames for {self.CHUNKS} chunks")
        frames = frames[:self.CHUNK * self.CHUNKS]
        self.chunks = list(chunked(frames, self.CHUNK))

    def _start(self, conn) -> None:
        _, _, code = conn.call(
            "monitor_start", lambda client: client.monitor_start(self.target))
        if code is not None:
            raise RuntimeError(f"monitor_start failed: {code}")

    def first_answer(self, conn) -> None:
        self._start(conn)

    def _pass(self, conn, drive: Drive) -> None:
        self._start(conn)
        last = len(self.chunks) - 1
        requests = [(chunk, index == last)
                    for index, chunk in enumerate(self.chunks)]
        latencies = []
        for index, (chunk, flush) in enumerate(requests):
            result, elapsed, code = conn.call(
                "monitor_ingest", lambda client: client.monitor_ingest(
                    self.target, chunk, flush=flush))
            if code is None:
                drive.latencies.append(elapsed)
                latencies.append(elapsed)
                drive.answers.append(("ingest", index, result))
            else:
                drive.primary_failed += 1
        drive.passes.append(latencies)

    def _reader(self, conn, stop: threading.Event, drive: Drive) -> None:
        """Open loop: reads are due every 1/READ_RATE s, alternating a hot
        ``query`` and ``monitor_status``; each is timed from when it was
        due, so a stalled read delays the ones queued behind it."""
        period = 1.0 / self.READ_RATE
        due = time.perf_counter()
        index = 0
        while not stop.is_set():
            now = time.perf_counter()
            if now < due:
                stop.wait(due - now)
                continue
            drive.lateness.append(now - due)
            if index % 2 == 0:
                result, _, code = conn.call(
                    "query", lambda client: client.query(self.target, ()))
                kind = "read_query"
                if result is not None:
                    result = {name: entry["worst_case"]
                              for name, entry in result["results"].items()}
            else:
                result, _, code = conn.call(
                    "monitor_status",
                    lambda client: client.monitor_status(self.target))
                kind = "read_status"
            drive.read_sent += 1
            if code is None:
                drive.reads.append(time.perf_counter() - due)
                drive.answers.append((kind, None, result))
            else:
                drive.read_failed += 1
            index += 1
            due += period

    def drive(self, conn, seconds: float, connect) -> Drive:
        drive = Drive()
        reader_conn = connect()
        stop = threading.Event()
        reader = threading.Thread(target=self._reader,
                                  args=(reader_conn, stop, drive),
                                  name="servebench-reader")
        drive.started = time.perf_counter()
        reader.start()
        try:
            deadline = drive.started + seconds
            while True:
                self._pass(conn, drive)
                if time.perf_counter() >= deadline:
                    break
        finally:
            stop.set()
            reader.join()
            drive.ended = time.perf_counter()
            reader_conn.close()
        return drive

    def collect(self, conn, drive: Drive) -> None:
        final, _, code = conn.call(
            "monitor_status", lambda client: client.monitor_status(self.target))
        drive.answers.append(("final_status", code, final))

    def check(self, drive: Drive) -> list[str]:
        expected = self._references_for(
            monitor_reference, {"replay": (self.config, self.chunks)})["replay"]
        base = self._references_for(
            bus_reference, {"base": (self.config, ())})["base"]
        problems = []
        for kind, index, answer in drive.answers:
            if kind == "ingest":
                problem = check_ingest(answer, expected["reports"][index])
            elif kind == "final_status":
                problem = f"final monitor_status failed: {index}" \
                    if answer is None \
                    else check_final_status(answer, expected["status"])
            elif kind == "read_query":
                problem = check_query({"results": {
                    name: {"worst_case": value}
                    for name, value in answer.items()}}, base)
            else:
                problem = check_status_read(answer, expected["states"])
            if problem:
                problems.append(f"{kind}: {problem}")
        return problems


WORKLOADS = {cls.name: cls for cls in
             (WhatIfSweep, WhatIfHot, SystemExplore, MonitorReplay)}


def make(name: str, seed: int, workdir) -> Optional[Workload]:
    """The workload called ``name`` (``None`` for an unknown name)."""
    cls = WORKLOADS.get(name)
    return cls(seed, workdir) if cls is not None else None
