#!/usr/bin/env python3
"""Client-side serving benchmark of the analysis daemon over TCP.

Run from the repository root::

    python3 servebench/run.py --workload whatif_hot --seed 1 --seconds 15 \\
        --trace 0

The benchmark starts the unmodified daemon (``python -m repro.server --port
0``) as a child process, drives one of four workloads over TCP with
:class:`repro.server.client.TcpClient` (at most two connections and two
threads), checks every answer against an independent in-process
computation, and prints one line per metric (name, value, unit, sample
count) followed by one JSON object as the last line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice -- untraced, then with the daemon
started by ``servebench/traced_daemon.py`` and the client wrapped the same
way -- and reports the per-layer ledger (see ``servebench/README.md``).

Exit codes: 0 on a checked run, 1 when an answer was wrong or a request
failed (the result line still prints), 2 when the program under test is
missing or the arguments are bad (no result line).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Daemon start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_req": "ms",
    "daemon_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "client.encode_ms": "ms",
    "client.decode_ms": "ms",
    "client.response_bytes": "bytes",
    "tcp.overhead_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.encode_calls": "count",
    "protocol.result_json_ms": "ms",
    "protocol.frames_decode_ms": "ms",
    "daemon.handle_self_ms": "ms",
    "daemon.errors": "count",
    "daemon.counter_mismatch": "count",
    "session.query_self_ms": "ms",
    "session.build_analysis_ms": "ms",
    "session.queries": "count",
    "session.cache_hit_ratio": "ratio",
    "session.plan_reuse_share": "ratio",
    "session.plan_warm_share": "ratio",
    "session.plan_cold_share": "ratio",
    "analysis.solve_ms": "ms",
    "analysis.iterations": "count",
    "analysis.batch_size": "count",
    "whatif.query_self_ms": "ms",
    "whatif.cache_hit_ratio": "ratio",
    "engine.run_ms": "ms",
    "engine.session_queries_per_run": "count",
    "paths.latency_ms": "ms",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.hit_ratio": "ratio",
    "store.put_bytes": "bytes",
    "monitor.ingest_ms_per_frame": "ms",
    "monitor.ingest_growth": "ratio",
    "monitor.windows_closed": "count",
    "monitor.refits": "count",
    "monitor.status_ms": "ms",
    "loadgen.throughput_rps": "1/s",
    "loadgen.latency_p95_ms": "ms",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.late_p95_ms": "ms",
    "loadgen.primary_sent": "count",
    "loadgen.primary_ok": "count",
    "loadgen.primary_failed": "count",
    "loadgen.read_sent": "count",
    "loadgen.read_ok": "count",
    "loadgen.read_failed": "count",
    "loadgen.read_p50_ms": "ms",
    "loadgen.read_p95_ms": "ms",
    "loadgen.error_rate": "ratio",
    "trace.overhead_pct": "%",
}


# --------------------------------------------------------------------------- #
# Metrics-op snapshots
# --------------------------------------------------------------------------- #
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def labelled(snapshot: dict, section: str, name: str, label: str) -> dict:
    """``{label value: value}`` of one labelled counter or gauge family."""
    found = {}
    for full, value in snapshot.get(section, {}).items():
        if full.startswith(name + "{"):
            labels = dict(_LABEL.findall(full))
            if label in labels:
                found[labels[label]] = found.get(labels[label], 0) + value
    return found


def family_total(snapshot: dict, name: str) -> float:
    """Sum of one counter family over every label set."""
    return sum(value for full, value in snapshot.get("counters", {}).items()
               if full == name or full.startswith(name + "{"))


def histogram(snapshot: dict, name: str) -> tuple[float, float]:
    entry = snapshot.get("histograms", {}).get(name)
    return (entry["sum"], entry["count"]) if entry else (0.0, 0)


def reconcile(snapshot: dict, counts) -> int:
    """Requests and errors the daemon counted that the generator did not
    (or the other way round), summed over ops and error codes."""
    daemon_ops = labelled(snapshot, "counters", "daemon_requests_total", "op")
    daemon_codes = labelled(snapshot, "counters", "daemon_errors_total",
                            "code")
    mismatch = 0
    for mine, theirs in ((counts.sent, daemon_ops),
                         (counts.codes, daemon_codes)):
        for key in set(mine) | set(theirs):
            mismatch += abs(int(mine.get(key, 0)) - int(theirs.get(key, 0)))
    return mismatch


# --------------------------------------------------------------------------- #
# One pass: start the daemon, drive the workload, stop the daemon
# --------------------------------------------------------------------------- #
class Pass:
    """Everything one pass measured."""

    def __init__(self) -> None:
        self.setup_times: list[float] = []
        self.drive = None
        self.cpu_seconds = 0.0
        self.rss_mib = 0.0
        self.before: dict = {}
        self.after: dict = {}
        self.counts = None
        self.daemon_spans: list = []
        self.client_spans: list = []
        self.flags: list[str] = []


def run_pass(workload, seconds: float, setups: int, traced: bool,
             workdir: Path, index: int) -> Pass:
    from loadgen import (
        Connection,
        DaemonProcess,
        OpCounts,
        cpu_seconds,
        peak_rss_mib,
        server_command,
    )
    result = Pass()
    spans_path = workdir / f"spans-{index}.json"
    command = server_command()
    recorder = None
    if traced:
        from ledger import SpanRecorder
        from traced_daemon import install_client_spans
        command = [sys.executable, str(BENCH_DIR / "traced_daemon.py"),
                   "--spans-out", str(spans_path), "--"]
        recorder = SpanRecorder(request_starts={"client.roundtrip"})
        install_client_spans(recorder)
    workload.begin_pass(index)
    result.flags = workload.daemon_flags()
    daemon = conn = None
    try:
        for attempt in range(setups):
            result.counts = OpCounts()
            daemon = DaemonProcess(command, result.flags, SRC,
                                   workdir / "daemon.log")
            conn = Connection(daemon.port, result.counts)
            workload.first_answer(conn)
            result.setup_times.append(time.perf_counter() - daemon.started)
            if attempt + 1 < setups:
                # Only the last start-up is measured further; terminating
                # the others skips the shutdown op's half-second poll.
                daemon.kill()
                conn.close()
                daemon = conn = None
        workload.warm(conn)
        result.before = conn.call(
            "metrics", lambda client: client.metrics())[0]["metrics"]
        # The generator's own collector pauses would land in the measured
        # latencies: collect now and keep it off while the clock runs.
        gc.collect()
        gc.disable()
        try:
            cpu_start = cpu_seconds(daemon.pid)
            result.drive = workload.drive(
                conn, seconds, lambda: Connection(daemon.port, result.counts))
            result.cpu_seconds = cpu_seconds(daemon.pid) - cpu_start
        finally:
            gc.enable()
        result.rss_mib = peak_rss_mib(daemon.pid)
        workload.collect(conn, result.drive)
        result.after = conn.call(
            "metrics", lambda client: client.metrics())[0]["metrics"]
    finally:
        if daemon is not None:
            daemon.stop(conn.client if conn is not None else None)
        if conn is not None:
            conn.close()
        if recorder is not None:
            result.client_spans = recorder.to_json()
            recorder.uninstall()
    if traced:
        result.daemon_spans = json.loads(spans_path.read_text())
    return result


def spawner(workload, workdir: Path):
    """``spawn()`` for :meth:`Workload.prepare`: an untimed daemon."""
    from loadgen import Connection, DaemonProcess, OpCounts, server_command

    def spawn():
        daemon = DaemonProcess(server_command(), workload.daemon_flags(),
                               SRC, workdir / "daemon.log")
        try:
            return daemon, Connection(daemon.port, OpCounts())
        except BaseException:
            daemon.kill()
            raise
    return spawn


# --------------------------------------------------------------------------- #
# Metric computation
# --------------------------------------------------------------------------- #
def end_to_end(run: Pass) -> dict:
    """The bounded metrics of one pass (see ``servebench/README.md``)."""
    from loadgen import percentile
    drive = run.drive
    completed = len(drive.latencies) + len(drive.reads)
    return {
        "setup_s": statistics.median(run.setup_times),
        "latency_p50_ms": percentile(drive.latencies, 50) * 1000.0,
        "cpu_ms_per_req": run.cpu_seconds * 1000.0 / completed,
        "daemon_rss_mb": run.rss_mib,
    }


def ingest_growth(passes: list) -> float:
    """Median over passes of last-decile ÷ first-decile chunk latency."""
    ratios = []
    for chunks in passes:
        tenth = max(1, len(chunks) // 10)
        first = statistics.fmean(chunks[:tenth])
        last = statistics.fmean(chunks[-tenth:])
        ratios.append(last / first)
    return statistics.median(ratios) if ratios else 0.0


def engine_session_queries(spans: list, lower: float, upper: float) -> float:
    """Segment-session queries per compositional engine run in the window."""
    from ledger import NAME, PARENT, START
    runs = queries = 0
    for span in spans:
        if not lower <= span[START] <= upper:
            continue
        if span[NAME] == "engine.run":
            runs += 1
        elif span[NAME] == "session.query":
            parent = span[PARENT]
            while parent is not None:
                if spans[parent][NAME] == "engine.run":
                    queries += 1
                    break
                parent = spans[parent][PARENT]
    return queries / runs if runs else 0.0


def loadgen_metrics(workload, run: Pass, wrong: int) -> dict:
    from loadgen import percentile
    drive = run.drive
    reads_ms = [s * 1000.0 for s in drive.reads]
    latencies_ms = [s * 1000.0 for s in drive.latencies]
    attempted = len(drive.latencies) + drive.primary_failed + drive.read_sent
    failed = drive.primary_failed + drive.read_failed
    return {
        "loadgen.throughput_rps": len(drive.latencies) / drive.seconds,
        "loadgen.latency_p95_ms": percentile(latencies_ms, 95),
        "loadgen.latency_p99_ms": percentile(latencies_ms, 99),
        "loadgen.late_p95_ms": percentile(
            [s * 1000.0 for s in drive.lateness], 95)
        if drive.lateness else 0.0,
        "loadgen.primary_sent": len(drive.latencies) + drive.primary_failed,
        "loadgen.primary_ok": len(drive.latencies),
        "loadgen.primary_failed": drive.primary_failed,
        "loadgen.read_sent": drive.read_sent,
        "loadgen.read_ok": len(drive.reads),
        "loadgen.read_failed": drive.read_failed,
        "loadgen.read_p50_ms": percentile(reads_ms, 50) if reads_ms else 0.0,
        "loadgen.read_p95_ms": percentile(reads_ms, 95) if reads_ms else 0.0,
        "loadgen.error_rate": (failed + wrong) / attempted,
    }


def per_layer(workload, untraced: Pass, traced: Pass, wrong: int) -> dict:
    from ledger import RequestLedger, roots_in_window
    drive = traced.drive
    lower, upper = drive.started, drive.ended
    spans = traced.daemon_spans
    op = workload.primary_op
    d = RequestLedger(spans, roots_in_window(
        spans, "daemon.handle", op, lower, upper))
    c = RequestLedger(traced.client_spans, roots_in_window(
        traced.client_spans, "client.roundtrip", op, lower, upper))
    status = RequestLedger(spans, roots_in_window(
        spans, "daemon.handle", "monitor_status", lower, upper))
    n = max(d.requests, 1)
    before, after = traced.before, traced.after

    def delta(name: str) -> float:
        return family_total(after, name) - family_total(before, name)

    def labelled_delta(name: str, label: str) -> dict:
        now = labelled(after, "counters", name, label)
        then = labelled(before, "counters", name, label)
        return {key: now[key] - then.get(key, 0) for key in now}

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    plan = labelled_delta("session_plan_messages_total", "action")
    plan_total = sum(plan.values())
    lookups = labelled_delta("store_lookups_total", "result")
    iterations = [a - b for a, b in zip(histogram(after, "solver_iterations"),
                                        histogram(before, "solver_iterations"))]
    batch = [a - b for a, b in zip(histogram(after, "solver_batch_size"),
                                   histogram(before, "solver_batch_size"))]
    daemon_side = (d.per_request_ms("tcp.decode_line")
                   + d.per_request_ms("daemon.handle")
                   + d.per_request_ms("tcp.encode_line"))
    untraced_p50 = end_to_end(untraced)["latency_p50_ms"]
    traced_p50 = end_to_end(traced)["latency_p50_ms"]
    metrics = {
        "client.encode_ms": c.per_request_ms("client.encode_line"),
        "client.decode_ms": c.per_request_ms("client.decode_line"),
        "client.response_bytes": c.per_request("client.decode_line", c.meta),
        "tcp.overhead_ms": c.per_request_ms("client.roundtrip", "self")
        - daemon_side,
        "protocol.decode_ms": d.per_request_ms("tcp.decode_line"),
        "protocol.encode_ms": d.per_request_ms("tcp.encode_line"),
        "protocol.encode_calls": d.per_request("tcp.encode_line", d.calls),
        "protocol.result_json_ms":
            d.per_request_ms("protocol.query_result_to_json")
            + d.per_request_ms("protocol.system_query_result_to_json"),
        "protocol.frames_decode_ms":
            d.per_request_ms("protocol.frames_from_json"),
        "daemon.handle_self_ms": d.per_request_ms("daemon.handle", "self"),
        "daemon.errors": family_total(untraced.after, "daemon_errors_total")
        + family_total(after, "daemon_errors_total"),
        "daemon.counter_mismatch": reconcile(untraced.after, untraced.counts)
        + reconcile(after, traced.counts),
        "session.query_self_ms": d.per_request_ms("session.query", "self"),
        "session.build_analysis_ms":
            d.per_request_ms("session.build_analysis"),
        "session.queries": delta("session_queries_total") / n,
        "session.cache_hit_ratio": ratio(delta("session_cache_hits_total"),
                                         delta("session_queries_total")),
        "session.plan_reuse_share": ratio(plan.get("reuse", 0), plan_total),
        "session.plan_warm_share": ratio(plan.get("warm", 0), plan_total),
        "session.plan_cold_share": ratio(plan.get("cold", 0), plan_total),
        "analysis.solve_ms":
            d.per_request_ms("analysis.response_times_batch"),
        "analysis.iterations": iterations[0] / n,
        "analysis.batch_size": ratio(batch[0], batch[1]),
        "whatif.query_self_ms": d.per_request_ms("whatif.query", "self"),
        "whatif.cache_hit_ratio": ratio(delta("system_cache_hits_total"),
                                        delta("system_queries_total")),
        "engine.run_ms": d.per_request_ms("engine.run"),
        "engine.session_queries_per_run":
            engine_session_queries(spans, lower, upper),
        "paths.latency_ms": d.per_request_ms("paths.path_latency_all"),
        "store.get_ms": d.per_request_ms("store.get"),
        "store.put_ms": d.per_request_ms("store.put"),
        "store.hit_ratio": ratio(lookups.get("hit", 0),
                                 sum(lookups.values())),
        "store.put_bytes": d.per_request("store.put", d.meta),
        "monitor.ingest_ms_per_frame": ratio(
            d.inclusive.get("monitor.ingest", 0.0) * 1000.0,
            delta("monitor_frames_total")),
        "monitor.ingest_growth": ingest_growth(untraced.drive.passes),
        "monitor.windows_closed": delta("monitor_windows_total") / n,
        "monitor.refits": ratio(delta("monitor_refits_total"),
                                len(drive.passes)),
        "monitor.status_ms": status.per_request_ms("monitor.status"),
        "trace.overhead_pct": (traced_p50 - untraced_p50)
        / untraced_p50 * 100.0,
    }
    metrics.update(loadgen_metrics(workload, untraced, wrong))
    return metrics


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def describe_run(workload, args, run: Pass) -> list[str]:
    from loadgen import summarize
    drive = run.drive
    lines = [
        f"# workload {workload.name} seed {args.seed} "
        f"seconds {args.seconds} trace {args.trace}",
        f"# nproc {os.cpu_count()} python {platform.python_version()} "
        f"REPRO_PARALLEL={os.environ.get('REPRO_PARALLEL', '(unset)')} "
        f"daemon flags: {' '.join(run.flags)}",
        f"# measured {drive.seconds:.3f} s, {len(drive.latencies)} "
        f"{workload.primary_op} ok, {drive.primary_failed} failed; "
        f"setup runs {len(run.setup_times)}",
    ]
    latencies_ms = [s * 1000.0 for s in drive.latencies]
    for q in (50, 95, 99):
        s = summarize(latencies_ms, q)
        lines.append(f"#   latency p{q}: {s['value']:.6g} ms n={s['n']} "
                     f"beyond={s['beyond']}")
    if drive.reads:
        reads_ms = [s * 1000.0 for s in drive.reads]
        for q in (50, 95):
            s = summarize(reads_ms, q)
            lines.append(f"read_p{q}_ms {s['value']:.6g} ms "
                         f"(n={s['n']}, beyond={s['beyond']})")
    counts = run.counts
    for op in sorted(counts.sent):
        lines.append(f"#   op {op}: sent {counts.sent[op]} ok "
                     f"{counts.ok.get(op, 0)} failed "
                     f"{counts.failed.get(op, 0)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds through the finally blocks that stop
    # the daemon and join the reference workers.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "server" / "__main__.py").is_file():
        print(f"error: the program under test is missing: no "
              f"src/repro/server next to {BENCH_DIR.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import scenarios

    workdir = ROOT / ".servebench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = scenarios.make(args.workload, args.seed, workdir)
        if workload is None:
            print(f"error: unknown workload {args.workload!r}; known: "
                  f"{', '.join(scenarios.WORKLOADS)}", file=sys.stderr)
            return 2
        workload.prepare(spawner(workload, workdir))
        if args.trace:
            untraced = run_pass(workload, args.seconds, 1, False, workdir, 0)
            traced = run_pass(workload, args.seconds, 1, True, workdir, 1)
            runs = [untraced, traced]
        else:
            untraced = run_pass(workload, args.seconds, SETUPS, False,
                                workdir, 0)
            runs = [untraced]
        problems = []
        for run in runs:
            problems.extend(workload.check(run.drive))
        wrong = len(problems)
        lines = []
        for run in runs:
            lines.extend(describe_run(workload, args, run))
        lines.append(f"# answers checked: "
                     f"{sum(len(r.drive.answers) for r in runs)}, "
                     f"wrong: {wrong}")
        lines.extend(f"# WRONG {problem}" for problem in problems[:10])
        e2e = end_to_end(untraced)
        mismatch = sum(reconcile(r.after, r.counts) for r in runs)
        loadgen = loadgen_metrics(workload, untraced, wrong)
        for name, value in e2e.items():
            lines.append(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
        lines.append(f"throughput_rps "
                     f"{loadgen['loadgen.throughput_rps']:.6g} 1/s")
        lines.append(f"error_rate {loadgen['loadgen.error_rate']:.6g} ratio")
        if args.trace:
            values = per_layer(workload, untraced, traced, wrong)
            units = PER_LAYER_UNITS
            for name, value in values.items():
                lines.append(f"{name} {value:.6g} {units[name]}")
        else:
            values, units = e2e, END_TO_END_UNITS
            lines.append(f"daemon.counter_mismatch {mismatch} count")
        print("\n".join(lines))
        attempted = sum(len(r.drive.latencies) + r.drive.primary_failed
                        + r.drive.read_sent for r in runs)
        failed = sum(r.drive.primary_failed + r.drive.read_failed
                     for r in runs) + wrong
        print(json.dumps({
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
