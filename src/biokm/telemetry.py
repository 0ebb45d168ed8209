"""Measurement quantities derived from captured traffic.

A capture is a JSON Lines file holding one record per client session
(socket-boundary packet/byte counters plus start and departure
timestamps on the monotonic clock) and a single run record marking the
measurement window.  From those counters this module derives the rates
that drive both utilization models:

* throughput: received bits per second over the whole run window,
* capacity: received bits per second over the summed session time,
* arrival and service rates in packets per second,
* aggregate response: throughput over capacity, the utilization figure,
  valid while throughput does not exceed capacity.

All durations are stored in milliseconds and converted to seconds only
at rate derivation; derivations run on immutable snapshots.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable


class ZeroDuration(ValueError):
    """A rate was requested over a nonpositive time window."""


class ZeroCapacity(ValueError):
    """Aggregate response requested with nonpositive capacity."""


class EmptyInput(ValueError):
    """An aggregate was requested over no runs."""


class CaptureFormatError(ValueError):
    """Capture file is missing records or fields."""


@dataclass
class SessionMetrics:
    """Per-connection counters kept at the socket boundary.

    One thread counts into and reads each instance, the server's loop or
    the load generator's, so no lock guards it; other threads see copies
    that ``snapshot()`` took on that thread.
    """

    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    start_mono_ms: float = 0.0
    departure_mono_ms: float | None = None

    def count_sent(self, nbytes: int) -> None:
        self.packets_sent += 1
        self.bytes_sent += nbytes

    def count_received(self, nbytes: int) -> None:
        self.packets_received += 1
        self.bytes_received += nbytes

    @property
    def service_time_ms(self) -> float:
        if self.departure_mono_ms is None:
            return 0.0
        return self.departure_mono_ms - self.start_mono_ms

    def snapshot(self) -> "SessionMetrics":
        return replace(self)


def throughput_bps(payload_bytes: float, elapsed_ms: float) -> float:
    """Received bits per second over the whole measurement window."""
    if elapsed_ms <= 0:
        raise ZeroDuration(f"elapsed_ms must be positive, got {elapsed_ms}")
    return payload_bytes * 8.0 / (elapsed_ms / 1000.0)


def capacity_bps(payload_bytes: float, service_ms: float) -> float:
    """Received bits per second over the summed session service time."""
    if service_ms <= 0:
        raise ZeroDuration(f"service_ms must be positive, got {service_ms}")
    return payload_bytes * 8.0 / (service_ms / 1000.0)


def rates(packets: float, elapsed_ms: float, service_ms: float) -> tuple[float, float]:
    """Arrival and service rates in packets per second."""
    if elapsed_ms <= 0 or service_ms <= 0:
        raise ZeroDuration(
            f"durations must be positive, got elapsed={elapsed_ms} service={service_ms}"
        )
    return packets / (elapsed_ms / 1000.0), packets / (service_ms / 1000.0)


@dataclass(frozen=True)
class AggregateResponse:
    """Utilization as throughput over capacity, with its idle complement."""

    utilization: float
    idle: float
    within_capacity: bool


def aggregate_response(throughput: float, capacity: float) -> AggregateResponse:
    """Utilization = throughput / capacity; flags the capacity constraint."""
    if capacity <= 0:
        raise ZeroCapacity(f"capacity must be positive, got {capacity}")
    q = throughput / capacity
    return AggregateResponse(utilization=q, idle=1.0 - q, within_capacity=q <= 1.0)


@dataclass(frozen=True)
class RunMetrics:
    """One run's received-side counters and the four derived rates."""

    label: str
    payload_bytes: float
    packets: float
    elapsed_ms: float
    service_ms: float
    arrival_rate: float
    service_rate: float
    throughput: float
    capacity: float

    @classmethod
    def from_counters(
        cls,
        label: str,
        packets: float,
        payload_bytes: float,
        elapsed_ms: float,
        service_ms: float,
    ) -> "RunMetrics":
        lam, mu = rates(packets, elapsed_ms, service_ms)
        return cls(
            label=label,
            payload_bytes=payload_bytes,
            packets=packets,
            elapsed_ms=elapsed_ms,
            service_ms=service_ms,
            arrival_rate=lam,
            service_rate=mu,
            throughput=throughput_bps(payload_bytes, elapsed_ms),
            capacity=capacity_bps(payload_bytes, service_ms),
        )


def average_runs(runs: Iterable[RunMetrics]) -> RunMetrics:
    """Arithmetic mean of the derived rates (not the raw counters)."""
    runs = list(runs)
    if not runs:
        raise EmptyInput("no runs to average")
    n = len(runs)

    def mean(pick):
        return sum(pick(r) for r in runs) / n

    return RunMetrics(
        label="average(%s)" % ",".join(r.label for r in runs),
        payload_bytes=mean(lambda r: r.payload_bytes),
        packets=mean(lambda r: r.packets),
        elapsed_ms=mean(lambda r: r.elapsed_ms),
        service_ms=mean(lambda r: r.service_ms),
        arrival_rate=mean(lambda r: r.arrival_rate),
        service_rate=mean(lambda r: r.service_rate),
        throughput=mean(lambda r: r.throughput),
        capacity=mean(lambda r: r.capacity),
    )


# --- capture log (JSON Lines) ---------------------------------------------


def session_record(nick: str, metrics: SessionMetrics, **extra) -> dict:
    rec = {
        "nick": nick,
        "packets_sent": metrics.packets_sent,
        "packets_received": metrics.packets_received,
        "bytes_sent": metrics.bytes_sent,
        "bytes_received": metrics.bytes_received,
        "start_mono_ms": metrics.start_mono_ms,
        "departure_mono_ms": metrics.departure_mono_ms,
    }
    rec.update(extra)
    return rec


def run_record(label: str, server_start_mono_ms: float, end_mono_ms: float, **extra) -> dict:
    rec = {
        "label": label,
        "server_start_mono_ms": server_start_mono_ms,
        "end_mono_ms": end_mono_ms,
    }
    rec.update(extra)
    return rec


def write_capture(path, records: Iterable[dict]) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def read_capture(path) -> tuple[list[dict], dict]:
    """Split a capture into its session records and the single run record."""
    sessions, run = [], None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "label" in rec:
                run = rec
            else:
                sessions.append(rec)
    if run is None:
        raise CaptureFormatError(f"{path}: no run record")
    if not sessions:
        raise CaptureFormatError(f"{path}: no session records")
    return sessions, run


@dataclass(frozen=True)
class CaptureSummary:
    """Everything a run report needs: counters, window, derived rates."""

    label: str
    n_clients: int
    server_packets_sent: int
    server_bytes_sent: int
    server_packets_received: int
    server_bytes_received: int
    last_departure_epoch_ms: float | None
    metrics: RunMetrics


def analyze_capture(path) -> CaptureSummary:
    """Reduce a capture to received-side run metrics.

    Session records hold each client's own socket-boundary counters, so
    the server-received totals are the sums of client-sent counters (and
    vice versa) on a loss-free local link.
    """
    sessions, run = read_capture(path)
    elapsed_ms = run["end_mono_ms"] - run["server_start_mono_ms"]
    service_ms = 0.0
    for rec in sessions:
        departure = rec.get("departure_mono_ms")
        if departure is None:
            departure = run["end_mono_ms"]
        service_ms += departure - rec["start_mono_ms"]
    packets_in = sum(r["packets_sent"] for r in sessions)
    bytes_in = sum(r["bytes_sent"] for r in sessions)
    packets_out = sum(r["packets_received"] for r in sessions)
    bytes_out = sum(r["bytes_received"] for r in sessions)
    epochs = [r["departure_epoch_ms"] for r in sessions if r.get("departure_epoch_ms")]
    metrics = RunMetrics.from_counters(
        label=run["label"],
        packets=packets_in,
        payload_bytes=bytes_in,
        elapsed_ms=elapsed_ms,
        service_ms=service_ms,
    )
    return CaptureSummary(
        label=run["label"],
        n_clients=len(sessions),
        server_packets_sent=packets_out,
        server_bytes_sent=bytes_out,
        server_packets_received=packets_in,
        server_bytes_received=bytes_in,
        last_departure_epoch_ms=max(epochs) if epochs else None,
        metrics=metrics,
    )


_CSV_ROWS = (
    ("No. of Online Clients", lambda s: s.n_clients),
    ("No. of Servers", lambda s: 1),
    ("Packet Sent (Packet)", lambda s: s.server_packets_sent),
    ("Packet Sent Length (Byte)", lambda s: s.server_bytes_sent),
    ("Packet Received (Packet)", lambda s: s.server_packets_received),
    ("Packet Receive Length (Byte)", lambda s: s.server_bytes_received),
    ("Total Departure Time (Mili Second)", lambda s: s.last_departure_epoch_ms or ""),
    ("Total Service Time (Mili Second)", lambda s: round(s.metrics.service_ms, 3)),
    ("Total Time (Mili Second)", lambda s: round(s.metrics.elapsed_ms, 3)),
    ("Arrival Rate (Packet/Second)", lambda s: round(s.metrics.arrival_rate, 6)),
    ("Service Rate (Packet/Second)", lambda s: round(s.metrics.service_rate, 6)),
    ("Byte Size (Bit/Second)", lambda s: round(s.metrics.throughput, 6)),
    ("Capacity (Bit/Second)", lambda s: round(s.metrics.capacity, 6)),
    (
        "Total Aggregate Response",
        lambda s: round(aggregate_response(s.metrics.throughput, s.metrics.capacity).utilization, 9),
    ),
    (
        "Expected Idle Time",
        lambda s: round(aggregate_response(s.metrics.throughput, s.metrics.capacity).idle, 9),
    ),
)


def write_metrics_csv(path, summaries: Iterable[CaptureSummary]) -> Path:
    """Emit one column per run, one row per measurement factor."""
    summaries = list(summaries)
    if not summaries:
        raise EmptyInput("no captures to tabulate")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Measurement Factors", *(s.label for s in summaries)])
        for name, pick in _CSV_ROWS:
            writer.writerow([name, *(pick(s) for s in summaries)])
    return path
