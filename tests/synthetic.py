"""A capture built from run-level counters, for tests that replay counter
sets recorded elsewhere.  pytest does not collect this file."""

from __future__ import annotations

from pathlib import Path

from biokm.telemetry import EmptyInput, run_record, write_capture


def synthesize_capture(
    path,
    label: str,
    packets: int,
    payload_bytes: int,
    elapsed_ms: float,
    service_ms: float,
    n_clients: int = 2,
) -> Path:
    """Write a capture that reduces to the given run-level counters.

    Useful for replaying counter sets recorded elsewhere: the totals are
    spread over ``n_clients`` synthetic sessions whose spans sum to
    ``service_ms`` inside a window of ``elapsed_ms``.
    """
    if n_clients < 1:
        raise EmptyInput("need at least one client")
    if service_ms > n_clients * elapsed_ms:
        raise ValueError("summed service time cannot exceed clients x window")
    records = []
    span = service_ms / n_clients
    packet_share = [packets // n_clients] * n_clients
    byte_share = [payload_bytes // n_clients] * n_clients
    packet_share[-1] += packets - sum(packet_share)
    byte_share[-1] += payload_bytes - sum(byte_share)
    for i in range(n_clients):
        start = min(i * span, elapsed_ms - span)
        records.append(
            {
                "nick": f"s{i + 1}",
                "packets_sent": packet_share[i],
                "packets_received": packet_share[i],
                "bytes_sent": byte_share[i],
                "bytes_received": byte_share[i],
                "start_mono_ms": start,
                "departure_mono_ms": start + span,
            }
        )
    records.append(run_record(label, server_start_mono_ms=0.0, end_mono_ms=elapsed_ms))
    return write_capture(path, records)
