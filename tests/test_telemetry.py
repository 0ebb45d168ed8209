import math

import pytest

from biokm.telemetry import (
    EmptyInput,
    RunMetrics,
    SessionMetrics,
    ZeroCapacity,
    ZeroDuration,
    aggregate_response,
    analyze_capture,
    average_runs,
    capacity_bps,
    rates,
    read_capture,
    run_record,
    session_record,
    throughput_bps,
    write_capture,
    write_metrics_csv,
)
from synthetic import synthesize_capture

# received-side counters of the three reference runs
REFERENCE = {
    "ircd": dict(packets=6452, payload=5868, elapsed=111687, service=73328),
    "ftp": dict(packets=4067, payload=3653, elapsed=152297, service=111922),
    "mixed": dict(packets=6832, payload=6214, elapsed=155672, service=113625),
}


def test_throughput_reference_values():
    assert throughput_bps(5868, 111687) == pytest.approx(420.3, abs=0.05)
    assert throughput_bps(3653, 152297) == pytest.approx(191.9, abs=0.05)
    assert throughput_bps(0, 12345) == 0.0


def test_capacity_reference_values():
    assert capacity_bps(5868, 73328) == pytest.approx(640.2, abs=0.05)
    assert capacity_bps(6214, 113625) == pytest.approx(437.5, abs=0.05)
    assert capacity_bps(0, 99) == 0.0


def test_rates_reference_values():
    lam, mu = rates(6452, 111687, 73328)
    assert lam == pytest.approx(57.8, abs=0.05)
    # the exact quotient; the recorded reference truncates this one to 87.9
    assert mu == pytest.approx(6452 / 73.328, abs=1e-9)
    lam, mu = rates(4067, 152297, 111922)
    assert lam == pytest.approx(26.7, abs=0.05)
    assert mu == pytest.approx(36.3, abs=0.05)
    lam, mu = rates(0, 1000, 1000)
    assert lam == 0.0 and mu == 0.0


def test_zero_durations_rejected():
    with pytest.raises(ZeroDuration):
        throughput_bps(100, 0)
    with pytest.raises(ZeroDuration):
        capacity_bps(100, -1)
    with pytest.raises(ZeroDuration):
        rates(10, 0, 10)
    with pytest.raises(ZeroDuration):
        rates(10, 10, 0)


def test_aggregate_response_reference():
    stats = aggregate_response(310.5, 446.3)
    assert stats.utilization == pytest.approx(0.695720367, abs=1e-9)
    assert stats.idle == pytest.approx(0.304279633, abs=1e-9)
    assert stats.within_capacity


def test_aggregate_response_ircd():
    stats = aggregate_response(420.3, 640.2)
    assert stats.utilization == pytest.approx(0.6565, abs=5e-5)


def test_aggregate_response_overload():
    stats = aggregate_response(500, 400)
    assert stats.utilization == pytest.approx(1.25)
    assert not stats.within_capacity
    with pytest.raises(ZeroCapacity):
        aggregate_response(1.0, 0.0)


def test_average_runs_reference():
    runs = [
        RunMetrics.from_counters(name, r["packets"], r["payload"], r["elapsed"], r["service"])
        for name, r in REFERENCE.items()
    ]
    # averaging the recorded one-decimal rates gives the recorded means
    rounded = [
        RunMetrics(
            label=r.label, payload_bytes=r.payload_bytes, packets=r.packets,
            elapsed_ms=r.elapsed_ms, service_ms=r.service_ms,
            arrival_rate=lam, service_rate=mu, throughput=bs, capacity=c,
        )
        for r, (lam, mu, bs, c) in zip(
            runs,
            [(57.8, 87.9, 420.3, 640.2), (26.7, 36.3, 191.9, 261.1), (43.9, 60.1, 319.3, 437.5)],
        )
    ]
    mean = average_runs(rounded)
    assert mean.throughput == pytest.approx(310.5, abs=1e-9)
    assert mean.capacity == pytest.approx(446.3, abs=0.05)
    single = average_runs(runs[:1])
    assert single.arrival_rate == runs[0].arrival_rate
    assert single.capacity == runs[0].capacity
    with pytest.raises(EmptyInput):
        average_runs([])


def test_ratio_identity_between_models():
    # throughput/capacity, arrival/service, and service/elapsed all agree
    for r in REFERENCE.values():
        m = RunMetrics.from_counters("x", r["packets"], r["payload"], r["elapsed"], r["service"])
        ratio = r["service"] / r["elapsed"]
        assert m.throughput / m.capacity == pytest.approx(ratio, rel=1e-12)
        assert m.arrival_rate / m.service_rate == pytest.approx(ratio, rel=1e-12)


def test_dimensional_scaling():
    base = throughput_bps(1000, 2000)
    assert throughput_bps(3000, 2000) == pytest.approx(3 * base, rel=1e-12)
    assert throughput_bps(1000, 4000) == pytest.approx(base / 2, rel=1e-12)


def test_analyze_falls_back_to_run_end_for_open_sessions(tmp_path):
    path = tmp_path / "open.jsonl"
    write_capture(
        path,
        [
            {
                "nick": "ghost", "packets_sent": 4, "packets_received": 4,
                "bytes_sent": 40, "bytes_received": 40,
                "start_mono_ms": 100.0, "departure_mono_ms": None,
            },
            run_record("open", server_start_mono_ms=0.0, end_mono_ms=500.0),
        ],
    )
    summary = analyze_capture(path)
    assert summary.metrics.service_ms == 400.0


def test_session_metrics_counters_and_service_time():
    m = SessionMetrics(start_mono_ms=100.0)
    m.count_sent(10)
    m.count_sent(20)
    m.count_received(5)
    assert (m.packets_sent, m.bytes_sent) == (2, 30)
    assert (m.packets_received, m.bytes_received) == (1, 5)
    assert m.service_time_ms == 0.0
    m.departure_mono_ms = 250.0
    assert m.service_time_ms == 150.0
    snap = m.snapshot()
    m.count_sent(1)
    assert snap.packets_sent == 2


def test_capture_round_trip(tmp_path):
    path = tmp_path / "cap.jsonl"
    metrics = SessionMetrics(
        packets_sent=3, packets_received=2, bytes_sent=40, bytes_received=30,
        start_mono_ms=10.0, departure_mono_ms=60.0,
    )
    write_capture(
        path,
        [
            session_record("alice", metrics, rtt_ms=1.5),
            run_record("demo", server_start_mono_ms=0.0, end_mono_ms=100.0),
        ],
    )
    sessions, run = read_capture(path)
    assert len(sessions) == 1
    assert sessions[0]["nick"] == "alice"
    assert sessions[0]["rtt_ms"] == 1.5
    assert run["label"] == "demo"


def test_synthesized_capture_reduces_to_reference_counters(tmp_path):
    for name, r in REFERENCE.items():
        path = synthesize_capture(
            tmp_path / f"{name}.jsonl", name,
            packets=r["packets"], payload_bytes=r["payload"],
            elapsed_ms=r["elapsed"], service_ms=r["service"],
        )
        summary = analyze_capture(path)
        m = summary.metrics
        assert m.packets == r["packets"]
        assert m.payload_bytes == r["payload"]
        assert m.elapsed_ms == pytest.approx(r["elapsed"], abs=1e-9)
        assert m.service_ms == pytest.approx(r["service"], abs=1e-6)
        assert summary.n_clients == 2


def test_metrics_csv_shape(tmp_path):
    path = synthesize_capture(
        tmp_path / "c.jsonl", "ircd", packets=6452, payload_bytes=5868,
        elapsed_ms=111687, service_ms=73328,
    )
    out = tmp_path / "metrics.csv"
    write_metrics_csv(out, [analyze_capture(path)])
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("Measurement Factors,ircd")
    rows = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert rows["Packet Received (Packet)"] == "6452"
    assert rows["No. of Online Clients"] == "2"
    assert math.isclose(float(rows["Arrival Rate (Packet/Second)"]), 57.768585, abs_tol=1e-4)
