import dataclasses
import errno
import gc
import json
import re
import selectors
import socket
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from biokm import loadgen, server as server_module
from biokm.loadgen import (
    InvalidSpec,
    Mode,
    ScenarioFailed,
    ScenarioSpec,
    ScheduleEvent,
    _ScriptedClient,
    generate_schedule,
    run_scenario,
)
from biokm.protocol import (
    MAX_CHUNK,
    MAX_PAYLOAD,
    Command,
    Frame,
    FrameBuffer,
    encode_chunk,
    encode_frame,
)
from biokm.server import ServerConfig, now_mono_ms, start_server
from biokm.telemetry import analyze_capture, read_capture
from test_server import RawClient, wait_until


@pytest.fixture
def server(tmp_path):
    handle = start_server(ServerConfig(log_path=tmp_path / "events.jsonl"))
    yield handle
    handle.stop()


FAST = dict(inter_event_gap_ms=2.0)


# --- spec validation ---------------------------------------------------------


def test_mode_invariants():
    with pytest.raises(InvalidSpec):
        ScenarioSpec(mode=Mode.IRCD, files_per_client=1)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(mode=Mode.FTP, messages_per_client=1)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(mode=Mode.MIXED, messages_per_client=0, files_per_client=1)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(mode=Mode.IRCD, clients=0)


def test_spec_from_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "mode = mixed\n"
        "clients = 2\n"
        "messages_per_client = 3   # per pair member\n"
        "files_per_client = 1\n"
        "file_size = 2048\n"
        "seed = 9\n"
    )
    spec = ScenarioSpec.from_config(path)
    assert spec.mode is Mode.MIXED
    assert spec.messages_per_client == 3
    assert spec.file_size == 2048
    assert spec.seed == 9


def test_spec_from_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mode=ircd\nwhat even is this\n")
    with pytest.raises(InvalidSpec):
        ScenarioSpec.from_config(path)


# --- schedule ----------------------------------------------------------------


def test_schedule_deterministic_per_seed():
    spec = ScenarioSpec(mode=Mode.IRCD, clients=2, messages_per_client=1, seed=7)
    assert generate_schedule(spec) == generate_schedule(spec)
    other = ScenarioSpec(mode=Mode.IRCD, clients=2, messages_per_client=1, seed=8)
    assert generate_schedule(spec) != generate_schedule(other)


def test_schedule_zero_work_is_logins_and_quits():
    spec = ScenarioSpec(mode=Mode.IRCD, clients=2, messages_per_client=0)
    schedule = generate_schedule(spec)
    assert [e.action for e in schedule.events] == ["login", "login", "quit", "quit"]


def test_schedule_event_count_mixed():
    spec = ScenarioSpec(
        mode=Mode.MIXED, clients=2, messages_per_client=10, files_per_client=2
    )
    schedule = generate_schedule(spec)
    assert len(schedule.events) == 2 * (1 + 10 + 2 + 1)


def test_schedule_offsets_increase():
    spec = ScenarioSpec(mode=Mode.MIXED, clients=4, messages_per_client=2, files_per_client=1)
    schedule = generate_schedule(spec)
    offsets = [e.at_ms for e in schedule.events]
    assert offsets == sorted(offsets)
    assert schedule.end_ms > offsets[-1]


def test_schedule_keeps_summed_sessions_under_window():
    spec = ScenarioSpec(mode=Mode.IRCD, clients=6, messages_per_client=20)
    schedule = generate_schedule(spec)
    spans = {}
    for event in schedule.events:
        if event.action == "login":
            spans[event.client] = -event.at_ms
        elif event.action == "quit":
            spans[event.client] += event.at_ms
    assert sum(spans.values()) / schedule.end_ms < 0.75


# --- live scenarios ----------------------------------------------------------


def test_ircd_scenario_frame_accounting(server, tmp_path):
    spec = ScenarioSpec(
        mode=Mode.IRCD, clients=2, messages_per_client=10, message_size=100,
        seed=3, **FAST,
    )
    out = run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    sessions, run = read_capture(out)
    # each client sends exactly login + messages + quit
    for rec in sessions:
        assert rec["packets_sent"] == 1 + 10 + 1
    assert run["packets_received"] == 2 * 12

    # loss-free accounting: server-side receive counters match client sends
    by_nick = {rec["nick"]: rec for rec in sessions}
    for record in server.session_history():
        m = record.metrics
        assert m.packets_received == by_nick[record.nick]["packets_sent"]
        assert m.bytes_received == by_nick[record.nick]["bytes_sent"]
        assert m.packets_sent == by_nick[record.nick]["packets_received"]


def test_ftp_scenario_transfers_all_bytes(server, tmp_path):
    spec = ScenarioSpec(
        mode=Mode.FTP, clients=2, files_per_client=1, file_size=4096, seed=5, **FAST,
    )
    run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    events = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    complete = [e for e in events if e["kind"] == "transfer_complete"]
    assert len(complete) == 2  # one each way
    assert all(e["bytes"] == 4096 for e in complete)
    assert not [e for e in events if e["kind"] == "transfer_aborted"]


def test_mixed_scenario_replay_reproduces_counters(server, tmp_path):
    spec = ScenarioSpec(
        mode=Mode.MIXED, clients=2, messages_per_client=5, message_size=64,
        files_per_client=2, file_size=3000, seed=11, **FAST,
    )
    first = run_scenario(spec, server.address, tmp_path / "a.jsonl", label="one")
    second = run_scenario(spec, server.address, tmp_path / "b.jsonl", label="one")

    def strip_timing(path):
        stripped = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            for key in list(rec):
                if key.endswith("_ms"):
                    del rec[key]
            stripped.append(rec)
        return stripped

    assert strip_timing(first) == strip_timing(second)


def test_odd_client_count_self_pair(server, tmp_path):
    spec = ScenarioSpec(
        mode=Mode.MIXED, clients=3, messages_per_client=2, files_per_client=1,
        file_size=1000, seed=13, **FAST,
    )
    out = run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    sessions, _ = read_capture(out)
    assert len(sessions) == 3
    summary = analyze_capture(out)
    ratio = summary.metrics.service_ms / summary.metrics.elapsed_ms
    assert 0.0 < ratio < 1.0


def test_capture_has_rtt_and_utilization_in_range(server, tmp_path):
    spec = ScenarioSpec(mode=Mode.IRCD, clients=2, messages_per_client=5, seed=2, **FAST)
    out = run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    sessions, run = read_capture(out)
    for rec in sessions:
        assert rec["rtt_ms"] >= 0.0
        assert rec["departure_mono_ms"] >= rec["start_mono_ms"]
        # every frame carries at least one byte
        assert rec["bytes_sent"] >= rec["packets_sent"]
        assert rec["bytes_received"] >= rec["packets_received"]
    summary = analyze_capture(out)
    assert 0.0 < summary.metrics.arrival_rate < summary.metrics.service_rate


def test_sends_wait_for_late_peer_login(server, tmp_path, monkeypatch):
    # scheduled offsets alone do not order two clients' events: a peer
    # whose login runs late must not turn the first send into NO_SUCH_USER
    schedule = loadgen.generate_schedule

    def late_login(spec):
        plan = schedule(spec)
        return dataclasses.replace(plan, events=tuple(
            dataclasses.replace(e, at_ms=e.at_ms + 200.0)
            if (e.client, e.action) == ("c2", "login") else e
            for e in plan.events
        ))

    monkeypatch.setattr(loadgen, "generate_schedule", late_login)
    spec = ScenarioSpec(
        mode=Mode.MIXED, clients=2, messages_per_client=2, files_per_client=1,
        file_size=100, seed=4, **FAST,
    )
    out = run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    sessions, _ = read_capture(out)
    # OK, 2 MSG, FILE_OFFER, a FILE_ACCEPT per role, one chunk, terminator
    assert [rec["packets_received"] for rec in sessions] == [8, 8]


def test_run_scenario_starts_no_thread(server, tmp_path, monkeypatch):
    # one selectors loop in the calling thread serves every client
    def refuse(thread):
        raise AssertionError(f"run_scenario started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    spec = ScenarioSpec(
        mode=Mode.MIXED, clients=3, messages_per_client=3, files_per_client=2,
        file_size=70000, seed=8, **FAST,
    )
    run_scenario(spec, server.address, tmp_path / "cap.jsonl")


# --- failure reporting -------------------------------------------------------

FTP_ONE = ScenarioSpec(mode=Mode.FTP, clients=2, files_per_client=1, file_size=10)


def scripted_c1(address, spec, events):
    """A run of one scripted client, c1, whose peer c2 is online already."""
    run = loadgen._Run(spec, address)
    run.online.add("c2")
    run.clients.append(_ScriptedClient("c1", run, events))
    return run


def await_file_never_sent(server):
    """c1 logs in and waits for one file before it quits; c2, a raw client,
    offers it and never opens its end.  Returns the failure of c1's run."""
    run = scripted_c1(server.address, FTP_ONE, [
        ScheduleEvent(0.0, "c1", "login"), ScheduleEvent(0.0, "c1", "quit"),
    ])
    peer = RawClient(server.address)

    def offer():
        assert wait_until(lambda: server.snapshot().logins == 1)
        peer.login("c2")
        peer.send(Frame(Command.FILE_OFFER, ("c1", "f0.bin", "10")))

    offering = threading.Thread(target=offer)
    offering.start()
    run.serve()
    offering.join()
    peer.close()
    return run.failure


def test_failed_transfer_names_client_peer_and_role(monkeypatch):
    # the offering peer never opens its end of the data channel, so the
    # server gives up and the scripted recipient's channel closes early
    monkeypatch.setattr(server_module, "DATA_IDLE_S", 0.5)
    with start_server(ServerConfig()) as server:
        error = await_file_never_sent(server)
    assert isinstance(error, ScenarioFailed)
    assert str(error).startswith("c1: recipient data channel with c2 for transfer 1 on port ")
    assert isinstance(error.__cause__, OSError)


def test_abandoned_data_channel_closes_recipient_socket(monkeypatch):
    # the offering peer never connects to the data port; the server must
    # close the recipient's accepted half itself, not leave it to the
    # garbage collector (which warns about an unclosed socket)
    monkeypatch.setattr(server_module, "DATA_IDLE_S", 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with start_server(ServerConfig()) as server:
            error = await_file_never_sent(server)
        gc.collect()
    port = int(re.search(r"for transfer 1 on port (\d+)", str(error)).group(1))
    server_side = f"laddr=('127.0.0.1', {port})"
    assert [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning) and server_side in str(w.message)
    ] == []


def slow_reader(listener, messages: int, got: list):
    """A stand-in server for one client: it answers the probes and the
    login, reads nothing for 1 s, then reads ``messages`` MSGs."""
    conn, _ = listener.accept()
    with conn:
        conn.settimeout(10.0)
        buffer = FrameBuffer()
        try:
            while len(got) < messages:
                for frame, payload, _ in buffer.recv(conn):
                    if frame.command is Command.PING:
                        conn.sendall(encode_frame(Frame(Command.PONG, frame.args)))
                    elif frame.command is Command.LOGIN:
                        conn.sendall(encode_frame(Frame(Command.OK)))
                        time.sleep(1.0)
                    elif frame.command is Command.MSG:
                        got.append(payload)
        except OSError:  # the client gave up
            pass


def test_sends_outlast_a_peer_that_reads_late():
    # while the control socket takes no more, the schedule waits for it to
    # turn writable: no send may time out or cut a frame short
    n = 200  # 13 MB of MSGs: more than loopback buffers while nobody reads
    spec = ScenarioSpec(mode=Mode.IRCD, clients=2, messages_per_client=n,
                        message_size=MAX_PAYLOAD)
    events = [ScheduleEvent(0.0, "c1", "login")] + [
        ScheduleEvent(0.0, "c1", "message", "c2", MAX_PAYLOAD, k) for k in range(n)
    ]
    got = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = threading.Thread(target=slow_reader, args=(listener, n, got))
        peer.start()
        run = scripted_c1(listener.getsockname(), spec, events)
        run.serve()
        peer.join(timeout=20.0)
    assert not peer.is_alive()
    assert run.failure is None
    assert [len(p) for p in got] == [MAX_PAYLOAD] * n


def test_failed_control_write_fails_the_run_and_names_the_client(server, tmp_path,
                                                                 monkeypatch):
    # c1's first MSG meets a broken pipe; the server's own writes go through
    def broken(write):
        def send(sock, data, *args):
            if sock.getsockname()[1] != server.port and bytes(data[:4]) == b"MSG ":
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            return write(sock, data, *args)

        return send

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name, broken(getattr(socket.socket, name)))
    spec = ScenarioSpec(mode=Mode.IRCD, clients=2, messages_per_client=2, **FAST)
    with pytest.raises(ScenarioFailed, match=r"^c1: control connection failed: .*Broken pipe$"):
        run_scenario(spec, server.address, tmp_path / "cap.jsonl")


# --- completion: the call returns once the traffic has been served ----------


def test_gap_zero_run_does_not_sleep(server, tmp_path, monkeypatch):
    # the padded window is arithmetic on the record, never waited out: with
    # every event due at once the loop waits for its sockets only, so no
    # wait of it but a zero-timeout poll may end with no socket ready
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)

    class Selector(selectors.DefaultSelector):
        def select(self, timeout=None):
            ready = super().select(timeout)
            if not ready and timeout != 0:
                slept.append(timeout)
            return ready

    monkeypatch.setattr(selectors, "DefaultSelector", Selector)
    spec = ScenarioSpec(
        mode=Mode.IRCD, clients=2, messages_per_client=20, inter_event_gap_ms=0,
    )
    run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    assert slept == []


def test_bookkeeping_complete_when_run_returns(server, tmp_path):
    # seven clients in one loop; switching between it and the server's
    # thread every few microseconds shakes out a departure or transfer the
    # waits miss
    spec = ScenarioSpec(
        mode=Mode.MIXED, clients=7, messages_per_client=4, files_per_client=3,
        file_size=20000, inter_event_gap_ms=0, seed=6,
    )
    nicks = [f"c{i}" for i in range(1, 8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        before = now_mono_ms()
        out = run_scenario(spec, server.address, tmp_path / "cap.jsonl")
        returned = now_mono_ms()
        # read at once: no wait_until, the call's own completion waits
        # order these
        history = server.session_history()
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(r.nick for r in history) == nicks
    assert all(r.metrics.departure_mono_ms is not None for r in history)
    assert sorted(e["nick"] for e in events if e["kind"] == "quit") == nicks
    # three pairs both ways and c7 to itself, three files per direction
    complete = [e for e in events if e["kind"] == "transfer_complete"]
    assert len(complete) == 7 * 3
    assert all(e["bytes"] == 20000 for e in complete)

    sessions, run = read_capture(out)
    spans = sum(r["departure_mono_ms"] - r["start_mono_ms"] for r in sessions)
    padded = max(generate_schedule(spec).end_ms, spans / 0.7)
    window = run["end_mono_ms"] - run["server_start_mono_ms"]
    # the record pads the window; it is longer only if the run overran it
    assert window == pytest.approx(padded) or (
        window > padded and run["end_mono_ms"] <= returned
    )
    assert run["active_end_mono_ms"] == max(r["departure_mono_ms"] for r in sessions)
    assert before <= run["active_end_mono_ms"] <= run["end_mono_ms"]


def test_completion_waits_cover_slow_server_bookkeeping(tmp_path, monkeypatch):
    # the server takes its time recording departures and logging
    # transfers; run_scenario must still not return before it is done
    unregister = server_module.MessengerServer._unregister
    write = server_module._EventLog.write

    def slow_unregister(self, session, kind):
        time.sleep(0.1)
        unregister(self, session, kind)

    def slow_write(self, kind, *args, **kwargs):
        if kind == "transfer_complete":  # outlasts the departures
            time.sleep(0.3)
        write(self, kind, *args, **kwargs)

    monkeypatch.setattr(server_module.MessengerServer, "_unregister", slow_unregister)
    monkeypatch.setattr(server_module._EventLog, "write", slow_write)
    spec = ScenarioSpec(
        mode=Mode.FTP, clients=2, files_per_client=1, file_size=1000,
        inter_event_gap_ms=0,
    )
    log = tmp_path / "events.jsonl"
    with start_server(ServerConfig(log_path=log)) as server:
        run_scenario(spec, server.address, tmp_path / "cap.jsonl")
        history = server.session_history()
        kinds = [json.loads(line)["kind"] for line in log.read_text().splitlines()]
        assert [r.metrics.departure_mono_ms is not None for r in history] == [True, True]
        assert kinds.count("quit") == 2
        assert kinds.count("transfer_complete") == 2


def test_event_log_on_disk_when_run_returns(server, tmp_path):
    # the server queues log lines; its flush points must cover every event
    # a client has seen the effect of by the time the call returns
    spec = ScenarioSpec(
        mode=Mode.MIXED, clients=4, messages_per_client=30, files_per_client=2,
        file_size=3000, inter_event_gap_ms=0, seed=3,
    )
    run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    kinds = [
        json.loads(line)["kind"]
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    assert kinds.count("message") == 4 * 30
    assert kinds.count("transfer_complete") == 4 * 2
    assert kinds.count("quit") == 4


def tampering_relay(tamper):
    """A stand-in for the server's writes to a recipient's end: it holds a
    file's chunks back until the terminator is in, then writes
    ``tamper(chunks)`` in their place."""
    forward = server_module.MessengerServer._forward
    held: dict[str, bytearray] = {}
    released: set[str] = set()

    def relay(self, transfer, data=b""):
        if transfer.id not in released:
            held.setdefault(transfer.id, bytearray()).extend(data)
            if transfer.outcome is None:
                return  # the sender is read on
            released.add(transfer.id)
            wire = held.pop(transfer.id)
            chunks = [chunk for chunk, _ in FrameBuffer(chunks=True).feed(wire)[:-1]]
            data = b"".join(encode_chunk(c) for c in [*tamper(chunks), b""])
        forward(self, transfer, data)

    return relay


def swap_first_two(chunks):
    return [chunks[1], chunks[0], *chunks[2:]]


def flip_one_byte(chunks):
    last = bytearray(chunks[-1])
    last[-1] ^= 1
    return [*chunks[:-1], bytes(last)]


def drop_last_chunk(chunks):
    return chunks[:-1]


def repeat_first_chunk(chunks):
    return [chunks[0], *chunks]


def run_past_the_end(chunks):
    body = b"".join(chunks)  # what follows continues its period
    period = loadgen.BODY_PERIOD
    return [*chunks, body[-period : 100 - period]]


# where each tamper of a file of three chunks first shows
FIRST_BAD_BYTE = {swap_first_two: 0, flip_one_byte: 3 * 65536 - 1,
                  drop_last_chunk: 2 * 65536, repeat_first_chunk: 65536,
                  run_past_the_end: 3 * 65536}


@pytest.mark.parametrize("tamper", list(FIRST_BAD_BYTE))
def test_relayed_bytes_are_checked(tmp_path, monkeypatch, tamper):
    monkeypatch.setattr(server_module.MessengerServer, "_forward", tampering_relay(tamper))
    spec = ScenarioSpec(  # c1 sends itself one file of three chunks
        mode=Mode.FTP, clients=1, files_per_client=1, file_size=3 * 65536,
        inter_event_gap_ms=0,
    )
    with start_server(ServerConfig()) as server:
        with pytest.raises(ScenarioFailed, match=r"^c1: file f0\.bin from c1 differs") as failed:
            run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    assert f"from byte {FIRST_BAD_BYTE[tamper]} on" in str(failed.value)


def test_file_bodies_are_seeded_and_period_tiled():
    body = loadgen.body_tile(7, "c1", "f0.bin", 3 * 65536)
    assert body == loadgen.body_tile(7, "c1", "f0.bin", 3 * 65536)
    assert body != loadgen.body_tile(7, "c2", "f0.bin", 3 * 65536)
    assert body != loadgen.body_tile(7, "c1", "f1.bin", 3 * 65536)
    period = loadgen.BODY_PERIOD
    assert len(body) == 3 * period
    assert body[period:] == body[:-period]
    assert body[:65536] != body[65536:131072]  # chunks differ, so a swap shows


P = loadgen.BODY_PERIOD


@pytest.mark.parametrize("size", [
    0, 1, P - 1, P, P + 1, 65536, 65537, 2 * P + 1, 3 * P, 3 * P + 1, 3 * 65536, 3 * 65536 + 5,
])
def test_chunks_cut_from_the_tile_make_the_period_tiled_body(size):
    tile = loadgen.body_tile(7, "c1", "f0.bin", size)
    assert len(tile) == min(size, 3 * P)
    body = (tile[:P] * (size // P + 1))[:size]
    chunks = []
    for offset in range(0, size, MAX_CHUNK):  # as a sender cuts them
        chunk = loadgen.body_chunk(tile, offset, min(MAX_CHUNK, size - offset))
        assert chunk == body[offset : offset + MAX_CHUNK], offset
        chunks.append(chunk)
    assert b"".join(chunks) == body


def test_the_furthest_cut_fits_in_the_tile():
    # chunk k starts at 15k mod P in the tile: at P - 1 first for k = 4368,
    # past two periods' room, in a file of 286 MB
    offset = 4368 * MAX_CHUNK
    assert offset % P == P - 1
    tile = loadgen.body_tile(7, "c1", "f0.bin", offset + MAX_CHUNK)
    period = tile[:P]
    chunk = loadgen.body_chunk(tile, offset, MAX_CHUNK)
    assert chunk == bytes(period[(offset + i) % P] for i in range(MAX_CHUNK))


def test_large_self_transfer_builds_no_file(tmp_path):
    size = 16 << 20
    spec = ScenarioSpec(mode=Mode.FTP, clients=1, files_per_client=1, file_size=size,
                        inter_event_gap_ms=0)
    with start_server(ServerConfig(log_path=tmp_path / "events.jsonl")) as server:
        tracemalloc.start()
        try:
            run_scenario(spec, server.address, tmp_path / "cap.jsonl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    log = (tmp_path / "events.jsonl").read_text()
    assert [json.loads(line)["bytes"] for line in log.splitlines()
            if json.loads(line)["kind"] == "transfer_complete"] == [size]
    # two tiles of three periods and a few chunks in flight, no file
    assert peak < 4 << 20


def test_refused_frame_fails_the_run_at_once(server, tmp_path):
    # c1's LOGIN is refused; before, its peer sat out CLIENT_TIMEOUT_S
    squatter = RawClient(server.address)
    assert squatter.login("c1").command is Command.OK
    spec = ScenarioSpec(mode=Mode.IRCD, clients=2, messages_per_client=3, **FAST)
    started = time.monotonic()
    try:
        with pytest.raises(ScenarioFailed, match=r"^c1: server error NICK_TAKEN$"):
            run_scenario(spec, server.address, tmp_path / "cap.jsonl")
    finally:
        squatter.close()
    assert time.monotonic() - started < 5.0
