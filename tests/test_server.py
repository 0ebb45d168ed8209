import errno
import gc
import json
import random
import socket
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from biokm.protocol import (
    MAX_NAME,
    RECV_SIZE,
    Command,
    Frame,
    FrameBuffer,
    NEED_MORE,
    decode_chunk,
    encode_chunk,
    encode_frame,
)
import biokm.server as server_module
from biokm.server import ServerConfig, _EventLog, start_server
from biokm.telemetry import SessionMetrics


@pytest.fixture
def server(tmp_path):
    handle = start_server(ServerConfig(log_path=tmp_path / "events.jsonl"))
    yield handle
    handle.stop()


class RawClient:
    """Synchronous test harness speaking the control protocol."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.settimeout(5.0)
        self.buffer = FrameBuffer()
        self.frames = []

    def send(self, frame: Frame, payload: bytes = b""):
        self.sock.sendall(encode_frame(frame, payload))

    def read_frame(self, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not self.frames:
            if time.monotonic() > deadline:
                raise TimeoutError("no frame arrived")
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                continue
            if not data:
                raise ConnectionError("server closed the connection")
            self.frames.extend(self.buffer.feed(data))
        return self.frames.pop(0)

    def login(self, nick: str):
        self.nick = nick
        self.send(Frame(Command.LOGIN, (nick,)))
        decoded = self.read_frame()
        return decoded.frame

    def close(self):
        self.sock.close()


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# --- lifecycle ---------------------------------------------------------------


def test_fresh_server_has_no_sessions(server):
    snap = server.snapshot()
    assert snap.live_count == 0
    assert snap.logins == 0


def server_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("biokm-")]


def test_one_server_thread_serves_every_connection(server):
    for i in range(100):
        client = RawClient(server.address)
        assert client.login(f"s{i}").command is Command.OK
        client.send(Frame(Command.QUIT))
        assert client.sock.recv(65536) == b""  # the server's EOF after QUIT
        client.close()
    live = [RawClient(server.address) for _ in range(3)]
    for i, client in enumerate(live):
        assert client.login(f"live{i}").command is Command.OK
    a, b, data_a, data_b = open_transfer(server, 200_000)
    data_a.sendall(encode_chunk(bytes(65536)))
    relayed = b""
    while len(relayed) < 65536 + 4:  # relaying: the first chunk is through
        relayed += data_b.recv(65536)
    half_open = open_end(server, offer_and_accept(server, a, b, 10), "recipient")
    assert wait_until(lambda: len(server._transfers["2"].ends) == 1)
    assert server_threads() == ["biokm-server"]
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 1.0
    assert server_threads() == []
    for client in [*live, a, b]:
        client.close()
    data_a.close(), data_b.close(), half_open.close()


def test_same_port_twice_fails(server):
    with pytest.raises(OSError):
        start_server(ServerConfig(control_port=server.port))


def test_failed_start_closes_listener(server):
    gc.collect()  # settle garbage from earlier tests first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError):
            start_server(ServerConfig(control_port=server.port))
        gc.collect()
    # the listener never bound, so it would show its unbound address
    assert [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning)
        and "laddr=('0.0.0.0', 0)" in str(w.message)
    ] == []


def test_two_clients_show_in_snapshot(server):
    a, b = RawClient(server.address), RawClient(server.address)
    assert a.login("alice").command is Command.OK
    assert b.login("bob").command is Command.OK
    snap = server.snapshot()
    assert snap.live_count == 2
    assert set(snap.sessions) == {"alice", "bob"}
    a.close(), b.close()


# --- login -------------------------------------------------------------------


def test_duplicate_nick_rejected(server):
    a, b = RawClient(server.address), RawClient(server.address)
    assert a.login("alice").command is Command.OK
    reply = b.login("alice")
    assert reply.command is Command.ERR
    assert reply.args == ("NICK_TAKEN",)
    assert server.snapshot().live_count == 1
    a.close(), b.close()


def test_nick_freed_after_quit(server):
    a = RawClient(server.address)
    a.login("alice")
    a.send(Frame(Command.QUIT))
    assert wait_until(lambda: server.snapshot().live_count == 0)
    b = RawClient(server.address)
    assert b.login("alice").command is Command.OK
    a.close(), b.close()


# --- chat relay --------------------------------------------------------------


def test_message_relayed_to_recipient(server):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    a.send(Frame(Command.MSG, ("bob", "2")), b"hi")
    decoded = b.read_frame()
    assert decoded.frame == Frame(Command.MSG, ("alice", "2"))
    assert decoded.payload == b"hi"
    a.close(), b.close()


def test_message_to_offline_user(server):
    a = RawClient(server.address)
    a.login("alice")
    a.send(Frame(Command.MSG, ("carol", "2")), b"yo")
    reply = a.read_frame()
    assert reply.frame == Frame(Command.ERR, ("NO_SUCH_USER",))
    a.close()


def test_relay_counts_both_sessions(server):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    before = server.snapshot().sessions
    wire = encode_frame(Frame(Command.MSG, ("bob", "3")), b"abc")
    a.send(Frame(Command.MSG, ("bob", "3")), b"abc")
    b.read_frame()
    assert wait_until(
        lambda: server.snapshot().sessions["bob"].packets_sent
        == before["bob"].packets_sent + 1
    )
    after = server.snapshot().sessions
    assert after["alice"].packets_received == before["alice"].packets_received + 1
    assert after["alice"].bytes_received == before["alice"].bytes_received + len(wire)
    relayed = encode_frame(Frame(Command.MSG, ("alice", "3")), b"abc")
    assert after["bob"].bytes_sent == before["bob"].bytes_sent + len(relayed)
    a.close(), b.close()


def test_frame_counted_before_peer_sees_it(server, monkeypatch):
    # a slow counter must not let the client read OK before it is counted
    count_sent = SessionMetrics.count_sent

    def slow_count_sent(self, nbytes):
        time.sleep(0.05)
        count_sent(self, nbytes)

    monkeypatch.setattr(SessionMetrics, "count_sent", slow_count_sent)
    a = RawClient(server.address)
    a.login("alice")
    assert server.snapshot().sessions["alice"].packets_sent == 1
    a.close()


def test_bulk_relay_packet_count(server):
    # volume check: thousands of relays all land in the counters
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    base = server.snapshot().sessions["alice"].packets_received
    n = 6452
    body = b"x"
    wire = encode_frame(Frame(Command.MSG, ("bob", "1")), body) * n
    a.sock.sendall(wire)
    got = 0
    while got < n:
        b.read_frame()
        got += 1
    assert wait_until(
        lambda: server.snapshot().sessions["alice"].packets_received == base + n,
        timeout=30.0,
    )
    a.close(), b.close()


def writes_to(monkeypatch, client):
    """Record the bytes of every server-side write to ``client``."""
    sizes = []
    send = socket.socket.send
    peer = client.sock.getsockname()

    def spy(sock, data, *args):
        sent = send(sock, data, *args)
        if sock.getpeername() == peer:
            sizes.append(sent)
        return sent

    monkeypatch.setattr(socket.socket, "send", spy)
    return sizes


def test_burst_leaves_in_one_write_per_destination(server, monkeypatch):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    before = server.snapshot().sessions
    sizes = writes_to(monkeypatch, b)
    n = 50
    a.sock.sendall(encode_frame(Frame(Command.MSG, ("bob", "2")), b"hi") * n)
    for _ in range(n):
        assert b.read_frame().frame == Frame(Command.MSG, ("alice", "2"))
    relayed = len(encode_frame(Frame(Command.MSG, ("alice", "2")), b"hi"))
    assert wait_until(lambda: sum(sizes) == n * relayed)  # the spy records after the write
    assert 1 <= len(sizes) <= 2  # one per read of the burst, not one per frame
    after = server.snapshot().sessions
    assert after["alice"].packets_received == before["alice"].packets_received + n
    assert after["bob"].packets_sent == before["bob"].packets_sent + n
    assert after["bob"].bytes_sent == before["bob"].bytes_sent + n * relayed
    a.close(), b.close()


def test_queued_sends_stay_within_one_read(server, monkeypatch):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    sizes = writes_to(monkeypatch, b)
    body = b"x" * 1000
    frame = encode_frame(Frame(Command.MSG, ("bob", str(len(body)))), body)
    n = 300  # 300 kB, several reads' worth
    a.sock.sendall(frame * n)
    for _ in range(n):
        b.read_frame()
    relayed = len(encode_frame(Frame(Command.MSG, ("alice", str(len(body)))), body))
    assert wait_until(lambda: sum(sizes) == n * relayed)  # the spy records after the write
    assert max(sizes) < RECV_SIZE + relayed
    a.close(), b.close()


def test_frames_before_a_malformed_one_are_relayed(server):
    # one read holding a MSG and then garbage: the MSG used to be dropped
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    a.sock.sendall(encode_frame(Frame(Command.MSG, ("bob", "5")), b"hello") + b"BOGUS x\r\n")
    decoded = b.read_frame()
    assert (decoded.frame, decoded.payload) == (Frame(Command.MSG, ("alice", "5")), b"hello")
    assert a.read_frame().frame == Frame(Command.ERR, ("MALFORMED",))
    with pytest.raises(ConnectionError):
        a.read_frame()
    assert wait_until(lambda: server.snapshot().live_count == 1)
    a.close(), b.close()


def test_invite_notifies_online_invitee(server):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    a.send(Frame(Command.INVITE, ("bob",)))
    assert b.read_frame().frame == Frame(Command.INVITE, ("alice",))
    a.close(), b.close()


def test_list_returns_nicks(server):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    a.send(Frame(Command.LIST))
    reply = a.read_frame().frame
    assert reply.command is Command.OK
    assert reply.args == ("alice,bob",)
    a.close(), b.close()


def test_ping_pong_before_login(server):
    a = RawClient(server.address)
    a.send(Frame(Command.PING, ("n42",)))
    assert a.read_frame().frame == Frame(Command.PONG, ("n42",))
    a.close()


def test_message_requires_login(server):
    a = RawClient(server.address)
    a.send(Frame(Command.MSG, ("bob", "1")), b"x")
    assert a.read_frame().frame == Frame(Command.ERR, ("NOT_LOGGED_IN",))
    a.close()


# --- file transfer -----------------------------------------------------------


def open_end(server, transfer_id: str, role: str) -> socket.socket:
    """One end of a transfer: a data connection that has sent its hello."""
    conn = socket.create_connection(server.address, timeout=5.0)
    conn.sendall(encode_frame(Frame(Command.HELLO, (transfer_id, role))))
    return conn


def offer_and_accept(server, sender, recipient, size: int, name: str = "f.bin") -> str:
    """Broker one transfer between two logged-in raw clients; returns its id."""
    sender.send(Frame(Command.FILE_OFFER, (recipient.nick, name, str(size))))
    offer = recipient.read_frame().frame
    transfer_id = offer.args[3]
    assert offer == Frame(Command.FILE_OFFER, (sender.nick, name, str(size), transfer_id))
    recipient.send(Frame(Command.FILE_ACCEPT, (sender.nick, transfer_id)))
    assert recipient.read_frame().frame == Frame(
        Command.FILE_ACCEPT, (sender.nick, transfer_id, "recipient")
    )
    assert sender.read_frame().frame == Frame(
        Command.FILE_ACCEPT, (recipient.nick, transfer_id, "sender")
    )
    return transfer_id


def open_transfer(server, size: int):
    """Broker one alice -> bob transfer of ``size`` bytes; returns both
    control clients and both data sockets."""
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    transfer_id = offer_and_accept(server, a, b, size)
    assert transfer_id == "1"
    data_b = open_end(server, transfer_id, "recipient")
    data_a = open_end(server, transfer_id, "sender")
    return a, b, data_a, data_b


def run_transfer(server, payload: bytes, abort_after: int | None = None):
    """Drive one alice -> bob transfer; returns (received bytes, clients)."""
    a, b, data_a, data_b = open_transfer(server, len(payload))
    sent = 0
    aborted = False
    for offset in range(0, len(payload), 65536):
        if abort_after is not None and sent >= abort_after:
            aborted = True
            break
        chunk = payload[offset : offset + 65536]
        data_a.sendall(encode_chunk(chunk))
        sent += len(chunk)
    if not aborted:
        data_a.sendall(encode_chunk(b""))
    data_a.close()

    received = bytearray()
    buf = bytearray()
    data_b.settimeout(5.0)
    try:
        while True:
            result = decode_chunk(bytes(buf))
            if result is NEED_MORE:
                data = data_b.recv(65536)
                if not data:
                    break
                buf.extend(data)
                continue
            chunk, consumed = result
            del buf[:consumed]
            if not chunk:
                break
            received.extend(chunk)
    except (socket.timeout, OSError):
        pass
    data_b.close()
    return bytes(received), a, b


def test_zero_byte_transfer(server, tmp_path):
    received, a, b = run_transfer(server, b"")
    assert received == b""
    assert wait_until(
        lambda: any(e["kind"] == "transfer_complete" for e in read_events(tmp_path / "events.jsonl"))
    )
    a.close(), b.close()


def test_100kib_transfer_conserves_bytes(server, tmp_path):
    payload = bytes(range(256)) * 400  # 102400 bytes
    received, a, b = run_transfer(server, payload)
    assert len(received) == 102400
    assert received == payload
    assert wait_until(
        lambda: any(
            e["kind"] == "transfer_complete" and e["bytes"] == 102400
            for e in read_events(tmp_path / "events.jsonl")
        )
    )
    # server-side conservation: chunks read from the sender equal chunks
    # written to the recipient, byte for byte (alice sent LOGIN + FILE_OFFER
    # on control and a HELLO on data; bob was sent OK + FILE_OFFER + FILE_ACCEPT)
    snap = server.snapshot().sessions
    chunks_in = snap["alice"].packets_received - 3
    chunks_out = snap["bob"].packets_sent - 3
    assert chunks_in == chunks_out == 3  # 64 KiB + 36 KiB + terminator
    alice_control = (
        len(b"LOGIN alice\r\n") + len(b"FILE_OFFER bob f.bin 102400\r\n")
        + len(b"HELLO 1 sender\r\n")
    )
    bob_control = (
        len(b"OK\r\n")
        + len(b"FILE_OFFER alice f.bin 102400 1\r\n")
        + len(b"FILE_ACCEPT alice 1 recipient\r\n")
    )
    data_in = snap["alice"].bytes_received - alice_control
    data_out = snap["bob"].bytes_sent - bob_control
    assert data_in == data_out == 102400 + 3 * 4
    a.close(), b.close()


def test_relay_forwards_chunks_as_sent_and_counts_each(server):
    # three chunks and the terminator in one write, so one read from the
    # sender can hold several chunks; each is still counted on its own
    chunks = [bytes(range(256)) * 256, b"m" * 1000, b"e", b""]
    wire = b"".join(encode_chunk(c) for c in chunks)
    a, b, data_a, data_b = open_transfer(server, 65536 + 1000 + 1)
    data_a.sendall(wire)
    received = bytearray()
    while data := data_b.recv(65536):  # the server closes after the terminator
        received += data
    data_a.close(), data_b.close()
    assert received == wire
    alice_in = [
        b"LOGIN alice\r\n", b"FILE_OFFER bob f.bin 66537\r\n", b"HELLO 1 sender\r\n"
    ]
    alice_out = [b"OK\r\n", b"FILE_ACCEPT bob 1 sender\r\n"]
    bob_in = [b"LOGIN bob\r\n", b"FILE_ACCEPT alice 1\r\n", b"HELLO 1 recipient\r\n"]
    bob_out = [
        b"OK\r\n", b"FILE_OFFER alice f.bin 66537 1\r\n",
        b"FILE_ACCEPT alice 1 recipient\r\n",
    ]
    alice, bob = server.snapshot().sessions["alice"], server.snapshot().sessions["bob"]
    assert (alice.packets_received, alice.bytes_received) == (
        3 + 4, len(b"".join(alice_in)) + len(wire)
    )
    assert (bob.packets_sent, bob.bytes_sent) == (3 + 4, len(b"".join(bob_out)) + len(wire))
    assert (alice.packets_sent, alice.bytes_sent) == (2, len(b"".join(alice_out)))
    assert (bob.packets_received, bob.bytes_received) == (3, len(b"".join(bob_in)))
    a.close(), b.close()


def test_short_transfer_flagged_as_size_mismatch(server, tmp_path):
    # terminator after 5 of 10 offered bytes: relayed != offered
    a, b, data_a, data_b = open_transfer(server, 10)
    data_a.sendall(encode_chunk(b"12345") + encode_chunk(b""))
    data_a.close()
    assert wait_until(
        lambda: any(
            e["kind"] == "transfer_aborted" and "size mismatch" in e["detail"]
            for e in read_events(tmp_path / "events.jsonl")
        )
    )
    # the recipient gets the data but no terminator, so it cannot take the
    # short file for a whole one
    received = bytearray()
    while data := data_b.recv(65536):
        received += data
    assert received == encode_chunk(b"12345")
    data_b.close()
    a.close(), b.close()


def test_aborted_transfer_keeps_control_channels(server, tmp_path):
    payload = bytes(1024) * 100
    received, a, b = run_transfer(server, payload, abort_after=65536)
    assert wait_until(
        lambda: any(
            e["kind"] == "transfer_aborted" and e["bytes"] == 65536
            and e["detail"] == "transfer 1: sender closed mid-transfer"
            for e in read_events(tmp_path / "events.jsonl")
        )
    )
    # both control channels still answer
    a.send(Frame(Command.LIST))
    assert a.read_frame().frame.command is Command.OK
    b.send(Frame(Command.LIST))
    assert b.read_frame().frame.command is Command.OK
    a.close(), b.close()


def read_chunks(conn) -> tuple[bytes, bool]:
    """Everything a recipient's end receives up to the server's EOF: the
    file's bytes, and whether a terminator ended them."""
    stream, chunks = FrameBuffer(chunks=True), []
    try:
        while True:
            chunks += stream.recv(conn)
    except ConnectionError:  # EOF
        pass
    ended = bool(chunks) and not chunks[-1][0]
    return b"".join(chunk for chunk, _ in chunks), ended


def closed_by_server(conn) -> bool:
    try:
        return conn.recv(1) == b""
    except ConnectionResetError:  # closed with bytes it had not read
        return True


def test_two_files_each_way_in_flight_at_once(server, tmp_path):
    # four transfers between one pair, all accepted and all ends open
    # before any data moves; every byte must land in its own transfer
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    bodies, ends = {}, {}
    for k, (sender, recipient) in enumerate([(a, b), (b, a), (a, b), (b, a)]):
        body = random.Random(k).randbytes(100_000 + k)
        transfer_id = offer_and_accept(server, sender, recipient, len(body), f"f{k}.bin")
        bodies[transfer_id] = body
        ends[transfer_id] = (open_end(server, transfer_id, "recipient"), None)
    for transfer_id, body in bodies.items():  # senders second, in halves
        conn = open_end(server, transfer_id, "sender")
        conn.sendall(encode_chunk(body[:60_000]))
        ends[transfer_id] = (ends[transfer_id][0], conn)
    for transfer_id, body in reversed(bodies.items()):
        ends[transfer_id][1].sendall(encode_chunk(body[60_000:]) + encode_chunk(b""))
    for transfer_id, body in bodies.items():
        recipient_end, sender_end = ends[transfer_id]
        assert read_chunks(recipient_end) == (body, True)
        assert closed_by_server(sender_end)
        recipient_end.close(), sender_end.close()
    events = read_events(tmp_path / "events.jsonl")
    complete = {e["detail"]: (e["nick"], e["peer"], e["bytes"])
                for e in events if e["kind"] == "transfer_complete"}
    assert complete == {
        f"transfer {i}: f{k}.bin": (("alice", "bob") if k % 2 == 0 else ("bob", "alice"))
        + (100_000 + k,)
        for k, i in enumerate(bodies)
    }
    a.close(), b.close()


def test_bad_hellos_are_closed_and_leave_other_transfers_alone(server, tmp_path):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    transfer_id = offer_and_accept(server, a, b, 3)
    a.send(Frame(Command.FILE_OFFER, ("bob", "g.bin", "3")))  # offered, never accepted
    unaccepted = b.read_frame().frame.args[3]
    recipient_end = open_end(server, transfer_id, "recipient")
    bad = [
        open_end(server, "99", "sender"),  # unknown id
        open_end(server, unaccepted, "sender"),  # not accepted
        open_end(server, transfer_id, "spectator"),  # no such role
        open_end(server, transfer_id, "recipient"),  # that end is taken
    ]
    overlong = RawClient(server.address)  # a line no hello fits in
    overlong.sock.sendall(b"x" * 2000)
    assert overlong.read_frame().frame == Frame(Command.ERR, ("MALFORMED",))
    bad.append(overlong.sock)
    for conn in bad:
        assert closed_by_server(conn)
        conn.close()
    sender_end = open_end(server, transfer_id, "sender")
    sender_end.sendall(encode_chunk(b"abc") + encode_chunk(b""))
    assert read_chunks(recipient_end) == (b"abc", True)
    recipient_end.close(), sender_end.close()
    events = read_events(tmp_path / "events.jsonl")
    refusals = [e["detail"] for e in events if e["kind"] == "malformed"]
    assert len(refusals) == 5 and "control line longer than 1024 bytes" in refusals
    assert sum(d.startswith("data channel: ") for d in refusals) == 4
    assert [e["detail"] for e in events if e["kind"] == "transfer_complete"] == [
        f"transfer {transfer_id}: f.bin"
    ]
    a.close(), b.close()


def test_a_file_sent_whole_before_its_recipient_connects_is_relayed(server):
    # the sender's hello, chunk and terminator arrive in one read, so the
    # chunks wait in its buffer for the recipient's end, not for DATA_IDLE_S
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    transfer_id = offer_and_accept(server, a, b, 3)
    sender_end = socket.create_connection(server.address, timeout=5.0)
    sender_end.sendall(encode_frame(Frame(Command.HELLO, (transfer_id, "sender")))
                       + encode_chunk(b"abc") + encode_chunk(b""))
    assert wait_until(lambda: len(server._transfers[transfer_id].ends) == 1)
    recipient_end = open_end(server, transfer_id, "recipient")
    assert read_chunks(recipient_end) == (b"abc", True)
    assert closed_by_server(sender_end)
    recipient_end.close(), sender_end.close(), a.close(), b.close()


def test_a_ping_before_the_hello_is_answered_on_the_data_end(server):
    # a connection is a control one until its hello: the PONG comes first,
    # then the file
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    transfer_id = offer_and_accept(server, a, b, 3)
    pong = encode_frame(Frame(Command.PONG, ("n",)))
    recipient_end = socket.create_connection(server.address, timeout=5.0)
    recipient_end.sendall(encode_frame(Frame(Command.PING, ("n",)))
                          + encode_frame(Frame(Command.HELLO, (transfer_id, "recipient"))))
    received = b""
    while len(received) < len(pong):
        received += recipient_end.recv(65536)
    sender_end = open_end(server, transfer_id, "sender")
    sender_end.sendall(encode_chunk(b"abc") + encode_chunk(b""))
    while data := recipient_end.recv(65536):
        received += data
    assert received == pong + encode_chunk(b"abc") + encode_chunk(b"")
    recipient_end.close(), sender_end.close(), a.close(), b.close()


def test_a_hello_after_login_is_malformed(server):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    transfer_id = offer_and_accept(server, a, b, 3)
    b.send(Frame(Command.HELLO, (transfer_id, "recipient")))
    assert b.read_frame().frame == Frame(Command.ERR, ("MALFORMED",))
    with pytest.raises(ConnectionError):
        b.read_frame()
    a.send(Frame(Command.LIST))
    assert a.read_frame().frame == Frame(Command.OK, ("alice",))
    a.close(), b.close()


def test_accept_of_a_departed_senders_offer_is_refused(server):
    # the offer leaves with its sender: neither the accept nor a new
    # session of the same nick may bring it back
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    a.send(Frame(Command.FILE_OFFER, ("bob", "f.bin", "10")))
    transfer_id = b.read_frame().frame.args[3]
    a.send(Frame(Command.QUIT))
    assert wait_until(lambda: server.snapshot().live_count == 1)
    b.send(Frame(Command.FILE_ACCEPT, ("alice", transfer_id)))
    assert b.read_frame().frame == Frame(Command.ERR, ("NO_SUCH_OFFER",))
    c = RawClient(server.address)
    assert c.login("alice").command is Command.OK
    b.send(Frame(Command.FILE_ACCEPT, ("alice", transfer_id)))
    assert b.read_frame().frame == Frame(Command.ERR, ("NO_SUCH_OFFER",))
    c.send(Frame(Command.LIST))
    assert c.read_frame().frame == Frame(Command.OK, ("alice,bob",))  # and no FILE_ACCEPT
    a.close(), b.close(), c.close()


def test_departures_drop_unaccepted_offers(server):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    a.sock.sendall(encode_frame(Frame(Command.FILE_OFFER, ("bob", "f.bin", "1"))) * 1000)
    assert wait_until(lambda: len(server._transfers) == 1000)
    b.send(Frame(Command.QUIT))  # the recipient leaves
    assert wait_until(lambda: len(server._transfers) == 0)
    a.sock.sendall(encode_frame(Frame(Command.FILE_OFFER, ("alice", "f.bin", "1"))) * 1000)
    assert wait_until(lambda: len(server._transfers) == 1000)
    a.send(Frame(Command.QUIT))  # the sender leaves
    assert wait_until(lambda: len(server._transfers) == 0)
    a.close(), b.close()


def test_departure_aborts_a_transfer_missing_its_end(server, tmp_path):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    transfer_id = offer_and_accept(server, a, b, 10)
    recipient_end = open_end(server, transfer_id, "recipient")
    a.send(Frame(Command.QUIT))  # alice never opened her end
    assert read_chunks(recipient_end) == (b"", False)
    assert [
        (e["nick"], e["peer"], e["detail"])
        for e in read_events(tmp_path / "events.jsonl") if e["kind"] == "transfer_aborted"
    ] == [("alice", "bob", f"transfer {transfer_id}: alice departed")]
    assert server._transfers == {}
    recipient_end.close(), a.close(), b.close()


def test_stop_with_a_half_open_transfer_returns_at_once(tmp_path):
    server = start_server(ServerConfig(log_path=tmp_path / "events.jsonl"))
    a, b = RawClient(server.address), RawClient(server.address)
    try:
        a.login("alice")
        b.login("bob")
        transfer_id = offer_and_accept(server, a, b, 10)
        recipient_end = open_end(server, transfer_id, "recipient")
        assert wait_until(lambda: len(server._transfers[transfer_id].ends) == 1)
    finally:
        started = time.monotonic()
        server.stop()
        stop_s = time.monotonic() - started
    assert stop_s < 1.0
    assert read_chunks(recipient_end) == (b"", False)
    assert server_threads() == []
    assert [e["detail"] for e in read_events(tmp_path / "events.jsonl")
            if e["kind"] == "transfer_aborted"] == [f"transfer {transfer_id}: server stopped"]
    recipient_end.close(), a.close(), b.close()


# --- robustness --------------------------------------------------------------


def test_accept_waits_for_a_free_descriptor(monkeypatch):
    # out of descriptors, accept() fails and the listener stays readable:
    # the loop must not spin on it, and must accept once a socket closes
    server = start_server(ServerConfig())  # stopped below, within a bound
    accept, calls, full = socket.socket.accept, [], threading.Event()

    def scarce(sock):
        if full.is_set():
            calls.append(sock)
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", scarce)
    other = RawClient(server.address)
    assert other.login("other").command is Command.OK
    full.set()
    waiting = RawClient(server.address)
    waiting.send(Frame(Command.LOGIN, ("waiting",)))
    assert wait_until(lambda: calls)
    time.sleep(0.3)
    assert len(calls) <= 2
    full.clear()
    other.close()
    assert waiting.read_frame().frame == Frame(Command.OK)
    full.set()  # and stop() closes a listener it no longer watches
    late = RawClient(server.address)
    assert wait_until(lambda: len(calls) > 1)
    stopping = threading.Thread(target=server.stop, daemon=True)
    stopping.start()
    stopping.join(timeout=2.0)
    assert not stopping.is_alive()
    assert server._listener.sock.fileno() == -1
    waiting.close(), late.close()


def test_malformed_frame_isolated_to_offender(server):
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    a.sock.sendall(b"BOGUS nonsense\r\n")
    with pytest.raises((ConnectionError, TimeoutError, OSError)):
        while True:
            a.read_frame(timeout=2.0)
    # bob is unaffected
    b.send(Frame(Command.LIST))
    assert b.read_frame().frame.command is Command.OK
    assert wait_until(lambda: server.snapshot().live_count == 1)
    a.close(), b.close()


def test_endless_line_is_refused_and_disconnected(server):
    # a peer that never sends CRLF must not grow the server's buffer
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    try:
        a.sock.sendall(b"x" * (1 << 20))
    except OSError:
        pass  # the server may close before it has read all of it
    assert a.read_frame().frame == Frame(Command.ERR, ("MALFORMED",))
    with pytest.raises(ConnectionError):  # EOF or reset, not a timeout
        a.read_frame()
    b.send(Frame(Command.LIST))
    assert b.read_frame().frame == Frame(Command.OK, ("bob",))
    assert wait_until(lambda: server.snapshot().live_count == 1)
    a.close(), b.close()


def test_client_that_never_reads_is_dropped_after_whole_frames(server, tmp_path):
    # bob never reads while alice sends him 18 MB; once more than SENDQ_MAX
    # bytes wait for him he is dropped, so he gets whole frames, then EOF
    a, b = RawClient(server.address), RawClient(server.address)
    a.login("alice")
    b.login("bob")
    body = bytes(range(256)) * 234 + bytes(96)
    n = 300
    a.sock.sendall(encode_frame(Frame(Command.MSG, ("bob", str(len(body)))), body) * n)
    a.send(Frame(Command.LIST))
    refused = 0
    while (reply := a.read_frame().frame) != Frame(Command.OK, ("alice",)):
        assert reply == Frame(Command.ERR, ("NO_SUCH_USER",))  # bob is gone
        refused += 1
    got = []
    with pytest.raises(ConnectionError):  # EOF, after the last whole frame
        while True:
            got.append(b.read_frame())
    relayed = Frame(Command.MSG, ("alice", str(len(body))))
    assert got and all(d.frame == relayed and d.payload == body for d in got)
    assert len(got) <= n - refused and refused > 0
    assert b.buffer.pending() < len(encode_frame(relayed, body))
    snap = server.snapshot()
    assert (snap.departures, set(snap.sessions)) == (1, {"alice"})
    assert [
        (e["nick"], e["detail"])
        for e in read_events(tmp_path / "events.jsonl") if e["kind"] == "disconnect"
    ] == [("bob", f"send queue over {server_module.SENDQ_MAX} bytes")]
    a.close(), b.close()


def test_history_is_bounded_and_departures_exact(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "HISTORY_MAX", 5)
    with start_server(ServerConfig(log_path=tmp_path / "events.jsonl")) as server:
        for i in range(20):
            client = RawClient(server.address)
            assert client.login(f"s{i}").command is Command.OK
            client.send(Frame(Command.QUIT))
            assert client.sock.recv(65536) == b""
            client.close()
        live = RawClient(server.address)
        assert live.login("live").command is Command.OK
        history = server.session_history()
        snap = server.snapshot()
        assert [r.conn is None for r in history] == [True] * 5 + [False]  # no departed socket
        live.close()
    assert [r.nick for r in history] == [f"s{i}" for i in range(15, 20)] + ["live"]
    assert (snap.logins, snap.departures) == (21, 20)


def test_snapshots_from_another_thread_are_whole(server):
    """A reader thread asks for snapshots and the history, on until after
    stop(), while 50 sessions come and go and one session relays to
    another: every counter set it gets is one the loop left between two
    handlers, and no call raises or hangs."""
    payload = b"x" * 100
    msg = encode_frame(Frame(Command.MSG, ("recipient", str(len(payload)))), payload)
    login = len(encode_frame(Frame(Command.LOGIN, ("sender",))))
    sender, recipient = RawClient(server.address), RawClient(server.address)
    assert sender.login("sender").command is recipient.login("recipient").command is Command.OK
    done, seen, errors = threading.Event(), [], []

    def whole(m: SessionMetrics) -> bool:
        return m.bytes_received == login + (m.packets_received - 1) * len(msg)

    def read():
        try:
            while not done.is_set():
                snap = server.snapshot()
                history = server.session_history()
                mine = [r.metrics for r in history if r.nick == "sender"]
                if "sender" in snap.sessions:
                    mine.append(snap.sessions["sender"])
                assert mine and all(whole(m) for m in mine), mine
                assert snap.logins - snap.departures == snap.live_count
                seen.append(snap.logins)
        except Exception as exc:  # handed to the main thread's asserts
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    reader = threading.Thread(target=read)
    reader.start()
    try:
        for i in range(50):
            client = RawClient(server.address)
            assert client.login(f"c{i}").command is Command.OK
            sender.sock.sendall(msg * 20)
            client.send(Frame(Command.QUIT))
            assert client.sock.recv(65536) == b""
            client.close()
        assert wait_until(lambda: server.snapshot().sessions["sender"].packets_received == 1001)
        server.stop()
    finally:
        done.set()
        reader.join(10.0)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert errors == []
    assert seen and seen[-1] == 52
    sender.close(), recipient.close()


def test_snapshot_and_history_before_start_and_after_stop(tmp_path):
    server = server_module.MessengerServer(ServerConfig(log_path=tmp_path / "events.jsonl"))
    snap = server.snapshot()
    assert (snap.logins, snap.departures, snap.sessions) == (0, 0, {})
    assert server.session_history() == []
    server.start()
    a = RawClient(server.address)
    assert a.login("alice").command is Command.OK
    a.send(Frame(Command.MSG, ("alice", "3")), b"hey")
    assert a.read_frame().frame.command is Command.MSG
    server.stop()  # alice is still logged in: the session leaves as the loop ends
    snap = server.snapshot()
    assert (snap.logins, snap.departures, snap.sessions) == (1, 1, {})
    [record] = server.session_history()
    assert record.nick == "alice" and record.conn is None
    assert (record.metrics.packets_received, record.metrics.packets_sent) == (2, 2)
    assert record.metrics.departure_mono_ms is not None
    a.close()


def test_long_names_are_bounded_so_relayed_lines_decode(server):
    # the longest lines the server relays carry a MAX_NAME-byte nick
    nick, name = "a" * MAX_NAME, "f" * MAX_NAME
    a, b = RawClient(server.address), RawClient(server.address)
    assert a.login(nick).command is Command.OK
    b.login("bob")
    a.send(Frame(Command.INVITE, ("bob",)))
    assert b.read_frame().frame == Frame(Command.INVITE, (nick,))
    a.send(Frame(Command.FILE_OFFER, ("bob", name, "9" * 20)))
    assert b.read_frame().frame == Frame(Command.FILE_OFFER, (nick, name, "9" * 20, "1"))
    for args, code in [
        (("bob", name + "f", "1"), "BAD_NAME"),
        (("bob", "\u00e9" * 128, "1"), "BAD_NAME"),  # 128 characters, 256 bytes
        (("bob", "f", "1" * 21), "BAD_SIZE"),
        (("bob", "f", "+1"), "BAD_SIZE"),
    ]:
        a.send(Frame(Command.FILE_OFFER, args))
        assert a.read_frame().frame == Frame(Command.ERR, (code,))
    c = RawClient(server.address)
    assert c.login(nick + "a") == Frame(Command.ERR, ("BAD_NICK",))
    assert c.login("\u00e9" * 128) == Frame(Command.ERR, ("BAD_NICK",))
    assert c.login("carol").command is Command.OK
    assert server.snapshot().live_count == 3
    a.close(), b.close(), c.close()


def test_list_reply_longer_than_a_line_is_refused(server):
    clients = [RawClient(server.address) for _ in range(4)]
    for i, c in enumerate(clients):
        assert c.login(str(i) * MAX_NAME).command is Command.OK
    clients[0].send(Frame(Command.LIST))
    assert clients[0].read_frame().frame == Frame(Command.ERR, ("LIST_TOO_LONG",))
    clients[3].send(Frame(Command.QUIT))  # three such nicks fit in one line
    assert wait_until(lambda: server.snapshot().live_count == 3)
    clients[0].send(Frame(Command.LIST))
    nicks = ",".join(str(i) * MAX_NAME for i in range(3))
    assert clients[0].read_frame().frame == Frame(Command.OK, (nicks,))
    for c in clients:
        c.close()


def test_registry_consistency_and_monotonic_timing(server):
    clients = [RawClient(server.address) for _ in range(4)]
    for i, c in enumerate(clients):
        c.login(f"user{i}")
    snap = server.snapshot()
    assert snap.live_count == snap.logins - snap.departures == 4
    for c in clients[:2]:
        c.send(Frame(Command.QUIT))
    assert wait_until(lambda: server.snapshot().live_count == 2)
    snap = server.snapshot()
    assert snap.logins == 4 and snap.departures == 2
    now = time.monotonic() * 1000.0
    departed = [r.metrics for r in server.session_history()
                if r.metrics.departure_mono_ms is not None]
    assert len(departed) == 2
    for metrics in departed:
        assert server.start_mono_ms <= metrics.start_mono_ms
        assert metrics.start_mono_ms <= metrics.departure_mono_ms <= now
    for c in clients:
        c.close()


def test_event_log_schema(server, tmp_path):
    a = RawClient(server.address)
    a.login("alice")
    a.send(Frame(Command.QUIT))
    assert wait_until(lambda: server.snapshot().live_count == 0)
    events = read_events(tmp_path / "events.jsonl")
    assert {e["kind"] for e in events} >= {"server_start", "login", "quit"}
    for event in events:
        assert set(event) == {
            "ts_epoch_ms", "ts_mono_ms", "kind", "nick", "peer", "bytes", "detail",
        }
    a.close()


def test_abrupt_close_logs_disconnect_on_disk(server, tmp_path):
    a = RawClient(server.address)
    a.login("alice")
    a.close()  # no QUIT
    assert wait_until(lambda: server.snapshot().departures == 1)
    # the departure shows only once its event is on disk
    events = read_events(tmp_path / "events.jsonl")
    assert [e["nick"] for e in events if e["kind"] == "disconnect"] == ["alice"]


TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=20) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028\u00e9\U0001f600", "\ud800"]
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(TEXT, TEXT, TEXT, TEXT, st.integers(0, 2**64))
def test_log_line_is_what_json_dumps_writes(kind, nick, peer, detail, size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        log = _EventLog(path)
        log.write(kind, nick=nick, peer=peer, bytes_=size, detail=detail)
        log.close()
        line = path.read_text(encoding="ascii")
    record = json.loads(line)
    assert line == json.dumps(record) + "\n"
    assert record == {
        "ts_epoch_ms": record["ts_epoch_ms"], "ts_mono_ms": record["ts_mono_ms"],
        "kind": kind, "nick": nick, "peer": peer, "bytes": size, "detail": detail,
    }
    assert all(isinstance(record[k], float) for k in ("ts_epoch_ms", "ts_mono_ms"))
