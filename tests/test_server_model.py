"""Model-based test of the relay server: a Hypothesis state machine.

Raw clients drive an in-process server through logins (valid, taken and
over MAX_NAME), messages to live and absent nicks, LIST, file offers and
accepts whose data connections complete, come up short, are cut, never
open, or are left for a departure or ``stop()`` to abort, malformed and
overlong lines, QUIT and abrupt closes.  A small pure-Python model
predicts every reply, the counters of ``snapshot()`` and
``session_history()``, and the one ``transfer_complete`` or
``transfer_aborted`` line each ended transfer logs.

Each rule waits for the replies and EOFs the model predicts, never for a
time.  Two effects give a client nothing to read: the departure after an
abrupt close, and a transfer whose data connections never open, which
the server aborts once DATA_IDLE_S (set short for that rule) has passed.
Those two are awaited by polling the server's counters and its log.

A spy on the server's writes to control sockets takes a snapshot right
after each write, so the test also checks that every frame is counted
before a peer can read it.
"""

import json
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import biokm.server as server_module
from biokm.protocol import (
    MAX_CHUNK,
    MAX_LINE,
    MAX_NAME,
    Command,
    Frame,
    FrameBuffer,
    encode_chunk,
    encode_frame,
)
from biokm.server import ServerConfig, start_server

# four of the long nicks overflow a LIST reply: 4 * 255 + 3 commas > MAX_LINE - 3
NICKS = tuple(c * MAX_NAME for c in "abcd") + ("e",)
TOO_LONG = "f" * (MAX_NAME + 1)
SLOTS = 5
OUTCOMES = ("complete", "complete", "short", "cut", "missing", "abandon", "stale")
SIZES = (0, 1, 70_000)
SHORT_IDLE_S = 0.05
TIMEOUT_S = 5.0
PICK = st.integers(0, 99)  # an index into whatever the rule picks from


def wire(command: Command, *args: str, payload: bytes = b"") -> bytes:
    return encode_frame(Frame(command, args), payload)


def counters(m) -> tuple[int, int, int, int]:
    return (m.packets_sent, m.bytes_sent, m.packets_received, m.bytes_received)


def body(size: int) -> bytes:
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def chunks_of(data: bytes) -> list[bytes]:
    return [data[off : off + MAX_CHUNK] for off in range(0, len(data), MAX_CHUNK)]


def until(predicate) -> None:
    deadline = time.monotonic() + TIMEOUT_S
    while not predicate():
        assert time.monotonic() < deadline, "the server never got there"
        time.sleep(0.001)


@dataclass(eq=False)
class Session:
    """The model of one login: the counters the server must show for it."""

    nick: str
    packets_sent: int = 0
    bytes_sent: int = 0
    packets_received: int = 0
    bytes_received: int = 0
    control_sent: tuple[int, int] = (0, 0)  # sent counters after its last control frame

    def sent(self, data: bytes, control: bool = True):
        self.packets_sent += 1
        self.bytes_sent += len(data)
        if control:
            self.control_sent = (self.packets_sent, self.bytes_sent)

    def received(self, data: bytes):
        self.packets_received += 1
        self.bytes_received += len(data)


class Client:
    """One control connection, and the session the model gives it."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=TIMEOUT_S)
        self.peer = self.sock.getsockname()  # the server side's peer name
        self.buffer = FrameBuffer()
        self.frames: list = []
        self.read_bytes = 0
        self.session: Session | None = None

    def expect(self, data: bytes):
        """Read the next frame, which must encode to exactly ``data``."""
        while not self.frames:
            got = self.sock.recv(65536)
            assert got, f"EOF instead of {data!r}"
            self.read_bytes += len(got)
            self.frames += self.buffer.feed(got)
        frame, payload, _ = self.frames.pop(0)
        assert encode_frame(frame, payload) == data

    def expect_eof(self):
        assert not self.frames and self.sock.recv(65536) == b""


class WriteSpy:
    """Wraps ``send`` and ``sendall``; after each server write to a control
    connection the model opened (``track``), not to a data end, it takes a
    snapshot: what a peer reading those bytes at once could see."""

    def __init__(self, server):
        self.port = server.port
        self.snapshot = server.snapshot
        self.cond = threading.Condition()
        self.written: dict = {}  # tracked peer -> bytes the server wrote to it
        self.seen: dict = {}  # tracked peer -> snapshot after the last of them
        self.saved = {name: socket.socket.__dict__.get(name) for name in ("send", "sendall")}
        for name in self.saved:
            setattr(socket.socket, name, self._wrap(getattr(socket.socket, name)))

    def _wrap(self, original):
        def write(sock, data, *args):
            result = original(sock, data, *args)
            try:
                peer = (sock.getpeername() if sock.family == socket.AF_INET
                        and sock.getsockname()[1] == self.port else None)
            except OSError:
                peer = None
            if peer in self.written:
                snap = self.snapshot()
                with self.cond:
                    self.written[peer] = self.written.get(peer, 0) + (
                        len(data) if result is None else result
                    )
                    self.seen[peer] = snap
                    self.cond.notify_all()
            return result

        return write

    def track(self, client: "Client"):
        """Count writes to ``client``'s connection from now on, from zero:
        a data end that used its port before counts for nothing."""
        with self.cond:
            self.written[client.peer] = 0
            self.seen.pop(client.peer, None)

    def uninstall(self):
        for name, original in self.saved.items():
            if original is None:
                delattr(socket.socket, name)
            else:
                setattr(socket.socket, name, original)

    def after_last_write(self, client: Client):
        """The snapshot taken after the write that brought ``client`` the
        last byte it has read."""
        with self.cond:
            assert self.cond.wait_for(
                lambda: self.written.get(client.peer, 0) >= client.read_bytes, TIMEOUT_S
            )
            return self.seen[client.peer]


class ServerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.log = Path(self.tmp.name) / "events.jsonl"
        self.server = start_server(ServerConfig(log_path=self.log))
        self.spy = WriteSpy(self.server)
        self.clients: list[Client | None] = [None] * SLOTS
        self.live: dict[str, Session] = {}  # in login order, as the registry
        self.departed: list[Session] = []
        self.logins = 0
        self.next_id = 1
        self.offers: list[tuple[str, Session, Session, int]] = []  # id, sender, recipient, size
        self.pending: dict[str, tuple[Session, Session]] = {}  # accepted, ends never opened
        self.ended: dict[str, tuple[str, str, int]] = {}  # id -> kind, note, bytes

    # --- helpers -------------------------------------------------------------

    def connected(self, i: int) -> int:
        slots = [s for s, c in enumerate(self.clients) if c is not None]
        return slots[i % len(slots)]

    def client_of(self, session: Session) -> Client:
        return next(c for c in self.clients if c is not None and c.session is session)

    def depart(self, slot: int):
        """The model's side of a departure: the slot's session, if any, leaves,
        aborting the accepted transfers still waiting for it."""
        session = self.clients[slot].session
        self.clients[slot] = None
        if session is None:
            return
        del self.live[session.nick]
        self.departed.append(session)
        for transfer_id, ends in list(self.pending.items()):
            if session in ends:
                self.ended[transfer_id] = ("transfer_aborted", f"{session.nick} departed", 0)
                del self.pending[transfer_id]

    def logged_transfers(self) -> dict[str, tuple[str, str, int]]:
        out = {}
        for line in self.log.read_text(encoding="ascii").split("\n")[:-1]:  # whole lines
            event = json.loads(line)
            if event["kind"] in ("transfer_complete", "transfer_aborted"):
                head, _, note = event["detail"].partition(": ")
                transfer_id = head.removeprefix("transfer ")
                assert transfer_id not in out, f"transfer {transfer_id} logged twice"
                out[transfer_id] = (event["kind"], note, event["bytes"])
        return out

    def open_end(self, transfer_id: str, session: Session, role: str):
        conn = socket.create_connection(self.server.address, timeout=TIMEOUT_S)
        hello = wire(Command.HELLO, transfer_id, role)
        session.received(hello)
        return conn, hello

    # --- rules ---------------------------------------------------------------

    @initialize(logins=st.integers(0, SLOTS))
    def log_in_first(self, logins):
        # a head start, so LIST overflows and transfers find peers more often
        for slot in range(logins):
            self.login(slot, NICKS[slot])

    @rule(slot=st.integers(0, SLOTS - 1), nick=st.sampled_from(NICKS + (TOO_LONG,)))
    def login(self, slot, nick):
        client = self.clients[slot]
        if client is None:
            client = self.clients[slot] = Client(self.server.address)
            self.spy.track(client)
        frame = wire(Command.LOGIN, nick)
        client.sock.sendall(frame)
        session = client.session
        if session is not None:
            reply = wire(Command.ERR, "ALREADY_LOGGED_IN")
        elif len(nick) > MAX_NAME:
            reply = wire(Command.ERR, "BAD_NICK")
        elif nick in self.live:
            reply = wire(Command.ERR, "NICK_TAKEN")
        else:
            session = client.session = self.live[nick] = Session(nick)
            self.logins += 1
            reply = wire(Command.OK)
        if session is not None:
            session.received(frame)
            session.sent(reply)
        client.expect(reply)

    @precondition(lambda self: any(self.clients))
    @rule(i=PICK, to=st.sampled_from(NICKS), payload=st.binary(max_size=64))
    def message(self, i, to, payload):
        client = self.clients[self.connected(i)]
        frame = wire(Command.MSG, to, str(len(payload)), payload=payload)
        client.sock.sendall(frame)
        session = client.session
        if session is None:
            client.expect(wire(Command.ERR, "NOT_LOGGED_IN"))
            return
        session.received(frame)
        target = self.live.get(to)
        if target is None:
            reply = wire(Command.ERR, "NO_SUCH_USER")
            session.sent(reply)
            client.expect(reply)
            return
        relayed = wire(Command.MSG, session.nick, str(len(payload)), payload=payload)
        target.sent(relayed)
        self.client_of(target).expect(relayed)

    @precondition(lambda self: any(self.clients))
    @rule(i=PICK)
    def list_nicks(self, i):
        client = self.clients[self.connected(i)]
        frame = wire(Command.LIST)
        client.sock.sendall(frame)
        session = client.session
        if session is None:
            client.expect(wire(Command.ERR, "NOT_LOGGED_IN"))
            return
        nicks = ",".join(sorted(self.live))
        if len(nicks.encode()) > MAX_LINE - 3:
            reply = wire(Command.ERR, "LIST_TOO_LONG")
        else:
            reply = wire(Command.OK, nicks)
        session.received(frame)
        session.sent(reply)
        client.expect(reply)

    @precondition(lambda self: self.live)
    @rule(i=PICK, to=st.sampled_from(NICKS), size=st.sampled_from(SIZES))
    def offer(self, i, to, size):
        """An offer left open, for a later accept or a departure to drop."""
        offer = self.make_offer(list(self.live.values())[i % len(self.live)], to, size)
        if offer is not None:
            self.offers.append(offer)

    @precondition(lambda self: self.offers)
    @rule(i=PICK, outcome=st.sampled_from(OUTCOMES))
    def accept(self, i, outcome):
        self.settle(self.offers.pop(i % len(self.offers)), outcome)

    @precondition(lambda self: self.live)
    @rule(i=PICK, j=PICK, size=st.sampled_from(SIZES), outcome=st.sampled_from(OUTCOMES))
    def transfer(self, i, j, size, outcome):
        """Offer, accept and end one file between two live sessions."""
        live = list(self.live.values())
        offer = self.make_offer(live[i % len(live)], live[j % len(live)].nick, size)
        self.settle(offer, outcome)

    def make_offer(self, sender: Session, to: str, size: int):
        client = self.client_of(sender)
        frame = wire(Command.FILE_OFFER, to, "f.bin", str(size))
        client.sock.sendall(frame)
        sender.received(frame)
        recipient = self.live.get(to)
        if recipient is None:
            reply = wire(Command.ERR, "NO_SUCH_USER")
            sender.sent(reply)
            client.expect(reply)
            return None
        transfer_id = str(self.next_id)
        self.next_id += 1
        relayed = wire(Command.FILE_OFFER, sender.nick, "f.bin", str(size), transfer_id)
        recipient.sent(relayed)
        self.client_of(recipient).expect(relayed)
        return transfer_id, sender, recipient, size

    def settle(self, offer, outcome):
        """The recipient's nick accepts ``offer``; the transfer then ends as
        ``outcome`` says, or is refused if a departure dropped the offer
        (as the sender's QUIT first does for a "stale" one)."""
        transfer_id, sender, recipient, size = offer
        if outcome == "stale" and self.live.get(sender.nick) is sender:
            self.leave(self.clients.index(self.client_of(sender)))
        accepting = self.live.get(recipient.nick)
        if accepting is None:
            return  # nobody of that nick is left to accept it
        client = self.client_of(accepting)
        frame = wire(Command.FILE_ACCEPT, sender.nick, transfer_id)
        accepting.received(frame)
        if accepting is not recipient or self.live.get(sender.nick) is not sender:
            client.sock.sendall(frame)  # a departure dropped the offer
            reply = wire(Command.ERR, "NO_SUCH_OFFER")
            accepting.sent(reply)
            client.expect(reply)
            return
        to_recipient = wire(Command.FILE_ACCEPT, sender.nick, transfer_id, "recipient")
        to_sender = wire(Command.FILE_ACCEPT, recipient.nick, transfer_id, "sender")
        recipient.sent(to_recipient)
        sender.sent(to_sender)
        idle_s = server_module.DATA_IDLE_S
        if outcome == "missing":  # the deadline is set as the accept is served
            server_module.DATA_IDLE_S = SHORT_IDLE_S
        try:
            client.sock.sendall(frame)
            client.expect(to_recipient)
            self.client_of(sender).expect(to_sender)
        finally:
            server_module.DATA_IDLE_S = idle_s
        if outcome == "missing":
            until(lambda: transfer_id in self.logged_transfers())
            self.ended[transfer_id] = ("transfer_aborted", "data channel never opened", 0)
        elif outcome == "abandon":
            self.pending[transfer_id] = (sender, recipient)
        else:
            self.relay(transfer_id, sender, recipient, size, outcome)

    def relay(self, transfer_id, sender, recipient, size, outcome):
        """Open both ends; the sender sends the whole file, a file one byte
        off its offered size, or half of it before it closes its end."""
        data = {"complete": body(size), "short": body(size - 1) if size else b"x",
                "cut": body(size // 2)}[outcome]
        sent = [encode_chunk(c) for c in chunks_of(data)]
        if outcome != "cut":
            sent.append(encode_chunk(b""))
        recipient_end, hello = self.open_end(transfer_id, recipient, "recipient")
        recipient_end.sendall(hello)
        sender_end, hello = self.open_end(transfer_id, sender, "sender")
        sender_end.sendall(hello + b"".join(sent))
        if outcome == "cut":
            sender_end.close()
        for chunk in sent:
            sender.received(chunk)
        relayed = sent if outcome == "complete" else sent[: len(chunks_of(data))]
        for chunk in relayed:
            recipient.sent(chunk, control=False)
        got = bytearray()
        while more := recipient_end.recv(65536):  # the server closes after logging
            got += more
        recipient_end.close()
        assert bytes(got) == b"".join(relayed)
        if outcome != "cut":
            assert sender_end.recv(1) == b""  # half-closed once the server took it
            sender_end.close()
        note = {"complete": "f.bin", "short": f"size mismatch: offered {size}",
                "cut": "sender closed mid-transfer"}[outcome]
        kind = "transfer_complete" if outcome == "complete" else "transfer_aborted"
        self.ended[transfer_id] = (kind, note, len(data))

    @precondition(lambda self: any(self.clients))
    @rule(i=PICK, overlong=st.booleans())
    def malformed(self, i, overlong):
        slot = self.connected(i)
        client = self.clients[slot]
        client.sock.sendall(b"x" * (MAX_LINE + 10) + b"\r\n" if overlong else b"BOGUS x\r\n")
        reply = wire(Command.ERR, "MALFORMED")
        if client.session is not None:
            client.session.sent(reply)
        client.expect(reply)
        self.depart(slot)
        client.expect_eof()
        client.sock.close()

    @precondition(lambda self: any(self.clients))
    @rule(i=PICK)
    def quit(self, i):
        self.leave(self.connected(i))

    def leave(self, slot: int):
        client = self.clients[slot]
        frame = wire(Command.QUIT)
        client.sock.sendall(frame)
        if client.session is not None:
            client.session.received(frame)
        self.depart(slot)
        client.expect_eof()  # the departure is recorded before the close
        client.sock.close()

    @precondition(lambda self: any(self.clients))
    @rule(i=PICK)
    def close_abruptly(self, i):
        slot = self.connected(i)
        self.clients[slot].sock.close()
        self.depart(slot)
        until(lambda: self.server.snapshot().departures == len(self.departed))

    # --- invariants ------------------------------------------------------------

    @invariant()
    def counters_match(self):
        snap = self.server.snapshot()
        assert (snap.logins, snap.departures) == (self.logins, len(self.departed))
        assert {n: counters(m) for n, m in snap.sessions.items()} == {
            n: counters(s) for n, s in self.live.items()
        }
        history = self.server.session_history()
        assert [(r.nick, counters(r.metrics)) for r in history] == [
            (s.nick, counters(s)) for s in [*self.departed, *self.live.values()]
        ]
        assert [r.metrics.departure_mono_ms is not None for r in history] == (
            [True] * len(self.departed) + [False] * len(self.live)
        )

    @invariant()
    def counted_before_written(self):
        for client in self.clients:
            if client is not None and client.session is not None:
                seen = self.spy.after_last_write(client).sessions[client.session.nick]
                packets, nbytes = client.session.control_sent
                assert seen.packets_sent >= packets and seen.bytes_sent >= nbytes

    @invariant()
    def each_ended_transfer_logged_once(self):
        assert self.logged_transfers() == self.ended

    def teardown(self):
        try:
            started = time.monotonic()
            self.server.stop()
            stop_s = time.monotonic() - started
            for client in self.clients:
                if client is not None:
                    client.sock.close()
        finally:
            self.spy.uninstall()
        logged = self.logged_transfers()
        self.tmp.cleanup()
        assert stop_s < 1.0
        assert [t for t in threading.enumerate() if t.name.startswith("biokm-")] == []
        # stop() aborts what was still waiting, as "server stopped" or as a departure
        assert {k: v for k, v in logged.items() if k not in self.pending} == self.ended
        assert all(logged[k][0] == "transfer_aborted" for k in self.pending)


ServerMachine.TestCase.settings = settings(
    derandomize=True, deadline=None, max_examples=60, stateful_step_count=30,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServerModel = ServerMachine.TestCase
