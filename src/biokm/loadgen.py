"""Deterministic scripted clients driving a relay server.

A scenario compiles to a schedule: per client, a login, its chat
messages and/or file offers, and a quit, each at a seeded offset.  Gaps
between events are a fixed base plus exponential jitter from one seeded
generator, so a seed fully determines the schedule (and with it every
non-timing field of the resulting capture).

Clients run pairwise phases: both ends of a pair are online together
and exchange traffic, and phases follow one another.  The run record
pads the window so that the summed session time stays below the window
length (the analysis requires a stable, under-unity utilization).  The
padding is written into the record, not waited out: a run returns once
its last client has been served.  Two completion waits make the
server's log and history complete by then: a recipient reads its data
channel to EOF, and a client waits for the server's EOF after QUIT (see
``run_scenario``).  A client
sends nothing to a peer before that peer's login is answered, whatever
the offsets say.  An odd trailing client talks to itself, which the
protocol permits.  The first error any client records, a server ERR
included, stops the whole run.  File bodies are fixed by the seed
(``file_body``), and each recipient checks a CRC-32 of what arrived
against the body it derives, so a relay that reorders or corrupts
chunks fails the run.

A client accepts every offer as it arrives and binds each transfer by
the id the server gives it: the relayed offer carries the id, and each
FILE_ACCEPT announcement the id and the client's role, so transfers with
one peer may overlap in both directions.  Each end is a connection of
its own to the server's port, opened with a hello.  A client sends its
own files one at a time from its schedule thread, and reads each
incoming file in a thread of its own.
"""

from __future__ import annotations

import random
import socket
import statistics
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .protocol import (
    MAX_CHUNK,
    RECIPIENT,
    SENDER,
    Command,
    Frame,
    FrameBuffer,
    ProtocolError,
    encode_chunk,
    encode_frame,
)
from .server import now_epoch_ms, now_mono_ms
from .telemetry import SessionMetrics, run_record, session_record, write_capture

RTT_PROBES = 5
CLIENT_TIMEOUT_S = 30.0
BODY_PERIOD = 65521  # prime, so no chunk boundary falls on a period


def file_body(seed: int, sender: str, filename: str, size: int) -> bytes:
    """The bytes ``sender`` sends as ``filename``: one seeded block of
    BODY_PERIOD bytes (of ``size`` bytes if that is less), tiled to
    ``size``.  A swapped, dropped or repeated chunk changes them, since
    MAX_CHUNK is no multiple of the period."""
    block = random.Random(f"{seed}:{sender}:{filename}").randbytes(min(size, BODY_PERIOD))
    return (block * (size // BODY_PERIOD + 1))[:size]


class InvalidSpec(ValueError):
    pass


class ScenarioFailed(RuntimeError):
    """A client hit a protocol error; the first one is the message."""


class Mode(str, Enum):
    IRCD = "ircd"
    FTP = "ftp"
    MIXED = "mixed"


@dataclass(frozen=True)
class ScenarioSpec:
    mode: Mode
    clients: int = 2
    messages_per_client: int = 0
    message_size: int = 100
    files_per_client: int = 0
    file_size: int = 4096
    inter_event_gap_ms: float = 5.0
    seed: int = 1

    def __post_init__(self):
        if self.clients < 1:
            raise InvalidSpec("need at least one client")
        if min(self.messages_per_client, self.files_per_client) < 0:
            raise InvalidSpec("event counts must be >= 0")
        if min(self.message_size, self.file_size) < 0:
            raise InvalidSpec("sizes must be >= 0")
        if self.inter_event_gap_ms < 0:
            raise InvalidSpec("gap must be >= 0")
        if self.mode is Mode.IRCD and self.files_per_client != 0:
            raise InvalidSpec("ircd scenarios transfer no files")
        if self.mode is Mode.FTP and self.messages_per_client != 0:
            raise InvalidSpec("ftp scenarios send no messages")
        if self.mode is Mode.MIXED and (
            self.messages_per_client < 1 or self.files_per_client < 1
        ):
            raise InvalidSpec("mixed scenarios need messages and files")

    @classmethod
    def from_config(cls, path) -> "ScenarioSpec":
        """Read ``key=value`` lines; '#' starts a comment."""
        fields = {}
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidSpec(f"bad config line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            fields[key] = value
        try:
            kwargs = {
                "mode": Mode(fields.pop("mode")),
            }
            for key, value in fields.items():
                if key == "inter_event_gap_ms":
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = int(value)
            return cls(**kwargs)
        except (KeyError, ValueError, TypeError) as exc:
            raise InvalidSpec(f"bad scenario config: {exc}") from None


@dataclass(frozen=True)
class ScheduleEvent:
    at_ms: float
    client: str
    action: str  # login | message | transfer | quit
    peer: str = ""
    size: int = 0
    index: int = 0


@dataclass(frozen=True)
class Schedule:
    events: tuple[ScheduleEvent, ...]
    end_ms: float
    nicks: tuple[str, ...]

    def for_client(self, nick: str) -> list[ScheduleEvent]:
        return [e for e in self.events if e.client == nick]


def _nicks(count: int) -> list[str]:
    width = len(str(count))
    return [f"c{i + 1:0{width}d}" for i in range(count)]


def generate_schedule(spec: ScenarioSpec) -> Schedule:
    """Compile a scenario into seeded, reproducible event offsets."""
    rng = random.Random(spec.seed)
    gap = spec.inter_event_gap_ms

    def step() -> float:
        return gap + (rng.expovariate(1.0 / gap) if gap > 0 else 0.0)

    nicks = _nicks(spec.clients)
    pairs = [
        (nicks[i], nicks[i + 1]) if i + 1 < len(nicks) else (nicks[i], nicks[i])
        for i in range(0, len(nicks), 2)
    ]
    events: list[ScheduleEvent] = []
    spans: list[float] = []
    t = gap
    for a, b in pairs:
        members = (a,) if a == b else (a, b)
        directions = ((a, b),) if a == b else ((a, b), (b, a))
        started = {}
        for nick in members:
            t += step()
            events.append(ScheduleEvent(t, nick, "login"))
            started[nick] = t
        for k in range(spec.messages_per_client):
            for nick, peer in directions:
                t += step()
                events.append(
                    ScheduleEvent(t, nick, "message", peer, spec.message_size, k)
                )
        for k in range(spec.files_per_client):
            for nick, peer in directions:
                t += step()
                events.append(
                    ScheduleEvent(t, nick, "transfer", peer, spec.file_size, k)
                )
        for nick in members:
            t += step()
            events.append(ScheduleEvent(t, nick, "quit"))
            spans.append(t - started[nick])
        t += 2 * gap
    # pad the tail so summed session time stays well under the window
    active = sum(spans)
    end = max(t + 2 * gap, active / 0.7)
    return Schedule(events=tuple(events), end_ms=end, nicks=tuple(nicks))


class _Run:
    """What the clients of one run share: one condition that guards every
    client's state, and the run's first failure, which stops them all."""

    def __init__(self):
        self.cond = threading.Condition()
        self.failure: Exception | None = None


class _ScriptedClient:
    """One scripted connection: a schedule executor plus a reactive reader."""

    def __init__(
        self,
        nick: str,
        address: tuple[str, int],
        spec: ScenarioSpec,
        online: dict[str, threading.Event],
        run: _Run | None = None,
    ):
        self.nick = nick
        self.address = address
        self.spec = spec
        # nick -> set once that client's LOGIN is answered; shared by a run
        self._online = online
        self._run = run or _Run()
        self.metrics = SessionMetrics()
        self.rtt_ms: float | None = None
        self.departure_epoch_ms: float | None = None
        self.error: Exception | None = None
        # message bodies in index order, the order this client sends them in
        self._msg_bodies = random.Random(f"{spec.seed}:{nick}:msg")

        self._sock: socket.socket | None = None
        self._decoder = FrameBuffer()  # the control channel, RTT probes included
        self._send_lock = threading.Lock()
        self._state = self._run.cond
        self._reader_done = False
        self._ok_seen = 0
        self._msgs_received = 0
        self._files_received = 0
        # accepted transfer id -> (sender, file name, size), until its data is in
        self._incoming: dict[str, tuple[str, str, int]] = {}
        self._offered_to: str | None = None  # the peer of this client's open offer
        self._outgoing: str | None = None  # that offer's id, once announced
        self._channels: set[socket.socket] = set()  # open data channels
        self._reader: threading.Thread | None = None
        self._data_threads: list[threading.Thread] = []

    # -- connection setup ----------------------------------------------------

    def connect_and_probe(self):
        self._sock = socket.create_connection(self.address, timeout=CLIENT_TIMEOUT_S)
        samples = []
        for i in range(RTT_PROBES):
            nonce = f"p{i}"
            t0 = now_mono_ms()
            self._sock.sendall(encode_frame(Frame(Command.PING, (nonce,))))
            got = None
            while got is None:
                for frame, _, _ in self._decoder.recv(self._sock):
                    if frame.command is Command.PONG and frame.args[0] == nonce:
                        got = now_mono_ms() - t0
            samples.append(got)
        self.rtt_ms = statistics.median(samples)

    # -- schedule execution ----------------------------------------------------

    def run(self, t0_ms: float, events: list[ScheduleEvent]):
        try:
            self._reader = threading.Thread(
                target=self._read_loop, daemon=True, name=f"client-{self.nick}-reader"
            )
            self._reader.start()
            for event in events:
                self._sleep_until(t0_ms + event.at_ms)
                if event.action == "login":
                    self._do_login()
                elif event.action == "message":
                    self._do_message(event)
                elif event.action == "transfer":
                    self._do_transfer(event)
                elif event.action == "quit":
                    self._do_quit()
        except Exception as exc:  # noqa: BLE001 - recorded, surfaced by the runner
            self._record(exc)
            try:
                self._sock.close()
            except OSError:
                pass

    @staticmethod
    def _sleep_until(deadline_ms: float):
        delta = (deadline_ms - now_mono_ms()) / 1000.0
        if delta > 0:
            time.sleep(delta)

    def _wait(self, ready, stalled: str):
        """Wait on the run's condition, which the caller holds, until
        ``ready()``; raise if CLIENT_TIMEOUT_S passes or the run fails."""
        run = self._run
        if not self._state.wait_for(
            lambda: ready() or run.failure is not None, CLIENT_TIMEOUT_S
        ):
            raise ScenarioFailed(f"{self.nick}: {stalled}")
        if run.failure is not None:
            raise ScenarioFailed(f"{self.nick}: stopped by {run.failure}")

    def _do_login(self):
        self.metrics.start_mono_ms = now_mono_ms()
        self._send(Frame(Command.LOGIN, (self.nick,)))
        with self._state:
            self._wait(lambda: self._ok_seen > 0, "no OK after LOGIN")
            self._online[self.nick].set()
            self._state.notify_all()

    def _await_peer(self, peer: str):
        # offsets alone do not order events across clients on a loaded
        # machine; a send before the peer's login would get NO_SUCH_USER
        with self._state:
            self._wait(self._online[peer].is_set, f"{peer} never logged in")

    def _do_message(self, event: ScheduleEvent):
        self._await_peer(event.peer)
        body = self._msg_bodies.randbytes(event.size)
        self._send(Frame(Command.MSG, (event.peer, str(len(body)))), body)

    def _do_transfer(self, event: ScheduleEvent):
        self._await_peer(event.peer)
        filename = f"f{event.index}.bin"
        body = file_body(self.spec.seed, self.nick, filename, event.size)
        with self._state:
            self._offered_to, self._outgoing = event.peer, None
        self._send(Frame(Command.FILE_OFFER, (event.peer, filename, str(event.size))))
        with self._state:
            self._wait(
                lambda: self._outgoing is not None,
                f"file {event.index} to {event.peer} stalled",
            )
            transfer_id = self._outgoing
        self._send_file(event.peer, transfer_id, body)

    def _do_quit(self):
        # the schedule fixes how much traffic arrives before departure, so
        # wait for all of it: quitting early would strand the peer's sends
        with self._state:
            self._wait(
                lambda: (
                    self._msgs_received >= self.spec.messages_per_client
                    and self._files_received >= self.spec.files_per_client
                ),
                "incoming traffic never drained",
            )
        self._send(Frame(Command.QUIT))
        self.metrics.departure_mono_ms = now_mono_ms()
        self.departure_epoch_ms = now_epoch_ms()
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        # the server records a departure before it closes the session,
        # so once the reader has seen EOF, session_history() holds it
        with self._state:
            self._wait(lambda: self._reader_done, "no EOF after QUIT")

    def _send(self, frame: Frame, payload: bytes = b""):
        wire = encode_frame(frame, payload)
        with self._send_lock:
            self._sock.sendall(wire)
        self.metrics.count_sent(len(wire))

    def _record(self, exc: Exception):
        """Keep the first error; the run's first one stops every client."""
        with self._state:
            self.error = self.error or exc
            self._run.failure = self._run.failure or exc
            self._state.notify_all()

    # -- reactive side ---------------------------------------------------------

    def _read_loop(self):
        # the socket keeps CLIENT_TIMEOUT_S, which also bounds the schedule
        # thread's sends on it; close() wakes this read by a shutdown
        sock = self._sock
        try:
            while True:
                try:
                    frames = self._decoder.recv(sock)
                except socket.timeout:
                    continue
                except OSError:
                    return
                except ProtocolError as exc:
                    self._record(exc)
                    return
                for frame, payload, consumed in frames:
                    self.metrics.count_received(consumed)
                    self._react(frame, payload)
        finally:
            with self._state:
                self._reader_done = True
                self._state.notify_all()

    def _react(self, frame: Frame, payload: bytes):
        command = frame.command
        if command is Command.OK:
            with self._state:
                self._ok_seen += 1
                self._state.notify_all()
        elif command is Command.MSG:
            with self._state:
                self._msgs_received += 1
                self._state.notify_all()
        elif command is Command.INVITE:
            pass  # notification only
        elif command is Command.FILE_OFFER:
            sender, filename, size, transfer_id = frame.args
            with self._state:
                self._incoming[transfer_id] = (sender, filename, int(size))
            try:
                self._send(Frame(Command.FILE_ACCEPT, (sender, transfer_id)))
            except OSError as exc:  # control socket already closed by run() or close()
                self._record(
                    ScenarioFailed(f"{self.nick}: cannot accept file from {sender}: {exc}")
                )
        elif command is Command.FILE_ACCEPT:
            self._bind_transfer(*frame.args)
        elif command is Command.ERR:
            self._record(ScenarioFailed(f"{self.nick}: server error {frame.args[0]}"))

    def _bind_transfer(self, peer: str, transfer_id: str, role: str):
        """Act on a FILE_ACCEPT announcement: as sender, hand the id to the
        schedule thread; as recipient, read the file in a thread."""
        with self._state:
            if role == SENDER and peer == self._offered_to and self._outgoing is None:
                self._outgoing = transfer_id
                self._state.notify_all()
                return
            if role != RECIPIENT or transfer_id not in self._incoming:
                self._record(ScenarioFailed(
                    f"{self.nick}: unexpected FILE_ACCEPT of transfer {transfer_id} "
                    f"from {peer} as {role}"
                ))
                return
            _, filename, size = self._incoming[transfer_id]
        thread = threading.Thread(
            target=self._receive_file, args=(peer, transfer_id, filename, size),
            daemon=True, name=f"client-{self.nick}-recipient-{transfer_id}",
        )
        thread.start()
        self._data_threads.append(thread)

    @contextmanager
    def _channel(self, peer: str, transfer_id: str, role: str):
        """One end of a transfer: a data connection that close() can shut
        down from outside, and the hello to open it with, counted as sent.
        An error on it is recorded, naming the transfer, and not raised."""
        try:
            conn = socket.create_connection(self.address, timeout=CLIENT_TIMEOUT_S)
            with self._state:
                self._channels.add(conn)
            try:
                hello = encode_frame(Frame(Command.HELLO, (transfer_id, role)))
                self.metrics.count_sent(len(hello))
                yield conn, hello
            finally:
                with self._state:
                    self._channels.discard(conn)
                conn.close()
        except (OSError, ProtocolError) as exc:
            failure = ScenarioFailed(
                f"{self.nick}: {role} data channel with {peer} for transfer {transfer_id} "
                f"on port {self.address[1]} failed: {exc}"
            )
            failure.__cause__ = exc
            self._record(failure)

    def _send_file(self, peer: str, transfer_id: str, body: bytes):
        with self._channel(peer, transfer_id, SENDER) as (conn, head):
            # the hello goes in one write with the first chunk; the slice
            # at len(body) is empty: the terminator
            for off in [*range(0, len(body), MAX_CHUNK), len(body)]:
                wire = encode_chunk(body[off : off + MAX_CHUNK])
                conn.sendall(head + wire)
                head = b""
                self.metrics.count_sent(len(wire))
            # the server's EOF: it has taken this end, so a QUIT from here
            # on cannot abort the transfer
            conn.recv(1)

    def _receive_file(self, peer: str, transfer_id: str, filename: str, size: int):
        stream = FrameBuffer(chunks=True)
        crc = 0
        try:
            with self._channel(peer, transfer_id, RECIPIENT) as (conn, hello):
                conn.sendall(hello)
                chunks = []
                while not chunks or chunks[-1][0]:
                    chunks = stream.recv(conn)
                    for data, consumed in chunks:
                        self.metrics.count_received(consumed)
                        crc = zlib.crc32(data, crc)
                # the server closes the channel only after logging the
                # transfer, so EOF here means the log already holds it
                if stream.pending() or conn.recv(1):
                    raise OSError("data after the terminator")
                expected = zlib.crc32(file_body(self.spec.seed, peer, filename, size))
                if crc != expected:
                    self._record(ScenarioFailed(
                        f"{self.nick}: file {filename} from {peer} differs from what "
                        f"{peer} sent (crc32 {crc:08x}, expected {expected:08x})"
                    ))
        finally:
            with self._state:
                del self._incoming[transfer_id]
                self._files_received += 1
                self._state.notify_all()

    def close(self):
        with self._state:
            socks = [self._sock, *self._channels]
        for sock in socks:  # shutdown wakes a thread blocked in recv
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._sock.close()
        if self._reader is not None:
            self._reader.join(timeout=2.0)
        for thread in self._data_threads:
            thread.join(timeout=2.0)


def run_scenario(
    spec: ScenarioSpec,
    server_address: tuple[str, int],
    out_path,
    label: str | None = None,
) -> Path:
    """Execute a scenario over real TCP and write the capture log.

    The capture holds one session record per client (that client's own
    socket-boundary counters and timing) plus a run record spanning the
    whole measurement window, with server-perspective aggregate counters
    implied by loss-free conservation (client-sent equals
    server-received).

    The call returns once the last client has been served.  The window's
    end is padded in the record, not waited out; ``active_end_mono_ms``
    holds the last departure as measured.  By the time the call returns,
    the server has logged every transfer (each recipient reads its data
    channel to EOF, which the server sends only after logging) and
    recorded every departure (each client waits for the server's EOF
    after QUIT).  The first client error, a server ERR included, stops
    every client and is raised as ``ScenarioFailed``.
    """
    schedule = generate_schedule(spec)
    run = _Run()
    online = {nick: threading.Event() for nick in schedule.nicks}
    clients = [
        _ScriptedClient(nick, server_address, spec, online, run)
        for nick in schedule.nicks
    ]
    for client in clients:
        client.connect_and_probe()

    t0 = now_mono_ms()
    threads = [
        threading.Thread(
            target=client.run,
            args=(t0, schedule.for_client(client.nick)),
            name=f"client-{client.nick}",
        )
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CLIENT_TIMEOUT_S + schedule.end_ms / 1000.0)
    # pad the window against the spans actually measured: under load the
    # sessions stretch past their scheduled offsets, and the analysis
    # needs summed session time to stay below the window.  The padding
    # is recorded, not slept out.
    now = now_mono_ms()
    started = [c for c in clients if c.metrics.start_mono_ms]
    departures = [c.metrics.departure_mono_ms or now for c in started]
    active_ms = sum(d - c.metrics.start_mono_ms for c, d in zip(started, departures))
    window_ms = max(schedule.end_ms, active_ms / 0.7)
    end_ms = max(now, t0 + window_ms)
    for client in clients:
        client.close()

    if run.failure is not None:
        raise ScenarioFailed(str(run.failure)) from run.failure

    records = [
        session_record(
            c.nick,
            c.metrics,
            rtt_ms=c.rtt_ms,
            departure_epoch_ms=c.departure_epoch_ms,
        )
        for c in clients
    ]
    records.append(
        run_record(
            label or spec.mode.value,
            server_start_mono_ms=t0,
            end_mono_ms=end_ms,
            active_end_mono_ms=max(departures),
            packets_received=sum(c.metrics.packets_sent for c in clients),
            bytes_received=sum(c.metrics.bytes_sent for c in clients),
            packets_sent=sum(c.metrics.packets_received for c in clients),
            bytes_sent=sum(c.metrics.bytes_received for c in clients),
        )
    )
    return write_capture(out_path, records)
