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
included, stops the whole run.  File bodies are fixed by the seed but
never built: the sender cuts each chunk from their first three periods
(``body_tile``), and the recipient compares each chunk and the total
with them, so a relay that reorders or corrupts chunks fails the run at
the first byte that differs.

A client accepts every offer as it arrives and binds each transfer by
the id the server gives it: the relayed offer carries the id, and each
FILE_ACCEPT announcement the id and the client's role, so transfers with
one peer may overlap in both directions.  Each end is a connection of
its own to the server's port, opened with a hello.  A client sends its
own files one at a time.  One ``selectors`` loop in the calling thread
serves every client of a run, control connections and data ends alike.
"""

from __future__ import annotations

import random
import selectors
import socket
import statistics
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
SEND_BATCH = 16384  # bytes a client queues on its control connection per write
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


def body_tile(seed: int, sender: str, filename: str, size: int) -> bytes:
    """The first ``min(size, 3 * BODY_PERIOD)`` bytes that ``sender`` sends
    as ``filename``.  The file is one seeded block of BODY_PERIOD bytes (of
    ``size`` bytes if that is less) tiled to ``size``; a swapped, dropped
    or repeated chunk changes it, since MAX_CHUNK is no multiple of the
    period."""
    block = random.Random(f"{seed}:{sender}:{filename}").randbytes(min(size, BODY_PERIOD))
    return (block * 3)[:size]


def body_chunk(tile: bytes, offset: int, length: int) -> bytes:
    """A file's ``length`` bytes from ``offset`` on, cut from its tile,
    whole as long as ``length`` is at most MAX_CHUNK (under two periods)
    and the rest of the file."""
    start = offset % BODY_PERIOD
    return tile[start : start + length]


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
    """One run's loop: a selector over every socket of its clients, the
    nicks whose login is answered, and the first failure, which stops it."""

    def __init__(self, spec: ScenarioSpec, address: tuple[str, int]):
        self.spec = spec
        self.address = address
        self.selector = selectors.DefaultSelector()
        self.clients: list[_ScriptedClient] = []
        self.online: set[str] = set()
        self.t0_ms = 0.0  # what schedule offsets count from
        self.failure: Exception | None = None

    def serve(self):
        """Probe each client's round trip, then run every schedule until each
        client is done or one fails, keeping that failure; close every socket."""
        try:
            for client in self.clients:
                client.connect_and_probe()
            self.t0_ms = now_mono_ms()
            try:
                while True:
                    now = now_mono_ms()
                    wakes = [w for c in self.clients if (w := c.advance(now)) is not None]
                    if not wakes:
                        break
                    timeout = max(0.0, min(wakes) - now_mono_ms()) / 1000.0
                    for key, events in self.selector.select(timeout):
                        key.data(events)
            except Exception as exc:  # noqa: BLE001 - raised by run_scenario
                self.failure = exc
        finally:  # what is still open is still registered
            for key in list(self.selector.get_map().values()):
                key.fileobj.close()
            self.selector.close()


class _ScriptedClient:
    """One scripted client in a run's loop: a non-blocking control
    connection with its decoder and out-buffer, and a cursor over its
    schedule.  Each of its data ends is a ``_DataEnd``."""

    def __init__(self, nick: str, run: _Run, events: list[ScheduleEvent]):
        self.nick = nick
        self.run = run
        self.events = events
        self.metrics = SessionMetrics()
        self.rtt_ms: float | None = None
        self.departure_epoch_ms: float | None = None
        # message bodies in index order, the order this client sends them in
        self._msg_bodies = random.Random(f"{run.spec.seed}:{nick}:msg")
        self.sock: socket.socket | None = None
        self._decoder = FrameBuffer()  # the control channel, RTT probes included
        self._out = bytearray()  # queued frames the kernel has not taken
        self._cursor = 0  # the next event
        self.since = 0.0  # when it last ran an event or moved bytes
        self._eof = False
        self._msgs_received = 0
        self.files_received = 0
        # accepted transfer id -> (sender, file name, size), until its data is in
        self.incoming: dict[str, tuple[str, str, int]] = {}
        self.offer: ScheduleEvent | None = None  # open until its sender end sees EOF
        self.tile: bytes | None = None  # that offer's file's tile, until its end opens

    def connect_and_probe(self):
        self.sock = socket.create_connection(self.run.address, timeout=CLIENT_TIMEOUT_S)
        self.run.selector.register(self.sock, _READ, self._on_control)
        samples = []
        for i in range(RTT_PROBES):
            nonce = f"p{i}"
            t0 = now_mono_ms()
            self.sock.sendall(encode_frame(Frame(Command.PING, (nonce,))))
            got = None
            while got is None:
                for frame, _, _ in self._decoder.recv(self.sock):
                    if frame.command is Command.PONG and frame.args[0] == nonce:
                        got = now_mono_ms() - t0
            samples.append(got)
        self.rtt_ms = statistics.median(samples)
        self.sock.setblocking(False)

    # -- schedule --------------------------------------------------------------

    def advance(self, now: float) -> float | None:
        """Queue each due event whose wait holds, until SEND_BATCH bytes are
        queued, and write what is queued, replies to this pass's reads first.
        Return when to look again, or None once done; raise if a wait has
        stalled for CLIENT_TIMEOUT_S."""
        wake = self._run_due(now)
        if self._out:
            self._flush()
        if self._out and (wake is None or wake <= now):  # the rest waits for writable
            wake = self._deadline(self.since, "control connection stalled", now)
        return wake

    def _run_due(self, now: float) -> float | None:
        while True:
            event = self.events[self._cursor] if self._cursor < len(self.events) else None
            if event is not None and len(self._out) >= SEND_BATCH:
                return now  # written first, then this goes on
            due = self.run.t0_ms + event.at_ms if event else 0.0
            if due > now:
                return due
            stalled = self._stalled(event)
            if stalled is not None:
                return self._deadline(max(self.since, due), stalled, now)
            if event is None:
                return None
            self._cursor += 1
            self.since = now
            self._act(event)

    def _deadline(self, since: float, stalled: str, now: float) -> float:
        deadline = since + CLIENT_TIMEOUT_S * 1000.0
        if now >= deadline:
            raise ScenarioFailed(f"{self.nick}: {stalled}")
        return deadline

    def _stalled(self, event: ScheduleEvent | None) -> str | None:
        """What keeps ``event`` (None: the end of the schedule) from running,
        or None.  Offsets alone do not order events across clients."""
        if self.metrics.start_mono_ms and self.nick not in self.run.online:
            return "no OK after LOGIN"
        if self.offer is not None:
            return f"file {self.offer.index} to {self.offer.peer} stalled"
        if self.departure_epoch_ms is not None:
            return None if self._eof else "no EOF after QUIT"
        if event is None:
            return None
        if event.peer and event.peer not in self.run.online:
            return f"{event.peer} never logged in"
        spec = self.run.spec
        drained = (self._msgs_received >= spec.messages_per_client
                   and self.files_received >= spec.files_per_client)
        return None if drained or event.action != "quit" else "incoming traffic never drained"

    def _act(self, event: ScheduleEvent):
        if event.action == "login":
            self.metrics.start_mono_ms = now_mono_ms()
            self._send(Frame(Command.LOGIN, (self.nick,)))
        elif event.action == "message":
            body = self._msg_bodies.randbytes(event.size)
            self._send(Frame(Command.MSG, (event.peer, str(len(body)))), body)
        elif event.action == "transfer":
            self.offer = event
            name = f"f{event.index}.bin"
            self.tile = body_tile(self.run.spec.seed, self.nick, name, event.size)
            self._send(Frame(Command.FILE_OFFER, (event.peer, name, str(event.size))))
        elif event.action == "quit":
            self._send(Frame(Command.QUIT))
            self.metrics.departure_mono_ms = now_mono_ms()
            self.departure_epoch_ms = now_epoch_ms()

    # -- control connection ------------------------------------------------------

    def _send(self, frame: Frame, payload: bytes = b""):
        wire = encode_frame(frame, payload)
        self._out += wire
        self.metrics.count_sent(len(wire))

    def _flush(self):
        """Write what the kernel takes of the out-buffer; the rest waits for
        the socket to turn writable.  Half-close once QUIT is out."""
        try:
            sent = self.sock.send(self._out)
            if sent == len(self._out) and self.departure_epoch_ms is not None:
                self.sock.shutdown(socket.SHUT_WR)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            raise ScenarioFailed(f"{self.nick}: control connection failed: {exc}") from exc
        if sent:
            del self._out[:sent]
            self.since = now_mono_ms()
        self.run.selector.modify(self.sock, (_READ | _WRITE) if self._out else _READ,
                                 self._on_control)

    def _on_control(self, events: int):
        if events & _WRITE:
            self._flush()
        if not events & _READ:
            return
        try:
            frames = self._decoder.recv(self.sock)
        except BlockingIOError:
            return
        except OSError as exc:  # EOF or reset
            if self.departure_epoch_ms is None:
                raise ScenarioFailed(f"{self.nick}: control connection closed: {exc}") from exc
            # the server records a departure before it closes the session,
            # so once this EOF is in, session_history() holds it
            self._eof = True
            self.run.selector.unregister(self.sock)
            self.sock.close()
            return
        for frame, payload, consumed in frames:
            self.metrics.count_received(consumed)
            self._react(frame, payload)

    def _react(self, frame: Frame, payload: bytes):
        command = frame.command
        if command is Command.OK:
            self.run.online.add(self.nick)
        elif command is Command.MSG:
            self._msgs_received += 1
        elif command is Command.FILE_OFFER:
            sender, filename, size, transfer_id = frame.args
            self.incoming[transfer_id] = (sender, filename, int(size))
            self._send(Frame(Command.FILE_ACCEPT, (sender, transfer_id)))
        elif command is Command.FILE_ACCEPT:
            # open this client's end: the sender's of its open offer, or a recipient's
            peer, transfer_id, role = frame.args
            if role == SENDER and self.tile is not None and peer == self.offer.peer:
                _DataEnd(self, peer, transfer_id, SENDER, self.tile, self.offer.size)
                self.tile = None
            elif role == RECIPIENT and transfer_id in self.incoming:
                sender, filename, size = self.incoming[transfer_id]
                tile = body_tile(self.run.spec.seed, sender, filename, size)
                _DataEnd(self, peer, transfer_id, RECIPIENT, tile, size)
            else:
                raise ScenarioFailed(f"{self.nick}: unexpected FILE_ACCEPT of transfer "
                                     f"{transfer_id} from {peer} as {role}")
        elif command is Command.ERR:
            raise ScenarioFailed(f"{self.nick}: server error {frame.args[0]}")
        # INVITE is a notification only


class _DataEnd:
    """One end of a transfer, a data connection in the run's loop.  It
    writes its hello, a sender's with the first chunk, then each other chunk
    as the socket drains, each counted as a packet.  A sender then waits
    for the server's EOF: the server has taken the end, so a QUIT cannot
    abort the transfer any more.  A recipient checks each chunk and the
    total against the file, then requires EOF with nothing after the
    terminator; the server closes the end only after logging the transfer.
    An error on the end fails the run, naming the transfer."""

    def __init__(self, client: _ScriptedClient, peer: str, transfer_id: str, role: str,
                 tile: bytes, size: int):
        self.client = client
        self.peer = peer
        self.id = transfer_id
        self.role = role
        # the file's tile and size, and where a sender's next chunk starts;
        # None once the terminator, the empty chunk past the end, is encoded
        self.tile = tile
        self.size = size
        self.offset = 0 if role == SENDER else None
        hello = encode_frame(Frame(Command.HELLO, (transfer_id, role)))
        client.metrics.count_sent(len(hello))
        self.wire = memoryview(hello + self._next_chunk())
        # a recipient's decoder, the bytes it has checked, and whether the terminator is in
        self.stream = FrameBuffer(chunks=True)
        self.received = 0
        self.ended = False
        try:
            self.sock = socket.create_connection(client.run.address, timeout=CLIENT_TIMEOUT_S)
            client.run.selector.register(self.sock, _READ, self.on_ready)
            self.sock.setblocking(False)
            self._write()
        except OSError as exc:
            raise self._failure(exc) from exc

    def _failure(self, exc: Exception) -> ScenarioFailed:
        return ScenarioFailed(f"{self.client.nick}: {self.role} data channel with {self.peer} "
                              f"for transfer {self.id} on port {self.client.run.address[1]} "
                              f"failed: {exc}")

    def on_ready(self, events: int):
        try:
            if events & _READ:
                self._read()
            else:
                self._write()
        except BlockingIOError:  # woken with nothing to read
            return
        except (OSError, ProtocolError) as exc:
            raise self._failure(exc) from exc
        self.client.since = now_mono_ms()

    def _next_chunk(self) -> bytes:
        """Encode and count the next chunk; b"" once the terminator is out."""
        if self.offset is None:
            return b""
        data = body_chunk(self.tile, self.offset, min(MAX_CHUNK, self.size - self.offset))
        self.offset = self.offset + len(data) if data else None
        wire = encode_chunk(data)
        self.client.metrics.count_sent(len(wire))
        return wire

    def _write(self):
        """Write while the kernel takes it; then wait for the socket to
        drain, or, once every chunk is out, for what comes back."""
        while self.wire:
            try:
                sent = self.sock.send(self.wire)
            except BlockingIOError:
                break
            self.wire = self.wire[sent:] or memoryview(self._next_chunk())
        self.client.run.selector.modify(self.sock, _WRITE if self.wire else _READ, self.on_ready)

    def _read(self):
        client = self.client
        if self.role == SENDER:
            self.sock.recv(1)  # the server's EOF
            self._close()
            client.offer = None
        elif not self.ended:
            for data, consumed in self.stream.recv(self.sock):
                client.metrics.count_received(consumed)
                self._check(data)
                self.ended = not data
            if self.ended and self.stream.pending():
                raise OSError("data after the terminator")
        elif self.sock.recv(1):
            raise OSError("data after the terminator")
        else:
            self._close()
            del client.incoming[self.id]
            client.files_received += 1

    def _check(self, data: bytes):
        """Compare a chunk with the file at the running offset, and the
        terminator with the file's end; raise at the first byte that differs."""
        expected = body_chunk(self.tile, self.received, min(len(data), self.size - self.received))
        if data != expected or not (data or self.received == self.size):
            same = next((i for i, (a, b) in enumerate(zip(data, expected)) if a != b),
                        len(expected))
            _, filename, _ = self.client.incoming[self.id]
            raise ScenarioFailed(f"{self.client.nick}: file {filename} from {self.peer} differs "
                                 f"from what {self.peer} sent, from byte {self.received + same} "
                                 f"on ({self.size} bytes offered)")
        self.received += len(data)

    def _close(self):
        self.client.run.selector.unregister(self.sock)
        self.sock.close()


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
    run = _Run(spec, server_address)
    run.clients = [_ScriptedClient(n, run, schedule.for_client(n)) for n in schedule.nicks]
    run.serve()
    # pad the window against the spans actually measured: under load the
    # sessions stretch past their scheduled offsets, and the analysis
    # needs summed session time to stay below the window
    clients = run.clients
    now = now_mono_ms()
    started = [c for c in clients if c.metrics.start_mono_ms]
    departures = [c.metrics.departure_mono_ms or now for c in started]
    active_ms = sum(d - c.metrics.start_mono_ms for c, d in zip(started, departures))
    window_ms = max(schedule.end_ms, active_ms / 0.7)
    end_ms = max(now, run.t0_ms + window_ms)

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
            server_start_mono_ms=run.t0_ms,
            end_mono_ms=end_ms,
            active_end_mono_ms=max(departures),
            packets_received=sum(c.metrics.packets_sent for c in clients),
            bytes_received=sum(c.metrics.bytes_sent for c in clients),
            packets_sent=sum(c.metrics.packets_received for c in clients),
            bytes_sent=sum(c.metrics.bytes_received for c in clients),
        )
    )
    return write_capture(out_path, records)
