"""Multi-client relay server.

The server owns a star topology: every chat message and file transfer
passes through it.  One thread accepts control connections, one handler
thread runs per client, and each file transfer gets a dedicated data
channel on its own port.  Every frame crossing a logged-in session's
socket is counted into that session's telemetry, and every event is
appended to a JSON Lines log carrying both wall-clock and monotonic
stamps (durations are always computed on the monotonic clock).

A handler dispatches all the frames of one read as a batch.  Every reply
and relayed frame of the batch is counted at once and queued per
destination, and each destination gets one ``sendall`` when the batch
ends.  Log lines are queued too and reach the file in one write: before a
handler reads again, when a session is unregistered, when a transfer
ends (before its data channels close), and at ``stop()``.  So the log is
on disk by the time a client sees a departure or a transfer end.

File transfers are brokered in three steps: the sender's offer is
relayed to the recipient; the recipient's accept makes the server open
a data listener and announce the port to the recipient; once the
recipient's data connection is in, the port is announced to the sender,
whose connection is therefore always the second one accepted.  Chunks
then flow sender -> server -> recipient until the zero-length
terminator.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .protocol import (
    MAX_LINE,
    MAX_NAME,
    RECV_SIZE,
    Command,
    Frame,
    FrameBuffer,
    ProtocolError,
    encode_chunk,
    encode_frame,
)
from .telemetry import SessionMetrics

ACCEPT_POLL_S = 0.2
DATA_ACCEPT_TIMEOUT_S = 30.0


def now_mono_ms() -> float:
    return time.monotonic() * 1000.0


def now_epoch_ms() -> float:
    return time.time() * 1000.0


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    control_port: int = 0
    data_port_range: tuple[int, int] = (0, 0)  # (0, 0): ephemeral ports
    log_path: str | Path | None = None


@dataclass
class SessionRecord:
    nick: str
    connect_mono_ms: float
    connect_epoch_ms: float
    metrics: SessionMetrics
    conn: socket.socket = field(repr=False)
    send_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    departure_mono_ms: float | None = None
    departure_epoch_ms: float | None = None


@dataclass(frozen=True)
class ServerSnapshot:
    start_mono_ms: float
    logins: int
    departures: int
    sessions: dict[str, SessionMetrics]

    @property
    def live_count(self) -> int:
        return len(self.sessions)


class _EventLog:
    """JSON Lines event log.  ``write`` formats a line and queues it;
    ``flush`` writes every queued line in one write.  The server flushes
    before a handler reads again, after a session is unregistered, after
    a transfer is logged and before its data channels close, and at stop."""

    def __init__(self, path: str | Path | None):
        self._lock = threading.Lock()
        self._lines: list[str] = []
        self._fh = open(path, "wb") if path else None

    def write(self, kind: str, nick: str = "", peer: str = "", bytes_: int = 0, detail: str = ""):
        if self._fh is None:
            return
        # the line json.dumps would give for these seven fields, in order
        line = (
            f'{{"ts_epoch_ms": {now_epoch_ms()!r}, "ts_mono_ms": {now_mono_ms()!r}, '
            f'"kind": {_json_str(kind)}, "nick": {_json_str(nick)}, '
            f'"peer": {_json_str(peer)}, "bytes": {bytes_}, '
            f'"detail": {_json_str(detail)}}}\n'
        )
        with self._lock:
            self._lines.append(line)

    def flush(self):
        if not self._lines:
            return
        with self._lock:
            if self._fh is not None and self._lines:
                self._fh.write("".join(self._lines).encode("ascii"))
                self._fh.flush()
                self._lines.clear()

    def close(self):
        self.flush()
        if self._fh is not None:
            with self._lock:
                self._fh.close()
                self._fh = None


class _PortAllocator:
    """Hands out bound data-channel listeners, one port per live transfer."""

    def __init__(self, host: str, port_range: tuple[int, int]):
        self._host = host
        self._range = port_range
        self._in_use: set[int] = set()
        self._lock = threading.Lock()

    def acquire(self) -> socket.socket:
        lo, hi = self._range
        if (lo, hi) == (0, 0):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind((self._host, 0))
            listener.listen(2)
            with self._lock:
                self._in_use.add(listener.getsockname()[1])
            return listener
        with self._lock:
            for port in range(lo, hi + 1):
                if port in self._in_use:
                    continue
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                try:
                    listener.bind((self._host, port))
                except OSError:
                    listener.close()
                    continue
                listener.listen(2)
                self._in_use.add(port)
                return listener
        raise OSError(f"no free data port in {lo}-{hi}")

    def release(self, listener: socket.socket):
        try:
            port = listener.getsockname()[1]
        except OSError:
            port = None
        listener.close()
        if port is not None:
            with self._lock:
                self._in_use.discard(port)


class _Outbox:
    """Frames on their way out: one ``sendall`` per destination socket,
    under that socket's send lock, at ``flush``.  A handler queues the
    replies and relays of one read's frames and flushes when the batch
    ends, or as soon as one destination holds RECV_SIZE bytes, so the
    queue stays within one read's worth.  ``conn`` and ``lock``
    are the handler's own connection; its session adopts the lock."""

    def __init__(self, conn: socket.socket | None = None):
        self.conn = conn
        self.lock = threading.Lock()
        self._queued: dict[socket.socket, list] = {}  # conn -> [lock, parts, bytes]

    def send(self, session: SessionRecord, frame: Frame, payload: bytes = b""):
        wire = encode_frame(frame, payload)
        # counted now, so a snapshot taken after the peer reacts includes it
        session.metrics.count_sent(len(wire))
        self._add(session.conn, session.send_lock, wire)

    def reply(self, session: SessionRecord | None, frame: Frame):
        """Answer on the handler's own connection, logged in or not."""
        if session is not None:
            self.send(session, frame)
        else:
            self._add(self.conn, self.lock, encode_frame(frame))

    def _add(self, conn, lock, wire: bytes):
        entry = self._queued.get(conn)
        if entry is None:
            entry = self._queued[conn] = [lock, [], 0]
        entry[1].append(wire)
        entry[2] += len(wire)
        if entry[2] >= RECV_SIZE:
            self.flush()

    def flush(self):
        for conn, (lock, parts, _) in self._queued.items():
            with lock:
                try:
                    conn.sendall(b"".join(parts))
                except OSError:
                    pass
        self._queued.clear()


def _send_now(session: SessionRecord, frame: Frame) -> None:
    """Send from a thread that dispatches no batch, such as a transfer's."""
    out = _Outbox()
    out.send(session, frame)
    out.flush()


@dataclass
class _PendingTransfer:
    sender: str
    recipient: str
    filename: str
    size: int


class MessengerServer:
    """Relay server handle: start, observe via snapshots, stop."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._listener: socket.socket | None = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []  # live ones, for stop()
        self._threads_lock = threading.Lock()
        self._registry: dict[str, SessionRecord] = {}
        self._registry_lock = threading.RLock()
        self._history: list[SessionRecord] = []
        self._logins = 0
        self._departures = 0
        self._pending: list[_PendingTransfer] = []
        self._pending_lock = threading.Lock()
        self._log = _EventLog(config.log_path)
        self._ports = _PortAllocator(config.host, config.data_port_range)
        self.start_mono_ms = 0.0
        self.start_epoch_ms = 0.0

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> "MessengerServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.control_port))
            listener.listen(64)
        except OSError:
            listener.close()
            raise
        listener.settimeout(ACCEPT_POLL_S)
        self._listener = listener
        self.start_mono_ms = now_mono_ms()
        self.start_epoch_ms = now_epoch_ms()
        self._log.write("server_start", detail=f"port={self.port}")
        self._log.flush()
        self._spawn(self._accept_loop, (), "biokm-accept")
        return self

    def stop(self):
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        with self._registry_lock:
            records = list(self._registry.values())
        for record in records:
            try:
                record.conn.close()
            except OSError:
                pass
        # a thread joined here may have started others, so pop until none is left
        while True:
            with self._threads_lock:
                if not self._threads:
                    break
                thread = self._threads.pop()
            thread.join(timeout=5.0)
        self._log.write("server_stop")
        self._log.close()

    def _spawn(self, target, args: tuple, name: str) -> None:
        """Start a daemon thread for stop() to join; finished ones are dropped
        here, so the list holds the live threads, not one per connection."""
        thread = threading.Thread(target=target, args=args, daemon=True, name=name)
        thread.start()
        with self._threads_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def __enter__(self) -> "MessengerServer":
        return self

    def __exit__(self, *exc):
        self.stop()

    @property
    def port(self) -> int:
        assert self._listener is not None
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.config.host, self.port)

    def snapshot(self) -> ServerSnapshot:
        with self._registry_lock:
            return ServerSnapshot(
                start_mono_ms=self.start_mono_ms,
                logins=self._logins,
                departures=self._departures,
                sessions={
                    nick: rec.metrics.snapshot() for nick, rec in self._registry.items()
                },
            )

    def session_history(self) -> list[SessionRecord]:
        """Departed sessions followed by live ones, counters included."""
        with self._registry_lock:
            return [*self._history, *self._registry.values()]

    # --- control channel ---------------------------------------------------

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._spawn(self._handle_conn, (conn, addr), f"biokm-conn-{addr[1]}")

    def _handle_conn(self, conn: socket.socket, addr):
        conn.settimeout(ACCEPT_POLL_S)
        buffer = FrameBuffer()
        out = _Outbox(conn)
        session: SessionRecord | None = None
        try:
            while not self._stop.is_set():
                # the last read's sends and log lines leave before the next read
                out.flush()
                self._log.flush()
                try:
                    decoded = buffer.recv(conn)
                except socket.timeout:
                    continue
                except OSError:
                    break
                except ProtocolError as exc:
                    nick = session.nick if session else ""
                    self._log.write("malformed", nick=nick, detail=str(exc))
                    out.reply(session, Frame(Command.ERR, ("MALFORMED",)))
                    break
                for frame, payload, consumed in decoded:
                    if session is not None:
                        session.metrics.count_received(consumed)
                    session = self._dispatch(out, session, frame, payload, consumed)
                    if session is _CLOSE:
                        return
        finally:
            out.flush()
            if session is not None and session is not _CLOSE:
                self._unregister(session, kind="disconnect")
            self._log.flush()
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, out: _Outbox, session, frame: Frame, payload: bytes, consumed: int):
        command = frame.command
        if command is Command.PING:
            out.reply(session, Frame(Command.PONG, frame.args))
            self._log.write("ping", nick=session.nick if session else "", detail=frame.args[0])
            return session
        if command is Command.LOGIN:
            return self._handle_login(out, session, frame.args[0], consumed)
        if command is Command.QUIT:
            if session is not None:
                self._unregister(session, kind="quit")
            return _CLOSE
        if session is None:
            out.reply(session, Frame(Command.ERR, ("NOT_LOGGED_IN",)))
            return session
        if command is Command.MSG:
            self._route_message(out, session, frame.args[0], payload)
        elif command is Command.INVITE:
            self._handle_invite(out, session, frame.args[0])
        elif command is Command.LIST:
            with self._registry_lock:
                nicks = ",".join(sorted(self._registry))
            reply = Frame(Command.OK, (nicks,) if nicks else ())
            if len(nicks.encode()) > MAX_LINE - 3:  # "OK " and every nick in one line
                reply = Frame(Command.ERR, ("LIST_TOO_LONG",))
            out.send(session, reply)
            self._log.write("list", nick=session.nick)
        elif command is Command.FILE_OFFER:
            self._handle_file_offer(out, session, frame)
        elif command is Command.FILE_ACCEPT:
            self._handle_file_accept(out, session, frame)
        else:
            # clients have no business sending OK / ERR / PONG
            self._log.write("malformed", nick=session.nick, detail=f"unexpected {command.value}")
            out.send(session, Frame(Command.ERR, ("MALFORMED",)))
            self._unregister(session, kind="disconnect")
            return _CLOSE
        return session

    def _handle_login(self, out: _Outbox, session, nick: str, consumed: int):
        if session is not None:
            out.send(session, Frame(Command.ERR, ("ALREADY_LOGGED_IN",)))
            return session
        with self._registry_lock:
            refusal = ("BAD_NICK" if len(nick.encode()) > MAX_NAME
                       else "NICK_TAKEN" if nick in self._registry else None)
            if refusal is None:
                record = SessionRecord(
                    nick=nick,
                    connect_mono_ms=now_mono_ms(),
                    connect_epoch_ms=now_epoch_ms(),
                    metrics=SessionMetrics(start_mono_ms=now_mono_ms()),
                    conn=out.conn,
                    send_lock=out.lock,  # frames queued before login keep their order
                )
                self._registry[nick] = record
                self._logins += 1
        if refusal is not None:
            out.reply(None, Frame(Command.ERR, (refusal,)))
            self._log.write("login_rejected", nick=nick)
            return None
        record.metrics.count_received(consumed)  # the LOGIN frame itself
        out.send(record, Frame(Command.OK))
        self._log.write("login", nick=nick)
        return record

    def _unregister(self, session: SessionRecord, kind: str):
        # logged and flushed under the registry lock: once a snapshot or
        # the history shows the departure, the log on disk holds it
        with self._registry_lock:
            current = self._registry.get(session.nick)
            if current is not session:
                return
            del self._registry[session.nick]
            self._history.append(session)
            self._departures += 1
            session.departure_mono_ms = now_mono_ms()
            session.departure_epoch_ms = now_epoch_ms()
            session.metrics.departure_mono_ms = session.departure_mono_ms
            self._log.write(kind, nick=session.nick)
            self._log.flush()

    def _route_message(self, out: _Outbox, sender: SessionRecord, to: str, payload: bytes):
        with self._registry_lock:
            target = self._registry.get(to)
        if target is None:
            out.send(sender, Frame(Command.ERR, ("NO_SUCH_USER",)))
            self._log.write("message_failed", nick=sender.nick, peer=to)
            return
        out.send(target, Frame(Command.MSG, (sender.nick, str(len(payload)))), payload)
        self._log.write("message", nick=sender.nick, peer=to, bytes_=len(payload))

    def _handle_invite(self, out: _Outbox, sender: SessionRecord, invitee: str):
        with self._registry_lock:
            target = self._registry.get(invitee)
        if target is not None:
            out.send(target, Frame(Command.INVITE, (sender.nick,)))
        self._log.write("invite", nick=sender.nick, peer=invitee)

    # --- data channel ------------------------------------------------------

    def _handle_file_offer(self, out: _Outbox, sender: SessionRecord, frame: Frame):
        recipient_nick, filename, size_token = frame.args
        with self._registry_lock:
            recipient = self._registry.get(recipient_nick)
        if recipient is None:
            out.send(sender, Frame(Command.ERR, ("NO_SUCH_USER",)))
            self._log.write("message_failed", nick=sender.nick, peer=recipient_nick)
            return
        if len(filename.encode()) > MAX_NAME:
            out.send(sender, Frame(Command.ERR, ("BAD_NAME",)))
            return
        # decimal, at most 20 digits: any 64-bit size
        if not (size_token.isascii() and size_token.isdigit() and len(size_token) <= 20):
            out.send(sender, Frame(Command.ERR, ("BAD_SIZE",)))
            return
        size = int(size_token)
        with self._pending_lock:
            self._pending.append(
                _PendingTransfer(sender.nick, recipient_nick, filename, size)
            )
        out.send(recipient, Frame(Command.FILE_OFFER, (sender.nick, filename, size_token)))
        self._log.write("file_offer", nick=sender.nick, peer=recipient_nick, bytes_=size, detail=filename)

    def _handle_file_accept(self, out: _Outbox, recipient: SessionRecord, frame: Frame):
        sender_nick = frame.args[0]
        with self._pending_lock:
            pending = next(
                (
                    p
                    for p in self._pending
                    if p.sender == sender_nick and p.recipient == recipient.nick
                ),
                None,
            )
            if pending is not None:
                self._pending.remove(pending)
        if pending is None:
            out.send(recipient, Frame(Command.ERR, ("NO_SUCH_OFFER",)))
            return
        self._log.write("file_accept", nick=recipient.nick, peer=sender_nick)
        out.flush()  # what the batch sent so far goes before the transfer's frames
        self._spawn(
            self._run_transfer, (pending,), f"biokm-xfer-{pending.sender}-{pending.recipient}"
        )

    def _run_transfer(self, pending: _PendingTransfer):
        with self._registry_lock:
            sender = self._registry.get(pending.sender)
            recipient = self._registry.get(pending.recipient)
        if sender is None or recipient is None:
            return
        try:
            listener = self._ports.acquire()
        except OSError:
            _send_now(sender, Frame(Command.ERR, ("NO_DATA_PORT",)))
            _send_now(recipient, Frame(Command.ERR, ("NO_DATA_PORT",)))
            return
        port_token = "%05d" % listener.getsockname()[1]
        listener.settimeout(DATA_ACCEPT_TIMEOUT_S)
        channels: list[socket.socket] = []
        try:
            # recipient connects first, sender second: accept order is identity
            try:
                for session, peer in ((recipient, pending.sender), (sender, pending.recipient)):
                    _send_now(session, Frame(Command.FILE_ACCEPT, (peer, port_token)))
                    channels.append(listener.accept()[0])
            except OSError:
                raise _TransferAborted(0, "data channel never opened") from None
            recipient_conn, sender_conn = channels
            self._relay_chunks(sender, recipient, sender_conn, recipient_conn, pending.size)
            self._log.write(
                "transfer_complete", nick=pending.sender, peer=pending.recipient,
                bytes_=pending.size, detail=pending.filename,
            )
        except _TransferAborted as exc:
            self._log.write(
                "transfer_aborted", nick=pending.sender, peer=pending.recipient,
                bytes_=exc.partial, detail=str(exc),
            )
        finally:
            self._log.flush()  # before the recipient can see its channel close
            for sock in channels:
                try:
                    sock.close()
                except OSError:
                    pass
            self._ports.release(listener)

    def _relay_chunks(self, sender, recipient, sender_conn, recipient_conn, size: int):
        """Forward each chunk, checked and counted, as the bytes received.
        The recipient's terminator is the server's own, written only once
        the offered ``size`` has come through."""
        stream = FrameBuffer(chunks=True)
        relayed = 0
        sender_conn.settimeout(DATA_ACCEPT_TIMEOUT_S)
        while True:
            try:
                chunks = stream.recv(sender_conn)
            except (OSError, ProtocolError) as exc:
                eof = type(exc) is ConnectionError  # recv's EOF; a reset is a subclass
                detail = "sender closed mid-transfer" if eof else f"sender read failed: {exc}"
                raise _TransferAborted(relayed, detail) from None
            if not chunks:
                continue
            for _, consumed in chunks:
                sender.metrics.count_received(consumed)
            ended = not chunks[-1][0]
            if ended:
                chunks.pop()  # the sender's terminator
                end = encode_chunk(b"") if relayed + sum(len(c) for c, _ in chunks) == size else b""
            try:
                with stream.wire() as wire:
                    # one write, so the terminator never trails in a segment of its own
                    recipient_conn.sendall(b"".join((wire[:-4], end)) if ended else wire)
            except OSError as exc:
                raise _TransferAborted(relayed, f"recipient write failed: {exc}")
            for chunk, consumed in chunks:
                recipient.metrics.count_sent(consumed)
                relayed += len(chunk)
            if ended:
                if not end:
                    raise _TransferAborted(relayed, f"size mismatch: offered {size}")
                recipient.metrics.count_sent(len(end))
                return

class _TransferAborted(Exception):
    def __init__(self, partial: int, reason: str):
        super().__init__(reason)
        self.partial = partial


_CLOSE = object()


def start_server(config: ServerConfig | None = None, **kwargs) -> MessengerServer:
    """Bind and start a relay server; raises OSError if the port is taken."""
    if config is None:
        config = ServerConfig(**kwargs)
    return MessengerServer(config).start()
