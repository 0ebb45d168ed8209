"""Multi-client relay server.

The server owns a star topology: every chat message and file transfer
passes through it.  One thread accepts on the control port and on the
one data port, one handler thread runs per client, and one relay thread
per transfer whose two ends are in.  Every frame crossing a logged-in
session's socket is counted into that session's telemetry, and every
event is appended to a JSON Lines log carrying both wall-clock and
monotonic stamps (durations are always computed on the monotonic clock).

A handler dispatches all the frames of one read as a batch.  Every reply
and relayed frame of the batch is counted at once and queued per
destination, and each destination gets one ``sendall`` when the batch
ends.  Log lines are queued too and reach the file in one write: before a
handler reads again, when a session is unregistered, when a transfer
ends (before its data channels close), and at ``stop()``.  So the log is
on disk by the time a client sees a departure or a transfer end.

File transfers are brokered in three steps.  The server mints an id for
the sender's offer and relays the offer with it.  The recipient's
accept names the id, and the server announces the id, each end's role
and the data port to both ends.  Each end connects and opens with a
hello naming the id and its role, so the server pairs the two by id, in
whatever order they come.  Chunks then flow sender -> server ->
recipient until the zero-length terminator.  A data connection may sit
idle for DATA_IDLE_S at most: waiting for its hello, for the other end,
or for a chunk.  A departure drops the session's offers and aborts each
accepted transfer still waiting for that session's end.  The server
half-closes a sender's end once it has taken it, so a sender that reads
that EOF before it quits cannot lose its transfer to its own QUIT.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .protocol import (
    MAX_LINE,
    MAX_NAME,
    RECIPIENT,
    RECV_SIZE,
    SENDER,
    Command,
    Decoded,
    Frame,
    FrameBuffer,
    ProtocolError,
    encode_chunk,
    encode_frame,
)
from .telemetry import SessionMetrics

ACCEPT_POLL_S = 0.2
DATA_IDLE_S = 30.0


def now_mono_ms() -> float:
    return time.monotonic() * 1000.0


def now_epoch_ms() -> float:
    return time.time() * 1000.0


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    control_port: int = 0
    data_port: int = 0  # 0: an ephemeral port
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


@dataclass
class _Transfer:
    """One offer, from FILE_OFFER until its relay starts or it is dropped."""

    id: str
    sender: SessionRecord
    recipient: SessionRecord
    filename: str
    size: int
    deadline: float | None = None  # set at FILE_ACCEPT: both ends are due by then
    ends: dict[str, socket.socket] = field(default_factory=dict)  # role -> data socket


class MessengerServer:
    """Relay server handle: start, observe via snapshots, stop."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._listener: socket.socket | None = None
        self._data_listener: socket.socket | None = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []  # live ones, for stop()
        self._threads_lock = threading.Lock()
        self._registry: dict[str, SessionRecord] = {}
        self._registry_lock = threading.RLock()
        self._history: list[SessionRecord] = []
        self._logins = 0
        self._departures = 0
        self._transfers: dict[str, _Transfer] = {}  # offered or accepted, not relaying
        self._transfers_lock = threading.Lock()  # taken inside _registry_lock, never around it
        self._ids = itertools.count(1)
        self._log = _EventLog(config.log_path)
        self.start_mono_ms = 0.0
        self.start_epoch_ms = 0.0

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> "MessengerServer":
        host = self.config.host  # create_server sets SO_REUSEADDR and closes on a failed bind
        self._listener = socket.create_server((host, self.config.control_port), backlog=64)
        try:
            self._data_listener = socket.create_server((host, self.config.data_port), backlog=64)
        except OSError:
            self._listener.close()
            raise
        self.start_mono_ms = now_mono_ms()
        self.start_epoch_ms = now_epoch_ms()
        self._log.write("server_start", detail=f"port={self.port}")
        self._log.flush()
        self._spawn(self._accept_loop, (), "biokm-accept")
        return self

    def stop(self):
        self._stop.set()
        for listener in filter(None, (self._listener, self._data_listener)):
            try:  # refuses connections and wakes the accept loop, which closes it
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self._registry_lock:
            records = list(self._registry.values())
        for record in records:
            try:
                record.conn.close()
            except OSError:
                pass
        self._drop(lambda t: True, "server stopped")
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
        with self._threads_lock:  # listed before it can serve anyone
            self._threads = [*(t for t in self._threads if t.is_alive()), thread]
            thread.start()

    def __enter__(self) -> "MessengerServer":
        return self

    def __exit__(self, *exc):
        self.stop()

    @property
    def port(self) -> int:
        assert self._listener is not None
        return self._listener.getsockname()[1]

    @property
    def data_port(self) -> int:
        assert self._data_listener is not None
        return self._data_listener.getsockname()[1]

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
        """Accept on both ports.  A data connection waits here, not in a thread,
        until its hello is in; its key's data is its hello decoder and deadline."""
        selector = selectors.DefaultSelector()
        for listener in (self._listener, self._data_listener):
            selector.register(listener, selectors.EVENT_READ)
        try:
            while not self._stop.is_set():
                for key, _ in selector.select(ACCEPT_POLL_S):
                    if key.data is not None:
                        self._read_hello(selector, key.fileobj, key.data[0])
                        continue
                    try:
                        conn, addr = key.fileobj.accept()
                    except OSError:  # stop() shut the listener down
                        continue
                    if key.fileobj is self._listener:
                        self._spawn(self._handle_conn, (conn, addr), f"biokm-conn-{addr[1]}")
                    else:
                        conn.setblocking(False)
                        hello = (FrameBuffer(), time.monotonic() + DATA_IDLE_S)
                        selector.register(conn, selectors.EVENT_READ, hello)
                now = time.monotonic()  # data connections past their deadline
                for key in list(selector.get_map().values()):
                    if key.data is not None and key.data[1] < now:
                        selector.unregister(key.fileobj)
                        self._refuse(key.fileobj, "no hello in time")
                self._drop(lambda t: t.deadline is not None and t.deadline < now,
                           "data channel never opened")
        finally:  # the listeners, and data connections still without a hello
            for key in list(selector.get_map().values()):
                key.fileobj.close()
            selector.close()

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
            self._drop(  # its offers, and the transfers still waiting for its end
                lambda t: (t.sender is session and SENDER not in t.ends)
                or (t.recipient is session and RECIPIENT not in t.ends),
                f"{session.nick} departed",
            )
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
        recipient_nick, filename, size_token = frame.args[:3]
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
        with self._transfers_lock:
            transfer_id = str(next(self._ids))
            self._transfers[transfer_id] = _Transfer(
                transfer_id, sender, recipient, filename, int(size_token)
            )
        offer = (sender.nick, filename, size_token, transfer_id)
        out.send(recipient, Frame(Command.FILE_OFFER, offer))
        self._log.write("file_offer", nick=sender.nick, peer=recipient_nick,
                        bytes_=int(size_token), detail=f"transfer {transfer_id}: {filename}")

    def _handle_file_accept(self, out: _Outbox, recipient: SessionRecord, frame: Frame):
        sender_nick, transfer_id = frame.args[:2]
        with self._transfers_lock:
            transfer = self._transfers.get(transfer_id)
            offered = (transfer is not None and transfer.recipient is recipient
                       and transfer.sender.nick == sender_nick and transfer.deadline is None)
            if offered:
                transfer.deadline = time.monotonic() + DATA_IDLE_S
        if not offered:
            out.send(recipient, Frame(Command.ERR, ("NO_SUCH_OFFER",)))
            return
        port = str(self.data_port)
        out.send(recipient, Frame(Command.FILE_ACCEPT, (sender_nick, transfer_id, RECIPIENT, port)))
        out.send(transfer.sender,
                 Frame(Command.FILE_ACCEPT, (recipient.nick, transfer_id, SENDER, port)))
        self._log.write("file_accept", nick=recipient.nick, peer=sender_nick,
                        detail=f"transfer {transfer_id}")

    def _read_hello(self, selector, conn: socket.socket, hello: FrameBuffer):
        """Read what has come of a data connection's hello, and not a byte
        past it: the chunks that follow are the relay's to read."""
        try:
            peeked = conn.recv(MAX_LINE + 2, socket.MSG_PEEK)
            if not peeked:
                raise ConnectionError("closed before its hello")
            end = peeked.find(b"\n")  # the first LF ends the line if anything does
            decoded = hello.feed(conn.recv(len(peeked) if end < 0 else end + 1))
            if not decoded:
                return
            selector.unregister(conn)
            refusal = self._attach(conn, decoded[0])
        except BlockingIOError:
            return
        except (OSError, ProtocolError) as exc:
            selector.unregister(conn)
            refusal = str(exc)
        if refusal is not None:
            self._refuse(conn, refusal)

    def _refuse(self, conn: socket.socket, reason: str):
        conn.close()
        self._log.write("malformed", detail=f"data channel: {reason}")
        self._log.flush()

    def _attach(self, conn: socket.socket, decoded: Decoded) -> str | None:
        """Take one end of an accepted transfer, as its hello names it, and
        start the relay once both ends are in; or say why not."""
        if decoded.frame.command is not Command.HELLO:
            return f"{decoded.frame.command.value} instead of HELLO"
        transfer_id, role = decoded.frame.args
        with self._transfers_lock:
            transfer = self._transfers.get(transfer_id)
            if (transfer is None or transfer.deadline is None
                    or role not in (SENDER, RECIPIENT) or role in transfer.ends):
                return f"no accepted transfer {transfer_id} with a free end {role}"
            transfer.ends[role] = conn
            if role == SENDER:  # under the lock, before _drop may close it
                try:  # the server never writes to a sender's end
                    conn.shutdown(socket.SHUT_WR)
                except OSError:  # reset already; the relay will find out
                    pass
            if len(transfer.ends) == 2:  # relaying from here on: out of reach of _drop
                del self._transfers[transfer_id]
        session = transfer.sender if role == SENDER else transfer.recipient
        session.metrics.count_received(decoded.consumed)
        if len(transfer.ends) == 2:
            self._spawn(self._run_transfer, (transfer,), f"biokm-xfer-{transfer_id}")
        return None

    def _drop(self, doomed, reason: str):
        """Take out every transfer for which ``doomed(t)``: log the accepted
        ones as aborted, then close their ends."""
        with self._transfers_lock:
            dropped = [t for t in self._transfers.values() if doomed(t)]
            for transfer in dropped:
                del self._transfers[transfer.id]
        for transfer in dropped:
            if transfer.deadline is not None:
                self._log_transfer("transfer_aborted", transfer, reason)
        self._log.flush()  # before an end can see its channel close
        for transfer in dropped:
            for conn in transfer.ends.values():
                conn.close()

    def _run_transfer(self, transfer: _Transfer):
        sender_conn, recipient_conn = transfer.ends[SENDER], transfer.ends[RECIPIENT]
        try:
            for conn in (sender_conn, recipient_conn):
                conn.settimeout(DATA_IDLE_S)
            self._relay_chunks(
                transfer.sender, transfer.recipient, sender_conn, recipient_conn, transfer.size
            )
            self._log_transfer("transfer_complete", transfer, transfer.filename, transfer.size)
        except _TransferAborted as exc:
            self._log_transfer("transfer_aborted", transfer, str(exc), exc.partial)
        finally:
            self._log.flush()  # before the recipient can see its channel close
            sender_conn.close()
            recipient_conn.close()

    def _log_transfer(self, kind: str, transfer: _Transfer, note: str, bytes_: int = 0):
        self._log.write(
            kind, nick=transfer.sender.nick, peer=transfer.recipient.nick, bytes_=bytes_,
            detail=f"transfer {transfer.id}: {note}",
        )

    def _relay_chunks(self, sender, recipient, sender_conn, recipient_conn, size: int):
        """Forward each chunk, checked and counted, as the bytes received.
        The recipient's terminator is the server's own, written only once
        the offered ``size`` has come through."""
        stream = FrameBuffer(chunks=True)
        relayed = 0
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
