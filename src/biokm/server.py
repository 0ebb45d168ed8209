"""Multi-client relay server.

The server owns a star topology: every chat message and file transfer
passes through it.  One thread runs one ``selectors`` loop, which owns
every socket (the listener and each connection) and every counter.
Every frame crossing a logged-in session's socket is counted into that
session's telemetry, and every event goes to a JSON Lines log with
wall-clock and monotonic stamps (durations use the monotonic clock).
It answers ``snapshot()`` and ``session_history()`` between two
handlers, so no lock guards what they read.

Sockets are non-blocking and each connection has an out-buffer.  The
frames of one read are dispatched as a batch: each reply and relayed
frame is counted and appended to its destination's buffer, and each
destination gets one write when the batch ends; only what the kernel
does not take waits for the socket to turn writable.  A client that
lets SENDQ_MAX bytes pile up unread is disconnected (ircd's "SendQ
exceeded"), so no frame is cut short.  Log lines reach the file in one
write per pass of the loop, and at once when a session leaves or a
transfer ends, before its client can see it.

File transfers are brokered in three steps.  The server mints an id for
the sender's offer and relays the offer with it.  The recipient's accept
names the id, and the server announces the id and each end's role to
both ends.  Each end opens a connection to the same port and, before it
logs in, sends a hello naming the id and its role; that makes the
connection the transfer's end, so the server pairs the two by id, in
whatever order they come.  Chunks then flow sender -> server ->
recipient until the zero-length terminator, and the sender is read only
while the recipient's out-buffer is empty.  An accepted transfer may sit
idle for DATA_IDLE_S at most, waiting for an end or a chunk; the loop
sleeps until the next such deadline.  A departure drops the session's
offers and aborts each accepted transfer still waiting for its end.
The server half-closes a sender's end once it has taken it, so a sender
that reads that EOF before it quits cannot lose its transfer to its own
QUIT.
"""
from __future__ import annotations

import errno
import heapq
import itertools
import queue
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .protocol import (
    MAX_LINE,
    MAX_NAME,
    RECIPIENT,
    SENDER,
    Command,
    Frame,
    FrameBuffer,
    ProtocolError,
    encode_chunk,
    encode_frame,
)
from .telemetry import SessionMetrics

DATA_IDLE_S = 30.0
SENDQ_MAX = 1 << 20  # bytes waiting for a session's client to read: 16 reads' worth
HISTORY_MAX = 10_000  # departed sessions session_history() keeps
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


def now_mono_ms() -> float:
    return time.monotonic() * 1000.0


def now_epoch_ms() -> float:
    return time.time() * 1000.0


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    control_port: int = 0
    log_path: str | Path | None = None


@dataclass
class SessionRecord:
    nick: str
    metrics: SessionMetrics  # its start_mono_ms and departure_mono_ms stamp the session
    conn: _Conn | None = field(repr=False)  # None once departed


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
    ``flush`` writes every queued line in one write."""

    def __init__(self, path: str | Path | None):
        self._lines: list[str] = []
        self._fh = open(path, "wb") if path else None

    def write(self, kind: str, nick: str = "", peer: str = "", bytes_: int = 0, detail: str = ""):
        if self._fh is None:
            return
        # the line json.dumps would give for these seven fields, in order
        self._lines.append(
            f'{{"ts_epoch_ms": {now_epoch_ms()!r}, "ts_mono_ms": {now_mono_ms()!r}, '
            f'"kind": {_json_str(kind)}, "nick": {_json_str(nick)}, '
            f'"peer": {_json_str(peer)}, "bytes": {bytes_}, '
            f'"detail": {_json_str(detail)}}}\n'
        )

    def flush(self):
        if self._lines:
            self._fh.write("".join(self._lines).encode("ascii"))
            self._fh.flush()
            self._lines.clear()

    def close(self):
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@dataclass(eq=False)
class _Conn:
    """A socket the loop owns.  ``events`` is what it is registered for;
    0 while it is closed or set aside."""

    sock: socket.socket
    on_ready: Callable[[_Conn, int], None]
    buffer: FrameBuffer = field(default_factory=FrameBuffer)  # frames; after a hello, chunks
    out: bytearray = field(default_factory=bytearray)  # what the kernel has not taken
    events: int = 0
    session: SessionRecord | None = None  # a control connection's, once logged in
    transfer: _Transfer | None = None  # a data connection's, once its hello is in


@dataclass(eq=False)
class _Transfer:
    """One offer, from FILE_OFFER until its relay ends or it is dropped."""

    id: str
    sender: SessionRecord
    recipient: SessionRecord
    filename: str
    size: int
    timer: list | None = None  # set at FILE_ACCEPT: both ends are due, then each chunk
    ends: dict[str, _Conn] = field(default_factory=dict)  # role -> data connection
    relayed: int = 0
    outcome: str | None = None  # once the sender's terminator is in: "" or what was wrong


class MessengerServer:
    """Relay server handle: start, observe via snapshots, stop."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._listener: _Conn | None = None
        self._waker: socket.socket | None = None  # a byte: answer _calls; EOF: stop
        self._calls: deque = deque()  # (fn, reply queue) for the loop to run
        self._selector: selectors.BaseSelector | None = None
        self._thread: threading.Thread | None = None
        self._stopping = False  # the loop's own: set once it reads the waker's EOF
        self._registry: dict[str, SessionRecord] = {}
        self._history: deque[SessionRecord] = deque(maxlen=HISTORY_MAX)
        self._logins = 0
        self._departures = 0
        self._transfers: dict[str, _Transfer] = {}  # from offer until dropped or ended
        self._ids = itertools.count(1)
        self._batch: list[_Conn] = []  # destinations of the batch being dispatched
        self._timers: list = []  # heap of (deadline, ticket, cell); see _arm
        self._tickets = itertools.count()
        self._log = _EventLog(config.log_path)
        self.start_mono_ms = 0.0
        self.start_epoch_ms = 0.0

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> "MessengerServer":
        # create_server sets SO_REUSEADDR and closes on a failed bind
        listener = socket.create_server((self.config.host, self.config.control_port), backlog=64)
        listener.setblocking(False)
        self._listener = _Conn(listener, self._accept)
        self.start_mono_ms = now_mono_ms()
        self.start_epoch_ms = now_epoch_ms()
        self._log.write("server_start", detail=f"port={self.port}")
        self._log.flush()
        self._selector = selectors.DefaultSelector()
        self._watch(self._listener, _READ)
        wake, self._waker = socket.socketpair()
        self._watch(_Conn(wake, self._on_wake), _READ)
        self._thread = threading.Thread(target=self._serve, daemon=True, name="biokm-server")
        self._thread.start()
        return self

    def stop(self):
        if self._waker is not None:
            self._waker.close()  # the loop's end of the pair turns readable
            self._waker = None
            self._thread.join()
        self._log.write("server_stop")
        self._log.close()

    def __enter__(self) -> "MessengerServer":
        return self

    def __exit__(self, *exc):
        self.stop()

    @property
    def port(self) -> int:
        assert self._listener is not None
        return self._listener.sock.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.config.host, self.port)

    def snapshot(self) -> ServerSnapshot:
        return self._call(lambda: ServerSnapshot(
            start_mono_ms=self.start_mono_ms,
            logins=self._logins,
            departures=self._departures,
            sessions={nick: r.metrics.snapshot() for nick, r in self._registry.items()},
        ))

    def session_history(self) -> list[SessionRecord]:
        """Departed sessions, the last HISTORY_MAX of them, followed by live
        ones, each with a copy of its counters."""
        return self._call(lambda: [replace(r, metrics=r.metrics.snapshot())
                                   for r in (*self._history, *self._registry.values())])

    def _call(self, fn):
        """``fn()``, run by the loop between two handlers while it runs."""
        waker = self._waker
        if waker is None or threading.current_thread() is self._thread:
            return fn()
        reply = queue.SimpleQueue()
        self._calls.append((fn, reply))
        try:
            waker.send(b"\0")
        except OSError:  # stop() closed the waker: run fn once the loop is gone
            self._thread.join()
            return fn()
        return reply.get()

    def _answer(self):
        while self._calls:
            fn, reply = self._calls.popleft()
            reply.put(fn())

    # --- the loop ------------------------------------------------------------

    def _serve(self):
        selector = self._selector
        try:
            while not self._stopping:
                for key, events in selector.select(self._expire()):
                    conn = key.data
                    if conn.events:  # not closed or set aside earlier in this pass
                        conn.on_ready(conn, events)
                self._log.flush()
        finally:  # stop(): what was cut short is logged, then every socket closes
            self._stopping = True  # so no _close below watches the listener again
            self._drop(lambda t: True, "server stopped")
            for key in list(selector.get_map().values()):
                self._close(key.data)
            self._listener.sock.close()  # unwatched, if it was out of descriptors
            selector.close()
            self._answer()

    def _on_wake(self, wake: _Conn, events: int):
        if not wake.sock.recv(4096):  # stop() closed the other end
            self._stopping = True
        self._answer()

    def _watch(self, conn: _Conn, events: int):
        """Register ``conn`` for ``events``; none takes it out of the loop."""
        if events != conn.events:
            if conn.events:
                self._selector.unregister(conn.sock)
            if events:
                self._selector.register(conn.sock, events, conn)
            conn.events = events

    def _close(self, conn: _Conn, kind: str = "disconnect"):
        """Close a socket; a logged-in session leaves as ``kind``."""
        if conn.session is not None:
            self._unregister(conn.session, kind)
        self._watch(conn, 0)
        conn.sock.close()
        if not self._listener.events and not self._stopping:
            self._watch(self._listener, _READ)  # a descriptor is free again; see _accept

    def _arm(self, item) -> list:
        """A deadline DATA_IDLE_S from now for an accepted transfer:
        [deadline, item], postponed by setting [0], cancelled by clearing [1]."""
        cell = [time.monotonic() + DATA_IDLE_S, item]
        heapq.heappush(self._timers, (cell[0], next(self._tickets), cell))
        return cell

    def _expire(self) -> float | None:
        """Act on each deadline that has passed; return the seconds to the
        next one, or None if no deadline is set."""
        timers = self._timers
        while timers:
            due, _, cell = timers[0]
            now = time.monotonic()
            if due > now:
                return due - now
            heapq.heappop(timers)
            item = cell[1]
            if item is None:
                continue
            if cell[0] > now:  # postponed: back in line
                heapq.heappush(timers, (cell[0], next(self._tickets), cell))
            elif len(item.ends) < 2:
                self._end(item, "data channel never opened")
            else:  # relaying, and nothing moved for DATA_IDLE_S
                stalled = "recipient write" if item.ends[RECIPIENT].out else "sender read"
                self._end(item, f"{stalled} failed: timed out")

    def _accept(self, listener: _Conn, events: int):
        try:
            sock, _ = listener.sock.accept()
        except OSError as exc:  # the peer gave up first, or no descriptor is free
            if exc.errno in (errno.EMFILE, errno.ENFILE):  # out of descriptors:
                self._watch(listener, 0)  # not to spin on it; _close watches it again
            return
        sock.setblocking(False)
        self._watch(_Conn(sock, self._on_control), _READ)

    # --- control channel ---------------------------------------------------

    def _on_control(self, conn: _Conn, events: int):
        if events & _WRITE:
            self._write(conn)
        if not events & _READ:
            return
        try:
            decoded = conn.buffer.recv(conn.sock)
        except BlockingIOError:
            return
        except ProtocolError:  # kept in conn.buffer.error
            decoded = []
        except OSError:  # EOF or reset
            self._close(conn)
            return
        departure = None
        for frame, payload, consumed in decoded:
            if conn.session is not None:
                conn.session.metrics.count_received(consumed)
            departure = self._dispatch(conn, frame, payload, consumed)
            if departure or not conn.events:
                break
        else:  # the frames before a bad one are served first
            if conn.buffer.error is not None:
                self._log.write("malformed", nick=conn.session.nick if conn.session else "",
                                detail=str(conn.buffer.error))
                self._send(conn, Frame(Command.ERR, ("MALFORMED",)))
                departure = "disconnect"
        batch, self._batch = self._batch, []
        for dest in batch:  # one write per destination of the batch
            self._write(dest)
        if departure and conn.events:
            self._close(conn, departure)

    def _send(self, conn: _Conn | None, frame: Frame, payload: bytes = b""):
        """Count a frame, if ``conn`` is logged in, and queue it for the
        batch's end.  A connection with more than SENDQ_MAX bytes waiting
        is closed instead: its client does not read."""
        if conn is None or not conn.events:  # it left earlier in this batch
            return
        wire = encode_frame(frame, payload)
        if conn.session is not None:
            # counted now, so a snapshot taken after the peer reacts includes it
            conn.session.metrics.count_sent(len(wire))
        if not conn.out:  # so it is neither in the batch nor waiting to write
            self._batch.append(conn)
        conn.out += wire
        if len(conn.out) > SENDQ_MAX:
            if conn.session is not None:
                self._unregister(conn.session, "disconnect", f"send queue over {SENDQ_MAX} bytes")
            self._close(conn)

    def _write(self, conn: _Conn):
        """Write what the kernel takes of the out-buffer; the rest waits for
        the socket to turn writable."""
        if conn.events:  # not closed earlier in this batch
            try:
                del conn.out[: conn.sock.send(conn.out)]
            except BlockingIOError:
                pass
            except OSError:  # the peer is gone; the next read finds out
                conn.out.clear()
            self._watch(conn, (_READ | _WRITE) if conn.out else _READ)

    def _dispatch(self, conn: _Conn, frame: Frame, payload: bytes, consumed: int) -> str | None:
        """Serve one frame; return how the session leaves, if it does."""
        command, session = frame.command, conn.session
        if command is Command.PING:
            self._send(conn, Frame(Command.PONG, frame.args))
            self._log.write("ping", nick=session.nick if session else "", detail=frame.args[0])
        elif command is Command.LOGIN:
            self._handle_login(conn, frame.args[0], consumed)
        elif command is Command.QUIT:
            return "quit"
        elif command is Command.HELLO and session is None:
            self._take_end(conn, frame, consumed)
        elif session is None:
            self._send(conn, Frame(Command.ERR, ("NOT_LOGGED_IN",)))
        elif command is Command.MSG:
            to, target = frame.args[0], self._registry.get(frame.args[0])
            if target is None:
                self._send(conn, Frame(Command.ERR, ("NO_SUCH_USER",)))
                self._log.write("message_failed", nick=session.nick, peer=to)
            else:
                self._send(target.conn, Frame(Command.MSG, (session.nick, str(len(payload)))),
                           payload)
                self._log.write("message", nick=session.nick, peer=to, bytes_=len(payload))
        elif command is Command.INVITE:
            target = self._registry.get(frame.args[0])
            if target is not None:
                self._send(target.conn, Frame(Command.INVITE, (session.nick,)))
            self._log.write("invite", nick=session.nick, peer=frame.args[0])
        elif command is Command.LIST:
            nicks = ",".join(sorted(self._registry))
            reply = Frame(Command.OK, (nicks,) if nicks else ())
            if len(nicks.encode()) > MAX_LINE - 3:  # "OK " and every nick in one line
                reply = Frame(Command.ERR, ("LIST_TOO_LONG",))
            self._send(conn, reply)
            self._log.write("list", nick=session.nick)
        elif command is Command.FILE_OFFER:
            self._handle_file_offer(conn, frame)
        elif command is Command.FILE_ACCEPT:
            self._handle_file_accept(conn, frame)
        else:
            # clients have no business sending OK / ERR / PONG, nor a
            # logged-in session a HELLO
            self._log.write("malformed", nick=session.nick, detail=f"unexpected {command.value}")
            self._send(conn, Frame(Command.ERR, ("MALFORMED",)))
            return "disconnect"

    def _handle_login(self, conn: _Conn, nick: str, consumed: int):
        if conn.session is not None:
            self._send(conn, Frame(Command.ERR, ("ALREADY_LOGGED_IN",)))
            return
        refusal = ("BAD_NICK" if len(nick.encode()) > MAX_NAME
                   else "NICK_TAKEN" if nick in self._registry else None)
        if refusal is not None:
            self._send(conn, Frame(Command.ERR, (refusal,)))
            self._log.write("login_rejected", nick=nick)
            return
        record = SessionRecord(nick, SessionMetrics(start_mono_ms=now_mono_ms()), conn)
        record.metrics.count_received(consumed)  # the LOGIN frame itself
        self._registry[nick] = record
        self._logins += 1
        conn.session = record
        self._send(conn, Frame(Command.OK))
        self._log.write("login", nick=nick)

    def _unregister(self, session: SessionRecord, kind: str, detail: str = ""):
        # logged and flushed in this handler: once a snapshot or the history
        # shows the departure, the log on disk holds it
        if self._registry.get(session.nick) is not session:
            return
        del self._registry[session.nick]
        self._history.append(session)
        self._departures += 1
        session.conn = None
        session.metrics.departure_mono_ms = now_mono_ms()
        self._drop(  # its offers, and the transfers still waiting for its end
            lambda t: (t.sender is session and SENDER not in t.ends)
            or (t.recipient is session and RECIPIENT not in t.ends),
            f"{session.nick} departed",
        )
        self._log.write(kind, nick=session.nick, detail=detail)
        self._log.flush()

    # --- data channel ------------------------------------------------------

    def _handle_file_offer(self, conn: _Conn, frame: Frame):
        sender, (recipient_nick, filename, size_token) = conn.session, frame.args[:3]
        recipient = self._registry.get(recipient_nick)
        if recipient is None:
            self._send(conn, Frame(Command.ERR, ("NO_SUCH_USER",)))
            self._log.write("message_failed", nick=sender.nick, peer=recipient_nick)
            return
        if len(filename.encode()) > MAX_NAME:
            self._send(conn, Frame(Command.ERR, ("BAD_NAME",)))
            return
        # decimal, at most 20 digits: any 64-bit size
        if not (size_token.isascii() and size_token.isdigit() and len(size_token) <= 20):
            self._send(conn, Frame(Command.ERR, ("BAD_SIZE",)))
            return
        transfer_id = str(next(self._ids))
        self._transfers[transfer_id] = _Transfer(transfer_id, sender, recipient, filename,
                                                 int(size_token))
        offer = (sender.nick, filename, size_token, transfer_id)
        self._send(recipient.conn, Frame(Command.FILE_OFFER, offer))
        self._log.write("file_offer", nick=sender.nick, peer=recipient_nick,
                        bytes_=int(size_token), detail=f"transfer {transfer_id}: {filename}")

    def _handle_file_accept(self, conn: _Conn, frame: Frame):
        (sender_nick, transfer_id), recipient = frame.args[:2], conn.session.nick
        transfer = self._transfers.get(transfer_id)
        if (transfer is None or transfer.recipient is not conn.session
                or transfer.sender.nick != sender_nick or transfer.timer is not None):
            self._send(conn, Frame(Command.ERR, ("NO_SUCH_OFFER",)))
            return
        transfer.timer = self._arm(transfer)  # both ends are due by then
        self._send(conn, Frame(Command.FILE_ACCEPT, (sender_nick, transfer_id, RECIPIENT)))
        self._send(transfer.sender.conn,
                   Frame(Command.FILE_ACCEPT, (recipient, transfer_id, SENDER)))
        self._log.write("file_accept", nick=recipient, peer=sender_nick,
                        detail=f"transfer {transfer_id}")

    def _take_end(self, conn: _Conn, frame: Frame, consumed: int):
        """Take a connection that is not logged in as the end of an accepted
        transfer its hello names; start the relay once both ends are in."""
        transfer_id, role = frame.args
        transfer = self._transfers.get(transfer_id)
        if (transfer is None or transfer.timer is None
                or role not in (SENDER, RECIPIENT) or role in transfer.ends):
            self._close(conn)
            self._log.write("malformed", detail=f"data channel: no accepted transfer "
                                                f"{transfer_id} with a free end {role}")
            return
        if conn.out:  # replies to what came before the hello
            self._write(conn)
        self._watch(conn, 0)  # set aside until the relay needs it
        conn.on_ready = self._relay
        conn.transfer = transfer
        transfer.ends[role] = conn
        session = transfer.sender if role == SENDER else transfer.recipient
        session.metrics.count_received(consumed)
        if role == SENDER:
            try:  # the server never writes to a sender's end
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:  # reset already; the relay will find out
                pass
        if len(transfer.ends) == 2:  # relay, first what came with the sender's hello
            self._watch(transfer.ends[SENDER], _READ)
            self._relay(transfer.ends[SENDER], 0)

    def _relay(self, conn: _Conn, events: int):
        """Either end's handler: write the recipient's leftover, or else read
        the sender and forward each chunk, checked and counted, as the bytes
        received.  The recipient's terminator is the server's own, written
        only once the offered size has come through.  With no ``events``,
        decode what the sender's buffer holds, without a read."""
        transfer = conn.transfer
        transfer.timer[0] = time.monotonic() + DATA_IDLE_S
        if transfer.ends[RECIPIENT].out:
            self._forward(transfer)
            return
        stream = transfer.ends[SENDER].buffer
        try:
            chunks = stream.recv(transfer.ends[SENDER].sock) if events else stream.feed(b"")
        except BlockingIOError:
            return
        except (OSError, ProtocolError) as exc:
            eof = type(exc) is ConnectionError  # recv's EOF; a reset is a subclass
            self._end(transfer, "sender closed mid-transfer" if eof
                      else f"sender read failed: {exc}")
            return
        if not chunks:
            return
        for _, consumed in chunks:
            transfer.sender.metrics.count_received(consumed)
        tail = b""
        if not chunks[-1][0]:
            chunks.pop()  # the sender's terminator
            if transfer.relayed + sum(len(c) for c, _ in chunks) == transfer.size:
                tail = encode_chunk(b"")
            transfer.outcome = "" if tail else f"size mismatch: offered {transfer.size}"
        for chunk, consumed in chunks:
            transfer.recipient.metrics.count_sent(consumed)
            transfer.relayed += len(chunk)
        if tail:
            transfer.recipient.metrics.count_sent(len(tail))
        with stream.wire() as wire:
            # one write, so the terminator never trails in a segment of its own
            self._forward(transfer, wire if transfer.outcome is None
                          else b"".join((wire[:-4], tail)))

    def _forward(self, transfer: _Transfer, data=b""):
        """Write to the recipient's end: its leftover, else ``data``, and keep
        what the kernel does not take.  The sender is read again once nothing
        is left over; the transfer ends once its last byte is out."""
        end = transfer.ends[RECIPIENT]
        try:
            if end.out:
                del end.out[: end.sock.send(end.out)]
            else:
                end.out += data[end.sock.send(data):]
        except BlockingIOError:
            end.out += data  # empty if there was a leftover
        except OSError as exc:
            self._end(transfer, f"recipient write failed: {exc}")
            return
        if end.out:
            self._watch(transfer.ends[SENDER], 0)
            self._watch(end, _WRITE)
        elif transfer.outcome is not None:
            self._end(transfer, transfer.outcome)
        else:
            self._watch(end, 0)
            self._watch(transfer.ends[SENDER], _READ)

    def _end(self, transfer: _Transfer, outcome: str = ""):
        """Take a transfer out: log how it ended, if it was accepted ("" is
        complete), then close its ends."""
        del self._transfers[transfer.id]
        if transfer.timer is not None:
            transfer.timer[1] = None
            self._log.write("transfer_aborted" if outcome else "transfer_complete",
                            nick=transfer.sender.nick, peer=transfer.recipient.nick,
                            bytes_=transfer.relayed,  # the size, if complete
                            detail=f"transfer {transfer.id}: {outcome or transfer.filename}")
            self._log.flush()  # before an end can see its channel close
        for conn in transfer.ends.values():
            self._close(conn)

    def _drop(self, doomed, reason: str):
        """End every transfer for which ``doomed(t)``, as ``reason`` says."""
        for transfer in [t for t in self._transfers.values() if doomed(t)]:
            self._end(transfer, reason)


def start_server(config: ServerConfig | None = None, **kwargs) -> MessengerServer:
    """Bind and start a relay server; raises OSError if the port is taken."""
    if config is None:
        config = ServerConfig(**kwargs)
    return MessengerServer(config).start()
