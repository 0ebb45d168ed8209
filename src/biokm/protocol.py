"""Wire protocol shared by the messenger server and its clients.

Two channels ride on TCP:

* a text control channel: one CRLF-terminated line per frame,
  ``COMMAND arg1 ... argN\\r\\n``, UTF-8, single-space separators, at
  most MAX_LINE bytes before the CRLF; a MSG frame is followed by
  exactly as many raw bytes as its second argument gives, a byte count
  in decimal;
* a binary data channel for file transfers, one connection per end of
  a transfer, to the same port: a control line, ``HELLO <id> <role>``,
  names the transfer the server minted at FILE_OFFER and the end, SENDER
  or RECIPIENT; then chunks of a 4-byte unsigned big-endian length
  prefix plus that many opaque bytes, where a zero-length chunk
  terminates the transfer.

The codecs are pure functions over byte buffers.  ``FrameBuffer`` is the
one incremental decoder for both channels: it decodes one bytearray in
place from an offset, and holds at most one incomplete frame or chunk
beyond the last read.  A HELLO ends its line mode, so the bytes after
it, in the same read or later ones, decode as chunks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

MAX_PAYLOAD = 65536
MAX_CHUNK = 65536
MAX_NAME = 255  # bytes in a nick or a file name, as NAME_MAX
# nearly twice the longest line the server relays, FILE_OFFER <nick> <file
# name> <size> <id> with MAX_NAME-byte names and a 20-digit size and id: 564
MAX_LINE = 1024
RECV_SIZE = 65536
SENDER, RECIPIENT = "sender", "recipient"  # the roles a hello names

_CHUNK_PREFIX = struct.Struct("!I")


class ProtocolError(ValueError):
    """Base class for wire-format violations."""


class MalformedFrame(ProtocolError):
    """Unknown command, bad arity, or an unparseable control line."""


class ArityViolation(MalformedFrame):
    """Argument count does not match the command's arity."""


class TokenError(ProtocolError):
    """An argument contains a space, CR, LF, or is empty."""


class PayloadLengthError(ProtocolError):
    """MSG payload length token is not a decimal count <= MAX_PAYLOAD."""


class ChunkLengthError(ProtocolError):
    """Data chunk longer than MAX_CHUNK."""


class Command(str, Enum):
    LOGIN = "LOGIN"
    MSG = "MSG"
    INVITE = "INVITE"
    LIST = "LIST"
    PING = "PING"
    PONG = "PONG"
    FILE_OFFER = "FILE_OFFER"
    FILE_ACCEPT = "FILE_ACCEPT"
    HELLO = "HELLO"
    QUIT = "QUIT"
    OK = "OK"
    ERR = "ERR"


# command -> (min args, max args)
ARITY: dict[Command, tuple[int, int]] = {
    Command.LOGIN: (1, 1),
    Command.MSG: (2, 2),
    Command.INVITE: (1, 1),
    Command.LIST: (0, 0),
    Command.PING: (1, 1),
    Command.PONG: (1, 1),
    Command.FILE_OFFER: (3, 4),  # the relayed offer adds the id
    Command.FILE_ACCEPT: (2, 3),  # the announcements add the role
    Command.HELLO: (2, 2),
    Command.QUIT: (0, 0),
    Command.OK: (0, 1),
    Command.ERR: (1, 1),
}


@dataclass(frozen=True)
class Frame:
    """One control-channel message: a command plus its argument tokens."""

    command: Command
    args: tuple[str, ...] = ()


class Decoded(NamedTuple):
    frame: Frame
    payload: bytes
    consumed: int


class NeedMore:
    """Sentinel type: the buffer does not yet hold a complete frame or chunk."""

    def __repr__(self) -> str:
        return "NeedMore"


NEED_MORE = NeedMore()


def _check_token(token: str) -> None:
    if not token or " " in token or "\r" in token or "\n" in token:
        raise TokenError(f"bad token: {token!r}")


def _check_arity(command: Command, args: tuple[str, ...]) -> None:
    lo, hi = ARITY[command]
    if not lo <= len(args) <= hi:
        raise ArityViolation(f"{command.value} takes {lo}..{hi} args, got {len(args)}")


def validate_frame(frame: Frame) -> int:
    """Raise unless the frame satisfies the arity and token rules; return
    the byte count of its payload, nonzero only for MSG."""
    _check_arity(frame.command, frame.args)
    for token in frame.args:
        _check_token(token)
    return _parse_payload_len(frame.args[1]) if frame.command is Command.MSG else 0


def _parse_payload_len(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise PayloadLengthError(f"payload length not decimal: {token!r}")
    n = int(token)
    if n > MAX_PAYLOAD:
        raise PayloadLengthError(f"payload length {n} exceeds {MAX_PAYLOAD}")
    return n


def encode_frame(frame: Frame, payload: bytes = b"") -> bytes:
    """Serialize a frame (and its MSG payload) to wire bytes."""
    declared = validate_frame(frame)
    if len(payload) != declared:
        raise PayloadLengthError(f"payload is {len(payload)} bytes, frame declares {declared}")
    parts = [frame.command.value, *frame.args]
    line = " ".join(parts).encode("utf-8") + b"\r\n"
    return line + payload if payload else line


def decode_frame(raw: bytes | bytearray, start: int = 0) -> Decoded | NeedMore:
    """Parse the frame that begins at ``raw[start]``.

    Returns NEED_MORE while the control line or the MSG payload is still
    incomplete; ``consumed`` counts every byte of line plus payload.  A
    line longer than MAX_LINE raises MalformedFrame, CRLF or not.
    """
    end = raw.find(b"\r\n", start, start + MAX_LINE + 2)
    if end < 0:
        if len(raw) - start > MAX_LINE + 1:
            raise MalformedFrame(f"control line longer than {MAX_LINE} bytes")
        return NEED_MORE
    try:
        text = raw[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"control line is not UTF-8: {exc}") from None
    tokens = text.split(" ")
    if "" in tokens:
        raise MalformedFrame(f"empty token in line: {text!r}")
    name, args = tokens[0], tuple(tokens[1:])
    try:
        command = Command(name)
    except ValueError:
        raise MalformedFrame(f"unknown command: {name!r}") from None
    _check_arity(command, args)
    body = end + 2
    payload = b""
    if command is Command.MSG:
        n = _parse_payload_len(args[1])
        if len(raw) - body < n:
            return NEED_MORE
        payload = bytes(raw[body : body + n])
        body += n
    return Decoded(Frame(command, args), payload, body - start)


class FrameBuffer:
    """Incremental decoder of control frames, or of data chunks up to the
    terminator with ``chunks=True`` or after a HELLO.  The decoded prefix is
    dropped only once it is more than half the buffer, so each byte moves
    about once."""

    def __init__(self, chunks: bool = False) -> None:
        self._buf = bytearray()
        self._pos = self._mark = 0  # decoded up to; where the last feed began
        self._chunks = chunks
        self._ended = False
        self.error: ProtocolError | None = None  # the first wire-format error met
        self._room: memoryview | None = None  # where chunk reads land; see recv

    def feed(self, data) -> list:
        """Append ``data``; return the ``Decoded`` frames it completes, or
        in chunk mode its ``(data, consumed)`` chunks.  A HELLO is the last
        frame returned: the bytes after it wait, undecoded, for the next
        feed, ``feed(b"")`` included.  A wire-format error raises
        ``ProtocolError`` and stays in ``error``; one met after complete
        frames is raised by the next ``feed`` or ``recv`` instead, so those
        frames are returned first, however the stream was split into
        reads."""
        if self.error is not None:
            raise self.error
        buf = self._buf
        if self._pos * 2 > len(buf):
            del buf[: self._pos]
            self._pos = 0
        buf += data
        pos = self._mark = self._pos
        out = []
        try:
            if not self._chunks:
                while (result := decode_frame(buf, pos)) is not NEED_MORE:
                    out.append(result)
                    pos += result.consumed
                    if result.frame.command is Command.HELLO:  # the rest is chunks
                        self._chunks = True
                        break
            else:
                while not self._ended:
                    # a view, not a copy, released before the buffer can resize
                    with memoryview(buf)[pos:] as rest:
                        result = decode_chunk(rest)
                    if result is NEED_MORE:
                        break
                    out.append(result)
                    pos += result[1]
                    self._ended = not result[0]
        except ProtocolError as exc:
            self.error = exc
            if not out:
                raise
        self._pos = pos
        return out

    def recv(self, sock) -> list:
        """Read once from ``sock`` and decode as ``feed`` does; raise
        ConnectionError at EOF."""
        if self.error is not None:
            raise self.error
        if self._chunks and self._room is None:  # one buffer, held by readers of chunks only
            self._room = memoryview(bytearray(RECV_SIZE))
        data = self._room[: sock.recv_into(self._room)] if self._room else sock.recv(RECV_SIZE)
        if not data:
            raise ConnectionError("connection closed by peer")
        return self.feed(data)

    def wire(self) -> memoryview:
        """The bytes the last feed decoded, as received.  Release the view
        before the next feed."""
        return memoryview(self._buf)[self._mark : self._pos]

    def pending(self) -> int:
        """Bytes received but not yet decoded."""
        return len(self._buf) - self._pos


def encode_chunk(data: bytes) -> bytes:
    """Length-prefix one data-channel chunk; empty data is the terminator."""
    if len(data) > MAX_CHUNK:
        raise ChunkLengthError(f"chunk of {len(data)} bytes exceeds {MAX_CHUNK}")
    return _CHUNK_PREFIX.pack(len(data)) + data


def decode_chunk(raw: bytes) -> tuple[bytes, int] | NeedMore:
    """Parse one chunk from the start of ``raw``: (data, consumed) or NEED_MORE."""
    if len(raw) < _CHUNK_PREFIX.size:
        return NEED_MORE
    (length,) = _CHUNK_PREFIX.unpack_from(raw)
    if length > MAX_CHUNK:
        raise ChunkLengthError(f"chunk of {length} bytes exceeds {MAX_CHUNK}")
    total = _CHUNK_PREFIX.size + length
    if len(raw) < total:
        return NEED_MORE
    return bytes(raw[_CHUNK_PREFIX.size : total]), total
