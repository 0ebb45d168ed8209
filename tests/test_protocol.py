import random

import pytest
from hypothesis import given, settings, strategies as st

from biokm.protocol import (
    ARITY,
    MAX_CHUNK,
    MAX_LINE,
    MAX_PAYLOAD,
    RECV_SIZE,
    ArityViolation,
    ChunkLengthError,
    Command,
    Decoded,
    Frame,
    FrameBuffer,
    MalformedFrame,
    NEED_MORE,
    PayloadLengthError,
    ProtocolError,
    TokenError,
    decode_chunk,
    decode_frame,
    encode_chunk,
    encode_frame,
)

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


def test_encode_login():
    wire = encode_frame(Frame(Command.LOGIN, ("lady_engineer",)))
    assert wire == b"LOGIN lady_engineer\r\n"


def test_encode_msg_with_payload():
    wire = encode_frame(Frame(Command.MSG, ("bob", "5")), b"hello")
    assert wire == b"MSG bob 5\r\nhello"


def test_encode_rejects_bad_arity():
    with pytest.raises(ArityViolation):
        encode_frame(Frame(Command.LIST, ("x",)))


def test_encode_rejects_bad_tokens():
    for bad in ("two words", "has\rcr", "has\nlf", ""):
        with pytest.raises(TokenError):
            encode_frame(Frame(Command.PING, (bad,)))


def test_encode_rejects_payload_mismatch():
    with pytest.raises(PayloadLengthError):
        encode_frame(Frame(Command.MSG, ("bob", "5")), b"hi")


def test_decode_login():
    result = decode_frame(b"LOGIN alice\r\n")
    assert result == Decoded(Frame(Command.LOGIN, ("alice",)), b"", 13)


def test_decode_incomplete_payload_needs_more():
    assert decode_frame(b"MSG bob 5\r\nhel") is NEED_MORE


def test_decode_incomplete_line_needs_more():
    assert decode_frame(b"LOGIN ali") is NEED_MORE
    assert decode_frame(b"") is NEED_MORE


def test_decode_unknown_command():
    with pytest.raises(MalformedFrame):
        decode_frame(b"BOGUS x\r\n")


def test_decode_bad_arity():
    with pytest.raises(MalformedFrame):
        decode_frame(b"LIST extra\r\n")


def test_decode_bad_payload_length():
    with pytest.raises(PayloadLengthError):
        decode_frame(b"MSG bob nope\r\n")
    with pytest.raises(PayloadLengthError):
        decode_frame(b"MSG bob 65537\r\n")
    with pytest.raises(PayloadLengthError):  # str.isdigit() accepts these
        decode_frame("MSG bob \u00b2\r\n".encode())
    with pytest.raises(PayloadLengthError):
        decode_frame("MSG bob \u0663\r\n".encode())


def test_decode_double_space_is_malformed():
    with pytest.raises(MalformedFrame):
        decode_frame(b"LOGIN  alice\r\n")


TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_.-"
# what a stream of control frames may hold: a HELLO ends the frames
LINE_COMMANDS = [c for c in Command if c is not Command.HELLO]


def random_frame(rng: random.Random) -> tuple[Frame, bytes]:
    command = rng.choice(LINE_COMMANDS)
    lo, hi = ARITY[command]
    n_args = rng.randint(lo, hi)
    args = [
        "".join(rng.choice(TOKEN_CHARS) for _ in range(rng.randint(1, 12)))
        for _ in range(n_args)
    ]
    payload = b""
    if command is Command.MSG:
        payload = rng.randbytes(rng.randint(0, 200))
        args[1] = str(len(payload))
    return Frame(command, tuple(args)), payload


def test_round_trip_identity_1000_frames():
    rng = random.Random(20260810)
    for _ in range(1000):
        frame, payload = random_frame(rng)
        wire = encode_frame(frame, payload)
        decoded = decode_frame(wire)
        assert decoded is not NEED_MORE
        assert decoded.frame == frame
        assert decoded.payload == payload
        assert decoded.consumed == len(wire)


def test_byte_by_byte_split_yields_same_sequence():
    rng = random.Random(7)
    frames = [random_frame(rng) for _ in range(50)]
    stream = b"".join(encode_frame(f, p) for f, p in frames)

    whole = FrameBuffer().feed(stream)
    dribble = FrameBuffer()
    split = []
    for i in range(len(stream)):
        split.extend(dribble.feed(stream[i : i + 1]))
    assert [(d.frame, d.payload) for d in whole] == [(f, p) for f, p in frames]
    assert whole == split
    assert dribble.pending() == 0


def test_decode_first_frame_unaffected_by_suffix():
    # a complete frame decodes identically no matter what follows it
    rng = random.Random(99)
    for _ in range(200):
        frame, payload = random_frame(rng)
        wire = encode_frame(frame, payload)
        suffix = rng.randbytes(rng.randint(0, 30))
        decoded = decode_frame(wire + suffix)
        assert decoded.frame == frame
        assert decoded.payload == payload
        assert decoded.consumed == len(wire)


def test_decode_stops_at_frame_boundary():
    one = encode_frame(Frame(Command.PING, ("n1",)))
    two = encode_frame(Frame(Command.QUIT))
    decoded = decode_frame(one + two)
    assert decoded.consumed == len(one)
    rest = decode_frame((one + two)[decoded.consumed :])
    assert rest.frame.command is Command.QUIT


def test_chunk_round_trip():
    rng = random.Random(3)
    for size in (0, 1, 100, 65536):
        data = rng.randbytes(size)
        wire = encode_chunk(data)
        assert wire[:4] == size.to_bytes(4, "big")
        chunk, consumed = decode_chunk(wire + b"extra")
        assert chunk == data
        assert consumed == len(wire)


def test_chunk_needs_more():
    wire = encode_chunk(b"hello")
    assert decode_chunk(wire[:3]) is NEED_MORE
    assert decode_chunk(wire[:8]) is NEED_MORE


def test_chunk_too_large():
    with pytest.raises(ChunkLengthError):
        encode_chunk(b"x" * 65537)
    with pytest.raises(ChunkLengthError):
        decode_chunk((65537).to_bytes(4, "big") + b"x" * 65537)


def test_decode_from_offset():
    one = encode_frame(Frame(Command.PING, ("n1",)))
    two = encode_frame(Frame(Command.MSG, ("bob", "2")), b"hi")
    decoded = decode_frame(bytearray(one + two), len(one))
    assert decoded == Decoded(Frame(Command.MSG, ("bob", "2")), b"hi", len(two))
    assert type(decoded.payload) is bytes


def test_line_length_bound():
    longest = b"PING " + b"n" * (MAX_LINE - 5)
    assert decode_frame(longest + b"\r\n").consumed == MAX_LINE + 2
    assert decode_frame(longest + b"\r") is NEED_MORE
    with pytest.raises(MalformedFrame):
        decode_frame(longest + b"n\r\n")
    with pytest.raises(MalformedFrame):
        decode_frame(longest + b"nn")
    # a buffered prefix does not count against the line after it
    assert decode_frame(b"LIST\r\n" + longest + b"\r", 6) is NEED_MORE


def test_endless_line_fails_within_one_line_of_bytes():
    buffer = FrameBuffer()
    with pytest.raises(MalformedFrame):
        for _ in range(1 << 20):
            buffer.feed(b"x")
    assert buffer.pending() == MAX_LINE + 2


def test_frames_before_a_malformed_one_are_returned_first():
    good = Frame(Command.MSG, ("b", "5"))
    buffer = FrameBuffer()
    decoded = buffer.feed(encode_frame(good, b"hello") + b"BOGUS x\r\n")
    assert [(d.frame, d.payload) for d in decoded] == [(good, b"hello")]
    with pytest.raises(MalformedFrame, match="BOGUS"):
        buffer.feed(b"LIST\r\n")
    with pytest.raises(MalformedFrame, match="BOGUS"):
        buffer.recv(Trickle([b"LIST\r\n"]))  # raised before any read


def test_chunks_before_a_bad_prefix_are_returned_first():
    decoder = FrameBuffer(chunks=True)
    too_long = (MAX_CHUNK + 1).to_bytes(4, "big")
    assert decoder.feed(encode_chunk(b"abc") + too_long) == [(b"abc", 7)]
    with pytest.raises(ChunkLengthError):
        decoder.recv(Trickle([encode_chunk(b"")]))


# --- the decoder, fuzzed -------------------------------------------------------


TOKENS = st.text(alphabet=TOKEN_CHARS, min_size=1, max_size=12)


@st.composite
def wire_frames(draw):
    command = draw(st.sampled_from(LINE_COMMANDS))
    lo, hi = ARITY[command]
    args = draw(st.lists(TOKENS, min_size=lo, max_size=hi))
    payload = b""
    if command is Command.MSG:
        payload = draw(st.one_of(st.binary(max_size=200), st.just(bytes(MAX_PAYLOAD))))
        args[1] = str(len(payload))
    return Frame(command, tuple(args)), payload


def splits(data, stream: bytes) -> list[bytes]:
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    return [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]


class Trickle:
    """Socket stand-in: ``recv`` and ``recv_into`` hand out the given pieces
    in order, at most one buffer's worth at a time, then EOF."""

    def __init__(self, pieces):
        self.pieces = [p for p in pieces if p]

    def recv(self, size: int) -> bytes:
        if not self.pieces:
            return b""
        piece = self.pieces.pop(0)
        if size < len(piece):
            self.pieces.insert(0, piece[size:])
        return piece[:size]

    def recv_into(self, room) -> int:
        piece = self.recv(len(room))
        room[: len(piece)] = piece
        return len(piece)


@FUZZ
@given(st.lists(wire_frames(), max_size=12), st.data())
def test_frames_decode_alike_under_any_split(frames, data):
    stream = b"".join(encode_frame(f, p) for f, p in frames)
    whole = FrameBuffer().feed(stream)
    assert [(d.frame, d.payload) for d in whole] == frames
    buffer, split = FrameBuffer(), []
    for piece in splits(data, stream):
        split.extend(buffer.feed(piece))
        assert buffer.pending() <= MAX_LINE + 2 + MAX_PAYLOAD
    assert split == whole
    assert buffer.pending() == 0


CHUNK_SIZES = st.one_of(st.integers(1, 300), st.just(MAX_CHUNK))


@FUZZ
@given(st.lists(CHUNK_SIZES, max_size=5), st.data())
def test_chunks_decode_alike_under_any_split(sizes, data):
    rng = random.Random(len(sizes))
    chunks = [rng.randbytes(n) for n in sizes] + [b""]
    stream = b"".join(encode_chunk(c) for c in chunks)
    whole = FrameBuffer(chunks=True).feed(stream)
    assert whole == [(c, 4 + len(c)) for c in chunks]
    decoder, split, wire = FrameBuffer(chunks=True), [], b""
    sock = Trickle(splits(data, stream))
    while not split or split[-1][0]:
        split.extend(decoder.recv(sock))
        assert decoder.pending() < 4 + MAX_CHUNK
        with decoder.wire() as view:
            wire += view
    assert split == whole
    assert wire == stream  # what a relay forwards is what arrived


@FUZZ
@given(st.lists(wire_frames(), max_size=4), st.lists(CHUNK_SIZES, max_size=5), st.data())
def test_hello_then_chunks_decode_alike_under_any_split(frames, sizes, data):
    # a data end's stream: control frames, a hello, then chunks, which
    # decode as chunks even when they come in the hello's read
    hello = Frame(Command.HELLO, ("7", "sender"))
    rng = random.Random(len(sizes))
    chunks = [rng.randbytes(n) for n in sizes] + [b""]
    head = b"".join(encode_frame(f, p) for f, p in [*frames, (hello, b"")])
    stream = head + b"".join(encode_chunk(c) for c in chunks)
    decoder, items, wire = FrameBuffer(), [], b""
    for piece in [*splits(data, stream), b""]:  # b"": what the hello's feed left
        items.extend(decoder.feed(piece))
        with decoder.wire() as view:
            wire += view
    assert [(d.frame, d.payload) for d in items[: len(frames) + 1]] == [*frames, (hello, b"")]
    assert items[len(frames) + 1 :] == [(c, 4 + len(c)) for c in chunks]
    assert wire == stream  # what a relay forwards is what arrived


def test_chunk_decoding_stops_at_the_terminator():
    decoder = FrameBuffer(chunks=True)
    tail = encode_chunk(b"late")
    items = decoder.feed(encode_chunk(b"abc") + encode_chunk(b"") + tail)
    assert items == [(b"abc", 7), (b"", 4)]
    assert decoder.feed(b"more") == []
    assert decoder.pending() == len(tail) + 4


@pytest.mark.parametrize("chunks", [False, True])
def test_recv_raises_at_eof(chunks):
    with pytest.raises(ConnectionError):
        FrameBuffer(chunks=chunks).recv(Trickle([]))


FRAGMENTS = st.one_of(
    st.binary(max_size=40),
    st.sampled_from(
        [b"\r\n", b" ", b"MSG a 5\r\n", b"MSG a 65536\r\n", b"LIST\r\n", b"PING x"]
    ),
)


@FUZZ
@given(st.lists(FRAGMENTS, max_size=40), st.data())
def test_garbage_frames_raise_protocol_errors_only(fragments, data):
    buffer = FrameBuffer()
    try:
        for piece in splits(data, b"".join(fragments)):
            buffer.feed(piece)
            assert buffer.pending() <= MAX_LINE + 2 + MAX_PAYLOAD
    except ProtocolError:
        pass


PREFIXES = st.integers(0, 2**32 - 1).map(lambda n: n.to_bytes(4, "big"))


@FUZZ
@given(st.lists(st.one_of(PREFIXES, st.binary(max_size=300)), max_size=20), st.data())
def test_garbage_chunks_raise_protocol_errors_only(fragments, data):
    decoder = FrameBuffer(chunks=True)
    sock = Trickle(splits(data, b"".join(fragments)))
    try:
        while True:
            decoder.recv(sock)
            assert decoder.pending() <= 4 + MAX_CHUNK + RECV_SIZE
    except (ProtocolError, ConnectionError):
        pass
