"""Framed binary wire protocol for the network ingress layer.

A deliberately small, versioned, length-prefixed protocol connecting
remote sample producers to the streaming fleet.  The codec is pure
python + numpy — the same functions encode on the client and decode on
the server (and vice versa), and the tests byte-dribble it through a
fake transport to pin reassembly.

Frame layout (all header integers big-endian)::

    +--------------+--------+----------------------+
    | u32 length   | u8 type| body (length-1 bytes)|
    +--------------+--------+----------------------+

``length`` counts everything after the length field (the type byte plus
the body), so an empty-body frame has ``length == 1``.  Frames larger
than the decoder's ``max_frame_bytes`` are rejected before any
allocation — a malformed or hostile length prefix cannot balloon
memory.

Frame types and bodies::

    HELLO     0x01  c->s  u16 protocol_version
    WELCOME   0x02  s->c  u16 protocol_version | u32 credit_bytes
    OPEN      0x03  c->s  session_id utf-8 (rest of body)
    OPEN_OK   0x04  s->c  session_id utf-8
    SAMPLES   0x05  c->s  u16 sid_len | sid utf-8 | f64 stamp
                          | u32 n_samples | u16 n_channels
                          | n*ch little-endian f64 samples
    DECISION  0x06  s->c  u16 sid_len | sid utf-8 | u32 index
                          | i64 raw_label | i64 label | f64 stamp
    CREDIT    0x07  s->c  u32 bytes (flow-control replenishment)
    CLOSE     0x08  c->s  session_id utf-8
    CLOSED    0x09  s->c  session_id utf-8
    BYE       0x0A  both  empty (flush-then-close handshake)
    ERROR     0x0B  s->c  u16 code | f32 retry_after_s
                          | u16 sid_len | sid utf-8
                          | message utf-8 (rest of body)
    OPEN2     0x0C  c->s  u8 flags (bit0: adaptive)
                          | u16 sid_len | sid utf-8
                          | model_id utf-8 (rest of body)
    FEEDBACK  0x0D  c->s  u16 sid_len | sid utf-8
                          | u32 index (0xFFFFFFFF = latest)
                          | i64 label
    FEEDB_OK  0x0E  s->c  u16 sid_len | sid utf-8
                          | u32 index (as requested) | u8 applied

An :class:`Open` with a model id or the adaptive flag encodes as OPEN2;
a plain one keeps the version-1 OPEN bytes, so old clients and servers
interoperate as long as neither uses per-user adaptation.  FEEDBACK
hands a ground-truth label back to an *adaptive* session — the server
folds it into that session's private prototype delta and answers
FEEDB_OK with an ``applied`` flag (False when the decision was already
correct under a mistake-driven policy).

Sample payloads are little-endian float64 (numpy's native layout on
every platform we run on — ``tobytes()`` round-trips without a copy);
header fields use network byte order.  ``stamp`` is an opaque client
clock reading (``time.perf_counter()``): the server never interprets
it, only carries it through to the DECISION frames of the windows that
chunk completed, so the client can compute ingest→decision latency
against its own clock.  A stamp of ``NaN`` means "no stamp" (e.g. a
decision flushed by a server-side drain whose completing chunk was
never stamped).

Flow control: WELCOME grants the connection a window of unacknowledged
SAMPLES payload bytes; each SAMPLES frame consumes its body size, and
the server returns the bytes via CREDIT only after the fleet has
accepted the chunk — coordinator backpressure therefore propagates to
socket-level pushback, and a well-behaved client never has more than
``credit_bytes`` in flight.  A rejected SAMPLES frame (its session is
not open on this connection, or the service refused the chunk) is
answered with ``ERR_SESSION`` and still returns its bytes; the
connection stays open.

Admission control: an OPEN may be answered with ``ERROR`` code
``ERR_SHED`` carrying a ``retry_after_s`` hint instead of OPEN_OK; the
connection stays usable for other sessions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

#: Protocol version spoken by this codec; HELLO/WELCOME negotiate it.
PROTOCOL_VERSION = 1

#: Frame type tags (the u8 after the length prefix).
T_HELLO = 0x01
T_WELCOME = 0x02
T_OPEN = 0x03
T_OPEN_OK = 0x04
T_SAMPLES = 0x05
T_DECISION = 0x06
T_CREDIT = 0x07
T_CLOSE = 0x08
T_CLOSED = 0x09
T_BYE = 0x0A
T_ERROR = 0x0B
T_OPEN2 = 0x0C
T_FEEDBACK = 0x0D
T_FEEDBACK_OK = 0x0E

#: FEEDBACK index meaning "the most recent decided window".
FEEDBACK_LATEST = 0xFFFFFFFF

#: ERROR frame codes.
ERR_VERSION = 1  #: protocol version mismatch; connection is closed
ERR_SHED = 2  #: OPEN rejected by admission control; retry later
ERR_PROTOCOL = 3  #: malformed or unexpected frame; connection is closed
ERR_SESSION = 4  #: unknown / already-open session id

#: Hard ceiling a decoder enforces on any frame (header + body).
DEFAULT_MAX_FRAME_BYTES = 8 << 20

_LEN = struct.Struct("!I")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_WELCOME_BODY = struct.Struct("!HI")
_SAMPLES_HEAD = struct.Struct("!dIH")  # stamp, n_samples, n_channels
_DECISION_TAIL = struct.Struct("!Iqqd")  # index, raw, label, stamp
_ERROR_HEAD = struct.Struct("!Hf")  # code, retry_after_s
_FEEDBACK_TAIL = struct.Struct("!Iq")  # index, label
_FEEDBACK_OK_TAIL = struct.Struct("!IB")  # index, applied


class WireError(ValueError):
    """A frame violated the protocol (bad length, tag, or body)."""


# -- frame value types -------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Welcome:
    version: int = PROTOCOL_VERSION
    credit_bytes: int = 1 << 18


@dataclass(frozen=True)
class Open:
    """Open a session, optionally on a named model / with adaptation.

    The defaults (`model_id=""`, `adaptive=False`) encode as the
    original OPEN frame; anything else rides the OPEN2 frame.
    """

    session_id: str
    model_id: str = ""
    adaptive: bool = False


@dataclass(frozen=True)
class OpenOk:
    session_id: str


@dataclass(frozen=True)
class Samples:
    """One chunk of a session's stream, stamped with the client clock."""

    session_id: str
    samples: np.ndarray  # (k, n_channels) float64
    stamp: float = float("nan")

    def __eq__(self, other) -> bool:  # ndarray defeats dataclass eq
        return (
            isinstance(other, Samples)
            and self.session_id == other.session_id
            and _stamp_eq(self.stamp, other.stamp)
            and self.samples.shape == other.samples.shape
            and self.samples.tobytes() == other.samples.tobytes()
        )


@dataclass(frozen=True)
class DecisionFrame:
    session_id: str
    index: int
    raw_label: int
    label: int
    stamp: float = float("nan")

    def __eq__(self, other) -> bool:  # NaN stamp must compare equal
        return (
            isinstance(other, DecisionFrame)
            and self.session_id == other.session_id
            and self.index == other.index
            and self.raw_label == other.raw_label
            and self.label == other.label
            and _stamp_eq(self.stamp, other.stamp)
        )


@dataclass(frozen=True)
class Credit:
    bytes: int


@dataclass(frozen=True)
class Close:
    session_id: str


@dataclass(frozen=True)
class Closed:
    session_id: str


@dataclass(frozen=True)
class Bye:
    pass


@dataclass(frozen=True)
class Error:
    code: int
    message: str = ""
    retry_after_s: float = 0.0
    session_id: str = ""


@dataclass(frozen=True)
class Feedback:
    """Ground-truth label for one decided window of an adaptive
    session (``index=None`` = the most recent decision)."""

    session_id: str
    label: int
    index: Optional[int] = None


@dataclass(frozen=True)
class FeedbackOk:
    """Acknowledgement of a FEEDBACK frame; echoes the requested index
    (None when the client asked for the latest decision)."""

    session_id: str
    applied: bool
    index: Optional[int] = None


Frame = Union[
    Hello,
    Welcome,
    Open,
    OpenOk,
    Samples,
    DecisionFrame,
    Credit,
    Close,
    Closed,
    Bye,
    Error,
    Feedback,
    FeedbackOk,
]


def _stamp_eq(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


def _sid_bytes(session_id: str) -> bytes:
    raw = session_id.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError(
            f"session id too long ({len(raw)} utf-8 bytes)"
        )
    return raw


# -- encoding ----------------------------------------------------------------


def _frame(tag: int, body: bytes = b"") -> bytes:
    return _LEN.pack(1 + len(body)) + bytes([tag]) + body


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame value to its wire bytes."""
    if isinstance(frame, Hello):
        return _frame(T_HELLO, _U16.pack(frame.version))
    if isinstance(frame, Welcome):
        return _frame(
            T_WELCOME,
            _WELCOME_BODY.pack(frame.version, frame.credit_bytes),
        )
    if isinstance(frame, Open):
        if not frame.model_id and not frame.adaptive:
            return _frame(T_OPEN, _sid_bytes(frame.session_id))
        sid = _sid_bytes(frame.session_id)
        return _frame(
            T_OPEN2,
            bytes([1 if frame.adaptive else 0])
            + _U16.pack(len(sid))
            + sid
            + frame.model_id.encode("utf-8"),
        )
    if isinstance(frame, OpenOk):
        return _frame(T_OPEN_OK, _sid_bytes(frame.session_id))
    if isinstance(frame, Samples):
        arr = np.ascontiguousarray(frame.samples, dtype=np.float64)
        if arr.ndim != 2:
            raise WireError(
                f"samples must be (k, n_channels), got shape {arr.shape}"
            )
        sid = _sid_bytes(frame.session_id)
        return _frame(
            T_SAMPLES,
            _U16.pack(len(sid))
            + sid
            + _SAMPLES_HEAD.pack(
                frame.stamp, arr.shape[0], arr.shape[1]
            )
            + arr.astype("<f8", copy=False).tobytes(),
        )
    if isinstance(frame, DecisionFrame):
        sid = _sid_bytes(frame.session_id)
        return _frame(
            T_DECISION,
            _U16.pack(len(sid))
            + sid
            + _DECISION_TAIL.pack(
                frame.index, frame.raw_label, frame.label, frame.stamp
            ),
        )
    if isinstance(frame, Credit):
        return _frame(T_CREDIT, _U32.pack(frame.bytes))
    if isinstance(frame, Close):
        return _frame(T_CLOSE, _sid_bytes(frame.session_id))
    if isinstance(frame, Closed):
        return _frame(T_CLOSED, _sid_bytes(frame.session_id))
    if isinstance(frame, Bye):
        return _frame(T_BYE)
    if isinstance(frame, Error):
        sid = _sid_bytes(frame.session_id)
        return _frame(
            T_ERROR,
            _ERROR_HEAD.pack(frame.code, frame.retry_after_s)
            + _U16.pack(len(sid))
            + sid
            + frame.message.encode("utf-8"),
        )
    if isinstance(frame, Feedback):
        sid = _sid_bytes(frame.session_id)
        index = FEEDBACK_LATEST if frame.index is None else frame.index
        if not 0 <= index <= FEEDBACK_LATEST:
            raise WireError(f"feedback index {frame.index} out of range")
        if frame.index is not None and index == FEEDBACK_LATEST:
            raise WireError(
                f"explicit feedback index {index} collides with the "
                f"latest-decision sentinel"
            )
        return _frame(
            T_FEEDBACK,
            _U16.pack(len(sid))
            + sid
            + _FEEDBACK_TAIL.pack(index, frame.label),
        )
    if isinstance(frame, FeedbackOk):
        sid = _sid_bytes(frame.session_id)
        index = FEEDBACK_LATEST if frame.index is None else frame.index
        return _frame(
            T_FEEDBACK_OK,
            _U16.pack(len(sid))
            + sid
            + _FEEDBACK_OK_TAIL.pack(index, 1 if frame.applied else 0),
        )
    raise WireError(f"cannot encode {type(frame).__name__}")


# -- decoding ----------------------------------------------------------------


def _take_sid(body: bytes, offset: int) -> tuple:
    if len(body) < offset + 2:
        raise WireError("truncated session id length")
    (n,) = _U16.unpack_from(body, offset)
    offset += 2
    if len(body) < offset + n:
        raise WireError("truncated session id")
    try:
        sid = body[offset : offset + n].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"session id is not utf-8: {exc}") from None
    return sid, offset + n


def _whole_sid(body: bytes) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"session id is not utf-8: {exc}") from None


def _decode_body(tag: int, body: bytes) -> Frame:
    if tag == T_HELLO:
        if len(body) != _U16.size:
            raise WireError(f"HELLO body must be 2 bytes, got {len(body)}")
        return Hello(_U16.unpack(body)[0])
    if tag == T_WELCOME:
        if len(body) != _WELCOME_BODY.size:
            raise WireError(
                f"WELCOME body must be {_WELCOME_BODY.size} bytes, "
                f"got {len(body)}"
            )
        version, credit = _WELCOME_BODY.unpack(body)
        return Welcome(version, credit)
    if tag == T_OPEN:
        return Open(_whole_sid(body))
    if tag == T_OPEN_OK:
        return OpenOk(_whole_sid(body))
    if tag == T_SAMPLES:
        sid, offset = _take_sid(body, 0)
        if len(body) < offset + _SAMPLES_HEAD.size:
            raise WireError("truncated SAMPLES header")
        stamp, n, ch = _SAMPLES_HEAD.unpack_from(body, offset)
        offset += _SAMPLES_HEAD.size
        expected = n * ch * 8
        if len(body) - offset != expected:
            raise WireError(
                f"SAMPLES payload is {len(body) - offset} bytes, "
                f"expected {expected} ({n}x{ch} float64)"
            )
        arr = np.frombuffer(body, dtype="<f8", count=n * ch, offset=offset)
        return Samples(sid, arr.reshape(n, ch).copy(), stamp)
    if tag == T_DECISION:
        sid, offset = _take_sid(body, 0)
        if len(body) - offset != _DECISION_TAIL.size:
            raise WireError("bad DECISION body size")
        index, raw, label, stamp = _DECISION_TAIL.unpack_from(body, offset)
        return DecisionFrame(sid, index, raw, label, stamp)
    if tag == T_CREDIT:
        if len(body) != _U32.size:
            raise WireError(f"CREDIT body must be 4 bytes, got {len(body)}")
        return Credit(_U32.unpack(body)[0])
    if tag == T_CLOSE:
        return Close(_whole_sid(body))
    if tag == T_CLOSED:
        return Closed(_whole_sid(body))
    if tag == T_BYE:
        if body:
            raise WireError(f"BYE carries no body, got {len(body)} bytes")
        return Bye()
    if tag == T_ERROR:
        if len(body) < _ERROR_HEAD.size:
            raise WireError("truncated ERROR header")
        code, retry = _ERROR_HEAD.unpack_from(body, 0)
        sid, offset = _take_sid(body, _ERROR_HEAD.size)
        try:
            message = body[offset:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(
                f"ERROR message is not utf-8: {exc}"
            ) from None
        return Error(code, message, retry, sid)
    if tag == T_OPEN2:
        if len(body) < 1:
            raise WireError("truncated OPEN2 flags")
        flags = body[0]
        if flags & ~0x01:
            raise WireError(f"unknown OPEN2 flags 0x{flags:02x}")
        sid, offset = _take_sid(body, 1)
        try:
            model_id = body[offset:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(
                f"model id is not utf-8: {exc}"
            ) from None
        return Open(sid, model_id, bool(flags & 0x01))
    if tag == T_FEEDBACK:
        sid, offset = _take_sid(body, 0)
        if len(body) - offset != _FEEDBACK_TAIL.size:
            raise WireError("bad FEEDBACK body size")
        index, label = _FEEDBACK_TAIL.unpack_from(body, offset)
        return Feedback(
            sid, label, None if index == FEEDBACK_LATEST else index
        )
    if tag == T_FEEDBACK_OK:
        sid, offset = _take_sid(body, 0)
        if len(body) - offset != _FEEDBACK_OK_TAIL.size:
            raise WireError("bad FEEDB_OK body size")
        index, applied = _FEEDBACK_OK_TAIL.unpack_from(body, offset)
        if applied > 1:
            raise WireError(f"bad FEEDB_OK applied byte {applied}")
        return FeedbackOk(
            sid,
            bool(applied),
            None if index == FEEDBACK_LATEST else index,
        )
    raise WireError(f"unknown frame tag 0x{tag:02x}")


@dataclass
class FrameDecoder:
    """Incremental frame reassembler for one byte stream.

    Feed it whatever the transport hands you — single bytes, half
    frames, ten coalesced frames — and it returns every frame completed
    by that data, in order.  A :class:`WireError` (oversized length
    prefix, unknown tag, malformed body) poisons the decoder: the
    stream has lost framing and the connection must be dropped.
    """

    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    _buf: bytearray = field(default_factory=bytearray)
    _poisoned: bool = False

    def feed(self, data: bytes) -> List[Frame]:
        if self._poisoned:
            raise WireError("decoder already failed; drop the connection")
        self._buf.extend(data)
        frames: List[Frame] = []
        try:
            while True:
                if len(self._buf) < _LEN.size:
                    return frames
                (length,) = _LEN.unpack_from(self._buf, 0)
                if length < 1:
                    raise WireError("frame length must be >= 1")
                if _LEN.size + length > self.max_frame_bytes:
                    raise WireError(
                        f"frame of {_LEN.size + length} bytes exceeds "
                        f"cap of {self.max_frame_bytes}"
                    )
                if len(self._buf) < _LEN.size + length:
                    return frames
                tag = self._buf[_LEN.size]
                body = bytes(
                    self._buf[_LEN.size + 1 : _LEN.size + length]
                )
                del self._buf[: _LEN.size + length]
                frames.append(_decode_body(tag, body))
        except WireError:
            self._poisoned = True
            raise

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)
