"""The worker loop, its wire format and the transport.

A shard worker serves frames to one plane core (:func:`_serve`); the
coordinator reaches the pool through :class:`ShardTransport`, over
pipes (``fork``), in-process (``inline``) or over localhost sockets
(``tcp``, frames of a JSON header and raw attachments,
:func:`_wire_encode`).  Deadlines bound every wait on the wire, and a
worker that dies, stalls or sends what cannot be read surfaces as a
:class:`ShardFailure`.
"""

from __future__ import annotations

import json
import logging
import os
import select
import socket
import struct
import time
import traceback
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...protocol.messages import ProtocolError
from ...protocol.transport import FrameDecoder, encode_frame, frame_header
from .plane import _MarketPlane

_log = logging.getLogger("repro.sim.shards")


#: Worker-core registry: ``shard_inits[i]["kind"]`` picks the class.
_CORE_KINDS = {"market": _MarketPlane}


def _make_core(init: Mapping[str, object]):
    return _CORE_KINDS[init["kind"]](init)


def _serve(peer, core) -> None:
    """Worker main loop over a pipe connection or a wire channel: one
    frame in, one reply out — except ``("post", inner)`` wrappers, which
    are handled without a reply (the trace slice: the coordinator keeps
    posting while this worker ticks).  A coordinator that is gone ends
    the loop quietly.

    A frame that raises is logged, and from then on every answered frame
    but ``close`` gets the failure (:func:`_failure_reply`) instead of
    its reply, which the coordinator raises as a :class:`ShardFailure`:
    a posted frame has no reply of its own, so its failure waits for the
    next barrier, and the frames posted after it are skipped.  A tcp
    frame this worker cannot read, or one that is not an op and its
    arguments (:func:`_frame_problem`), fails the same way, and its
    failure is sent at once: it may have been a barrier's frame, whose
    reply the coordinator waits for, and if it was posted, the next
    barrier reads the failure all the same.  A stream whose length
    prefix is hostile cannot be read past: the worker answers it with
    the failure at once and exits.  A reply the wire cannot carry is
    replaced by the failure it raised.
    """
    _log.debug("shard worker %d started", os.getpid())
    handle = core.handle
    failure = None
    while True:
        try:
            frame = peer.recv()
            problem = _frame_problem(frame)
            if problem is not None:
                raise ProtocolError(problem)
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        except ProtocolError:  # a whole frame, unreadable
            failure = _failure_reply(None)
            handle = _skip_frame
            try:
                peer.send(failure)
            except OSError:
                break
            continue
        except ValueError:  # a hostile length prefix: the stream is lost
            try:
                peer.send(_failure_reply(None))
            except OSError:
                pass
            break
        if frame[0] == "post":
            try:
                handle(frame[1])
            except Exception:
                failure = _failure_reply(frame[1][0])
                handle = _skip_frame
            continue
        closing = frame[0] == "close"
        if closing:
            reply = {"ok": True}
        elif failure is not None:
            reply = failure
        else:
            try:
                reply = core.handle(frame)
            except Exception:
                reply = failure = _failure_reply(frame[0])
                handle = _skip_frame
        try:
            try:
                peer.send(reply)
            except (ValueError, TypeError):  # a reply the wire cannot
                # carry (a non-finite float64 cell, over MAX_FRAME_BYTES):
                # none of it was written, so the failure goes instead
                reply = failure = _failure_reply(frame[0])
                handle = _skip_frame
                peer.send(reply)
        except OSError:  # the coordinator died or stopped reading
            break
        if closing:
            peer.close()
            break
    _log.debug("shard worker %d exits", os.getpid())


def _frame_problem(frame) -> Optional[str]:
    """Why ``frame`` is not a list or tuple led by its op (a string), or
    ``("post", frame)`` around one; or None."""
    if isinstance(frame, (list, tuple)) and frame and frame[0] == "post":
        if len(frame) != 2:
            return "a post frame is (\"post\", frame), not %d items" % len(frame)
        frame = frame[1]
    if isinstance(frame, (list, tuple)) and frame and isinstance(frame[0], str):
        return None
    return "a frame is a list led by its op, not %.80r" % (frame,)


def _failure_reply(op: Optional[str]) -> Dict[str, str]:
    """Log the exception being handled; the reply that carries it.  A
    frame the worker could not read has no ``op``: the coordinator
    names the op of the barrier that reads the failure."""
    if op is None:
        _log.exception("shard worker %d could not read a frame", os.getpid())
        return {"error": traceback.format_exc()}
    _log.exception("shard worker %d failed on a %r frame", os.getpid(), op)
    return {"error": traceback.format_exc(), "op": op}


def _skip_frame(frame: Tuple) -> None:
    """A failed worker's handler for posted frames: its plane is broken."""


def _claim_cpu(index: int) -> None:
    """Pin this worker process to one CPU of those it may run on.

    Workers are CPU-bound and are woken by the coordinator's writes, and
    a coordinator that mostly sleeps (it only routes) looks like the
    idle end of a ping-pong to the kernel's wake-affine placement: it
    stacks the workers on the coordinator's CPU and load
    balancing leaves them there for runs on end while the next CPU
    idles.  On 2 cores the same replay then took 0.20 s or 0.30 s, and
    whole sessions sat in the slow mode.  Worker ``index`` of a pool
    takes CPU ``(coordinator pid + index) mod n`` of the allowed set:
    one pool's workers never share while CPUs last, and concurrent
    pools start on different CPUs.  The coordinator stays unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[(os.getppid() + index) % len(cpus)]})
    except OSError:  # pragma: no cover - a sandbox may forbid it
        pass


def _shard_worker(conn, init: Mapping[str, object], index: int) -> None:
    """Forked pipe worker."""
    _claim_cpu(index)
    _arm_send_deadline(conn.fileno())
    _serve(conn, _make_core(init))


#: Attachment tags of a tcp frame (:func:`_wire_encode`): numpy's
#: ``dtype.str`` of the two column dtypes, each cell eight little-endian
#: bytes, and ``"bytes"``, raw bytes as they are (a plane's rendered
#: rows, ASCII).
_ATTACHMENT_DTYPES = {"<i8": np.dtype("<i8"), "<f8": np.dtype("<f8")}
_BYTES_TAG = "bytes"

#: A tcp frame's payload starts with its JSON header's byte length and
#: its attachment count, 4-byte unsigned big-endian each.
_WIRE_PREFIX = struct.Struct(">II")

#: Zero bytes that pad an attachment to the next eight-byte boundary, so
#: every column starts aligned in the received frame.
_PAD = bytes(8)


def _wire_encode(obj) -> Tuple[bytes, List[memoryview]]:
    """``obj`` as a tcp frame payload: its head (prefix and JSON header)
    and its attachments, the buffers that follow the head in order.

    ``json.dumps`` writes the header and lifts what JSON cannot spell
    (its ``default``): a 1-D int64 or finite float64 array, or a
    ``bytes`` object, becomes an attachment, and the header holds
    ``{"@": tag, "at": offset, "n": length}`` in its place, ``offset``
    counted from the end of the head; a numpy scalar crosses as its
    Python value.  Any other array, or a non-finite cell, is refused
    with :class:`~repro.protocol.messages.ProtocolError`, and an object
    JSON cannot spell with ``TypeError``, before anything is written.
    The head is padded with spaces, and each attachment with zero
    bytes, to a multiple of eight bytes.
    """
    buffers: List[memoryview] = []
    size = count = 0

    def lift(value):
        nonlocal size, count
        if isinstance(value, np.ndarray):
            tag = value.dtype.str
            if tag not in _ATTACHMENT_DTYPES or value.ndim != 1:
                raise ProtocolError(
                    "a %d-D %s array cannot cross the shard wire"
                    % (value.ndim, tag)
                )
            if tag == "<f8" and not np.isfinite(value).all():
                raise ProtocolError("a <f8 column holds a non-finite cell")
            data = memoryview(np.ascontiguousarray(value)).cast("B")
        elif isinstance(value, bytes):
            tag, data = _BYTES_TAG, memoryview(value)
        elif isinstance(value, np.generic):
            return value.item()
        else:
            raise TypeError(
                "cannot serialise %r for the shard wire" % type(value).__name__
            )
        reference = {"@": tag, "at": size, "n": len(data)}
        buffers.append(data)
        pad = -len(data) % 8
        if pad:
            buffers.append(memoryview(_PAD)[:pad])
        size += len(data) + pad
        count += 1
        return reference

    header = json.dumps(obj, separators=(",", ":"), default=lift).encode("ascii")
    header += b" " * (-(_WIRE_PREFIX.size + len(header)) % 8)
    return _WIRE_PREFIX.pack(len(header), count) + header, buffers


def _wire_decode(payload: bytes):
    """The object :func:`_wire_encode` wrote as ``payload``.

    Columns come back as read-only arrays over ``payload``
    (``np.frombuffer``), ``bytes`` attachments as copies.  Socket bytes
    are outside input, so the payload is refused whole, with
    :class:`~repro.protocol.messages.ProtocolError`, for a header that
    is not ASCII JSON or runs past the payload, and for an attachment
    reference that is not exactly ``{"@": tag, "at": offset, "n":
    length}``, whose tag is unknown, whose bytes lie outside the payload
    or overlap another's, whose length is not a whole number of cells, or
    whose float64 cells are not all finite; and when the header holds
    another number of references than the prefix counts, which is how a
    payload dict that happens to hold the key ``"@"`` is refused.
    """
    if len(payload) < _WIRE_PREFIX.size:
        raise ProtocolError("a frame of %d bytes has no header" % len(payload))
    header_bytes, count = _WIRE_PREFIX.unpack_from(payload)
    base = _WIRE_PREFIX.size + header_bytes
    room = len(payload) - base
    if room < 0:
        raise ProtocolError(
            "the %d-byte header runs past the %d-byte frame"
            % (header_bytes, len(payload))
        )
    spans: List[Tuple[int, int]] = []

    def attachment(obj: Dict[str, object]):
        if "@" not in obj:
            return obj
        tag, at, n = obj.get("@"), obj.get("at"), obj.get("n")
        if obj.keys() != {"@", "at", "n"} or not isinstance(tag, str):
            raise ProtocolError(
                "an attachment reference is {\"@\": tag, \"at\": offset, "
                "\"n\": length}, not %r" % (obj,)
            )
        if type(at) is not int or type(n) is not int:
            raise ProtocolError(
                "an attachment's offset and length must be ints, not %.30r "
                "and %.30r" % (at, n)
            )
        if not 0 <= at <= room - n or n < 0:
            raise ProtocolError(
                "an attachment of %d bytes at %d lies outside the %d bytes "
                "after the header" % (n, at, room)
            )
        spans.append((at, n))
        if tag == _BYTES_TAG:
            return payload[base + at : base + at + n]
        dtype = _ATTACHMENT_DTYPES.get(tag)
        if dtype is None:
            raise ProtocolError("unknown attachment tag %r" % (tag,))
        if n % dtype.itemsize:
            raise ProtocolError(
                "a %s attachment of %d bytes is not a whole number of "
                "%d-byte cells" % (tag, n, dtype.itemsize)
            )
        cells = np.frombuffer(payload, dtype, n // dtype.itemsize, base + at)
        if tag == "<f8" and not np.isfinite(cells).all():
            raise ProtocolError("a <f8 attachment holds a non-finite cell")
        return cells

    try:
        obj = json.loads(
            payload[_WIRE_PREFIX.size : base].decode("ascii"),
            object_hook=attachment,
        )
    except ProtocolError:
        raise
    except (ValueError, RecursionError) as error:
        raise ProtocolError("the frame's header is not JSON: %s" % error) from error
    if len(spans) != count:
        raise ProtocolError(
            "the header references %d attachments, the prefix counts %d"
            % (len(spans), count)
        )
    spans.sort()
    for (at, n), (next_at, _) in zip(spans, spans[1:]):
        if next_at < at + n:
            raise ProtocolError(
                "attachments at %d and %d overlap" % (at, next_at)
            )
    return obj


#: Payload bytes above which :meth:`_WireChannel.send` writes a frame
#: piece by piece.  Below it a frame goes joined, through
#: :func:`~repro.protocol.transport.encode_frame`, which is where the
#: repo benchmark's ledger counts the coordinator's frame bytes
#: (``protocol.frame_bytes``); every frame the coordinator sends is
#: below it (a 2,048-row ``slice`` frame is about 66 KB).  Above it is a
#: shard's ``collect`` reply, megabytes of columns and rows: joined, its
#: payload and frame at once would be two more copies of it.
_JOINED_FRAME_BYTES = 1 << 20


class _WireChannel:
    """One frame byte stream over a connected socket.

    Frames are :func:`_wire_encode` payloads wrapped in the protocol
    layer's length-prefix framing (:func:`repro.protocol.transport
    .encode_frame` / :class:`~repro.protocol.transport.FrameDecoder`), so
    both ends reassemble partial reads deterministically.  Arrays and
    rendered rows cross as raw attachments after a JSON header (a float
    as its eight bytes), and JSON round-trips the remaining floats
    exactly (shortest-repr), which is what keeps tcp mode bit-identical
    to pipes.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._frames: deque = deque()

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, obj) -> None:
        """Write ``obj`` as one frame.  A payload of over
        :data:`_JOINED_FRAME_BYTES` (a ``collect`` reply) goes as its
        length prefix and head, then attachment by attachment, never
        joined; a smaller one goes joined, in one write.  The bytes on
        the socket are the same."""
        head, buffers = _wire_encode(obj)
        size = len(head) + sum(map(len, buffers))
        if size <= _JOINED_FRAME_BYTES:
            self._sock.sendall(encode_frame(b"".join([head, *buffers])))
            return
        self._sock.sendall(frame_header(size) + head)
        for buffer in buffers:
            self._sock.sendall(buffer)

    def _read(self) -> None:
        data = self._sock.recv(1 << 16)
        if not data:
            raise EOFError("shard wire closed")
        self._frames.extend(self._decoder.feed(data))

    def recv(self):
        while not self._frames:
            self._read()
        return _wire_decode(self._frames.popleft())

    def poll(self, timeout: float) -> bool:
        """Whether a whole frame is in within ``timeout`` seconds, like
        ``multiprocessing.connection.Connection.poll`` (a closed wire
        raises ``EOFError`` here rather than at the next :meth:`recv`)."""
        deadline = time.monotonic() + timeout
        try:
            while not self._frames:
                left = deadline - time.monotonic()
                if left <= 0.0:
                    return False
                self._sock.settimeout(left)
                self._read()
        except socket.timeout:
            return False
        finally:
            self._sock.settimeout(None)
        return True

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _tcp_shard_worker(host: str, port: int, index: int) -> None:
    """TCP worker main loop: connect, identify, receive the init frame,
    then serve frames exactly like the pipe worker.

    The worker learns *everything* — including its shard spec — over the
    socket, so the same loop could run on another machine given only the
    coordinator's address.
    """
    _claim_cpu(index)
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    _arm_send_deadline(sock.fileno())
    channel = _WireChannel(sock)
    channel.send(["hello", index])
    _serve(channel, _make_core(channel.recv()))


# -- the transport ------------------------------------------------------------

#: Seconds between worker-liveness checks while tcp workers connect.
_TCP_ACCEPT_POLL_S = 0.05

#: Seconds :meth:`ShardTransport.close` gives the whole pool to
#: acknowledge ``close`` and exit before it kills what is left.
_CLOSE_GRACE_S = 5.0

#: Seconds the wire may make no progress, either way, before a shard
#: counts as failed: a barrier waits this long for one shard's reply,
#: and a frame write (``SO_SNDTIMEO``, :func:`_arm_send_deadline`) this
#: long for the peer to take more bytes.  The send timeout restarts on
#: every partial write, so it bounds a stall, not a whole frame.  The
#: longest legitimate waits measured on a 2-core Xeon: 3.4 ms of barrier
#: time per run in ``run scaling-shards --scale paper`` (8 shards) and
#: 2.7 ms in ``million_query_run`` (4 shards), whose classes price on the
#: coordinator.  Were that run's whole 19 s wall one plane's
#: ``collect``, the deadline would still be 15x it.
_WIRE_DEADLINE_S = 300.0


def _arm_send_deadline(fd: int) -> None:
    """Give one end of a shard's pipe or socket a send timeout of
    :data:`_WIRE_DEADLINE_S`: a write that makes no progress for that
    long raises ``BlockingIOError`` instead of blocking forever.  Both
    ends are armed: the coordinator's at spawn, a worker's as it starts,
    so a worker whose coordinator stopped reading gives up its reply and
    exits (:func:`_serve`) rather than wait for :meth:`ShardTransport
    .close` to kill it.

    A duplex ``multiprocessing.Pipe`` is a ``socketpair`` on Unix, so one
    option on a duplicate of ``fd`` covers fork and tcp peers alike.
    """
    seconds, fraction = divmod(_WIRE_DEADLINE_S, 1.0)
    timeval = struct.pack("ll", int(seconds), int(fraction * 1e6))
    with socket.socket(fileno=os.dup(fd)) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


class ShardFailure(RuntimeError):
    """A shard worker died, its pipe/socket closed, it sent a malformed
    frame, or a frame raised inside it, mid-run.

    ``shard`` is the worker's index and ``op`` the frame op the
    coordinator was sending or awaiting when the wire broke, or the op of
    the frame that raised; the cause of a raise is a ``RuntimeError``
    holding the worker's formatted traceback.  (Inline mode runs the
    cores in-process, so there a frame's exception propagates as is.)  The
    transport is unusable afterwards; :meth:`ShardTransport.close`
    still reaps every child.
    """

    def __init__(self, shard: int, op: str, cause: BaseException) -> None:
        # All three in ``args`` so pickle/copy can rebuild the exception.
        super().__init__(shard, op, cause)
        self.shard = shard
        self.op = op

    def __str__(self) -> str:
        return "shard %d failed during %r frame: %r" % self.args


class ShardTransport:
    """Pipe- or socket-backed frame channel to a pool of shard workers.

    Peers are shard indices.  A run is one answered ``reset``
    (:meth:`exchange`), the plane's trace slice as one-way ``slice``
    frames and one one-way ``end`` frame (:meth:`post`), then one
    answered ``collect``; ``close`` ends the pool.  :meth:`exchange` is
    a pipelined barrier — all frames are written before any reply is
    read, and replies are read in shard order, so the merge order (and
    therefore every downstream float) never depends on worker
    scheduling.

    ``mode="fork"`` forks one daemon worker per shard over
    :func:`multiprocessing.Pipe`, which pickles every frame;
    ``mode="inline"`` runs the identical cores in-process and hands them
    the frames as they are — the equivalence tests pin fork == inline
    bit-for-bit.  ``mode="tcp"`` forks the same workers but
    moves every frame as a length-prefixed JSON header and raw
    attachments (:func:`_wire_encode`) over localhost sockets
    (the :mod:`repro.protocol.transport` framing helpers), the
    machine-spanning wire: workers receive even their shard spec over
    the socket, so only the fork itself is process-local.  Worker
    processes pin themselves to one CPU each (:func:`_claim_cpu`).
    """

    def __init__(
        self, shard_inits: Sequence[Mapping[str, object]], mode: str = "fork"
    ) -> None:
        if mode not in ("fork", "inline", "tcp"):
            raise ValueError(
                "transport mode must be 'fork', 'inline' or 'tcp'"
            )
        # Checked before any fork or socket: a bad kind would otherwise
        # be a KeyError inside a daemon worker, seen only as an EOF.
        for index, init in enumerate(shard_inits):
            if init.get("kind") not in _CORE_KINDS:
                raise ValueError(
                    "shard init %d has kind %r: expected one of %r"
                    % (index, init.get("kind"), sorted(_CORE_KINDS))
                )
        self._mode = mode
        self._num_shards = len(shard_inits)
        #: Wall-clock milliseconds spent blocked at barriers
        #: (coordinator waiting on shard replies).
        self.barrier_wait_ms = 0.0
        #: One-way frames dispatched without a reply (see :meth:`post`).
        self.posted_frames = 0
        self._child_peak_kb = 0
        self._closed = False
        if mode != "inline":
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
        if mode == "fork":
            self._peers = []
            self._procs = []
            for index, init in enumerate(shard_inits):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, init, index),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                _arm_send_deadline(parent_conn.fileno())
                self._peers.append(parent_conn)
                self._procs.append(proc)
        elif mode == "tcp":
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(max(1, len(shard_inits)))
            host, port = listener.getsockname()
            self._procs = []
            for index in range(len(shard_inits)):
                proc = ctx.Process(
                    target=_tcp_shard_worker,
                    args=(host, port, index),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
            self._peers: List[Optional[_WireChannel]] = [None] * len(
                shard_inits
            )
            try:
                self._seat_tcp_workers(listener)
            except ShardFailure:
                for channel in self._peers:
                    if channel is not None:
                        channel.close()
                for proc in self._procs:
                    proc.kill()
                    proc.join()
                raise
            finally:
                listener.close()
            for channel, init in zip(self._peers, shard_inits):
                _arm_send_deadline(channel.fileno())
                channel.send(init)
        else:
            self._cores = [_make_core(init) for init in shard_inits]

    def _seat_tcp_workers(self, listener: socket.socket) -> None:
        """Accept every tcp worker and seat its channel by its ``hello``.

        The listener is polled: a worker that has not connected and is
        no longer alive fails the start, and so does a first frame that
        is not ``["hello", i]`` for a still-empty seat ``i`` (malformed,
        out of range or repeated) — both as ``ShardFailure(shard,
        "hello", cause)``, shard ``-1`` for a frame that names no seat.
        """
        peers = self._peers
        listener.settimeout(_TCP_ACCEPT_POLL_S)
        while None in peers:
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                for shard, proc in enumerate(self._procs):
                    if peers[shard] is None and not proc.is_alive():
                        cause = EOFError("worker exited before connecting")
                        raise ShardFailure(shard, "hello", cause)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = _WireChannel(sock)
            try:
                hello = channel.recv()
                seats = [
                    seat
                    for seat, peer in enumerate(peers)
                    if peer is None and hello == ["hello", seat]
                ]
                if not seats:
                    raise ValueError(
                        "%r names no empty seat of %d" % (hello, len(peers))
                    )
            except (EOFError, OSError, ValueError) as error:
                channel.close()
                raise ShardFailure(-1, "hello", error) from error
            peers[seats[0]] = channel

    @property
    def num_shards(self) -> int:
        """Number of shard peers behind this transport."""
        return self._num_shards

    def exchange(
        self, frames: Sequence[Tuple]
    ) -> List[Mapping[str, object]]:
        """One pipelined barrier: frame *i* to shard *i*, replies in order.

        In fork mode every frame is written before the first reply is
        read, so shards overlap their work; the time spent blocked on
        replies accumulates into :attr:`barrier_wait_ms`.  A shard whose
        reply is not in :data:`_WIRE_DEADLINE_S` after the coordinator
        starts to wait for it is a :class:`ShardFailure` whose cause is a
        ``TimeoutError``.
        """
        if self._mode == "inline":
            start = time.perf_counter()
            replies = [
                core.handle(frame) for core, frame in zip(self._cores, frames)
            ]
            self.barrier_wait_ms += (time.perf_counter() - start) * 1e3
            return replies
        for shard, frame in enumerate(frames):
            self._send(shard, frame)
        start = time.perf_counter()
        replies = [
            self._recv(shard, frame[0]) for shard, frame in enumerate(frames)
        ]
        self.barrier_wait_ms += (time.perf_counter() - start) * 1e3
        return replies

    def _send(self, shard: int, frame: Sequence) -> None:
        try:
            self._peers[shard].send(frame)
        except (OSError, ValueError) as error:
            # ValueError: a frame the tcp wire cannot carry, such as a
            # non-finite float in a float64 column; nothing was written.
            op = frame[1][0] if frame[0] == "post" else frame[0]
            if isinstance(error, BlockingIOError):  # the send deadline
                _log.warning(
                    "shard %d took no more of a %r frame within %g s",
                    shard,
                    op,
                    _WIRE_DEADLINE_S,
                )
                cause = TimeoutError(
                    "frame not taken within %g s" % _WIRE_DEADLINE_S
                )
                raise ShardFailure(shard, op, cause) from error
            raise ShardFailure(shard, op, error) from error

    def _recv(self, shard: int, op: str) -> Mapping[str, object]:
        peer = self._peers[shard]
        try:
            if peer.poll(_WIRE_DEADLINE_S):
                reply = peer.recv()
                if isinstance(reply, dict) and "error" in reply:
                    # The worker raised (see _serve): name its frame.
                    raise ShardFailure(
                        shard,
                        str(reply.get("op", op)),
                        RuntimeError(str(reply["error"])),
                    )
                return reply
        except (EOFError, OSError, ValueError) as error:
            # ValueError: a tcp frame _wire_decode refuses, or whose
            # length prefix exceeds MAX_FRAME_BYTES -- socket bytes are
            # outside input.
            raise ShardFailure(shard, op, error) from error
        _log.warning(
            "shard %d sent no %r reply within %g s",
            shard,
            op,
            _WIRE_DEADLINE_S,
        )
        cause = TimeoutError("no reply within %g s" % _WIRE_DEADLINE_S)
        raise ShardFailure(shard, op, cause)

    def post(self, frames: Sequence[Optional[Tuple]]) -> None:
        """One-way dispatch: frame *i* to shard *i*, no replies read.

        The coordinator keeps posting while the workers tick; OS
        pipe/socket buffers provide the backpressure; a shard that takes
        no more bytes of a frame for :data:`_WIRE_DEADLINE_S` fails as a
        :class:`ShardFailure` whose cause is a ``TimeoutError``.  Workers
        process frames strictly in arrival order, so a later
        :meth:`exchange` barrier observes every posted frame's effects.  Inline mode
        handles the frames synchronously (same cores), preserving
        bit-identity across modes.
        """
        posted = 0
        for shard, frame in enumerate(frames):
            if frame is None:
                continue
            if self._mode == "inline":
                self._cores[shard].handle(frame)
            else:
                self._send(shard, ("post", frame))
            posted += 1
        self.posted_frames += posted

    def note_child_peak_kb(self, peak_kb: int) -> None:
        """Record the workers' peak RSS (from a collect barrier)."""
        if peak_kb > self._child_peak_kb:
            self._child_peak_kb = peak_kb

    def child_peak_kb(self) -> int:
        """Peak worker-process RSS in KiB (0 in inline mode).

        Both child-bearing modes report: forked-pipe workers *and* tcp
        workers fold their ``ru_maxrss`` through the collect barrier.
        """
        return self._child_peak_kb if self._mode != "inline" else 0

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Every child is reaped even after a :class:`ShardFailure`, in
        bounded time: dead peers are skipped, live ones acknowledge and
        exit, and whatever has not done so :data:`_CLOSE_GRACE_S` after
        the call began is killed.  A worker stuck inside a frame reads
        nothing more, so neither the ``close`` write (its pipe or socket
        may be full) nor the wait for its acknowledgement may block past
        that deadline.
        """
        if self._closed:
            return
        self._closed = True
        if self._mode == "inline":
            return
        deadline = time.monotonic() + _CLOSE_GRACE_S

        def left() -> float:
            return max(0.0, deadline - time.monotonic())

        for peer in self._peers:
            try:
                if select.select([], [peer], [], left())[1]:
                    peer.send(("close",))
                    if peer.poll(left()):
                        peer.recv()
            except (EOFError, OSError, ValueError):  # as in _recv
                pass
            peer.close()
        for shard, proc in enumerate(self._procs):
            proc.join(timeout=left())
            if proc.is_alive():
                _log.warning(
                    "shard %d did not exit within %g s of 'close'; killing it",
                    shard,
                    _CLOSE_GRACE_S,
                )
                proc.kill()
                proc.join()

