"""Tests of the wire (repro.protocol, and the sharded engine's tcp frames).

Three concerns:

* the versioned JSON codec — hypothesis round-trip identity for every
  message type, unknown-field tolerance, version pinning, and strict
  rejection of malformed envelopes; the sharded engine's tcp frame
  codec (a JSON header, then raw attachments) and the bid batches
  (``slice`` frames) it carries — bit-for-bit round trips, and strict
  rejection of hostile references, cells and malformed batches;
* the length-prefix framing — any payloads cut anywhere come back in
  order, and a hostile length prefix is refused;
* sim-vs-protocol equivalence — ``Network.fanout``'s FanoutResult must
  keep the (delay, messages, delivered, replied) contract draw for draw
  on seeded runs, in both fault regimes.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import (
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    AssignQuery,
    BidRequest,
    PeriodTick,
    ProtocolError,
    Quote,
    Refusal,
    decode,
    encode,
    message_tag,
)
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.shards import (
    _WIRE_PREFIX,
    _slice_problem,
    _wire_decode,
    _wire_encode,
)

# ------------------------------------------------------------------ codec

ids = st.integers(min_value=0, max_value=2**31 - 1)
node_ids = st.integers(min_value=-1, max_value=10_000)
finite_ms = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)

MESSAGE_STRATEGIES = {
    "bid_request": st.builds(
        BidRequest,
        qid=ids,
        class_index=ids,
        origin_node=node_ids,
        attempt=ids,
    ),
    "quote": st.builds(
        Quote,
        qid=ids,
        node_id=node_ids,
        class_index=ids,
        estimated_completion_ms=finite_ms,
    ),
    "refusal": st.builds(
        Refusal, qid=ids, node_id=node_ids, class_index=ids
    ),
    "assign_query": st.builds(
        AssignQuery, qid=ids, node_id=node_ids, class_index=ids
    ),
    "period_tick": st.builds(
        PeriodTick, period_index=ids, period_ms=finite_ms
    ),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def _envelope(tag, body):
    """A current-version envelope around a hand-written JSON ``body``."""
    return '{"v": %d, "type": "%s", "body": %s}' % (PROTOCOL_VERSION, tag, body)


_ABSENT = object()


class _Cells:
    """One attachment of a hand-built tcp frame (:func:`_wire_payload`):
    ``data`` after the header, and in the header a reference to it whose
    fields ``fields`` override (``_ABSENT`` drops one)."""

    def __init__(self, tag, data, **fields):
        self.tag, self.data, self.fields = tag, data, fields


def _wire_payload(frame, count=None):
    """``frame`` as a tcp frame payload, laid out by hand as
    :func:`_wire_encode` lays it out, so that a test can write what the
    encoder never would: each array and :class:`_Cells` becomes an
    attachment, and the prefix counts ``count`` references (default: as
    many as were written)."""
    attachments = bytearray()
    written = 0

    def lift(value):
        nonlocal written
        if isinstance(value, np.ndarray):
            value = _Cells(value.dtype.str, value.tobytes())
        if not isinstance(value, _Cells):
            raise TypeError(type(value).__name__)
        reference = {"@": value.tag, "at": len(attachments), "n": len(value.data)}
        reference.update(value.fields)
        attachments.extend(value.data + bytes(-len(value.data) % 8))
        written += 1
        return {k: v for k, v in reference.items() if v is not _ABSENT}

    header = json.dumps(frame, separators=(",", ":"), default=lift)
    header = header.encode("ascii")
    header += b" " * (-(_WIRE_PREFIX.size + len(header)) % 8)
    prefix = _WIRE_PREFIX.pack(len(header), written if count is None else count)
    return prefix + header + bytes(attachments)


def _encoded(frame):
    """:func:`_wire_encode`'s payload of ``frame``, joined."""
    head, buffers = _wire_encode(frame)
    return b"".join([head, *buffers])


#: One well-formed row of a bid batch: a ``slice`` frame's four columns,
#: which the sharded engine's socket wire carries as attachments.
_ONE_ROW = {
    "times_ms": np.array([1.0]),
    "qids": np.array([1], dtype=np.int64),
    "class_indices": np.array([0], dtype=np.int64),
    "origin_nodes": np.array([0], dtype=np.int64),
}
_BATCH_FIELDS = tuple(_ONE_ROW)
_ONE_CELL = struct.pack("<q", 1)


def _batch_payload(**columns):
    """A ``slice`` frame's payload on the socket wire: :data:`_ONE_ROW`
    with ``columns`` swapped in (``_ABSENT`` drops one)."""
    body = {**_ONE_ROW, **columns}
    return _wire_payload(
        ["slice", *(v for v in body.values() if v is not _ABSENT)]
    )


def _landed(payload):
    """A ``slice`` frame's columns as a socket worker takes them: the
    payload decoded (:func:`_wire_decode`), then checked
    (:func:`_slice_problem`); either refuses with ``ProtocolError``."""
    _, *columns = _wire_decode(payload)
    problem = _slice_problem(columns)
    if problem is not None:
        raise ProtocolError(problem)
    return columns


#: JSON scalars a tcp frame's header carries: the int64 edges, -0.0,
#: subnormals and infinities among them (a NaN's bits do not survive
#: JSON, so none is drawn).
_WIRE_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(2**63), 2**63 - 1, 0])
    | st.floats(allow_nan=False)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308])
    | st.text(max_size=6)
)

#: What crosses as attachments: empty and non-empty int64 / finite
#: float64 columns and ASCII text chunks.
_WIRE_ATTACHMENTS = (
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(
        lambda cells: np.array(cells, dtype=np.int64)
    )
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6).map(
        lambda cells: np.array(cells, dtype=np.float64)
    )
    | st.text(st.characters(max_codepoint=127), max_size=12).map(str.encode)
)

#: Nested frames of both.  The key "@" marks an attachment reference, so
#: no payload dict may hold it (:func:`_wire_decode` refuses one that
#: does; ``test_a_payload_dict_keyed_at_is_refused``).
_WIRE_FRAMES = st.recursive(
    _WIRE_SCALARS | _WIRE_ATTACHMENTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.text(max_size=4).filter(lambda key: key != "@"), inner, max_size=4
    ),
    max_leaves=12,
)


def _columns(value):
    """Every array in ``value``, depth first."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, dict)):
        for member in value.values() if isinstance(value, dict) else value:
            yield from _columns(member)


def _bits(value):
    """``value`` with every float and array spelt as its bytes, so that
    ``==`` compares bit for bit (``-0.0 == 0.0``, ``True == 1``)."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return [_bits(member) for member in value]
    if isinstance(value, dict):
        return {key: _bits(member) for key, member in value.items()}
    return (type(value).__name__, value)


class TestCodec:
    def test_strategies_cover_every_message_type(self):
        assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES)

    @given(message=any_message)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, message):
        assert decode(encode(message)) == message

    @given(message=any_message)
    @settings(max_examples=50, deadline=None)
    def test_encoding_is_canonical(self, message):
        # sort_keys + compact separators: equal messages, equal bytes.
        assert encode(message) == encode(decode(encode(message)))
        envelope = json.loads(encode(message))
        assert envelope["v"] == PROTOCOL_VERSION
        assert envelope["type"] == message_tag(message)

    @given(message=any_message, junk=st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_unknown_body_fields_are_tolerated(self, message, junk):
        envelope = json.loads(encode(message))
        if junk in envelope["body"]:
            return
        envelope["body"][junk] = "future-extension"
        assert decode(json.dumps(envelope)) == message

    @given(
        message=any_message,
        version=st.integers().filter(lambda v: v != PROTOCOL_VERSION),
    )
    @settings(max_examples=50, deadline=None)
    def test_version_is_pinned(self, message, version):
        envelope = json.loads(encode(message))
        envelope["v"] = version
        with pytest.raises(ProtocolError):
            decode(json.dumps(envelope))

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            "[]",
            '{"type": "quote", "body": {}}',  # missing version
            # Ids keep the version-1 spelling these cases were written in;
            # the payloads are current, so each is refused for its own
            # reason, not for its version.
            pytest.param(
                _envelope("no_such_type", "{}"),
                id='{"v": 1, "type": "no_such_type", "body": {}}',
            ),
            pytest.param(
                _envelope("quote", "[]"),
                id='{"v": 1, "type": "quote", "body": []}',
            ),
            pytest.param(  # missing fields
                _envelope("quote", "{}"),
                id='{"v": 1, "type": "quote", "body": {}}',
            ),
            # wrong field shapes
            pytest.param(
                _envelope(
                    "refusal", '{"qid": "x", "node_id": 1, "class_index": 0}'
                ),
                id='{"v": 1, "type": "refusal", "body": '
                '{"qid": "x", "node_id": 1, "class_index": 0}}',
            ),
            pytest.param(
                _envelope(
                    "refusal", '{"qid": true, "node_id": 1, "class_index": 0}'
                ),
                id='{"v": 1, "type": "refusal", "body": '
                '{"qid": true, "node_id": 1, "class_index": 0}}',
            ),
            pytest.param(
                _envelope(
                    "quote",
                    '{"qid": 1, "node_id": 1, "class_index": 0, '
                    '"estimated_completion_ms": "soon"}',
                ),
                id='{"v": 1, "type": "quote", "body": {"qid": 1, "node_id": 1, '
                '"class_index": 0, "estimated_completion_ms": "soon"}}',
            ),
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ProtocolError) as refused:
            decode(payload)
        assert "unsupported protocol version" not in str(refused.value) or (
            '"v"' not in payload
        )

    @given(times=st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=100, deadline=None)
    def test_bid_batch_times_round_trip_exactly(self, times):
        """Raw eight-byte cells: a ``slice`` frame's tick clock crosses
        the socket wire bit for bit (``-0.0`` keeps its sign, so compare
        reprs, not values)."""
        rows = np.arange(len(times), dtype=np.int64)
        frame = ("slice", np.array(times, dtype=np.float64), rows, rows, rows)
        columns = _landed(_encoded(frame))
        assert list(map(repr, columns[0].tolist())) == list(map(repr, times))
        assert all(column.tolist() == rows.tolist() for column in columns[1:])

    @given(frame=_WIRE_FRAMES)
    @settings(max_examples=200, deadline=None)
    def test_wire_frames_round_trip_bit_for_bit(self, frame):
        """Whatever the encoder takes comes back from the decoder bit for
        bit: columns as arrays of their dtype, text chunks as bytes,
        every scalar as JSON reads it; and every column lands aligned
        in the received frame."""
        head, buffers = _wire_encode(frame)
        back = _wire_decode(b"".join([head, *buffers]))
        assert _bits(back) == _bits(frame)
        assert all(column.flags.aligned for column in _columns(back))

    @pytest.mark.parametrize(
        "held",
        [
            {"@": "<i8", "at": 0, "n": 0},
            {"@": "<i8", "at": 0, "n": 8},
            {"@": 1},
            {"@": "x", "y": 2},
        ],
        ids=["empty-column", "overlap", "bad-tag", "extra-key"],
    )
    def test_a_payload_dict_keyed_at_is_refused(self, held):
        """A dict of the frame that holds the key ``"@"`` reads as a
        reference the encoder did not write: the decoder refuses the
        frame, even when the dict spells a reference that could be
        valid, rather than read it as an attachment."""
        payload = _encoded(["reply", np.arange(1), held])
        with pytest.raises(ProtocolError):
            _wire_decode(payload)

    def test_wire_columns_cross_whatever_their_layout(self):
        """Contiguous, strided and reversed int64 / float64 columns (the
        sharded engine hands in views) cross as the same bytes, and a
        NaN is refused in any of them."""
        for dtype in (np.int64, np.float64):
            base = np.arange(12, dtype=dtype)
            columns = (base[::2].copy(), base[::2], base[::2][::-1].copy()[::-1])
            payloads = {_encoded(["slice", column]) for column in columns}
            assert len(payloads) == 1
            (_, back), = [_wire_decode(payload) for payload in payloads]
            assert back.dtype == dtype and back.tolist() == base[::2].tolist()
        spoiled = np.arange(12, dtype=np.float64)
        spoiled[4] = math.nan
        with pytest.raises(ProtocolError, match="non-finite"):
            _wire_encode(["slice", spoiled[::2]])

    @pytest.mark.parametrize(
        "columns, complaint",
        [
            # Each case below re-expresses, as a ``slice`` frame of raw
            # attachments, the version-1 ``bid_batch`` body its id spells
            # (the arrays are its columns).
            # ragged columns
            pytest.param(
                {"qids": np.array([1, 2], dtype=np.int64)},
                "column 1 has 2 rows, column 0 has 1",
                id='{"times_ms": [1.0], "qids": [1, 2], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {
                    "times_ms": np.array([], dtype=np.float64),
                    "qids": np.array([], dtype=np.int64),
                    "class_indices": np.array([], dtype=np.int64),
                },
                "column 3 has 1 rows, column 0 has 0",
                id='{"times_ms": [], "qids": [], "class_indices": [], '
                '"origin_nodes": [0]}',
            ),
            # a bool / a float / a null in an integer column
            pytest.param(
                {"qids": _Cells("|b1", b"\x01")},
                "unknown attachment tag '\\|b1'",
                id='{"times_ms": [1.0], "qids": [true], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"class_indices": np.array([0.0])},
                "column 2 is not a 1-D int64 array",
                id='{"times_ms": [1.0], "qids": [1], "class_indices": [0.0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"origin_nodes": _Cells("<i8", _ONE_CELL, n=None)},
                "offset and length must be ints",
                id='{"times_ms": [1.0], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [null]}',
            ),
            # a non-number, a bool or a non-finite time
            pytest.param(
                {"times_ms": _Cells("<f8", struct.pack("<d", 1.0), at="1.0")},
                "offset and length must be ints",
                id='{"times_ms": ["1.0"], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": _Cells("<f8", struct.pack("<d", 1.0), n=False)},
                "offset and length must be ints",
                id='{"times_ms": [false], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": _Cells("<f8", struct.pack("<d", math.nan))},
                "non-finite",
                id='{"times_ms": [NaN], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": _Cells("<f8", struct.pack("<d", -math.inf))},
                "non-finite",
                id='{"times_ms": [-Infinity], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": _Cells("<f8", struct.pack("<d", math.inf))},
                "non-finite",
                id='{"times_ms": [1e999], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            # an integer time (one beyond the float range, at version 1)
            pytest.param(
                {"times_ms": np.array([10**18], dtype=np.int64)},
                "column 0 is not a 1-D float64 array",
                id="{\"times_ms\": [1%s], \"qids\": [1], \"class_indices\": [0], "
                '"origin_nodes": [0]}' % ("0" * 400),
            ),
            # columns that are not attachments
            pytest.param(
                {name: value for name, value in zip(_BATCH_FIELDS, (1.0, 1, 0, 0))},
                "column 0 is not a 1-D float64 array",
                id='{"times_ms": 1.0, "qids": 1, "class_indices": 0, '
                '"origin_nodes": 0}',
            ),
            pytest.param(
                {
                    "times_ms": "ab",
                    "qids": np.array([1, 2], dtype=np.int64),
                    "class_indices": np.array([0, 0], dtype=np.int64),
                    "origin_nodes": np.array([0, 0], dtype=np.int64),
                },
                "column 0 is not a 1-D float64 array",
                id='{"times_ms": "ab", "qids": [1, 2], "class_indices": [0, 0], '
                '"origin_nodes": [0, 0]}',
            ),
            pytest.param(
                {"qids": {"0": 1}},
                "column 1 is not a 1-D int64 array",
                id='{"times_ms": [1.0], "qids": {"0": 1}, "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            # a missing column
            pytest.param(
                {"origin_nodes": _ABSENT},
                "expected 4 slice columns",
                id='{"times_ms": [1.0], "qids": [1], "class_indices": [0]}',
            ),
            # attachment garbage, which version 1 could not spell (the
            # ids name the base64 faults of the packed columns before)
            pytest.param(
                {"qids": [1]}, "column 1 is not a 1-D int64 array", id="json-array"
            ),
            pytest.param(
                {"qids": _Cells("<i8", _ONE_CELL, rows=1)},
                "an attachment reference is",
                id="extra-key",
            ),
            pytest.param(
                {"qids": _Cells("<i8", b"\x01" * 7)},
                "not a whole number of 8-byte",
                id="partial-cell",
            ),
            pytest.param(
                {"qids": _Cells("<i8", _ONE_CELL, n=1 << 20)},
                "lies outside the .* bytes after the header",
                id="unpadded-base64",
            ),
            pytest.param(
                {"qids": _Cells("bytes", "é".encode() * 4)},
                "column 1 is not a 1-D int64 array",
                id="non-ascii-cells",
            ),
            pytest.param(
                {"qids": _Cells("|O8", bytes(8))},
                "unknown attachment tag '\\|O8'",
                id="object-dtype",
            ),
        ],
    )
    def test_malformed_bid_batches_raise(self, columns, complaint):
        """What a ``bid_batch`` envelope's decode refused, a socket
        worker refuses in a ``slice`` frame: the frame's decode or its
        own check."""
        with pytest.raises(ProtocolError, match=complaint):
            _landed(_batch_payload(**columns))

    def test_the_one_row_body_decodes(self):
        """The base every malformed case above edits is itself valid, and
        is the encoder's own layout."""
        assert _batch_payload() == _encoded(["slice", *_ONE_ROW.values()])
        columns = _landed(_batch_payload())
        assert [column.tolist() for column in columns] == [[1.0], [1], [0], [0]]

    @given(dtype=st.sampled_from(["<f8", "<i8", None]), text=st.text())
    @settings(max_examples=100, deadline=None)
    def test_text_in_a_packed_field_is_refused(self, dtype, text):
        """Text where an attachment reference holds its offset (or, with
        no dtype, as the tag and the length) is refused."""
        cells = (
            _Cells(dtype, bytes(8), at=text)
            if dtype
            else _Cells(text, bytes(8), n=text)
        )
        with pytest.raises(ProtocolError, match="offset and length must be ints"):
            _wire_decode(_wire_payload(["slice", cells]))

    @given(
        dtype=st.sampled_from(["<f8", "<i8"]),
        data=st.binary(max_size=80).filter(lambda b: len(b) % 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_partial_cells_are_refused(self, dtype, data):
        with pytest.raises(ProtocolError, match="not a whole number"):
            _wire_decode(_wire_payload([_Cells(dtype, data)]))

    @given(
        times=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), max_size=5
        ),
        at=st.integers(0, 5),
        # Sign, an all-ones exponent, any mantissa: both infinities and
        # every NaN payload.
        bits=st.tuples(st.integers(0, 1), st.integers(0, 2**52 - 1)),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_finite_packed_times_are_refused(self, times, at, bits):
        sign, mantissa = bits
        (bad,) = struct.unpack("<d", struct.pack(
            "<Q", sign << 63 | 0x7FF << 52 | mantissa
        ))
        times.insert(min(at, len(times)), bad)
        with pytest.raises(ProtocolError, match="non-finite"):
            _wire_encode(["slice", np.array(times)])
        cells = b"".join(struct.pack("<d", t) for t in times)
        with pytest.raises(ProtocolError, match="non-finite"):
            _wire_decode(_wire_payload([_Cells("<f8", cells)]))

    @given(
        value=st.one_of(
            st.integers(max_value=-(2**63) - 1), st.integers(min_value=2**63)
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_integers_outside_int64_are_unencodable(self, value):
        """A column holding one is no int64 array (numpy makes it float64
        or object): the encoder refuses an object array, and the worker a
        slice whose qids are not int64."""
        qids = np.array([1, value])
        frame = ("slice", np.array([1.0, 2.0]), qids, qids, qids)
        with pytest.raises(
            ProtocolError,
            match="cannot cross the shard wire|column 1 is not a 1-D int64",
        ):
            _landed(_encoded(frame))

    @given(
        dtype=st.sampled_from(["<f8", "<i8", "bytes", None]),
        junk=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["@", "at", "n", "x"]), inner),
            max_leaves=6,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_json_in_a_packed_field_decodes_or_is_refused(self, dtype, junk):
        """Any JSON as a reference's fields (a dict) or as its offset:
        nothing but an attachment of its tag or a ``ProtocolError``
        comes out."""
        fields = junk if isinstance(junk, dict) else {"at": junk}
        if dtype is None:
            fields = {"@": _ABSENT, **fields}
        tag = fields.get("@", dtype)
        try:
            (cells,) = _wire_decode(_wire_payload([_Cells(dtype, bytes(16), **fields)]))
        except ProtocolError:
            return
        if tag == "bytes":
            assert isinstance(cells, bytes)
        else:
            assert cells.dtype.str == tag

    def test_non_finite_floats_are_unencodable(self):
        quote = Quote(
            qid=1,
            node_id=2,
            class_index=0,
            estimated_completion_ms=math.inf,
        )
        with pytest.raises(ProtocolError):
            encode(quote)

    @pytest.mark.parametrize(
        "literal, value",
        [("NaN", math.nan), ("Infinity", math.inf), ("-Infinity", -math.inf)],
    )
    @pytest.mark.parametrize(
        "message, field",
        [
            (PeriodTick(period_index=3, period_ms=500.0), "period_ms"),
            (
                Quote(qid=1, node_id=2, class_index=0,
                      estimated_completion_ms=7.5),
                "estimated_completion_ms",
            ),
        ],
    )
    def test_non_finite_literals_do_not_decode(
        self, message, field, literal, value
    ):
        """What ``encode`` refuses, ``decode`` refuses too: Python's JSON
        parser takes the non-standard literals unless told not to."""
        envelope = json.loads(encode(message))
        envelope["body"][field] = value
        payload = json.dumps(envelope)
        assert literal in payload
        with pytest.raises(ProtocolError, match=literal):
            decode(payload)

    def test_non_message_objects_have_no_tag(self):
        with pytest.raises(ProtocolError):
            message_tag("hello")  # type: ignore[arg-type]


# --------------------------------------------------------- wire framing


class TestFrameCodec:
    """Length-prefix framing under the tcp ShardTransport (see
    repro.sim.shards): every split point must reassemble identically."""

    def test_round_trip_single_frame(self):
        from repro.protocol import FrameDecoder, encode_frame

        payload = encode(BidRequest(qid=1, class_index=0, origin_node=-1))
        frames = FrameDecoder().feed(encode_frame(payload.encode("utf-8")))
        assert [f.decode("utf-8") for f in frames] == [payload]

    @given(st.integers(1, 40))
    @settings(max_examples=40)
    def test_reassembly_at_every_split_point(self, split):
        from repro.protocol import FrameDecoder, encode_frame

        stream = encode_frame(b"alpha") + encode_frame(b"") + encode_frame(
            b"beta-" * 4
        )
        split = min(split, len(stream))
        decoder = FrameDecoder()
        frames = decoder.feed(stream[:split])
        frames += decoder.feed(stream[split:])
        assert frames == [b"alpha", b"", b"beta-" * 4]
        assert decoder.pending_bytes == 0

    def test_several_frames_per_chunk_stay_ordered(self):
        from repro.protocol import FrameDecoder, encode_frame

        chunks = [encode_frame(str(n).encode()) for n in range(5)]
        assert FrameDecoder().feed(b"".join(chunks)) == [
            str(n).encode() for n in range(5)
        ]

    def test_partial_header_is_buffered_not_decoded(self):
        from repro.protocol import FrameDecoder, encode_frame

        stream = encode_frame(b"x")
        decoder = FrameDecoder()
        assert decoder.feed(stream[:3]) == []
        assert decoder.pending_bytes == 3
        assert decoder.feed(stream[3:]) == [b"x"]

    def test_oversized_frames_rejected_both_directions(self):
        import struct

        from repro.protocol import MAX_FRAME_BYTES, FrameDecoder, encode_frame

        class _Huge(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(ValueError):
            encode_frame(_Huge())
        hostile = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ValueError):
            FrameDecoder().feed(hostile)

    @given(
        st.lists(st.binary(max_size=48), max_size=8),
        st.lists(st.integers(0, 1 << 9), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_payloads_cut_anywhere_come_back_in_order(self, payloads, cuts):
        from repro.protocol import FrameDecoder, encode_frame

        stream = b"".join(encode_frame(payload) for payload in payloads)
        edges = sorted({min(cut, len(stream)) for cut in cuts})
        decoder = FrameDecoder()
        frames = []
        for lo, hi in zip([0] + edges, edges + [len(stream)]):
            frames += decoder.feed(stream[lo:hi])
        assert frames == payloads
        assert decoder.pending_bytes == 0

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=16),
                st.binary(max_size=16).map(lambda b: struct.pack(">I", len(b)) + b),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_yield_frames_or_refuse_a_hostile_length(self, chunks):
        """Bytes off a socket are outside input: whatever arrives, the
        decoder yields the frames a length-prefix walk of the stream
        finds, and raises (``ValueError``) only on a header above
        ``MAX_FRAME_BYTES``."""
        from repro.protocol import MAX_FRAME_BYTES, FrameDecoder

        stream = b"".join(chunks)
        expected, offset, hostile = [], 0, None
        while len(stream) - offset >= 4:
            (length,) = struct.unpack_from(">I", stream, offset)
            if length > MAX_FRAME_BYTES:
                hostile = length
                break
            if len(stream) - offset - 4 < length:
                break
            expected.append(stream[offset + 4 : offset + 4 + length])
            offset += 4 + length
        decoder = FrameDecoder()
        frames = []
        try:
            for chunk in chunks:
                frames += decoder.feed(chunk)
        except ValueError as error:
            assert hostile is not None
            assert str(error) == (
                "frame length %d exceeds MAX_FRAME_BYTES" % hostile
            )
            assert expected[: len(frames)] == frames
        else:
            assert hostile is None
            assert frames == expected
            assert decoder.pending_bytes == len(stream) - offset


# ------------------------------------------- sim-vs-protocol equivalence


def _seeded_network(seed, spec=None):
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    network = Network(Simulator(), seed=seed)
    if spec is not None:
        network.attach_faults(FaultInjector(spec))
    return network


CHAOS_SPEC = FaultSpec(
    drop_probability=0.15,
    spike_probability=0.1,
    spike_ms=30.0,
    bid_timeout_ms=10.0,
    fault_seed=7,
)


class TestSimProtocolEquivalence:
    @pytest.mark.parametrize("spec", [None, CHAOS_SPEC])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fanout_matches_legacy_tuple_contract(self, spec, seed):
        """Seeded twins agree draw for draw on every FanoutResult field."""
        protocol_net = _seeded_network(seed, spec)
        twin_net = _seeded_network(seed, spec)
        for round_index in range(20):
            peers = tuple(range(1, 2 + (round_index % 9)))
            result = protocol_net.fanout(0, peers)
            twin = twin_net.fanout(0, peers)
            assert result == twin
            # One request leg per peer, one reply leg per delivered request;
            # only a server that got the request can reply.
            assert result.messages == len(peers) + len(result.delivered)
            assert set(result.replied) <= set(result.delivered) <= set(peers)
            assert protocol_net.messages_sent == twin_net.messages_sent

    def test_fault_free_fanout_matches_round_trip_draws(self):
        """Fault-free, fanout consumes exactly round_trip_ms's draws."""
        fanout_net = _seeded_network(5)
        legacy_net = _seeded_network(5)
        for num_peers in (1, 2, 7, 20):
            peers = tuple(range(num_peers))
            result = fanout_net.fanout(99, peers)
            assert result.delay_ms == legacy_net.round_trip_ms(num_peers)
            assert result.messages == 2 * num_peers
            assert result.delivered == peers
            assert result.replied == peers
            assert not result.silent
