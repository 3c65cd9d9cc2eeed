"""Tests of the wire (repro.protocol).

Three concerns:

* the versioned JSON codec — hypothesis round-trip identity for every
  message type, unknown-field tolerance, version pinning, and strict
  rejection of malformed envelopes; packed columns and the bid batches
  (``slice`` frames) the sharded engine's socket wire carries in them —
  strict rejection of hostile cells and malformed batches;
* the length-prefix framing — any payloads cut anywhere come back in
  order, and a hostile length prefix is refused;
* sim-vs-protocol equivalence — ``Network.fanout``'s FanoutResult must
  keep the (delay, messages, delivered, replied) contract draw for draw
  on seeded runs, in both fault regimes.
"""

import base64
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
from repro.protocol.messages import pack_column, unpack_column
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.shards import _slice_problem, _wire_default, _wire_hook

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


def _raw(data, dtype="<f8"):
    """A packed column object around arbitrary cell bytes."""
    return {"dtype": dtype, "cells": base64.b64encode(data).decode("ascii")}


#: One well-formed row of a bid batch: a ``slice`` frame's four columns,
#: packed as the sharded engine's socket wire carries them.
_ONE_ROW = {
    "times_ms": pack_column([1.0], "<f8"),
    "qids": pack_column([1], "<i8"),
    "class_indices": pack_column([0], "<i8"),
    "origin_nodes": pack_column([0], "<i8"),
}
_BATCH_FIELDS = tuple(_ONE_ROW)
_ABSENT = object()


def _batch_payload(**columns):
    """A ``slice`` frame's JSON on the socket wire: :data:`_ONE_ROW` with
    ``columns`` swapped in (``_ABSENT`` drops one)."""
    body = {**_ONE_ROW, **columns}
    return json.dumps(["slice", *(v for v in body.values() if v is not _ABSENT)])


def _landed(payload):
    """A ``slice`` frame's columns as a socket worker takes them: its
    packed columns unpacked (:func:`_wire_hook`), then checked
    (:func:`_slice_problem`); either refuses with ``ProtocolError``."""
    _, *columns = json.loads(payload, object_hook=_wire_hook)
    problem = _slice_problem(columns)
    if problem is not None:
        raise ProtocolError(problem)
    return columns


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
        """Packed eight-byte cells: a ``slice`` frame's tick clock crosses
        the socket wire bit for bit (``-0.0`` keeps its sign, so compare
        reprs, not values)."""
        rows = np.arange(len(times), dtype=np.int64)
        frame = ("slice", np.array(times, dtype=np.float64), rows, rows, rows)
        columns = _landed(json.dumps(frame, default=_wire_default))
        assert list(map(repr, columns[0].tolist())) == list(map(repr, times))
        assert all(column.tolist() == rows.tolist() for column in columns[1:])

    def test_pack_column_takes_lists_tuples_and_arrays_alike(self):
        """Lists, tuples and numpy int64 / float64 columns (copied as
        buffers, as the sharded engine hands them in) pack the same."""
        for dtype, values, array in (
            ("<f8", [0.1, 0.1], np.array([0.1, 0.1])),
            ("<i8", [7, 8], np.array([7, 8], dtype=np.int64)),
        ):
            packed = pack_column(values, dtype)
            assert pack_column(tuple(values), dtype) == packed
            assert pack_column(array, dtype) == packed
            assert unpack_column(packed, dtype).tolist() == values
        with pytest.raises(ProtocolError):
            pack_column(np.array([math.nan]), "<f8")

    @pytest.mark.parametrize(
        "columns, complaint",
        [
            # Each case below re-expresses, as a ``slice`` frame of packed
            # columns, the version-1 ``bid_batch`` body its id spells
            # (the arrays are its columns).
            # ragged columns
            pytest.param(
                {"qids": pack_column([1, 2], "<i8")},
                "column 1 has 2 rows, column 0 has 1",
                id='{"times_ms": [1.0], "qids": [1, 2], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {
                    "times_ms": pack_column([], "<f8"),
                    "qids": pack_column([], "<i8"),
                    "class_indices": pack_column([], "<i8"),
                },
                "column 3 has 1 rows, column 0 has 0",
                id='{"times_ms": [], "qids": [], "class_indices": [], '
                '"origin_nodes": [0]}',
            ),
            # a bool / a float / a null in an integer column
            pytest.param(
                {"qids": _raw(b"\x01", "|b1")},
                "unknown packed dtype '\\|b1'",
                id='{"times_ms": [1.0], "qids": [true], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"class_indices": pack_column([0.0], "<f8")},
                "column 2 is not a 1-D int64 array",
                id='{"times_ms": [1.0], "qids": [1], "class_indices": [0.0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"origin_nodes": {"dtype": "<i8", "cells": None}},
                "base64 string",
                id='{"times_ms": [1.0], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [null]}',
            ),
            # a non-number, a bool or a non-finite time
            pytest.param(
                {"times_ms": {"dtype": "<f8", "cells": "1.0"}},
                "not base64",
                id='{"times_ms": ["1.0"], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": {"dtype": "<f8", "cells": False}},
                "base64 string",
                id='{"times_ms": [false], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": _raw(struct.pack("<d", math.nan))},
                "non-finite",
                id='{"times_ms": [NaN], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": _raw(struct.pack("<d", -math.inf))},
                "non-finite",
                id='{"times_ms": [-Infinity], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            pytest.param(
                {"times_ms": _raw(struct.pack("<d", math.inf))},
                "non-finite",
                id='{"times_ms": [1e999], "qids": [1], "class_indices": [0], '
                '"origin_nodes": [0]}',
            ),
            # an integer time (one beyond the float range, at version 1)
            pytest.param(
                {"times_ms": pack_column([10**18], "<i8")},
                "column 0 is not a 1-D float64 array",
                id="{\"times_ms\": [1%s], \"qids\": [1], \"class_indices\": [0], "
                '"origin_nodes": [0]}' % ("0" * 400),
            ),
            # non-packed columns
            pytest.param(
                {name: value for name, value in zip(_BATCH_FIELDS, (1.0, 1, 0, 0))},
                "column 0 is not a 1-D float64 array",
                id='{"times_ms": 1.0, "qids": 1, "class_indices": 0, '
                '"origin_nodes": 0}',
            ),
            pytest.param(
                {
                    "times_ms": "ab",
                    "qids": pack_column([1, 2], "<i8"),
                    "class_indices": pack_column([0, 0], "<i8"),
                    "origin_nodes": pack_column([0, 0], "<i8"),
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
            # packed garbage, which version 1 could not spell
            pytest.param(
                {"qids": [1]}, "column 1 is not a 1-D int64 array", id="json-array"
            ),
            pytest.param(
                {"qids": {**pack_column([1], "<i8"), "rows": 1}},
                "a packed column is an object",
                id="extra-key",
            ),
            pytest.param(
                {"qids": _raw(b"\x01" * 7, "<i8")},
                "not a whole number of 8-byte",
                id="partial-cell",
            ),
            pytest.param(
                {"qids": {"dtype": "<i8", "cells": "AQAAAAAAAAA"}},
                "not base64",
                id="unpadded-base64",
            ),
            pytest.param(
                {"qids": {"dtype": "<i8", "cells": "\u00e9" * 12}},
                "not base64",
                id="non-ascii-cells",
            ),
            pytest.param(
                {"qids": _raw(b"\x00" * 8, "|O8")},
                "unknown packed dtype '\\|O8'",
                id="object-dtype",
            ),
        ],
    )
    def test_malformed_bid_batches_raise(self, columns, complaint):
        """What a ``bid_batch`` envelope's decode refused, a socket
        worker refuses in a ``slice`` frame: the packed columns' unpack
        or the frame's own check."""
        with pytest.raises(ProtocolError, match=complaint):
            _landed(_batch_payload(**columns))

    def test_the_one_row_body_decodes(self):
        """The base every malformed case above edits is itself valid."""
        columns = _landed(_batch_payload())
        assert [column.tolist() for column in columns] == [[1.0], [1], [0], [0]]

    @given(dtype=st.sampled_from(["<f8", "<i8", None]), text=st.text())
    @settings(max_examples=100, deadline=None)
    def test_text_in_a_packed_field_is_refused(self, dtype, text):
        with pytest.raises(ProtocolError, match="a packed column is an object"):
            unpack_column(text, dtype)

    @given(
        dtype=st.sampled_from(["<f8", "<i8"]),
        data=st.binary(max_size=80).filter(lambda b: len(b) % 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_partial_cells_are_refused(self, dtype, data):
        with pytest.raises(ProtocolError, match="not a whole number"):
            unpack_column(_raw(data, dtype))

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
        for column in (times, np.array(times)):
            with pytest.raises(ProtocolError, match="non-finite"):
                pack_column(column, "<f8")
        cells = b"".join(struct.pack("<d", t) for t in times)
        with pytest.raises(ProtocolError, match="non-finite"):
            unpack_column(_raw(cells), "<f8")

    @given(
        value=st.one_of(
            st.integers(max_value=-(2**63) - 1), st.integers(min_value=2**63)
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_integers_outside_int64_are_unencodable(self, value):
        with pytest.raises(ProtocolError, match="cannot pack"):
            pack_column([1, value], "<i8")

    @given(
        dtype=st.sampled_from(["<f8", "<i8", None]),
        junk=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["dtype", "cells", "x"]), inner),
            max_leaves=6,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_json_in_a_packed_field_decodes_or_is_refused(self, dtype, junk):
        """Nothing but cells or a ``ProtocolError`` comes out."""
        try:
            cells = unpack_column(junk, dtype)
        except ProtocolError:
            return
        assert cells.typecode == ("d" if junk["dtype"] == "<f8" else "q")

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
