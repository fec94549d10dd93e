"""Wire-protocol tests: fuzzed round trips, malformed frames, framing.

The protocol's load-bearing property is that encode→decode→encode is a
*fixpoint* — a message that crosses the wire and is re-encoded produces
the exact same bytes, which is what the golden transcript and the
byte-identical-report guarantee stand on. A seeded stdlib-random fuzzer
exercises it over the whole message catalog, including NaN-carrying
TR-violated records and generator-sampled interactions.
"""

import json
import math
import random
import struct

import pytest

from repro.bench.driver import QueryRecord
from repro.bench.metrics import QueryMetrics
from repro.common.errors import ProtocolError
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Attach,
    Barrier,
    Detach,
    ErrorMessage,
    Hello,
    Interact,
    Progress,
    Record,
    SubmitViz,
    TurnDone,
    TurnGrant,
    decode_body,
    decode_message,
    encode_body,
    encode_message,
    record_from_dict,
    record_to_dict,
    split_frame,
    version_error,
)
from repro.query.model import AggFunc, Aggregate, BinDimension, BinKind
from repro.workflow.spec import (
    CreateViz,
    DiscardViz,
    Link,
    SelectBins,
    SetFilter,
    VizSpec,
)

N_CASES = 200


# ----------------------------------------------------------------------
# Random builders (stdlib random, fixed seeds — failures reproduce)
# ----------------------------------------------------------------------

def _viz(rng: random.Random) -> VizSpec:
    bins = tuple(
        BinDimension(f"C_{rng.randint(0, 9)}", BinKind.NOMINAL)
        for _ in range(rng.randint(1, 2))
    )
    aggs = (Aggregate(AggFunc.COUNT),)
    if rng.random() < 0.5:
        aggs += (Aggregate(AggFunc.AVG, f"C_{rng.randint(0, 9)}"),)
    return VizSpec(
        name=f"viz_{rng.randint(0, 99)}",
        source="flights",
        bins=bins,
        aggregates=aggs,
    )


def _interaction(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return CreateViz(_viz(rng))
    if kind == 1:
        return SetFilter(f"viz_{rng.randint(0, 9)}", None)
    if kind == 2:
        return Link(f"viz_{rng.randint(0, 4)}", f"viz_{rng.randint(5, 9)}")
    if kind == 3:
        keys = tuple(
            (rng.randint(0, 20),) for _ in range(rng.randint(0, 3))
        )
        return SelectBins(f"viz_{rng.randint(0, 9)}", keys)
    return DiscardViz(f"viz_{rng.randint(0, 9)}")


def _metric_value(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.15:
        return float("nan")
    if roll < 0.2:
        return float("inf")
    return rng.uniform(-10.0, 10.0)


def _record(rng: random.Random) -> QueryRecord:
    if rng.random() < 0.3:
        metrics = QueryMetrics.violated(rng.randint(0, 50))
    else:
        metrics = QueryMetrics(
            tr_violated=False,
            bins_delivered=rng.randint(0, 40),
            bins_in_gt=rng.randint(0, 40),
            missing_bins=rng.random(),
            rel_error_avg=_metric_value(rng),
            rel_error_stdev=_metric_value(rng),
            smape=_metric_value(rng),
            cosine_distance=_metric_value(rng),
            margin_avg=_metric_value(rng),
            margin_stdev=_metric_value(rng),
            bins_out_of_margin=rng.randint(0, 9),
            bias=_metric_value(rng),
        )
    return QueryRecord(
        query_id=rng.randint(0, 10_000),
        interaction_id=rng.randint(0, 30),
        viz_name=f"viz_{rng.randint(0, 9)}",
        driver="idea-sim",
        data_size=rng.choice(["S", "M", "L"]),
        think_time=rng.choice([0.5, 1.0, 3.0]),
        time_requirement=rng.choice([1.0, 3.0, 10.0]),
        workflow=f"mixed_{rng.randint(0, 9)}",
        workflow_type=rng.choice(["mixed", "sequential", "custom"]),
        start_time=rng.uniform(0, 100),
        end_time=rng.uniform(0, 100),
        metrics=metrics,
        bin_dims=rng.randint(1, 3),
        binning_type="nominal",
        agg_type="count",
        rows_processed=rng.randint(0, 1_000_000),
        fraction=rng.random(),
        num_concurrent=rng.randint(1, 8),
        qualifying_fraction=rng.random(),
    )


def _message(rng: random.Random):
    roll = rng.randrange(11)
    if roll == 0:
        return Hello(role=rng.choice(["client", "server"]),
                     engine=rng.choice([None, "idea-sim"]),
                     capabilities=rng.choice(
                         [(), ("shared-engine",), ("shared-engine", "x")]
                     ))
    if roll == 1:
        return Attach(
            mode=rng.choice(["scripted", "client"]),
            session_index=rng.randint(0, 31),
            per_session=rng.randint(1, 4),
            workflow_type=rng.choice(["mixed", "sequential"]),
            accel=rng.choice([None, 1.0, 1e6]),
        )
    if roll == 2:
        return SubmitViz(_viz(rng))
    if roll == 3:
        return Interact(_interaction(rng))
    if roll == 4:
        return Record(f"session-{rng.randint(0, 9)}", rng.randint(0, 99),
                      _record(rng))
    if roll == 5:
        return Progress(f"session-{rng.randint(0, 9)}",
                        rng.choice(["attached", "workflow"]),
                        {"index": rng.randint(0, 5)})
    if roll == 6:
        return Detach(
            session_id=rng.choice([None, "session-1"]),
            queries=rng.choice([None, rng.randint(0, 400)]),
            makespan=rng.choice([None, rng.uniform(0, 200)]),
        )
    if roll == 7:
        return Barrier(sessions=rng.randint(1, 32),
                       event=rng.choice(["start", "end"]))
    if roll == 8:
        return TurnGrant(f"session-{rng.randint(0, 9)}",
                         rng.randint(0, 4000),
                         rng.uniform(0, 500))
    if roll == 9:
        return TurnDone(turn=rng.randint(0, 4000),
                        session_id=rng.choice([None, "session-3"]))
    return ErrorMessage(code=rng.choice(["protocol", "session", "turn"]),
                        message="x" * rng.randint(0, 40),
                        data=rng.choice(
                            [None, {"supported_versions": [1, 2]}]
                        ))


# ----------------------------------------------------------------------
# Fuzz: encode → decode → encode fixpoint
# ----------------------------------------------------------------------

class TestRoundTripFuzz:
    def test_encode_decode_encode_fixpoint(self):
        rng = random.Random(1337)
        for case in range(N_CASES):
            message = _message(rng)
            body = encode_body(message)
            decoded = decode_body(body)
            again = encode_body(decoded)
            assert body == again, f"case {case}: {message!r} not a fixpoint"
            assert type(decoded) is type(message)

    def test_frame_roundtrip_through_split(self):
        rng = random.Random(7)
        stream = b""
        originals = []
        for _ in range(50):
            message = _message(rng)
            originals.append(encode_body(message))
            stream += encode_message(message)
        # Re-split the concatenated stream in awkward chunk sizes.
        bodies, buffer = [], b""
        for i in range(0, len(stream), 13):
            buffer += stream[i:i + 13]
            while True:
                split = split_frame(buffer)
                if split is None:
                    break
                body, buffer = split
                bodies.append(bytes(body))
        assert buffer == b""
        assert bodies == originals

    def test_record_dict_roundtrip_preserves_nan_exactly(self):
        rng = random.Random(99)
        for _ in range(N_CASES):
            record = _record(rng)
            data = json.loads(
                json.dumps(record_to_dict(record), allow_nan=True)
            )
            rebuilt = record_from_dict(data)
            for field in ("start_time", "end_time", "fraction"):
                assert getattr(rebuilt, field) == getattr(record, field)
            for name in ("rel_error_avg", "margin_avg", "bias"):
                a = getattr(rebuilt.metrics, name)
                b = getattr(record.metrics, name)
                assert (a == b) or (math.isnan(a) and math.isnan(b))
            assert rebuilt.metrics.tr_violated == record.metrics.tr_violated


# ----------------------------------------------------------------------
# Malformed frames
# ----------------------------------------------------------------------

class TestMalformed:
    def test_oversized_length_prefix_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            split_frame(header + b"x" * 16)

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_body(b"{nope")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_body(b"[1,2,3]")

    def test_unknown_type_rejected(self):
        body = json.dumps({"v": PROTOCOL_VERSION, "type": "teleport"})
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_body(body.encode())

    def test_version_mismatch_rejected_for_session_frames(self):
        body = json.dumps({"v": PROTOCOL_VERSION + 1, "type": "attach"})
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_body(body.encode())

    def test_missing_version_rejected_for_session_frames(self):
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_message({"type": "attach"})

    def test_hello_decodes_across_versions(self):
        # The handshake must survive a version mismatch so it can be
        # answered with a *typed* error, not a decode failure.
        body = json.dumps({
            "v": PROTOCOL_VERSION + 7, "type": "hello", "role": "client",
        })
        hello = decode_body(body.encode())
        assert isinstance(hello, Hello)
        assert hello.version == PROTOCOL_VERSION + 7  # falls back to "v"

    def test_error_decodes_across_versions(self):
        body = json.dumps({
            "v": 1, "type": "error", "code": "version",
            "message": "nope", "data": {"supported_versions": [1]},
        })
        error = decode_body(body.encode())
        assert isinstance(error, ErrorMessage)
        assert error.data == {"supported_versions": [1]}

    def test_version_error_frame_names_supported_versions(self):
        frame = version_error(1)
        assert frame.code == "version"
        assert frame.data == {
            "supported_versions": list(SUPPORTED_VERSIONS)
        }
        assert "1" in frame.message
        # ... and it survives its own round trip.
        assert decode_body(encode_body(frame)) == frame

    def test_malformed_record_payload_rejected(self):
        with pytest.raises(ProtocolError, match="malformed record"):
            record_from_dict({"metrics": {}})

    def test_record_codec_lives_below_the_wire(self):
        """net re-exports the bench-layer codec; only the typed error
        on the decode side is the wire's own."""
        from repro.bench import codec

        assert record_to_dict is codec.record_to_dict
        with pytest.raises(KeyError):
            codec.record_from_dict({"metrics": {}})

    def test_malformed_interaction_rejected(self):
        body = json.dumps(
            {"v": PROTOCOL_VERSION, "type": "interact", "interaction": {}}
        )
        with pytest.raises(ProtocolError):
            decode_body(body.encode())

    def test_attach_validates_mode(self):
        with pytest.raises(ProtocolError, match="unknown attach mode"):
            Attach(mode="sideways")

    def test_client_mode_rejects_policy(self):
        with pytest.raises(ProtocolError, match="interaction source"):
            Attach(mode="client", policy="markov")

    def test_truncated_stream_is_incomplete_not_error(self):
        frame = encode_message(Hello())
        assert split_frame(frame[: len(frame) // 2]) is None
        assert split_frame(b"") is None


class TestCatalog:
    def test_catalog_covers_the_issue_vocabulary(self):
        assert set(MESSAGE_TYPES) == {
            "hello", "attach", "submit_viz", "interact",
            "record", "progress", "barrier", "turn_grant", "turn_done",
            "detach", "stats_request", "stats", "error",
            "stats_subscribe", "stats_push", "stats_unsubscribe",
        }

    def test_canonical_encoding_is_stable(self):
        message = Progress("s", "attached", {"b": 1, "a": 2})
        assert encode_body(message) == encode_body(message)
        # sorted keys: "a" before "b" regardless of insertion order
        assert encode_body(message).index(b'"a"') < encode_body(message).index(b'"b"')
