// Wire-framing tests: encode/parse round trips, incremental parsing at
// arbitrary (fuzzed) split points, and corruption handling — every
// malformed input must produce a typed ParseError, never a crash or a
// silently wrong frame.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rpc/frame.h"
#include "util/rng.h"

namespace threelc::rpc {
namespace {

util::ByteBuffer MakePayload(std::size_t n, std::uint8_t seed) {
  util::ByteBuffer payload;
  for (std::size_t i = 0; i < n; ++i) {
    payload.PushByte(static_cast<std::uint8_t>(seed + i));
  }
  return payload;
}

std::vector<Frame> ParseAll(util::ByteSpan bytes) {
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_TRUE(parser.Feed(bytes, &frames));
  return frames;
}

TEST(Frame, EncodeParseRoundTrip) {
  util::ByteBuffer payload = MakePayload(100, 7);
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kPush, /*step=*/42, /*tensor=*/3, payload.span(),
              wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

  std::vector<Frame> frames = ParseAll(wire.span());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kPush);
  EXPECT_EQ(frames[0].header.step, 42u);
  EXPECT_EQ(frames[0].header.tensor, 3u);
  EXPECT_EQ(frames[0].header.payload_len, payload.size());
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(Frame, EmptyPayloadRoundTrip) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kByeAck, 0, 0, util::ByteSpan(), wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);
  std::vector<Frame> frames = ParseAll(wire.span());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kByeAck);
  EXPECT_TRUE(frames[0].payload.empty());
}

TEST(Frame, MultipleFramesInOneFeed) {
  util::ByteBuffer wire;
  for (std::uint32_t t = 0; t < 5; ++t) {
    util::ByteBuffer payload = MakePayload(10 + t, static_cast<uint8_t>(t));
    EncodeFrame(MsgType::kPull, 9, t, payload.span(), wire);
  }
  std::vector<Frame> frames = ParseAll(wire.span());
  ASSERT_EQ(frames.size(), 5u);
  for (std::uint32_t t = 0; t < 5; ++t) {
    EXPECT_EQ(frames[t].header.tensor, t);
    EXPECT_EQ(frames[t].payload.size(), 10 + t);
  }
}

// Fuzz: a stream of frames fed one random chunk at a time must parse to
// the identical sequence no matter where the chunk boundaries land —
// including boundaries inside the magic, the length field, and the CRC.
TEST(Frame, FuzzedSplitPointsReassembleExactly) {
  util::Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    util::ByteBuffer wire;
    const int num_frames = 1 + static_cast<int>(rng.Next() % 6);
    std::vector<std::size_t> payload_sizes;
    for (int f = 0; f < num_frames; ++f) {
      const std::size_t n = rng.Next() % 300;
      payload_sizes.push_back(n);
      util::ByteBuffer payload =
          MakePayload(n, static_cast<std::uint8_t>(rng.Next()));
      EncodeFrame(MsgType::kPush, static_cast<std::uint64_t>(round),
                  static_cast<std::uint32_t>(f), payload.span(), wire);
    }

    FrameParser parser;
    std::vector<Frame> frames;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.Next() % 64, wire.size() - pos);
      ASSERT_TRUE(parser.Feed(
          util::ByteSpan(wire.data() + pos, chunk), &frames));
      pos += chunk;
    }
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(num_frames))
        << "round " << round;
    for (int f = 0; f < num_frames; ++f) {
      EXPECT_EQ(frames[static_cast<std::size_t>(f)].payload.size(),
                payload_sizes[static_cast<std::size_t>(f)]);
    }
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

TEST(Frame, BadMagicPoisonsParser) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kHello, 0, 0, util::ByteSpan(), wire);
  wire.data()[0] ^= 0xFF;
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_FALSE(parser.Feed(wire.span(), &frames));
  EXPECT_EQ(parser.error(), ParseError::kBadMagic);
  EXPECT_TRUE(parser.poisoned());
  EXPECT_TRUE(frames.empty());
  // A poisoned parser ignores any further (even valid) input.
  util::ByteBuffer valid;
  EncodeFrame(MsgType::kHello, 0, 0, util::ByteSpan(), valid);
  EXPECT_FALSE(parser.Feed(valid.span(), &frames));
  EXPECT_TRUE(frames.empty());
}

TEST(Frame, BadVersionDetected) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kHello, 0, 0, util::ByteSpan(), wire);
  wire.data()[4] = kProtocolVersion + 1;
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_FALSE(parser.Feed(wire.span(), &frames));
  EXPECT_EQ(parser.error(), ParseError::kBadVersion);
}

TEST(Frame, BadTypeDetected) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kHello, 0, 0, util::ByteSpan(), wire);
  wire.data()[5] = 0;  // below the valid MsgType range
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_FALSE(parser.Feed(wire.span(), &frames));
  EXPECT_EQ(parser.error(), ParseError::kBadType);
}

TEST(Frame, OversizedLengthRejectedBeforeBuffering) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kPush, 1, 0, MakePayload(8, 1).span(), wire);
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(wire.data() + 20, &huge, sizeof(huge));
  FrameParser parser;
  std::vector<Frame> frames;
  // Rejected from the header alone — the parser must not wait for (or try
  // to allocate) a 64 MiB payload that will never arrive.
  EXPECT_FALSE(parser.Feed(
      util::ByteSpan(wire.data(), kFrameHeaderBytes), &frames));
  EXPECT_EQ(parser.error(), ParseError::kOversized);
}

TEST(Frame, CorruptedCrcDetected) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kPush, 1, 0, MakePayload(50, 2).span(), wire);
  wire.data()[kFrameHeaderBytes - 1] ^= 0x01;  // flip a CRC bit
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_FALSE(parser.Feed(wire.span(), &frames));
  EXPECT_EQ(parser.error(), ParseError::kBadCrc);
}

TEST(Frame, CorruptedPayloadByteDetected) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kPush, 1, 0, MakePayload(50, 3).span(), wire);
  wire.data()[kFrameHeaderBytes + 25] ^= 0x40;
  FrameParser parser;
  std::vector<Frame> frames;
  EXPECT_FALSE(parser.Feed(wire.span(), &frames));
  EXPECT_EQ(parser.error(), ParseError::kBadCrc);
}

// Fuzz: flipping any single byte anywhere in a frame must either poison
// the parser with a typed error or (never) produce a different frame.
TEST(Frame, FuzzedSingleByteCorruptionNeverYieldsWrongFrame) {
  util::ByteBuffer payload = MakePayload(40, 5);
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kStepStats, 17, 2, payload.span(), wire);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    util::ByteBuffer corrupted = wire;
    corrupted.data()[i] ^= 0x5A;
    FrameParser parser;
    std::vector<Frame> frames;
    const bool ok = parser.Feed(corrupted.span(), &frames);
    if (ok) {
      // Only acceptable when the frame is incomplete (a length-field
      // corruption that made the parser wait for more bytes).
      EXPECT_TRUE(frames.empty()) << "byte " << i;
      EXPECT_GT(parser.buffered_bytes(), 0u) << "byte " << i;
    } else {
      EXPECT_NE(parser.error(), ParseError::kNone) << "byte " << i;
    }
  }
}

TEST(Frame, PartialHeaderThenRestParses) {
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kBye, 0, 0, MakePayload(10, 9).span(), wire);
  FrameParser parser;
  std::vector<Frame> frames;
  // One byte at a time — the ultimate short-read torture.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(parser.Feed(util::ByteSpan(wire.data() + i, 1), &frames));
    if (i + 1 < wire.size()) {
      EXPECT_TRUE(frames.empty());
    }
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kBye);
}

TEST(Frame, EncodeRejectsOversizedPayloadByCheck) {
  // EncodeFrame CHECKs payloads over kMaxPayloadBytes; regular payloads
  // below the limit must pass. (Death tests are not used in this suite;
  // this documents the boundary from the accepting side.)
  util::ByteBuffer wire;
  util::ByteBuffer payload = MakePayload(1024, 1);
  EncodeFrame(MsgType::kPush, 0, 0, payload.span(), wire);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 1024);
}

TEST(Frame, MsgTypeNamesAreStable) {
  EXPECT_STREQ(MsgTypeName(MsgType::kHello), "HELLO");
  EXPECT_STREQ(MsgTypeName(MsgType::kPull), "PULL");
  EXPECT_STREQ(MsgTypeName(MsgType::kError), "ERROR");
  EXPECT_STREQ(MsgTypeName(MsgType::kRejoin), "REJOIN");
  EXPECT_STREQ(MsgTypeName(MsgType::kRejoinAck), "REJOIN_ACK");
  EXPECT_STREQ(MsgTypeName(MsgType::kEvict), "EVICT");
  EXPECT_STREQ(MsgTypeName(MsgType::kTelemetry), "TELEMETRY");
  EXPECT_STREQ(MsgTypeName(MsgType::kHeartbeat), "HEARTBEAT");
  EXPECT_STREQ(ParseErrorName(ParseError::kBadCrc), "bad_crc");
  EXPECT_FALSE(IsValidMsgType(0));
  EXPECT_FALSE(IsValidMsgType(14));
  EXPECT_TRUE(IsValidMsgType(1));
  EXPECT_TRUE(IsValidMsgType(8));
  EXPECT_TRUE(IsValidMsgType(11));
  EXPECT_TRUE(IsValidMsgType(12));
  EXPECT_TRUE(IsValidMsgType(13));
}

// Frames from every older protocol version (v1 pre-fault-tolerance, v2
// pre-epoch, v3 pre-telemetry, v4 pre-block-codec, v5 pre-liveness) must
// be rejected at the parser with a typed kBadVersion, not misinterpreted —
// a v5 peer cannot speak to a v6 endpoint at all, so a version-skewed
// HELLO dies as a clean "protocol" reject before any payload decode.
TEST(Frame, OldProtocolVersionsRejected) {
  static_assert(kProtocolVersion == 6,
                "update this test alongside the protocol version");
  for (std::uint8_t old_version :
       {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{3}, std::uint8_t{4},
        std::uint8_t{5}}) {
    util::ByteBuffer wire;
    EncodeFrame(MsgType::kHello, 0, 0, MakePayload(8, 4).span(), wire);
    wire.data()[4] = old_version;
    FrameParser parser;
    std::vector<Frame> frames;
    EXPECT_FALSE(parser.Feed(wire.span(), &frames));
    EXPECT_EQ(parser.error(), ParseError::kBadVersion)
        << "version " << static_cast<int>(old_version);
    EXPECT_TRUE(frames.empty());
  }
}

// The fault-tolerance frame types added in protocol v2 round-trip through
// encode/parse like any other frame, including the fuzzed split-point path.
TEST(Frame, RejoinAndEvictFramesRoundTrip) {
  const MsgType kNewTypes[] = {MsgType::kRejoin, MsgType::kRejoinAck,
                               MsgType::kEvict};
  util::Rng rng(0xFA117);
  for (const MsgType type : kNewTypes) {
    util::ByteBuffer payload = MakePayload(24, static_cast<int>(type));
    util::ByteBuffer wire;
    EncodeFrame(type, /*step=*/7, /*tensor=*/0, payload.span(), wire);
    FrameParser parser;
    std::vector<Frame> frames;
    // Feed in random chunks, as recv(2) would deliver them.
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t n = 1 + static_cast<std::size_t>(
                                    rng.Below(wire.size() - off));
      ASSERT_TRUE(parser.Feed(util::ByteSpan(wire.data() + off, n), &frames));
      off += n;
    }
    ASSERT_EQ(frames.size(), 1u) << MsgTypeName(type);
    EXPECT_EQ(frames[0].header.type, type);
    EXPECT_EQ(frames[0].header.step, 7u);
    EXPECT_EQ(frames[0].payload.size(), payload.size());
  }
}

// --- protocol v3 handshake payload codecs ---------------------------------

TEST(Handshake, HelloRoundTrip) {
  HandshakePayload in;
  in.worker_id = 3;
  in.plan_hash = 0xDEADBEEFCAFEF00Dull;
  in.codec = "3lc";
  in.block_codec = 3;  // lz+rans
  in.epoch = 0;        // fresh worker
  util::ByteBuffer wire;
  EncodeHandshake(in, /*rejoin=*/false, wire);
  const HandshakePayload out = DecodeHandshake(wire.span(), /*rejoin=*/false);
  EXPECT_EQ(out.worker_id, in.worker_id);
  EXPECT_EQ(out.plan_hash, in.plan_hash);
  EXPECT_EQ(out.codec, in.codec);
  EXPECT_EQ(out.block_codec, in.block_codec);
  EXPECT_EQ(out.epoch, in.epoch);
}

TEST(Handshake, RejoinRoundTripCarriesEpochAndNextStep) {
  HandshakePayload in;
  in.worker_id = 1;
  in.plan_hash = 42;
  in.codec = "none";
  in.block_codec = 1;  // lz
  in.epoch = 7;        // the incarnation this worker last spoke to
  in.next_step = 19;   // first step it has not applied
  util::ByteBuffer wire;
  EncodeHandshake(in, /*rejoin=*/true, wire);
  const HandshakePayload out = DecodeHandshake(wire.span(), /*rejoin=*/true);
  EXPECT_EQ(out.worker_id, in.worker_id);
  EXPECT_EQ(out.block_codec, 1);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.next_step, 19u);
}

TEST(Handshake, AckRoundTrips) {
  HandshakeAckPayload in;
  in.num_workers = 4;
  in.total_steps = 100;
  in.plan_hash = 0x1234;
  in.block_codec = 2;  // rans
  in.epoch = 2;
  util::ByteBuffer hello_ack;
  EncodeHandshakeAck(in, /*rejoin=*/false, hello_ack);
  HandshakeAckPayload out =
      DecodeHandshakeAck(hello_ack.span(), /*rejoin=*/false);
  EXPECT_EQ(out.num_workers, 4u);
  EXPECT_EQ(out.total_steps, 100u);
  EXPECT_EQ(out.block_codec, 2);
  EXPECT_EQ(out.epoch, 2u);

  in.collect_step = 57;
  util::ByteBuffer rejoin_ack;
  EncodeHandshakeAck(in, /*rejoin=*/true, rejoin_ack);
  out = DecodeHandshakeAck(rejoin_ack.span(), /*rejoin=*/true);
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.collect_step, 57u);
}

// A HELLO and a REJOIN from the same worker differ on the wire (REJOIN
// carries next_step); decoding one as the other must throw or mismatch,
// never silently succeed with garbage fields.
TEST(Handshake, WrongModeDecodeThrows) {
  HandshakePayload in;
  in.worker_id = 0;
  in.plan_hash = 1;
  in.codec = "3lc";
  in.epoch = 3;
  in.next_step = 12;
  util::ByteBuffer rejoin_wire;
  EncodeHandshake(in, /*rejoin=*/true, rejoin_wire);
  EXPECT_THROW(DecodeHandshake(rejoin_wire.span(), /*rejoin=*/false),
               std::exception);
  util::ByteBuffer hello_wire;
  EncodeHandshake(in, /*rejoin=*/false, hello_wire);
  EXPECT_THROW(DecodeHandshake(hello_wire.span(), /*rejoin=*/true),
               std::exception);
}

// Fuzz: every truncation of a handshake payload must throw — the decoders
// sit behind the server's OnFrame try/catch, so "throw" is the contract
// that turns a malformed handshake into a clean Fail instead of UB.
TEST(Handshake, EveryTruncationThrows) {
  for (const bool rejoin : {false, true}) {
    HandshakePayload in;
    in.worker_id = 2;
    in.plan_hash = 0xABCDEF;
    in.codec = "3lc";
    in.epoch = rejoin ? 4 : 0;
    in.next_step = 9;
    util::ByteBuffer wire;
    EncodeHandshake(in, rejoin, wire);
    for (std::size_t n = 0; n < wire.size(); ++n) {
      EXPECT_THROW(DecodeHandshake(util::ByteSpan(wire.data(), n), rejoin),
                   std::exception)
          << (rejoin ? "REJOIN" : "HELLO") << " truncated to " << n;
    }
    // Trailing garbage is rejected too (a frame is exactly one payload).
    util::ByteBuffer padded = wire;
    padded.PushByte(0);
    EXPECT_THROW(DecodeHandshake(padded.span(), rejoin), std::exception);
  }
}

TEST(Handshake, EveryAckTruncationThrows) {
  for (const bool rejoin : {false, true}) {
    HandshakeAckPayload in;
    in.num_workers = 2;
    in.total_steps = 8;
    in.plan_hash = 77;
    in.epoch = 5;
    in.collect_step = 6;
    util::ByteBuffer wire;
    EncodeHandshakeAck(in, rejoin, wire);
    for (std::size_t n = 0; n < wire.size(); ++n) {
      EXPECT_THROW(
          DecodeHandshakeAck(util::ByteSpan(wire.data(), n), rejoin),
          std::exception)
          << (rejoin ? "REJOIN_ACK" : "HELLO_ACK") << " truncated to " << n;
    }
    util::ByteBuffer padded = wire;
    padded.PushByte(0);
    EXPECT_THROW(DecodeHandshakeAck(padded.span(), rejoin), std::exception);
  }
}

// Fuzz: randomly corrupted handshake bytes either decode (possibly to
// different field values — CRC catches corruption a layer below) or throw;
// they never crash. The codec-length field is the dangerous byte: a huge
// length must throw, not allocate or read out of bounds.
TEST(Handshake, FuzzedCorruptionNeverCrashes) {
  util::Rng rng(0xEB0C);
  HandshakePayload in;
  in.worker_id = 1;
  in.plan_hash = 0x5555AAAA5555AAAAull;
  in.codec = "3lc";
  in.epoch = 6;
  in.next_step = 33;
  for (const bool rejoin : {false, true}) {
    util::ByteBuffer wire;
    EncodeHandshake(in, rejoin, wire);
    for (int round = 0; round < 200; ++round) {
      util::ByteBuffer corrupted = wire;
      const std::size_t at = static_cast<std::size_t>(
          rng.Below(corrupted.size()));
      corrupted.data()[at] ^= static_cast<std::uint8_t>(1 + rng.Next() % 255);
      try {
        const HandshakePayload out = DecodeHandshake(corrupted.span(), rejoin);
        (void)out;
      } catch (const std::exception&) {
        // acceptable: typed rejection
      }
    }
  }
}

// The epoch field lands where the server's stale-incarnation check reads
// it: a REJOIN re-encoded with a bumped epoch must decode to exactly that
// bumped epoch (the server then Fails it as "ahead of this server").
TEST(Handshake, EpochMismatchIsVisibleToTheServerCheck) {
  HandshakePayload stale;
  stale.worker_id = 0;
  stale.plan_hash = 9;
  stale.codec = "none";
  stale.epoch = 3;
  stale.next_step = 5;
  util::ByteBuffer wire;
  EncodeHandshake(stale, /*rejoin=*/true, wire);
  HandshakePayload seen = DecodeHandshake(wire.span(), /*rejoin=*/true);
  const std::uint64_t server_epoch = 2;  // server restored an older epoch
  EXPECT_GT(seen.epoch, server_epoch)
      << "the stale-server guard must fire on this payload";
}

// --- protocol v4 telemetry payload codec ----------------------------------

obs::WorkerStepRecord MakeTelemetry() {
  obs::WorkerStepRecord p;
  p.forward_backward_ns = 1'200'000;
  p.encode_ns = 340'000;
  p.push_ns = 95'000;
  p.pull_wait_ns = 2'750'000;
  p.decode_ns = 180'000;
  p.bytes_out = 48'123;
  p.bytes_in = 47'991;
  p.ea_l2 = 0.03125;
  p.rejoins = 2;
  p.stage1_bytes_out = 52'000;
  p.stage1_bytes_in = 51'500;
  return p;
}

TEST(TelemetryCodec, RoundTrip) {
  const obs::WorkerStepRecord in = MakeTelemetry();
  util::ByteBuffer wire;
  EncodeTelemetry(in, wire);
  const obs::WorkerStepRecord out = DecodeTelemetry(wire.span());
  EXPECT_EQ(out.forward_backward_ns, in.forward_backward_ns);
  EXPECT_EQ(out.encode_ns, in.encode_ns);
  EXPECT_EQ(out.push_ns, in.push_ns);
  EXPECT_EQ(out.pull_wait_ns, in.pull_wait_ns);
  EXPECT_EQ(out.decode_ns, in.decode_ns);
  EXPECT_EQ(out.bytes_out, in.bytes_out);
  EXPECT_EQ(out.bytes_in, in.bytes_in);
  EXPECT_DOUBLE_EQ(out.ea_l2, in.ea_l2);
  EXPECT_EQ(out.rejoins, in.rejoins);
  EXPECT_EQ(out.stage1_bytes_out, in.stage1_bytes_out);
  EXPECT_EQ(out.stage1_bytes_in, in.stage1_bytes_in);
}

// Every truncation must throw: the decoder sits behind the server's
// OnFrame try/catch, so "throw" is the contract that turns a malformed
// telemetry record into a clean worker Fail instead of UB.
TEST(TelemetryCodec, EveryTruncationThrows) {
  util::ByteBuffer wire;
  EncodeTelemetry(MakeTelemetry(), wire);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_THROW(DecodeTelemetry(util::ByteSpan(wire.data(), n)),
                 std::exception)
        << "TELEMETRY truncated to " << n;
  }
}

// Bytes after the length-prefixed envelope are a framing bug, not a
// future field — a frame is exactly one payload.
TEST(TelemetryCodec, TrailingBytesAfterEnvelopeThrow) {
  util::ByteBuffer wire;
  EncodeTelemetry(MakeTelemetry(), wire);
  util::ByteBuffer padded = wire;
  padded.PushByte(0);
  EXPECT_THROW(DecodeTelemetry(padded.span()), std::exception);
}

// Bytes INSIDE the envelope beyond the known fields are fields from a
// newer writer: a v4 reader must decode the fields it knows and skip the
// rest, so the record format can grow without another version bump.
TEST(TelemetryCodec, UnknownFutureFieldsInsideEnvelopeAreSkipped) {
  const obs::WorkerStepRecord in = MakeTelemetry();
  util::ByteBuffer wire;
  EncodeTelemetry(in, wire);
  // Grow the envelope by 12 bytes of hypothetical future fields: bump the
  // u32 length prefix and append the bytes.
  std::uint32_t record_len;
  std::memcpy(&record_len, wire.data(), sizeof(record_len));
  record_len += 12;
  util::ByteBuffer extended;
  extended.AppendU32(record_len);
  for (std::size_t i = 4; i < wire.size(); ++i) {
    extended.PushByte(wire.data()[i]);
  }
  extended.AppendU64(0xFEEDFACECAFEBEEFull);  // future u64 field
  extended.AppendU32(7);                      // future u32 field
  const obs::WorkerStepRecord out = DecodeTelemetry(extended.span());
  EXPECT_EQ(out.forward_backward_ns, in.forward_backward_ns);
  EXPECT_EQ(out.pull_wait_ns, in.pull_wait_ns);
  EXPECT_EQ(out.rejoins, in.rejoins);
  EXPECT_DOUBLE_EQ(out.ea_l2, in.ea_l2);
}

// Fuzz: randomly corrupted telemetry bytes either decode (possibly to
// different values — CRC catches corruption a layer below) or throw; they
// never crash. The length prefix is the dangerous field: a huge value
// must throw, not allocate or read out of bounds.
TEST(TelemetryCodec, FuzzedCorruptionNeverCrashes) {
  util::Rng rng(0x7E1E);
  util::ByteBuffer wire;
  EncodeTelemetry(MakeTelemetry(), wire);
  for (int round = 0; round < 200; ++round) {
    util::ByteBuffer corrupted = wire;
    const std::size_t at =
        static_cast<std::size_t>(rng.Below(corrupted.size()));
    corrupted.data()[at] ^= static_cast<std::uint8_t>(1 + rng.Next() % 255);
    try {
      const obs::WorkerStepRecord out = DecodeTelemetry(corrupted.span());
      (void)out;
    } catch (const std::exception&) {
      // acceptable: typed rejection
    }
  }
}

// A TELEMETRY frame rides the same wire as PUSH/PULL: it must round-trip
// through the FrameParser under random chunking like any other type.
TEST(TelemetryCodec, TelemetryFrameRoundTripsThroughParser) {
  util::ByteBuffer payload;
  EncodeTelemetry(MakeTelemetry(), payload);
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kTelemetry, /*step=*/23, /*tensor=*/0, payload.span(),
              wire);
  util::Rng rng(0x3E1E);
  FrameParser parser;
  std::vector<Frame> frames;
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.Below(wire.size() - off));
    ASSERT_TRUE(parser.Feed(util::ByteSpan(wire.data() + off, n), &frames));
    off += n;
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kTelemetry);
  EXPECT_EQ(frames[0].header.step, 23u);
  const obs::WorkerStepRecord out = DecodeTelemetry(frames[0].payload.span());
  EXPECT_EQ(out.bytes_out, 48'123u);
}

// --- protocol v6 heartbeat payload codec -----------------------------------

HeartbeatPayload MakeHeartbeat() {
  HeartbeatPayload p;
  p.role = 1;  // server
  p.seq = 0x0123456789ABCDEFull;
  p.progress = 417;
  return p;
}

TEST(HeartbeatCodec, RoundTrip) {
  const HeartbeatPayload in = MakeHeartbeat();
  util::ByteBuffer wire;
  EncodeHeartbeat(in, wire);
  const HeartbeatPayload out = DecodeHeartbeat(wire.span());
  EXPECT_EQ(out.role, in.role);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.progress, in.progress);
}

// Every truncation must throw: the decoder sits behind OnFrame try/catch
// on the server and a catch in the worker's wait loop, so "throw" is the
// contract that turns a malformed heartbeat into a clean typed failure.
TEST(HeartbeatCodec, EveryTruncationThrows) {
  util::ByteBuffer wire;
  EncodeHeartbeat(MakeHeartbeat(), wire);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_THROW(DecodeHeartbeat(util::ByteSpan(wire.data(), n)),
                 std::exception)
        << "HEARTBEAT truncated to " << n;
  }
}

// Bytes after the length-prefixed envelope are a framing bug, not a
// future field — a frame is exactly one payload.
TEST(HeartbeatCodec, TrailingBytesAfterEnvelopeThrow) {
  util::ByteBuffer wire;
  EncodeHeartbeat(MakeHeartbeat(), wire);
  util::ByteBuffer padded = wire;
  padded.PushByte(0);
  EXPECT_THROW(DecodeHeartbeat(padded.span()), std::exception);
}

// Bytes INSIDE the envelope beyond the known fields are fields from a
// newer writer: a v6 reader must decode the fields it knows and skip the
// rest, so the beacon format can grow without another version bump.
TEST(HeartbeatCodec, UnknownFutureFieldsInsideEnvelopeAreSkipped) {
  const HeartbeatPayload in = MakeHeartbeat();
  util::ByteBuffer wire;
  EncodeHeartbeat(in, wire);
  std::uint32_t record_len;
  std::memcpy(&record_len, wire.data(), sizeof(record_len));
  record_len += 12;
  util::ByteBuffer extended;
  extended.AppendU32(record_len);
  for (std::size_t i = 4; i < wire.size(); ++i) {
    extended.PushByte(wire.data()[i]);
  }
  extended.AppendU64(0xFEEDFACECAFEBEEFull);  // future u64 field
  extended.AppendU32(7);                      // future u32 field
  const HeartbeatPayload out = DecodeHeartbeat(extended.span());
  EXPECT_EQ(out.role, in.role);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.progress, in.progress);
}

// Fuzz: randomly corrupted heartbeat bytes either decode (possibly to
// different values — CRC catches corruption a layer below) or throw; they
// never crash. The length prefix is the dangerous field: a huge value
// must throw, not allocate or read out of bounds.
TEST(HeartbeatCodec, FuzzedCorruptionNeverCrashes) {
  util::Rng rng(0xBEA7);
  util::ByteBuffer wire;
  EncodeHeartbeat(MakeHeartbeat(), wire);
  for (int round = 0; round < 200; ++round) {
    util::ByteBuffer corrupted = wire;
    const std::size_t at =
        static_cast<std::size_t>(rng.Below(corrupted.size()));
    corrupted.data()[at] ^= static_cast<std::uint8_t>(1 + rng.Next() % 255);
    try {
      const HeartbeatPayload out = DecodeHeartbeat(corrupted.span());
      (void)out;
    } catch (const std::exception&) {
      // acceptable: typed rejection
    }
  }
}

// A HEARTBEAT frame rides the same wire as PUSH/PULL: it must round-trip
// through the FrameParser under random chunking like any other type.
TEST(HeartbeatCodec, HeartbeatFrameRoundTripsThroughParser) {
  util::ByteBuffer payload;
  EncodeHeartbeat(MakeHeartbeat(), payload);
  util::ByteBuffer wire;
  EncodeFrame(MsgType::kHeartbeat, /*step=*/0, /*tensor=*/0, payload.span(),
              wire);
  util::Rng rng(0x6EA7);
  FrameParser parser;
  std::vector<Frame> frames;
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.Below(wire.size() - off));
    ASSERT_TRUE(parser.Feed(util::ByteSpan(wire.data() + off, n), &frames));
    off += n;
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kHeartbeat);
  const HeartbeatPayload out = DecodeHeartbeat(frames[0].payload.span());
  EXPECT_EQ(out.seq, 0x0123456789ABCDEFull);
  EXPECT_EQ(out.progress, 417u);
}

}  // namespace
}  // namespace threelc::rpc
