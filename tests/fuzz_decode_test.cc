// Failure-injection tests: decoders must survive corrupted, truncated, and
// adversarial payloads — either throwing a std::exception or producing a
// finite tensor — but never crashing or reading out of bounds. The disk
// decoders (server snapshots and step records) are held to the same bar
// on files their own encoders wrote, and the wire's FrameParser, fed
// mutated frame streams in random chunks, to a reference parse.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/factory.h"
#include "nn/checkpoint.h"
#include "rpc/frame.h"
#include "rpc/transport.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace threelc::compress {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct FuzzCase {
  const char* label;
  CodecConfig config;
};

class DecodeFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  // Decode and check the result is either an exception or a finite tensor.
  static void TryDecode(const Compressor& codec, util::ByteSpan payload,
                        const Shape& shape) {
    Tensor out(shape);
    util::ByteReader reader(payload);
    try {
      codec.Decode(reader, out);
    } catch (const std::exception&) {
      return;  // rejecting corrupt input is correct behaviour
    }
    // Accepted: every value must at least be a real float.
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(std::isfinite(out[i]) || std::isnan(out[i]) ||
                  std::isinf(out[i]));
    }
  }
};

TEST_P(DecodeFuzz, SingleByteFlips) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(1);
  Tensor in(Shape{503});
  tensor::FillNormal(in, rng, 0.0f, 0.1f);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer buf;
  codec->Encode(in, *ctx, buf);

  // Flip each of a sample of byte positions through several values.
  for (std::size_t pos = 0; pos < buf.size();
       pos += std::max<std::size_t>(1, buf.size() / 64)) {
    for (std::uint8_t delta : {0x01, 0x80, 0xFF}) {
      util::ByteBuffer corrupted;
      corrupted.Append(buf.span());
      corrupted.data()[pos] = static_cast<std::uint8_t>(
          corrupted.data()[pos] ^ delta);
      TryDecode(*codec, corrupted.span(), in.shape());
    }
  }
}

TEST_P(DecodeFuzz, Truncations) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(2);
  Tensor in(Shape{257});
  tensor::FillNormal(in, rng, 0.0f, 1.0f);
  auto ctx = codec->MakeContext(in.shape());
  util::ByteBuffer buf;
  codec->Encode(in, *ctx, buf);
  for (std::size_t len = 0; len < buf.size();
       len += std::max<std::size_t>(1, buf.size() / 32)) {
    util::ByteBuffer truncated;
    truncated.Append(buf.data(), len);
    TryDecode(*codec, truncated.span(), in.shape());
  }
}

TEST_P(DecodeFuzz, RandomGarbage) {
  auto codec = MakeCompressor(GetParam().config);
  util::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    util::ByteBuffer garbage;
    const std::size_t n = rng.Below(600);
    for (std::size_t i = 0; i < n; ++i) {
      garbage.PushByte(static_cast<std::uint8_t>(rng.Below(256)));
    }
    TryDecode(*codec, garbage.span(), Shape{101});
  }
}

TEST_P(DecodeFuzz, EmptyPayload) {
  auto codec = MakeCompressor(GetParam().config);
  TryDecode(*codec, util::ByteSpan{}, Shape{7});
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, DecodeFuzz,
    ::testing::Values(FuzzCase{"float32", CodecConfig::Float32()},
                      FuzzCase{"int8", CodecConfig::EightBit()},
                      FuzzCase{"stoch3", CodecConfig::StochThreeQE()},
                      FuzzCase{"mqe1bit", CodecConfig::MqeOneBit()},
                      FuzzCase{"sparse25", CodecConfig::Sparsification(0.25f)},
                      FuzzCase{"sparse5", CodecConfig::Sparsification(0.05f)},
                      FuzzCase{"local2", CodecConfig::TwoLocalSteps()},
                      FuzzCase{"threelc100", CodecConfig::ThreeLC(1.0f)},
                      FuzzCase{"threelc175", CodecConfig::ThreeLC(1.75f)},
                      FuzzCase{"threelc190", CodecConfig::ThreeLC(1.9f)}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return info.param.label;
    });

// ---------- Targeted cases for the one-pass ternary decoder ----------

// Codecs whose payload is [f32 M][u32 len][quartic or ZRE bytes].
struct TernaryCase {
  const char* label;
  CodecConfig config;
};

CodecConfig ThreeLCNoZre() {
  CodecConfig c = CodecConfig::ThreeLC(1.0f);
  c.zero_run = false;
  return c;
}

class TernaryDecodeRejects : public ::testing::TestWithParam<TernaryCase> {
 protected:
  static constexpr std::size_t kElements = 52;  // 11 groups, last partial
  static constexpr std::size_t kGroups = 11;

  // [M = 0.5][len][bytes], with len = bytes.size() unless given.
  static util::ByteBuffer Payload(const std::vector<std::uint8_t>& bytes,
                                  std::size_t len = SIZE_MAX) {
    util::ByteBuffer out;
    out.AppendF32(0.5f);
    out.AppendU32(static_cast<std::uint32_t>(len == SIZE_MAX ? bytes.size()
                                                             : len));
    out.Append(bytes.data(), bytes.size());
    return out;
  }

  // Decode must throw std::runtime_error or std::out_of_range; any other
  // outcome fails the test.
  void ExpectRejected(const util::ByteBuffer& payload) const {
    auto codec = MakeCompressor(GetParam().config);
    Tensor out(Shape{static_cast<std::int64_t>(kElements)});
    util::ByteReader reader(payload.span());
    try {
      codec->Decode(reader, out);
      ADD_FAILURE() << "malformed payload decoded without an error";
    } catch (const std::runtime_error&) {
    } catch (const std::out_of_range&) {
    }
  }
};

TEST_P(TernaryDecodeRejects, RunOvershootsTheLastGroupByOne) {
  // 10 literal groups, then a run of 2 (byte 243): 12 groups for 11.
  std::vector<std::uint8_t> bytes(kGroups - 1, 122);
  bytes.push_back(243);
  ExpectRejected(Payload(bytes));
}

TEST_P(TernaryDecodeRejects, RunsFarPastTheEnd) {
  // The first 14-group run already passes the 11 groups; the decoder must
  // stop there rather than fill from past the end.
  ExpectRejected(Payload({255, 255, 255}));
}

TEST_P(TernaryDecodeRejects, StreamOneGroupShort) {
  ExpectRejected(Payload(std::vector<std::uint8_t>(kGroups - 1, 122)));
}

TEST_P(TernaryDecodeRejects, NoZrePayloadContainingByte243) {
  // Right length for bare quartic bytes, but 243 is no quartic byte; read
  // as a run of 2 it makes 12 groups.
  std::vector<std::uint8_t> bytes(kGroups, 122);
  bytes[5] = 243;
  ExpectRejected(Payload(bytes));
}

TEST_P(TernaryDecodeRejects, LengthFieldPastTheBuffer) {
  ExpectRejected(
      Payload(std::vector<std::uint8_t>(kGroups, 122), kGroups + 1));
}

INSTANTIATE_TEST_SUITE_P(
    TernaryCodecs, TernaryDecodeRejects,
    ::testing::Values(
        TernaryCase{"threelc100_zre", CodecConfig::ThreeLC(1.0f)},
        TernaryCase{"threelc100_nozre", ThreeLCNoZre()},
        TernaryCase{"stoch3", CodecConfig::StochThreeQE()}),
    [](const ::testing::TestParamInfo<TernaryCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace threelc::compress

namespace threelc::nn {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Seeded corruptions of `pristine`, each written to `path` and handed to
// `load`, which must either succeed or throw std::runtime_error (anything
// else escapes and fails the test). A trial truncates the file (one in
// four), flips one to three bytes, and then, half the time, re-seals the
// CRC32C trailer over the corrupt body, so the corruption reaches the
// parser's structural checks instead of stopping at the checksum.
template <typename Load>
void FuzzFile(const std::string& pristine, const std::string& path,
              std::uint64_t seed, Load&& load) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = pristine;
    if (rng.Below(4) == 0) bytes.resize(rng.Below(bytes.size()));
    const std::uint64_t flips = 1 + rng.Below(3);
    for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.Below(bytes.size())] ^=
          static_cast<char>(1 + rng.Below(255));
    }
    // Magic + version (8 bytes) precede the CRC-covered body.
    if (rng.Below(2) == 0 && bytes.size() >= 12) {
      const std::uint32_t crc =
          util::Crc32c(bytes.data() + 8, bytes.size() - 12);
      std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    try {
      load(path);
    } catch (const std::runtime_error&) {
      // rejecting corrupt input is correct behaviour
    }
  }
  std::remove(path.c_str());
}

util::ByteBuffer Bytes(std::size_t n, std::uint8_t seed) {
  util::ByteBuffer b;
  for (std::size_t i = 0; i < n; ++i) {
    b.PushByte(static_cast<std::uint8_t>(seed + 13 * i));
  }
  return b;
}

TEST(DiskDecodeFuzz, StepRecord) {
  StepRecord record;
  record.epoch = 2;
  record.evicted = {0, 0, 1};
  record.greeted = {1, 1, 1};
  for (std::uint64_t s = 0; s < 3; ++s) {
    StepRecord::Step step;
    step.step = 40 + s;
    step.lr = 0.01f * static_cast<float>(s + 1);
    step.contributors = {0, 1};
    step.pushes.resize(3);
    for (std::size_t w : step.contributors) {
      step.pushes[w] = {Bytes(9 + s, static_cast<std::uint8_t>(w)),
                        Bytes(3, static_cast<std::uint8_t>(s))};
    }
    record.steps.push_back(step);
  }
  util::ByteBuffer blob;
  EncodeStepRecord(record, &blob);
  const std::string pristine(reinterpret_cast<const char*>(blob.data()),
                             blob.size());
  FuzzFile(pristine, ::testing::TempDir() + "/fuzz_record.bin", 11,
           [](const std::string& path) {
             StepRecord loaded;
             LoadStepRecord(&loaded, path);
           });
}

TEST(DiskDecodeFuzz, ServerSnapshot) {
  auto model = train::BuildMlp({6, {8}, 3, true}, 3);
  ServerState state;
  state.epoch = 2;
  state.next_step = 9;
  state.ps_state = {1, 2, 3, 4};
  state.evicted = {0, 1};
  state.greeted = {1, 1};
  state.replay.push_back({7, {Bytes(6, 1), Bytes(2, 2)}});
  state.replay.push_back({8, {Bytes(4, 3), Bytes(5, 4)}});
  const std::string path = ::testing::TempDir() + "/fuzz_snapshot.sckpt";
  SaveServerCheckpoint(model, state, path);
  FuzzFile(ReadFile(path), path, 12, [&model](const std::string& p) {
    ServerState loaded;
    LoadServerCheckpoint(model, &loaded, p);
  });
}

}  // namespace
}  // namespace threelc::nn

namespace threelc::rpc {
namespace {

util::ByteBuffer Bytes(std::size_t n, std::uint8_t seed) {
  util::ByteBuffer b;
  for (std::size_t i = 0; i < n; ++i) {
    b.PushByte(static_cast<std::uint8_t>(seed + 29 * i + (i >> 9)));
  }
  return b;
}

// One frame of every MsgType with the payload the runtime sends in it,
// and a 1 MiB PUSH in the middle, so payloads take the parser both
// through small chunks and through a buffer far larger than a recv.
std::vector<Frame> FrameCorpus() {
  std::vector<Frame> frames;
  auto add = [&frames](MsgType type, std::uint64_t step, std::uint32_t tensor,
                       util::ByteBuffer payload) {
    Frame f;
    f.header.type = type;
    f.header.step = step;
    f.header.tensor = tensor;
    f.header.payload_len = static_cast<std::uint32_t>(payload.size());
    f.payload = std::move(payload);
    frames.push_back(std::move(f));
  };
  HandshakePayload hello;
  hello.worker_id = 1;
  hello.plan_hash = 0x1234567890ABCDEFull;
  hello.codec = "3lc";
  hello.epoch = 2;
  hello.next_step = 7;
  HandshakeAckPayload ack;
  ack.num_workers = 2;
  ack.total_steps = 150;
  ack.plan_hash = hello.plan_hash;
  ack.epoch = 2;
  ack.collect_step = 7;
  util::ByteBuffer b;
  EncodeHandshake(hello, false, b);
  add(MsgType::kHello, 0, 0, std::move(b));
  b = {};
  EncodeHandshakeAck(ack, false, b);
  add(MsgType::kHelloAck, 0, 0, std::move(b));
  add(MsgType::kPush, 3, 0, Bytes(4099, 1));
  add(MsgType::kStepStats, 3, 0, Bytes(8, 2));
  add(MsgType::kPull, 3, 0, Bytes(70000, 3));
  add(MsgType::kPush, 4, 1, Bytes(1u << 20, 4));
  obs::WorkerStepRecord record;
  record.encode_ns = 12345;
  record.bytes_out = 1u << 20;
  b = {};
  EncodeTelemetry(record, b);
  add(MsgType::kTelemetry, 4, 0, std::move(b));
  HeartbeatPayload beat;
  beat.seq = 9;
  beat.progress = 4;
  b = {};
  EncodeHeartbeat(beat, b);
  add(MsgType::kHeartbeat, 0, 0, std::move(b));
  b = {};
  EncodeHandshake(hello, true, b);
  add(MsgType::kRejoin, 0, 0, std::move(b));
  b = {};
  EncodeHandshakeAck(ack, true, b);
  add(MsgType::kRejoinAck, 0, 0, std::move(b));
  add(MsgType::kEvict, 5, 0, Bytes(4, 5));
  add(MsgType::kError, 0, 0, Bytes(23, 6));
  add(MsgType::kBye, 0, 0, Bytes(300, 7));
  add(MsgType::kByeAck, 0, 0, util::ByteBuffer());
  return frames;
}

// The encoded stream, and where each frame's header starts in it.
util::ByteBuffer EncodeStream(const std::vector<Frame>& frames,
                              std::vector<std::size_t>* starts) {
  util::ByteBuffer out;
  for (const Frame& f : frames) {
    starts->push_back(out.size());
    EncodeFrame(f.header, f.payload.span(), out);
  }
  return out;
}

struct Outcome {
  std::vector<Frame> frames;
  ParseError error = ParseError::kNone;
  std::size_t buffered = 0;
};

// The frame format of frame.h's table, read over the whole stream at once
// with no state carried between frames: the answer any chunking of the
// same bytes must reproduce.
Outcome ReferenceParse(util::ByteSpan in) {
  Outcome r;
  std::size_t pos = 0;
  auto u32 = [&in](std::size_t off) {
    std::uint32_t v;
    std::memcpy(&v, in.data() + off, sizeof(v));
    return v;
  };
  while (in.size() - pos >= kFrameHeaderBytes) {
    const std::uint8_t* h = in.data() + pos;
    const std::uint32_t len = u32(pos + 20);
    if (u32(pos) != kFrameMagic) r.error = ParseError::kBadMagic;
    else if (h[4] != kProtocolVersion) r.error = ParseError::kBadVersion;
    else if (!IsValidMsgType(h[5])) r.error = ParseError::kBadType;
    else if (len > kMaxPayloadBytes) r.error = ParseError::kOversized;
    if (r.error != ParseError::kNone) return r;
    if (in.size() - pos - kFrameHeaderBytes < len) break;
    const std::uint32_t crc = util::Crc32cExtend(
        util::Crc32c(h, kFrameHeaderBytes - 4), h + kFrameHeaderBytes, len);
    if (crc != u32(pos + 24)) {
      r.error = ParseError::kBadCrc;
      return r;
    }
    Frame f;
    f.header.type = static_cast<MsgType>(h[5]);
    std::memcpy(&f.header.flags, h + 6, sizeof(f.header.flags));
    std::memcpy(&f.header.step, h + 8, sizeof(f.header.step));
    f.header.tensor = u32(pos + 16);
    f.header.payload_len = len;
    f.payload.Append(h + kFrameHeaderBytes, len);
    r.frames.push_back(std::move(f));
    pos += kFrameHeaderBytes + len;
  }
  r.buffered = in.size() - pos;
  return r;
}

void ExpectSameFrame(const Frame& got, const Frame& want, std::size_t i) {
  EXPECT_EQ(got.header.type, want.header.type) << "frame " << i;
  EXPECT_EQ(got.header.flags, want.header.flags) << "frame " << i;
  EXPECT_EQ(got.header.step, want.header.step) << "frame " << i;
  EXPECT_EQ(got.header.tensor, want.header.tensor) << "frame " << i;
  EXPECT_EQ(got.header.payload_len, want.header.payload_len) << "frame " << i;
  EXPECT_TRUE(got.payload == want.payload) << "frame " << i;
}

// Seeded chunk sizes from one byte to far past a recv(2)'s worth.
std::size_t ChunkSize(util::Rng& rng) {
  static constexpr std::uint64_t kScales[] = {7, 64, 4096, 200000};
  return 1 + rng.Below(kScales[rng.Below(4)]);
}

// One seeded mutation of `stream`: bit flips (half of them in a frame
// header), a truncation, a splice of two cuts, or a length-field edit
// that, half the time, reseals the CRC so the edit passes the checksum
// and misaligns everything after it.
util::ByteBuffer Mutate(const util::ByteBuffer& stream,
                        const std::vector<std::size_t>& starts,
                        util::Rng& rng) {
  auto pick_cut = [&] {
    return rng.Below(2) == 0 ? starts[rng.Below(starts.size())]
                             : rng.Below(stream.size() + 1);
  };
  util::ByteBuffer out;
  switch (rng.Below(4)) {
    case 0: {
      out = stream;
      const std::uint64_t flips = 1 + rng.Below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t at =
            rng.Below(2) == 0
                ? starts[rng.Below(starts.size())] + rng.Below(kFrameHeaderBytes)
                : rng.Below(stream.size());
        out.data()[at] ^= static_cast<std::uint8_t>(1u << rng.Below(8));
      }
      break;
    }
    case 1:
      out.Append(stream.data(), pick_cut());
      break;
    case 2: {
      const std::size_t a = pick_cut();
      const std::size_t b = pick_cut();
      out.Append(stream.data(), a);
      out.Append(stream.data() + b, stream.size() - b);
      break;
    }
    default: {
      out = stream;
      const std::size_t start = starts[rng.Below(starts.size())];
      std::uint32_t len;
      std::memcpy(&len, out.data() + start + 20, sizeof(len));
      // A length edit stays within a few KiB of the cap, so a parser that
      // lost its cap check allocates a bounded buffer before it is caught.
      const std::uint32_t cap = kMaxPayloadBytes;
      const std::uint32_t choices[] = {
          0,
          len > 0 ? len - 1 : 1,
          len + 1,
          static_cast<std::uint32_t>(rng.Below(3 * len + 64)),
          cap,
          cap + 1,
          cap + 1 + static_cast<std::uint32_t>(rng.Below(4096))};
      len = choices[rng.Below(std::size(choices))];
      std::memcpy(out.data() + start + 20, &len, sizeof(len));
      const std::size_t body = start + kFrameHeaderBytes;
      if (rng.Below(2) == 0 && body + len <= out.size()) {
        const std::uint32_t crc = util::Crc32cExtend(
            util::Crc32c(out.data() + start, kFrameHeaderBytes - 4),
            out.data() + body, len);
        std::memcpy(out.data() + start + 24, &crc, sizeof(crc));
      }
      break;
    }
  }
  return out;
}

// Feed in seeded chunks; after every chunk the buffer the parser exposes
// stays within one capped payload.
Outcome FeedInChunks(util::ByteSpan in, util::Rng& rng) {
  Outcome r;
  FrameParser parser;
  for (std::size_t pos = 0; pos < in.size() && !parser.poisoned();) {
    const std::size_t n = std::min(ChunkSize(rng), in.size() - pos);
    parser.Feed(in.subspan(pos, n), &r.frames);
    pos += n;
    EXPECT_LE(parser.Next().size(), kMaxPayloadBytes);
  }
  r.error = parser.error();
  r.buffered = parser.buffered_bytes();
  return r;
}

// Write `in` in seeded chunks into one end of a socketpair and drain the
// other through a Connection, whose large payloads are received in place.
// A poisoned connection keeps only the frames of the chunks before the
// bad one, so its frames are a prefix of the reference's.
Outcome ThroughConnection(util::ByteSpan in, util::Rng& rng) {
  Outcome r;
  int fds[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SetNonBlocking(fds[0]);
  Connection reader(fds[1]);
  Connection::IoResult io = Connection::IoResult::kOk;
  std::size_t pos = 0;
  auto drain = [&] {
    io = reader.HandleReadable();
    Frame f;
    while (reader.PopFrame(&f)) r.frames.push_back(std::move(f));
  };
  // Every pass writes or reads something, so this ends in a bounded
  // number of passes: the socket buffer only fills when the reader has
  // bytes to drain.
  while (pos < in.size() && io == Connection::IoResult::kOk) {
    const std::size_t n = std::min(ChunkSize(rng), in.size() - pos);
    const ssize_t sent = send(fds[0], in.data() + pos, n, MSG_NOSIGNAL);
    if (sent > 0) pos += static_cast<std::size_t>(sent);
    drain();
  }
  shutdown(fds[0], SHUT_WR);
  while (io == Connection::IoResult::kOk) drain();
  close(fds[0]);
  EXPECT_NE(io, Connection::IoResult::kTimeout);
  r.error = reader.parse_error();
  return r;
}

TEST(FrameParserFuzz, MutatedStreamsMatchTheReferenceParse) {
  std::vector<std::size_t> starts;
  const util::ByteBuffer stream = EncodeStream(FrameCorpus(), &starts);
  util::Rng rng(21);
  int poisoned = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const util::ByteBuffer input =
        trial == 0 ? stream : Mutate(stream, starts, rng);
    const Outcome want = ReferenceParse(input.span());
    const Outcome got = FeedInChunks(input.span(), rng);
    ASSERT_EQ(got.error, want.error) << "trial " << trial;
    ASSERT_EQ(got.frames.size(), want.frames.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.frames.size(); ++i) {
      ExpectSameFrame(got.frames[i], want.frames[i], i);
    }
    if (want.error == ParseError::kNone) {
      EXPECT_EQ(got.buffered, want.buffered) << "trial " << trial;
    } else {
      ++poisoned;
    }
    if (HasFailure()) return;
  }
  // Most mutations must reach a parse error, or the driver fuzzes nothing.
  EXPECT_GT(poisoned, 40);
}

TEST(FrameParserFuzz, MutatedStreamsThroughAConnection) {
  std::vector<std::size_t> starts;
  const util::ByteBuffer stream = EncodeStream(FrameCorpus(), &starts);
  util::Rng rng(22);
  for (int trial = 0; trial < 40; ++trial) {
    const util::ByteBuffer input =
        trial == 0 ? stream : Mutate(stream, starts, rng);
    const Outcome want = ReferenceParse(input.span());
    const Outcome got = ThroughConnection(input.span(), rng);
    ASSERT_EQ(got.error, want.error) << "trial " << trial;
    ASSERT_LE(got.frames.size(), want.frames.size()) << "trial " << trial;
    if (want.error == ParseError::kNone) {
      ASSERT_EQ(got.frames.size(), want.frames.size()) << "trial " << trial;
    }
    for (std::size_t i = 0; i < got.frames.size(); ++i) {
      ExpectSameFrame(got.frames[i], want.frames[i], i);
    }
    if (HasFailure()) return;
  }
}

TEST(FrameParserFuzz, CorpusRoundTripsWhole) {
  std::vector<std::size_t> starts;
  const std::vector<Frame> corpus = FrameCorpus();
  const util::ByteBuffer stream = EncodeStream(corpus, &starts);
  const Outcome want = ReferenceParse(stream.span());
  ASSERT_EQ(want.error, ParseError::kNone);
  ASSERT_EQ(want.frames.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ExpectSameFrame(want.frames[i], corpus[i], i);
  }
}

}  // namespace
}  // namespace threelc::rpc
