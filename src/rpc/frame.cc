#include "rpc/frame.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"
#include "util/logging.h"

namespace threelc::rpc {

bool IsValidMsgType(std::uint8_t raw) {
  // Exhaustive over MsgType so a new frame type cannot be forgotten here:
  // the switch stops compiling (-Wswitch) until the new enumerator is
  // listed, unlike the old range check which silently admitted gaps.
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kHello:
    case MsgType::kHelloAck:
    case MsgType::kPush:
    case MsgType::kStepStats:
    case MsgType::kPull:
    case MsgType::kBye:
    case MsgType::kByeAck:
    case MsgType::kError:
    case MsgType::kRejoin:
    case MsgType::kRejoinAck:
    case MsgType::kEvict:
    case MsgType::kTelemetry:
    case MsgType::kHeartbeat:
      return true;
  }
  return false;
}

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kHelloAck: return "HELLO_ACK";
    case MsgType::kPush: return "PUSH";
    case MsgType::kStepStats: return "STEP_STATS";
    case MsgType::kPull: return "PULL";
    case MsgType::kBye: return "BYE";
    case MsgType::kByeAck: return "BYE_ACK";
    case MsgType::kError: return "ERROR";
    case MsgType::kRejoin: return "REJOIN";
    case MsgType::kRejoinAck: return "REJOIN_ACK";
    case MsgType::kEvict: return "EVICT";
    case MsgType::kTelemetry: return "TELEMETRY";
    case MsgType::kHeartbeat: return "HEARTBEAT";
  }
  return "UNKNOWN";
}

const char* ParseErrorName(ParseError error) {
  switch (error) {
    case ParseError::kNone: return "none";
    case ParseError::kBadMagic: return "bad_magic";
    case ParseError::kBadVersion: return "bad_version";
    case ParseError::kBadType: return "bad_type";
    case ParseError::kOversized: return "oversized";
    case ParseError::kBadCrc: return "bad_crc";
  }
  return "unknown";
}

void EncodeHandshake(const HandshakePayload& payload, bool rejoin,
                     util::ByteBuffer& out) {
  out.AppendU32(payload.worker_id);
  out.AppendU64(payload.plan_hash);
  out.AppendU32(static_cast<std::uint32_t>(payload.codec.size()));
  out.Append(payload.codec.data(), payload.codec.size());
  out.AppendU8(payload.block_codec);
  if (rejoin) out.AppendU64(payload.next_step);
  out.AppendU64(payload.epoch);
}

HandshakePayload DecodeHandshake(util::ByteSpan bytes, bool rejoin) {
  util::ByteReader in(bytes);
  HandshakePayload payload;
  payload.worker_id = in.ReadU32();
  payload.plan_hash = in.ReadU64();
  const std::uint32_t codec_len = in.ReadU32();
  util::ByteSpan codec = in.ReadSpan(codec_len);
  payload.codec.assign(reinterpret_cast<const char*>(codec.data()),
                       codec.size());
  payload.block_codec = in.ReadU8();
  if (rejoin) payload.next_step = in.ReadU64();
  payload.epoch = in.ReadU64();
  if (!in.AtEnd()) {
    throw std::runtime_error("trailing bytes in handshake payload");
  }
  return payload;
}

void EncodeHandshakeAck(const HandshakeAckPayload& payload, bool rejoin,
                        util::ByteBuffer& out) {
  out.AppendU32(payload.num_workers);
  out.AppendU64(payload.total_steps);
  out.AppendU64(payload.plan_hash);
  out.AppendU8(payload.block_codec);
  if (rejoin) out.AppendU64(payload.collect_step);
  out.AppendU64(payload.epoch);
}

HandshakeAckPayload DecodeHandshakeAck(util::ByteSpan bytes, bool rejoin) {
  util::ByteReader in(bytes);
  HandshakeAckPayload payload;
  payload.num_workers = in.ReadU32();
  payload.total_steps = in.ReadU64();
  payload.plan_hash = in.ReadU64();
  payload.block_codec = in.ReadU8();
  if (rejoin) payload.collect_step = in.ReadU64();
  payload.epoch = in.ReadU64();
  if (!in.AtEnd()) {
    throw std::runtime_error("trailing bytes in handshake ack payload");
  }
  return payload;
}

void EncodeTelemetry(const obs::WorkerStepRecord& payload,
                     util::ByteBuffer& out) {
  // u32 envelope length, then the known fields. 7 u64 + 1 f64 + 1 u32,
  // plus the 2 u64 stage-1 byte counters appended in protocol v5.
  constexpr std::uint32_t kRecordBytes = 7 * 8 + 8 + 4 + 2 * 8;
  out.AppendU32(kRecordBytes);
  out.AppendU64(payload.forward_backward_ns);
  out.AppendU64(payload.encode_ns);
  out.AppendU64(payload.push_ns);
  out.AppendU64(payload.pull_wait_ns);
  out.AppendU64(payload.decode_ns);
  out.AppendU64(payload.bytes_out);
  out.AppendU64(payload.bytes_in);
  out.AppendF64(payload.ea_l2);
  out.AppendU32(payload.rejoins);
  out.AppendU64(payload.stage1_bytes_out);
  out.AppendU64(payload.stage1_bytes_in);
}

obs::WorkerStepRecord DecodeTelemetry(util::ByteSpan bytes) {
  util::ByteReader outer(bytes);
  const std::uint32_t record_len = outer.ReadU32();
  util::ByteSpan record = outer.ReadSpan(record_len);
  if (!outer.AtEnd()) {
    throw std::runtime_error("trailing bytes after telemetry envelope");
  }
  util::ByteReader in(record);
  obs::WorkerStepRecord payload;
  payload.forward_backward_ns = in.ReadU64();
  payload.encode_ns = in.ReadU64();
  payload.push_ns = in.ReadU64();
  payload.pull_wait_ns = in.ReadU64();
  payload.decode_ns = in.ReadU64();
  payload.bytes_out = in.ReadU64();
  payload.bytes_in = in.ReadU64();
  payload.ea_l2 = in.ReadF64();
  payload.rejoins = in.ReadU32();
  payload.stage1_bytes_out = in.ReadU64();
  payload.stage1_bytes_in = in.ReadU64();
  // Bytes left inside the envelope are fields from a newer writer: skip.
  return payload;
}

void EncodeHeartbeat(const HeartbeatPayload& payload, util::ByteBuffer& out) {
  // u32 envelope length, then the known fields: u8 role + 2 u64.
  constexpr std::uint32_t kRecordBytes = 1 + 2 * 8;
  out.AppendU32(kRecordBytes);
  out.AppendU8(payload.role);
  out.AppendU64(payload.seq);
  out.AppendU64(payload.progress);
}

HeartbeatPayload DecodeHeartbeat(util::ByteSpan bytes) {
  util::ByteReader outer(bytes);
  const std::uint32_t record_len = outer.ReadU32();
  util::ByteSpan record = outer.ReadSpan(record_len);
  if (!outer.AtEnd()) {
    throw std::runtime_error("trailing bytes after heartbeat envelope");
  }
  util::ByteReader in(record);
  HeartbeatPayload payload;
  payload.role = in.ReadU8();
  payload.seq = in.ReadU64();
  payload.progress = in.ReadU64();
  // Bytes left inside the envelope are fields from a newer writer: skip.
  return payload;
}

std::array<std::uint8_t, kFrameHeaderBytes> EncodeFrameHeader(
    const FrameHeader& header, util::ByteSpan payload) {
  THREELC_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
                    "frame payload too large: " << payload.size());
  std::array<std::uint8_t, kFrameHeaderBytes> head;
  auto put = [&head](std::size_t off, auto v) {
    std::memcpy(head.data() + off, &v, sizeof(v));
  };
  put(0, kFrameMagic);
  put(4, kProtocolVersion);
  put(5, static_cast<std::uint8_t>(header.type));
  put(6, header.flags);
  put(8, header.step);
  put(16, header.tensor);
  put(20, static_cast<std::uint32_t>(payload.size()));
  // CRC covers the 24 header bytes before it plus the payload.
  std::uint32_t crc = util::Crc32c(head.data(), kFrameHeaderBytes - 4);
  put(24, util::Crc32cExtend(crc, payload.data(), payload.size()));
  return head;
}

void EncodeFrame(const FrameHeader& header, util::ByteSpan payload,
                 util::ByteBuffer& out) {
  const auto head = EncodeFrameHeader(header, payload);
  out.Append(head.data(), head.size());
  out.Append(payload);
}

void EncodeFrame(MsgType type, std::uint64_t step, std::uint32_t tensor,
                 util::ByteSpan payload, util::ByteBuffer& out) {
  FrameHeader header;
  header.type = type;
  header.step = step;
  header.tensor = tensor;
  EncodeFrame(header, payload, out);
}

bool FrameParser::Fail(ParseError error) {
  error_ = error;
  frame_ = Frame();
  have_ = 0;
  return false;
}

std::span<std::uint8_t> FrameParser::Next() {
  if (poisoned()) return {};
  if (have_ < kFrameHeaderBytes) {
    return std::span<std::uint8_t>(head_ + have_, kFrameHeaderBytes - have_);
  }
  const std::size_t got = have_ - kFrameHeaderBytes;
  return std::span<std::uint8_t>(frame_.payload.data() + got,
                                 frame_.payload.size() - got);
}

bool FrameParser::Commit(std::size_t n, std::vector<Frame>* out) {
  if (poisoned()) return false;
  if (have_ < kFrameHeaderBytes) {
    have_ += n;
    if (have_ < kFrameHeaderBytes) return true;
    if (!StartPayload()) return false;
  } else {
    crc_ = util::Crc32cExtend(
        crc_, frame_.payload.data() + (have_ - kFrameHeaderBytes), n);
    have_ += n;
  }
  if (have_ < kFrameHeaderBytes + frame_.payload.size()) return true;
  std::uint32_t expected;
  std::memcpy(&expected, head_ + kFrameHeaderBytes - 4, sizeof(expected));
  if (crc_ != expected) return Fail(ParseError::kBadCrc);
  out->push_back(std::move(frame_));
  frame_ = Frame();
  have_ = 0;
  return true;
}

bool FrameParser::StartPayload() {
  auto read_u32 = [this](std::size_t off) {
    std::uint32_t v;
    std::memcpy(&v, head_ + off, sizeof(v));
    return v;
  };
  if (read_u32(0) != kFrameMagic) return Fail(ParseError::kBadMagic);
  if (head_[4] != kProtocolVersion) return Fail(ParseError::kBadVersion);
  if (!IsValidMsgType(head_[5])) return Fail(ParseError::kBadType);
  const std::uint32_t payload_len = read_u32(20);
  if (payload_len > kMaxPayloadBytes) return Fail(ParseError::kOversized);

  FrameHeader& header = frame_.header;
  header.type = static_cast<MsgType>(head_[5]);
  std::memcpy(&header.flags, head_ + 6, sizeof(header.flags));
  std::memcpy(&header.step, head_ + 8, sizeof(header.step));
  header.tensor = read_u32(16);
  header.payload_len = payload_len;
  frame_.payload.Resize(payload_len);
  crc_ = util::Crc32c(head_, kFrameHeaderBytes - 4);
  return true;
}

bool FrameParser::Feed(util::ByteSpan bytes, std::vector<Frame>* out) {
  while (!bytes.empty()) {
    const std::span<std::uint8_t> next = Next();
    if (next.empty()) return false;  // poisoned
    const std::size_t n = std::min(next.size(), bytes.size());
    std::memcpy(next.data(), bytes.data(), n);
    if (!Commit(n, out)) return false;
    bytes = bytes.subspan(n);
  }
  return !poisoned();
}

}  // namespace threelc::rpc
