#include "rpc/frame.h"

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

void EncodeFrame(const FrameHeader& header, util::ByteSpan payload,
                 util::ByteBuffer& out) {
  THREELC_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
                    "frame payload too large: " << payload.size());
  const std::size_t start = out.size();
  out.AppendU32(kFrameMagic);
  out.AppendU8(kProtocolVersion);
  out.AppendU8(static_cast<std::uint8_t>(header.type));
  out.AppendU16(header.flags);
  out.AppendU64(header.step);
  out.AppendU32(header.tensor);
  out.AppendU32(static_cast<std::uint32_t>(payload.size()));
  // CRC covers the 24 header bytes just written plus the payload.
  std::uint32_t crc = util::Crc32c(out.data() + start, kFrameHeaderBytes - 4);
  crc = util::Crc32cExtend(crc, payload.data(), payload.size());
  out.AppendU32(crc);
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
  buf_.clear();
  consumed_ = 0;
  return false;
}

void FrameParser::Compact() {
  if (consumed_ == 0) return;
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
}

bool FrameParser::Feed(util::ByteSpan bytes, std::vector<Frame>* out) {
  if (poisoned()) return false;
  buf_.insert(buf_.end(), bytes.data(), bytes.data() + bytes.size());

  while (buf_.size() - consumed_ >= kFrameHeaderBytes) {
    const std::uint8_t* head = buf_.data() + consumed_;
    auto read_u32 = [&](std::size_t off) {
      std::uint32_t v;
      std::memcpy(&v, head + off, sizeof(v));
      return v;
    };
    if (read_u32(0) != kFrameMagic) return Fail(ParseError::kBadMagic);
    if (head[4] != kProtocolVersion) return Fail(ParseError::kBadVersion);
    if (!IsValidMsgType(head[5])) return Fail(ParseError::kBadType);
    const std::uint32_t payload_len = read_u32(20);
    if (payload_len > kMaxPayloadBytes) return Fail(ParseError::kOversized);
    if (buf_.size() - consumed_ < kFrameHeaderBytes + payload_len) {
      break;  // wait for the rest of the payload
    }
    const std::uint8_t* payload = head + kFrameHeaderBytes;
    std::uint32_t crc = util::Crc32c(head, kFrameHeaderBytes - 4);
    crc = util::Crc32cExtend(crc, payload, payload_len);
    if (crc != read_u32(kFrameHeaderBytes - 4)) {
      return Fail(ParseError::kBadCrc);
    }

    Frame frame;
    std::memcpy(&frame.header.flags, head + 6, sizeof(std::uint16_t));
    std::memcpy(&frame.header.step, head + 8, sizeof(std::uint64_t));
    frame.header.type = static_cast<MsgType>(head[5]);
    frame.header.tensor = read_u32(16);
    frame.header.payload_len = payload_len;
    frame.payload.Append(payload, payload_len);
    out->push_back(std::move(frame));
    consumed_ += kFrameHeaderBytes + payload_len;
  }
  Compact();
  return true;
}

}  // namespace threelc::rpc
