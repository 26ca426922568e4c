// Wire framing for the real TCP transport (rpc/transport, rpc/runtime).
//
// Every message on the wire is one length-prefixed binary frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic 0x52434C33 ("3LCR" as little-endian bytes)
//        4     1  protocol version (kProtocolVersion)
//        5     1  message type (MsgType)
//        6     2  flags (reserved, must be 0)
//        8     8  step (u64; 0 for non-step messages)
//       16     4  tensor index (u32; 0 when not tensor-addressed)
//       20     4  payload length in bytes (u32, <= kMaxPayloadBytes)
//       24     4  CRC32C over header bytes [0, 24) ++ payload
//       28     n  payload (opaque: codec output, handshake fields, ...)
//
// All integers are little-endian, matching ByteBuffer's scalar writers
// (byte_buffer.cc static_asserts a little-endian host). The CRC field is
// last in the header so the checksum simply covers everything before it —
// no zeroed-field dance — and a flipped bit anywhere in header or payload
// is caught before a frame is surfaced.
//
// FrameParser is incremental and moves each byte once: it alternates
// between the 28 header bytes and the payload, and always exposes where
// the next stream bytes belong (Next): the rest of the header, or the rest
// of the current frame's payload. Once a header passes the magic, version,
// type and length checks, the parser sizes Frame::payload to its length
// (never above kMaxPayloadBytes), so a transport can recv(2) straight into
// the frame's final buffer and Commit what arrived; Commit CRCs those
// bytes while they are still in cache. Feed copies a span in through the
// same path, so it accepts whatever recv(2) returned — half a header,
// three frames and a tail, one byte at a time — and emits complete frames
// in order. Any malformed input (bad magic/version/type, oversized length,
// CRC mismatch) poisons the parser with a ParseError; the connection must
// then be dropped, since resynchronizing an arbitrary byte stream is not
// attempted.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/cluster_view.h"
#include "util/byte_buffer.h"

namespace threelc::rpc {

constexpr std::uint32_t kFrameMagic = 0x52434C33u;  // "3LCR"
// Version 2 added the fault-tolerance frames (REJOIN, REJOIN_ACK, EVICT)
// and BYE buffers from every worker. Version 3 added the server
// incarnation epoch to every handshake payload (HELLO/REJOIN and their
// acks), so a worker reconnecting after a server crash detects the
// restarted incarnation — and a stale server detects a worker from the
// future. Version 4 added the TELEMETRY frame, a per-step worker metric
// record the server's obs::ClusterView aggregates. Version 5 added the
// negotiated block-codec id (blockcodec/) to every handshake payload —
// PUSH/PULL payloads ride in a block envelope when a non-store codec was
// agreed — and first-stage byte counters to TELEMETRY. Version 6 added
// the HEARTBEAT liveness frame: both roles emit it on an idle-aware
// cadence so a hung-but-connected peer (SIGSTOP, one-way partition,
// half-open socket) is detected by lease expiry instead of the global
// step timeout. Older peers are
// rejected at the parser (kBadVersion) before any payload is interpreted.
constexpr std::uint8_t kProtocolVersion = 6;
constexpr std::size_t kFrameHeaderBytes = 28;
// Largest payload the parser will accept. Generously above any encoded
// tensor in this repo; primarily a defense against a corrupted length
// field committing us to a multi-gigabyte allocation.
constexpr std::size_t kMaxPayloadBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,      // worker -> server: id, plan hash, codec id, epoch
  kHelloAck = 2,   // server -> worker: N, total steps, plan hash, epoch
  kPush = 3,       // worker -> server: one tensor's encoded gradient
  kStepStats = 4,  // worker -> server: per-step scalars (training loss)
  kPull = 5,       // server -> worker: one tensor's shared encoded delta
  kBye = 6,        // worker -> server: done (BN buffers attached)
  kByeAck = 7,     // server -> worker: acknowledged, connection closing
  kError = 8,      // either way: fatal error, message string payload
  kRejoin = 9,     // worker -> server: id, plan hash, codec, next step, epoch
  kRejoinAck = 10,  // server -> worker: N, steps, plan hash, collect, epoch
  kEvict = 11,     // server -> workers: a peer left the membership
  kTelemetry = 12,  // worker -> server: per-step telemetry record
  kHeartbeat = 13,  // either way: liveness beacon refreshing the lease
};

bool IsValidMsgType(std::uint8_t raw);
const char* MsgTypeName(MsgType type);

struct FrameHeader {
  MsgType type = MsgType::kError;
  std::uint16_t flags = 0;
  std::uint64_t step = 0;
  std::uint32_t tensor = 0;
  std::uint32_t payload_len = 0;  // filled by EncodeFrame
};

struct Frame {
  FrameHeader header;
  util::ByteBuffer payload;
};

// The header (CRC included) of a frame carrying `payload`, for senders
// that write the payload from where it lies. payload.size() must be at
// most kMaxPayloadBytes.
std::array<std::uint8_t, kFrameHeaderBytes> EncodeFrameHeader(
    const FrameHeader& header, util::ByteSpan payload);
// Append one complete frame (header incl. CRC, then payload) to `out`.
// Sets header.payload_len from `payload`; payload.size() must be at most
// kMaxPayloadBytes.
void EncodeFrame(const FrameHeader& header, util::ByteSpan payload,
                 util::ByteBuffer& out);
// Convenience for the common fields.
void EncodeFrame(MsgType type, std::uint64_t step, std::uint32_t tensor,
                 util::ByteSpan payload, util::ByteBuffer& out);

// Handshake payload codecs (protocol v3). Kept beside the frame format so
// the payload layout is defined — and fuzzable — in one place; the
// runtime's semantic checks (plan hash, epoch ordering) build on these.
//
// HELLO / REJOIN payload. epoch is the server incarnation the worker last
// handshook with; 0 means "never connected" (a fresh HELLO). next_step is
// REJOIN-only (the first step the worker has not applied) and ignored —
// encoded as absent — for HELLO.
struct HandshakePayload {
  std::uint32_t worker_id = 0;
  std::uint64_t plan_hash = 0;
  std::string codec;
  // Second-stage block codec id (blockcodec::k*Id); both sides must agree
  // or the server Fails the handshake. 0 (store) == v4 byte behavior.
  std::uint8_t block_codec = 0;
  std::uint64_t epoch = 0;
  std::uint64_t next_step = 0;  // REJOIN only
};

// HELLO_ACK / REJOIN_ACK payload. epoch is the server's current
// incarnation; collect_step is REJOIN_ACK-only (the step the server is
// collecting, i.e. where the rejoiner must catch up to).
struct HandshakeAckPayload {
  std::uint32_t num_workers = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t plan_hash = 0;
  std::uint8_t block_codec = 0;  // the server's negotiated block codec id
  std::uint64_t epoch = 0;
  std::uint64_t collect_step = 0;  // REJOIN_ACK only
};

// `rejoin` selects whether the REJOIN-only field rides along. Decoders
// throw std::runtime_error (via ByteReader) on truncated or malformed
// bytes and reject trailing garbage.
void EncodeHandshake(const HandshakePayload& payload, bool rejoin,
                     util::ByteBuffer& out);
HandshakePayload DecodeHandshake(util::ByteSpan bytes, bool rejoin);
void EncodeHandshakeAck(const HandshakeAckPayload& payload, bool rejoin,
                        util::ByteBuffer& out);
HandshakeAckPayload DecodeHandshakeAck(util::ByteSpan bytes, bool rejoin);

// TELEMETRY payload (protocol v4). One obs::WorkerStepRecord per completed
// step, sent worker -> server after the step's pulls were applied. The
// step id rides in the frame header, not the payload: Encode ignores
// record.step and Decode leaves it 0. The record is wrapped in a u32
// length envelope so future versions can append fields without a version
// bump: decoders read the fields they know and skip the rest of the
// envelope, but reject bytes after the envelope (framing bug, not a new
// field). Wire order: forward_backward_ns, encode_ns, push_ns,
// pull_wait_ns, decode_ns, bytes_out, bytes_in (u64 each), ea_l2 (f64),
// rejoins (u32), then stage1_bytes_out, stage1_bytes_in (u64, appended in
// protocol v5).
void EncodeTelemetry(const obs::WorkerStepRecord& record,
                     util::ByteBuffer& out);
obs::WorkerStepRecord DecodeTelemetry(util::ByteSpan bytes);

// HEARTBEAT payload (protocol v6). A tiny liveness beacon both roles send
// on an idle-aware cadence; receiving any frame — heartbeat or not —
// refreshes the sender's lease, so a hung-but-connected peer is detected
// by lease expiry instead of the global step timeout. Wrapped in the same
// u32 length envelope as TELEMETRY: decoders read the fields they know
// and skip the rest of the envelope (a newer writer's future fields), but
// reject truncation and bytes after the envelope.
struct HeartbeatPayload {
  std::uint8_t role = 0;       // 0 = worker, 1 = server
  std::uint64_t seq = 0;       // per-sender monotonic heartbeat counter
  std::uint64_t progress = 0;  // sender's step progress (diagnostics only)
};

void EncodeHeartbeat(const HeartbeatPayload& payload, util::ByteBuffer& out);
HeartbeatPayload DecodeHeartbeat(util::ByteSpan bytes);

enum class ParseError : std::uint8_t {
  kNone = 0,
  kBadMagic,
  kBadVersion,
  kBadType,
  kOversized,  // payload_len > kMaxPayloadBytes
  kBadCrc,
};

const char* ParseErrorName(ParseError error);

class FrameParser {
 public:
  // Where the next stream bytes go: the rest of the current header or of
  // the current payload. Never empty while the parser is well-formed, and
  // never longer than the current frame's remaining bytes, so bytes
  // written here never spill into the next frame. Empty once poisoned.
  // Valid until the next Commit or Feed.
  std::span<std::uint8_t> Next();
  // Account for the first `n` bytes of Next() (n <= Next().size()), which
  // the caller has filled: check a completed header, CRC payload bytes,
  // and append a completed frame to `*out`. Returns false on the first
  // malformed byte and records error().
  bool Commit(std::size_t n, std::vector<Frame>* out);

  // Consume `bytes`, appending every completed frame to `*out`. Returns
  // true while the stream is well-formed (possibly with a partial frame
  // buffered); returns false on the first malformed byte and records
  // error(). A poisoned parser ignores further input.
  bool Feed(util::ByteSpan bytes, std::vector<Frame>* out);

  ParseError error() const { return error_; }
  bool poisoned() const { return error_ != ParseError::kNone; }
  // Bytes held of a frame not yet complete (header and payload).
  std::size_t buffered_bytes() const { return have_; }

 private:
  bool Fail(ParseError error);
  // Check the completed header and size the payload for it.
  bool StartPayload();

  ParseError error_ = ParseError::kNone;
  std::uint8_t head_[kFrameHeaderBytes] = {};
  Frame frame_;             // the frame being received
  std::size_t have_ = 0;    // bytes of it received, header included
  std::uint32_t crc_ = 0;   // CRC32C of the bytes received so far
};

}  // namespace threelc::rpc
