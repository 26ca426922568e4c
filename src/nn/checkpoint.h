// Model checkpointing: save/restore parameters and buffers to a binary
// file. The evaluation methodology reads snapshots of the global model on
// a dedicated node (paper §5.2); checkpoints are how such snapshots move
// between processes, and how long WAN training runs resume after failures.
//
// File format (little-endian):
//   magic "3LCK" | u32 version | u32 tensor_count
//   per tensor: u32 name_len | name bytes | u32 rank | i64 dims...
//               | f32 data...
//   version 3:  training-state section after the tensors —
//               u64 next_step | u32 codec_state_len | codec state bytes
//               | u32 sampler_state_len | sampler state bytes
//   u32 CRC32C trailer over every byte after the version field
//   (tensor_count through the end of the body)
// Buffers (batch-norm running statistics) are stored after parameters
// under the synthetic names "__buffer_<i>".
//
// Version 2 (model only) and version 3 are the only layouts: the trailer
// makes bit rot in a checkpoint fail loudly at load time instead of
// silently corrupting a resumed run. Version 3 additionally carries the
// worker's mid-run training state — the codec's per-tensor
// error-accumulation buffers, the data-pipeline cursor, and the step
// counter — so a crashed worker restarts with a bitwise-identical
// trajectory instead of silently discarding accumulated quantization
// error. LoadCheckpoint accepts a v3 file (skipping the state section);
// LoadCheckpointState demands one.
//
// Server checkpoints use a distinct magic "3LCS" (same framing: version,
// CRC-protected body) and carry the parameter server's recurrence: model
// tensors, the incarnation epoch, the next collect step, the
// ParameterServer state blob (optimizer + prev_value + pull EA contexts),
// the membership/greeted tables, and the verbatim pull-replay ring. See
// ServerState below.
//
// Step records use a third magic "3LCW" (same framing: version,
// CRC-protected body). Between two server snapshots, each write-ahead
// durable point persists one record instead of a whole "3LCS" image: the
// inputs of the steps since the previous durable point, which
// ps::ParameterServer::Step turns back into the same state on resume.
//   u64 epoch | u32 workers | evicted[workers] | greeted[workers]
//   | u32 step_count | per step: u64 step | f32 lr (exact bits)
//     | u32 contributor_count | per contributor: u32 worker_id
//       | u32 tensor_count | per tensor: u32 size | stage-1 push bytes
// See StepRecord below.
//
// Compressed container (optional): when a save is handed a block codec
// other than "store" (blockcodec/block_codec.h), the complete "3LCK" /
// "3LCS" byte stream above becomes the payload of an outer container:
//   magic "3LCZ" | u32 container_version (1) | u8 codec_id
//   | u64 raw_size | u32 raw_crc32c | u32 comp_size | comp bytes
// Loaders sniff the magic: "3LCZ" files are decoded first (rejecting
// unknown codec ids, truncation, trailing bytes, and any disagreement
// between raw_size/raw_crc32c and the decoded bytes — size and CRC are
// cross-checked independently), then parsed as a bare checkpoint; files
// without the container magic parse as before, so every pre-container
// checkpoint stays loadable. A save whose compressed payload would not
// be smaller than the bare stream skips the container entirely.
//
// All save paths write atomically (util::AtomicFileWriter: temp sibling +
// fsync + rename + parent-dir fsync), so a crash mid-write leaves either
// the previous complete checkpoint or the new one — never a torn file.
// Every save takes an optional util::Fs* syscall seam (nullptr = the real
// filesystem) so storage-fault drills can fail exactly one call; see
// util/fs.h. Loads read the whole file and parse it with util::ByteReader;
// every length and count is checked against the bytes that remain before
// anything is sized by it, so a corrupt file fails with a
// std::runtime_error naming its path rather than a huge allocation. A
// corrupt file is the interesting failure there, and CheckpointManager
// (checkpoint_manager.h) layers generation fallback on top of these
// primitives.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "nn/model.h"
#include "util/byte_buffer.h"
#include "util/fs.h"

namespace threelc::nn {

// Everything beyond the model tensors a worker needs to resume mid-run
// exactly. The blobs are opaque here: codec_state is written/read by
// ps::Worker::{Save,Load}CodecState and sampler_state by
// data::Sampler::{Save,Load}State.
struct TrainState {
  std::uint64_t next_step = 0;  // first step the worker has NOT completed
  std::vector<std::uint8_t> codec_state;
  std::vector<std::uint8_t> sampler_state;
};

// Writes all parameters and buffers of `model` (format version 2).
// `block_codec` names the lossless block codec wrapping the file in the
// "3LCZ" container above ("store", the default, writes the bare stream).
// Throws std::runtime_error on I/O failure or an unknown codec name.
void SaveCheckpoint(Model& model, const std::string& path,
                    const std::string& block_codec = "store",
                    util::Fs* fs = nullptr);

// Restores a checkpoint written by SaveCheckpoint into an architecturally
// identical model, verifying the CRC32C trailer. Throws std::runtime_error
// on I/O failure, an unsupported version, format corruption, checksum
// mismatch, or architecture mismatch (name/shape disagreement). Accepts v3
// files, validating but discarding the training-state section.
void LoadCheckpoint(Model& model, const std::string& path);

// Writes a version-3 checkpoint: model tensors plus `state`, always with
// the CRC32C trailer; `block_codec` as in SaveCheckpoint. Throws
// std::runtime_error on I/O failure or an unknown codec name.
void SaveCheckpointWithState(Model& model, const TrainState& state,
                             const std::string& path,
                             const std::string& block_codec = "store",
                             util::Fs* fs = nullptr);

// Restores a version-3 checkpoint into `model` and `*state`. Throws
// std::runtime_error if the file lacks a training-state section (version
// < 3) or on any LoadCheckpoint failure mode.
void LoadCheckpointState(Model& model, TrainState* state,
                         const std::string& path);

// Everything a parameter server needs to resume a run bitwise-exactly,
// beyond the model tensors. The blobs are opaque here: ps_state is
// written/read by ps::ParameterServer::{Save,Load}State; replay frames
// are retained wire bytes (rpc frames) stored and replayed verbatim.
struct ServerState {
  // Incarnation counter: the epoch this checkpoint was written under.
  // A server resuming from the checkpoint runs as epoch + 1.
  std::uint64_t epoch = 1;
  // The step the server will collect next (all steps below it are fully
  // applied to the model and ps_state).
  std::uint64_t next_step = 0;
  std::vector<std::uint8_t> ps_state;
  // Save side only: when set, a save calls it to append the ps_state bytes
  // straight into the file buffer (ps_state itself is then ignored), so a
  // server checkpointing every step never copies its state twice. Loads
  // always fill ps_state.
  std::function<void(util::ByteBuffer&)> write_ps_state;
  // Per-worker membership tables, indexed by worker id. evicted[w] != 0
  // marks a permanently removed worker; greeted[w] != 0 marks one that
  // completed a HELLO/REJOIN at some point (and must REJOIN, not HELLO,
  // against the resumed server). Both must have the same length.
  std::vector<std::uint8_t> evicted;
  std::vector<std::uint8_t> greeted;
  // Retained pull fan-out frames of recent steps, oldest first: each entry
  // is one completed step's per-tensor encoded frame bytes. A ring (the
  // live server pushes at the back and pops at the front) so the server
  // can keep its replay ring here and checkpoint it without a copy.
  struct ReplayStep {
    std::uint64_t step = 0;
    std::vector<util::ByteBuffer> frames;
  };
  std::deque<ReplayStep> replay;
};

// Writes a server checkpoint ("3LCS", version 1, CRC32C trailer) —
// atomically, like every save here; `block_codec` as in SaveCheckpoint.
// The file is serialized into `*blob` when given (its old contents are
// discarded, its capacity kept), so a caller saving every step reuses one
// buffer instead of allocating a new one per save.
// Throws std::runtime_error on I/O failure or an unknown codec name.
void SaveServerCheckpoint(Model& model, const ServerState& state,
                          const std::string& path,
                          const std::string& block_codec = "store",
                          util::Fs* fs = nullptr,
                          util::ByteBuffer* blob = nullptr);

// Restores a server checkpoint into `model` and `*state`. Throws
// std::runtime_error on I/O failure, bad magic/version, truncation, CRC
// mismatch, or architecture mismatch.
void LoadServerCheckpoint(Model& model, ServerState* state,
                          const std::string& path);

// The inputs of the server steps taken since the previous durable point,
// plus the membership tables and epoch they ran under: a "3LCW" step
// record. Redoing each step through ps::ParameterServer::Step on top of
// the state the record continues (a snapshot, or the records before it)
// reproduces the model, ps state and pull frames bit for bit.
struct StepRecord {
  std::uint64_t epoch = 1;
  // Same meaning and length rule as ServerState's tables.
  std::vector<std::uint8_t> evicted;
  std::vector<std::uint8_t> greeted;
  struct Step {
    std::uint64_t step = 0;
    float lr = 0.0f;
    // Ascending worker ids, never empty.
    std::vector<std::size_t> contributors;
    // pushes[w][t]: worker w's stage-1 push payload for tensor t (block
    // envelope already stripped), indexed as ParameterServer::Step reads
    // it. Only the contributors' rows are stored; a load sizes the outer
    // vector to the table length and leaves the other rows empty.
    std::vector<std::vector<util::ByteBuffer>> pushes;
  };
  // Consecutive steps, oldest first.
  std::vector<Step> steps;
};

// Serializes `record` as a complete "3LCW" file into `*blob` (old contents
// discarded, capacity kept). Throws std::runtime_error when the tables
// differ in length.
void EncodeStepRecord(const StepRecord& record, util::ByteBuffer* blob);

// Atomically writes a blob EncodeStepRecord produced, always bare: the
// pushes are already entropy-coded, and a bare record's magic tells a
// directory scan its kind (IsStepRecordFile) without decoding anything.
void WriteStepRecord(const util::ByteBuffer& blob, const std::string& path,
                     util::Fs* fs = nullptr);

// Restores a step record. Throws std::runtime_error naming `path` on I/O
// failure, bad magic/version, truncation, CRC mismatch, a worker id out of
// the tables' range or out of order, or a step with no contributors.
void LoadStepRecord(StepRecord* record, const std::string& path);

// True when the file at `path` starts with the step-record magic.
bool IsStepRecordFile(const std::string& path);

}  // namespace threelc::nn
