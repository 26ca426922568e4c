// Generation-numbered server checkpoints with last-good fallback.
//
// One logical checkpoint path ("<dir>/dt_server.sckpt") fans out into
// generation files "<path>.g<N>" (N monotonically increasing, never
// reused within or across incarnations). A generation is either a
// snapshot (the complete "3LCS" server state, Save) or a step record
// (the "3LCW" inputs of the steps since the previous generation,
// SaveRecord; see checkpoint.h). Between two snapshots the server writes
// records: one small file per write-ahead durable point instead of the
// whole state. SaveRecord declines, and the caller writes a snapshot, when
//  - this manager has not written a snapshot yet,
//  - the previous save failed (so the record chain never has a gap), or
//  - the record bytes since the newest snapshot would exceed that
//    snapshot's size — writes stay within 2x the records' own bytes, and
//    a resume redoes at most one snapshot's worth of records.
// Retention counts snapshots: Save prunes the oldest snapshots beyond
// `retain` together with every record older than the oldest kept one.
//
// Load() verifies the newest snapshot (container/CRC checks in
// checkpoint.cc) and falls back to the previous one when it is torn,
// truncated, or corrupt — ending at a clean "no usable checkpoint" error
// only when every snapshot is bad. It then returns the chain of records
// after the loaded snapshot: each must load and continue at the step the
// state before it ends at; the first that does not ends the chain and
// counts as a fallback.
//
// Why fallback is bitwise-safe: the server checkpoint is write-ahead —
// RpcServer::RunStep persists step s (as generation g_s, a record or a
// snapshot) BEFORE fanning out step s's pulls. A torn/corrupt g_s
// therefore means the crash hit before that fan-out, so no worker ever
// saw step s's result, and the generations before g_s cover everything
// any worker observed. Resuming from them redoes step s exactly (same
// contributions, same EA state), keeping the run bitwise identical. A
// fallback past more than one generation can only happen when disks
// corrupt data at rest; then workers may be ahead, and the server's
// existing worker-claims-future-step fatal check (REJOIN validation)
// catches it instead of silently diverging.
//
// The manager also owns directory hygiene: ScanAndSweep() removes stale
// "*.tmp.<pid>" siblings whose writer died mid-checkpoint (leaving live
// writers' temps alone — see util::SweepStaleTemps).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/checkpoint.h"
#include "util/byte_buffer.h"
#include "util/fs.h"

namespace threelc::nn {

class CheckpointManager {
 public:
  struct Options {
    // Base checkpoint path; generations live at "<path>.g<N>" beside it.
    std::string path;
    // Generations kept on disk (minimum 1; 2 gives last-good fallback).
    int retain = 2;
    // Block codec for new generations (see checkpoint.h container docs).
    std::string block_codec = "store";
    // Syscall seam for the write path; nullptr = real filesystem.
    util::Fs* fs = nullptr;
  };

  explicit CheckpointManager(Options options);

  // Discover existing generations and sweep dead writers' temp files in
  // the checkpoint directory. Called lazily by Save/Load; call it
  // explicitly to get the sweep count. Idempotent.
  int ScanAndSweep();

  // Write the next generation as a snapshot atomically, then prune
  // beyond retention. Throws std::runtime_error on write failure; the
  // generation number is not consumed, so a retry overwrites the same
  // temp sibling and lands at the same "<path>.g<N>". Every save (retries
  // and records included) serializes into the manager's one blob buffer,
  // so saves after the first allocate no file-sized memory.
  void Save(Model& model, const ServerState& state);

  // Write `record` as the next generation and return true, or return
  // false without writing when a snapshot is due (see the header). Throws
  // like Save on write failure, after which the next save must be a
  // snapshot.
  bool SaveRecord(const StepRecord& record);

  // Restore the newest usable snapshot into model/*state, falling back
  // snapshot by snapshot, and fill *records (when given) with the chain of
  // step records after it, oldest first. Returns false with *error set
  // when no snapshot is usable; the number of skipped generations is in
  // fallbacks() and their reasons in fallback_log().
  bool Load(Model& model, ServerState* state, std::string* error,
            std::vector<StepRecord>* records = nullptr);

  const std::string& path() const { return options_.path; }
  std::string GenerationPath(std::uint64_t gen) const;
  // Generations (snapshots and records) currently tracked on disk, after
  // the last scan/save.
  int generation_count() const { return static_cast<int>(generations_.size()); }
  // Generation number the next Save() or SaveRecord() will write.
  std::uint64_t next_generation() const { return next_gen_; }
  // Bad generations skipped by the last Load (0 = newest was good).
  int fallbacks() const { return fallbacks_; }
  // The snapshot the last successful Load read.
  const std::string& loaded_path() const { return loaded_path_; }
  // One line per skipped generation: "generation <N> unusable: <why>".
  const std::vector<std::string>& fallback_log() const { return fallback_log_; }

 private:
  Options options_;
  util::Fs& fs_;
  struct Generation {
    std::uint64_t number = 0;
    bool record = false;  // a step record, else a snapshot
  };
  // Adds a written generation and consumes its number.
  void Track(bool record);

  bool scanned_ = false;
  std::vector<Generation> generations_;  // ascending numbers
  std::uint64_t next_gen_ = 0;
  // Inputs of SaveRecord's snapshot rule: the newest snapshot's size (0
  // until this manager writes one), the record bytes written since, and
  // whether the last save failed.
  std::size_t snapshot_bytes_ = 0;
  std::size_t record_bytes_ = 0;
  bool save_failed_ = false;
  int fallbacks_ = 0;
  std::string loaded_path_;
  std::vector<std::string> fallback_log_;
  util::ByteBuffer blob_;  // serialized generation, reused by every Save
};

}  // namespace threelc::nn
