#include "nn/checkpoint_manager.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace threelc::nn {

namespace {

std::string DirOf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string BaseOf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

CheckpointManager::CheckpointManager(Options options)
    : options_(std::move(options)), fs_(util::ResolveFs(options_.fs)) {
  if (options_.retain < 1) options_.retain = 1;
}

std::string CheckpointManager::GenerationPath(std::uint64_t gen) const {
  return options_.path + ".g" + std::to_string(gen);
}

int CheckpointManager::ScanAndSweep() {
  const std::string dir = DirOf(options_.path);
  const int swept = util::SweepStaleTemps(fs_, dir);

  generations_.clear();
  const std::string prefix = BaseOf(options_.path) + ".g";
  std::vector<std::string> names;
  if (fs_.List(dir, &names)) {
    for (const std::string& name : names) {
      if (name.rfind(prefix, 0) != 0) continue;
      const std::string digits = name.substr(prefix.size());
      if (!AllDigits(digits)) continue;  // e.g. a ".g3.tmp.<pid>" sibling
      const auto gen = static_cast<std::uint64_t>(
          std::strtoull(digits.c_str(), nullptr, 10));
      generations_.push_back({gen, IsStepRecordFile(GenerationPath(gen))});
    }
  }
  std::sort(generations_.begin(), generations_.end(),
            [](const Generation& a, const Generation& b) {
              return a.number < b.number;
            });
  // Never reuse a generation number: a resumed server keeps counting
  // above everything it found, so an old incarnation's file is never
  // silently overwritten by a new one's first save.
  next_gen_ = generations_.empty() ? 0 : generations_.back().number + 1;
  scanned_ = true;
  return swept;
}

void CheckpointManager::Track(bool record) {
  generations_.push_back({next_gen_, record});
  ++next_gen_;
}

void CheckpointManager::Save(Model& model, const ServerState& state) {
  if (!scanned_) ScanAndSweep();
  // Throws on failure; the generation is only consumed on success, so a
  // retry reuses the same "<path>.g<N>.tmp.<pid>" sibling (O_TRUNC) and no
  // temp files accumulate across retries.
  save_failed_ = true;  // until the write returns
  SaveServerCheckpoint(model, state, GenerationPath(next_gen_),
                       options_.block_codec, options_.fs, &blob_);
  save_failed_ = false;
  snapshot_bytes_ = blob_.size();
  record_bytes_ = 0;
  Track(/*record=*/false);

  // Keep `retain` snapshots: prune the oldest snapshot together with every
  // record up to the next one, while there are more.
  auto snapshots = std::count_if(
      generations_.begin(), generations_.end(),
      [](const Generation& g) { return !g.record; });
  while (snapshots > options_.retain) {
    do {
      if (fs_.Unlink(GenerationPath(generations_.front().number)) != 0 &&
          errno != ENOENT) {
        // Pruning is best-effort: a failed unlink leaves the file for the
        // next save (or the next incarnation's scan) to retry.
        return;
      }
      if (!generations_.front().record) --snapshots;
      generations_.erase(generations_.begin());
    } while (generations_.front().record);
  }
}

bool CheckpointManager::SaveRecord(const StepRecord& record) {
  if (!scanned_) ScanAndSweep();
  if (save_failed_ || snapshot_bytes_ == 0) return false;
  EncodeStepRecord(record, &blob_);
  if (record_bytes_ + blob_.size() > snapshot_bytes_) return false;
  save_failed_ = true;  // until the write returns
  WriteStepRecord(blob_, GenerationPath(next_gen_), options_.fs);
  save_failed_ = false;
  record_bytes_ += blob_.size();
  Track(/*record=*/true);
  return true;
}

bool CheckpointManager::Load(Model& model, ServerState* state,
                             std::string* error,
                             std::vector<StepRecord>* records) {
  if (!scanned_) ScanAndSweep();
  fallbacks_ = 0;
  fallback_log_.clear();
  loaded_path_.clear();
  if (records != nullptr) records->clear();
  const auto unusable = [this](const std::string& path,
                               const std::string& why) {
    ++fallbacks_;
    fallback_log_.push_back("checkpoint " + path + " unusable: " + why);
  };

  std::size_t candidates = 0;
  for (std::size_t i = generations_.size(); i-- > 0;) {
    if (generations_[i].record) continue;
    ++candidates;
    const std::string candidate = GenerationPath(generations_[i].number);
    ServerState scratch;
    try {
      LoadServerCheckpoint(model, &scratch, candidate);
    } catch (const std::exception& e) {
      unusable(candidate, e.what());
      continue;
    }
    *state = std::move(scratch);
    loaded_path_ = candidate;
    if (records == nullptr) return true;

    // The records after it (a newer snapshot here is one that failed to
    // load), while each continues where the state before it ends.
    std::uint64_t next_step = state->next_step;
    for (std::size_t j = i + 1; j < generations_.size(); ++j) {
      if (!generations_[j].record) continue;
      const std::string path = GenerationPath(generations_[j].number);
      StepRecord record;
      try {
        LoadStepRecord(&record, path);
        if (record.steps.empty()) {
          throw std::runtime_error("step record holds no steps");
        }
        for (const StepRecord::Step& step : record.steps) {
          if (step.step != next_step) {
            throw std::runtime_error("step record holds step " +
                                     std::to_string(step.step) + ", not " +
                                     std::to_string(next_step));
          }
          ++next_step;
        }
      } catch (const std::exception& e) {
        unusable(path, e.what());
        break;
      }
      records->push_back(std::move(record));
    }
    return true;
  }

  if (error != nullptr) {
    std::string detail;
    for (const std::string& line : fallback_log_) {
      detail += "; " + line;
    }
    *error = candidates == 0
                 ? "no usable checkpoint at " + options_.path +
                       " (no generations found)"
                 : "no usable checkpoint at " + options_.path + " (" +
                       std::to_string(candidates) + " candidate(s)" +
                       detail + ")";
  }
  return false;
}

}  // namespace threelc::nn
