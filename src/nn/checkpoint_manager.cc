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
      generations_.push_back(
          static_cast<std::uint64_t>(std::strtoull(digits.c_str(), nullptr, 10)));
    }
  }
  std::sort(generations_.begin(), generations_.end());
  // Never reuse a generation number: a resumed server keeps counting
  // above everything it found, so an old incarnation's file is never
  // silently overwritten by a new one's first save.
  next_gen_ = generations_.empty() ? 0 : generations_.back() + 1;
  scanned_ = true;
  return swept;
}

void CheckpointManager::Save(Model& model, const ServerState& state) {
  if (!scanned_) ScanAndSweep();
  const std::uint64_t gen = next_gen_;
  // Throws on failure; gen is only consumed on success, so a retry
  // reuses the same "<path>.g<N>.tmp.<pid>" sibling (O_TRUNC) and no
  // temp files accumulate across retries.
  SaveServerCheckpoint(model, state, GenerationPath(gen),
                       options_.block_codec, options_.fs, &blob_);
  next_gen_ = gen + 1;
  generations_.push_back(gen);
  while (generation_count() > options_.retain) {
    const std::uint64_t oldest = generations_.front();
    if (fs_.Unlink(GenerationPath(oldest)) != 0 && errno != ENOENT) {
      // Pruning is best-effort: a failed unlink leaves the file for the
      // next save (or the next incarnation's scan) to retry.
      break;
    }
    generations_.erase(generations_.begin());
  }
}

bool CheckpointManager::Load(Model& model, ServerState* state,
                             std::string* error) {
  if (!scanned_) ScanAndSweep();
  fallbacks_ = 0;
  fallback_log_.clear();
  loaded_path_.clear();

  std::vector<std::string> candidates;
  for (auto it = generations_.rbegin(); it != generations_.rend(); ++it) {
    candidates.push_back(GenerationPath(*it));
  }

  for (const std::string& candidate : candidates) {
    ServerState scratch;
    try {
      LoadServerCheckpoint(model, &scratch, candidate);
    } catch (const std::exception& e) {
      ++fallbacks_;
      fallback_log_.push_back("checkpoint " + candidate +
                              " unusable: " + e.what());
      continue;
    }
    *state = std::move(scratch);
    loaded_path_ = candidate;
    return true;
  }

  if (error != nullptr) {
    std::string detail;
    for (const std::string& line : fallback_log_) {
      detail += "; " + line;
    }
    *error = candidates.empty()
                 ? "no usable checkpoint at " + options_.path +
                       " (no generations found)"
                 : "no usable checkpoint at " + options_.path + " (" +
                       std::to_string(candidates.size()) + " candidate(s)" +
                       detail + ")";
  }
  return false;
}

}  // namespace threelc::nn
