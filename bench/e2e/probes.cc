#include "probes.h"

#include <pthread.h>
#include <sched.h>

#include <chrono>

namespace threelc::bench {

double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

void PinToCpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kEncode: return "encode";
    case SpanKind::kDecode: return "decode";
    case SpanKind::kFsOpen: return "fs_open";
    case SpanKind::kFsWrite: return "fs_write";
    case SpanKind::kFsFsync: return "fs_fsync";
    case SpanKind::kFsClose: return "fs_close";
    case SpanKind::kFsRename: return "fs_rename";
    case SpanKind::kFsUnlink: return "fs_unlink";
    case SpanKind::kFsList: return "fs_list";
  }
  return "?";
}

CodecProbe::CodecProbe(std::shared_ptr<const compress::Compressor> inner,
                       bool spans, std::int64_t steps, int encodes_per_step,
                       int decodes_per_step)
    : inner_(std::move(inner)),
      record_spans_(spans),
      encodes_per_step_(encodes_per_step),
      decodes_per_step_(decodes_per_step),
      step_starts_(static_cast<std::size_t>(steps), -1.0) {
  if (spans) {
    spans_.reserve(static_cast<std::size_t>(
        steps * (encodes_per_step + decodes_per_step)));
  }
}

void CodecProbe::EncodeImpl(const compress::Tensor& in,
                            compress::Context& ctx, compress::ByteBuffer& out,
                            compress::EncodeStats* stats) const {
  const std::int64_t step = encodes_ / encodes_per_step_;
  const bool first = encodes_ % encodes_per_step_ == 0;
  ++encodes_;
  // Untraced, the step's first Encode is the only clock read.
  const double t0 = first || record_spans_ ? NowMs() : 0.0;
  if (first && step < static_cast<std::int64_t>(step_starts_.size())) {
    step_starts_[static_cast<std::size_t>(step)] = t0;
  }
  const std::size_t before = out.size();
  inner_->Encode(in, ctx, out, stats);
  if (record_spans_) {
    spans_.push_back({t0, NowMs(), step, out.size() - before,
                      static_cast<std::uint64_t>(in.num_elements()),
                      SpanKind::kEncode});
  }
}

void CodecProbe::Decode(compress::ByteReader& in,
                        compress::Tensor& out) const {
  const double t0 = record_spans_ ? NowMs() : 0.0;
  const std::int64_t step = decodes_ / decodes_per_step_;
  ++decodes_;
  inner_->Decode(in, out);
  if (record_spans_) {
    spans_.push_back({t0, NowMs(), step, 0,
                      static_cast<std::uint64_t>(out.num_elements()),
                      SpanKind::kDecode});
  }
}

FsProbe::FsProbe(bool spans, const CodecProbe& server_codec)
    : record_spans_(spans), server_codec_(server_codec), real_(*Fs::Real()) {}

void FsProbe::Record(SpanKind kind, double t0, std::uint64_t bytes) {
  if (!record_spans_) return;
  spans_.push_back(
      {t0, NowMs(), server_codec_.encode_step(), bytes, 0, kind});
}

int FsProbe::Open(const std::string& path, int flags, mode_t mode) {
  const double t0 = NowMs();
  const int r = real_.Open(path, flags, mode);
  Record(SpanKind::kFsOpen, t0, 0);
  return r;
}

ssize_t FsProbe::Write(int fd, const void* data, std::size_t n) {
  const double t0 = NowMs();
  const ssize_t r = real_.Write(fd, data, n);
  Record(SpanKind::kFsWrite, t0, r > 0 ? static_cast<std::uint64_t>(r) : 0);
  return r;
}

int FsProbe::Fsync(int fd) {
  const double t0 = NowMs();
  const int r = real_.Fsync(fd);
  Record(SpanKind::kFsFsync, t0, 0);
  return r;
}

int FsProbe::Close(int fd) {
  const double t0 = NowMs();
  const int r = real_.Close(fd);
  Record(SpanKind::kFsClose, t0, 0);
  return r;
}

int FsProbe::Rename(const std::string& from, const std::string& to) {
  const double t0 = NowMs();
  const int r = real_.Rename(from, to);
  Record(SpanKind::kFsRename, t0, 0);
  return r;
}

int FsProbe::Unlink(const std::string& path) {
  const double t0 = NowMs();
  const int r = real_.Unlink(path);
  Record(SpanKind::kFsUnlink, t0, 0);
  return r;
}

bool FsProbe::List(const std::string& dir, std::vector<std::string>* names) {
  const double t0 = NowMs();
  const bool r = real_.List(dir, names);
  Record(SpanKind::kFsList, t0, 0);
  return r;
}

}  // namespace threelc::bench
