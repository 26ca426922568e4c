#include "rpc/runtime.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <thread>

#include "blockcodec/block_codec.h"
#include "nn/checkpoint.h"
#include "nn/checkpoint_manager.h"
#include "nn/lr_schedule.h"
#include "rpc/fault.h"
#include "obs/cluster_view.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "util/logging.h"
#include "util/timer.h"

namespace threelc::rpc {

namespace {

// Poll granularity while waiting on a phase predicate; bounds how stale the
// deadline check can get, not how fast frames are handled (poll returns
// early on socket activity).
constexpr int kPollSliceMs = 50;

// A failed server checkpoint write is retried this many times (after the
// first attempt), sleeping kCheckpointRetryBackoffMs * attempt between
// tries, before the run degrades (RpcServer::WriteCheckpoint).
constexpr int kCheckpointWriteRetries = 2;
constexpr int kCheckpointRetryBackoffMs = 10;

// Every fault funnels through here: error log, rpc/transport_errors
// counter, and a flight-recorder event + dump so a post-mortem of a failed
// distributed run has the last ~256 steps alongside the fault.
void ReportFault(obs::Telemetry* telemetry, const std::string& who,
                 const std::string& message) {
  THREELC_LOG(Error) << who << ": " << message;
  if (telemetry == nullptr) return;
  telemetry->metrics().counter("rpc/transport_errors")->Add(1.0);
  if (obs::FlightRecorder* flight = telemetry->flight_recorder()) {
    obs::HealthEvent event;
    event.severity = obs::HealthSeverity::kError;
    event.detector = "rpc_transport";
    event.message = who + ": " + message;
    flight->RecordEvent(event);
    flight->Dump();
  }
}

void AddCounter(obs::Telemetry* telemetry, const char* name, double value) {
  if (telemetry != nullptr) telemetry->metrics().counter(name)->Add(value);
}

std::string PayloadString(const Frame& frame) {
  return std::string(reinterpret_cast<const char*>(frame.payload.data()),
                     frame.payload.size());
}

std::string DescribeWait(Connection::IoResult result, const Connection& conn) {
  if (result == Connection::IoResult::kClosed) return "peer closed connection";
  return conn.last_error().empty() ? "I/O error" : conn.last_error();
}

// The HEARTBEAT beacon cadence, the same rule on both sides of the wire.
int HeartbeatCadenceMs(int heartbeat_ms, int lease_ms) {
  return heartbeat_ms > 0 ? heartbeat_ms : std::max(50, lease_ms / 4);
}

std::unique_ptr<nn::CheckpointManager> MakeCheckpointManager(
    const RpcServerConfig& config, const std::string& path) {
  nn::CheckpointManager::Options options;
  options.path = path;
  options.retain = config.checkpoint_retain;
  options.block_codec = config.block_codec;
  options.fs = config.fs;
  return std::make_unique<nn::CheckpointManager>(std::move(options));
}

}  // namespace

std::uint64_t PlanHash(const ps::TensorPlan& plan,
                       const std::string& codec_name) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_u64 = [&mix](std::uint64_t v) { mix(&v, sizeof(v)); };
  mix(codec_name.data(), codec_name.size());
  mix_u64(plan.size());
  for (const auto& entry : plan.entries()) {
    mix(entry.name.data(), entry.name.size());
    mix_u64(entry.shape.rank());
    for (std::int64_t d : entry.shape.dims()) {
      mix_u64(static_cast<std::uint64_t>(d));
    }
    mix_u64(entry.compressed ? 1 : 0);
  }
  return h;
}

// --- RpcServer -------------------------------------------------------------

RpcServer::RpcServer(RpcServerConfig config, ps::ParameterServer& ps,
                     std::string codec_name)
    : config_(std::move(config)),
      ps_(&ps),
      codec_name_(std::move(codec_name)),
      plan_hash_(PlanHash(ps.plan(), codec_name_)),
      block_codec_(blockcodec::Find(config_.block_codec)),
      metrics_(config_.telemetry != nullptr
                   ? TransportMetrics::RegisterIn(config_.telemetry->metrics())
                   : TransportMetrics{}),
      tcp_(&metrics_) {
  THREELC_CHECK_MSG(config_.num_workers >= 1,
                    "num_workers must be positive: " << config_.num_workers);
  THREELC_CHECK_MSG(block_codec_ != nullptr,
                    "unknown block codec '" << config_.block_codec
                                            << "' (known: "
                                            << blockcodec::KnownNames()
                                            << ")");
  const auto n = static_cast<std::size_t>(config_.num_workers);
  const std::size_t num_tensors = ps_->plan().size();
  push_payloads_.assign(n, std::vector<util::ByteBuffer>(num_tensors));
  push_wire_bytes_.assign(n, 0);
  push_seen_.assign(n, std::vector<bool>(num_tensors, false));
  step_losses_.assign(n, 0.0);
  stats_seen_.assign(n, false);
  worker_conns_.assign(n, nullptr);
  member_state_.assign(n, Member::kActive);
  dead_since_.assign(n, std::chrono::steady_clock::time_point{});
  last_rx_.assign(n, std::chrono::steady_clock::time_point{});
  greeted_.assign(n, false);
  bye_blobs_.assign(n, util::ByteBuffer{});
  barrier_arrival_ms_.assign(n, -1.0);

  if (obs::ClusterView* view = cluster_view()) {
    // Uncompressed f32 traffic per worker per step, both directions — the
    // denominator for /clusterz's per-direction compression ratios.
    const auto raw = static_cast<std::uint64_t>(
                         ps_->plan().TotalElements()) * sizeof(float);
    view->SetRawBytesPerStep(raw, raw);
  }

  tcp_.on_accept = [this](Connection& conn) {
    peers_.emplace(&conn, Peer{});
    if (config_.fault != nullptr) conn.set_fault_injector(config_.fault);
  };
  tcp_.on_frame = [this](Connection& conn, Frame&& frame) {
    OnFrame(conn, std::move(frame));
  };
  tcp_.on_disconnect = [this](Connection& conn, const std::string& reason) {
    OnDisconnect(conn, reason);
  };
}

RpcServer::~RpcServer() = default;

obs::HealthMonitor* RpcServer::health() const {
  return config_.telemetry != nullptr ? config_.telemetry->health() : nullptr;
}

obs::ClusterView* RpcServer::cluster_view() const {
  return config_.telemetry != nullptr ? config_.telemetry->cluster_view()
                                      : nullptr;
}

bool RpcServer::Listen(std::string* error) {
  return tcp_.Listen(config_.host, config_.port, error);
}

void RpcServer::AdoptListener(int listen_fd, int port) {
  tcp_.AdoptListener(listen_fd, port);
}

void RpcServer::RequestStop(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_reason_ = reason;
  }
  stop_requested_.store(true, std::memory_order_release);
}

void RpcServer::Fail(const std::string& message) {
  if (failed_) return;
  failed_ = true;
  error_ = message;
  ReportFault(config_.telemetry, "rpc server", message);
  if (health() != nullptr) {
    health()->SetRuntimeState(obs::RuntimeState::kFailed, message);
  }
  BroadcastError(message);
}

void RpcServer::BroadcastError(const std::string& message) {
  util::ByteSpan payload(
      reinterpret_cast<const std::uint8_t*>(message.data()), message.size());
  for (auto& [conn, peer] : peers_) {
    if (!conn->open()) continue;
    if (conn->SendFrame(MsgType::kError, 0, 0, payload)) {
      conn->FlushOutput(/*timeout_ms=*/200);  // best effort
    }
  }
}

std::size_t RpcServer::ActiveWorkers() const {
  std::size_t n = 0;
  for (Member m : member_state_) {
    if (m == Member::kActive) ++n;
  }
  return n;
}

std::size_t RpcServer::WaitingWorkers() const {
  std::size_t n = 0;
  for (Member m : member_state_) {
    if (m == Member::kWaiting) ++n;
  }
  return n;
}

bool RpcServer::BarrierDone() const {
  return frames_pending_ == 0 && WaitingWorkers() == 0;
}

void RpcServer::RecordMembershipEvent(const std::string& message, bool error) {
  if (error) {
    THREELC_LOG(Error) << "rpc server: " << message;
  } else {
    THREELC_LOG(Warn) << "rpc server: " << message;
  }
  if (config_.telemetry == nullptr) return;
  if (obs::FlightRecorder* flight = config_.telemetry->flight_recorder()) {
    obs::HealthEvent event;
    event.severity =
        error ? obs::HealthSeverity::kError : obs::HealthSeverity::kWarn;
    event.detector = "rpc_membership";
    event.step = current_step_;
    event.message = message;
    flight->RecordEvent(event);
    if (error) flight->Dump();
  }
}

void RpcServer::RecomputePending() {
  if (current_step_ < 0 || current_step_ >= config_.total_steps) {
    frames_pending_ = 0;
    return;
  }
  const std::size_t num_tensors = ps_->plan().size();
  std::size_t pending = 0;
  for (std::size_t w = 0; w < member_state_.size(); ++w) {
    if (member_state_[w] != Member::kActive) continue;
    for (std::size_t t = 0; t < num_tensors; ++t) {
      if (!push_seen_[w][t]) ++pending;
    }
    if (!stats_seen_[w]) ++pending;
  }
  frames_pending_ = pending;
}

void RpcServer::MarkWorkerDead(std::size_t w, const std::string& reason) {
  if (member_state_[w] != Member::kActive) return;
  member_state_[w] = Member::kWaiting;
  dead_since_[w] = std::chrono::steady_clock::now();
  // Detach the connection now. When the server itself closed it (send
  // failure), TcpServer::Reap frees the object silently — without the
  // on_disconnect callback that would otherwise clear this slot — so a
  // stale pointer here would dangle by the time the worker rejoins.
  if (Connection* old = worker_conns_[w]; old != nullptr) {
    peers_.erase(old);
    old->Close();
    worker_conns_[w] = nullptr;
  }
  ResetContribution(w);
  RecomputePending();
  RecordMembershipEvent("worker " + std::to_string(w) + " lost (" + reason +
                            "); holding barrier " +
                            std::to_string(config_.grace_ms) +
                            " ms for rejoin",
                        /*error=*/false);
}

void RpcServer::EvictExpired() {
  if (config_.grace_ms <= 0 || failed_) return;
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < member_state_.size(); ++w) {
    if (member_state_[w] != Member::kWaiting) continue;
    const double waited_ms =
        std::chrono::duration<double, std::milli>(now - dead_since_[w])
            .count();
    if (waited_ms >= config_.grace_ms) {
      Evict(w, "grace window (" + std::to_string(config_.grace_ms) +
                   " ms) expired");
      if (failed_) return;
    }
  }
}

void RpcServer::StampLiveness(std::size_t w) {
  if (config_.lease_ms <= 0) return;
  last_rx_[w] = std::chrono::steady_clock::now();
  if (obs::ClusterView* view = cluster_view()) {
    view->RecordLiveness(static_cast<int>(w));
  }
}

void RpcServer::CheckLeases() {
  if (config_.lease_ms <= 0 || failed_) return;
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < member_state_.size(); ++w) {
    // The lease clock starts at the handshake stamp; a worker that never
    // connected is the handshake timeout's problem, not the lease's.
    if (member_state_[w] != Member::kActive) continue;
    if (last_rx_[w] == std::chrono::steady_clock::time_point{}) continue;
    const double silent_ms =
        std::chrono::duration<double, std::milli>(now - last_rx_[w]).count();
    if (silent_ms < config_.lease_ms) continue;
    ++lease_expiries_;
    AddCounter(config_.telemetry, "rpc/lease_expiries", 1.0);
    if (obs::ClusterView* view = cluster_view()) {
      view->RecordLeaseExpiry(static_cast<int>(w));
    }
    // In grace mode MarkWorkerDead force-closes the half-open socket, so a
    // SIGCONT'd worker's REJOIN takes the displacement path instead of
    // colliding with its stale connection.
    if (!LoseWorker(w, "lease expired (no frame for " +
                           std::to_string(static_cast<int>(silent_ms)) +
                           " ms, lease " + std::to_string(config_.lease_ms) +
                           " ms; hung or partitioned)")) {
      return;
    }
  }
}

void RpcServer::SendHeartbeats() {
  if (config_.lease_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  if (last_heartbeat_tx_ != std::chrono::steady_clock::time_point{} &&
      std::chrono::duration<double, std::milli>(now - last_heartbeat_tx_)
              .count() <
          HeartbeatCadenceMs(config_.heartbeat_ms, config_.lease_ms)) {
    return;
  }
  last_heartbeat_tx_ = now;
  HeartbeatPayload beat;
  beat.role = 1;
  beat.seq = heartbeat_seq_++;
  beat.progress = static_cast<std::uint64_t>(
      std::max<std::int64_t>(steps_completed_.load(), 0));
  util::ByteBuffer payload;
  EncodeHeartbeat(beat, payload);
  for (std::size_t w = 0; w < worker_conns_.size(); ++w) {
    if (member_state_[w] != Member::kActive) continue;
    Connection* conn = worker_conns_[w];
    if (conn == nullptr || !conn->open()) continue;
    if (conn->SendFrame(MsgType::kHeartbeat, 0, 0, payload.span())) {
      AddCounter(config_.telemetry, "rpc/heartbeats_sent", 1.0);
    } else if (!LoseWorker(w, "queueing HEARTBEAT: " + conn->last_error())) {
      return;
    }
  }
}

bool RpcServer::LoseWorker(std::size_t w, const std::string& why) {
  if (config_.grace_ms > 0) {
    MarkWorkerDead(w, why);
    return true;
  }
  Fail("worker " + std::to_string(w) + ": " + why);
  return false;
}

void RpcServer::Evict(std::size_t w, const std::string& reason) {
  member_state_[w] = Member::kEvicted;
  ++evictions_;
  AddCounter(config_.telemetry, "rpc/evictions", 1.0);
  if (obs::ClusterView* view = cluster_view()) {
    view->RemoveWorker(static_cast<int>(w));
  }
  // Tell the survivors which peer is gone (workers log it; supervisors can
  // react, e.g. by not restarting the process).
  util::ByteBuffer payload;
  payload.AppendU32(static_cast<std::uint32_t>(w));
  const auto step =
      static_cast<std::uint64_t>(std::max<std::int64_t>(current_step_, 0));
  for (std::size_t v = 0; v < worker_conns_.size(); ++v) {
    if (member_state_[v] != Member::kActive) continue;
    Connection* conn = worker_conns_[v];
    if (conn != nullptr && conn->open()) {
      conn->SendFrame(MsgType::kEvict, step, 0, payload.span());
    }
  }
  RecomputePending();
  RecordMembershipEvent("worker " + std::to_string(w) + " evicted: " +
                            reason + "; rescaling aggregation to " +
                            std::to_string(ActiveWorkers()) + " of " +
                            std::to_string(config_.num_workers) + " workers",
                        /*error=*/false);
  if (health() != nullptr) {
    health()->SetRuntimeState(
        obs::RuntimeState::kDegraded,
        "worker " + std::to_string(w) + " evicted; " +
            std::to_string(ActiveWorkers()) + " of " +
            std::to_string(config_.num_workers) + " workers remain");
  }
  if (ActiveWorkers() == 0) Fail("all workers evicted");
}

bool RpcServer::PollUntil(const std::function<bool()>& done, int timeout_ms,
                          const char* phase) {
  util::WallTimer timer;
  while (!failed_) {
    if (config_.stop_flag != nullptr &&
        config_.stop_flag->load(std::memory_order_acquire)) {
      GracefulStop("stop signal");
      return false;
    }
    if (stop_requested_.load(std::memory_order_acquire)) {
      std::string reason;
      {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        reason = stop_reason_;
      }
      Fail("stop requested: " + reason);
      return false;
    }
    EvictExpired();
    if (failed_) return false;
    CheckLeases();
    if (failed_) return false;
    SendHeartbeats();
    if (failed_) return false;
    if (done()) return true;
    const double elapsed_ms = timer.ElapsedMillis();
    if (elapsed_ms >= timeout_ms) {
      if (metrics_.timeouts != nullptr) metrics_.timeouts->Add(1.0);
      Fail(std::string("timeout in ") + phase + " after " +
           std::to_string(timeout_ms) + " ms");
      return false;
    }
    const int slice = std::max(
        1, std::min(kPollSliceMs,
                    timeout_ms - static_cast<int>(elapsed_ms)));
    if (!tcp_.Poll(slice)) {
      Fail("listener closed unexpectedly");
      return false;
    }
  }
  return false;
}

void RpcServer::HandleJoin(Connection& conn, const Frame& frame,
                           bool rejoin) {
  const std::string kind = rejoin ? "REJOIN" : "HELLO";
  Peer& peer = peers_[&conn];
  if (peer.worker_id >= 0) {
    Fail(kind + " on an already-identified connection (worker " +
         std::to_string(peer.worker_id) + ")");
    return;
  }
  const HandshakePayload join = DecodeHandshake(frame.payload.span(), rejoin);
  const std::uint32_t worker_id = join.worker_id;
  const std::string from = kind + " from worker " + std::to_string(worker_id);
  if (worker_id >= static_cast<std::uint32_t>(config_.num_workers)) {
    Fail(kind + " with out-of-range worker id " + std::to_string(worker_id) +
         " (num_workers " + std::to_string(config_.num_workers) + ")");
    return;
  }
  if (join.plan_hash != plan_hash_ || join.codec != codec_name_) {
    std::ostringstream oss;
    oss << kind << " handshake mismatch from worker " << worker_id
        << ": plan hash " << std::hex << join.plan_hash << " vs "
        << plan_hash_ << std::dec << ", codec '" << join.codec << "' vs '"
        << codec_name_ << "'";
    Fail(oss.str());
    return;
  }
  if (join.block_codec != block_codec_->id()) {
    Fail(kind + " handshake block-codec mismatch from worker " +
         std::to_string(worker_id) + ": worker sent id " +
         std::to_string(static_cast<int>(join.block_codec)) +
         ", server runs '" + std::string(block_codec_->name()) + "' (id " +
         std::to_string(static_cast<int>(block_codec_->id())) + ")");
    return;
  }
  const auto w = static_cast<std::size_t>(worker_id);
  const auto next_step = static_cast<std::int64_t>(join.next_step);

  if (!rejoin) {
    if (join.epoch != 0) {
      Fail(from + " carries server epoch " + std::to_string(join.epoch) +
           " (a fresh worker must send 0; one that saw an incarnation must "
           "REJOIN)");
      return;
    }
    if (worker_conns_[w] != nullptr) {
      Fail("second connection claiming worker id " + std::to_string(w));
      return;
    }
    if (greeted_[w]) {
      Fail(from + ": already greeted (a restarted worker must REJOIN)");
      return;
    }
  } else {
    // Reject (ERROR + close) without failing the run: the rejoiner is
    // wrong or too late, but the surviving workers are fine.
    auto reject = [&](const std::string& why) {
      THREELC_LOG(Warn) << "rpc server: rejecting REJOIN from worker "
                        << worker_id << ": " << why;
      util::ByteSpan payload(
          reinterpret_cast<const std::uint8_t*>(why.data()), why.size());
      if (conn.SendFrame(MsgType::kError, 0, 0, payload)) {
        conn.FlushOutput(/*timeout_ms=*/200);
      }
      peers_.erase(&conn);
      conn.Close();  // reaped silently by TcpServer
    };
    // A worker can only ever have seen an epoch this incarnation knows
    // about (epoch_ never regresses: it is persisted before any
    // handshake). A larger epoch means this server restored a checkpoint
    // older than the incarnation the worker last spoke to — a broken
    // deployment, not a recoverable race.
    if (join.epoch > epoch_) {
      Fail(from + " carries epoch " + std::to_string(join.epoch) +
           " ahead of this server's " + std::to_string(epoch_) +
           " (stale server checkpoint restored?)");
      return;
    }
    if (member_state_[w] == Member::kEvicted) {
      reject("worker " + std::to_string(w) +
             " was evicted; the run continues without it");
      return;
    }
    if (next_step > current_step_) {
      Fail(from + " claims future step " + std::to_string(next_step) +
           " (server is at " + std::to_string(current_step_) + ")");
      return;
    }
    // Every retained step is below current_step_, so a rejoiner already
    // at current_step_ always passes.
    const auto& ring = ckpt_state_.replay;
    const std::int64_t oldest =
        ring.empty() ? current_step_
                     : static_cast<std::int64_t>(ring.front().step);
    if (next_step < oldest) {
      reject("replay window exceeded: worker needs step " +
             std::to_string(next_step) + " but the oldest retained step is " +
             std::to_string(oldest) + " (replay_steps " +
             std::to_string(config_.replay_steps) + ")");
      return;
    }
    // Displace a half-open previous connection for this id, if any.
    if (Connection* old = worker_conns_[w]; old != nullptr) {
      peers_.erase(old);
      old->Close();
    }
  }

  peer.worker_id = static_cast<int>(worker_id);
  worker_conns_[w] = &conn;
  member_state_[w] = Member::kActive;
  StampLiveness(w);
  if (!greeted_[w]) {
    greeted_[w] = true;
    ++handshakes_;
  }

  HandshakeAckPayload ack_payload;
  ack_payload.num_workers = static_cast<std::uint32_t>(config_.num_workers);
  ack_payload.total_steps = static_cast<std::uint64_t>(config_.total_steps);
  ack_payload.plan_hash = plan_hash_;
  ack_payload.block_codec = block_codec_->id();
  ack_payload.epoch = epoch_;
  ack_payload.collect_step = static_cast<std::uint64_t>(current_step_);
  util::ByteBuffer ack;
  EncodeHandshakeAck(ack_payload, rejoin, ack);
  if (!conn.SendFrame(rejoin ? MsgType::kRejoinAck : MsgType::kHelloAck, 0, 0,
                      ack.span())) {
    Fail("sending " + kind + "_ACK to worker " + std::to_string(w) + ": " +
         conn.last_error());
    return;
  }
  if (!rejoin) return;
  ++rejoins_;
  AddCounter(config_.telemetry, "rpc/rejoins", 1.0);

  // Replay the shared pull bytes for every completed step the worker
  // missed, verbatim — the worker recomputes its own pushes (bitwise
  // identical, since its state is deterministic) and only needs the
  // server's side of each barrier.
  std::size_t frames = 0;
  for (const nn::ServerState::ReplayStep& entry : ckpt_state_.replay) {
    const auto step = static_cast<std::int64_t>(entry.step);
    if (step < next_step || step >= current_step_) continue;
    for (const util::ByteBuffer& bytes : entry.frames) {
      if (!conn.SendEncoded(bytes.span(), 1)) {
        Fail("replaying step " + std::to_string(step) + " to worker " +
             std::to_string(w) + ": " + conn.last_error());
        return;
      }
      ++frames;
    }
  }
  replayed_frames_ += frames;
  if (frames > 0) {
    AddCounter(config_.telemetry, "rpc/replayed_frames",
               static_cast<double>(frames));
  }

  // Expect a fresh contribution to the step being collected.
  ResetContribution(w);
  RecomputePending();
  RecordMembershipEvent(
      "worker " + std::to_string(w) + " rejoined at step " +
          std::to_string(current_step_) + " (resumed from step " +
          std::to_string(next_step) + ", replayed " + std::to_string(frames) +
          " pull frames)",
      /*error=*/false);
  MaybeReassembled();
}

void RpcServer::MaybeReassembled() {
  if (!resumed_ || WaitingWorkers() != 0) return;
  for (Member m : member_state_) {
    if (m == Member::kEvicted) return;  // permanently degraded
  }
  RecordMembershipEvent("all workers rejoined after server restart (epoch " +
                            std::to_string(epoch_) + "); run re-assembled",
                        /*error=*/false);
  // A storage degradation (checkpoint writes failing) outlives the
  // re-assembly: only a successful write clears it.
  if (health() != nullptr && !ckpt_degraded_) {
    health()->SetRuntimeState(obs::RuntimeState::kHealthy,
                              "all workers rejoined after server restart");
  }
}

void RpcServer::OnFrame(Connection& conn, Frame&& frame) {
  if (failed_) return;
  const FrameHeader& h = frame.header;
  try {
    if (h.type == MsgType::kHello || h.type == MsgType::kRejoin) {
      HandleJoin(conn, frame, h.type == MsgType::kRejoin);
      return;
    }
    if (h.type == MsgType::kError) {
      Fail("peer reported error: " + PayloadString(frame));
      return;
    }
    if (h.type == MsgType::kHeartbeat) {
      // Liveness beacon. Decode to validate (a malformed beacon is a
      // protocol fault like any payload); tolerated from a connection
      // still mid-handshake, since workers beacon while blocked on any
      // server reply.
      DecodeHeartbeat(frame.payload.span());
      AddCounter(config_.telemetry, "rpc/heartbeats_received", 1.0);
      const Peer& beaconer = peers_[&conn];
      if (beaconer.worker_id >= 0) {
        StampLiveness(static_cast<std::size_t>(beaconer.worker_id));
      }
      return;
    }
    Peer& peer = peers_[&conn];
    if (peer.worker_id < 0) {
      Fail(std::string(MsgTypeName(h.type)) + " before HELLO");
      return;
    }
    const auto w = static_cast<std::size_t>(peer.worker_id);
    StampLiveness(w);
    switch (h.type) {
      case MsgType::kPush: {
        if (static_cast<std::int64_t>(h.step) != current_step_ ||
            h.tensor >= push_payloads_[w].size()) {
          std::ostringstream oss;
          oss << "unexpected PUSH from worker " << w << ": step " << h.step
              << " tensor " << h.tensor << " while collecting step "
              << current_step_;
          Fail(oss.str());
          return;
        }
        if (push_seen_[w][h.tensor]) {
          Fail("duplicate PUSH from worker " + std::to_string(w) +
               " tensor " + std::to_string(h.tensor));
          return;
        }
        util::ByteBuffer payload = std::move(frame.payload);
        push_wire_bytes_[w] += payload.size();
        if (block_codec_->id() != blockcodec::kStoreId) {
          // Unwrap the negotiated block envelope on arrival, so the server
          // step's decode phase sees exactly the stage-1 bytes it saw in
          // protocol v4. A malformed envelope lands in the enclosing catch
          // and Fails the run cleanly.
          obs::ScopedStage stage(&obs::StageProfiler::Global(),
                                 "block_decode");
          util::ByteBuffer decoded;
          blockcodec::DecodeBlock(payload.span(), kMaxPayloadBytes, decoded);
          AddCounter(config_.telemetry, "block/decode_bytes_in",
                     static_cast<double>(payload.size()));
          AddCounter(config_.telemetry, "block/decode_bytes_out",
                     static_cast<double>(decoded.size()));
          payload = std::move(decoded);
        }
        push_payloads_[w][h.tensor] = std::move(payload);
        push_seen_[w][h.tensor] = true;
        --frames_pending_;
        StampBarrierArrival(w);
        return;
      }
      case MsgType::kStepStats: {
        if (static_cast<std::int64_t>(h.step) != current_step_ ||
            stats_seen_[w]) {
          Fail("unexpected STEP_STATS from worker " + std::to_string(w) +
               " for step " + std::to_string(h.step));
          return;
        }
        util::ByteReader reader(frame.payload);
        step_losses_[w] = reader.ReadF32();
        stats_seen_[w] = true;
        --frames_pending_;
        StampBarrierArrival(w);
        return;
      }
      case MsgType::kTelemetry: {
        // Non-barrier: a worker's per-step record for an already-released
        // step (it is sent after the step's pulls were applied, while the
        // server collects the next one). Decode always — a malformed
        // record is a protocol fault — but feed only an attached view.
        // Duplicates from rejoin replay are deduped inside ClusterView.
        obs::WorkerStepRecord rec = DecodeTelemetry(frame.payload.span());
        if (obs::ClusterView* view = cluster_view()) {
          rec.step = h.step;
          view->Ingest(static_cast<int>(w), rec);
        }
        return;
      }
      case MsgType::kBye: {
        if (current_step_ != config_.total_steps || peer.said_bye) {
          Fail("unexpected BYE from worker " + std::to_string(w) +
               " at step " + std::to_string(current_step_));
          return;
        }
        peer.said_bye = true;
        bye_blobs_[w] = std::move(frame.payload);
        ++byes_;
        return;
      }
      default:
        Fail(std::string("unexpected frame type ") + MsgTypeName(h.type));
        return;
    }
  } catch (const std::exception& e) {
    Fail(std::string("malformed ") + MsgTypeName(h.type) +
         " payload: " + e.what());
  }
}

void RpcServer::OnDisconnect(Connection& conn, const std::string& reason) {
  auto it = peers_.find(&conn);
  if (it == peers_.end()) return;
  const Peer peer = it->second;
  peers_.erase(it);
  bool registered = false;
  if (peer.worker_id >= 0) {
    const auto w = static_cast<std::size_t>(peer.worker_id);
    if (worker_conns_[w] == &conn) {
      worker_conns_[w] = nullptr;
      registered = true;
    }
  }
  if (peer.said_bye) return;  // expected teardown after BYE_ACK
  std::ostringstream oss;
  if (peer.worker_id >= 0) {
    oss << "worker " << peer.worker_id;
  } else {
    oss << "unidentified peer";
  }
  oss << " disconnected mid-run";
  if (!reason.empty()) oss << " (" << reason << ")";
  if (config_.grace_ms > 0) {
    if (registered && !failed_ &&
        member_state_[static_cast<std::size_t>(peer.worker_id)] ==
            Member::kActive) {
      MarkWorkerDead(static_cast<std::size_t>(peer.worker_id), oss.str());
    } else {
      THREELC_LOG(Warn) << "rpc server: " << oss.str();
    }
    return;
  }
  Fail(oss.str());
}

void RpcServer::BeginCollect(std::int64_t step) {
  current_step_ = step;  // past total_steps only BYE is valid (0 pending)
  for (std::size_t w = 0; w < push_seen_.size(); ++w) ResetContribution(w);
  collect_timer_.Reset();
  RecomputePending();
}

void RpcServer::ResetContribution(std::size_t w) {
  std::fill(push_seen_[w].begin(), push_seen_[w].end(), false);
  stats_seen_[w] = false;
  push_wire_bytes_[w] = 0;
  barrier_arrival_ms_[w] = -1.0;
}

void RpcServer::StampBarrierArrival(std::size_t w) {
  if (barrier_arrival_ms_[w] >= 0.0) return;
  if (!stats_seen_[w]) return;
  for (std::size_t t = 0; t < push_seen_[w].size(); ++t) {
    if (!push_seen_[w][t]) return;
  }
  barrier_arrival_ms_[w] = collect_timer_.ElapsedMillis();
}

bool RpcServer::RunStep(std::int64_t step, float lr) {
  obs::StageProfiler* prof = &obs::StageProfiler::Global();
  // Every phase is one ScopedStage: the profiler stage, a span stamped
  // with the step id (so merge_traces.py can line it up against each
  // worker's spans from other processes), and the phase's ns slot.
  const obs::SpanTarget span{
      config_.telemetry != nullptr ? &config_.telemetry->tracer() : nullptr,
      0, step};
  const std::size_t num_tensors = ps_->plan().size();
  obs::ScopedStage step_stage(prof, "server_step", nullptr, span);

  // The barrier budget covers the grace window: a dead worker may consume
  // all of grace_ms rejoining (or being evicted) before the barrier can
  // possibly complete.
  const int barrier_timeout_ms =
      config_.step_timeout_ms + std::max(config_.grace_ms, 0);
  std::uint64_t barrier_ns = 0;
  {
    obs::ScopedStage stage(prof, "step_barrier", &barrier_ns, span);
    if (!PollUntil([this] { return BarrierDone(); }, barrier_timeout_ms,
                   "step barrier")) {
      return false;
    }
  }

  // The worker set this step's aggregate is computed over, frozen at
  // barrier completion. Membership can only shrink from here (a fan-out
  // write failure marks the target dead), never grow mid-step.
  std::vector<std::size_t> contributors;
  contributors.reserve(member_state_.size());
  for (std::size_t w = 0; w < member_state_.size(); ++w) {
    if (member_state_[w] == Member::kActive) contributors.push_back(w);
  }
  if (contributors.empty()) {
    Fail("no active workers at step " + std::to_string(step));
    return false;
  }
  const auto num_contributors = contributors.size();

  // Straggler attribution: who was last to the barrier and by how much,
  // read before BeginCollect(step + 1) wipes the arrival stamps. The
  // cause lands when the straggler's TELEMETRY record for this step
  // arrives (after its pulls drain).
  if (obs::ClusterView* view = cluster_view()) {
    double first = -1.0, last = -1.0;
    int last_worker = -1;
    for (std::size_t w : contributors) {
      const double arrival = barrier_arrival_ms_[w];
      if (arrival < 0.0) continue;  // rejoined mid-step; stamp lost
      if (first < 0.0 || arrival < first) first = arrival;
      if (arrival > last) {
        last = arrival;
        last_worker = static_cast<int>(w);
      }
    }
    if (last_worker >= 0) {
      view->RecordBarrier(static_cast<std::uint64_t>(step), last_worker,
                          last - first, static_cast<int>(num_contributors));
    }
  }

  // The server step proper: decode and aggregate the contributors'
  // stage-1 pushes (the envelope was already stripped at frame arrival) in
  // worker-id order — the same float additions as DistributedTrainer::Run,
  // which is what makes the distributed model bitwise identical to the
  // in-process one — then optimize and encode the shared pulls.
  ps::ParameterServer::StepTimings phases;
  try {
    phases = ps_->Step(push_payloads_, contributors, lr, span);
  } catch (const std::exception& e) {
    Fail(std::string("decoding pushes for step ") + std::to_string(step) +
         ": " + e.what());
    return false;
  }
  // Stage-1 bytes (what the tensor codec produced) vs wire bytes (what
  // actually crossed the socket). Equal when the block codec is store.
  std::size_t push_bytes = 0;
  std::size_t push_wire_bytes = 0;
  for (std::size_t w : contributors) {
    push_wire_bytes += static_cast<std::size_t>(push_wire_bytes_[w]);
    for (const util::ByteBuffer& payload : push_payloads_[w]) {
      push_bytes += payload.size();
    }
  }

  // Envelope and frame each pull payload once; every worker is queued the
  // same frame bytes (the paper's shared pull compression, §3). This is
  // the step's second "encode" interval. The frames are retained in the
  // replay ring BEFORE any byte leaves (one extra entry even with
  // replay_steps == 0, dropped after fan-out): the write-ahead checkpoint
  // below must cover exactly what the fan-out is about to send, so a
  // server restored from it replays byte-identical pulls.
  PullFrames pulls;
  {
    obs::ScopedStage stage(prof, "encode", &phases.encode_ns, span);
    pulls = FramePulls(step);
  }
  // Write-ahead server checkpoint: this step's state is final (aggregate
  // applied, pulls encoded, ring updated) and nothing has been sent, so a
  // crash from here on restores to a point no worker can be ahead of.
  std::uint64_t checkpoint_ns = 0;
  {
    obs::ScopedStage stage(prof, "checkpoint", &checkpoint_ns, span);
    if (!config_.checkpoint_path.empty()) {
      nn::StepRecord::Step& entry = step_record_.steps.emplace_back();
      entry.step = static_cast<std::uint64_t>(step);
      entry.lr = lr;
      entry.contributors = contributors;
      entry.pushes.resize(push_payloads_.size());
      for (std::size_t w : contributors) entry.pushes[w] = push_payloads_[w];
    }
    if (!WriteCheckpoint(step + 1, /*force=*/false)) return false;
  }

  std::uint64_t fanout_ns = 0;
  {
    obs::ScopedStage stage(prof, "fan_out", &fanout_ns, span);
    const std::vector<util::ByteBuffer>& fanout =
        ckpt_state_.replay.back().frames;
    for (std::size_t t = 0; t < num_tensors; ++t) {
      for (std::size_t w : contributors) {
        if (member_state_[w] != Member::kActive) continue;  // died mid-fan-out
        Connection* conn = worker_conns_[w];
        if (conn != nullptr && conn->SendEncoded(fanout[t].span(), 1)) {
          continue;
        }
        if (config_.fault != nullptr && config_.fault->TakeKillRequest()) {
          SimulatedCrash("injected server kill fanning out step " +
                         std::to_string(step) + " pulls");
          return false;
        }
        if (!LoseWorker(w, "queueing PULL: " + (conn != nullptr
                                                     ? conn->last_error()
                                                     : "connection gone"))) {
          return false;
        }
      }
    }
    if (config_.replay_steps <= 0) ckpt_state_.replay.clear();
  }

  // Accept the next step's pushes before blocking on anything else — a
  // fast worker pushes step+1 as soon as its pulls drain.
  BeginCollect(step + 1);

  double loss_sum = 0.0;
  for (std::size_t w : contributors) loss_sum += step_losses_[w];
  const double mean_loss = loss_sum / static_cast<double>(num_contributors);

  if (obs::Telemetry* tel = config_.telemetry) {
    // rpc/*_payload_bytes count what crossed the wire (post block codec);
    // rpc/*_stage1_bytes what the tensor codec produced. Equal for store.
    tel->metrics().counter("rpc/push_payload_bytes")
        ->Add(static_cast<double>(push_wire_bytes));
    tel->metrics().counter("rpc/pull_payload_bytes")
        ->Add(static_cast<double>(pulls.payload_bytes * num_contributors));
    tel->metrics().counter("rpc/push_stage1_bytes")
        ->Add(static_cast<double>(push_bytes));
    tel->metrics().counter("rpc/pull_stage1_bytes")
        ->Add(static_cast<double>(pulls.stage1_bytes * num_contributors));
    if (block_codec_->id() != blockcodec::kStoreId) {
      tel->metrics().counter("block/encode_bytes_in")
          ->Add(static_cast<double>(pulls.stage1_bytes));
      tel->metrics().counter("block/encode_bytes_out")
          ->Add(static_cast<double>(pulls.payload_bytes));
      if (pulls.incompressible > 0) {
        tel->metrics().counter("block/incompressible_frames")
            ->Add(static_cast<double>(pulls.incompressible));
      }
    }
    obs::StepTelemetry st;
    st.step = step;
    st.loss = mean_loss;
    st.lr = lr;
    st.push_bytes = push_wire_bytes;
    st.pull_bytes = pulls.payload_bytes * num_contributors;
    st.push_values = static_cast<std::size_t>(ps_->plan().TotalElements()) *
                     num_contributors;
    st.pull_values = st.push_values;
    if (st.push_values > 0) {
      st.push_bits_per_value =
          8.0 * static_cast<double>(st.push_bytes) /
          static_cast<double>(st.push_values);
      st.pull_bits_per_value =
          8.0 * static_cast<double>(st.pull_bytes) /
          static_cast<double>(st.pull_values);
    }
    st.codec_seconds =
        1e-9 * static_cast<double>(phases.decode_ns + phases.aggregate_ns +
                                   phases.encode_ns);
    st.contributors = static_cast<int>(num_contributors);
    st.phases_ms = {{"step_barrier", obs::NsToMs(barrier_ns)},
                    {"decode", obs::NsToMs(phases.decode_ns)},
                    {"aggregate", obs::NsToMs(phases.aggregate_ns)},
                    {"optimize", obs::NsToMs(phases.optimize_ns)},
                    {"encode", obs::NsToMs(phases.encode_ns)},
                    {"checkpoint", obs::NsToMs(checkpoint_ns)},
                    {"fan_out", obs::NsToMs(fanout_ns)}};
    tel->LogStep(st);
  }
  return true;
}

RpcServer::PullFrames RpcServer::FramePulls(std::int64_t step) {
  obs::StageProfiler* prof = &obs::StageProfiler::Global();
  const std::size_t num_tensors = ps_->plan().size();
  PullFrames out;
  std::vector<util::ByteBuffer> frames(num_tensors);
  for (std::size_t t = 0; t < num_tensors; ++t) {
    util::ByteSpan payload = ps_->PullPayload(t);
    out.stage1_bytes += payload.size();
    util::ByteBuffer enveloped;
    if (block_codec_->id() != blockcodec::kStoreId) {
      // Second-stage compression of the shared pull bytes — paid once per
      // step no matter how many workers receive the frame (and no extra
      // cost on rejoin replay, which resends these bytes verbatim).
      obs::ScopedStage block_stage(prof, "block_encode");
      const std::uint8_t used =
          blockcodec::EncodeBlock(*block_codec_, payload, enveloped);
      if (used == blockcodec::kStoreId) ++out.incompressible;
      payload = enveloped.span();
    }
    out.payload_bytes += payload.size();
    EncodeFrame(MsgType::kPull, static_cast<std::uint64_t>(step),
                static_cast<std::uint32_t>(t), payload, frames[t]);
  }
  auto& ring = ckpt_state_.replay;
  ring.push_back({static_cast<std::uint64_t>(step), std::move(frames)});
  const auto keep =
      static_cast<std::size_t>(std::max(config_.replay_steps, 1));
  while (ring.size() > keep) ring.pop_front();
  return out;
}

bool RpcServer::ApplyWorkerBuffers() {
  // Mirror of DistributedTrainer::EvaluateGlobalModel, which copies
  // batch-norm running stats from worker 0 into the global model (buffers
  // are updated by forward passes, which only workers run). Every worker
  // ships its buffers in its BYE payload; the lowest surviving worker id
  // is used — worker 0 whenever it survives, matching the in-process
  // trainer bit for bit.
  std::vector<tensor::Tensor*> buffers = ps_->global_model().Buffers();
  const util::ByteBuffer* blob = nullptr;
  std::size_t source = 0;
  for (std::size_t w = 0; w < bye_blobs_.size(); ++w) {
    if (member_state_[w] == Member::kActive && !bye_blobs_[w].empty()) {
      blob = &bye_blobs_[w];
      source = w;
      break;
    }
  }
  if (blob == nullptr) {
    if (buffers.empty()) return true;
    Fail("no surviving worker shipped buffer state in its BYE");
    return false;
  }
  try {
    util::ByteReader reader(*blob);
    const std::uint32_t count = reader.ReadU32();
    if (count != buffers.size()) {
      Fail("BYE buffer count " + std::to_string(count) + " != model's " +
           std::to_string(buffers.size()));
      return false;
    }
    for (tensor::Tensor* buffer : buffers) {
      const std::uint64_t elems = reader.ReadU64();
      if (elems != static_cast<std::uint64_t>(buffer->num_elements())) {
        Fail("BYE buffer element count mismatch: " + std::to_string(elems) +
             " != " + std::to_string(buffer->num_elements()));
        return false;
      }
      reader.ReadInto(buffer->data(), elems * sizeof(float));
    }
    if (!reader.AtEnd()) {
      Fail("trailing bytes in BYE buffer payload");
      return false;
    }
  } catch (const std::exception& e) {
    Fail(std::string("malformed BYE buffer payload: ") + e.what());
    return false;
  }
  if (source != 0) {
    THREELC_LOG(Warn) << "rpc server: applied batch-norm buffers from worker "
                      << source << " (worker 0 did not survive)";
  }
  return true;
}

nn::CheckpointManager& RpcServer::Checkpointer() {
  if (ckpt_ == nullptr) {
    ckpt_ = MakeCheckpointManager(config_, config_.checkpoint_path);
    const int swept = ckpt_->ScanAndSweep();
    if (swept > 0) {
      THREELC_LOG(Warn) << "rpc server: swept " << swept
                        << " stale checkpoint temp file(s) beside "
                        << config_.checkpoint_path;
    }
  }
  return *ckpt_;
}

void RpcServer::PublishStorageHealth() {
  if (config_.telemetry == nullptr) return;
  if (ckpt_ != nullptr) {
    config_.telemetry->metrics().gauge("ckpt/generations")
        ->Set(static_cast<double>(ckpt_->generation_count()));
  }
  if (obs::ClusterView* view = cluster_view()) {
    obs::ClusterView::StorageHealth health;
    health.checkpoints = ckpt_writes_;
    health.write_failures = ckpt_write_failures_;
    health.fallbacks = ckpt_fallbacks_;
    health.generations = ckpt_ != nullptr
                             ? static_cast<std::uint64_t>(
                                   ckpt_->generation_count())
                             : 0;
    health.last_write_ms = last_ckpt_write_ms_;
    health.degraded = ckpt_degraded_;
    view->SetStorageHealth(health);
  }
}

void RpcServer::NoteCheckpointFailure(const std::string& why) {
  ++ckpt_write_failures_;
  AddCounter(config_.telemetry, "ckpt/write_failures", 1.0);
  THREELC_LOG(Warn) << "rpc server: checkpoint write failed: " << why;
  if (config_.telemetry != nullptr) {
    if (obs::FlightRecorder* flight = config_.telemetry->flight_recorder()) {
      obs::HealthEvent event;
      event.severity = obs::HealthSeverity::kWarn;
      event.detector = "ckpt_storage";
      event.step = static_cast<std::uint64_t>(
          std::max<std::int64_t>(current_step_, 0));
      event.message = "checkpoint write failed: " + why;
      flight->RecordEvent(event);
    }
  }
  PublishStorageHealth();
}

void RpcServer::NoteCheckpointSuccess(double write_ms) {
  ++ckpt_writes_;
  last_ckpt_write_ms_ = write_ms;
  if (ckpt_degraded_) {
    ckpt_degraded_ = false;
    RecordMembershipEvent("checkpoint writes recovered (generation " +
                              std::to_string(ckpt_->next_generation() - 1) +
                              " durable)",
                          /*error=*/false);
    bool otherwise_degraded = WaitingWorkers() != 0;
    for (Member m : member_state_) {
      if (m == Member::kEvicted) otherwise_degraded = true;
    }
    if (!otherwise_degraded && health() != nullptr) {
      health()->SetRuntimeState(obs::RuntimeState::kHealthy,
                                "checkpoint writes recovered");
    }
  }
  PublishStorageHealth();
}

bool RpcServer::WriteCheckpoint(std::int64_t next_step, bool force) {
  if (config_.checkpoint_path.empty()) return true;
  const auto every =
      static_cast<std::int64_t>(std::max(config_.checkpoint_every, 1));
  if (!force && next_step % every != 0) return true;

  nn::ServerState& state = ckpt_state_;
  state.epoch = epoch_;
  state.next_step = static_cast<std::uint64_t>(std::max<std::int64_t>(
      next_step, 0));
  if (!state.write_ps_state) {
    state.write_ps_state = [this](util::ByteBuffer& out) {
      ps_->SaveState(out);
    };
  }
  state.evicted.resize(member_state_.size());
  state.greeted.resize(greeted_.size());
  for (std::size_t w = 0; w < member_state_.size(); ++w) {
    state.evicted[w] = member_state_[w] == Member::kEvicted ? 1 : 0;
    state.greeted[w] = greeted_[w] ? 1 : 0;
  }
  step_record_.epoch = state.epoch;
  step_record_.evicted = state.evicted;
  step_record_.greeted = state.greeted;
  // Degraded-but-alive storage posture: a failed write is retried with a
  // linear backoff, and exhaustion degrades the run (recovery is at risk
  // — a crash now replays from the last intact generation) instead of
  // aborting it. The write-ahead invariant holds either way: nothing has
  // been fanned out yet, so the last intact generation still covers
  // everything any worker has seen.
  nn::CheckpointManager& ckpt = Checkpointer();
  const int attempts = 1 + kCheckpointWriteRetries;
  bool written = false;
  std::string last_error;
  util::WallTimer write_timer;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kCheckpointRetryBackoffMs * attempt));
    }
    try {
      // A step record when the manager takes one (it declines after a
      // failed attempt, so a retry writes the full state), else a snapshot.
      if (force || !ckpt.SaveRecord(step_record_)) {
        ckpt.Save(ps_->global_model(), state);
      }
      written = true;
      break;
    } catch (const std::exception& e) {
      last_error = e.what();
      NoteCheckpointFailure("generation " +
                            std::to_string(ckpt.next_generation()) +
                            " attempt " + std::to_string(attempt + 1) + "/" +
                            std::to_string(attempts) + ": " + e.what());
    }
  }
  step_record_.steps.clear();
  if (written) {
    AddCounter(config_.telemetry, "rpc/server_checkpoints", 1.0);
    NoteCheckpointSuccess(write_timer.ElapsedMillis());
  } else if (!ckpt_degraded_) {
    ckpt_degraded_ = true;
    RecordMembershipEvent(
        "checkpoint write failing; recovery at risk (training continues on " +
            std::string(ckpt.generation_count() > 0
                            ? "the last intact generation"
                            : "no durable checkpoint") +
            "): " + last_error,
        /*error=*/true);
    if (health() != nullptr) {
      health()->SetRuntimeState(
          obs::RuntimeState::kDegraded,
          "checkpoint write failing; recovery at risk: " + last_error);
    }
    PublishStorageHealth();
  } else {
    PublishStorageHealth();
  }
  // A torn-rename fault latches a crash request: die here, at the exact
  // point a power loss would have torn the write — before any fan-out, so
  // generation fallback on resume is bitwise-safe.
  if (config_.fs != nullptr && config_.fs->TakeCrashRequest()) {
    SimulatedCrash("injected torn checkpoint write for step " +
                   std::to_string(next_step));
    return false;
  }
  return true;
}

bool RpcServer::ResumeFromCheckpoint(const std::string& path,
                                     std::string* error) {
  // Generation-aware load: newest usable generation under `path`, with
  // last-good fallback past torn/corrupt ones (nn::CheckpointManager).
  nn::CheckpointManager* manager;
  std::unique_ptr<nn::CheckpointManager> scratch;
  if (!config_.checkpoint_path.empty() && path == config_.checkpoint_path) {
    manager = &Checkpointer();
  } else {
    scratch = MakeCheckpointManager(config_, path);
    manager = scratch.get();
  }

  nn::ServerState state;
  std::vector<nn::StepRecord> records;
  std::string load_error;
  if (!manager->Load(ps_->global_model(), &state, &load_error, &records)) {
    if (error != nullptr) {
      *error = "loading server checkpoint '" + path + "': " + load_error;
    }
    return false;
  }
  for (const std::string& line : manager->fallback_log()) {
    THREELC_LOG(Warn) << "rpc server: " << line;
  }
  if (manager->fallbacks() > 0) {
    ckpt_fallbacks_ += static_cast<std::size_t>(manager->fallbacks());
    AddCounter(config_.telemetry, "ckpt/fallbacks",
               static_cast<double>(manager->fallbacks()));
    THREELC_LOG(Warn) << "rpc server: newest checkpoint generation unusable; "
                      << "fell back " << manager->fallbacks()
                      << " generation(s)";
  }
  try {
    util::ByteReader reader(
        util::ByteSpan(state.ps_state.data(), state.ps_state.size()));
    ps_->LoadState(reader);
    if (!reader.AtEnd()) {
      throw std::runtime_error("trailing bytes in parameter-server state");
    }
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = "loading server checkpoint '" + manager->loaded_path() +
               "': " + e.what();
    }
    return false;
  }
  const auto wrong_workers = [&](std::size_t workers) {
    if (workers == member_state_.size()) return false;
    if (error != nullptr) {
      *error = "server checkpoint '" + path + "' was written for " +
               std::to_string(workers) + " workers, not " +
               std::to_string(member_state_.size());
    }
    return true;
  };
  if (wrong_workers(state.evicted.size())) return false;
  ckpt_state_.replay = std::move(state.replay);

  // Redo each recorded step exactly as RunStep took it: the same pushes,
  // contributors and lr bits through ParameterServer::Step, then the same
  // pull framing into the replay ring.
  for (const nn::StepRecord& record : records) {
    if (wrong_workers(record.evicted.size())) return false;
    for (const nn::StepRecord::Step& step : record.steps) {
      try {
        for (std::size_t w : step.contributors) {
          if (step.pushes[w].size() != ps_->plan().size()) {
            throw std::runtime_error(
                "worker " + std::to_string(w) + " has " +
                std::to_string(step.pushes[w].size()) +
                " push payloads, the plan " +
                std::to_string(ps_->plan().size()) + " tensors");
          }
        }
        ps_->Step(step.pushes, step.contributors, step.lr);
      } catch (const std::exception& e) {
        if (error != nullptr) {
          *error = "redoing step " + std::to_string(step.step) +
                   " from the step records after '" +
                   manager->loaded_path() + "': " + e.what();
        }
        return false;
      }
      FramePulls(static_cast<std::int64_t>(step.step));
    }
    state.epoch = record.epoch;
    state.next_step = record.steps.back().step + 1;
    state.evicted = record.evicted;
    state.greeted = record.greeted;
  }

  epoch_ = state.epoch + 1;
  resume_step_ = static_cast<std::int64_t>(state.next_step);
  for (std::size_t w = 0; w < member_state_.size(); ++w) {
    member_state_[w] = state.evicted[w] != 0 ? Member::kEvicted
                                             : Member::kActive;
    greeted_[w] = state.greeted[w] != 0;
  }
  resumed_ = true;
  PublishStorageHealth();
  THREELC_LOG(Info) << "rpc server: resumed from checkpoint '"
                    << manager->loaded_path() << "' and " << records.size()
                    << " step record(s) at step " << resume_step_
                    << " as epoch " << epoch_;
  return true;
}

void RpcServer::SimulatedCrash(const std::string& why) {
  simulated_exit_ = true;
  failed_ = true;
  error_ = why;
  THREELC_LOG(Info) << "rpc server: " << why
                    << (config_.checkpoint_path.empty()
                            ? ""
                            : " (checkpoint at " + config_.checkpoint_path +
                                  ")");
  // Abrupt: no ERROR broadcast, no flush — every socket just vanishes, the
  // way a real crash looks to the workers.
  tcp_.Close();
}

void RpcServer::GracefulStop(const std::string& reason) {
  // Durability first. A write failure degrades rather than fails (the
  // last intact generation still covers every step a worker saw); false
  // here means an injected crash latch fired, which wins over the stop.
  if (!WriteCheckpoint(std::max<std::int64_t>(current_step_, 0),
                       /*force=*/true)) {
    return;
  }
  interrupted_ = true;
  failed_ = true;  // stops the poll loops without Fail()'s kFailed health
  error_ = "interrupted: " + reason;
  THREELC_LOG(Info) << "rpc server: " << error_
                    << (config_.checkpoint_path.empty()
                            ? ""
                            : "; checkpoint at " + config_.checkpoint_path);
  BroadcastError("server interrupted: " + reason);  // workers exit, not hang
}

bool RpcServer::Run() {
  if (!tcp_.listening()) {
    error_ = "server is not listening (call Listen or AdoptListener first)";
    return false;
  }
  obs::Tracer* tracer =
      config_.telemetry != nullptr ? &config_.telemetry->tracer() : nullptr;
  if (tracer != nullptr) tracer->SetTrackName(0, "server");

  if (obs::Telemetry* tel = config_.telemetry) {
    tel->metrics().gauge("rpc/server_epoch")
        ->Set(static_cast<double>(epoch_));
    if (epoch_ > 1) {
      // Restart count is epoch - 1 by construction; exported as a counter
      // so the CI chaos job can assert rpc_server_restarts_total >= 1 on
      // the resumed incarnation.
      tel->metrics().counter("rpc/server_restarts")
          ->Add(static_cast<double>(epoch_ - 1));
    }
  }
  // Persist this incarnation's epoch durably before any handshake can
  // observe it — a crash from here on resumes as epoch_ + 1, so no epoch a
  // worker has seen is ever reused.
  if (!WriteCheckpoint(resume_step_, /*force=*/true)) {
    tcp_.Close();
    return false;
  }

  if (resumed_) {
    // Every worker the previous incarnation greeted (and did not evict) is
    // out there retrying against this port; treat each as freshly
    // disconnected so the grace window — not the handshake count — governs
    // its return, and hold the step barrier until it REJOINs.
    const auto now = std::chrono::steady_clock::now();
    std::size_t returning = 0;
    handshakes_ = 0;
    for (std::size_t w = 0; w < member_state_.size(); ++w) {
      if (greeted_[w]) ++handshakes_;
      if (!greeted_[w] || member_state_[w] == Member::kEvicted) continue;
      member_state_[w] = Member::kWaiting;
      dead_since_[w] = now;
      ++returning;
    }
    steps_completed_ = resume_step_;
    RecordMembershipEvent(
        "server resumed from checkpoint at step " +
            std::to_string(resume_step_) + " (epoch " +
            std::to_string(epoch_) + "); awaiting " +
            std::to_string(returning) + " worker rejoin(s)",
        /*error=*/false);
    if (health() != nullptr) {
      health()->SetRuntimeState(
          obs::RuntimeState::kDegraded,
          "server resumed (epoch " + std::to_string(epoch_) + "); awaiting " +
              std::to_string(returning) + " worker rejoin(s)");
    }
  }

  // Pushes for the first collect step may arrive while slower workers are
  // still shaking hands (or, after a resume, still rejoining).
  BeginCollect(resume_step_);
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "handshake",
                           nullptr, {tracer, 0});
    if (!PollUntil(
            [this] {
              return handshakes_ ==
                     static_cast<std::size_t>(config_.num_workers);
            },
            config_.handshake_timeout_ms, "handshake")) {
      tcp_.Close();
      return false;
    }
  }
  THREELC_LOG(Info) << "rpc server: " << config_.num_workers
                    << " workers handshaken (plan hash " << std::hex
                    << plan_hash_ << std::dec << ", codec '" << codec_name_
                    << "', epoch " << epoch_ << "), running steps "
                    << resume_step_ << ".." << config_.total_steps;

  nn::CosineDecay schedule(config_.lr_max, config_.lr_min,
                           config_.total_steps);
  for (std::int64_t step = resume_step_; step < config_.total_steps;
       ++step) {
    if (!RunStep(step, schedule.At(step))) {
      tcp_.Close();
      return false;
    }
    ++steps_completed_;
    if (config_.fault != nullptr && config_.fault->TakeKillRequest()) {
      SimulatedCrash("injected server kill after step " +
                     std::to_string(step));
      return false;
    }
    if (step == config_.exit_after_step) {
      SimulatedCrash("simulated server crash after step " +
                     std::to_string(step));
      return false;
    }
  }

  // Shutdown: drain remaining pulls, collect a BYE from every surviving
  // worker (a worker inside its grace window holds shutdown open until it
  // rejoins and says BYE, or is evicted), fold in buffers, acknowledge,
  // flush, close.
  const int shutdown_timeout_ms =
      config_.shutdown_timeout_ms + std::max(config_.grace_ms, 0);
  if (!PollUntil(
          [this] {
            return WaitingWorkers() == 0 && byes_ >= ActiveWorkers();
          },
          shutdown_timeout_ms, "shutdown")) {
    tcp_.Close();
    return false;
  }
  if (ActiveWorkers() == 0) {
    Fail("no active workers left at shutdown");
    tcp_.Close();
    return false;
  }
  if (!ApplyWorkerBuffers()) {
    tcp_.Close();
    return false;
  }
  // Graceful-shutdown checkpoint: the final model (including folded-in
  // batch-norm buffers) is durable before any BYE is acknowledged.
  if (!WriteCheckpoint(config_.total_steps, /*force=*/true)) {
    tcp_.Close();
    return false;
  }
  for (std::size_t w = 0; w < worker_conns_.size(); ++w) {
    if (member_state_[w] != Member::kActive) continue;
    Connection* conn = worker_conns_[w];
    if (conn == nullptr ||
        !conn->SendFrame(MsgType::kByeAck, 0, 0, util::ByteSpan())) {
      Fail("sending BYE_ACK: " +
           (conn != nullptr ? conn->last_error() : "connection gone"));
      tcp_.Close();
      return false;
    }
  }
  if (!PollUntil(
          [this] {
            for (Connection* conn : worker_conns_) {
              if (conn != nullptr && conn->open() && conn->wants_write()) {
                return false;
              }
            }
            return true;
          },
          config_.shutdown_timeout_ms, "final flush")) {
    tcp_.Close();
    return false;
  }
  tcp_.Close();
  THREELC_LOG(Info) << "rpc server: clean shutdown after "
                    << steps_completed_.load() << " steps"
                    << (evictions_ > 0
                            ? " (degraded: " + std::to_string(evictions_) +
                                  " worker(s) evicted)"
                            : "");
  return true;
}

// --- RpcWorker -------------------------------------------------------------

RpcWorker::RpcWorker(RpcWorkerConfig config, ps::Worker& worker,
                     const ps::TensorPlan& plan, std::string codec_name,
                     data::Sampler sampler)
    : config_(std::move(config)),
      worker_(&worker),
      plan_(&plan),
      codec_name_(std::move(codec_name)),
      block_codec_(blockcodec::Find(config_.block_codec)),
      sampler_(std::move(sampler)),
      metrics_(config_.telemetry != nullptr
                   ? TransportMetrics::RegisterIn(config_.telemetry->metrics())
                   : TransportMetrics{}) {
  THREELC_CHECK_MSG(block_codec_ != nullptr,
                    "unknown block codec '" << config_.block_codec
                                            << "' (known: "
                                            << blockcodec::KnownNames()
                                            << ")");
}

bool RpcWorker::Fail(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    error_ = message;
    ReportFault(config_.telemetry,
                "rpc worker " + std::to_string(config_.worker_id), message);
  }
  return false;
}

bool RpcWorker::Flush(Connection& conn) {
  const Connection::IoResult r = conn.FlushOutput(config_.io_timeout_ms);
  if (r == Connection::IoResult::kTimeout && metrics_.timeouts != nullptr) {
    metrics_.timeouts->Add(1.0);
  }
  return r == Connection::IoResult::kOk;
}

Connection::IoResult RpcWorker::WaitDataFrame(Connection& conn, Frame* frame,
                                              int timeout_ms) {
  // With leases off (lease_ms == 0) each data frame is one blocking
  // WaitFrame. With leases on the wait is sliced: a HEARTBEAT beacon goes
  // out on the cadence (keeping the server's lease on this worker fresh
  // while it blocks), any received frame resets the silence clock, and
  // lease_ms of total server silence closes the connection early — the
  // bound that keeps a hung or one-way-partitioned server from costing
  // the full timeout_ms.
  const bool lease_on = config_.lease_ms > 0;
  const int cadence = HeartbeatCadenceMs(config_.heartbeat_ms, config_.lease_ms);
  util::WallTimer total_timer;
  util::WallTimer silence_timer;
  double next_beat_ms = 0.0;  // beacon immediately on entering the wait
  for (;;) {
    const int remaining =
        timeout_ms - static_cast<int>(total_timer.ElapsedMillis());
    if (remaining <= 0) {
      if (metrics_.timeouts != nullptr) metrics_.timeouts->Add(1.0);
      return Connection::IoResult::kTimeout;
    }
    int slice = remaining;
    if (lease_on) {
      const double silent_ms = silence_timer.ElapsedMillis();
      if (silent_ms >= config_.lease_ms) {
        THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                          << ": server lease expired (no frame for "
                          << static_cast<int>(silent_ms) << " ms, lease "
                          << config_.lease_ms
                          << " ms); treating the connection as dead";
        AddCounter(config_.telemetry, "rpc/lease_expiries", 1.0);
        conn.Close();
        return Connection::IoResult::kClosed;
      }
      if (total_timer.ElapsedMillis() >= next_beat_ms) {
        HeartbeatPayload beat;
        beat.role = 0;
        beat.seq = heartbeat_seq_++;
        beat.progress = static_cast<std::uint64_t>(
            std::max<std::int64_t>(computed_through_, 0));
        util::ByteBuffer payload;
        EncodeHeartbeat(beat, payload);
        // Best-effort: a failed queue (backpressure, closed) surfaces via
        // the lease or the next real send, not via the beacon.
        if (conn.SendFrame(MsgType::kHeartbeat, 0, 0, payload.span())) {
          AddCounter(config_.telemetry, "rpc/heartbeats_sent", 1.0);
        }
        next_beat_ms = total_timer.ElapsedMillis() + cadence;
      }
      slice = std::min({slice, cadence,
                        config_.lease_ms -
                            static_cast<int>(silence_timer.ElapsedMillis())});
      slice = std::max(slice, 1);
    }
    const Connection::IoResult r = conn.WaitFrame(frame, slice);
    // A slice that ran out is the lease/beacon clock ticking; the deadline
    // check above decides whether the wait as a whole timed out.
    if (r == Connection::IoResult::kTimeout) continue;
    if (r != Connection::IoResult::kOk) return r;
    silence_timer.Reset();
    const MsgType type = frame->header.type;
    if (type != MsgType::kHeartbeat && type != MsgType::kEvict) return r;
    // Liveness beacon (the silence reset above is its payload) or
    // membership news about another worker; decoded as strictly as the
    // server decodes its inbound frames.
    try {
      if (type == MsgType::kHeartbeat) {
        DecodeHeartbeat(frame->payload.span());
        AddCounter(config_.telemetry, "rpc/heartbeats_received", 1.0);
      } else {
        util::ByteReader reader(frame->payload);
        const std::uint32_t evicted = reader.ReadU32();
        if (!reader.AtEnd()) throw std::runtime_error("trailing bytes");
        THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                          << ": server evicted worker " << evicted;
      }
    } catch (const std::exception& e) {
      Fail(std::string("malformed ") + MsgTypeName(type) + " payload: " +
           e.what());
      return Connection::IoResult::kError;
    }
  }
}

bool RpcWorker::Handshake(Connection& conn, bool rejoin,
                          std::int64_t* collect_step) {
  const std::string kind = rejoin ? "REJOIN" : "HELLO";
  HandshakePayload payload;
  payload.worker_id = static_cast<std::uint32_t>(config_.worker_id);
  payload.plan_hash = PlanHash(*plan_, codec_name_);
  payload.codec = codec_name_;
  payload.block_codec = block_codec_->id();
  // The last incarnation seen: 0 for a fresh HELLO, and for a REJOIN from a
  // process that restarted from its checkpoint and never completed a
  // handshake (the server accepts any epoch <= its own).
  payload.epoch = server_epoch_;
  payload.next_step = static_cast<std::uint64_t>(next_apply_);
  util::ByteBuffer hello;
  EncodeHandshake(payload, rejoin, hello);
  // A REJOIN whose connection dies before the ack fails softly, like one
  // lost mid-replay: e.g. the connect landed in a crashing server's listen
  // backlog and was reset. The caller spends another reconnect attempt.
  const auto lost = [&](const std::string& what) {
    if (!rejoin || failed_) return Fail(what);
    THREELC_LOG(Warn) << "rpc worker " << config_.worker_id << ": " << what;
    return false;
  };
  if (!conn.SendFrame(rejoin ? MsgType::kRejoin : MsgType::kHello, 0, 0,
                      hello.span())) {
    return lost("sending " + kind + ": " + conn.last_error());
  }
  if (!Flush(conn)) return lost("flushing " + kind + ": " + conn.last_error());
  const std::string ack_name = kind + "_ACK";
  Frame ack;
  const Connection::IoResult r =
      WaitDataFrame(conn, &ack, config_.handshake_timeout_ms);
  if (r != Connection::IoResult::kOk) {
    const std::string what =
        "waiting for " + ack_name + ": " + DescribeWait(r, conn);
    return r == Connection::IoResult::kTimeout ? Fail(what) : lost(what);
  }
  if (ack.header.type == MsgType::kError) {
    return Fail("server rejected " + std::string(rejoin ? "rejoin" : "handshake") +
                ": " + PayloadString(ack));
  }
  if (ack.header.type != (rejoin ? MsgType::kRejoinAck : MsgType::kHelloAck)) {
    return Fail("expected " + ack_name + ", got " +
                MsgTypeName(ack.header.type));
  }
  try {
    const HandshakeAckPayload ackp =
        DecodeHandshakeAck(ack.payload.span(), rejoin);
    num_workers_ = static_cast<int>(ackp.num_workers);
    total_steps_ = static_cast<std::int64_t>(ackp.total_steps);
    if (ackp.plan_hash != PlanHash(*plan_, codec_name_)) {
      return Fail(ack_name + " plan hash mismatch");
    }
    if (ackp.block_codec != block_codec_->id()) {
      return Fail(ack_name + " block-codec mismatch: server negotiated id " +
                  std::to_string(static_cast<int>(ackp.block_codec)) +
                  ", worker runs '" + std::string(block_codec_->name()) +
                  "' (id " + std::to_string(static_cast<int>(
                                 block_codec_->id())) + ")");
    }
    if (ackp.epoch == 0) {
      return Fail(ack_name + " carries epoch 0 (every server incarnation is "
                  "numbered from 1)");
    }
    if (server_epoch_ != 0 && ackp.epoch < server_epoch_) {
      // A server can only ever move forward: epoch_ is persisted before any
      // handshake. Regression means we connected to a stale deployment.
      return Fail("stale server: epoch regressed from " +
                  std::to_string(server_epoch_) + " to " +
                  std::to_string(ackp.epoch));
    }
    if (server_epoch_ != 0 && ackp.epoch > server_epoch_) {
      THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                        << ": server restarted from its checkpoint (epoch "
                        << server_epoch_ << " -> " << ackp.epoch
                        << "); re-synced via rejoin";
    }
    server_epoch_ = ackp.epoch;
    if (rejoin) *collect_step = static_cast<std::int64_t>(ackp.collect_step);
  } catch (const std::exception& e) {
    return Fail("malformed " + ack_name + ": " + e.what());
  }
  if (!rejoin) return true;
  if (*collect_step < next_apply_) {
    return Fail("REJOIN_ACK collect step " + std::to_string(*collect_step) +
                " behind worker resume step " + std::to_string(next_apply_));
  }
  THREELC_LOG(Info) << "rpc worker " << config_.worker_id
                    << ": rejoined at server step " << *collect_step
                    << " (resuming from step " << next_apply_ << ")";
  return true;
}

obs::SpanTarget RpcWorker::StepSpan(std::int64_t step) const {
  return {config_.telemetry != nullptr ? &config_.telemetry->tracer() : nullptr,
          1 + config_.worker_id, step};
}

void RpcWorker::ComputeStep(std::int64_t step) {
  // The phase scopes fill the TELEMETRY record's ns fields even with the
  // profiler and tracer off: spawned workers run with no Telemetry at all,
  // and these numbers ship to the server in the step's TELEMETRY frame
  // either way.
  obs::StageProfiler* prof = &obs::StageProfiler::Global();
  const obs::SpanTarget span = StepSpan(step);
  pending_telemetry_ = obs::WorkerStepRecord{};
  {
    obs::ScopedStage stage(prof, "forward_backward",
                           &pending_telemetry_.forward_backward_ns, span);
    data::Batch batch = sampler_.Next(config_.batch_size);
    pending_loss_ = static_cast<float>(
        worker_->model().TrainStep(batch.inputs, batch.labels).loss);
  }
  obs::ScopedStage stage(prof, "encode", &pending_telemetry_.encode_ns, span);
  const std::size_t num_tensors = plan_->size();
  pending_push_.resize(num_tensors);
  for (std::size_t t = 0; t < num_tensors; ++t) {
    pending_push_[t].Clear();
    worker_->EncodePush(t, pending_push_[t]);
    pending_telemetry_.stage1_bytes_out += pending_push_[t].size();
  }
  if (block_codec_->id() != blockcodec::kStoreId) {
    // Wrap each push in the negotiated block envelope. pending_push_
    // keeps the wrapped bytes, so a resend after a reconnect ships the
    // identical wire payload without re-running either codec stage.
    obs::ScopedStage block_stage(prof, "block_encode");
    for (std::size_t t = 0; t < num_tensors; ++t) {
      util::ByteBuffer wrapped;
      blockcodec::EncodeBlock(*block_codec_, pending_push_[t].span(),
                              wrapped);
      pending_push_[t] = std::move(wrapped);
    }
  }
  for (std::size_t t = 0; t < num_tensors; ++t) {
    pending_telemetry_.bytes_out += pending_push_[t].size();
  }
  computed_through_ = step;
}

bool RpcWorker::UnwrapPull(std::size_t t, util::ByteBuffer& payload) {
  if (block_codec_->id() == blockcodec::kStoreId) return true;
  try {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "block_decode");
    util::ByteBuffer decoded;
    blockcodec::DecodeBlock(payload.span(), kMaxPayloadBytes, decoded);
    payload = std::move(decoded);
  } catch (const std::exception& e) {
    return Fail("decoding block envelope of PULL tensor " +
                std::to_string(t) + ": " + e.what());
  }
  return true;
}

RpcWorker::StepStatus RpcWorker::ReceivePulls(std::int64_t step, bool live) {
  // A replayed step feeds no profiler stage, span or TELEMETRY record.
  obs::StageProfiler* prof = live ? &obs::StageProfiler::Global() : nullptr;
  const obs::SpanTarget span = live ? StepSpan(step) : obs::SpanTarget{};
  obs::WorkerStepRecord replayed;
  obs::WorkerStepRecord& record = live ? pending_telemetry_ : replayed;
  const std::size_t num_tensors = plan_->size();
  std::vector<util::ByteBuffer> pulls(num_tensors);
  {
    obs::ScopedStage stage(prof, "pull_wait", &record.pull_wait_ns, span);
    // The record's EA norm, read while the server works on this step: the
    // step's pushes are flushed and nothing moves the push residuals until
    // the next step's encode. A replayed step ships no record.
    if (live) record.ea_l2 = worker_->ResidualL2();
    for (std::size_t t = 0; t < num_tensors; ++t) {
      Frame frame;
      const Connection::IoResult r =
          WaitDataFrame(*conn_, &frame, config_.pull_timeout_ms);
      if (failed_) return StepStatus::kFailed;
      if (r != Connection::IoResult::kOk) {
        THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                          << ": waiting for PULL step " << step << " tensor "
                          << t << (live ? "" : " (replay)")
                          << " failed: " << DescribeWait(r, *conn_);
        return StepStatus::kRetry;
      }
      if (frame.header.type == MsgType::kError) {
        Fail("server error: " + PayloadString(frame));
        return StepStatus::kFailed;
      }
      if (frame.header.type != MsgType::kPull ||
          frame.header.step != static_cast<std::uint64_t>(step) ||
          frame.header.tensor != static_cast<std::uint32_t>(t)) {
        std::ostringstream oss;
        oss << "protocol violation" << (live ? "" : " during replay")
            << ": expected PULL step " << step << " tensor " << t << ", got "
            << MsgTypeName(frame.header.type) << " step " << frame.header.step
            << " tensor " << frame.header.tensor;
        Fail(oss.str());
        return StepStatus::kFailed;
      }
      pulls[t] = std::move(frame.payload);
    }
  }
  obs::ScopedStage stage(prof, "decode", &record.decode_ns, span);
  for (std::size_t t = 0; t < num_tensors; ++t) {
    record.bytes_in += pulls[t].size();
    if (!UnwrapPull(t, pulls[t])) return StepStatus::kFailed;
    record.stage1_bytes_in += pulls[t].size();
    try {
      util::ByteReader reader(pulls[t]);
      worker_->ApplyPull(t, reader);
      if (!reader.AtEnd()) {
        Fail("trailing bytes in PULL payload for step " +
             std::to_string(step) + " tensor " + std::to_string(t));
        return StepStatus::kFailed;
      }
    } catch (const std::exception& e) {
      Fail("applying PULL step " + std::to_string(step) + " tensor " +
           std::to_string(t) + ": " + e.what());
      return StepStatus::kFailed;
    }
  }
  ++next_apply_;
  return StepStatus::kOk;
}

RpcWorker::StepStatus RpcWorker::ReplayTo(std::int64_t collect_step) {
  while (next_apply_ < collect_step) {
    // Advance the local state machine exactly as the original pass did:
    // sample the batch, run forward/backward, and encode the pushes (which
    // moves the EA buffers) — then discard the sends, since the server
    // already aggregated bitwise-identical bytes.
    if (computed_through_ < next_apply_) ComputeStep(next_apply_);
    const StepStatus status = ReceivePulls(next_apply_, /*live=*/false);
    if (status != StepStatus::kOk) return status;
    ++steps_run_;
  }
  return StepStatus::kOk;
}

bool RpcWorker::Connect(bool rejoin_mode) {
  RetryOptions retry = config_.retry;
  if (retry.jitter_seed == 0) {
    // Give each worker a distinct deterministic backoff schedule so a
    // fleet reconnecting after a server blip does not stampede in lockstep.
    retry.jitter_seed =
        0x334C4333ull ^ (static_cast<std::uint64_t>(config_.worker_id) + 1);
  }
  std::string connect_error;
  const int fd = ConnectWithRetry(config_.host, config_.port, retry,
                                  &metrics_, &connect_error);
  if (fd < 0) {
    if (rejoin_mode) {
      // Soft failure: one exhausted connect budget (attempts + deadline)
      // consumes one reconnect attempt, so Reconnect()'s max_reconnects —
      // the same policy that governs mid-run drops — bounds the total
      // spend. A restarting server (epoch bump) is typically back within
      // one or two budgets.
      THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                        << ": reconnect attempt failed: " << connect_error;
      return false;
    }
    return Fail(connect_error);
  }
  conn_ = std::make_unique<Connection>(fd, &metrics_);
  if (config_.fault != nullptr) conn_->set_fault_injector(config_.fault);

  obs::ScopedStage stage(&obs::StageProfiler::Global(),
                         rejoin_mode ? "rejoin" : "handshake", nullptr,
                         StepSpan(-1));
  std::int64_t collect_step = next_apply_;  // a HELLO replays nothing
  if (!Handshake(*conn_, rejoin_mode, &collect_step)) return false;
  // kRetry leaves failed_ unset: the caller may spend another reconnect
  // attempt on a fresh REJOIN.
  return ReplayTo(collect_step) == StepStatus::kOk;
}

bool RpcWorker::Reconnect() {
  if (conn_ != nullptr) conn_->Close();
  while (!failed_) {
    if (reconnects_ >=
        static_cast<std::size_t>(std::max(config_.max_reconnects, 0))) {
      return Fail("connection to server lost and reconnect budget (" +
                  std::to_string(config_.max_reconnects) + ") exhausted");
    }
    ++reconnects_;
    AddCounter(config_.telemetry, "rpc/reconnects", 1.0);
    THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                      << ": reconnecting (attempt " << reconnects_ << " of "
                      << config_.max_reconnects << ")";
    if (Connect(/*rejoin_mode=*/true)) return true;
    // A hard failure during rejoin set failed_ and ends the loop; a soft
    // one (the new connection died mid-replay) consumes another attempt.
  }
  return false;
}

RpcWorker::StepStatus RpcWorker::RunStep(std::int64_t step) {
  const std::size_t num_tensors = plan_->size();

  // Forward/backward + encode runs at most once per step, no matter how
  // many times the sends are retried across reconnects — re-encoding would
  // advance the error-accumulation buffers twice and silently fork the
  // trajectory. Retries resend the identical stored bytes.
  if (computed_through_ < step) ComputeStep(step);

  // The transport half of the TELEMETRY record. A step retried after a
  // reconnect adds every attempt's push (and wait) time to the same record.
  {
    obs::ScopedStage stage(&obs::StageProfiler::Global(), "push",
                           &pending_telemetry_.push_ns, StepSpan(step));
    for (std::size_t t = 0; t < num_tensors; ++t) {
      if (!conn_->SendFrame(MsgType::kPush, static_cast<std::uint64_t>(step),
                            static_cast<std::uint32_t>(t),
                            pending_push_[t].span())) {
        THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                          << ": queueing PUSH tensor " << t << " failed: "
                          << conn_->last_error();
        return StepStatus::kRetry;
      }
    }
    util::ByteBuffer stats;
    stats.AppendF32(pending_loss_);
    if (!conn_->SendFrame(MsgType::kStepStats,
                          static_cast<std::uint64_t>(step), 0, stats.span())) {
      THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                        << ": queueing STEP_STATS failed: "
                        << conn_->last_error();
      return StepStatus::kRetry;
    }
    if (!Flush(*conn_)) {
      THREELC_LOG(Warn) << "rpc worker " << config_.worker_id
                        << ": flushing step " << step << " pushes failed: "
                        << conn_->last_error();
      return StepStatus::kRetry;
    }
  }
  const StepStatus status = ReceivePulls(step, /*live=*/true);
  if (status != StepStatus::kOk) return status;
  // Ship the completed step's telemetry record. Best-effort by design:
  // it is queued here and rides out with the next step's pushes (or the
  // BYE flush); a send failure is surfaced by the next real send, not by
  // the record, and a resent step resends it (the server dedups by step).
  pending_telemetry_.rejoins = static_cast<std::uint32_t>(reconnects_);
  util::ByteBuffer record;
  EncodeTelemetry(pending_telemetry_, record);
  conn_->SendFrame(MsgType::kTelemetry, static_cast<std::uint64_t>(step), 0,
                   record.span());
  return StepStatus::kOk;
}

void RpcWorker::WriteResumeCheckpoint() {
  // Checkpoint timing invariant: after completing step k, the model has
  // k's pulls applied, the EA buffers have advanced through k's encode,
  // the sampler has consumed k's batch, and next_step is k + 1 — exactly
  // the state a fault-free worker would carry into step k + 1.
  nn::TrainState state;
  state.next_step = static_cast<std::uint64_t>(next_apply_);
  util::ByteBuffer codec_blob;
  worker_->SaveCodecState(codec_blob);
  state.codec_state.assign(codec_blob.data(),
                           codec_blob.data() + codec_blob.size());
  util::ByteBuffer sampler_blob;
  sampler_.SaveState(sampler_blob);
  state.sampler_state.assign(sampler_blob.data(),
                             sampler_blob.data() + sampler_blob.size());
  nn::SaveCheckpointWithState(worker_->model(), state, config_.checkpoint_path,
                              config_.block_codec);
}

bool RpcWorker::RestoreCheckpoint() {
  const std::string& path = config_.checkpoint_path;
  try {
    nn::TrainState state;
    nn::LoadCheckpointState(worker_->model(), &state, path);
    util::ByteReader codec_reader(
        util::ByteSpan(state.codec_state.data(), state.codec_state.size()));
    worker_->LoadCodecState(codec_reader);
    util::ByteReader sampler_reader(util::ByteSpan(
        state.sampler_state.data(), state.sampler_state.size()));
    sampler_.LoadState(sampler_reader);
    next_apply_ = static_cast<std::int64_t>(state.next_step);
    computed_through_ = next_apply_ - 1;
  } catch (const std::exception& e) {
    return Fail("cannot resume from checkpoint '" + path + "': " + e.what());
  }
  THREELC_LOG(Info) << "rpc worker " << config_.worker_id
                    << ": resuming from " << path << " at step "
                    << next_apply_;
  return true;
}

void RpcWorker::SimulateCrash(std::int64_t step) {
  const bool checkpointed = !config_.checkpoint_path.empty();
  if (checkpointed) WriteResumeCheckpoint();
  conn_->Close();  // abrupt: no BYE — the server sees a mid-run disconnect
  simulated_exit_ = true;
  failed_ = true;
  error_ = "simulated crash after step " + std::to_string(step);
  THREELC_LOG(Info) << "rpc worker " << config_.worker_id << ": " << error_
                    << (checkpointed ? " (checkpoint at " +
                                           config_.checkpoint_path + ")"
                                     : "");
}

void RpcWorker::GracefulStop() {
  std::string note;
  if (!config_.checkpoint_path.empty()) {
    try {
      WriteResumeCheckpoint();
      note = "; checkpoint at " + config_.checkpoint_path;
    } catch (const std::exception& e) {
      THREELC_LOG(Error) << "rpc worker " << config_.worker_id
                         << ": writing stop checkpoint: " << e.what();
      note = "; stop checkpoint FAILED";
    }
  }
  if (conn_ != nullptr) conn_->Close();
  interrupted_ = true;
  failed_ = true;  // stops Run without poisoning health via Fail()
  error_ = "interrupted: stop signal";
  THREELC_LOG(Info) << "rpc worker " << config_.worker_id << ": " << error_
                    << note;
}

bool RpcWorker::SayBye(Connection& conn) {
  // Every worker ships its batch-norm running stats; the server applies
  // the lowest surviving id's — worker 0's whenever it is alive, matching
  // DistributedTrainer::EvaluateGlobalModel's CopyBuffersFrom(worker 0).
  util::ByteBuffer payload;
  std::vector<tensor::Tensor*> buffers = worker_->model().Buffers();
  payload.AppendU32(static_cast<std::uint32_t>(buffers.size()));
  for (const tensor::Tensor* buffer : buffers) {
    payload.AppendU64(static_cast<std::uint64_t>(buffer->num_elements()));
    payload.Append(buffer->data(),
                   static_cast<std::size_t>(buffer->num_elements()) *
                       sizeof(float));
  }
  if (!conn.SendFrame(MsgType::kBye, 0, 0, payload.span())) {
    return Fail("queueing BYE: " + conn.last_error());
  }
  if (!Flush(conn)) return Fail("flushing BYE: " + conn.last_error());
  Frame ack;
  const Connection::IoResult r =
      WaitDataFrame(conn, &ack, config_.io_timeout_ms);
  if (r == Connection::IoResult::kClosed) return true;  // server won the race
  if (r != Connection::IoResult::kOk) {
    return Fail("waiting for BYE_ACK: " + DescribeWait(r, conn));
  }
  if (ack.header.type == MsgType::kError) {
    return Fail("server error at shutdown: " + PayloadString(ack));
  }
  if (ack.header.type != MsgType::kByeAck) {
    return Fail(std::string("expected BYE_ACK, got ") +
                MsgTypeName(ack.header.type));
  }
  return true;
}

bool RpcWorker::Run() {
  obs::Tracer* tracer =
      config_.telemetry != nullptr ? &config_.telemetry->tracer() : nullptr;
  const int track = 1 + config_.worker_id;
  if (tracer != nullptr) {
    tracer->SetTrackName(track,
                         "worker " + std::to_string(config_.worker_id));
  }
  if (config_.rejoin && !RestoreCheckpoint()) return false;
  if (!Connect(config_.rejoin)) {
    if (failed_) return false;
    // The rejoin replay died on a soft fault; spend reconnect budget.
    if (!Reconnect()) return false;
  }
  THREELC_LOG(Info) << "rpc worker " << config_.worker_id << ": handshaken ("
                    << num_workers_ << " workers, " << total_steps_
                    << " steps)";
  while (next_apply_ < total_steps_) {
    if (config_.stop_flag != nullptr &&
        config_.stop_flag->load(std::memory_order_acquire)) {
      GracefulStop();
      return false;
    }
    const std::int64_t step = next_apply_;
    const StepStatus status = RunStep(step);
    if (status == StepStatus::kFailed) return false;
    if (status == StepStatus::kRetry) {
      if (!Reconnect()) return false;
      continue;
    }
    ++steps_run_;
    if (step == config_.exit_after_step) {
      SimulateCrash(step);
      return false;
    }
  }
  if (!SayBye(*conn_)) return false;
  conn_->Close();
  THREELC_LOG(Info) << "rpc worker " << config_.worker_id
                    << ": clean shutdown after " << steps_run_ << " steps"
                    << (reconnects_ > 0
                            ? " (" + std::to_string(reconnects_) +
                                  " reconnect(s))"
                            : "");
  return true;
}

}  // namespace threelc::rpc
