// Deterministic fault injection for the TCP runtime's chaos testing.
//
// A FaultInjector sits on a Connection's outbound path and decides, per
// frame, whether to tamper with it: drop it, delay the enqueue, flip a
// payload byte (the receiver's CRC check then kills the connection),
// truncate the frame and close, or close the connection outright. Every
// decision is a pure function of (seed, rule set, frame sequence) — no
// wall clock, no global randomness — so a chaos run is replayable: the
// same seed produces the identical fault schedule, byte for byte, which
// the schedule log (one line per injected fault) makes checkable.
//
// Rules are matched in order; the first rule that matches a frame's
// (type, step) and whose occurrence/probability gate passes fires. Rule
// sets are built programmatically (AddRule) or parsed from a compact spec
// string (one rule per ';'):
//
//   ACTION:TYPE@STEP[#OCCURRENCE]
//
//   ACTION      drop | corrupt | trunc | close | killserver | stall
//               | delay<ms>  (e.g. delay250)
//   TYPE        hello | push | stats | pull | bye | rejoin | heartbeat | any
//   STEP        a step number, or any
//   OCCURRENCE  fire only on the Nth matching frame (0-based, default 0),
//               or * to fire on every match
//
// plus the partition form, whose direction token rides in the TYPE slot
// (a partition severs the whole connection's direction, not one frame
// type):
//
//   partition:rx|tx|both@STEP[#OCCURRENCE]
//
// Examples: "corrupt:push@2" (flip a byte in the first PUSH of step 2),
// "close:pull@5" (kill the connection while fanning out step 5's pulls),
// "delay200:push@any#*" (delay every push by 200 ms),
// "killserver:pull@5" (crash the server as it starts fanning out step 5's
// pulls),
// "stall:push@3" (freeze the endpoint at step 3's first push: it stops
// reading AND writing without closing, like a SIGSTOP'd process — its
// write queue grows until backpressure), "partition:tx@3" (one-way
// outage: everything this endpoint sends from step 3's first frame on is
// silently lost in the network while it still receives).
//
// One injector instance belongs to one endpoint (one worker process or the
// server); sharing an instance across concurrently-sending endpoints would
// make the occurrence counters race-order dependent and break replay.
// Successive incarnations of one endpoint may share an instance — and a
// crash drill should: a restarted server keeps the injector its crashed
// predecessor used, so a rule that already fired stays spent and the
// resumed incarnation's replay of step K does not die at step K again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/frame.h"
#include "util/rng.h"

namespace threelc::rpc {

enum class FaultAction : std::uint8_t {
  kNone = 0,
  kDrop,      // swallow the frame; the sender believes it was sent
  kDelay,     // sleep delay_ms before queueing (simulates a slow link)
  kCorrupt,   // flip one frame byte; receiver fails CRC and disconnects
  kTruncate,  // send only a frame prefix, then close
  kClose,     // close the connection instead of sending
  // Kill the whole sending endpoint, not just one connection: the frame is
  // not sent, the connection closes, and the injector latches a kill
  // request for the endpoint's event loop to take (TakeKillRequest). On
  // the server this simulates a parameter-server crash at an exact,
  // deterministic point (RpcServer takes the latch and dies abruptly — no
  // ERROR broadcast, sockets dropped mid-step — so recovery is exercised
  // from its checkpoint). "killserver:pull@K" dies at step K's first PULL
  // send: after step K's write-ahead checkpoint, before any byte of the
  // fan-out leaves. Spec token: "killserver".
  kKillServer,
  // Freeze the connection without closing it: from the triggering frame
  // on, the endpoint neither reads nor flushes — the socket stays open,
  // the peer sees silence, and this endpoint's bounded write queue grows
  // until backpressure rejects. Models a SIGSTOP'd/wedged process or a
  // half-open socket. The triggering frame is queued but never flushed.
  kStall,
  // One- or two-way network partition: rx stops delivering inbound bytes
  // to this endpoint, tx silently discards its outbound bytes (the app's
  // sends "succeed" — the packets are lost in the network), both does
  // both. Unlike kStall the tx side keeps draining, so the write queue
  // never backpressures. The triggering frame is lost for tx/both.
  kPartition,
};

// Direction of a kPartition rule (which half of the connection is cut,
// from the injected endpoint's point of view).
enum class PartitionDirection : std::uint8_t { kRx = 0, kTx, kBoth };

const char* FaultActionName(FaultAction action);
const char* PartitionDirectionName(PartitionDirection direction);

struct FaultRule {
  FaultAction action = FaultAction::kNone;
  bool any_type = true;
  MsgType type = MsgType::kError;  // matched when !any_type
  bool any_step = true;
  std::uint64_t step = 0;  // matched when !any_step
  // Fire on the Nth (0-based) matching frame only; every_match fires on
  // all of them (e.g. a persistent delay).
  int occurrence = 0;
  bool every_match = false;
  int delay_ms = 0;  // kDelay only
  PartitionDirection direction = PartitionDirection::kBoth;  // kPartition only
};

// The injector's verdict for one outbound frame.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  int delay_ms = 0;
  // For kCorrupt: which byte of the frame to flip (already reduced modulo
  // the frame size). For kTruncate: how many prefix bytes survive.
  std::size_t byte_offset = 0;
  PartitionDirection direction = PartitionDirection::kBoth;  // kPartition
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0);

  void AddRule(const FaultRule& rule);
  std::size_t rule_count() const { return rules_.size(); }

  // Parse a spec string (see file comment) into rules. Returns false with
  // *error set on malformed input; on success appends to *out.
  static bool ParseSpec(const std::string& spec, std::vector<FaultRule>* out,
                        std::string* error);
  // ParseSpec + AddRule for every parsed rule.
  bool AddRulesFromSpec(const std::string& spec, std::string* error);

  // Decide the fate of one outbound frame (frame_bytes = full wire size
  // including header). Deterministic for a fixed (seed, rules, sequence of
  // OnSend calls).
  FaultDecision OnSend(MsgType type, std::uint64_t step,
                       std::size_t frame_bytes);

  // Faults actually injected (decisions other than kNone).
  std::size_t faults_injected() const { return faults_; }

  // Latched by a kKillServer decision; the owning endpoint's event loop
  // takes it (after any send) to die at the injected point. Check-and-
  // clear, like util::Fs::TakeCrashRequest, so a resumed incarnation
  // sharing this injector is not killed by its predecessor's request.
  bool TakeKillRequest() {
    const bool requested = kill_requested_;
    kill_requested_ = false;
    return requested;
  }

  // One line per injected fault: "<action> <TYPE> step=<s> byte=<o>".
  // Two runs with the same seed and traffic produce identical logs — the
  // replayability contract the chaos tests assert.
  const std::vector<std::string>& schedule_log() const { return log_; }

 private:
  struct RuleState {
    FaultRule rule;
    int matches = 0;  // frames that matched (type, step)
    bool fired = false;
  };

  std::vector<RuleState> rules_;
  util::Rng rng_;
  std::vector<std::string> log_;
  std::size_t faults_ = 0;
  bool kill_requested_ = false;
};

}  // namespace threelc::rpc
