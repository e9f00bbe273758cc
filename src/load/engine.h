// LoadEngine: an open-loop workload engine driving thousands of client
// sessions from ONE simulated thread per client node.
//
// Sessions are lightweight, not SimThreads: a 10k-session run costs 10k
// small structs, not 10k stacks. Each session follows a deterministic
// open-loop arrival schedule (exponential gaps at its share of the
// offered rate, drawn from a per-session RNG) and runs one RKV
// operation at a time as a kv::SlotOp. Its steps reach the wire through
// kv::StepIssuer, the one step-to-verbs path, which KvStore's blocking
// session uses too. The engine drives the sessions around it: admission,
// backoff timers, resuming an op when the issuer reports its step done,
// and rtrace stages per round trip. A read is one round trip; an
// uncontended update three (probe, CAS + re-check, payload + release).
// Writes of one key run one at a time per engine (key_claims.h): a write
// that finds its key held joins the holder's batch while the holder has
// not posted its payload write, else parks for a later batch; every
// write of a batch completes with its holder's one remote write.
//
// Coordinated-omission safety: every operation's latency is measured
// from its *intended* send time under the arrival schedule. When a
// session falls behind (its previous op is still in flight, or admission
// deferred it), the next op's intended time does not slip — the op
// starts late and the queueing delay lands in the histogram, where it
// belongs.
//
// The engine's main loop is also where load-adaptive doorbell batching
// and CQ interrupt moderation live: each scheduling round drains ready
// completions, resumes due retries, starts due arrivals, charges modeled
// CPU for the session steps it ran, and flushes the mux once — so one
// doorbell chain carries everything the round produced, and the CQ wake
// threshold scales with the in-flight count.
//
// Determinism: one engine per client node, no shared mutable state
// between engines (admission is engine-local; see admission.h), every
// scheduling decision a pure function of simulated state — so runs are
// bit-identical and clean under rcheck.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/client.h"
#include "kv/slot_op.h"
#include "kv/step_issuer.h"
#include "load/admission.h"
#include "load/hotkeys.h"
#include "load/key_claims.h"
#include "load/workload.h"
#include "obs/rtrace.h"

namespace rstore::obs {
class Counter;
class Timer;
class Telemetry;
}  // namespace rstore::obs

namespace rstore::check {
class LinChecker;
}  // namespace rstore::check

namespace rstore::load {

struct EngineStats {
  uint64_t arrivals = 0;        // ops the schedule produced
  uint64_t completed = 0;       // ops that finished with a recorded latency
  uint64_t completed_by_type[kOpTypes] = {};
  uint64_t not_found = 0;       // reads/rmws that missed (counted complete)
  uint64_t errors = 0;          // ops abandoned (budget/probe window/verbs)
  uint64_t shed = 0;            // ops rejected by admission
  uint64_t retries = 0;         // seqlock conflicts + CAS losses
  uint64_t key_waits = 0;       // writes that found their key held
  uint64_t joined = 0;          // ... and joined the holder's open batch
  uint64_t combined = 0;        // writes completed as riders (no IO)
  uint64_t stale_completions = 0;
  uint64_t steps = 0;           // session state-machine steps executed
  uint32_t sessions = 0;
  uint32_t qps = 0;
  sim::Nanos window_start = 0;
  sim::Nanos drained_at = 0;    // when the last in-flight op finished
  LatencyHistogram latency{1.04};       // all completed ops, intended->done
  LatencyHistogram read_latency{1.04};
  LatencyHistogram write_latency{1.04};  // update/insert/rmw
  AdmissionStats admission;
  kv::MuxStats mux;
  // Per-op causal tracing report (empty when options.rtrace.mode == kOff).
  obs::RtraceReport rtrace;
  // Space-saving heavy hitters over the issued key ids, hottest first.
  std::vector<HotKey> hotkeys;
};

class LoadEngine {
 public:
  // One of `engine_count` engines jointly driving options.sessions; this
  // engine runs the sessions whose global index ≡ engine_index (block
  // partition). The table named `table` must already be preloaded.
  LoadEngine(core::RStoreClient& client, std::string table,
             const LoadOptions& options, uint32_t engine_index,
             uint32_t engine_count);
  ~LoadEngine();
  LoadEngine(const LoadEngine&) = delete;
  LoadEngine& operator=(const LoadEngine&) = delete;

  // Connects the mux, arms the cross-engine start barrier, drives the
  // open-loop window, and drains. Blocks the calling simulated thread.
  Status Run();

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  // Fixed engine parameters.
  static constexpr uint32_t kScanLen = 16;  // slots per YCSB-E scan
  // Admission per (engine, server): ops in flight, then ops deferred
  // before the next is shed.
  static constexpr uint32_t kWindowPerServer = 48;
  static constexpr uint32_t kMaxDeferred = 128;
  static constexpr uint32_t kQpPerServer = 2;        // mux QPs per server
  static constexpr uint32_t kModerationMax = 32;     // CQ wake-threshold cap
  static constexpr sim::Nanos kSessionStepNs = 120;  // CPU per session step
  static constexpr uint32_t kHotkeyCapacity = 16;    // heavy-hitter counters

  // Bulk-loads `options.preload_keys` keys into a fresh RKV table by
  // composing the entire table image locally and writing it with large
  // sequential IO — seconds of per-key Puts collapse into one streaming
  // write. Run by exactly one client before any engine starts.
  static Status PreloadTable(core::RStoreClient& client,
                             const std::string& name,
                             const LoadOptions& options);

  // The 8-byte binary key for key id `id` (shared by preload and ops).
  static void EncodeKey(uint64_t id, std::byte out[8]) noexcept;

 private:
  // Fields touched by every completion come first, next to the SlotOp,
  // so a completion's session work stays on few cache lines.
  struct Session {
    // --- current op ---
    kv::RoundTrip rt;        // the step's round trip in flight
    bool busy = false;       // an op is open (parked, deferred, in flight,
                             // backoff)
    OpType op = OpType::kRead;
    uint32_t server_idx = 0;     // admission charge (home slot's server)
    kv::SlotOp slot_op;      // the protocol; this engine only drives it
    sim::Nanos intended = 0;
    uint64_t key_id = 0;
    std::byte key_bytes[8] = {};
    // --- arrival schedule ---
    Rng rng{0};
    sim::Nanos next_intended = 0;  // head of this session's schedule
    // Ops whose intended time has passed but which have not started yet
    // (the session was busy). Latency anchors pop from here.
    std::deque<sim::Nanos> backlog;
    uint64_t insert_seq = 0; // per-session unique-key counter
    // --- rtrace (maintained only when the collector is attached) ---
    uint64_t op_id = 0;      // (global session id << 32) | op ordinal
    uint64_t op_count = 0;   // ops this session has begun
    sim::Nanos tr_cursor = 0;          // last instant charged to a stage
    obs::RtraceStageNs tr_stage{};     // per-stage ns of the current op
    verbs::WireStamps tr_last{};       // stamps of the last completed step
  };

  // Timed wakeups (retry backoff) and arrivals share one comparator:
  // earliest time first, session index breaking ties.
  struct TimerEntry {
    sim::Nanos at;
    uint32_t session;
    bool operator>(const TimerEntry& o) const noexcept {
      return at != o.at ? at > o.at : session > o.session;
    }
  };
  using TimerHeap =
      std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                          std::greater<TimerEntry>>;

  Status Setup();
  Status RunLoop();
  void ScheduleFirstArrivals();
  void PushNextArrival(uint32_t s);

  // Session driver. Each call stages at most one round trip and returns.
  void OnArrival(uint32_t s, sim::Nanos intended);
  void StartNextFromBacklog(uint32_t s);
  void BeginOp(uint32_t s);
  // Asks admission to start the op: false when it was shed.
  bool AdmitOrShed(uint32_t s);
  void BeginAdmitted(uint32_t s);
  // Acts on the SlotOp's current step: stages its next round trip
  // through the issuer, arms its backoff timer, or finishes the op.
  void Advance(uint32_t s);
  void HandleCompletion(const verbs::WorkCompletion& wc);
  void OnRetryTimer(uint32_t s);
  // The op's SlotOp is done: releases its admission slot and responds.
  void FinishOp(uint32_t s);
  // Records a done op's response (stats, rlin, rtrace) and frees the
  // session for its backlog.
  void Respond(uint32_t s);
  // Holder `s` of its key ended with `outcome`: completes the riders it
  // passes to and starts the key's next holder.
  void HandOff(uint32_t s, KeyClaims::Outcome outcome);
  void CountShed();
  // Ends a scheduling round that ran `steps` session steps.
  Status EndRound(uint64_t steps);

  // rtrace stage accounting: charges [tr_cursor, now] to `stage` and
  // advances the cursor; ChargeWireStages subdivides the interval by the
  // step's wire stamps (mux/egress/wire/server/ack/cqpoll). Callers guard
  // on rtrace_ so the disabled cost is one pointer compare.
  void ChargeStage(Session& ses, obs::RtraceStage stage, sim::Nanos now);
  void ChargeWireStages(Session& ses, const verbs::WireStamps& stamps,
                        sim::Nanos now);

  // Draws the op type and key, and starts the session's SlotOp.
  void DrawKey(uint32_t s);
  [[nodiscard]] size_t Moderation() const noexcept;
  void ResolveObs();

  core::RStoreClient& client_;
  const std::string table_;
  const LoadOptions options_;
  const uint32_t engine_index_;
  const uint32_t engine_count_;

  kv::TableGeometry geometry_;  // from the table header
  kv::SlotOp::Policy retry_policy_;
  kv::StepIssuer issuer_;
  std::unique_ptr<AdmissionController> admission_;
  KeyClaims claims_;
  std::unique_ptr<ZipfGenerator> zipf_;

  std::vector<Session> sessions_;
  uint32_t first_global_session_ = 0;
  TimerHeap arrivals_;
  TimerHeap retries_;

  // One registered scratch arena, carved into per-session SlotOp
  // scratch strides.
  std::vector<std::byte> arena_;
  verbs::ProtectionDomain* pd_ = nullptr;
  verbs::MemoryRegion* arena_mr_ = nullptr;

  sim::Nanos t0_ = 0;
  sim::Nanos t_end_ = 0;
  uint64_t open_ops_ = 0;       // arrived but not finished (any phase)
  uint64_t inflight_wrs_ = 0;   // signaled WRs outstanding
  EngineStats stats_;

  // rlin history capture (null unless a LinChecker is attached to the
  // simulation; resolved once in Setup). Observe-only: see check/lin.h.
  check::LinChecker* lin_ = nullptr;

  // rtrace collector (null when options.rtrace.mode == kOff — every hook
  // reduces to one pointer compare) and the heavy-hitter sketch.
  std::unique_ptr<obs::RtraceCollector> rtrace_;
  uint64_t rtrace_seq_ = 0;     // engine-local completed-op ordinal
  SpaceSaving hotkeys_;

  // PR3 observability (lazily resolved; null when detached).
  obs::Telemetry* obs_owner_ = nullptr;
  obs::Timer* obs_latency_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_shed_ = nullptr;
};

}  // namespace rstore::load
