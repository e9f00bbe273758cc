// rtrace: end-to-end per-operation causal tracing with tail-latency
// attribution.
//
// A traced operation carries a per-op cursor through every stage it
// crosses between its *intended* send instant (the coordinated-omission
// anchor) and its completion: backlog wait, admission deferral, mux/
// doorbell batching, NIC egress queueing, wire propagation, server-side
// execution, the ack's return trip, and the CQ poll-to-collect delay.
// Each transition charges `now - cursor` to exactly one stage and moves
// the cursor, so the per-stage nanoseconds *provably sum* to the op's
// end-to-end latency — the invariant the tests pin and rtail re-checks.
//
// The collector keeps three views, all cheap enough to maintain for every
// completed op:
//   * attribution bands — per-stage sums bucketed by total latency
//     (geometric bands), from which any quantile band's attribution table
//     is derived ("the p999 is 78% admission-defer wait");
//   * virtual-time windows — throughput/p50/p99/p999 plus per-stage means
//     per window, for watching the knee and burst transients;
//   * kept ops — head-sampled (1/N) plus an always-keep-slowest-K
//     reservoir, so tail ops are never lost; these export as Chrome-trace
//     spans tied together by flow events ('s'/'t'/'f', id = op id).
//
// Zero-probe-effect rule (same contract as metrics.h/trace.h): recording
// reads virtual-time values the scheduler already computed, never reads
// the clock to make a decision, schedules nothing, and charges no cost
// model. Mode kOff reduces every hook to one pointer compare; kSampled
// and kFull differ only in how many per-op records are *kept* — the
// timeline is bit-identical across all three modes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace rstore::obs {

class Tracer;

// The stages an op's latency decomposes into, in causal order.
enum class RtraceStage : uint8_t {
  kBacklog = 0,  // intended send -> session picked the op up
  kAdmit,        // admission FIFO deferral (window full at the server),
                 // and a write's wait parked behind its key's holder
                 // (load/key_claims.h); a rider's whole wait lands here
  kMux,          // staged in the session mux -> doorbell rang (batching,
                 // headroom stalls, verbs post cost)
  kEgress,       // doorbell -> transmission start (NIC egress queueing)
  kWire,         // transmission start -> first bit at the server NIC
  kServer,       // first bit -> target-side execution (ingress service +
                 // DRAM access)
  kAck,          // execution -> CQE pushed (ack return trip + CQE order)
  kCqPoll,       // CQE pushed -> engine collected it (poll batching)
  kBackoff,      // retry waits behind a lock holder that made no
                 // progress in a round trip (kv/slot_op.h)
};
inline constexpr uint32_t kRtraceStageCount = 9;

// Per-op (and aggregated) stage nanoseconds, indexed by RtraceStage.
using RtraceStageNs = std::array<uint64_t, kRtraceStageCount>;

[[nodiscard]] std::string_view RtraceStageName(uint32_t stage) noexcept;

enum class RtraceMode : uint8_t {
  kOff,      // every hook is one pointer compare
  kSampled,  // aggregates for every op; records kept for 1/N + slowest-K
  kFull,     // aggregates + a record for every op
};

[[nodiscard]] std::string_view ToString(RtraceMode mode) noexcept;
// Parses "off" / "sampled" / "full"; false on anything else.
bool ParseRtraceMode(std::string_view s, RtraceMode* out) noexcept;

struct RtraceConfig {
  RtraceMode mode = RtraceMode::kOff;
  uint32_t sample_period = 64;  // head sampling: keep every Nth op
  uint32_t reservoir_k = 32;    // always keep the K slowest ops
  uint64_t window_ns = 1000000;  // time-series window (1 ms virtual)
};

// One kept operation: identity, outcome, and the full stage breakdown.
struct RtraceOp {
  uint64_t op_id = 0;
  uint8_t kind = 0;           // workload-defined op kind (load::OpType)
  uint32_t server_node = 0;   // node the op's final data-path step hit
  uint64_t intended_ns = 0;   // coordinated-omission anchor
  uint64_t done_ns = 0;
  RtraceStageNs stage_ns{};
  // Wire stamps of the final data-path step, for span/flow export.
  uint64_t posted_ns = 0;
  uint64_t first_bit_ns = 0;
  uint64_t executed_ns = 0;
  bool sampled = false;  // head-sampled (reservoir-only ops have false)

  [[nodiscard]] uint64_t total_ns() const noexcept {
    return done_ns - intended_ns;
  }
};

// Aggregated attribution data. Mergeable across engines (Merge) and
// serializable (AppendRtraceJson); copyable so engines can hand it out by
// value in their stats structs.
struct RtraceReport {
  // Geometric growth of the attribution bands (~5% band width).
  static constexpr double kBandGrowth = 1.05;

  struct Band {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    RtraceStageNs stage_ns{};
  };
  struct Window {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    RtraceStageNs stage_ns{};
    LatencyHistogram hist;  // per-window latency distribution
  };
  // Attribution of one latency range (Attribution()).
  struct Slice {
    uint64_t lo_ns = 0;
    uint64_t hi_ns = 0;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    RtraceStageNs stage_ns{};
  };

  RtraceConfig config;
  uint64_t ops = 0;
  uint64_t total_ns_sum = 0;
  RtraceStageNs stage_ns_sum{};
  // Ops whose stage sums failed to reproduce their total exactly. The
  // cursor construction makes this impossible; it is exported (and
  // asserted 0 by rtail and the tests) as the invariant's tripwire.
  uint64_t sum_mismatches = 0;
  LatencyHistogram total_hist;     // end-to-end latency distribution
  std::vector<Band> bands;         // indexed geometrically by total_ns
  std::vector<Window> windows;     // indexed by done_ns / window_ns
  std::vector<RtraceOp> kept;      // head-sampled + slowest-K, op_id order

  // Geometric band index for a total latency (shared by collector/report).
  [[nodiscard]] static size_t BandFor(uint64_t total_ns) noexcept;
  [[nodiscard]] static uint64_t BandLow(size_t band) noexcept;

  // Attribution of the latency range [Quantile(q_lo), Quantile(q_hi)]:
  // per-stage sums over the bands overlapping the range. Band edges quantize
  // the cut at kBandGrowth resolution.
  [[nodiscard]] Slice Attribution(double q_lo, double q_hi) const;

  // Sums `other` into this report (same config required for windows/bands
  // to align; kept ops concatenate and the slowest-K selection re-runs).
  void Merge(const RtraceReport& other);
};

// Appends the report as one JSON object (no trailing newline):
// quantiles, attribution tables for the standard bands (p0-50, p50-99,
// p99-999, p999-100), windowed time series, and the kept slowest ops.
void AppendRtraceJson(std::string& out, const RtraceReport& report);

// Emits the kept ops as Chrome-trace events: a client span per op
// (pid = client_node, stage breakdown in args), a server-side execution
// span (pid = the op's server node), and an 's'/'t'/'f' flow with
// id = op_id tying them into one clickable arrow. Post-run export —
// recording order does not depend on the schedule.
void EmitRtraceTrace(Tracer& tracer, const RtraceReport& report,
                     uint32_t client_node);

// Per-engine collector. All methods are plain host-side arithmetic.
class RtraceCollector {
 public:
  explicit RtraceCollector(const RtraceConfig& config);

  [[nodiscard]] const RtraceConfig& config() const noexcept { return config_; }

  // Records one completed op. `op_seq` is the engine-local op ordinal
  // (head sampling keeps op_seq % sample_period == 0); `op` carries the
  // breakdown and stamps. Called once per successfully completed op.
  void Record(uint64_t op_seq, const RtraceOp& op);

  // Builds the mergeable report (reservoir resolved, kept ops sorted).
  [[nodiscard]] RtraceReport Finalize() const;

 private:
  RtraceConfig config_;
  RtraceReport report_;          // bands/windows/aggregates filled in place
  std::vector<RtraceOp> sampled_;
  // Slowest-K min-heap ordered by (total_ns, descending op_id) so the
  // eviction victim — and therefore the reservoir — is a pure function of
  // the recorded set.
  std::vector<RtraceOp> reservoir_;
};

}  // namespace rstore::obs
