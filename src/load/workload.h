// Workload vocabulary for the open-loop load engine (see engine.h).
//
// A workload is (mix, skew, arrival process): the YCSB core mixes over
// RKV operations, zipf-distributed key popularity, and open-loop Poisson
// arrivals at a constant rate. Open loop means arrivals are scheduled by
// the rate, never by completions — a saturated store keeps receiving
// traffic, which is exactly the regime where tail latency is earned.
// Latency is therefore measured from each operation's *intended* send
// time (coordinated-omission-safe, wrk2-style), not from whenever the
// session got around to issuing it.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "obs/rtrace.h"
#include "sim/time.h"

namespace rstore::load {

enum class OpType : uint8_t {
  kRead = 0,
  kUpdate = 1,
  kInsert = 2,
  kScan = 3,
  kReadModifyWrite = 4,
};
inline constexpr uint32_t kOpTypes = 5;

[[nodiscard]] std::string_view ToString(OpType op) noexcept;

// Operation-type fractions; must sum to 1. The YCSB core workloads:
//   A  50% read / 50% update          (update heavy)
//   B  95% read /  5% update          (read mostly)
//   C  100% read
//   D  95% read /  5% insert          (read latest)
//   E  95% scan /  5% insert          (short ranges)
//   F  50% read / 50% read-modify-write
struct WorkloadMix {
  double read = 1.0;
  double update = 0.0;
  double insert = 0.0;
  double scan = 0.0;
  double rmw = 0.0;

  // Named mix for 'a'..'f' (case-insensitive); unknown letters fall back
  // to workload C (pure reads).
  [[nodiscard]] static WorkloadMix Ycsb(char workload) noexcept;

  // Draws one op type; thresholds are walked in field order so the draw
  // is a pure function of the RNG stream.
  [[nodiscard]] OpType Pick(Rng& rng) const noexcept;
};

// Everything that shapes one open-loop run. One LoadOptions describes
// the *aggregate* workload; each engine (one per client node) drives
// sessions/engine_count of it.
struct LoadOptions {
  // --- traffic ---------------------------------------------------------
  uint32_t sessions = 10000;        // total logical client sessions
  double offered_load = 200e3;      // aggregate arrival rate, ops/s
  sim::Nanos duration = sim::Millis(100);  // open-loop arrival window
  WorkloadMix mix = WorkloadMix::Ycsb('b');
  double theta = 0.99;              // zipf skew over the preloaded keys
  // --- table -----------------------------------------------------------
  uint64_t preload_keys = 16384;    // keys bulk-loaded before the run
  uint32_t value_bytes = 64;
  uint32_t slot_bytes = 256;
  uint32_t max_probe = 16;
  // --- admission control (per engine, per target server) ---------------
  bool admission = true;
  // Deadline shed: an op whose intended send time has already aged past
  // this bound is dropped instead of started (0 = never). This is what
  // keeps the *completed*-op tail bounded under sustained overload: the
  // in-flight window and defer queue bound the dataplane, the deadline
  // bounds the per-session backlog wait.
  sim::Nanos shed_deadline = sim::Millis(10);
  // --- engine ----------------------------------------------------------
  uint32_t op_retry_budget = 64;    // seqlock conflicts before giving up
  uint64_t seed = 1;
  // --- observability ----------------------------------------------------
  // Per-op causal tracing (see obs/rtrace.h). Off by default; enabling it
  // never moves virtual time — timelines are bit-identical across modes.
  obs::RtraceConfig rtrace;

  // Table geometry derived from the preload size: 4x bucket headroom
  // keeps linear probing short at a 25% load factor.
  [[nodiscard]] uint64_t buckets() const noexcept {
    return preload_keys * 4;
  }
};

}  // namespace rstore::load
