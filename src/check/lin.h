// rlin — per-key linearizability checking of KV operation histories.
//
// LinChecker records one entry per completed Get/Put/Delete (and per
// engine read/update/insert/rmw): op kind, 64-bit key id, a 64-bit FNV-1a
// digest of the value, and the op's virtual-time interval
// [invocation, response]. The invocation is taken at the coordinated-
// omission anchor (intended send time) where one exists, the response at
// completion. Widening an interval can only ADD legal linearization
// orders, so anchoring at intended-send keeps the checker sound (zero
// false positives) at the cost of possibly masking violations that an
// exact-send anchor would expose; the capture sites note where this
// applies.
//
// Finalize() checks each per-key subhistory independently
// (P-compositionality: a KV history is linearizable iff every per-key
// subhistory is linearizable as a single register) using Wing–Gong
// search: repeatedly pick a *minimal* pending-frontier op — one no
// uncompleted-before op must precede — apply it to the register, and
// backtrack on dead ends, memoizing (linearized-set, register) states so
// revisits cut off. Two properties make 10k-session E13 histories check
// in seconds: a minimal read that returns the current register value can
// be linearized immediately without branching (moving such a read earlier
// in any witness order keeps it valid), and reads dominate the workloads.
//
// Failed writes whose payload may have reached memory are recorded as
// *pending*: they have no response edge and may linearize at any point
// after invocation or never (the "infinitely concurrent" rule).
//
// Zero probe effect contract (same as rcheck/rtrace): recording is pure
// host-side computation — no simulator events, RNG draws, or cost-model
// charges — so virtual time is bit-identical with the checker on or off.
// Recording is not thread-safe; the simulator's one event queue runs one
// event at a time.
//
// Key ids: the load engine records its dense integer key ids directly;
// the KvStore client path records StableHash64(key bytes) mixed with the
// table's region id (equal keys in two tables are two registers). The
// two key spaces must not be mixed against the same table in one
// simulation (no current workload does).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rstore::check {

enum class LinOpKind : uint8_t { kRead = 0, kWrite = 1 };

// Digest value meaning "key absent". Real digests are never 0.
inline constexpr uint64_t kLinAbsent = 0;
// Response timestamp for pending (possibly-effective, never-acked) ops.
inline constexpr uint64_t kLinNever = ~uint64_t{0};

struct LinOp {
  uint64_t id = 0;       // record order; stable for one schedule
  uint64_t key = 0;
  uint64_t digest = kLinAbsent;  // write: value written; read: value seen
  uint64_t inv_ns = 0;
  uint64_t resp_ns = kLinNever;
  uint32_t client = 0;
  LinOpKind kind = LinOpKind::kRead;
  bool pending = false;  // no response: may have taken effect, or never
};

struct LinViolation {
  uint64_t key = 0;
  size_t history_ops = 0;    // size of the key's full subhistory
  std::vector<LinOp> ops;    // minimized counterexample core
  std::string detail;
};

const char* ToString(LinOpKind kind) noexcept;

class LinChecker {
 public:
  LinChecker();
  ~LinChecker();
  LinChecker(const LinChecker&) = delete;
  LinChecker& operator=(const LinChecker&) = delete;

  // FNV-1a 64 over raw bytes; remaps 0 so it never collides with
  // kLinAbsent.
  static uint64_t Digest(const void* data, size_t len) noexcept;

  // --- recording (serialized by the simulator; pure host computation) ---

  // Declares the register value a key holds before the first recorded op
  // (e.g. preloaded table contents). Un-declared keys start absent.
  void RecordInit(uint64_t key, uint64_t digest);

  // A completed op: interval [inv_ns, resp_ns], digest per kind
  // (kLinAbsent = not found / delete).
  void RecordOp(uint32_t client, LinOpKind kind, uint64_t key,
                uint64_t digest, uint64_t inv_ns, uint64_t resp_ns);

  // A failed op whose effect may or may not have landed (e.g. a Put whose
  // payload write was posted before the error). May linearize at any
  // point >= inv_ns, or never.
  void RecordPending(uint32_t client, LinOpKind kind, uint64_t key,
                     uint64_t digest, uint64_t inv_ns);

  // --- checking ---

  struct Stats {
    uint64_t states_explored = 0;
    uint64_t memo_hits = 0;
    uint64_t greedy_reads = 0;   // reads linearized without branching
    uint64_t keys_checked = 0;
    uint64_t keys_inconclusive = 0;  // state budget exhausted (never a
                                     // violation; reported separately)
  };

  // Runs the per-key search. Idempotent; recording after Finalize is an
  // error (asserted in debug builds, ignored otherwise).
  void Finalize();
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  [[nodiscard]] const std::vector<LinViolation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] size_t violation_count() const noexcept {
    return violations_.size();
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] size_t op_count() const noexcept { return ops_.size(); }
  [[nodiscard]] const std::vector<LinOp>& history() const noexcept {
    return ops_;
  }

  // Human-readable report: one block per violation, then one summary
  // line when any key was inconclusive; no output if every key was judged
  // linearizable.
  void PrintReports(std::ostream& os) const;
  // Machine-readable dump: 64-bit fields (key, digest) emit as hex
  // strings so obs/json.h (double numbers) round-trips them exactly.
  void DumpJson(std::ostream& os) const;

 private:
  std::vector<LinOp> ops_;
  std::vector<std::pair<uint64_t, uint64_t>> inits_;  // (key, digest)
  std::vector<LinViolation> violations_;
  Stats stats_;
  bool finalized_ = false;
};

}  // namespace rstore::check
