// StepIssuer: the one code path from a SlotOp step to verbs, shared by
// the load engine's sessions (src/load/engine.h) and KvStore's one
// blocking session (kv.h). It resolves a step's IOs into slab pieces
// (the 64-byte table header makes slots straddle slab boundaries),
// stages them through the SessionMux — one chain and one round trip when
// every IO is one piece and all ride one QP, else one round trip per IO,
// in order — and keeps each op's round-trip state. Flushing, polling,
// timers and what an op's end means stay with the caller, except for a
// caller that waits: RoundTrips runs one step to completion, and
// ReadGeometry reads the table header that way. Nothing here is virtual:
// the engine calls it on every completion.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/client.h"
#include "kv/session_mux.h"
#include "kv/slot_op.h"

namespace rstore::kv {

// One session's round trip in flight, kept by the caller next to its
// SlotOp.
struct RoundTrip {
  uint32_t gen = 0;      // completion cookie generation
  uint32_t pending = 0;  // signaled WRs outstanding
  uint8_t next_io = 0;   // the step's next IO to stage; 0 when none is left
  bool error = false;    // a WR of this round trip errored

  // Forgets the round trip: its late completions are stale, and the next
  // Stage starts a step at its first IO.
  void Abandon() noexcept { *this = {.gen = gen}; }
};

class StepIssuer {
 public:
  enum class Completion : uint8_t {
    kStale,     // not the session's round trip in flight
    kPending,   // more completions of the round trip are due
    kStepDone,  // the step's bytes are in: SlotOp::Complete()
    kMoreIos,   // Stage the step's next IO
    kFailed,    // a WR of the round trip failed
  };

  explicit StepIssuer(verbs::Device& device) : mux_(device) {}

  // Binds to `region`'s table and lays out qp_per_server mux QPs to every
  // server holding a slab, in slab order; connects none. kInvalidArgument
  // for a replicated region (a remote CAS locks one copy, so writes would
  // reach the primary alone) or slabs that split a version word.
  Status Bind(const core::MappedRegion& region, uint32_t qp_per_server);

  // Stages the next round trip of `step`, whose IOs' local bytes are
  // registered under `lkey`: the whole step when it chains, else IO
  // rt.next_io. An IO outside the region stages nothing.
  Status Stage(uint32_t session, RoundTrip& rt, const SlotStep& step,
               uint32_t lkey);

  [[nodiscard]] static uint32_t SessionOf(uint64_t wr_id) noexcept {
    return static_cast<uint32_t>(wr_id >> 32);
  }
  // Accounts a completion to SessionOf(wc.wr_id)'s round trip.
  [[nodiscard]] static Completion OnCompletion(
      RoundTrip& rt, const verbs::WorkCompletion& wc) noexcept {
    if (static_cast<uint32_t>(wc.wr_id) != rt.gen || rt.pending == 0) {
      return Completion::kStale;
    }
    --rt.pending;
    rt.error = rt.error || !wc.ok();
    if (rt.pending > 0) return Completion::kPending;
    if (rt.error) {
      rt.Abandon();
      return Completion::kFailed;
    }
    return rt.next_io != 0 ? Completion::kMoreIos : Completion::kStepDone;
  }

  // Blocking: stages `step`'s round trips (local bytes registered under
  // `lkey`) as session 0, one at a time, flushing each and waiting for its
  // completions, until the step is done. Fails when a WR fails or
  // `timeout` passes. A caller that stages session 0 itself must not do so
  // during a call.
  Status RoundTrips(const SlotStep& step, uint32_t lkey, sim::Nanos timeout);
  // Blocking: reads the table header with one RoundTrips and parses it.
  Result<TableGeometry> ReadGeometry(core::RStoreClient& client);

  // Slab-order index of the server holding the 8 bytes at `offset` (0
  // when outside the region).
  [[nodiscard]] uint32_t ServerIndexOf(uint64_t offset) const;
  [[nodiscard]] std::span<const uint32_t> server_nodes() const noexcept {
    return server_nodes_;
  }
  [[nodiscard]] SessionMux& mux() noexcept { return mux_; }

 private:
  struct Piece {  // one slab-contiguous piece of a step's IO
    core::RemoteSpan span;
    std::byte* local;
    uint32_t length;
    uint32_t io;  // index of the IO within the staged run
  };

  SessionMux mux_;
  const core::MappedRegion* region_ = nullptr;
  std::vector<uint32_t> server_nodes_;                   // by index
  std::unordered_map<uint32_t, uint32_t> server_index_;  // node -> index
  std::vector<Piece> pieces_;
  RoundTrip wait_rt_;  // RoundTrips' session 0
  std::vector<verbs::WorkCompletion> wcs_;
};

}  // namespace rstore::kv
