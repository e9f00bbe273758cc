// SessionMux: N logical sessions share a bounded pool of verbs QPs/CQs.
//
// Storm's dataplane argument, applied to RStore: per-client QPs do not
// scale — QP state thrashes the NIC cache and connection setup costs
// ~3 RTTs — so thousands of sessions share qp_per_server RC QPs to every
// memory server, all completing into ONE CQ. It is RKV's only verbs
// path: kv::StepIssuer stages every SlotOp step through it, for the load
// engine's sessions and for KvStore's one (GET one round trip, PUT
// three).
//
//   * Stage() queues a WR per (QP, lane). A session is pinned to one QP
//     per server, and RC QPs execute in post order, so each session sees
//     its own WRs complete in order.
//   * Flush() posts each (QP, lane) run as one doorbell chain, capped by
//     the QP's send-queue headroom (the rest stays staged), so chains
//     widen — and doorbells amortize — exactly as load rises. It first
//     (re)connects the QPs with staged WRs that were never connected or
//     have entered the error state after a fault; Connect() connects the
//     whole pool up front instead. Both connect their QPs in one
//     verbs::Network::ConnectAll, so the CM exchanges overlap.
//
// Lanes exist for rcheck: a chain is posted under one scope, so
// speculative reads, plain IO and the seqlock release ride separate
// chains, flushed kPlain first (see Flush). Completion demux is the
// caller's: the mux only moves completions out of the shared CQ.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "kv/slot_op.h"
#include "verbs/verbs.h"

namespace rstore::kv {

struct MuxStats {
  uint64_t wrs_posted = 0;
  uint64_t chains_posted = 0;
  uint64_t headroom_stalls = 0;  // flushes that left WRs staged
  LatencyHistogram chain_width{1.25};  // WRs per posted chain
};

class SessionMux {
 public:
  explicit SessionMux(verbs::Device& device) : device_(device) {}
  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  // Lays out qp_per_server QPs to the data service of every server in
  // `server_nodes` (caller's index order defines server_idx below), all
  // sharing one CQ. Connects none of them.
  Status Layout(std::span<const uint32_t> server_nodes,
                uint32_t qp_per_server);
  // Connects every QP of the layout that is not connected, in index
  // order, in one ConnectAll. Blocks the calling simulated thread. On
  // kUnavailable the QPs that did connect are kept; the next Flush
  // connects the rest as they get work.
  Status Connect();

  // The QP a session's ops to server_idx ride on — stable, so the per
  // -session FIFO guarantee holds across ops.
  [[nodiscard]] uint32_t QpIndexFor(uint32_t server_idx,
                                    uint32_t session) const noexcept {
    return server_idx * qp_per_server_ + session % qp_per_server_;
  }

  // Copies `wr` (chain pointer must be unset) into the staging queue.
  void Stage(uint32_t server_idx, uint32_t session, Lane lane,
             const verbs::SendWr& wr);

  // Posts staged WRs as doorbell chains, up to each QP's send-queue
  // headroom; the remainder stays staged for the next flush. On an error
  // (a QP that cannot be reconnected, a rejected post) nothing stays
  // staged: the round trips that were staged are the caller's to fail.
  Status Flush();

  // Completion plumbing (shared CQ pass-through).
  size_t PollInto(std::vector<verbs::WorkCompletion>& out) {
    return cq_->PollInto(out);
  }
  size_t WaitPollInto(std::vector<verbs::WorkCompletion>& out,
                      size_t min_entries, sim::Nanos timeout) {
    return cq_->WaitPollInto(out, min_entries, SIZE_MAX, timeout);
  }

  [[nodiscard]] uint32_t qp_count() const noexcept {
    return static_cast<uint32_t>(qps_.size());
  }
  [[nodiscard]] const MuxStats& stats() const noexcept { return stats_; }

 private:
  // Staged WRs of one (QP, lane), consumed from `head`.
  struct LaneQueue {
    std::vector<verbs::SendWr> wrs;
    size_t head = 0;
  };

  // Connects QPs `qis`, each in place of any QP in the error state there.
  Status ConnectQps(std::span<const size_t> qis);

  verbs::Device& device_;
  verbs::CompletionQueue* cq_ = nullptr;
  uint32_t qp_per_server_ = 1;
  std::vector<uint32_t> servers_;  // by server_idx
  // [server_idx * qp_per_server + i]; null until connected.
  std::vector<verbs::QueuePair*> qps_;
  std::vector<std::array<LaneQueue, kLanes>> staging_;  // per QP
  MuxStats stats_;
};

}  // namespace rstore::kv
