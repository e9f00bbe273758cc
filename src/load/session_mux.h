// SessionMux: N logical sessions share a bounded pool of verbs QPs/CQs.
//
// Storm's dataplane argument, applied to RStore: per-client QPs do not
// scale — QP state thrashes the NIC cache and connection setup costs
// ~3 RTTs — so thousands of sessions must be multiplexed onto a handful
// of connections. The mux owns qp_per_server reliable-connection QPs to
// every memory server, all completing into ONE shared CQ, and exposes a
// stage/flush interface:
//
//   * Stage() copies a work request into a per-(QP, lane) staging queue.
//     A session is pinned to one QP per server (session % qp_per_server),
//     and RC QPs execute in post order, so every session observes FIFO
//     completion ordering for its own ops even though completions from
//     different sessions interleave arbitrarily on the shared CQ.
//   * Flush() posts each QP's staged run as one doorbell chain, capped
//     by the QP's send-queue headroom — WRs that do not fit stay staged
//     and re-flush when completions drain, instead of tripping the send
//     queue's kOutOfMemory. This is where load-adaptive doorbell
//     batching happens: the more arrivals and completions a scheduling
//     round processed, the wider the chains this flush posts, so the
//     per-WR doorbell cost amortizes exactly when load rises.
//
// Lanes (kv::Lane, chosen by the slot protocol in kv/slot_op.h) exist
// for the happens-before checker: a doorbell chain is posted under one
// rcheck scope, so WRs with different race semantics — speculative
// seqlock reads, plain data IO, the 8-byte seqlock release — must ride
// separate chains. Three lanes per QP keep one PostSend per (QP, lane)
// per round, flushed kPlain, then kSyncCell, then kSpeculative. One
// session's step may put WRs in two lanes (a CAS and its re-check read,
// a payload write and its release); the slot protocol lists the kPlain
// one first, so the flush order posts them to the QP in step order and
// RC execution order does the rest.
//
// Completion demux is the caller's: wr_id is caller-owned (the engine
// encodes session/generation cookies in it); the mux only moves
// completions out of the shared CQ.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "kv/slot_op.h"
#include "verbs/verbs.h"

namespace rstore::load {

struct MuxStats {
  uint64_t wrs_posted = 0;
  uint64_t chains_posted = 0;
  uint64_t flush_rounds = 0;
  uint64_t headroom_stalls = 0;  // flushes that left WRs staged
  uint64_t max_staged = 0;       // high-water of WRs parked across QPs
  LatencyHistogram chain_width{1.25};  // WRs per posted chain
};

class SessionMux {
 public:
  explicit SessionMux(verbs::Device& device);
  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  // Connects qp_per_server QPs to the data service of every server in
  // `server_nodes` (caller's index order defines server_idx below). All
  // QPs share one CQ. Blocks the calling simulated thread.
  Status Connect(std::span<const uint32_t> server_nodes,
                 uint32_t qp_per_server, const verbs::QpConfig& config = {});

  // The QP a session's ops to server_idx ride on — stable, so the per
  // -session FIFO guarantee holds across ops.
  [[nodiscard]] uint32_t QpIndexFor(uint32_t server_idx,
                                    uint32_t session) const noexcept {
    return server_idx * qp_per_server_ + session % qp_per_server_;
  }

  // Copies `wr` (chain pointer must be unset) into the staging queue.
  void Stage(uint32_t server_idx, uint32_t session, kv::Lane lane,
             const verbs::SendWr& wr);

  // Posts staged WRs as doorbell chains, up to each QP's send-queue
  // headroom; the remainder stays staged for the next flush. Returns the
  // number of WRs posted this round.
  Result<size_t> Flush();

  // Completion plumbing (shared CQ pass-through).
  size_t PollInto(std::vector<verbs::WorkCompletion>& out);
  size_t WaitPollInto(std::vector<verbs::WorkCompletion>& out,
                      size_t min_entries, sim::Nanos timeout);

  [[nodiscard]] uint32_t qp_count() const noexcept {
    return static_cast<uint32_t>(qps_.size());
  }
  [[nodiscard]] size_t staged() const noexcept { return staged_total_; }
  [[nodiscard]] const MuxStats& stats() const noexcept { return stats_; }

 private:
  // Staged WRs of one (QP, lane), consumed from `head`.
  struct LaneQueue {
    std::vector<verbs::SendWr> wrs;
    size_t head = 0;
  };

  verbs::Device& device_;
  verbs::CompletionQueue* cq_ = nullptr;
  uint32_t qp_per_server_ = 1;
  std::vector<verbs::QueuePair*> qps_;  // [server_idx * qp_per_server + i]
  std::vector<std::array<LaneQueue, kv::kLanes>> staging_;  // per QP
  size_t staged_total_ = 0;
  MuxStats stats_;
};

}  // namespace rstore::load
