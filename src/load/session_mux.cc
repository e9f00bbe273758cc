#include "load/session_mux.h"

#include <algorithm>

#include "check/check.h"
#include "core/types.h"

namespace rstore::load {

SessionMux::SessionMux(verbs::Device& device) : device_(device) {}

Status SessionMux::Connect(std::span<const uint32_t> server_nodes,
                           uint32_t qp_per_server,
                           const verbs::QpConfig& config) {
  if (server_nodes.empty() || qp_per_server == 0) {
    return Status(ErrorCode::kInvalidArgument, "empty QP pool");
  }
  qp_per_server_ = qp_per_server;
  cq_ = &device_.CreateCq();
  qps_.reserve(server_nodes.size() * qp_per_server);
  for (const uint32_t server : server_nodes) {
    for (uint32_t i = 0; i < qp_per_server; ++i) {
      auto qp = device_.network().Connect(device_, server, core::kDataService,
                                          config, cq_, cq_);
      if (!qp.ok()) return qp.status();
      qps_.push_back(*qp);
    }
  }
  staging_.resize(qps_.size());
  return Status::Ok();
}

void SessionMux::Stage(uint32_t server_idx, uint32_t session, kv::Lane lane,
                       const verbs::SendWr& wr) {
  const uint32_t qi = QpIndexFor(server_idx, session);
  LaneQueue& q = staging_.at(qi)[static_cast<uint32_t>(lane)];
  q.wrs.push_back(wr);
  q.wrs.back().next = nullptr;
  ++staged_total_;
  stats_.max_staged = std::max<uint64_t>(stats_.max_staged, staged_total_);
}

Result<size_t> SessionMux::Flush() {
  ++stats_.flush_rounds;
  size_t posted_total = 0;
  bool stalled = false;
  check::Checker* checker = device_.network().sim().checker();
  // Lanes flush kPlain, then kSyncCell, then kSpeculative. A session
  // has at most one step in flight, and a two-IO step lists its kPlain
  // IO first (the CAS before its re-check, the payload before its
  // release), so each session's WRs reach its QP in step order. A lane
  // posts only once every lane before it on the QP posted in full
  // (headroom only shrinks within a flush), so a stall keeps that order
  // too.
  static constexpr kv::Lane kLaneOrder[kv::kLanes] = {
      kv::Lane::kPlain, kv::Lane::kSyncCell, kv::Lane::kSpeculative};
  for (size_t qi = 0; qi < qps_.size(); ++qi) {
    verbs::QueuePair* qp = qps_[qi];
    size_t headroom = qp->send_headroom();
    for (const kv::Lane lane : kLaneOrder) {
      LaneQueue& q = staging_[qi][static_cast<uint32_t>(lane)];
      const size_t avail = q.wrs.size() - q.head;
      if (avail == 0) {
        if (q.head > 0) {
          q.wrs.clear();
          q.head = 0;
        }
        continue;
      }
      const size_t n = std::min(avail, headroom);
      if (n == 0) {
        stalled = true;
        continue;
      }
      for (size_t i = 0; i + 1 < n; ++i) {
        q.wrs[q.head + i].next = &q.wrs[q.head + i + 1];
      }
      q.wrs[q.head + n - 1].next = nullptr;
      Status posted;
      {
        kv::LaneScope scope(checker, lane);
        posted = qp->PostSend(q.wrs[q.head]);
      }
      // Chain pointers reference the staging vector; sever them before it
      // can grow again.
      for (size_t i = 0; i < n; ++i) q.wrs[q.head + i].next = nullptr;
      if (!posted.ok()) return posted;
      q.head += n;
      if (q.head == q.wrs.size()) {
        q.wrs.clear();
        q.head = 0;
      }
      staged_total_ -= n;
      posted_total += n;
      headroom -= n;
      ++stats_.chains_posted;
      stats_.wrs_posted += n;
      stats_.chain_width.Add(n);
    }
  }
  if (stalled) ++stats_.headroom_stalls;
  return posted_total;
}

size_t SessionMux::PollInto(std::vector<verbs::WorkCompletion>& out) {
  return cq_->PollInto(out);
}

size_t SessionMux::WaitPollInto(std::vector<verbs::WorkCompletion>& out,
                                size_t min_entries, sim::Nanos timeout) {
  return cq_->WaitPollInto(out, min_entries, SIZE_MAX, timeout);
}

}  // namespace rstore::load
