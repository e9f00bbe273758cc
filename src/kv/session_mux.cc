#include "kv/session_mux.h"

#include <algorithm>

#include "check/check.h"
#include "core/types.h"

namespace rstore::kv {

Status SessionMux::Layout(std::span<const uint32_t> server_nodes,
                          uint32_t qp_per_server) {
  if (server_nodes.empty() || qp_per_server == 0) {
    return Status(ErrorCode::kInvalidArgument, "empty QP pool");
  }
  qp_per_server_ = qp_per_server;
  servers_.assign(server_nodes.begin(), server_nodes.end());
  cq_ = &device_.CreateCq();
  qps_.assign(servers_.size() * qp_per_server, nullptr);
  staging_.resize(qps_.size());
  return Status::Ok();
}

Status SessionMux::Connect() {
  std::vector<size_t> unconnected;
  for (size_t qi = 0; qi < qps_.size(); ++qi) {
    if (qps_[qi] == nullptr) unconnected.push_back(qi);
  }
  return ConnectQps(unconnected);
}

Status SessionMux::ConnectQps(std::span<const size_t> qis) {
  if (qis.empty()) return Status::Ok();
  std::vector<uint32_t> nodes;
  nodes.reserve(qis.size());
  for (const size_t qi : qis) nodes.push_back(servers_[qi / qp_per_server_]);
  std::vector<verbs::QueuePair*> connected(qis.size(), nullptr);
  const Status st = device_.network().ConnectAll(
      device_, nodes, core::kDataService, connected, {}, cq_, cq_);
  for (size_t i = 0; i < qis.size(); ++i) {
    if (connected[i] != nullptr) qps_[qis[i]] = connected[i];
  }
  return st;
}

void SessionMux::Stage(uint32_t server_idx, uint32_t session, Lane lane,
                       const verbs::SendWr& wr) {
  const uint32_t qi = QpIndexFor(server_idx, session);
  LaneQueue& q = staging_.at(qi)[static_cast<uint32_t>(lane)];
  q.wrs.push_back(wr);
  q.wrs.back().next = nullptr;
}

Status SessionMux::Flush() {
  bool stalled = false;
  check::Checker* checker = device_.network().sim().checker();
  // Lanes flush kPlain, then kSyncCell, then kSpeculative. A session
  // has at most one step in flight, and a two-IO step lists its kPlain
  // IO first (the CAS before its re-check, the payload before its
  // release), so each session's WRs reach its QP in step order. A lane
  // posts only once every lane before it on the QP posted in full
  // (headroom only shrinks within a flush), so a stall keeps that order
  // too.
  static constexpr Lane kLaneOrder[kLanes] = {Lane::kPlain, Lane::kSyncCell,
                                              Lane::kSpeculative};
  // (Re)connect, all at once, the QPs with work that were never connected
  // or that a fault put in the error state.
  std::vector<size_t> reconnect;
  for (size_t qi = 0; qi < qps_.size(); ++qi) {
    if (qps_[qi] != nullptr &&
        qps_[qi]->state() == verbs::QueuePair::State::kRts) {
      continue;
    }
    size_t staged = 0;
    for (const LaneQueue& q : staging_[qi]) staged += q.wrs.size() - q.head;
    if (staged > 0) reconnect.push_back(qi);
  }
  if (Status st = ConnectQps(reconnect); !st.ok()) {
    staging_.assign(staging_.size(), {});
    return st;
  }
  for (size_t qi = 0; qi < qps_.size(); ++qi) {
    verbs::QueuePair* qp = qps_[qi];
    if (qp == nullptr || qp->state() != verbs::QueuePair::State::kRts) {
      continue;  // no work staged
    }
    size_t headroom = qp->send_headroom();
    for (const Lane lane : kLaneOrder) {
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
        LaneScope scope(checker, lane);
        posted = qp->PostSend(q.wrs[q.head]);
      }
      // Chain pointers reference the staging vector; sever them before it
      // can grow again.
      for (size_t i = 0; i < n; ++i) q.wrs[q.head + i].next = nullptr;
      if (!posted.ok()) {
        staging_.assign(staging_.size(), {});
        return posted;
      }
      q.head += n;
      if (q.head == q.wrs.size()) {
        q.wrs.clear();
        q.head = 0;
      }
      headroom -= n;
      ++stats_.chains_posted;
      stats_.wrs_posted += n;
      stats_.chain_width.Add(n);
    }
  }
  if (stalled) ++stats_.headroom_stalls;
  return Status::Ok();
}

}  // namespace rstore::kv
