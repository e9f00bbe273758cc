#include "kv/step_issuer.h"

#include <algorithm>

#include "sim/simulation.h"

namespace rstore::kv {

Status StepIssuer::Bind(const core::MappedRegion& region,
                        uint32_t qp_per_server) {
  if (region.desc().copies > 1 || region.desc().slab_size % 8 != 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "RKV tables need one copy and 8-byte aligned slabs");
  }
  region_ = &region;
  for (const auto& slab : region.desc().slabs) {
    if (server_index_.emplace(slab.server_node, server_nodes_.size()).second) {
      server_nodes_.push_back(slab.server_node);
    }
  }
  return mux_.Layout(server_nodes_, qp_per_server);
}

uint32_t StepIssuer::ServerIndexOf(uint64_t offset) const {
  auto span = region_->Resolve(offset, 8);
  return span.ok() ? server_index_.at(span->server_node) : 0;
}

Status StepIssuer::Stage(uint32_t session, RoundTrip& rt,
                         const SlotStep& step, uint32_t lkey) {
  const std::span<const SlotIo> ios = step.ios().subspan(rt.next_io);
  pieces_.clear();
  const uint64_t slab = region_->desc().slab_size;
  for (uint32_t i = 0; i < ios.size(); ++i) {
    for (uint64_t at = ios[i].offset, end = at + ios[i].length; at < end;) {
      const uint64_t n = std::min(end - at, slab - at % slab);
      auto span = region_->Resolve(at, n);
      if (!span.ok()) {
        rt.Abandon();
        return span.status();
      }
      pieces_.push_back({*span, ios[i].local + (at - ios[i].offset),
                         static_cast<uint32_t>(n), i});
      at += n;
    }
  }
  // One chain when each IO is one piece on the session's QP to one
  // server; the last WR's completion then carries the whole step.
  bool chain = ios.size() > 1 && pieces_.size() == ios.size();
  for (const Piece& p : pieces_) {
    chain = chain && p.span.server_node == pieces_[0].span.server_node;
  }
  ++rt.gen;
  const uint64_t cookie = (static_cast<uint64_t>(session) << 32) | rt.gen;
  static constexpr verbs::Opcode kOpcode[] = {verbs::Opcode::kRdmaRead,
                                              verbs::Opcode::kRdmaWrite,
                                              verbs::Opcode::kCompareSwap};
  rt.pending = 0;
  for (size_t i = 0; i < pieces_.size(); ++i) {
    const Piece& p = pieces_[i];
    if (!chain && p.io != 0) break;  // later IOs: later round trips
    const bool signaled = !chain || i + 1 == pieces_.size();
    const SlotIo& io = ios[p.io];
    mux_.Stage(server_index_.at(p.span.server_node), session, io.lane,
               {.wr_id = signaled ? cookie : 0,
                .opcode = kOpcode[static_cast<uint32_t>(io.kind)],
                .local = {p.local, p.length, lkey},
                .remote_addr = p.span.remote_addr,
                .rkey = p.span.rkey,
                .compare = io.compare,  // zero unless a CAS
                .swap_or_add = io.swap,
                .signaled = signaled});
    rt.pending += signaled ? 1 : 0;
  }
  rt.next_io = chain || rt.next_io + 1 == step.io_count ? 0 : rt.next_io + 1;
  return Status::Ok();
}

Status StepIssuer::RoundTrips(const SlotStep& step, uint32_t lkey,
                              sim::Nanos timeout) {
  const sim::Nanos deadline = sim::Now() + timeout;
  Completion done = Completion::kMoreIos;
  while (done == Completion::kMoreIos) {
    RSTORE_RETURN_IF_ERROR(Stage(0, wait_rt_, step, lkey));
    Status st = mux_.Flush();
    done = Completion::kPending;
    while (st.ok() && done == Completion::kPending) {
      wcs_.clear();
      const sim::Nanos left = deadline - sim::Now();
      if (left <= 0 || mux_.WaitPollInto(wcs_, wait_rt_.pending, left) == 0) {
        st = Status(ErrorCode::kTimedOut, "KV step did not complete");
      }
      for (const verbs::WorkCompletion& wc : wcs_) {
        const Completion c = OnCompletion(wait_rt_, wc);
        if (c != Completion::kStale) done = c;
      }
    }
    if (!st.ok()) {
      wait_rt_.Abandon();
      return st;
    }
  }
  return done == Completion::kFailed
             ? Status(ErrorCode::kUnavailable, "work request failed")
             : Status::Ok();
}

Result<TableGeometry> StepIssuer::ReadGeometry(core::RStoreClient& client) {
  RSTORE_ASSIGN_OR_RETURN(core::PinnedBuffer hdr,
                          client.AllocBuffer(SlotLayout::kHeaderBytes));
  SlotStep read{.kind = SlotStep::Kind::kScan, .io_count = 1};
  read.io[0] = {.length = SlotLayout::kHeaderBytes, .local = hdr.begin()};
  RSTORE_RETURN_IF_ERROR(
      RoundTrips(read, hdr.lkey, client.options().io_timeout));
  return SlotLayout::ReadHeader(hdr.data);
}

}  // namespace rstore::kv
