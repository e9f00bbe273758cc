#include "baselines/bsp/msg_bsp.h"

#include <algorithm>
#include <cstring>

#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace rstore::baselines {

// Inbound state for the superstep currently being received. Handlers run
// on the worker node's RPC threads; the compute thread waits on the
// condvar until all peers' batches for its superstep have landed.
struct MsgBspWorker::Inbox {
  explicit Inbox(sim::Simulation& s) : ready(s) {}
  uint32_t superstep = 0;  // accumulating for this superstep
  uint32_t batches = 0;    // received for `superstep`
  double dangling = 0;
  std::vector<double> acc;
  // Batches that raced ahead (sender already in superstep+1).
  std::vector<std::vector<std::byte>> deferred;
  sim::CondVar ready;
};

MsgBspWorker::MsgBspWorker(verbs::Device& device, const carafe::Graph& graph,
                           MsgBspConfig config)
    : device_(device), graph_(graph), config_(std::move(config)) {
  bounds_ = carafe::PartitionBounds(
      carafe::CostQuantiles(carafe::InOffsets(graph_)), config_.num_workers);
  lo_ = bounds_[config_.worker_id];
  hi_ = bounds_[config_.worker_id + 1];
  // Worst case batch: every vertex of the widest owner gets a combined
  // message.
  uint64_t widest = 0;
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    widest = std::max(widest, bounds_[w + 1] - bounds_[w]);
  }
  max_batch_bytes_ = static_cast<uint32_t>((widest + 1) * 12 + 64);
}

MsgBspWorker::~MsgBspWorker() = default;

void MsgBspWorker::StartService() {
  inbox_ = std::make_unique<Inbox>(device_.network().sim());
  inbox_->acc.assign(std::max<uint64_t>(hi_ - lo_, 1), 0.0);

  rpc::RpcOptions opts;
  opts.buffer_size = max_batch_bytes_;
  opts.recv_buffers = 2 * config_.num_workers + 4;
  server_ = std::make_unique<rpc::RpcServer>(device_, kBspService, opts);

  const sim::CpuCostModel& cpu = device_.network().cpu_model();
  server_->RegisterHandler(1, [this, &cpu](rpc::Reader& req,
                                           rpc::Writer& resp) {
    uint32_t superstep = 0;
    double dangling = 0;
    uint64_t edge_count = 0;
    uint32_t count = 0;
    if (!req.U32(&superstep) || !req.F64(&dangling) ||
        !req.U64(&edge_count) || !req.U32(&count)) {
      return Status(ErrorCode::kInvalidArgument, "bad batch");
    }
    // The per-edge-message framework overhead: a message-passing engine
    // pays scheduling/lookup/synchronization work proportional to the
    // edge messages behind a batch (combiners shrink the wire bytes, not
    // the per-edge engine work — GraphLab synchronizes per replica).
    const auto framework_cost = static_cast<sim::Nanos>(
        static_cast<double>(edge_count) * config_.per_message_ns);
    sim::ChargeCpu(framework_cost);

    Inbox& in = *inbox_;
    if (superstep != in.superstep) {
      // Early batch from a peer already one superstep ahead; stash the
      // payload and re-apply when we advance.
      rpc::Writer copy;
      copy.U32(superstep);
      copy.F64(dangling);
      copy.U64(edge_count);
      copy.U32(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t v = 0;
        double val = 0;
        if (!req.U32(&v) || !req.F64(&val)) {
          return Status(ErrorCode::kInvalidArgument, "truncated batch");
        }
        copy.U32(v);
        copy.F64(val);
      }
      in.deferred.push_back(copy.Take());
      resp.Bool(true);
      return Status::Ok();
    }
    in.dangling += dangling;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t v = 0;
      double val = 0;
      if (!req.U32(&v) || !req.F64(&val)) {
        return Status(ErrorCode::kInvalidArgument, "truncated batch");
      }
      in.acc[v - lo_] += val;
    }
    messages_in_ += count;
    ++in.batches;
    in.ready.NotifyAll();
    resp.Bool(true);
    return Status::Ok();
  });
  server_->Start();
}

Status MsgBspWorker::SendBatches(
    uint32_t superstep, const std::vector<std::vector<std::byte>>& batches) {
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    if (w == config_.worker_id) continue;
    if (!peers_[w]) {
      rpc::RpcOptions opts;
      opts.buffer_size = max_batch_bytes_;
      opts.recv_buffers = 2 * config_.num_workers + 4;
      auto peer = rpc::RpcClient::Connect(
          device_, config_.worker_nodes[w], kBspService, opts);
      if (!peer.ok()) return peer.status();
      peers_[w] = std::move(peer).value();
    }
    (void)superstep;
    auto resp = peers_[w]->CallRaw(1, batches[w]);
    if (!resp.ok()) return resp.status();
  }
  return Status::Ok();
}

Result<std::vector<double>> MsgBspWorker::PageRank(uint32_t iterations,
                                                   double damping) {
  if (!inbox_) {
    return Result<std::vector<double>>(ErrorCode::kInvalidArgument,
                                       "call StartService() first");
  }
  const uint64_t n = graph_.num_vertices();
  const uint64_t cnt = hi_ - lo_;
  const uint32_t W = config_.num_workers;
  const double d = damping;
  const sim::CpuCostModel& cpu = device_.network().cpu_model();
  peers_.resize(W);

  std::vector<double> rank(cnt, 1.0 / static_cast<double>(n));
  // Combiner: contribution accumulated per global target vertex.
  std::vector<double> combined(n, 0.0);
  std::vector<uint32_t> hits(n, 0);

  // The owner of v: the last boundary at or below v starts its range
  // (empty ranges share their boundary with the next one).
  auto owner_of = [&](uint64_t v) -> uint32_t {
    return static_cast<uint32_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin() - 1);
  };

  Inbox& in = *inbox_;
  for (uint32_t iter = 0; iter < iterations; ++iter) {
    // --- compute contributions and combine per target -----------------
    std::fill(combined.begin(), combined.end(), 0.0);
    std::fill(hits.begin(), hits.end(), 0);
    double dangling_local = 0;
    for (uint64_t i = 0; i < cnt; ++i) {
      const uint64_t v = lo_ + i;
      const uint64_t deg = graph_.out_degree(v);
      if (deg == 0) {
        dangling_local += rank[i];
        continue;
      }
      const double share = rank[i] / static_cast<double>(deg);
      const auto [lo_e, hi_e] = graph_.edge_range(v);
      for (uint64_t e = lo_e; e < hi_e; ++e) {
        combined[graph_.targets[e]] += share;
        ++hits[graph_.targets[e]];
      }
    }
    sim::ChargeCpu(sim::GraphEdgeCost(cpu, graph_.offsets[hi_] -
                                               graph_.offsets[lo_]) +
                   sim::ScanCost(cpu, n));

    // --- build batches per owner ---------------------------------------
    std::vector<std::vector<std::byte>> batches(W);
    {
      std::vector<rpc::Writer> writers(W);
      std::vector<uint32_t> counts(W, 0);
      std::vector<uint64_t> edge_counts(W, 0);
      std::vector<rpc::Writer> bodies(W);
      for (uint64_t v = 0; v < n; ++v) {
        if (hits[v] == 0) continue;
        const uint32_t w = owner_of(v);
        bodies[w].U32(static_cast<uint32_t>(v));
        bodies[w].F64(combined[v]);
        ++counts[w];
        edge_counts[w] += hits[v];
      }
      for (uint32_t w = 0; w < W; ++w) {
        writers[w].U32(iter);
        // Every batch carries the sender's full dangling mass; receivers
        // sum across the W batches of a superstep to get the global mass.
        writers[w].F64(dangling_local);
        writers[w].U64(edge_counts[w]);
        writers[w].U32(counts[w]);
        writers[w].AppendRaw(bodies[w].buffer());
        batches[w] = writers[w].Take();
      }
    }

    // Apply my own batch locally (no self-RPC).
    {
      rpc::Reader self(batches[config_.worker_id]);
      uint32_t s = 0, count = 0;
      double dang = 0;
      uint64_t edge_count = 0;
      if (!self.U32(&s) || !self.F64(&dang) || !self.U64(&edge_count) ||
          !self.U32(&count)) {
        return Result<std::vector<double>>(ErrorCode::kInternal,
                                           "malformed self batch header");
      }
      sim::ChargeCpu(static_cast<sim::Nanos>(
          static_cast<double>(edge_count) * config_.per_message_ns));
      in.dangling += dang;
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t v = 0;
        double val = 0;
        if (!self.U32(&v) || !self.F64(&val)) {
          return Result<std::vector<double>>(ErrorCode::kInternal,
                                             "malformed self batch entry");
        }
        in.acc[v - lo_] += val;
      }
      ++in.batches;
    }

    RSTORE_RETURN_IF_ERROR(SendBatches(iter, batches));

    // --- barrier: wait for all W batches of this superstep -------------
    in.ready.WaitUntil([&] { return in.batches >= W; });

    // --- apply ---------------------------------------------------------
    const double base = (1.0 - d) / static_cast<double>(n) +
                        d * in.dangling / static_cast<double>(n);
    for (uint64_t i = 0; i < cnt; ++i) {
      rank[i] = base + d * in.acc[i];
    }
    sim::ChargeCpu(sim::ScanCost(cpu, cnt * 8));

    // --- roll the inbox to the next superstep and replay early batches -
    in.superstep = iter + 1;
    in.batches = 0;
    in.dangling = 0;
    std::fill(in.acc.begin(), in.acc.end(), 0.0);
    auto deferred = std::move(in.deferred);
    in.deferred.clear();
    for (const auto& raw : deferred) {
      rpc::Reader r(raw);
      uint32_t s = 0, count = 0;
      double dang = 0;
      uint64_t edge_count = 0;
      if (!r.U32(&s) || !r.F64(&dang) || !r.U64(&edge_count) ||
          !r.U32(&count)) {
        return Result<std::vector<double>>(ErrorCode::kInternal,
                                           "malformed deferred batch header");
      }
      in.dangling += dang;
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t v = 0;
        double val = 0;
        if (!r.U32(&v) || !r.F64(&val)) {
          return Result<std::vector<double>>(ErrorCode::kInternal,
                                             "malformed deferred batch entry");
        }
        in.acc[v - lo_] += val;
      }
      messages_in_ += count;
      ++in.batches;
    }
  }
  return rank;
}

}  // namespace rstore::baselines
