#include "carafe/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/log.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace rstore::carafe {
namespace {

template <typename T>
std::span<std::byte> AsBytes(std::vector<T>& v) {
  return {reinterpret_cast<std::byte*>(v.data()), v.size() * sizeof(T)};
}

}  // namespace

Worker::Worker(core::RStoreClient& client, std::string graph_name,
               WorkerConfig config)
    : client_(client), graph_name_(std::move(graph_name)),
      config_(config) {}

std::string Worker::Scratch(const std::string& what) const {
  return graph_name_ + "/" + config_.run_tag + "/" + what;
}

std::string Worker::Chan(const std::string& what, uint64_t seq) const {
  return Scratch(what) + "/" + std::to_string(seq);
}

Result<core::MappedRegion*> Worker::MapScratch(const std::string& name) {
  core::RmapOptions opts;
  opts.cache_mode = config_.cache ? cache::CacheMode::kEpoch
                                  : cache::CacheMode::kNone;
  return client_.Rmap(name, opts);
}

Status Worker::EnsureRegion(const std::string& name, uint64_t size) {
  Status st = client_.Ralloc(name, size);
  if (st.code() == ErrorCode::kAlreadyExists) return Status::Ok();
  return st;
}

Status Worker::Barrier(const std::string& name, uint64_t seq) {
  RSTORE_RETURN_IF_ERROR(client_.NotifyInc(Chan(name, seq)));
  return client_.WaitNotify(Chan(name, seq), config_.num_workers).status();
}

Result<uint64_t> Worker::ReduceSum(const std::string& name, uint64_t seq,
                                   uint64_t local_value) {
  // Contribute first, then arrive: once everyone arrived, the value
  // channel necessarily holds the complete sum.
  RSTORE_RETURN_IF_ERROR(
      client_.NotifyInc(Chan(name + "-val", seq), local_value));
  RSTORE_RETURN_IF_ERROR(client_.NotifyInc(Chan(name + "-arr", seq), 1));
  RSTORE_RETURN_IF_ERROR(
      client_.WaitNotify(Chan(name + "-arr", seq), config_.num_workers)
          .status());
  return client_.WaitNotify(Chan(name + "-val", seq), 0);
}

Status Worker::Init() {
  auto opened = OpenGraph(client_, graph_name_);
  if (!opened.ok()) return opened.status();
  graph_ = *opened;

  const std::vector<uint64_t> bounds =
      PartitionBounds(graph_.cost_quantiles, config_.num_workers);
  lo_ = bounds[config_.worker_id];
  hi_ = bounds[config_.worker_id + 1];
  const uint64_t cnt = hi_ - lo_;

  // Pull this partition's CSR slices. Each fetch is a single striped
  // one-sided read.
  auto fetch = [&](const std::string& region_name, uint64_t byte_off,
                   std::span<std::byte> dst) -> Status {
    if (dst.empty()) return Status::Ok();
    RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(dst));
    // Topology is write-once once loaded, so it may cache as kImmutable;
    // these bulk partition fetches mostly stream around the cache
    // (bypass), but later random topology reads would hit.
    core::RmapOptions opts;
    opts.cache_mode = config_.cache ? cache::CacheMode::kImmutable
                                    : cache::CacheMode::kNone;
    auto region = client_.Rmap(region_name, opts);
    if (!region.ok()) return region.status();
    return (*region)->Read(byte_off, dst);
  };

  out_offsets_.resize(cnt + 1);
  RSTORE_RETURN_IF_ERROR(fetch(GraphRegions::OutOffsets(graph_name_),
                               lo_ * 8, AsBytes(out_offsets_)));
  in_offsets_.resize(cnt + 1);
  RSTORE_RETURN_IF_ERROR(fetch(GraphRegions::InOffsets(graph_name_), lo_ * 8,
                               AsBytes(in_offsets_)));

  const uint64_t out_lo = out_offsets_.front();
  const uint64_t out_n = out_offsets_.back() - out_lo;
  out_targets_.resize(out_n);
  RSTORE_RETURN_IF_ERROR(fetch(GraphRegions::OutTargets(graph_name_),
                               out_lo * 4, AsBytes(out_targets_)));

  const uint64_t in_lo = in_offsets_.front();
  const uint64_t in_n = in_offsets_.back() - in_lo;
  in_targets_.resize(in_n);
  RSTORE_RETURN_IF_ERROR(fetch(GraphRegions::InTargets(graph_name_),
                               in_lo * 4, AsBytes(in_targets_)));
  if (graph_.weighted) {
    in_weights_.resize(in_n);
    RSTORE_RETURN_IF_ERROR(fetch(GraphRegions::InWeights(graph_name_),
                                 in_lo * 4, AsBytes(in_weights_)));
  }

  initialized_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// PageRank: pull over in-edges, contributions double-buffered in RStore.
// ---------------------------------------------------------------------------
Result<std::vector<double>> Worker::PageRank(const PageRankOptions& options) {
  if (!initialized_) {
    return Result<std::vector<double>>(ErrorCode::kInvalidArgument,
                                       "call Init() first");
  }
  const uint64_t n = graph_.n;
  const uint64_t cnt = hi_ - lo_;
  const uint32_t W = config_.num_workers;
  const double d = options.damping;
  const sim::CpuCostModel& cpu = client_.device().network().cpu_model();

  for (int b = 0; b < 2; ++b) {
    RSTORE_RETURN_IF_ERROR(
        EnsureRegion(Scratch("contrib" + std::to_string(b)), n * 8));
    RSTORE_RETURN_IF_ERROR(
        EnsureRegion(Scratch("dangling" + std::to_string(b)), W * 8));
  }
  RSTORE_RETURN_IF_ERROR(EnsureRegion(Scratch("rank"), n * 8));

  core::MappedRegion* contrib[2];
  core::MappedRegion* dangling[2];
  for (int b = 0; b < 2; ++b) {
    RSTORE_ASSIGN_OR_RETURN(contrib[b],
                            MapScratch(Scratch("contrib" +
                                               std::to_string(b))));
    RSTORE_ASSIGN_OR_RETURN(dangling[b],
                            MapScratch(Scratch("dangling" +
                                               std::to_string(b))));
  }
  core::MappedRegion* rank_region;
  RSTORE_ASSIGN_OR_RETURN(rank_region, client_.Rmap(Scratch("rank")));

  std::vector<double> rank(std::max<uint64_t>(cnt, 1),
                           1.0 / static_cast<double>(n));
  std::vector<double> contrib_slice(std::max<uint64_t>(cnt, 1));
  std::vector<double> contrib_full(n);
  std::vector<double> dangling_all(W);
  std::vector<double> dangling_mine(1);
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(rank)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(contrib_slice)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(contrib_full)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(dangling_all)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(dangling_mine)));

  const uint64_t my_in_edges = in_targets_.size();

  for (uint32_t iter = 0; iter < options.iterations; ++iter) {
    obs::Telemetry* tel = client_.device().network().sim().telemetry();
    obs::ObsSpan step_span(tel, client_.device().node_id(), "app",
                           "pr.superstep");
    step_span.Arg("iteration", static_cast<double>(iter));
    if (tel != nullptr) {
      tel->metrics()
          .ForNode(client_.device().node_id())
          .GetCounter("carafe.supersteps")
          .Inc();
    }
    const int buf = static_cast<int>(iter & 1);
    if (config_.cache) {
      // New epoch for the buffer about to be rewritten — before the
      // local writes, so this worker's write-throughs stay trusted while
      // every other worker's slice becomes a miss.
      contrib[buf]->BumpEpoch();
      dangling[buf]->BumpEpoch();
    }

    // Publish contributions of my vertices for this iteration.
    dangling_mine[0] = 0;
    for (uint64_t v = 0; v < cnt; ++v) {
      const uint64_t deg = out_offsets_[v + 1] - out_offsets_[v];
      if (deg == 0) {
        contrib_slice[v] = 0;
        dangling_mine[0] += rank[v];
      } else {
        contrib_slice[v] = rank[v] / static_cast<double>(deg);
      }
    }
    sim::ChargeCpu(sim::ScanCost(cpu, cnt * 8));
    if (cnt > 0) {
      RSTORE_RETURN_IF_ERROR(contrib[buf]->Write(
          lo_ * 8, std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(
                           contrib_slice.data()),
                       cnt * 8)));
    }
    RSTORE_RETURN_IF_ERROR(dangling[buf]->Write(
        config_.worker_id * 8, AsBytes(dangling_mine)));

    RSTORE_RETURN_IF_ERROR(Barrier("pr", iter));

    // Pull the full contribution array (a striped read across the whole
    // cluster) and the dangling mass, then apply the vertex program.
    RSTORE_RETURN_IF_ERROR(contrib[buf]->Read(0, AsBytes(contrib_full)));
    RSTORE_RETURN_IF_ERROR(dangling[buf]->Read(0, AsBytes(dangling_all)));
    double dangling_total = 0;
    for (const double x : dangling_all) dangling_total += x;
    const double base = (1.0 - d) / static_cast<double>(n) +
                        d * dangling_total / static_cast<double>(n);
    const uint64_t in_base = in_offsets_.front();
    for (uint64_t v = 0; v < cnt; ++v) {
      double sum = 0;
      for (uint64_t e = in_offsets_[v]; e < in_offsets_[v + 1]; ++e) {
        sum += contrib_full[in_targets_[e - in_base]];
      }
      rank[v] = base + d * sum;
    }
    sim::ChargeCpu(sim::GraphEdgeCost(cpu, my_in_edges) +
                   sim::ScanCost(cpu, cnt * 8));
  }

  // Assemble the global result through the shared rank region.
  if (cnt > 0) {
    RSTORE_RETURN_IF_ERROR(rank_region->Write(
        lo_ * 8, std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(rank.data()),
                     cnt * 8)));
  }
  RSTORE_RETURN_IF_ERROR(Barrier("pr-done", 0));
  std::vector<double> result(n);
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(result)));
  RSTORE_RETURN_IF_ERROR(rank_region->Read(0, AsBytes(result)));
  return result;
}

// ---------------------------------------------------------------------------
// BFS: level-synchronous, per-worker frontier bitmaps, double-buffered.
// ---------------------------------------------------------------------------
Result<std::vector<uint32_t>> Worker::Bfs(uint64_t source) {
  if (!initialized_) {
    return Result<std::vector<uint32_t>>(ErrorCode::kInvalidArgument,
                                         "call Init() first");
  }
  if (source >= graph_.n) {
    return Result<std::vector<uint32_t>>(ErrorCode::kOutOfRange,
                                         "source vertex out of range");
  }
  constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
  const uint64_t n = graph_.n;
  const uint64_t cnt = hi_ - lo_;
  const uint32_t W = config_.num_workers;
  const sim::CpuCostModel& cpu = client_.device().network().cpu_model();

  for (int b = 0; b < 2; ++b) {
    RSTORE_RETURN_IF_ERROR(EnsureRegion(
        Scratch("bfs-next" + std::to_string(b)), static_cast<uint64_t>(W) * n));
  }
  RSTORE_RETURN_IF_ERROR(EnsureRegion(Scratch("bfs-dist"), n * 4));
  // BFS bitmaps stay uncached even when config_.cache is set: the merge
  // reads below touch one short slice per peer bitmap exactly once per
  // level, so page-granular fills would fetch far more than the slice
  // (fill amplification) with no reuse to pay it back.
  core::MappedRegion* next_region[2];
  for (int b = 0; b < 2; ++b) {
    RSTORE_ASSIGN_OR_RETURN(next_region[b],
                            client_.Rmap(Scratch("bfs-next" +
                                                 std::to_string(b))));
  }
  core::MappedRegion* dist_region;
  RSTORE_ASSIGN_OR_RETURN(dist_region, client_.Rmap(Scratch("bfs-dist")));

  std::vector<uint32_t> dist(std::max<uint64_t>(cnt, 1), kUnreached);
  std::vector<uint64_t> frontier;
  if (source >= lo_ && source < hi_) {
    dist[source - lo_] = 0;
    frontier.push_back(source);
  }

  std::vector<uint8_t> next_full(n);
  std::vector<uint8_t> merge(std::max<uint64_t>(W * cnt, 1));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(dist)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(next_full)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(merge)));

  const uint64_t out_base = out_offsets_.front();
  uint32_t level = 0;
  while (true) {
    const int buf = static_cast<int>(level & 1);

    // Expand my frontier into a full-width bitmap and publish it.
    std::fill(next_full.begin(), next_full.end(), 0);
    uint64_t expanded = 0;
    for (const uint64_t v : frontier) {
      const uint64_t i = v - lo_;
      for (uint64_t e = out_offsets_[i]; e < out_offsets_[i + 1]; ++e) {
        next_full[out_targets_[e - out_base]] = 1;
        ++expanded;
      }
    }
    sim::ChargeCpu(sim::GraphEdgeCost(cpu, expanded) +
                   sim::ScanCost(cpu, n));
    RSTORE_RETURN_IF_ERROR(next_region[buf]->Write(
        static_cast<uint64_t>(config_.worker_id) * n, AsBytes(next_full)));

    RSTORE_RETURN_IF_ERROR(Barrier("bfs", level));

    // Merge every worker's bitmap over my vertex range.
    if (cnt > 0) {
      for (uint32_t w2 = 0; w2 < W; ++w2) {
        RSTORE_RETURN_IF_ERROR(next_region[buf]->Read(
            static_cast<uint64_t>(w2) * n + lo_,
            std::span<std::byte>(
                reinterpret_cast<std::byte*>(merge.data()) + w2 * cnt,
                cnt)));
      }
    }
    frontier.clear();
    for (uint64_t i = 0; i < cnt; ++i) {
      if (dist[i] != kUnreached) continue;
      bool hit = false;
      for (uint32_t w2 = 0; w2 < W && !hit; ++w2) {
        hit = merge[w2 * cnt + i] != 0;
      }
      if (hit) {
        dist[i] = level + 1;
        frontier.push_back(lo_ + i);
      }
    }
    sim::ChargeCpu(sim::ScanCost(cpu, W * cnt));

    auto total = ReduceSum("bfs-new", level, frontier.size());
    if (!total.ok()) return total.status();
    if (*total == 0) break;
    ++level;
  }

  if (cnt > 0) {
    RSTORE_RETURN_IF_ERROR(dist_region->Write(
        lo_ * 4, std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(dist.data()),
                     cnt * 4)));
  }
  RSTORE_RETURN_IF_ERROR(Barrier("bfs-done", 0));
  std::vector<uint32_t> result(n);
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(result)));
  RSTORE_RETURN_IF_ERROR(dist_region->Read(0, AsBytes(result)));
  return result;
}

// ---------------------------------------------------------------------------
// Connected components: synchronous min-label propagation (symmetric
// graphs).
// ---------------------------------------------------------------------------
Result<std::vector<uint64_t>> Worker::Components() {
  if (!initialized_) {
    return Result<std::vector<uint64_t>>(ErrorCode::kInvalidArgument,
                                         "call Init() first");
  }
  const uint64_t n = graph_.n;
  const uint64_t cnt = hi_ - lo_;
  const sim::CpuCostModel& cpu = client_.device().network().cpu_model();

  for (int b = 0; b < 2; ++b) {
    RSTORE_RETURN_IF_ERROR(
        EnsureRegion(Scratch("label" + std::to_string(b)), n * 8));
  }
  RSTORE_RETURN_IF_ERROR(EnsureRegion(Scratch("cc"), n * 8));
  core::MappedRegion* label_region[2];
  for (int b = 0; b < 2; ++b) {
    RSTORE_ASSIGN_OR_RETURN(label_region[b],
                            MapScratch(Scratch("label" +
                                               std::to_string(b))));
  }
  core::MappedRegion* cc_region;
  RSTORE_ASSIGN_OR_RETURN(cc_region, client_.Rmap(Scratch("cc")));

  std::vector<uint64_t> label(std::max<uint64_t>(cnt, 1));
  for (uint64_t i = 0; i < cnt; ++i) label[i] = lo_ + i;
  std::vector<uint64_t> label_full(n);
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(label)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(label_full)));

  const uint64_t in_base = in_offsets_.front();
  uint64_t iter = 0;
  while (true) {
    const int buf = static_cast<int>(iter & 1);
    if (config_.cache) label_region[buf]->BumpEpoch();
    if (cnt > 0) {
      RSTORE_RETURN_IF_ERROR(label_region[buf]->Write(
          lo_ * 8, std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(label.data()),
                       cnt * 8)));
    }
    RSTORE_RETURN_IF_ERROR(Barrier("cc", iter));
    RSTORE_RETURN_IF_ERROR(label_region[buf]->Read(0, AsBytes(label_full)));

    uint64_t changes = 0;
    for (uint64_t i = 0; i < cnt; ++i) {
      uint64_t best = label[i];
      for (uint64_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e) {
        best = std::min(best, label_full[in_targets_[e - in_base]]);
      }
      if (best < label[i]) {
        label[i] = best;
        ++changes;
      }
    }
    sim::ChargeCpu(sim::GraphEdgeCost(cpu, in_targets_.size()) +
                   sim::ScanCost(cpu, n * 8));

    auto total = ReduceSum("cc-new", iter, changes);
    if (!total.ok()) return total.status();
    if (*total == 0) break;
    ++iter;
  }

  if (cnt > 0) {
    RSTORE_RETURN_IF_ERROR(cc_region->Write(
        lo_ * 8, std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(label.data()),
                     cnt * 8)));
  }
  RSTORE_RETURN_IF_ERROR(Barrier("cc-done", 0));
  std::vector<uint64_t> result(n);
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(result)));
  RSTORE_RETURN_IF_ERROR(cc_region->Read(0, AsBytes(result)));
  return result;
}


// ---------------------------------------------------------------------------
// SSSP: synchronous Bellman-Ford over in-edges, distances double-buffered
// in RStore; terminates when a round relaxes nothing anywhere.
// ---------------------------------------------------------------------------
Result<std::vector<uint64_t>> Worker::Sssp(uint64_t source) {
  if (!initialized_) {
    return Result<std::vector<uint64_t>>(ErrorCode::kInvalidArgument,
                                         "call Init() first");
  }
  if (!graph_.weighted) {
    return Result<std::vector<uint64_t>>(
        ErrorCode::kInvalidArgument,
        "SSSP requires a weighted graph (use Bfs for unit weights)");
  }
  if (source >= graph_.n) {
    return Result<std::vector<uint64_t>>(ErrorCode::kOutOfRange,
                                         "source vertex out of range");
  }
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
  const uint64_t n = graph_.n;
  const uint64_t cnt = hi_ - lo_;
  const sim::CpuCostModel& cpu = client_.device().network().cpu_model();

  for (int b = 0; b < 2; ++b) {
    RSTORE_RETURN_IF_ERROR(
        EnsureRegion(Scratch("dist" + std::to_string(b)), n * 8));
  }
  RSTORE_RETURN_IF_ERROR(EnsureRegion(Scratch("sssp"), n * 8));
  core::MappedRegion* dist_region[2];
  for (int b = 0; b < 2; ++b) {
    RSTORE_ASSIGN_OR_RETURN(dist_region[b],
                            MapScratch(Scratch("dist" +
                                               std::to_string(b))));
  }
  core::MappedRegion* result_region;
  RSTORE_ASSIGN_OR_RETURN(result_region, client_.Rmap(Scratch("sssp")));

  std::vector<uint64_t> dist(std::max<uint64_t>(cnt, 1), kInf);
  if (source >= lo_ && source < hi_) dist[source - lo_] = 0;
  std::vector<uint64_t> dist_full(n);
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(dist)));
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(dist_full)));

  const uint64_t in_base = in_offsets_.front();
  uint64_t round = 0;
  while (true) {
    const int buf = static_cast<int>(round & 1);
    if (config_.cache) dist_region[buf]->BumpEpoch();
    if (cnt > 0) {
      RSTORE_RETURN_IF_ERROR(dist_region[buf]->Write(
          lo_ * 8, std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(dist.data()),
                       cnt * 8)));
    }
    RSTORE_RETURN_IF_ERROR(Barrier("sssp", round));
    RSTORE_RETURN_IF_ERROR(dist_region[buf]->Read(0, AsBytes(dist_full)));

    uint64_t changes = 0;
    for (uint64_t i = 0; i < cnt; ++i) {
      uint64_t best = dist[i];
      for (uint64_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e) {
        const uint64_t du = dist_full[in_targets_[e - in_base]];
        if (du == kInf) continue;
        const uint64_t cand = du + in_weights_[e - in_base];
        best = std::min(best, cand);
      }
      if (best < dist[i]) {
        dist[i] = best;
        ++changes;
      }
    }
    sim::ChargeCpu(sim::GraphEdgeCost(cpu, in_targets_.size()) +
                   sim::ScanCost(cpu, n * 8));

    auto total = ReduceSum("sssp-new", round, changes);
    if (!total.ok()) return total.status();
    if (*total == 0) break;
    ++round;
  }

  if (cnt > 0) {
    RSTORE_RETURN_IF_ERROR(result_region->Write(
        lo_ * 8, std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(dist.data()),
                     cnt * 8)));
  }
  RSTORE_RETURN_IF_ERROR(Barrier("sssp-done", 0));
  std::vector<uint64_t> result(n);
  RSTORE_RETURN_IF_ERROR(client_.RegisterBuffer(AsBytes(result)));
  RSTORE_RETURN_IF_ERROR(result_region->Read(0, AsBytes(result)));
  return result;
}

}  // namespace rstore::carafe
