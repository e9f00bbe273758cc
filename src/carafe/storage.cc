#include "carafe/storage.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace rstore::carafe {
namespace {

// u64 words of G/meta ahead of the cost table.
constexpr uint64_t kMetaWords = 4;

// Uploads a raw array as one region through a registered staging view.
// Registering the caller's array directly would pin application memory
// the client does not own past the call, so we stage through a pinned
// bounce buffer in chunks (setup-time cost, not data-path cost).
Status UploadArray(core::RStoreClient& client, const std::string& region_name,
                   const void* data, uint64_t bytes) {
  RSTORE_RETURN_IF_ERROR(client.Ralloc(region_name, bytes));
  auto region = client.Rmap(region_name);
  if (!region.ok()) return region.status();

  constexpr uint64_t kChunk = 8ULL << 20;
  auto staging = client.AllocBuffer(std::min(bytes, kChunk));
  if (!staging.ok()) return staging.status();

  const auto* src = static_cast<const std::byte*>(data);
  uint64_t off = 0;
  while (off < bytes) {
    const uint64_t n = std::min(kChunk, bytes - off);
    std::memcpy(staging->begin(), src + off, n);
    sim::ChargeCpu(sim::MemcpyCost(
        client.device().network().cpu_model(), n));
    RSTORE_RETURN_IF_ERROR((*region)->Write(
        off, std::span<const std::byte>(staging->begin(), n)));
    off += n;
  }
  return Status::Ok();
}

}  // namespace

Status UploadGraph(core::RStoreClient& client, const std::string& name,
                   const Graph& graph) {
  const Graph transpose = Transpose(graph);
  const uint64_t n = graph.num_vertices();
  const uint64_t m = graph.num_edges();

  // Meta region first: n, m, m_in, weighted flag, then the cost table.
  std::array<uint64_t, kMetaWords + kCostQuantiles + 1> meta{
      n, m, transpose.num_edges(), graph.weighted() ? 1ULL : 0ULL};
  const CostTable table = CostQuantiles(transpose.offsets);
  std::copy(table.begin(), table.end(), meta.begin() + kMetaWords);
  RSTORE_RETURN_IF_ERROR(UploadArray(client, GraphRegions::Meta(name),
                                     meta.data(), sizeof(meta)));

  RSTORE_RETURN_IF_ERROR(UploadArray(client, GraphRegions::OutOffsets(name),
                                     graph.offsets.data(),
                                     (n + 1) * sizeof(uint64_t)));
  if (m > 0) {
    RSTORE_RETURN_IF_ERROR(UploadArray(client, GraphRegions::OutTargets(name),
                                       graph.targets.data(),
                                       m * sizeof(uint32_t)));
  }
  RSTORE_RETURN_IF_ERROR(UploadArray(client, GraphRegions::InOffsets(name),
                                     transpose.offsets.data(),
                                     (n + 1) * sizeof(uint64_t)));
  if (transpose.num_edges() > 0) {
    RSTORE_RETURN_IF_ERROR(UploadArray(client, GraphRegions::InTargets(name),
                                       transpose.targets.data(),
                                       transpose.num_edges() *
                                           sizeof(uint32_t)));
  }
  if (graph.weighted() && m > 0) {
    RSTORE_RETURN_IF_ERROR(UploadArray(client, GraphRegions::OutWeights(name),
                                       graph.weights.data(),
                                       m * sizeof(uint32_t)));
    RSTORE_RETURN_IF_ERROR(UploadArray(client, GraphRegions::InWeights(name),
                                       transpose.weights.data(),
                                       transpose.num_edges() *
                                           sizeof(uint32_t)));
  }
  return Status::Ok();
}

Result<StoredGraph> OpenGraph(core::RStoreClient& client,
                              const std::string& name) {
  auto region = client.Rmap(GraphRegions::Meta(name));
  if (!region.ok()) return region.status();
  constexpr uint64_t kTableBytes = sizeof(CostTable);
  auto buf = client.AllocBuffer(kMetaWords * sizeof(uint64_t) + kTableBytes);
  if (!buf.ok()) return buf.status();
  RSTORE_RETURN_IF_ERROR((*region)->Read(0, buf->data));
  uint64_t meta[kMetaWords];
  std::memcpy(meta, buf->begin(), sizeof(meta));
  StoredGraph stored{name, meta[0], meta[1], meta[3] != 0};
  std::memcpy(stored.cost_quantiles.data(), buf->begin() + sizeof(meta),
              kTableBytes);
  return stored;
}

Status DropGraph(core::RStoreClient& client, const std::string& name) {
  Status first;
  for (const std::string& region :
       {GraphRegions::Meta(name), GraphRegions::OutOffsets(name),
        GraphRegions::OutTargets(name), GraphRegions::InOffsets(name),
        GraphRegions::InTargets(name), GraphRegions::OutWeights(name),
        GraphRegions::InWeights(name)}) {
    Status st = client.Rfree(region);
    if (!st.ok() && st.code() != ErrorCode::kNotFound && first.ok()) {
      first = st;
    }
  }
  return first;
}

}  // namespace rstore::carafe
