#include "kv/kv.h"

#include "check/check.h"
#include "check/lin.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace rstore::kv {
namespace {

// Per-operation telemetry: bumps a call counter and records the op's
// virtual-time latency on destruction. Inert when no Telemetry is
// attached to the simulation.
struct OpObs {
  OpObs(core::RStoreClient& client, const char* counter, const char* timer)
      : tel(client.device().network().sim().telemetry()) {
    if (tel != nullptr) {
      node = client.device().node_id();
      obs::NodeMetrics& m = tel->metrics().ForNode(node);
      calls = &m.GetCounter(counter);
      latency = &m.GetTimer(timer);
      t0 = tel->NowNs();
    }
  }
  ~OpObs() {
    if (tel != nullptr) {
      calls->Inc();
      latency->Record(tel->NowNs() - t0);
    }
  }
  OpObs(const OpObs&) = delete;
  OpObs& operator=(const OpObs&) = delete;

  obs::Telemetry* tel;
  uint32_t node = 0;
  obs::Counter* calls = nullptr;
  obs::Timer* latency = nullptr;
  uint64_t t0 = 0;
};

}  // namespace

KvStore::KvStore(core::RStoreClient& client, core::MappedRegion* region)
    : client_(client), region_(region), issuer_(client.device()) {}

Status KvStore::Init(const KvOptions* geometry) {
  RSTORE_RETURN_IF_ERROR(issuer_.Bind(*region_, /*qp_per_server=*/1));
  KvOptions header;
  if (geometry == nullptr) {
    // The header read is the store's first IO: it connects the store's
    // QP to the header's server, and the ops reuse that connection.
    RSTORE_ASSIGN_OR_RETURN(header, issuer_.ReadGeometry(client_));
    geometry = &header;
  }
  options_ = *geometry;
  RSTORE_ASSIGN_OR_RETURN(
      scratch_,
      client_.AllocBuffer(SlotOp::ScratchBytes(options_.slot_bytes, 1)));
  op_.Bind(options_, kRetryPolicy, scratch_.begin(), 1);
  return Status::Ok();
}

Result<std::unique_ptr<KvStore>> KvStore::Create(core::RStoreClient& client,
                                                 const std::string& name,
                                                 KvOptions options) {
  if (options.buckets == 0 || options.slot_bytes <= kSlotHeader ||
      options.max_probe == 0) {
    return Result<std::unique_ptr<KvStore>>(ErrorCode::kInvalidArgument,
                                            "bad table geometry");
  }
  const uint64_t bytes = SlotLayout::kHeaderBytes +
                         options.buckets * options.slot_bytes;
  RSTORE_RETURN_IF_ERROR(client.Ralloc(name, bytes));
  auto region = client.Rmap(name);
  if (!region.ok()) return region.status();
  // Slots rely on the arena being zero-initialized (version 0 = never
  // used); only the header is written, over the region's own connection
  // (LoadEngine::PreloadTable streams the table image over it next).
  auto hdr = client.AllocBuffer(SlotLayout::kHeaderBytes);
  if (!hdr.ok()) return hdr.status();
  SlotLayout::WriteHeader(hdr->begin(), options);
  RSTORE_RETURN_IF_ERROR((*region)->Write(0, hdr->data));
  auto store = std::unique_ptr<KvStore>(new KvStore(client, *region));
  RSTORE_RETURN_IF_ERROR(store->Init(&options));
  return store;
}

Result<std::unique_ptr<KvStore>> KvStore::Open(core::RStoreClient& client,
                                               const std::string& name) {
  auto region = client.Rmap(name);
  if (!region.ok()) return region.status();
  auto store = std::unique_ptr<KvStore>(new KvStore(client, *region));
  RSTORE_RETURN_IF_ERROR(store->Init(nullptr));
  return store;
}

Status KvStore::Drive(std::string_view key, obs::ObsSpan* span) {
  sim::Simulation& sim = client_.device().network().sim();
  if (span != nullptr && span->active()) {
    // Server attribution: the home slot's owner serves (almost) every
    // probe of this op, so rtrace flows and kv spans agree on the target.
    const uint64_t home = op_.home();
    span->Arg("home_slot", static_cast<double>(home));
    span->Arg("server_node",
              static_cast<double>(issuer_.server_nodes()[issuer_.ServerIndexOf(
                  SlotLayout::SlotOffset(home, options_.slot_bytes))]));
  }
  const auto invoked = static_cast<uint64_t>(sim.NowNanos());
  while (!op_.done()) {
    const SlotStep step = op_.step();
    if (step.kind == SlotStep::Kind::kBackoff) {
      sim::Sleep(step.backoff);
      op_.Complete();
      continue;
    }
    if (step.kind == SlotStep::Kind::kProbe ||
        step.kind == SlotStep::Kind::kLock) {
      ++stats_.probe_reads;
    }
    if (Status st = issuer_.RoundTrips(step, scratch_.lkey,
                                       client_.options().io_timeout);
        !st.ok()) {
      op_.Fail(std::move(st));
      continue;
    }
    op_.Complete();
  }
  stats_.version_retries += op_.retries();
  if (check::LinChecker* lin = sim.lin(); lin != nullptr) {
    // rlin history capture (see check/lin.h): pure host-side observation,
    // so virtual time is bit-identical with the checker on or off. The
    // table's region id keys the register too: equal keys in two tables
    // are two registers.
    const uint64_t lin_key =
        StableHash64(key) ^ (region_->desc().id * 0x9E3779B97F4A7C15ULL);
    op_.RecordLin(*lin, client_.device().node_id(), lin_key, invoked,
                  static_cast<uint64_t>(sim.NowNanos()));
  }
  return op_.status();
}

Result<std::vector<std::byte>> KvStore::Get(std::string_view key) {
  ++stats_.gets;
  check::OpLabelScope label(client_.device().network().sim().checker(),
                            "kv.get");
  OpObs obs(client_, "kv.gets", "kv.get_ns");
  obs::ObsSpan span(obs.tel, obs.node, "app", "kv.get");
  op_.Start(SlotOpKind::kGet, key);
  RSTORE_RETURN_IF_ERROR(Drive(key, &span));
  const std::span<const std::byte> value = op_.value();
  return std::vector<std::byte>(value.begin(), value.end());
}

Status KvStore::Put(std::string_view key, std::span<const std::byte> value) {
  ++stats_.puts;
  check::OpLabelScope label(client_.device().network().sim().checker(),
                            "kv.put");
  OpObs obs(client_, "kv.puts", "kv.put_ns");
  obs::ObsSpan span(obs.tel, obs.node, "app", "kv.put");
  op_.Start(SlotOpKind::kUpsert, key, value);
  return Drive(key, &span);
}

Status KvStore::Delete(std::string_view key) {
  ++stats_.deletes;
  check::OpLabelScope label(client_.device().network().sim().checker(),
                            "kv.delete");
  op_.Start(SlotOpKind::kDelete, key);
  return Drive(key, nullptr);
}

}  // namespace rstore::kv
