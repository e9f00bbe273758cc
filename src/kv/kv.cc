#include "kv/kv.h"

#include <array>
#include <cstring>

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

KvStore::KvStore(core::RStoreClient& client, core::MappedRegion* region,
                 KvOptions options)
    : client_(client), region_(region), options_(options) {}

Result<std::unique_ptr<KvStore>> KvStore::Make(core::RStoreClient& client,
                                               core::MappedRegion* region,
                                               KvOptions options) {
  auto store =
      std::unique_ptr<KvStore>(new KvStore(client, region, options));
  RSTORE_ASSIGN_OR_RETURN(
      store->scratch_,
      client.AllocBuffer(SlotOp::ScratchBytes(options.slot_bytes, 1)));
  store->op_.Bind(store->options_, kRetryPolicy, store->scratch_.begin(), 1);
  return store;
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
  // used); only the header is written.
  auto hdr = client.AllocBuffer(SlotLayout::kHeaderBytes);
  if (!hdr.ok()) return hdr.status();
  SlotLayout::WriteHeader(hdr->begin(), options);
  RSTORE_RETURN_IF_ERROR((*region)->Write(0, hdr->data));
  return Make(client, *region, options);
}

Result<std::unique_ptr<KvStore>> KvStore::Open(core::RStoreClient& client,
                                               const std::string& name) {
  auto region = client.Rmap(name);
  if (!region.ok()) return region.status();
  auto hdr = client.AllocBuffer(SlotLayout::kHeaderBytes);
  if (!hdr.ok()) return hdr.status();
  RSTORE_RETURN_IF_ERROR((*region)->Read(0, hdr->data));
  auto geometry = SlotLayout::ReadHeader(hdr->data);
  if (!geometry.ok()) return geometry.status();
  return Make(client, *region, *geometry);
}

Status KvStore::Issue(const SlotIo& io) {
  LaneScope lane(client_.device().network().sim().checker(), io.lane);
  switch (io.kind) {
    case SlotIo::Kind::kRead:
      return region_->Read(io.offset,
                           std::span<std::byte>(io.local, io.length));
    case SlotIo::Kind::kWrite:
      return region_->Write(io.offset,
                            std::span<const std::byte>(io.local, io.length));
    case SlotIo::Kind::kCas: {
      auto old = region_->CompareSwap(io.offset, io.compare, io.swap);
      if (!old.ok()) return old.status();
      std::memcpy(io.local, &*old, sizeof(uint64_t));
      return Status::Ok();
    }
  }
  return Status(ErrorCode::kInternal, "unknown slot IO");
}

bool KvStore::Pipelines(const SlotStep& step) const {
  // A lock step pairs a CAS with a read: it never qualifies.
  if (step.io_count != 2 || step.io[0].kind != step.io[1].kind) return false;
  auto first = region_->Resolve(step.io[0].offset, step.io[0].length);
  auto second = region_->Resolve(step.io[1].offset, step.io[1].length);
  return first.ok() && second.ok() &&
         first->server_node == second->server_node;
}

Status KvStore::IssuePipelined(const SlotStep& step) {
  const check::Checker* checker = client_.device().network().sim().checker();
  std::array<core::IoFuture, 2> futures;
  for (size_t i = 0; i < 2; ++i) {
    const SlotIo& io = step.io[i];
    LaneScope lane(checker, io.lane);
    Result<core::IoFuture> posted =
        io.kind == SlotIo::Kind::kRead
            ? region_->ReadAsync(io.offset,
                                 std::span<std::byte>(io.local, io.length))
            : region_->WriteAsync(
                  io.offset, std::span<const std::byte>(io.local, io.length));
    if (!posted.ok()) {
      if (i == 1) (void)futures[0].Wait();
      return posted.status();
    }
    futures[i] = *posted;
  }
  Status first = futures[0].Wait();
  Status second = futures[1].Wait();
  return first.ok() ? second : first;
}

Status KvStore::IssueStep(const SlotStep& step) {
  if (Pipelines(step)) return IssuePipelined(step);
  for (const SlotIo& io : step.ios()) RSTORE_RETURN_IF_ERROR(Issue(io));
  return Status::Ok();
}

Status KvStore::Drive(std::string_view key, obs::ObsSpan* span) {
  sim::Simulation& sim = client_.device().network().sim();
  if (span != nullptr && span->active()) {
    // Server attribution: the home slot's owner serves (almost) every
    // probe of this op, so rtrace flows and kv spans agree on the target.
    const uint64_t home = op_.home();
    span->Arg("home_slot", static_cast<double>(home));
    if (auto sp = region_->Resolve(
            SlotLayout::SlotOffset(home, options_.slot_bytes), 8);
        sp.ok()) {
      span->Arg("server_node", static_cast<double>(sp->server_node));
    }
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
    if (Status st = IssueStep(step); !st.ok()) {
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
