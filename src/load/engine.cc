#include "load/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "check/lin.h"
#include "kv/kv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace rstore::load {

using kv::SlotLayout;

namespace {

std::string_view KeyView(const std::byte* key) noexcept {
  return {reinterpret_cast<const char*>(key), 8};
}

}  // namespace

LoadEngine::LoadEngine(core::RStoreClient& client, std::string table,
                       const LoadOptions& options, uint32_t engine_index,
                       uint32_t engine_count)
    : client_(client),
      table_(std::move(table)),
      options_(options),
      engine_index_(engine_index),
      engine_count_(engine_count),
      issuer_(client.device()),
      hotkeys_(kHotkeyCapacity) {}

LoadEngine::~LoadEngine() {
  if (arena_mr_ != nullptr && pd_ != nullptr) {
    (void)pd_->DeregisterMemory(arena_mr_);
  }
}

void LoadEngine::EncodeKey(uint64_t id, std::byte out[8]) noexcept {
  std::memcpy(out, &id, sizeof(id));
}

size_t LoadEngine::Moderation() const noexcept {
  // CQ interrupt moderation: wait for a batch proportional to the
  // in-flight count, so heavy load amortizes wakeups and light load
  // stays prompt.
  size_t m = static_cast<size_t>(inflight_wrs_ / 4);
  m = std::clamp<size_t>(m, 1, kModerationMax);
  return std::min<size_t>(m, static_cast<size_t>(inflight_wrs_));
}

void LoadEngine::ResolveObs() {
  obs::Telemetry* tel = client_.device().network().sim().telemetry();
  if (tel == obs_owner_) return;
  obs_owner_ = tel;
  if (tel == nullptr) {
    obs_latency_ = nullptr;
    obs_completed_ = nullptr;
    obs_shed_ = nullptr;
    return;
  }
  obs::NodeMetrics& m =
      tel->metrics().ForNode(client_.device().node_id());
  obs_latency_ = &m.GetTimer("load.op_ns");
  obs_completed_ = &m.GetCounter("load.completed");
  obs_shed_ = &m.GetCounter("load.shed");
}

// ---------------------------------------------------------------------------
// Setup and preload.

Status LoadEngine::Setup() {
  lin_ = client_.device().network().sim().lin();
  RSTORE_ASSIGN_OR_RETURN(core::MappedRegion * region, client_.Rmap(table_));
  RSTORE_RETURN_IF_ERROR(issuer_.Bind(*region, kQpPerServer));
  RSTORE_RETURN_IF_ERROR(issuer_.mux().Connect());
  // Table geometry comes from the header, read over the mux as
  // KvStore::Open reads it, before any session stages a step.
  RSTORE_ASSIGN_OR_RETURN(geometry_, issuer_.ReadGeometry(client_));
  retry_policy_ = {options_.op_retry_budget, kv::SlotOp::kHolderBackoff};
  admission_ = std::make_unique<AdmissionController>(
      static_cast<uint32_t>(issuer_.server_nodes().size()), options_.admission,
      kWindowPerServer, kMaxDeferred);

  // One zipf generator per engine: its O(n) CDF is too heavy to clone per
  // session, and sessions are stepped in deterministic order anyway.
  zipf_ = std::make_unique<ZipfGenerator>(
      options_.preload_keys, options_.theta,
      options_.seed ^ (0x9e3779b97f4a7c15ULL * (engine_index_ + 1)));

  // Block-partition the sessions over engines.
  const uint32_t total = options_.sessions;
  const uint32_t base = total / engine_count_;
  const uint32_t rem = total % engine_count_;
  const uint32_t count = base + (engine_index_ < rem ? 1 : 0);
  first_global_session_ =
      engine_index_ * base + std::min(engine_index_, rem);
  if (count == 0) {
    return Status(ErrorCode::kInvalidArgument, "engine has no sessions");
  }
  sessions_.resize(count);
  // Scratch arena: one SlotOp scratch per session, 8-byte aligned. Its
  // slot area holds a whole scan run when the mix scans.
  const uint32_t area_slots =
      options_.mix.scan > 0.0 ? kScanLen : 1u;
  const size_t stride =
      (kv::SlotOp::ScratchBytes(geometry_.slot_bytes, area_slots) + 7) &
      ~size_t{7};
  arena_.assign(static_cast<size_t>(count) * stride, std::byte{0});
  pd_ = &client_.device().CreatePd();
  RSTORE_ASSIGN_OR_RETURN(
      arena_mr_,
      pd_->RegisterMemory(arena_.data(), arena_.size(), verbs::kLocalWrite));
  for (uint32_t s = 0; s < count; ++s) {
    const uint64_t gsid = first_global_session_ + s;
    sessions_[s].rng =
        Rng(options_.seed ^ (0x2545f4914f6cdd1dULL * (gsid + 1)));
    sessions_[s].slot_op.Bind(geometry_, retry_policy_,
                              arena_.data() + s * stride, area_slots);
  }
  stats_.sessions = count;
  stats_.qps = issuer_.mux().qp_count();
  if (options_.rtrace.mode != obs::RtraceMode::kOff) {
    rtrace_ = std::make_unique<obs::RtraceCollector>(options_.rtrace);
  }
  return Status::Ok();
}

Status LoadEngine::PreloadTable(core::RStoreClient& client,
                                const std::string& name,
                                const LoadOptions& options) {
  kv::KvOptions geo;
  geo.buckets = options.buckets();
  geo.slot_bytes = options.slot_bytes;
  geo.max_probe = options.max_probe;
  RSTORE_ASSIGN_OR_RETURN(auto store, kv::KvStore::Create(client, name, geo));

  // Compose the whole table locally, then stream it with one large write:
  // the per-key Put protocol (probe, CAS, write, release) is pure waste
  // when nobody else can observe the table yet.
  const uint64_t table_bytes = geo.buckets * geo.slot_bytes;
  RSTORE_ASSIGN_OR_RETURN(core::PinnedBuffer img,
                          client.AllocBuffer(table_bytes));
  std::memset(img.begin(), 0, table_bytes);
  Rng values(options.seed ^ 0x6c078965ULL);
  check::LinChecker* lin = client.device().network().sim().lin();
  uint64_t placed = 0;
  for (uint64_t id = 0; id < options.preload_keys; ++id) {
    std::byte kb[8];
    EncodeKey(id, kb);
    const uint64_t home = SlotLayout::HomeSlot(KeyView(kb), geo.buckets);
    for (uint32_t p = 0; p < geo.max_probe; ++p) {
      const uint64_t slot = (home + p) % geo.buckets;
      std::byte* dst = img.begin() + slot * geo.slot_bytes;
      uint64_t version;
      std::memcpy(&version, dst + SlotLayout::kVersionOff, sizeof(version));
      if (version != 0) continue;
      std::byte* value = SlotLayout::Compose(dst, /*version=*/2, KeyView(kb),
                                             options.value_bytes);
      values.Fill(value, options.value_bytes);
      // rlin: the preloaded value is the key's initial register state.
      if (lin != nullptr) {
        lin->RecordInit(
            id, check::LinChecker::Digest(value, options.value_bytes));
      }
      ++placed;
      break;
    }
  }
  if (placed < options.preload_keys) {
    return Status(ErrorCode::kOutOfMemory, "preload overflowed probe window");
  }
  return store->region().Write(
      SlotLayout::kHeaderBytes,
      std::span<const std::byte>(img.begin(), table_bytes));
}

// ---------------------------------------------------------------------------
// Arrival schedule.

void LoadEngine::ScheduleFirstArrivals() {
  for (uint32_t s = 0; s < sessions_.size(); ++s) {
    sessions_[s].next_intended = t0_;
    PushNextArrival(s);
  }
}

void LoadEngine::PushNextArrival(uint32_t s) {
  Session& ses = sessions_[s];
  // Exponential gap at the session's share of the offered rate. The draw
  // happens at schedule time, so the arrival process is open loop:
  // completions never influence when the next op is due.
  const double rate =
      options_.offered_load / static_cast<double>(options_.sessions);
  if (!(rate > 0.0)) {
    ses.next_intended = t_end_;
    return;
  }
  const double u = ses.rng.NextDouble();
  double gap_s = -std::log1p(-u) / rate;
  if (!(gap_s >= 1e-9)) gap_s = 1e-9;
  const double cap_s = sim::ToSeconds(options_.duration) + 1.0;
  if (gap_s >= cap_s) {
    ses.next_intended = t_end_;
    return;
  }
  ses.next_intended += std::max<sim::Nanos>(
      1, static_cast<sim::Nanos>(std::llround(gap_s * 1e9)));
  if (ses.next_intended < t_end_) {
    arrivals_.push({ses.next_intended, s});
  }
}

void LoadEngine::OnArrival(uint32_t s, sim::Nanos intended) {
  Session& ses = sessions_[s];
  ++stats_.arrivals;
  ++open_ops_;
  // The intended time anchors the latency measurement even if the session
  // is busy — the op starts late and the wait shows up in the histogram.
  ses.backlog.push_back(intended);
  PushNextArrival(s);
  if (!ses.busy) StartNextFromBacklog(s);
}

void LoadEngine::StartNextFromBacklog(uint32_t s) {
  Session& ses = sessions_[s];
  while (!ses.busy && !ses.backlog.empty()) {
    BeginOp(s);  // leaves the session idle only when the op was shed
  }
}

void LoadEngine::BeginOp(uint32_t s) {
  Session& ses = sessions_[s];
  ses.intended = ses.backlog.front();
  ses.backlog.pop_front();
  // Deadline shed: under sustained overload the per-session backlog is
  // unbounded (open loop), so an op can be stale before it is even
  // started. Starting it anyway just reports queueing delay the operator
  // already chose to shed; dropping it here is what keeps the
  // completed-op tail bounded.
  if (options_.admission && options_.shed_deadline > 0 &&
      sim::Now() > ses.intended + options_.shed_deadline) {
    CountShed();
    return;  // the session stays idle; caller loop starts the next op
  }
  if (rtrace_ != nullptr) {
    // New op: reset the stage breakdown and charge everything between the
    // intended send and this instant to backlog wait. From here on, each
    // transition charges [tr_cursor, now] to exactly one stage, so the
    // stages telescope to done - intended.
    ses.op_id = ((static_cast<uint64_t>(first_global_session_) + s) << 32) |
                ses.op_count;
    ses.tr_stage = {};
    ses.tr_last = {};
    ses.tr_cursor = ses.intended;
    ChargeStage(ses, obs::RtraceStage::kBacklog, sim::Now());
  }
  ++ses.op_count;
  DrawKey(s);
  hotkeys_.Offer(ses.key_id);
  ses.server_idx = issuer_.ServerIndexOf(
      SlotLayout::SlotOffset(ses.slot_op.home(), geometry_.slot_bytes));
  if (KeyClaims::Claims(ses.op)) {
    const KeyClaims::Role role =
        claims_.Acquire(ses.key_id, s, ses.op, [this](uint32_t h) {
          return sessions_[h].slot_op.wrote();
        });
    if (role != KeyClaims::Role::kHolder) {
      // Joined the holder's open batch, or parked behind the holder:
      // posts nothing and holds no admission slot until HandOff runs or
      // completes it.
      ++stats_.key_waits;
      if (role == KeyClaims::Role::kRider) ++stats_.joined;
      ses.busy = true;
      return;
    }
  }
  // A shed leaves the session idle; the caller loop starts the next op.
  if (!AdmitOrShed(s) && KeyClaims::Claims(ses.op)) {
    HandOff(s, KeyClaims::Outcome::kError);
  }
}

bool LoadEngine::AdmitOrShed(uint32_t s) {
  Session& ses = sessions_[s];
  switch (admission_->TryAdmit(ses.server_idx, s)) {
    case Admit::kAdmit:
      ses.busy = true;
      BeginAdmitted(s);
      return true;
    case Admit::kDefer:
      ses.busy = true;  // parked: BeginAdmitted runs on readmit
      return true;
    case Admit::kShed:
      break;
  }
  ses.busy = false;
  CountShed();
  return false;
}

void LoadEngine::CountShed() {
  ++stats_.shed;
  --open_ops_;
  ResolveObs();
  if (obs_shed_ != nullptr) obs_shed_->Inc();
}

void LoadEngine::BeginAdmitted(uint32_t s) {
  if (rtrace_ != nullptr) {
    // Zero when admission admitted synchronously; else the FIFO defer
    // wait, the wait parked behind the key's previous holder, or both.
    ChargeStage(sessions_[s], obs::RtraceStage::kAdmit, sim::Now());
  }
  Advance(s);
}

void LoadEngine::DrawKey(uint32_t s) {
  Session& ses = sessions_[s];
  ses.op = options_.mix.Pick(ses.rng);
  if (ses.op == OpType::kInsert) {
    // Globally unique fresh key: stripe the id space by session so no two
    // inserts ever collide.
    ses.key_id = options_.preload_keys +
                 ses.insert_seq * options_.sessions +
                 (first_global_session_ + s);
    ++ses.insert_seq;
  } else {
    ses.key_id = zipf_->Next();
  }
  EncodeKey(ses.key_id, ses.key_bytes);
  const std::string_view key = KeyView(ses.key_bytes);
  // Writes draw their value from the session RNG when the payload is
  // composed, so a retried op writes fresh bytes.
  switch (ses.op) {
    case OpType::kRead:
      ses.slot_op.Start(kv::SlotOpKind::kGet, key);
      break;
    case OpType::kScan:
      ses.slot_op.Start(kv::SlotOpKind::kScan, key);
      break;
    case OpType::kUpdate:
    case OpType::kInsert:
      ses.slot_op.StartDrawn(kv::SlotOpKind::kUpsert, key, ses.rng,
                             options_.value_bytes);
      break;
    case OpType::kReadModifyWrite:
      ses.slot_op.StartDrawn(kv::SlotOpKind::kUpdate, key, ses.rng,
                             options_.value_bytes);
      break;
  }
}

// ---------------------------------------------------------------------------
// Session driver.

void LoadEngine::Advance(uint32_t s) {
  Session& ses = sessions_[s];
  const kv::SlotStep step = ses.slot_op.step();
  if (step.kind == kv::SlotStep::Kind::kDone) {
    FinishOp(s);
    return;
  }
  if (step.kind == kv::SlotStep::Kind::kBackoff) {
    retries_.push({sim::Now() + step.backoff, s});
    return;
  }
  if (Status st = issuer_.Stage(s, ses.rt, step, arena_mr_->lkey());
      !st.ok()) {
    ses.slot_op.Fail(std::move(st));
    FinishOp(s);
    return;
  }
  inflight_wrs_ += ses.rt.pending;
}

void LoadEngine::HandleCompletion(const verbs::WorkCompletion& wc) {
  using Completion = kv::StepIssuer::Completion;
  const uint32_t s = kv::StepIssuer::SessionOf(wc.wr_id);
  if (inflight_wrs_ > 0) --inflight_wrs_;
  if (s >= sessions_.size()) {
    ++stats_.stale_completions;
    return;
  }
  Session& ses = sessions_[s];
  const Completion done = kv::StepIssuer::OnCompletion(ses.rt, wc);
  if (done == Completion::kStale) {
    ++stats_.stale_completions;
    return;
  }
  if (done == Completion::kPending) return;  // multi-piece IO draining
  if (rtrace_ != nullptr) {
    ChargeWireStages(ses, wc.stamps, sim::Now());
  }
  if (done == Completion::kFailed) {
    ses.slot_op.Fail(Status(ErrorCode::kUnavailable, "work request failed"));
    FinishOp(s);
    return;
  }
  // kMoreIos stages the step's next IO as its own round trip.
  if (done == Completion::kStepDone) ses.slot_op.Complete();
  Advance(s);
}

void LoadEngine::OnRetryTimer(uint32_t s) {
  Session& ses = sessions_[s];
  if (!ses.busy || ses.slot_op.step_kind() != kv::SlotStep::Kind::kBackoff) {
    ++stats_.stale_completions;
    return;
  }
  if (rtrace_ != nullptr) {
    ChargeStage(ses, obs::RtraceStage::kBackoff, sim::Now());
  }
  ses.slot_op.Complete();
  Advance(s);
}

void LoadEngine::FinishOp(uint32_t s) {
  Session& ses = sessions_[s];
  const int64_t readmit = admission_->Release(ses.server_idx);
  Respond(s);
  if (KeyClaims::Claims(ses.op)) {
    // Only an answer passes on: an error leaves the riders to run.
    using Outcome = KeyClaims::Outcome;
    const Status& st = ses.slot_op.status();
    HandOff(s, st.ok() ? Outcome::kWrite
               : st.code() == ErrorCode::kNotFound ? Outcome::kNotFound
                                                   : Outcome::kError);
  }
  StartNextFromBacklog(s);
  if (readmit >= 0) BeginAdmitted(static_cast<uint32_t>(readmit));
}

void LoadEngine::HandOff(uint32_t s, KeyClaims::Outcome outcome) {
  const uint64_t key = sessions_[s].key_id;
  std::vector<uint32_t> ended;  // sessions whose op ended here
  int64_t next = claims_.Release(key, outcome, ended);
  for (const uint32_t r : ended) {
    Session& rider = sessions_[r];
    rider.slot_op.Ride(sessions_[s].slot_op);
    ++stats_.combined;
    if (rtrace_ != nullptr) {
      ChargeStage(rider, obs::RtraceStage::kAdmit, sim::Now());
    }
    Respond(r);
  }
  // A shed holder passes nothing on either: its riders form the next
  // batch.
  while (next >= 0 && !AdmitOrShed(static_cast<uint32_t>(next))) {
    ended.push_back(static_cast<uint32_t>(next));
    next = claims_.Release(key, KeyClaims::Outcome::kError, ended);
  }
  for (const uint32_t r : ended) StartNextFromBacklog(r);
}

void LoadEngine::Respond(uint32_t s) {
  Session& ses = sessions_[s];
  const sim::Nanos now = sim::Now();
  const Status& st = ses.slot_op.status();
  const bool found = st.ok();
  const bool ok = found || st.code() == ErrorCode::kNotFound;
  stats_.retries += ses.slot_op.retries();
  // rlin history capture, before StartNextFromBacklog can reuse the
  // session's scratch. The invocation edge is the coordinated-omission
  // anchor (ses.intended): widening the interval only adds legal
  // linearization orders, so this stays sound (zero false positives)
  // while it may mask violations an exact-send anchor would expose.
  // Shed and never-admitted deferred ops never respond, so they never
  // appear as completed responses.
  if (lin_ != nullptr) {
    ses.slot_op.RecordLin(*lin_, first_global_session_ + s, ses.key_id,
                          static_cast<uint64_t>(ses.intended),
                          static_cast<uint64_t>(now));
  }
  if (ok) {
    ++stats_.completed;
    ++stats_.completed_by_type[static_cast<uint32_t>(ses.op)];
    if (!found) ++stats_.not_found;
    const uint64_t latency = now - ses.intended;
    stats_.latency.Add(latency);
    if (ses.op == OpType::kRead || ses.op == OpType::kScan) {
      stats_.read_latency.Add(latency);
    } else {
      stats_.write_latency.Add(latency);
    }
    stats_.drained_at = now;
    ResolveObs();
    if (obs_latency_ != nullptr) {
      obs_latency_->Record(latency);
      obs_completed_->Inc();
    }
    if (rtrace_ != nullptr) {
      // Residue between the last stage charge and completion (zero when
      // the op finished inside a completion handler) lands in cqpoll, so
      // the stages sum exactly to `latency`.
      ChargeStage(ses, obs::RtraceStage::kCqPoll, now);
      obs::RtraceOp rec;
      rec.op_id = ses.op_id;
      rec.kind = static_cast<uint8_t>(ses.op);
      rec.server_node = issuer_.server_nodes()[ses.server_idx];
      rec.intended_ns = static_cast<uint64_t>(ses.intended);
      rec.done_ns = static_cast<uint64_t>(now);
      rec.stage_ns = ses.tr_stage;
      rec.posted_ns = static_cast<uint64_t>(ses.tr_last.posted);
      rec.first_bit_ns = static_cast<uint64_t>(ses.tr_last.first_bit);
      rec.executed_ns = static_cast<uint64_t>(ses.tr_last.executed);
      rtrace_->Record(rtrace_seq_++, rec);
    }
  } else {
    ++stats_.errors;
  }
  --open_ops_;
  ses.busy = false;
}

void LoadEngine::ChargeStage(Session& ses, obs::RtraceStage stage,
                             sim::Nanos now) {
  if (now > ses.tr_cursor) {
    ses.tr_stage[static_cast<uint32_t>(stage)] +=
        static_cast<uint64_t>(now - ses.tr_cursor);
    ses.tr_cursor = now;
  }
}

void LoadEngine::ChargeWireStages(Session& ses,
                                  const verbs::WireStamps& stamps,
                                  sim::Nanos now) {
  // Subdivide [tr_cursor, now] by the step's stamp chain. Each stamp is
  // clamped monotone into the interval, so absent stamps (loopback steps
  // never enter the port model; the wire stages collapse to zero width)
  // and any residue still telescope: the charges sum to now - tr_cursor.
  sim::Nanos cur = ses.tr_cursor;
  const auto charge = [&](obs::RtraceStage stage, sim::Nanos at) {
    const sim::Nanos t = std::clamp(at, cur, now);
    ses.tr_stage[static_cast<uint32_t>(stage)] +=
        static_cast<uint64_t>(t - cur);
    cur = t;
  };
  charge(obs::RtraceStage::kMux, stamps.posted);
  charge(obs::RtraceStage::kEgress, stamps.tx_start);
  charge(obs::RtraceStage::kWire, stamps.first_bit);
  charge(obs::RtraceStage::kServer, stamps.executed);
  charge(obs::RtraceStage::kAck, stamps.pushed);
  charge(obs::RtraceStage::kCqPoll, now);
  ses.tr_cursor = now;
  ses.tr_last = stamps;
}

// ---------------------------------------------------------------------------
// Main loop.

Status LoadEngine::Run() {
  RSTORE_RETURN_IF_ERROR(Setup());
  // Cross-engine start barrier: arrival schedules of every engine share
  // the same t0, so offered load aggregates as configured.
  RSTORE_RETURN_IF_ERROR(client_.NotifyInc("e13.armed"));
  RSTORE_ASSIGN_OR_RETURN(uint64_t armed,
                          client_.WaitNotify("e13.armed", engine_count_));
  (void)armed;
  t0_ = sim::Now();
  t_end_ = t0_ + options_.duration;
  stats_.window_start = t0_;
  ScheduleFirstArrivals();
  Status st = RunLoop();
  stats_.admission = admission_->stats();
  stats_.mux = issuer_.mux().stats();
  stats_.hotkeys = hotkeys_.TopK();
  ResolveObs();
  if (obs_owner_ != nullptr) {
    // Heavy hitters as gauges: rank-indexed so the merged metrics JSON
    // carries the sketch without a dedicated export path.
    obs::NodeMetrics& m =
        obs_owner_->metrics().ForNode(client_.device().node_id());
    for (size_t r = 0; r < stats_.hotkeys.size(); ++r) {
      const std::string prefix = "load.hotkeys." + std::to_string(r);
      m.GetGauge(prefix + ".key_id")
          .Set(static_cast<int64_t>(stats_.hotkeys[r].key_id));
      m.GetGauge(prefix + ".count")
          .Set(static_cast<int64_t>(stats_.hotkeys[r].count));
    }
  }
  if (rtrace_ != nullptr) {
    stats_.rtrace = rtrace_->Finalize();
    // Post-run span/flow export: recording order is a pure function of
    // the kept set, never of the schedule.
    if (obs_owner_ != nullptr && obs_owner_->tracing()) {
      obs::EmitRtraceTrace(obs_owner_->tracer(), stats_.rtrace,
                           client_.device().node_id());
    }
  }
  return st;
}

namespace {

// Appends the completions due by now to `wcs`. First an end-of-instant
// barrier: a completion due *at* this instant may still be behind this
// thread's wake in the event queue; yielding reposts the wake behind
// every queued same-instant event, so the batch holds exactly the
// completions due by now, in the order the CQ received them.
void PollInstant(kv::SessionMux& mux,
                 std::vector<verbs::WorkCompletion>& wcs) {
  sim::Yield();
  mux.PollInto(wcs);
}

}  // namespace

Status LoadEngine::EndRound(uint64_t steps) {
  // One flush per scheduling round: every WR the round staged rides one
  // doorbell chain per (QP, lane) — chains widen exactly as load rises.
  // The modeled CPU charge keeps virtual time honest about the session
  // work this round did.
  stats_.steps += steps;
  sim::ChargeCpu(steps * kSessionStepNs);
  return issuer_.mux().Flush();
}

Status LoadEngine::RunLoop() {
  std::vector<verbs::WorkCompletion> wcs;
  wcs.reserve(256);
  while (true) {
    const sim::Nanos now = sim::Now();
    uint64_t steps = 0;
    while (!retries_.empty() && retries_.top().at <= now) {
      const uint32_t s = retries_.top().session;
      retries_.pop();
      OnRetryTimer(s);
      ++steps;
    }
    while (!arrivals_.empty() && arrivals_.top().at <= now) {
      const TimerEntry e = arrivals_.top();
      arrivals_.pop();
      OnArrival(e.session, e.at);
      ++steps;
    }
    wcs.clear();
    if (inflight_wrs_ > 0) PollInstant(issuer_.mux(), wcs);
    for (const verbs::WorkCompletion& wc : wcs) {
      HandleCompletion(wc);
      ++steps;
    }
    if (steps > 0) {
      RSTORE_RETURN_IF_ERROR(EndRound(steps));
      continue;
    }
    if (open_ops_ == 0 && arrivals_.empty() && retries_.empty()) break;
    sim::Nanos next = sim::kNever;
    if (!arrivals_.empty()) next = arrivals_.top().at;
    if (!retries_.empty()) next = std::min(next, retries_.top().at);
    if (inflight_wrs_ > 0) {
      wcs.clear();
      const sim::Nanos timeout =
          next == sim::kNever ? sim::kNever : next - now;
      issuer_.mux().WaitPollInto(wcs, Moderation(), timeout);
      // The CQ wake that ended the wait may precede sibling deliveries
      // at this instant: PollInstant appends the stragglers.
      if (!wcs.empty()) PollInstant(issuer_.mux(), wcs);
      for (const verbs::WorkCompletion& wc : wcs) HandleCompletion(wc);
      if (!wcs.empty()) RSTORE_RETURN_IF_ERROR(EndRound(wcs.size()));
      continue;
    }
    if (next != sim::kNever) {
      sim::Sleep(next - now);
      continue;
    }
    // Open ops but no WRs in flight and no timers: every path that parks
    // an op either holds a WR, a timer, or an admission slot whose
    // releaser holds one — reaching here means the machine leaked a step.
    return Status(ErrorCode::kInternal, "load engine stalled with open ops");
  }
  return Status::Ok();
}

}  // namespace rstore::load
