#include "kv/slot_op.h"

#include <algorithm>
#include <cstring>

#include "check/lin.h"
#include "common/rng.h"

namespace rstore::kv {
namespace {

uint64_t Load64(const std::byte* p) noexcept {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store64(std::byte* p, uint64_t v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

uint16_t KeyLen(const std::byte* slot) noexcept {
  uint16_t v;
  std::memcpy(&v, slot + SlotLayout::kKeyLenOff, sizeof(v));
  return v;
}

SlotIo Io(SlotIo::Kind kind, Lane lane, uint64_t offset, uint64_t length,
          std::byte* local) noexcept {
  SlotIo io;
  io.kind = kind;
  io.lane = lane;
  io.offset = offset;
  io.length = static_cast<uint32_t>(length);
  io.local = local;
  return io;
}

}  // namespace

uint64_t SlotLayout::HomeSlot(std::string_view key,
                              uint64_t buckets) noexcept {
  return StableHash64(key) % buckets;
}

std::byte* SlotLayout::Compose(std::byte* dst, uint64_t version,
                               std::string_view key,
                               uint32_t val_len) noexcept {
  std::memset(dst, 0, kSlotHeader);
  const auto key_len = static_cast<uint16_t>(key.size());
  Store64(dst + kVersionOff, version);
  std::memcpy(dst + kKeyLenOff, &key_len, sizeof(key_len));
  std::memcpy(dst + kValLenOff, &val_len, sizeof(val_len));
  std::memcpy(dst + kPayloadOff, key.data(), key.size());
  return dst + kPayloadOff + key.size();
}

void SlotLayout::WriteHeader(std::byte* header,
                             const TableGeometry& geometry) noexcept {
  std::memset(header, 0, kHeaderBytes);
  Store64(header, kMagic);
  Store64(header + 8, geometry.buckets);
  std::memcpy(header + 16, &geometry.slot_bytes, 4);
  std::memcpy(header + 20, &geometry.max_probe, 4);
}

Result<TableGeometry> SlotLayout::ReadHeader(
    std::span<const std::byte> header) {
  if (header.size() < kHeaderBytes || Load64(header.data()) != kMagic) {
    return Result<TableGeometry>(ErrorCode::kInvalidArgument,
                                 "region does not hold an RKV table");
  }
  TableGeometry geometry;
  geometry.buckets = Load64(header.data() + 8);
  std::memcpy(&geometry.slot_bytes, header.data() + 16, 4);
  std::memcpy(&geometry.max_probe, header.data() + 20, 4);
  return geometry;
}

void SlotOp::Bind(const TableGeometry& geometry, const Policy& policy,
                  std::byte* scratch, uint32_t area_slots) noexcept {
  geometry_ = &geometry;
  policy_ = &policy;
  scratch_ = scratch;
  area_bytes_ = static_cast<size_t>(geometry.slot_bytes) * area_slots;
}

void SlotOp::Start(SlotOpKind kind, std::string_view key,
                   std::span<const std::byte> value) {
  value_ = value;
  value_rng_ = nullptr;
  Begin(kind, key, static_cast<uint32_t>(value.size()));
}

void SlotOp::StartDrawn(SlotOpKind kind, std::string_view key, Rng& rng,
                        uint32_t value_len) {
  value_ = {};
  value_rng_ = &rng;
  Begin(kind, key, value_len);
}

void SlotOp::Begin(SlotOpKind kind, std::string_view key,
                   uint32_t value_len) {
  kind_ = kind;
  key_ = key;
  value_len_ = value_len;
  home_ = SlotLayout::HomeSlot(key, geometry_->buckets);
  probe_ = 0;
  reusable_ = -1;
  target_ = 0;
  conflict_slot_ = -1;
  retries_left_ = policy_->retry_budget;
  retries_ = 0;
  wrote_ = false;
  status_ = Status::Ok();
  phase_ = kind == SlotOpKind::kScan ? Phase::kScan : Phase::kProbe;
  const bool oversized = SlotLayout::kSlotHeader + key.size() + value_len >
                         geometry_->slot_bytes;
  if (Writes() && (key.empty() || oversized)) {
    Finish(Status(ErrorCode::kInvalidArgument,
                  "key/value exceed slot capacity"));
  }
}

uint64_t SlotOp::slot() const noexcept {
  switch (phase_) {
    case Phase::kProbe:
      return (home_ + probe_) % geometry_->buckets;
    case Phase::kScan:
      return home_;
    default:
      return target_;
  }
}

SlotStep SlotOp::step() const noexcept {
  using K = SlotIo::Kind;
  SlotStep step;
  step.kind = phase_;
  const uint32_t slot_bytes = geometry_->slot_bytes;
  const uint64_t at = Offset(slot());
  // The release half of the CAS acquire: a sync cell for rcheck.
  const SlotIo release = Io(K::kWrite, Lane::kSyncCell,
                            at + SlotLayout::kVersionOff, 8, cell(2));
  switch (phase_) {
    case Phase::kProbe:
      // The re-read must land after the slot read: a version that moved
      // between them (or was odd) means the slot bytes may be torn.
      step.io[0] = Io(K::kRead, Lane::kSpeculative, at, slot_bytes, scratch_);
      step.io[1] = Io(K::kRead, Lane::kSpeculative,
                      at + SlotLayout::kVersionOff, 8, cell(0));
      step.io_count = 2;
      break;
    case Phase::kLock:
      step.io[0] = Io(K::kCas, Lane::kPlain, at + SlotLayout::kVersionOff, 8,
                      cell(1));
      step.io[0].compare = lock_compare_;
      step.io[0].swap = lock_compare_ + 1;  // even -> odd: locked
      // The re-check, from key_len onward: the lock freezes these bytes
      // but not the version word, which contending writers keep CASing.
      // Behind a lost CAS this read races the winner's write, hence the
      // speculative lane; OnLock reads it only when the CAS won.
      step.io[1] = Io(K::kRead, Lane::kSpeculative,
                      at + SlotLayout::kKeyLenOff,
                      slot_bytes - SlotLayout::kKeyLenOff,
                      scratch_ + SlotLayout::kKeyLenOff);
      step.io_count = 2;
      break;
    case Phase::kWrite: {
      // Everything from key_len onward; the tombstone clears key_len and
      // val_len. The locked version word is untouched until the release.
      const uint64_t length =
          kind_ == SlotOpKind::kDelete
              ? 8
              : SlotLayout::kSlotHeader - SlotLayout::kKeyLenOff +
                    key_.size() + value_len_;
      step.io[0] = Io(K::kWrite, Lane::kPlain, at + SlotLayout::kKeyLenOff,
                      length, scratch_ + SlotLayout::kKeyLenOff);
      step.io[1] = release;
      step.io_count = 2;
      break;
    }
    case Phase::kRelease:
      step.io[0] = release;
      step.io_count = 1;
      break;
    case Phase::kScan: {
      const uint64_t count = std::min<uint64_t>(
          area_bytes_ / slot_bytes, geometry_->buckets - home_);
      step.io[0] = Io(K::kRead, Lane::kSpeculative, at, count * slot_bytes,
                      scratch_);
      step.io_count = 1;
      break;
    }
    case Phase::kBackoff:
      step.backoff = policy_->backoff;
      break;
    case Phase::kDone:
      break;
  }
  return step;
}

bool SlotOp::ProbeValidated() const noexcept {
  const uint64_t version = Load64(scratch_ + SlotLayout::kVersionOff);
  return version % 2 == 0 && Load64(cell(0)) == version;
}

bool SlotOp::HoldsKey() const noexcept {
  return KeyLen(scratch_) == key_.size() &&
         std::memcmp(scratch_ + SlotLayout::kPayloadOff, key_.data(),
                     key_.size()) == 0;
}

std::span<const std::byte> SlotOp::value() const noexcept {
  uint32_t val_len;
  std::memcpy(&val_len, scratch_ + SlotLayout::kValLenOff, sizeof(val_len));
  return {scratch_ + SlotLayout::kPayloadOff + KeyLen(scratch_), val_len};
}

void SlotOp::Complete() {
  switch (phase_) {
    case Phase::kProbe:
      OnProbe();
      break;
    case Phase::kLock:
      OnLock();
      break;
    case Phase::kWrite:
      // The scratch now mirrors the slot: released version, written bytes.
      Store64(scratch_ + SlotLayout::kVersionOff, lock_compare_ + 2);
      Finish(Status::Ok());
      break;
    case Phase::kRelease:
      // Only a lost re-check releases without writing: start over. The
      // slot holds another key or none, so there is no holder to wait for.
      probe_ = 0;
      reusable_ = -1;
      Retry(/*backoff=*/false, Phase::kProbe);
      break;
    case Phase::kScan:
      Finish(Status::Ok());
      break;
    case Phase::kBackoff:
      phase_ = resume_;
      break;
    case Phase::kDone:
      break;
  }
}

void SlotOp::Fail(Status status) { Finish(std::move(status)); }

void SlotOp::Ride(const SlotOp& holder) {
  if (holder.status().ok()) EnterWrite();
  Finish(holder.status());
}

void SlotOp::OnProbe() {
  if (!ProbeValidated()) {
    // Torn or locked: retry the same slot, judged by the version re-read.
    Contend(slot(), Load64(cell(0)), Phase::kProbe);
    return;
  }
  const uint64_t slot = this->slot();
  const uint64_t version = Load64(scratch_ + SlotLayout::kVersionOff);
  const uint16_t key_len = KeyLen(scratch_);
  const bool upsert = kind_ == SlotOpKind::kUpsert;
  if (version == 0 && key_len == 0) {
    // Never-used slot: the probe chain ends here.
    if (!upsert) {
      Finish(Status(ErrorCode::kNotFound, "key not found"));
    } else if (reusable_ >= 0) {
      Lock(static_cast<uint64_t>(reusable_), reusable_version_,
           /*free=*/true);
    } else {
      Lock(slot, version, /*free=*/true);
    }
    return;
  }
  if (HoldsKey()) {
    if (kind_ == SlotOpKind::kGet) {
      Finish(Status::Ok());
    } else {
      Lock(slot, version, /*free=*/false);
    }
    return;
  }
  // A tombstone is remembered for upserts; the key may live further on.
  if (key_len == 0 && reusable_ < 0) {
    reusable_ = static_cast<int64_t>(slot);
    reusable_version_ = version;
  }
  if (++probe_ < geometry_->max_probe) return;  // probe the next slot
  if (!upsert) {
    Finish(Status(ErrorCode::kNotFound, "key not found (probe window)"));
  } else if (reusable_ >= 0) {
    Lock(static_cast<uint64_t>(reusable_), reusable_version_,
         /*free=*/true);
  } else {
    Finish(Status(ErrorCode::kOutOfMemory, "probe window full"));
  }
}

void SlotOp::Lock(uint64_t slot, uint64_t version, bool free) {
  // The CAS compares against the version the probe validated: no
  // separate read of the version word first.
  target_ = slot;
  target_free_ = free;
  lock_compare_ = version;
  phase_ = Phase::kLock;
}

void SlotOp::OnLock() {
  const uint64_t old = Load64(cell(1));
  if (old != lock_compare_) {
    // Lost, and the re-check bytes raced the winner: ignore them. Retry
    // against what the CAS saw. An even value is a finished writer's
    // release: retry at once. An odd one is a holder, whose release
    // will write old + 1: a conflict like a locked probe.
    if (old % 2 == 0) {
      lock_compare_ = old;
      Retry(/*backoff=*/false, Phase::kLock);
    } else {
      lock_compare_ = old + 1;
      Contend(target_, old, Phase::kLock);
    }
    return;
  }
  // Won: the release will write the next even version. Between the
  // probe and the CAS another client may have claimed the slot for a
  // different key, or deleted ours; then only release. An empty slot
  // takes the write only when the probe chose it as free: a key
  // deleted under the lock may live on elsewhere, re-inserted by another
  // client, and an update of a deleted key must report it absent.
  Store64(cell(2), lock_compare_ + 2);
  if (HoldsKey() || (target_free_ && KeyLen(scratch_) == 0)) {
    EnterWrite();
  } else {
    phase_ = Phase::kRelease;
  }
}

void SlotOp::EnterWrite() {
  if (kind_ == SlotOpKind::kDelete) {
    std::memset(scratch_ + SlotLayout::kKeyLenOff, 0, 8);
  } else {
    std::byte* value = SlotLayout::Compose(scratch_, 0, key_, value_len_);
    if (value_rng_ != nullptr) {
      value_rng_->Fill(value, value_len_);
    } else if (value_len_ > 0) {
      std::memcpy(value, value_.data(), value_len_);
    }
  }
  wrote_ = true;
  phase_ = Phase::kWrite;
}

void SlotOp::Contend(uint64_t slot, uint64_t version, Phase resume) {
  const bool stalled = conflict_slot_ == static_cast<int64_t>(slot) &&
                       conflict_version_ == version;
  conflict_slot_ = static_cast<int64_t>(slot);
  conflict_version_ = version;
  Retry(stalled, resume);
}

void SlotOp::Retry(bool backoff, Phase resume) {
  ++retries_;
  if (retries_left_ == 0) {
    Finish(Status(ErrorCode::kAborted, "seqlock retry budget exhausted"));
    return;
  }
  --retries_left_;
  if (backoff) {
    resume_ = resume;
    phase_ = Phase::kBackoff;
  } else {
    phase_ = resume;
  }
}

void SlotOp::Finish(Status status) {
  status_ = std::move(status);
  phase_ = Phase::kDone;
}

void SlotOp::RecordLin(check::LinChecker& lin, uint32_t client,
                       uint64_t key_id, uint64_t invoked,
                       uint64_t responded) const {
  if (kind_ == SlotOpKind::kScan) return;  // not a single-register op
  const auto digest = [&] {
    if (kind_ == SlotOpKind::kDelete) return check::kLinAbsent;
    const std::span<const std::byte> v = value();
    return check::LinChecker::Digest(v.data(), v.size());
  };
  if (status_.ok()) {
    lin.RecordOp(client,
                 kind_ == SlotOpKind::kGet ? check::LinOpKind::kRead
                                           : check::LinOpKind::kWrite,
                 key_id, digest(), invoked, responded);
  } else if (status_.code() == ErrorCode::kNotFound) {
    // Observed no mapping for the key: a read of "absent".
    lin.RecordOp(client, check::LinOpKind::kRead, key_id, check::kLinAbsent,
                 invoked, responded);
  } else if (wrote_) {
    // The write was issued before the failure: it may or may not be
    // visible. Pending = may linearize any time after invocation, or never.
    lin.RecordPending(client, check::LinOpKind::kWrite, key_id, digest(),
                      invoked);
  }
  // Any other failure returned no answer and wrote nothing: legal to drop.
}

}  // namespace rstore::kv
