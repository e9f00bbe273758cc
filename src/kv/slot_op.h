// SlotOp: RKV's slot protocol, once, as a pure state machine.
//
// One SlotOp runs one operation on one key against the on-region table
// (SlotLayout below). It never touches the network: it yields *steps*
// and consumes their completion bytes from a caller-provided scratch
// area. A step is either a backoff or an ordered list of at most two
// region-offset IOs (read, write or CAS), each tagged with the rcheck
// Lane it must be posted under. One issuer turns steps into verbs
// (kv::StepIssuer, step_issuer.h) for both callers: KvStore (kv.h), one
// session that waits, and LoadEngine (src/load), thousands of sessions
// resumed from completion cookies. The engine also runs one write per
// key at a time (load/key_claims.h): later same-key writes of the
// running op's kind complete through Ride() with it instead of running
// their own steps.
//
// The protocol (Pilaf/FaRM-style seqlock slots, linear probing). An
// uncontended read is one round trip (the probe), an uncontended write
// three dependent ones:
//   probe     read the slot, then re-read its version word; odd or moved
//             means a writer raced the read (torn or locked)
//   lock      CAS the version the probe validated (even -> odd), then
//             re-read the slot from key_len onward: did it change hands
//             between the probe and the CAS?
//   write     the payload (or the tombstone) from key_len onward, then
//             the 8-byte release of the next even version
// plus a scan: one unvalidated read of a run of slots.
//
// Each two-IO step relies on the RC rule that WRs on one QP execute in
// post order (DESIGN.md, "RC contract"): the re-read lands after the
// slot read, the re-check after the CAS, the release after the payload.
// When both IOs cannot ride one QP (a slot straddling slabs), the issuer
// posts them one round trip after the other. A step's kPlain IO, when it
// has one, comes first: the mux flushes kPlain before the other lanes,
// so the two IOs still reach the QP in step order.
//
// Retry policy: the wait comes from the protocol, not from a constant.
// A retry's own request reaches the slot one round trip after the op
// read the conflicting state there, and an uncontended holder releases
// within one round trip of its CAS (its re-check returns, then payload
// and release ride one QP). So the retry's round trip already covers
// the holder's remaining critical path, and a conflict is retried at
// once:
//   - a torn or locked probe retries the same slot;
//   - a lost CAS retries against the value it returned: old itself when
//     that is even (a writer finished), else old + 1, the version the
//     holder's release writes.
// Only when a conflict sees the same (slot, version) as the op's
// previous conflict did the holder make no progress in a whole round
// trip; then the op waits Policy::backoff first. The re-check bytes
// count only when the CAS won; behind a lost CAS they race the winner's
// write, so they are read on the speculative lane and ignored. A lost
// re-check (the slot went to another key, or the key was deleted)
// releases the lock and re-probes from the home slot at once: there is
// no holder to wait for. Every retry spends one unit of the op's
// budget; an empty budget ends the op with kAborted.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "check/check.h"
#include "common/status.h"
#include "sim/time.h"

namespace rstore {
class Rng;
}  // namespace rstore

namespace rstore::check {
class LinChecker;
}  // namespace rstore::check

namespace rstore::kv {

// The table geometry, fixed at create time and stored in the header.
struct TableGeometry {
  uint64_t buckets = 4096;   // slots in the table
  uint32_t slot_bytes = 256; // per-slot storage incl. 24-byte header
  uint32_t max_probe = 16;   // linear-probe window before "table full"
};

// The on-region table format. Offsets are within one slot:
//   0  u64 version   even = stable, odd = writer holds the seqlock;
//                    0 with key_len 0 = never used (ends probe chains)
//   8  u16 key_len   0 with version > 0 = tombstone
//  10  u16 (pad)
//  12  u32 val_len
//  16  (pad to 24)
//  24  key bytes, then value bytes
// The region starts with a 64-byte header: magic, buckets, slot_bytes,
// max_probe.
struct SlotLayout {
  static constexpr uint64_t kMagic = 0x524b563144424d53ULL;  // "RKV1DBMS"
  static constexpr uint64_t kHeaderBytes = 64;
  static constexpr uint32_t kSlotHeader = 24;
  static constexpr uint64_t kVersionOff = 0;
  static constexpr uint64_t kKeyLenOff = 8;
  static constexpr uint64_t kValLenOff = 12;
  static constexpr uint64_t kPayloadOff = 24;

  // Byte offset of `slot` within the region.
  [[nodiscard]] static constexpr uint64_t SlotOffset(
      uint64_t slot, uint32_t slot_bytes) noexcept {
    return kHeaderBytes + slot * slot_bytes;
  }
  // Home slot of a key (the probe chain starts here).
  [[nodiscard]] static uint64_t HomeSlot(std::string_view key,
                                         uint64_t buckets) noexcept;
  // Writes a slot's 24-byte header and its key to `dst` and returns where
  // the `val_len` value bytes go. Bytes past the value are left alone.
  static std::byte* Compose(std::byte* dst, uint64_t version,
                            std::string_view key, uint32_t val_len) noexcept;
  // The region header for `geometry` (kHeaderBytes), and its parse:
  // kInvalidArgument when `header` does not start with kMagic.
  static void WriteHeader(std::byte* header,
                          const TableGeometry& geometry) noexcept;
  [[nodiscard]] static Result<TableGeometry> ReadHeader(
      std::span<const std::byte> header);
};

// Which rcheck scope an IO is posted under.
enum class Lane : uint8_t {
  kSpeculative = 0,  // seqlock-validated reads (racy by design)
  kPlain = 1,        // data IO + atomics (protected by the seqlock)
  kSyncCell = 2,     // the 8-byte seqlock release write
};
inline constexpr uint32_t kLanes = 3;

// Opens `lane`'s rcheck scope for the IO posted inside it (inert when no
// checker is attached).
class LaneScope {
 public:
  LaneScope(const check::Checker* checker, Lane lane)
      : speculative_(lane == Lane::kSpeculative ? checker : nullptr),
        sync_cell_(lane == Lane::kSyncCell ? checker : nullptr) {}

 private:
  check::SpeculativeScope speculative_;
  check::SyncCellScope sync_cell_;
};

enum class SlotOpKind : uint8_t {
  kGet,     // value of the key, or kNotFound
  kUpsert,  // insert or overwrite
  kUpdate,  // overwrite only if present, else kNotFound
  kDelete,  // tombstone the key, or kNotFound
  kScan,    // one unvalidated read of the slot run from the home slot
};

struct SlotIo {
  enum class Kind : uint8_t { kRead, kWrite, kCas };
  Kind kind = Kind::kRead;
  Lane lane = Lane::kPlain;
  uint64_t offset = 0;         // region byte offset
  uint32_t length = 0;         // bytes (8 for a CAS)
  std::byte* local = nullptr;  // read target, write source, CAS old value
  uint64_t compare = 0;        // CAS only
  uint64_t swap = 0;           // CAS only
};

struct SlotStep {
  enum class Kind : uint8_t {
    kProbe,    // slot read, then its version re-read
    kLock,     // seqlock CAS, then the slot re-read from key_len onward
    kWrite,    // payload or tombstone from key_len onward, then release
    kRelease,  // 8-byte seqlock release alone (after a lost re-check)
    kScan,     // slot-run read
    kBackoff,  // wait `backoff`, then Complete()
    kDone,     // status() holds the result
  };
  Kind kind = Kind::kDone;
  uint8_t io_count = 0;
  std::array<SlotIo, 2> io{};
  sim::Nanos backoff = 0;

  [[nodiscard]] std::span<const SlotIo> ios() const noexcept {
    return {io.data(), io_count};
  }
};

class SlotOp {
 public:
  struct Policy {
    uint32_t retry_budget = 0;  // retries before the op gives up
    sim::Nanos backoff = 0;     // wait behind a holder that made no
                                // progress in a round trip
  };
  // The backoff every client of the protocol waits: KvStore and the load
  // engine.
  static constexpr sim::Nanos kHolderBackoff = sim::Micros(5);

  // Scratch bytes an op needs: `area_slots` slot images (a scan reads
  // that many slots), then three 8-byte cells (version re-read, CAS old
  // value, release word).
  [[nodiscard]] static constexpr size_t ScratchBytes(
      uint32_t slot_bytes, uint32_t area_slots) noexcept {
    return static_cast<size_t>(slot_bytes) * area_slots + 3 * 8;
  }

  // Binds the op to a table and its scratch. `geometry` and `policy`
  // must outlive the op.
  void Bind(const TableGeometry& geometry, const Policy& policy,
            std::byte* scratch, uint32_t area_slots) noexcept;

  // Begins an op. `key` (and `value`) must stay valid until done(). A
  // write whose key is empty or whose key and value overflow a slot is
  // done at once with kInvalidArgument.
  void Start(SlotOpKind kind, std::string_view key,
             std::span<const std::byte> value = {});
  // Like Start, but the value is `value_len` bytes drawn from `rng` when
  // the payload is composed, i.e. once the slot is locked and re-checked.
  void StartDrawn(SlotOpKind kind, std::string_view key, Rng& rng,
                  uint32_t value_len);

  // The step to run now. A pure function of the op's state.
  [[nodiscard]] SlotStep step() const noexcept;
  // The current step's IOs all completed (their bytes are in the
  // scratch), or its backoff elapsed: consume them and advance.
  void Complete();
  // An IO of the current step failed: the op ends with `status`.
  void Fail(Status status);
  // Completes a just-started write, without a step, as a rider of
  // `holder`: a finished op of the same kind on the same key whose
  // outcome was a write whose payload write was posted after this op was
  // invoked, or kNotFound from a probe posted after it. The rider's
  // write is ordered just before the holder's, so it takes the holder's
  // status; on a write it composes its own value (a drawn value consumes
  // the RNG as a posted write would) so that image() and RecordLin carry
  // it.
  void Ride(const SlotOp& holder);

  [[nodiscard]] SlotStep::Kind step_kind() const noexcept { return phase_; }
  [[nodiscard]] bool done() const noexcept {
    return phase_ == SlotStep::Kind::kDone;
  }
  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] uint64_t home() const noexcept { return home_; }
  // The slot the current probe reads, the first slot of a scan, or the
  // slot being locked/written.
  [[nodiscard]] uint64_t slot() const noexcept;
  // The slot image in the scratch: the probed slot, the composed payload,
  // and after a successful write the slot exactly as the table holds it.
  [[nodiscard]] std::byte* image() const noexcept { return scratch_; }
  // The value bytes of image() (a found kGet's answer).
  [[nodiscard]] std::span<const std::byte> value() const noexcept;
  // The payload (or tombstone) write was issued: a failure from here on
  // leaves the op's effect undefined.
  [[nodiscard]] bool wrote() const noexcept { return wrote_; }
  [[nodiscard]] uint32_t retries() const noexcept { return retries_; }

  // rlin history: records this finished op's one outcome (a read, a
  // write, a pending maybe-write, or nothing) for `key_id`.
  void RecordLin(check::LinChecker& lin, uint32_t client, uint64_t key_id,
                 uint64_t invoked, uint64_t responded) const;

 private:
  using Phase = SlotStep::Kind;

  [[nodiscard]] std::byte* cell(uint32_t i) const noexcept {
    return scratch_ + area_bytes_ + 8 * i;
  }
  [[nodiscard]] uint64_t Offset(uint64_t slot) const noexcept {
    return SlotLayout::SlotOffset(slot, geometry_->slot_bytes);
  }
  [[nodiscard]] bool Writes() const noexcept {
    return kind_ == SlotOpKind::kUpsert || kind_ == SlotOpKind::kUpdate;
  }
  [[nodiscard]] bool HoldsKey() const noexcept;
  // After a probe's IOs: the seqlock check passed (version even and
  // unchanged between the slot read and the re-read).
  [[nodiscard]] bool ProbeValidated() const noexcept;
  void Begin(SlotOpKind kind, std::string_view key, uint32_t value_len);
  void OnProbe();
  void Lock(uint64_t slot, uint64_t version, bool free);
  void OnLock();
  void EnterWrite();
  // Retries after a conflict at (slot, version): at once, or after a
  // backoff when the op's previous conflict saw the same pair.
  void Contend(uint64_t slot, uint64_t version, Phase resume);
  void Retry(bool backoff, Phase resume);
  void Finish(Status status);

  // Read on every step; the rest of the op's state follows.
  Phase phase_ = Phase::kDone;
  SlotOpKind kind_ = SlotOpKind::kGet;
  Phase resume_ = Phase::kProbe;  // where a backoff re-enters
  uint32_t probe_ = 0;  // probe distance from home
  const TableGeometry* geometry_ = nullptr;
  std::byte* scratch_ = nullptr;
  size_t area_bytes_ = 0;
  uint64_t home_ = 0;
  uint64_t target_ = 0;         // slot being locked/written
  uint64_t lock_compare_ = 0;   // even version the CAS expects
  int64_t reusable_ = -1;       // first empty/tombstone slot seen
  uint64_t reusable_version_ = 0;  // its validated version
  bool target_free_ = false;    // target_ was free when the probe chose it
  int64_t conflict_slot_ = -1;  // the previous conflict's slot, if any
  uint64_t conflict_version_ = 0;  // ... and the version it saw there
  std::string_view key_;
  uint32_t value_len_ = 0;
  uint32_t retries_left_ = 0;
  uint32_t retries_ = 0;
  bool wrote_ = false;
  const Policy* policy_ = nullptr;
  std::span<const std::byte> value_;
  Rng* value_rng_ = nullptr;
  Status status_;
};

}  // namespace rstore::kv
