#include "check/check.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace rstore::check {
namespace {

// Annotation scopes of the running context: the installed SimThread's
// (see detail::SwapScopeState), else the host thread's own.
thread_local detail::ScopeState t_host_scopes;
thread_local detail::ScopeState* t_scopes = nullptr;

detail::ScopeState& Scopes() noexcept {
  detail::ScopeState* s = t_scopes;
  return s != nullptr ? *s : t_host_scopes;
}

void JsonEscape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

namespace detail {
ScopeState* SwapScopeState(ScopeState* s) noexcept {
  ScopeState* prev = t_scopes;
  t_scopes = s;
  return prev;
}
void PushSpeculative() noexcept { ++Scopes().speculative; }
void PopSpeculative() noexcept { --Scopes().speculative; }
void PushSyncCell() noexcept { ++Scopes().sync_cell; }
void PopSyncCell() noexcept { --Scopes().sync_cell; }
const char* SwapLabel(const char* label) noexcept {
  return std::exchange(Scopes().label, label);
}
const char* CurrentLabel() noexcept { return Scopes().label; }
}  // namespace detail

std::string_view ToString(ViolationType t) noexcept {
  switch (t) {
    case ViolationType::kRace: return "race";
    case ViolationType::kUseAfterFree: return "use-after-free";
    case ViolationType::kUseAfterDereg: return "use-after-deregister";
    case ViolationType::kUseAfterUnmap: return "use-after-unmap";
    case ViolationType::kGrowRace: return "grow-race";
    case ViolationType::kCacheMode: return "cache-mode";
  }
  return "unknown";
}

std::string_view ToString(AccessKind k) noexcept {
  switch (k) {
    case AccessKind::kRead: return "read";
    case AccessKind::kWrite: return "write";
    case AccessKind::kAtomic: return "atomic";
  }
  return "unknown";
}

Checker::Checker() { records_.reserve(1024); }
Checker::~Checker() = default;

Checker::Clock& Checker::NodeClock(uint32_t node) {
  if (clocks_.size() <= node) clocks_.resize(node + 1);
  Clock& c = clocks_[node];
  if (c.size() <= node) c.resize(node + 1, 0);
  return c;
}

uint64_t Checker::SelfTick(uint32_t node) {
  return ++NodeClock(node)[node];
}

void Checker::Join(Clock& dst, const Clock& src) {
  if (src.size() > dst.size()) dst.resize(src.size(), 0);
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

bool Checker::OrderedBefore(const Record& a, const Clock& post_clock) {
  return a.stamp != kPendingStamp && a.initiator < post_clock.size() &&
         post_clock[a.initiator] >= a.stamp;
}

bool Checker::Conflicts(AccessKind a, AccessKind b) {
  if (a == AccessKind::kRead && b == AccessKind::kRead) return false;
  if (a == AccessKind::kAtomic && b == AccessKind::kAtomic) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Scheduler edges
// ---------------------------------------------------------------------------
void Checker::OnThreadSlice(uint32_t node) { SelfTick(node); }
void Checker::OnCondNotify(uint32_t node) { SelfTick(node); }

// ---------------------------------------------------------------------------
// Interval sets
// ---------------------------------------------------------------------------
void Checker::IntervalAdd(IntervalSet& set, uint64_t lo, uint64_t hi) {
  if (lo >= hi) return;
  auto it = set.upper_bound(lo);
  if (it != set.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->second);
      it = set.erase(prev);
    }
  }
  while (it != set.end() && it->first <= hi) {
    hi = std::max(hi, it->second);
    it = set.erase(it);
  }
  set.emplace(lo, hi);
}

void Checker::IntervalRemove(IntervalSet& set, uint64_t lo, uint64_t hi) {
  if (lo >= hi) return;
  auto it = set.upper_bound(lo);
  if (it != set.begin()) --it;
  while (it != set.end() && it->first < hi) {
    const uint64_t cur_lo = it->first;
    const uint64_t cur_hi = it->second;
    if (cur_hi <= lo) {
      ++it;
      continue;
    }
    it = set.erase(it);
    if (cur_lo < lo) set.emplace(cur_lo, lo);
    if (cur_hi > hi) it = set.emplace(hi, cur_hi).first;
  }
}

bool Checker::IntervalOverlap(const IntervalSet& set, uint64_t lo,
                              uint64_t hi, uint64_t* out_lo,
                              uint64_t* out_hi) {
  auto it = set.upper_bound(lo);
  if (it != set.begin()) {
    auto prev = std::prev(it);
    if (prev->second > lo) {
      *out_lo = lo;
      *out_hi = std::min(hi, prev->second);
      return true;
    }
  }
  if (it != set.end() && it->first < hi) {
    *out_lo = it->first;
    *out_hi = std::min(hi, it->second);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Verbs hooks
// ---------------------------------------------------------------------------
uint32_t Checker::OnPost(uint32_t initiator, uint32_t target, OpClass cls,
                         uint64_t remote_lo, uint64_t remote_hi,
                         const LocalRange* sges, uint32_t n_sges,
                         uint32_t expected) {
  const detail::ScopeState& scopes = Scopes();
  if (scopes.speculative > 0) return 0;

  PendingOp op;
  op.initiator = initiator;
  op.target = target;
  op.cls = cls;
  op.remote_lo = remote_lo;
  op.remote_hi = remote_hi;
  op.post_vtime = NowVirtual();
  op.post_clock = NodeClock(initiator);
  op.label = scopes.label;
  op.expected = static_cast<uint8_t>(expected);
  op.sges.assign(sges, sges + n_sges);
  op.sync_cell = scopes.sync_cell > 0 && remote_hi - remote_lo == 8 &&
                 (cls == OpClass::kRemoteRead || cls == OpClass::kRemoteWrite);

  if (cls != OpClass::kMessage) {
    if (RangeEntry* e = FindRange(target, remote_lo)) {
      op.region_id = e->region_id;
      // Post through a mapping this client tore down with Runmap?
      auto uit = unmapped_.find(initiator);
      if (uit != unmapped_.end()) {
        auto rit = uit->second.find(op.region_id);
        if (rit != uit->second.end()) {
          Violation v;
          v.type = ViolationType::kUseAfterUnmap;
          v.target_node = target;
          FillRegionInfo(&v, target, remote_lo, remote_hi);
          v.a.node = initiator;
          v.a.vtime = rit->second;
          v.a.label = "Runmap";
          v.b = MakeOpEndpoint(op, remote_lo, remote_hi,
                               cls == OpClass::kRemoteRead
                                   ? AccessKind::kRead
                                   : AccessKind::kWrite);
          v.detail = "posted through a mapping the client unmapped";
          Report(std::move(v));
        }
      }
    }
  }

  // NIC-side local accesses: gather reads for outbound payloads, scatter
  // writes for inbound read/atomic results. The buffer belongs to the
  // hardware from post until completion, so the shadow window opens now.
  const AccessKind local_kind =
      (cls == OpClass::kRemoteRead || cls == OpClass::kRemoteAtomic)
          ? AccessKind::kWrite
          : AccessKind::kRead;
  for (const LocalRange& r : op.sges) {
    if (r.lo >= r.hi) continue;
    op.records.push_back(AddAndCheck(op, r.lo, r.hi, local_kind, false));
  }

  const uint32_t ref = next_ref_++;
  if (next_ref_ == 0) next_ref_ = 1;
  pending_.emplace(ref, std::move(op));
  return ref;
}

Checker::RangeEntry* Checker::FindRange(uint32_t node, uint64_t addr) {
  auto nit = ranges_.find(node);
  if (nit == ranges_.end()) return nullptr;
  auto& m = nit->second;
  auto it = m.upper_bound(addr);
  if (it == m.begin()) return nullptr;
  --it;
  if (addr >= it->second.hi) return nullptr;
  return &it->second;
}

void Checker::CheckLifetime(const PendingOp& op) {
  auto nit = ranges_.find(op.target);
  if (nit == ranges_.end()) return;
  auto& m = nit->second;
  auto it = m.upper_bound(op.remote_lo);
  if (it != m.begin()) --it;
  for (; it != m.end() && it->first < op.remote_hi; ++it) {
    const RangeEntry& e = it->second;
    if (e.hi <= op.remote_lo || !e.dead) continue;
    Violation v;
    v.type = ViolationType::kUseAfterFree;
    v.target_node = op.target;
    v.region_id = e.region_id;
    auto rit = regions_.find(e.region_id);
    if (rit != regions_.end()) v.region_name = rit->second.name;
    const uint64_t olo = std::max(op.remote_lo, it->first);
    const uint64_t ohi = std::min(op.remote_hi, e.hi);
    v.region_lo = olo - it->first + e.region_off;
    v.region_hi = ohi - it->first + e.region_off;
    v.a.node = op.target;
    v.a.vtime = e.dead_vtime;
    v.a.label = "Rfree";
    v.b = MakeOpEndpoint(op, op.remote_lo, op.remote_hi,
                         op.cls == OpClass::kRemoteRead ? AccessKind::kRead
                                                        : AccessKind::kWrite);
    v.detail = "one-sided access to a region after the master freed it";
    Report(std::move(v));
    return;  // one report per op
  }
}

void Checker::CheckCacheContract(const PendingOp& op) {
  auto nit = ranges_.find(op.target);
  if (nit == ranges_.end()) return;
  auto& m = nit->second;
  auto it = m.upper_bound(op.remote_lo);
  if (it != m.begin()) --it;
  for (; it != m.end() && it->first < op.remote_hi; ++it) {
    const RangeEntry& e = it->second;
    if (e.hi <= op.remote_lo || e.dead) continue;
    auto cit = cache_.find(e.region_id);
    if (cit == cache_.end()) continue;
    const uint64_t olo = std::max(op.remote_lo, it->first);
    const uint64_t ohi = std::min(op.remote_hi, e.hi);
    const uint64_t rlo = olo - it->first + e.region_off;
    const uint64_t rhi = ohi - it->first + e.region_off;
    auto check_set =
        [&](const std::unordered_map<uint32_t, IntervalSet>& sets,
            const char* contract, const char* holder_label,
            const char* why) {
          // Violation emission order is part of the deterministic run
          // output; visit holders in id order, not hash order.
          std::vector<uint32_t> holders;
          holders.reserve(sets.size());
          // rdet:order-independent (collect, then sort)
          for (const auto& [holder, set] : sets) holders.push_back(holder);
          std::sort(holders.begin(), holders.end());
          for (const uint32_t holder : holders) {
            const IntervalSet& set = sets.at(holder);
            if (holder == op.initiator) continue;
            uint64_t vlo = 0;
            uint64_t vhi = 0;
            if (!IntervalOverlap(set, rlo, rhi, &vlo, &vhi)) continue;
            Violation v;
            v.type = ViolationType::kCacheMode;
            v.target_node = op.target;
            v.region_id = e.region_id;
            auto rit = regions_.find(e.region_id);
            if (rit != regions_.end()) v.region_name = rit->second.name;
            v.region_lo = vlo;
            v.region_hi = vhi;
            v.a.node = holder;
            v.a.lo = vlo;
            v.a.hi = vhi;
            v.a.label = holder_label;
            v.b = MakeOpEndpoint(op, op.remote_lo, op.remote_hi,
                                 op.cls == OpClass::kRemoteAtomic
                                     ? AccessKind::kAtomic
                                     : AccessKind::kWrite);
            v.detail = std::string(contract) + ": " + why;
            Report(std::move(v));
          }
        };
    check_set(cit->second.write_through, "kEpoch",
              "cache.write_through",
              "another client wrote these bytes through its cache and "
              "has not bumped its epoch");
    check_set(cit->second.resident, "kImmutable", "cache.resident",
              "another client holds these bytes resident under an "
              "immutable mapping");
  }
}

void Checker::OnExecute(uint32_t ref) {
  auto it = pending_.find(ref);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  if (op.cls == OpClass::kMessage) return;

  CheckLifetime(op);
  if (op.cls == OpClass::kRemoteWrite || op.cls == OpClass::kRemoteAtomic) {
    CheckCacheContract(op);
  }

  AccessKind kind = op.cls == OpClass::kRemoteRead ? AccessKind::kRead
                                                   : AccessKind::kWrite;
  const bool synchronizes =
      op.cls == OpClass::kRemoteAtomic || op.sync_cell;
  if (synchronizes) {
    kind = AccessKind::kAtomic;
    Clock& cell = cells_[op.remote_lo];
    // Release: publish the initiator's post-time clock into the cell.
    if (op.cls == OpClass::kRemoteAtomic ||
        op.cls == OpClass::kRemoteWrite) {
      Join(cell, op.post_clock);
    }
    // Acquire: snapshot the cell; joined into the initiator at poll.
    if (op.cls == OpClass::kRemoteAtomic ||
        op.cls == OpClass::kRemoteRead) {
      op.acquired = cell;
    }
  }
  op.records.push_back(
      AddAndCheck(op, op.remote_lo, op.remote_hi, kind, true));
}

uint32_t Checker::AddAndCheck(const PendingOp& op, uint64_t lo, uint64_t hi,
                              AccessKind kind, bool remote) {
  const uint32_t idx = static_cast<uint32_t>(records_.size());
  const uint32_t owner = remote ? op.target : op.initiator;

  // Gather distinct overlap candidates from every shadow page the range
  // touches (ranges spanning pages would otherwise be checked twice).
  uint32_t seen[kPageRing * 4];
  size_t n_seen = 0;
  for (uint64_t page = lo >> kPageShift; page <= (hi - 1) >> kPageShift;
       ++page) {
    auto pit = pages_.find(page);
    if (pit == pages_.end()) continue;
    for (uint32_t slot : pit->second.recs) {
      if (slot == 0) continue;
      const uint32_t cand = slot - 1;
      const Record& a = records_[cand];
      if (a.initiator == op.initiator) continue;  // same node never races
      if (a.owner != owner) continue;  // another machine's memory
      if (a.hi <= lo || a.lo >= hi) continue;
      if (!Conflicts(a.kind, kind)) continue;
      bool dup = false;
      for (size_t i = 0; i < n_seen; ++i) dup = dup || seen[i] == cand;
      if (dup || n_seen == std::size(seen)) continue;
      seen[n_seen++] = cand;
    }
  }
  for (size_t i = 0; i < n_seen; ++i) {
    const Record& a = records_[seen[i]];
    if (OrderedBefore(a, op.post_clock)) continue;
    auto key = std::make_pair(seen[i], idx);
    if (!reported_pairs_.insert(key).second) continue;
    Violation v;
    v.type = ViolationType::kRace;
    v.target_node = owner;
    FillRegionInfo(&v, v.target_node, std::max(lo, a.lo),
                   std::min(hi, a.hi));
    v.a = MakeEndpoint(a);
    v.b = MakeOpEndpoint(op, lo, hi, kind);
    v.b.remote = remote;
    v.detail = "no happens-before edge between the two accesses";
    Report(std::move(v));
  }

  Record rec;
  rec.lo = lo;
  rec.hi = hi;
  rec.vtime = NowVirtual();
  rec.initiator = op.initiator;
  rec.owner = owner;
  rec.kind = kind;
  rec.remote = remote;
  rec.label = op.label;
  records_.push_back(rec);
  for (uint64_t page = lo >> kPageShift; page <= (hi - 1) >> kPageShift;
       ++page) {
    PageRing& ring = pages_[page];
    ring.recs[ring.pos] = idx + 1;
    ring.pos = static_cast<uint8_t>((ring.pos + 1) % kPageRing);
  }
  return idx;
}

void Checker::OnSettle(uint32_t ref, bool ok) {
  auto it = pending_.find(ref);
  if (it == pending_.end()) return;
  if (!ok) {
    pending_.erase(it);  // flushed / dropped: records stay pending
    return;
  }
  it->second.settled = true;
}

void Checker::OnObserve(uint32_t ref, uint32_t node, bool recv_side,
                        bool ok) {
  auto it = pending_.find(ref);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  if (!ok) {
    pending_.erase(it);
    return;
  }
  if (recv_side) {
    // Message edge: the receiver learns everything the sender knew when
    // it posted.
    Join(NodeClock(node), op.post_clock);
    SelfTick(node);
  } else {
    if (!op.acquired.empty()) Join(NodeClock(node), op.acquired);
    const uint64_t stamp = SelfTick(node);
    for (uint32_t r : op.records) records_[r].stamp = stamp;
  }
  if (++op.seen >= op.expected) pending_.erase(it);
}

void Checker::OnDeregister(uint32_t node, uint64_t lo, uint64_t hi) {
  // Violation emission order is part of the deterministic run output;
  // visit pending ops in ref order, not hash order.
  std::vector<uint32_t> refs;
  refs.reserve(pending_.size());
  // rdet:order-independent (collect, then sort)
  for (const auto& [ref, op] : pending_) {
    if (op.initiator == node && !op.settled) refs.push_back(ref);
  }
  std::sort(refs.begin(), refs.end());
  for (const uint32_t ref : refs) {
    const PendingOp& op = pending_.at(ref);
    for (const LocalRange& r : op.sges) {
      if (r.hi <= lo || r.lo >= hi) continue;
      Violation v;
      v.type = ViolationType::kUseAfterDereg;
      v.target_node = node;
      v.a = MakeOpEndpoint(op, r.lo, r.hi,
                           op.cls == OpClass::kRemoteRead
                               ? AccessKind::kWrite
                               : AccessKind::kRead);
      v.a.remote = false;
      v.b.node = node;
      v.b.vtime = NowVirtual();
      v.b.lo = lo;
      v.b.hi = hi;
      v.b.label = "DeregisterMemory";
      v.detail =
          "buffer deregistered while a posted op could still scatter or "
          "gather through it";
      Report(std::move(v));
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Region lifecycle
// ---------------------------------------------------------------------------
void Checker::OnRegionSlab(uint64_t region_id, std::string_view name,
                           uint64_t slab_size, uint32_t node, uint64_t lo,
                           uint64_t hi, uint64_t region_off) {
  (void)slab_size;
  auto& m = ranges_[node];
  // Slab reuse: evict stale (typically dead) ranges this slab overlaps.
  auto it = m.upper_bound(lo);
  if (it != m.begin()) --it;
  while (it != m.end() && it->first < hi) {
    if (it->second.hi > lo) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  RangeEntry e;
  e.hi = hi;
  e.region_id = region_id;
  e.region_off = region_off;
  m.emplace(lo, e);
  RegionMeta& meta = regions_[region_id];
  if (meta.name.empty()) meta.name = std::string(name);
  meta.slabs.emplace_back(node, lo);
}

void Checker::OnRegionFree(uint64_t region_id) {
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) return;
  rit->second.freed = true;
  const uint64_t now = NowVirtual();
  for (const auto& [node, lo] : rit->second.slabs) {
    auto nit = ranges_.find(node);
    if (nit == ranges_.end()) continue;
    auto it = nit->second.find(lo);
    if (it == nit->second.end() || it->second.region_id != region_id) {
      continue;  // slab already reused by a newer region
    }
    it->second.dead = true;
    it->second.dead_vtime = now;
  }
  // The contract state dies with the region.
  cache_.erase(region_id);
}

void Checker::OnRegionGrow(uint64_t region_id, uint32_t master_node) {
  auto rit = regions_.find(region_id);
  // Violation emission order is part of the deterministic run output;
  // visit pending ops in ref order, not hash order.
  std::vector<uint32_t> refs;
  refs.reserve(pending_.size());
  // rdet:order-independent (collect, then sort)
  for (const auto& [ref, op] : pending_) {
    if (op.region_id == region_id && !op.settled &&
        op.cls != OpClass::kMessage) {
      refs.push_back(ref);
    }
  }
  std::sort(refs.begin(), refs.end());
  for (const uint32_t ref : refs) {
    const PendingOp& op = pending_.at(ref);
    Violation v;
    v.type = ViolationType::kGrowRace;
    v.target_node = op.target;
    v.region_id = region_id;
    if (rit != regions_.end()) v.region_name = rit->second.name;
    v.a = MakeOpEndpoint(op, op.remote_lo, op.remote_hi,
                         op.cls == OpClass::kRemoteRead ? AccessKind::kRead
                                                        : AccessKind::kWrite);
    v.b.node = master_node;
    v.b.vtime = NowVirtual();
    v.b.label = "Rgrow";
    v.detail = "Rgrow processed while this op was still in flight "
               "against the region";
    Report(std::move(v));
  }
}

void Checker::OnMap(uint32_t node, uint64_t region_id) {
  auto it = unmapped_.find(node);
  if (it != unmapped_.end()) it->second.erase(region_id);
}

void Checker::OnUnmap(uint32_t node, uint64_t region_id) {
  unmapped_[node][region_id] = NowVirtual();
}

// ---------------------------------------------------------------------------
// Cache-mode contract
// ---------------------------------------------------------------------------
void Checker::OnCacheWriteThrough(uint32_t node, uint64_t region_id,
                                  uint64_t lo, uint64_t hi) {
  IntervalAdd(cache_[region_id].write_through[node], lo, hi);
}

void Checker::OnCacheResident(uint32_t node, uint64_t region_id,
                              uint64_t lo, uint64_t hi) {
  IntervalAdd(cache_[region_id].resident[node], lo, hi);
}

void Checker::OnCacheDrop(uint32_t node, uint64_t region_id, uint64_t lo,
                          uint64_t hi) {
  auto it = cache_.find(region_id);
  if (it == cache_.end()) return;
  auto wt = it->second.write_through.find(node);
  if (wt != it->second.write_through.end()) {
    IntervalRemove(wt->second, lo, hi);
  }
  auto res = it->second.resident.find(node);
  if (res != it->second.resident.end()) {
    IntervalRemove(res->second, lo, hi);
  }
}

void Checker::OnEpochBump(uint32_t node, uint64_t region_id) {
  auto it = cache_.find(region_id);
  if (it == cache_.end()) return;
  auto wt = it->second.write_through.find(node);
  if (wt != it->second.write_through.end()) wt->second.clear();
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------
Endpoint Checker::MakeEndpoint(const Record& r) const {
  Endpoint e;
  e.node = r.initiator;
  e.vtime = r.vtime;
  e.lo = r.lo;
  e.hi = r.hi;
  e.kind = r.kind;
  e.remote = r.remote;
  e.pending = r.stamp == kPendingStamp;
  if (r.label != nullptr) e.label = r.label;
  return e;
}

Endpoint Checker::MakeOpEndpoint(const PendingOp& op, uint64_t lo,
                                 uint64_t hi, AccessKind kind) const {
  Endpoint e;
  e.node = op.initiator;
  e.vtime = NowVirtual();
  e.lo = lo;
  e.hi = hi;
  e.kind = kind;
  e.remote = true;
  if (op.label != nullptr) e.label = op.label;
  return e;
}

void Checker::FillRegionInfo(Violation* v, uint32_t node, uint64_t lo,
                             uint64_t hi) {
  RangeEntry* e = FindRange(node, lo);
  if (e == nullptr) return;
  v->region_id = e->region_id;
  auto rit = regions_.find(e->region_id);
  if (rit != regions_.end()) v->region_name = rit->second.name;
  auto nit = ranges_.find(node);
  // Recover the range's base address to translate to region offsets.
  auto it = nit->second.upper_bound(lo);
  --it;
  v->region_lo = lo - it->first + e->region_off;
  v->region_hi = std::min(hi, e->hi) - it->first + e->region_off;
}

void Checker::Report(Violation v) { violations_.push_back(std::move(v)); }

namespace {
void PrintEndpoint(std::ostream& os, const char* tag, const Endpoint& e) {
  os << "  " << tag << ": node " << e.node << ' '
     << (e.remote ? "remote " : "local ") << ToString(e.kind) << " ["
     << e.lo << ", " << e.hi << ") at t=" << e.vtime << "ns";
  if (!e.label.empty()) os << " in " << e.label;
  if (e.pending) os << " (completion never observed)";
  os << '\n';
}
}  // namespace

void Checker::PrintReports(std::ostream& os) const {
  for (const Violation& v : violations_) {
    os << "rcheck: " << ToString(v.type) << " on node " << v.target_node;
    if (!v.region_name.empty()) {
      os << " region \"" << v.region_name << "\" bytes [" << v.region_lo
         << ", " << v.region_hi << ")";
    }
    os << '\n';
    PrintEndpoint(os, "A", v.a);
    PrintEndpoint(os, "B", v.b);
    if (!v.detail.empty()) os << "  " << v.detail << '\n';
  }
  os << "rcheck: " << violations_.size() << " violation(s)\n";
}

namespace {
void DumpEndpoint(std::ostream& os, const Endpoint& e) {
  os << "{\"node\":" << e.node << ",\"vtime\":" << e.vtime
     << ",\"lo\":" << e.lo << ",\"hi\":" << e.hi << ",\"kind\":\""
     << ToString(e.kind) << "\",\"remote\":" << (e.remote ? "true" : "false")
     << ",\"pending\":" << (e.pending ? "true" : "false") << ",\"label\":\"";
  JsonEscape(os, e.label);
  os << "\"}";
}
}  // namespace

void Checker::DumpJson(std::ostream& os) const {
  os << "{\"violations\":[";
  bool first = true;
  for (const Violation& v : violations_) {
    if (!first) os << ',';
    first = false;
    os << "{\"type\":\"" << ToString(v.type)
       << "\",\"target_node\":" << v.target_node
       << ",\"region_id\":" << v.region_id << ",\"region\":\"";
    JsonEscape(os, v.region_name);
    os << "\",\"region_lo\":" << v.region_lo
       << ",\"region_hi\":" << v.region_hi << ",\"a\":";
    DumpEndpoint(os, v.a);
    os << ",\"b\":";
    DumpEndpoint(os, v.b);
    os << ",\"detail\":\"";
    JsonEscape(os, v.detail);
    os << "\"}";
  }
  os << "]}\n";
}

}  // namespace rstore::check
