// Engine-local key claims: one remote write per batch of same-key writes.
//
// Past the saturation knee the Zipf head's seqlocks bind: writers of one
// hot key from one engine race each other's lock CAS, and every loser pays
// another round trip (and a backoff when the holder stalls). Writers inside
// one engine need not race at all. The first update or read-modify-write of
// a key becomes its *holder* and runs the slot protocol. A later write of
// the key from the same engine posts nothing (Sherman's local lock table
// with command combining, applied to RKV's slots). While the holder's
// batch is *open* — the holder's op has the write's kind and has not yet
// posted its payload write — the write *joins* the batch as a rider.
// Otherwise it *parks* in the key's FIFO. When the holder ends, the parked
// writes form the next batch: the first becomes the holder, and every
// later one of the same kind becomes its rider. A rider completes at its
// holder's completion instant with the holder's outcome. A seqlock write
// takes effect when its release lands; every rider is invoked before its
// holder's payload write is posted, so before that release, and responds
// after it. So each rider's write linearizes just before the holder's and
// is overwritten at once.
//
// Three rules keep that argument true:
//   * failure: a holder that ends in an error (retry budget, verbs
//     error, a shed) passes nothing on; its riders go back to the front
//     of the FIFO and the first of them runs its own op as the next
//     holder;
//   * kind: updates (upserts) and read-modify-writes never share a
//     batch, so an RMW's kNotFound never reaches an upsert, which cannot
//     miss;
//   * miss: a holder's kNotFound takes effect at its probe, which may
//     precede a joined rider's invocation. It passes only to the riders
//     batched when the holder began; joined riders go back to the front
//     of the FIFO, as after an error.
//
// rlin cannot see a rider that joined after its holder's write was
// posted: both intervals end at the holder's completion, so a witness
// always orders the rider first. KeyClaimsTest pins the join rule.
//
// Reads, scans and inserts never claim: a read may not take another
// op's answer without its own probe, and inserts write fresh keys. The
// table is engine-local and every decision is a pure function of the
// engine's call order, like admission.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "load/workload.h"

namespace rstore::load {

class KeyClaims {
 public:
  // Whether an op of type `op` takes part in key claims.
  [[nodiscard]] static constexpr bool Claims(OpType op) noexcept {
    return op == OpType::kUpdate || op == OpType::kReadModifyWrite;
  }

  // A claiming session's part in its key's batch.
  enum class Role {
    kHolder,  // holds the key and runs its op
    kRider,   // joined the holder's open batch
    kParked,  // waits in the key's FIFO
  };
  // How a holder's op ended.
  enum class Outcome { kWrite, kNotFound, kError };

  // Claims `key` for session `s`, whose op is `op`. `posted(h)` tells
  // whether holder session `h` has posted its payload write.
  template <typename Posted>
  Role Acquire(uint64_t key, uint32_t s, OpType op, const Posted& posted) {
    auto [it, fresh] = claims_.try_emplace(key);
    Claim& c = it->second;
    if (fresh) {
      c.holder = s;
      c.op = op;
      return Role::kHolder;
    }
    if (op == c.op && !posted(c.holder)) {
      c.riders.push_back(s);
      return Role::kRider;
    }
    c.parked.push_back({s, op});
    return Role::kParked;
  }

  // The holder of `key` ended with `outcome`. The riders it passes to
  // (see the failure and miss rules) are appended to `riders`; the rest
  // go back to the front of the FIFO. Then the FIFO's first session
  // becomes the holder and every later one of its op type its rider.
  // Returns the new holder, or -1 when the key is free again.
  int64_t Release(uint64_t key, Outcome outcome,
                  std::vector<uint32_t>& riders);

 private:
  struct Waiter {
    uint32_t session;
    OpType op;
  };
  struct Claim {
    uint32_t holder = 0;
    OpType op = OpType::kUpdate;   // the holder's, shared by its riders
    std::vector<uint32_t> riders;  // the holder's batch, in FIFO order
    size_t batched = 0;            // riders formed when the holder began
    std::vector<Waiter> parked;    // not yet in a batch, in FIFO order
  };

  std::unordered_map<uint64_t, Claim> claims_;
};

}  // namespace rstore::load
