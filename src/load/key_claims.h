// Engine-local key claims: one remote write per batch of same-key writes.
//
// Past the saturation knee the Zipf head's seqlocks bind: writers of one
// hot key from one engine race each other's lock CAS, and every loser pays
// another round trip (and a backoff when the holder stalls). Writers inside
// one engine need not race at all. The first update or read-modify-write of
// a key becomes its *holder* and runs the slot protocol; later writes of
// the key from the same engine *park* in the key's FIFO and post nothing
// (Sherman's local lock table, applied to RKV's slots). When the holder
// ends, the parked writes form the next batch: the first becomes the
// holder, and every later one of the same kind becomes its *rider*. A rider
// completes at its holder's completion instant with the holder's outcome.
// Riders are invoked before their holder's CAS is posted and respond after
// its release executes, so each rider's write linearizes just before the
// holder's and is overwritten at once.
//
// Two rules keep that argument true:
//   * failure: a holder that ends in an error (retry budget, verbs
//     error, a shed) passes nothing on; its riders go back to the front
//     of the FIFO and the first of them runs its own op as the next
//     holder;
//   * kind: updates (upserts) and read-modify-writes never share a
//     batch, so an RMW's kNotFound never reaches an upsert, which cannot
//     miss.
//
// Reads, scans and inserts never claim: a read may not take another
// op's answer without its own probe, and inserts write fresh keys. The
// table is engine-local and every decision is a pure function of the
// engine's call order, like admission.h.
#pragma once

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

  // Claims `key` for session `s`, whose op is `op`. True: `s` holds the
  // key and runs its op. False: the key is held, and `s` is parked in
  // its FIFO.
  bool Acquire(uint64_t key, uint32_t s, OpType op);

  // The holder of `key` ended. With `pass` its outcome applies to its
  // riders, which are appended to `riders`; without, they go back to the
  // front of the FIFO. Then the FIFO's first session becomes the holder
  // and every later one of its op type its rider. Returns the new
  // holder, or -1 when the key is free again.
  int64_t Release(uint64_t key, bool pass, std::vector<uint32_t>& riders);

 private:
  struct Waiter {
    uint32_t session;
    OpType op;
  };
  struct Claim {
    OpType op = OpType::kUpdate;   // the holder's, shared by its riders
    std::vector<uint32_t> riders;  // the holder's batch, in FIFO order
    std::vector<Waiter> parked;    // not yet in a batch, in FIFO order
  };

  std::unordered_map<uint64_t, Claim> claims_;
};

}  // namespace rstore::load
