#include "load/key_claims.h"

#include <utility>

namespace rstore::load {

bool KeyClaims::Acquire(uint64_t key, uint32_t s, OpType op) {
  auto [it, fresh] = claims_.try_emplace(key);
  if (fresh) {
    it->second.op = op;
    return true;
  }
  it->second.parked.push_back({s, op});
  return false;
}

int64_t KeyClaims::Release(uint64_t key, bool pass,
                           std::vector<uint32_t>& riders) {
  const auto it = claims_.find(key);
  if (it == claims_.end()) return -1;
  Claim& c = it->second;
  if (pass) {
    riders.insert(riders.end(), c.riders.begin(), c.riders.end());
  } else {
    std::vector<Waiter> back;
    back.reserve(c.riders.size() + c.parked.size());
    for (const uint32_t r : c.riders) back.push_back({r, c.op});
    back.insert(back.end(), c.parked.begin(), c.parked.end());
    c.parked = std::move(back);
  }
  c.riders.clear();
  if (c.parked.empty()) {
    claims_.erase(it);
    return -1;
  }
  // The next batch: the first parked op holds, the rest of its type
  // ride, and every other op keeps its place in the FIFO.
  const Waiter next = c.parked.front();
  c.op = next.op;
  size_t kept = 0;
  for (size_t i = 1; i < c.parked.size(); ++i) {
    const Waiter w = c.parked[i];
    if (w.op == c.op) {
      c.riders.push_back(w.session);
    } else {
      c.parked[kept++] = w;
    }
  }
  c.parked.resize(kept);
  return next.session;
}

}  // namespace rstore::load
