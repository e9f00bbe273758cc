#include "load/key_claims.h"

#include <utility>

namespace rstore::load {

int64_t KeyClaims::Release(uint64_t key, Outcome outcome,
                           std::vector<uint32_t>& riders) {
  const auto it = claims_.find(key);
  if (it == claims_.end()) return -1;
  Claim& c = it->second;
  const size_t passed = outcome == Outcome::kWrite      ? c.riders.size()
                        : outcome == Outcome::kNotFound ? c.batched
                                                        : 0;
  riders.insert(riders.end(), c.riders.begin(), c.riders.begin() + passed);
  if (passed < c.riders.size()) {
    std::vector<Waiter> back;
    back.reserve(c.riders.size() - passed + c.parked.size());
    for (size_t i = passed; i < c.riders.size(); ++i) {
      back.push_back({c.riders[i], c.op});
    }
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
  c.holder = next.session;
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
  c.batched = c.riders.size();
  return next.session;
}

}  // namespace rstore::load
