#include "check/lin.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace rstore::check {
namespace {

// Per-key search budget: states visited before giving up. Exhaustion is
// reported as "inconclusive", never as a violation, preserving zero
// false positives.
constexpr uint64_t kStateBudget = 1u << 20;
// Cheaper budget for minimization re-checks; an inconclusive trial just
// keeps the op in the core.
constexpr uint64_t kMinimizeStateBudget = 1u << 16;
constexpr size_t kMinimizeChecks = 256;

enum class KeyVerdict { kOk, kViolation, kInconclusive };

struct MemoKey {
  std::vector<uint64_t> words;
  uint64_t reg;
  bool operator==(const MemoKey& o) const {
    return reg == o.reg && words == o.words;
  }
};

struct MemoHash {
  size_t operator()(const MemoKey& k) const noexcept {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t w : k.words) {
      h ^= w;
      h *= 0x100000001b3ULL;
    }
    h ^= k.reg;
    h *= 0x100000001b3ULL;
    return static_cast<size_t>(h);
  }
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  return buf;
}

std::string DescribeOp(const LinOp& op) {
  std::string s = std::string(ToString(op.kind)) + "(digest=" +
                  Hex(op.digest) + ") by client " +
                  std::to_string(op.client) + " [" +
                  std::to_string(op.inv_ns) + "ns, " +
                  (op.pending ? std::string("pending")
                              : std::to_string(op.resp_ns) + "ns") +
                  "]";
  return s;
}

// Wing–Gong search over one key's subhistory (sorted by inv_ns).
// Pending reads must already be dropped by the caller (they are no-ops:
// legal to never linearize, and linearizing them changes nothing).
KeyVerdict CheckKey(const std::vector<LinOp>& h, uint64_t init,
                    uint64_t state_budget, LinChecker::Stats* stats,
                    std::string* detail_out) {
  const size_t n = h.size();
  size_t completed = 0;
  for (const LinOp& op : h) {
    if (!op.pending) ++completed;
  }
  if (completed == 0) return KeyVerdict::kOk;

  std::vector<uint64_t> lin_words((n + 63) / 64, 0);
  auto is_lin = [&lin_words](size_t i) {
    return ((lin_words[i >> 6] >> (i & 63)) & 1u) != 0;
  };
  auto set_lin = [&lin_words](size_t i) {
    lin_words[i >> 6] |= uint64_t{1} << (i & 63);
  };
  auto clear_lin = [&lin_words](size_t i) {
    lin_words[i >> 6] &= ~(uint64_t{1} << (i & 63));
  };

  uint64_t reg = init;
  size_t lin_completed = 0;
  size_t prefix = 0;  // ops before this index are all linearized
  uint64_t states = 0;
  std::unordered_set<MemoKey, MemoHash> memo;

  struct Frame {
    std::vector<uint32_t> cands;
    uint32_t next = 0;
    uint32_t chosen = UINT32_MAX;
    uint64_t saved_reg = 0;
    size_t saved_prefix = 0;
  };
  std::vector<Frame> stack;
  stack.reserve(n + 1);

  size_t best_progress = 0;
  std::string best_detail;

  for (;;) {
    // Arrive at the current (linearized-set, reg) state.
    if (lin_completed == completed) return KeyVerdict::kOk;
    if (++states > state_budget) return KeyVerdict::kInconclusive;
    if (stats != nullptr) ++stats->states_explored;

    Frame f;
    f.saved_reg = reg;
    f.saved_prefix = prefix;
    while (prefix < n && is_lin(prefix)) ++prefix;

    if (!memo.insert(MemoKey{lin_words, reg}).second) {
      if (stats != nullptr) ++stats->memo_hits;
      // Known-dead state: empty candidate list forces a backtrack.
    } else {
      // The frontier: unlinearized ops that no unlinearized op must
      // precede, i.e. inv <= min resp over unlinearized ops. Scanning in
      // inv order can stop once inv exceeds the running min resp (later
      // ops have resp >= inv and cannot lower it).
      uint64_t min_resp = kLinNever;
      std::vector<uint32_t> window;
      for (size_t i = prefix; i < n; ++i) {
        if (is_lin(i)) continue;
        if (h[i].inv_ns > min_resp) break;
        window.push_back(static_cast<uint32_t>(i));
        min_resp = std::min(min_resp, h[i].resp_ns);
      }
      // A minimal completed read returning the current register value
      // linearizes immediately, without branching: moving such a read to
      // the front of any witness order preserves both real-time edges
      // (nothing must precede a frontier op) and every later op's view
      // (reads do not change state). If the search fails after taking
      // it, the state is unsatisfiable outright.
      uint32_t greedy_read = UINT32_MAX;
      for (uint32_t i : window) {
        if (h[i].inv_ns > min_resp) continue;
        if (h[i].kind == LinOpKind::kRead && h[i].digest == reg) {
          greedy_read = i;
          break;
        }
      }
      if (greedy_read != UINT32_MAX) {
        f.cands.push_back(greedy_read);
        if (stats != nullptr) ++stats->greedy_reads;
      } else {
        for (uint32_t i : window) {
          if (h[i].inv_ns > min_resp) continue;
          if (h[i].kind == LinOpKind::kRead && h[i].digest != reg) {
            continue;  // cannot linearize here; maybe after a write
          }
          f.cands.push_back(i);
        }
        if (f.cands.empty() && lin_completed >= best_progress) {
          best_progress = lin_completed;
          std::string d = "stuck with register=" + Hex(reg) + " after " +
                          std::to_string(lin_completed) + "/" +
                          std::to_string(completed) +
                          " completed ops linearized; frontier:";
          size_t listed = 0;
          for (uint32_t i : window) {
            if (h[i].inv_ns > min_resp || listed == 3) break;
            d += "\n      blocked " + DescribeOp(h[i]);
            ++listed;
          }
          best_detail = std::move(d);
        }
      }
    }
    stack.push_back(std::move(f));

    // Advance: undo exhausted frames until one yields a fresh choice.
    bool descended = false;
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.chosen != UINT32_MAX) {
        clear_lin(top.chosen);
        if (!h[top.chosen].pending) --lin_completed;
        reg = top.saved_reg;
        prefix = top.saved_prefix;
        top.chosen = UINT32_MAX;
      }
      if (top.next < top.cands.size()) {
        const uint32_t i = top.cands[top.next++];
        top.chosen = i;
        set_lin(i);
        if (!h[i].pending) ++lin_completed;
        if (h[i].kind == LinOpKind::kWrite) reg = h[i].digest;
        descended = true;
        break;
      }
      reg = top.saved_reg;
      prefix = top.saved_prefix;
      stack.pop_back();
    }
    if (!descended) {
      if (detail_out != nullptr) *detail_out = std::move(best_detail);
      return KeyVerdict::kViolation;
    }
  }
}

// Shrinks a violating subhistory to a small unsatisfiable core. Removing
// ops only relaxes constraints, so any subset that still fails is a
// genuine counterexample. Chunked ddmin first (for large histories),
// then a single-op greedy pass; bounded by kMinimizeChecks re-checks.
std::vector<LinOp> Minimize(std::vector<LinOp> cur, uint64_t init) {
  size_t checks = kMinimizeChecks;
  auto still_fails = [&](const std::vector<LinOp>& trial) {
    LinChecker::Stats scratch;
    return CheckKey(trial, init, kMinimizeStateBudget, &scratch, nullptr) ==
           KeyVerdict::kViolation;
  };

  size_t gran = 2;
  while (cur.size() > 8 && gran <= cur.size() && checks > 0) {
    const size_t chunk = std::max<size_t>(1, cur.size() / gran);
    bool removed = false;
    for (size_t start = 0; start < cur.size() && checks > 0; start += chunk) {
      std::vector<LinOp> trial;
      trial.reserve(cur.size());
      for (size_t i = 0; i < cur.size(); ++i) {
        if (i < start || i >= start + chunk) trial.push_back(cur[i]);
      }
      if (trial.empty()) continue;
      --checks;
      if (still_fails(trial)) {
        cur = std::move(trial);
        removed = true;
        break;
      }
    }
    if (removed) {
      gran = std::max<size_t>(2, gran - 1);
    } else {
      gran *= 2;
    }
  }

  bool improved = true;
  while (improved && checks > 0) {
    improved = false;
    for (size_t i = 0; i < cur.size() && checks > 0; ++i) {
      std::vector<LinOp> trial = cur;
      trial.erase(trial.begin() + static_cast<ptrdiff_t>(i));
      --checks;
      if (still_fails(trial)) {
        cur = std::move(trial);
        improved = true;
        break;
      }
    }
  }
  return cur;
}

void EscapeJson(const std::string& in, std::ostream& os) {
  for (char c : in) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

const char* ToString(LinOpKind kind) noexcept {
  return kind == LinOpKind::kRead ? "read" : "write";
}

LinChecker::LinChecker() = default;
LinChecker::~LinChecker() = default;

uint64_t LinChecker::Digest(const void* data, size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h == kLinAbsent ? 1 : h;
}

void LinChecker::RecordInit(uint64_t key, uint64_t digest) {
  assert(!finalized_);
  if (finalized_) return;
  inits_.emplace_back(key, digest);
}

void LinChecker::RecordOp(uint32_t client, LinOpKind kind, uint64_t key,
                          uint64_t digest, uint64_t inv_ns,
                          uint64_t resp_ns) {
  assert(!finalized_);
  if (finalized_) return;
  LinOp op;
  op.id = ops_.size();
  op.client = client;
  op.kind = kind;
  op.key = key;
  op.digest = digest;
  op.inv_ns = inv_ns;
  op.resp_ns = resp_ns;
  ops_.push_back(op);
}

void LinChecker::RecordPending(uint32_t client, LinOpKind kind, uint64_t key,
                               uint64_t digest, uint64_t inv_ns) {
  assert(!finalized_);
  if (finalized_) return;
  LinOp op;
  op.id = ops_.size();
  op.client = client;
  op.kind = kind;
  op.key = key;
  op.digest = digest;
  op.inv_ns = inv_ns;
  op.resp_ns = kLinNever;
  op.pending = true;
  ops_.push_back(op);
}

void LinChecker::Finalize() {
  if (finalized_) return;
  finalized_ = true;

  std::unordered_map<uint64_t, uint64_t> init;
  for (const auto& [key, digest] : inits_) init[key] = digest;

  std::unordered_map<uint64_t, std::vector<LinOp>> by_key;
  for (const LinOp& op : ops_) {
    // Pending reads are no-ops: legal to never linearize, and
    // linearizing one changes no state. Drop them up front.
    if (op.pending && op.kind == LinOpKind::kRead) continue;
    by_key[op.key].push_back(op);
  }

  std::vector<uint64_t> keys;
  keys.reserve(by_key.size());
  // rdet:order-independent (collect, then sort)
  for (const auto& [key, ops] : by_key) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  for (uint64_t key : keys) {
    std::vector<LinOp>& h = by_key[key];
    std::stable_sort(h.begin(), h.end(), [](const LinOp& a, const LinOp& b) {
      if (a.inv_ns != b.inv_ns) return a.inv_ns < b.inv_ns;
      return a.id < b.id;
    });
    const auto it = init.find(key);
    const uint64_t iv = it == init.end() ? kLinAbsent : it->second;
    ++stats_.keys_checked;
    std::string detail;
    const KeyVerdict verdict = CheckKey(h, iv, kStateBudget, &stats_, &detail);
    if (verdict == KeyVerdict::kInconclusive) {
      ++stats_.keys_inconclusive;
      continue;
    }
    if (verdict == KeyVerdict::kOk) continue;
    LinViolation v;
    v.key = key;
    v.history_ops = h.size();
    v.ops = Minimize(h, iv);
    v.detail = std::move(detail);
    violations_.push_back(std::move(v));
  }
}

void LinChecker::PrintReports(std::ostream& os) const {
  for (const LinViolation& v : violations_) {
    os << "[rlin] key " << Hex(v.key) << ": " << v.history_ops
       << "-op history is not linearizable; minimized core has "
       << v.ops.size() << " ops\n";
    if (!v.detail.empty()) os << "    " << v.detail << "\n";
    for (const LinOp& op : v.ops) {
      os << "    #" << op.id << " " << DescribeOp(op) << "\n";
    }
  }
  if (!violations_.empty()) {
    os << "[rlin] " << violations_.size() << " violation(s) over "
       << ops_.size() << " ops, " << stats_.keys_checked << " keys\n";
  }
  if (stats_.keys_inconclusive > 0) {
    // Not a violation, but those keys' histories were not judged.
    os << "[rlin] " << stats_.keys_checked << " keys checked, "
       << stats_.keys_inconclusive << " inconclusive (state budget), "
       << stats_.states_explored << " states\n";
  }
}

void LinChecker::DumpJson(std::ostream& os) const {
  os << "{\n  \"tool\": \"rlin\",\n";
  os << "  \"ops\": " << ops_.size() << ",\n";
  os << "  \"keys\": " << stats_.keys_checked << ",\n";
  os << "  \"violation_count\": " << violations_.size() << ",\n";
  os << "  \"stats\": {\"states\": " << stats_.states_explored
     << ", \"memo_hits\": " << stats_.memo_hits
     << ", \"greedy_reads\": " << stats_.greedy_reads
     << ", \"keys_inconclusive\": " << stats_.keys_inconclusive << "},\n";
  os << "  \"violations\": [";
  bool first_v = true;
  for (const LinViolation& v : violations_) {
    if (!first_v) os << ",";
    first_v = false;
    os << "\n    {\"key\": \"" << Hex(v.key)
       << "\", \"history_ops\": " << v.history_ops << ", \"detail\": \"";
    EscapeJson(v.detail, os);
    os << "\", \"ops\": [";
    bool first_o = true;
    for (const LinOp& op : v.ops) {
      if (!first_o) os << ",";
      first_o = false;
      os << "\n      {\"id\": " << op.id << ", \"client\": " << op.client
         << ", \"kind\": \"" << ToString(op.kind) << "\", \"digest\": \""
         << Hex(op.digest) << "\", \"inv_ns\": " << op.inv_ns
         << ", \"resp_ns\": ";
      if (op.pending) {
        os << "null";
      } else {
        os << op.resp_ns;
      }
      os << ", \"pending\": " << (op.pending ? "true" : "false") << "}";
    }
    os << "\n    ]}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace rstore::check
