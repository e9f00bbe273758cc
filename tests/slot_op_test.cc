// Tests for kv::SlotOp, RKV's slot protocol as a pure state machine. A
// fake driver applies each step's IOs in order to an in-memory table
// image (the order RC execution gives them), optionally split at "slab"
// boundaries, and lets a test play the other clients by editing the
// table between IO pieces. Each test pins the exact step sequence and
// the final table bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "kv/slot_op.h"

namespace rstore::kv {
namespace {

using Kind = SlotStep::Kind;

class FakeTable {
 public:
  explicit FakeTable(TableGeometry geo)
      : geo_(geo),
        bytes_(SlotLayout::SlotOffset(geo.buckets, geo.slot_bytes)) {}

  const TableGeometry& geo() const { return geo_; }
  uint64_t Home(std::string_view key) const {
    return SlotLayout::HomeSlot(key, geo_.buckets);
  }
  std::byte* Slot(uint64_t slot) {
    return bytes_.data() + SlotLayout::SlotOffset(slot, geo_.slot_bytes);
  }

  void Put(uint64_t slot, uint64_t version, std::string_view key,
           std::string_view value) {
    std::byte* v = SlotLayout::Compose(Slot(slot), version, key,
                                       static_cast<uint32_t>(value.size()));
    std::memcpy(v, value.data(), value.size());
  }
  void SetVersion(uint64_t slot, uint64_t version) {
    std::memcpy(Slot(slot), &version, 8);
  }
  uint64_t Version(uint64_t slot) {
    uint64_t v;
    std::memcpy(&v, Slot(slot), 8);
    return v;
  }
  // "key=value" of a slot, "" when it holds no key.
  std::string Contents(uint64_t slot) {
    const std::byte* p = Slot(slot);
    uint16_t key_len;
    uint32_t val_len;
    std::memcpy(&key_len, p + SlotLayout::kKeyLenOff, 2);
    std::memcpy(&val_len, p + SlotLayout::kValLenOff, 4);
    if (key_len == 0) return "";
    const auto* c = reinterpret_cast<const char*>(p + SlotLayout::kPayloadOff);
    return std::string(c, key_len) + "=" + std::string(c + key_len, val_len);
  }

  // Splits IO at multiples of `slab` (0 = never).
  uint64_t slab = 0;
  // Runs before each IO piece is applied: (step, io index, piece index).
  std::function<void(const SlotStep&, size_t, size_t)> before;

  // Drives `op` to completion and returns its step trace, e.g.
  // {"probe@5", "backoff", "probe@5", "done:OK"}.
  std::vector<std::string> Run(SlotOp& op, int max_steps = 1000) {
    std::vector<std::string> trace;
    for (int guard = 0; guard < max_steps && !op.done(); ++guard) {
      const SlotStep step = op.step();
      if (step.kind == Kind::kBackoff) {
        trace.emplace_back("backoff");
        op.Complete();
        continue;
      }
      trace.push_back(Name(step.kind) + "@" + std::to_string(op.slot()));
      for (size_t i = 0; i < step.io_count; ++i) Apply(step, i);
      op.Complete();
    }
    trace.push_back("done:" + std::string(ToString(op.status().code())));
    return trace;
  }

 private:
  static std::string Name(Kind kind) {
    switch (kind) {
      case Kind::kProbe: return "probe";
      case Kind::kLock: return "lock";
      case Kind::kWrite: return "write";
      case Kind::kRelease: return "release";
      case Kind::kScan: return "scan";
      case Kind::kBackoff: return "backoff";
      case Kind::kDone: return "done";
    }
    return "?";
  }

  void Apply(const SlotStep& step, size_t index) {
    const SlotIo& io = step.io[index];
    if (io.kind == SlotIo::Kind::kCas) {
      if (before) before(step, index, 0);
      std::byte* cell = bytes_.data() + io.offset;
      uint64_t old;
      std::memcpy(&old, cell, 8);
      if (old == io.compare) std::memcpy(cell, &io.swap, 8);
      std::memcpy(io.local, &old, 8);
      return;
    }
    uint64_t at = io.offset;
    uint64_t left = io.length;
    std::byte* local = io.local;
    for (size_t piece = 0; left > 0; ++piece) {
      const uint64_t n =
          slab == 0 ? left : std::min(left, slab - at % slab);
      if (before) before(step, index, piece);
      if (io.kind == SlotIo::Kind::kRead) {
        std::memcpy(local, bytes_.data() + at, n);
      } else {
        std::memcpy(bytes_.data() + at, local, n);
      }
      at += n;
      local += n;
      left -= n;
    }
  }

  TableGeometry geo_;
  std::vector<std::byte> bytes_;
};

TableGeometry SmallGeometry() {
  TableGeometry geo;
  geo.buckets = 64;
  geo.slot_bytes = 64;
  geo.max_probe = 4;
  return geo;
}

std::span<const std::byte> Bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string Str(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

std::string At(const char* name, uint64_t slot) {
  return std::string(name) + "@" + std::to_string(slot);
}

class SlotOpTest : public ::testing::Test {
 protected:
  SlotOpTest() : table_(SmallGeometry()) {
    policy_.retry_budget = 8;
    policy_.backoff = 5000;
    scratch_.resize(SlotOp::ScratchBytes(table_.geo().slot_bytes, 2));
    op_.Bind(table_.geo(), policy_, scratch_.data(), 2);
    h_ = table_.Home("k");
  }
  uint64_t H(uint64_t i) const { return (h_ + i) % SmallGeometry().buckets; }

  std::vector<std::string> Upsert(std::string_view value) {
    op_.Start(SlotOpKind::kUpsert, "k", Bytes(value));
    return table_.Run(op_);
  }
  std::vector<std::string> Lifecycle(uint64_t slot) {
    return {At("lock", slot), At("write", slot)};
  }
  // The compare value of every lock step's CAS, in order.
  void RecordCompares(std::vector<uint64_t>* compares) {
    table_.before = [compares](const SlotStep& step, size_t io, size_t) {
      if (step.kind == Kind::kLock && io == 0) {
        compares->push_back(step.io[0].compare);
      }
    };
  }
  static std::vector<std::string> Cat(
      std::initializer_list<std::vector<std::string>> parts) {
    std::vector<std::string> out;
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

  FakeTable table_;
  SlotOp::Policy policy_;
  std::vector<std::byte> scratch_;
  SlotOp op_;
  uint64_t h_ = 0;
};

TEST_F(SlotOpTest, UpsertGetDeleteOnAnEmptyTable) {
  EXPECT_EQ(Upsert("v1"),
            Cat({{At("probe", H(0))}, Lifecycle(H(0)), {"done:OK"}}));
  EXPECT_EQ(table_.Contents(H(0)), "k=v1");
  EXPECT_EQ(table_.Version(H(0)), 2u);
  // The scratch mirrors the slot after a successful write.
  EXPECT_EQ(std::memcmp(op_.image(), table_.Slot(H(0)), 64), 0);

  op_.Start(SlotOpKind::kGet, "k");
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("probe", H(0)), "done:OK"}));
  EXPECT_EQ(Str(op_.value()), "v1");

  op_.Start(SlotOpKind::kDelete, "k");
  EXPECT_EQ(table_.Run(op_),
            Cat({{At("probe", H(0))}, Lifecycle(H(0)), {"done:OK"}}));
  EXPECT_EQ(table_.Contents(H(0)), "");
  EXPECT_EQ(table_.Version(H(0)), 4u);  // a tombstone keeps chains going

  op_.Start(SlotOpKind::kGet, "k");
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("probe", H(0)), At("probe", H(1)),
                                      "done:NOT_FOUND"}));
  op_.Start(SlotOpKind::kUpdate, "k", Bytes("v2"));
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("probe", H(0)), At("probe", H(1)),
                                      "done:NOT_FOUND"}));
  EXPECT_EQ(op_.retries(), 0u);
}

TEST_F(SlotOpTest, TornProbeRetriesTheSameSlot) {
  table_.Put(H(0), 2, "k", "old");
  int probes = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    // A writer completes between the slot read and its version re-read.
    if (step.kind == Kind::kProbe && io == 1 && probes++ == 0) {
      table_.Put(H(0), 4, "k", "new");
    }
  };
  // The retry's own round trip is the wait: no backoff.
  op_.Start(SlotOpKind::kGet, "k");
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("probe", H(0)), At("probe", H(0)),
                                      "done:OK"}));
  EXPECT_EQ(Str(op_.value()), "new");
  EXPECT_EQ(op_.retries(), 1u);
}

TEST_F(SlotOpTest, LockedProbeWaitsForTheHolderInsteadOfSkipping) {
  table_.Put(H(0), 3, "k", "held");  // another writer holds k's seqlock
  int probes = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    if (step.kind == Kind::kProbe && io == 0 && ++probes == 3) {
      table_.SetVersion(H(0), 4);  // ... and releases it
    }
  };
  // The first retry goes at once; the second conflict sees the same
  // version, so the holder made no progress in a round trip: back off.
  EXPECT_EQ(Upsert("mine"),
            Cat({{At("probe", H(0)), At("probe", H(0)), "backoff",
                  At("probe", H(0))},
                 Lifecycle(H(0)),
                 {"done:OK"}}));
  EXPECT_EQ(table_.Contents(H(0)), "k=mine");
  EXPECT_EQ(table_.Contents(H(1)), "");  // no second copy of k
  EXPECT_EQ(table_.Version(H(0)), 6u);
}

TEST_F(SlotOpTest, UncontendedUpsertTakesThreeSteps) {
  table_.Put(H(0), 6, "k", "old");
  op_.Start(SlotOpKind::kUpsert, "k", Bytes("new"));
  const uint64_t slot = SlotLayout::SlotOffset(H(0), 64);
  const uint64_t version = slot + SlotLayout::kVersionOff;
  const uint64_t rest = slot + SlotLayout::kKeyLenOff;
  struct Want {
    Kind step;
    SlotIo::Kind kind[2];
    Lane lane[2];
    uint64_t offset[2];
    uint32_t length[2];
  };
  using IoKind = SlotIo::Kind;
  const Want want[] = {
      {Kind::kProbe,
       {IoKind::kRead, IoKind::kRead},
       {Lane::kSpeculative, Lane::kSpeculative},
       {slot, version},
       {64, 8}},
      {Kind::kLock,
       {IoKind::kCas, IoKind::kRead},
       {Lane::kPlain, Lane::kSpeculative},
       {version, rest},
       {8, 64 - 8}},
      {Kind::kWrite,
       {IoKind::kWrite, IoKind::kWrite},
       {Lane::kPlain, Lane::kSyncCell},
       {rest, version},
       {16 + 1 + 3, 8}},
  };
  for (const Want& w : want) {
    ASSERT_FALSE(op_.done());
    const SlotStep step = op_.step();
    ASSERT_EQ(step.kind, w.step);
    ASSERT_EQ(step.io_count, 2);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(step.io[i].kind, w.kind[i]);
      EXPECT_EQ(step.io[i].lane, w.lane[i]);
      EXPECT_EQ(step.io[i].offset, w.offset[i]);
      EXPECT_EQ(step.io[i].length, w.length[i]);
    }
    if (step.kind == Kind::kLock) {
      // The CAS compares against the version the probe validated.
      EXPECT_EQ(step.io[0].compare, 6u);
      EXPECT_EQ(step.io[0].swap, 7u);
    }
    table_.Run(op_, /*max_steps=*/1);
  }
  ASSERT_TRUE(op_.done());
  EXPECT_TRUE(op_.status().ok());
  EXPECT_EQ(op_.retries(), 0u);
  EXPECT_EQ(table_.Contents(H(0)), "k=new");
  EXPECT_EQ(table_.Version(H(0)), 8u);
}

TEST_F(SlotOpTest, CasLostToAHolderBacksOffAndComparesAgainstItsRelease) {
  table_.Put(H(0), 2, "k", "old");
  std::vector<uint64_t> compares;
  RecordCompares(&compares);
  const auto record = table_.before;
  int cas = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t piece) {
    record(step, io, piece);
    if (step.kind != Kind::kLock || io != 0) return;
    // A writer takes the lock between our probe and our CAS, and still
    // holds it at our second CAS; it releases (version 4) before the
    // third. The first retry goes at once; the second saw the same
    // holder version again, so it backs off.
    if (++cas == 1) table_.SetVersion(H(0), 3);
    if (cas == 3) table_.Put(H(0), 4, "k", "theirs");
  };
  EXPECT_EQ(Upsert("v"),
            Cat({{At("probe", H(0)), At("lock", H(0)), At("lock", H(0)),
                  "backoff"},
                 Lifecycle(H(0)),
                 {"done:OK"}}));
  EXPECT_EQ(compares, (std::vector<uint64_t>{2, 4, 4}));
  EXPECT_EQ(op_.retries(), 2u);
  EXPECT_EQ(table_.Contents(H(0)), "k=v");
  EXPECT_EQ(table_.Version(H(0)), 6u);
}

TEST_F(SlotOpTest, CasLostToACompletedWriterRetriesAtOnceAgainstItsVersion) {
  table_.Put(H(0), 2, "k", "old");
  std::vector<uint64_t> compares;
  RecordCompares(&compares);
  const auto record = table_.before;
  int cas = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t piece) {
    record(step, io, piece);
    // A writer of k completes between our probe and our CAS. The
    // re-check read behind the lost CAS sees our key: it must not count.
    if (step.kind == Kind::kLock && io == 0 && cas++ == 0) {
      table_.Put(H(0), 4, "k", "theirs");
    }
  };
  EXPECT_EQ(Upsert("v"),
            Cat({{At("probe", H(0)), At("lock", H(0))},
                 Lifecycle(H(0)),
                 {"done:OK"}}));
  EXPECT_EQ(compares, (std::vector<uint64_t>{2, 4}));
  EXPECT_EQ(op_.retries(), 1u);
  EXPECT_EQ(table_.Contents(H(0)), "k=v");
  EXPECT_EQ(table_.Version(H(0)), 6u);
}

TEST_F(SlotOpTest, RecheckBytesBehindALostCasAreIgnored) {
  table_.Put(H(0), 2, "k", "old");
  int locks = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    if (step.kind != Kind::kLock) return;
    if (io == 0 && ++locks == 1) table_.SetVersion(H(0), 3);
    // The holder's write is in flight when our re-check reads: the
    // bytes show a foreign key. Taking them as a lost re-check would
    // release a lock this op never held.
    if (io == 1 && locks == 1) table_.Put(H(0), 3, "z", "torn");
    if (io == 0 && locks == 2) table_.Put(H(0), 4, "k", "theirs");
  };
  EXPECT_EQ(Upsert("v"),
            Cat({{At("probe", H(0)), At("lock", H(0))},
                 Lifecycle(H(0)),
                 {"done:OK"}}));
  EXPECT_EQ(op_.retries(), 1u);
  EXPECT_EQ(table_.Contents(H(0)), "k=v");
  EXPECT_EQ(table_.Version(H(0)), 6u);
}

TEST_F(SlotOpTest, LostRecheckReleasesAndReprobesFromHome) {
  table_.Put(H(0), 2, "y", "1");
  int locks = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    // After our probe saw H(1) empty, another client claims it for "z"
    // and releases before our CAS: the CAS loses to version 2, retries
    // at once and wins, and the re-check loses.
    if (step.kind == Kind::kLock && io == 0 && locks++ == 0) {
      table_.Put(H(1), 2, "z", "2");
    }
  };
  EXPECT_EQ(Upsert("v"),
            Cat({{At("probe", H(0)), At("probe", H(1)), At("lock", H(1)),
                  At("lock", H(1)), At("release", H(1)), At("probe", H(0)),
                  At("probe", H(1)), At("probe", H(2))},
                 Lifecycle(H(2)),
                 {"done:OK"}}));
  EXPECT_EQ(op_.retries(), 2u);
  EXPECT_EQ(table_.Contents(H(0)), "y=1");
  EXPECT_EQ(table_.Contents(H(1)), "z=2");
  EXPECT_EQ(table_.Version(H(1)), 4u);  // released, untouched
  EXPECT_EQ(table_.Contents(H(2)), "k=v");
  EXPECT_EQ(table_.Version(H(2)), 2u);
}

TEST_F(SlotOpTest, LostRecheckOnDeleteReprobesAndReportsAbsent) {
  table_.Put(H(0), 2, "k", "1");
  int locks = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    // k is deleted and its slot reused for "z" between probe and CAS.
    if (step.kind == Kind::kLock && io == 0 && locks++ == 0) {
      table_.Put(H(0), 4, "z", "2");
    }
  };
  op_.Start(SlotOpKind::kDelete, "k");
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{
                At("probe", H(0)), At("lock", H(0)), At("lock", H(0)),
                At("release", H(0)), At("probe", H(0)), At("probe", H(1)),
                "done:NOT_FOUND"}));
  EXPECT_FALSE(op_.wrote());
  EXPECT_EQ(table_.Contents(H(0)), "z=2");
  EXPECT_EQ(table_.Version(H(0)), 6u);
}

TEST_F(SlotOpTest, BacksOffOnlyWhenTheHolderMadeNoProgress) {
  // The probes see holder versions 3, 5, 5, then the release: the move
  // from 3 to 5 is progress (retry at once), the repeated 5 is not.
  const uint64_t seen[] = {3, 5, 5, 6};
  int probes = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    if (step.kind == Kind::kProbe && io == 0) {
      table_.Put(H(0), seen[probes++], "k", "v");
    }
  };
  op_.Start(SlotOpKind::kGet, "k");
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("probe", H(0)), At("probe", H(0)),
                                      At("probe", H(0)), "backoff",
                                      At("probe", H(0)), "done:OK"}));
  EXPECT_EQ(op_.retries(), 3u);

  // The same rule on a lost CAS: holders 3 then 5 are each retried at
  // once, against the release each would write.
  table_.Put(H(0), 2, "k", "old");
  std::vector<uint64_t> compares;
  RecordCompares(&compares);
  const auto record = table_.before;
  int cas = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t piece) {
    record(step, io, piece);
    if (step.kind != Kind::kLock || io != 0) return;
    if (++cas == 1) table_.SetVersion(H(0), 3);
    if (cas == 2) table_.SetVersion(H(0), 5);
    if (cas == 3) table_.SetVersion(H(0), 6);
  };
  EXPECT_EQ(Upsert("v"),
            Cat({{At("probe", H(0)), At("lock", H(0)), At("lock", H(0))},
                 Lifecycle(H(0)),
                 {"done:OK"}}));
  EXPECT_EQ(compares, (std::vector<uint64_t>{2, 4, 6}));
  EXPECT_EQ(op_.retries(), 2u);
  EXPECT_EQ(table_.Version(H(0)), 8u);
}

TEST_F(SlotOpTest, UpsertOfAKeyDeletedUnderTheLockReprobesForItsNewSlot) {
  table_.Put(H(0), 2, "", "");  // tombstone
  table_.Put(H(1), 2, "k", "old");
  int locks = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    // Between our probe (which found k at H(1)) and our CAS, another
    // client deletes k and re-inserts it into the tombstone at H(0).
    if (step.kind == Kind::kLock && io == 0 && locks++ == 0) {
      table_.Put(H(1), 4, "", "");
      table_.Put(H(0), 4, "k", "other");
    }
  };
  // The CAS loses to the delete's release and wins on the retry, but the
  // re-check finds H(1) empty: writing there would leave k twice.
  EXPECT_EQ(Upsert("new"),
            Cat({{At("probe", H(0)), At("probe", H(1)), At("lock", H(1)),
                  At("lock", H(1)), At("release", H(1)), At("probe", H(0))},
                 Lifecycle(H(0)),
                 {"done:OK"}}));
  EXPECT_EQ(table_.Contents(H(0)), "k=new");
  EXPECT_EQ(table_.Version(H(0)), 6u);
  EXPECT_EQ(table_.Contents(H(1)), "");
  EXPECT_EQ(table_.Version(H(1)), 6u);
}

TEST_F(SlotOpTest, UpdateOfAKeyDeletedUnderTheLockReportsNotFound) {
  table_.Put(H(0), 2, "k", "old");
  int locks = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t) {
    // A delete of k completes between our probe and our CAS.
    if (step.kind == Kind::kLock && io == 0 && locks++ == 0) {
      table_.Put(H(0), 4, "", "");
    }
  };
  op_.Start(SlotOpKind::kUpdate, "k", Bytes("new"));
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{
                At("probe", H(0)), At("lock", H(0)), At("lock", H(0)),
                At("release", H(0)), At("probe", H(0)), At("probe", H(1)),
                "done:NOT_FOUND"}));
  EXPECT_FALSE(op_.wrote());
  EXPECT_EQ(table_.Contents(H(0)), "");
  EXPECT_EQ(table_.Version(H(0)), 6u);
}

TEST_F(SlotOpTest, UpsertReusesTheFirstTombstone) {
  table_.Put(H(0), 4, "", "");  // tombstone
  table_.Put(H(1), 2, "y", "1");
  EXPECT_EQ(Upsert("v"),
            Cat({{At("probe", H(0)), At("probe", H(1)), At("probe", H(2))},
                 Lifecycle(H(0)),
                 {"done:OK"}}));
  EXPECT_EQ(table_.Contents(H(0)), "k=v");
  EXPECT_EQ(table_.Version(H(0)), 6u);
  EXPECT_EQ(table_.Contents(H(2)), "");
  EXPECT_EQ(table_.Version(H(2)), 0u);
}

TEST_F(SlotOpTest, FullProbeWindow) {
  for (uint64_t i = 0; i < 4; ++i) {
    table_.Put(H(i), 2, "o" + std::to_string(i), "x");
  }
  const std::vector<std::string> probes = {At("probe", H(0)),
                                           At("probe", H(1)),
                                           At("probe", H(2)),
                                           At("probe", H(3))};
  EXPECT_EQ(Upsert("v"), Cat({probes, {"done:OUT_OF_MEMORY"}}));
  op_.Start(SlotOpKind::kGet, "k");
  EXPECT_EQ(table_.Run(op_), Cat({probes, {"done:NOT_FOUND"}}));
  // With a tombstone in the window, the upsert lands there.
  table_.Put(H(2), 4, "", "");
  EXPECT_EQ(Upsert("v"), Cat({probes, Lifecycle(H(2)), {"done:OK"}}));
  EXPECT_EQ(table_.Contents(H(2)), "k=v");
}

TEST_F(SlotOpTest, RetryBudgetExhaustionAborts) {
  policy_.retry_budget = 2;
  table_.Put(H(0), 5, "k", "held");  // locked for good
  op_.Start(SlotOpKind::kGet, "k");
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("probe", H(0)), At("probe", H(0)),
                                      "backoff", At("probe", H(0)),
                                      "done:ABORTED"}));
  EXPECT_EQ(op_.retries(), 3u);
  EXPECT_EQ(table_.Version(H(0)), 5u);
}

TEST_F(SlotOpTest, SlabStraddlingSlotValidatesAcrossPieces) {
  // A slab boundary 32 bytes into k's home slot: every slot read and
  // payload write of that slot lands in two pieces.
  table_.slab = SlotLayout::SlotOffset(H(0), 64) + 32;
  table_.Put(H(0), 2, "k", "first-value-spanning-the-slab-cut");
  int probes = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t piece) {
    // A writer completes between the two pieces of the first slot read.
    if (step.kind == Kind::kProbe && io == 0 && piece == 1 && probes++ == 0) {
      table_.Put(H(0), 4, "k", "second-value-spanning-the-slab-cut");
    }
  };
  op_.Start(SlotOpKind::kGet, "k");
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("probe", H(0)), At("probe", H(0)),
                                      "done:OK"}));
  EXPECT_EQ(Str(op_.value()), "second-value-spanning-the-slab-cut");

  table_.before = nullptr;
  EXPECT_EQ(Upsert("third-value-spanning-the-slab-cut"),
            Cat({{At("probe", H(0))}, Lifecycle(H(0)), {"done:OK"}}));
  EXPECT_EQ(table_.Contents(H(0)), "k=third-value-spanning-the-slab-cut");
  EXPECT_EQ(table_.Version(H(0)), 6u);
}

TEST_F(SlotOpTest, InvalidWritesFinishAtOnce) {
  op_.Start(SlotOpKind::kUpsert, "", Bytes("v"));
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{"done:INVALID_ARGUMENT"}));
  const std::string big(64, 'x');
  op_.Start(SlotOpKind::kUpsert, "k", Bytes(big));
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{"done:INVALID_ARGUMENT"}));
}

TEST_F(SlotOpTest, ScanReadsTheAreaClampedAtTheTableEnd) {
  op_.Start(SlotOpKind::kScan, "k");
  const SlotStep step = op_.step();
  ASSERT_EQ(step.kind, Kind::kScan);
  ASSERT_EQ(step.io_count, 1);
  EXPECT_EQ(step.io[0].lane, Lane::kSpeculative);
  EXPECT_EQ(step.io[0].offset, SlotLayout::SlotOffset(H(0), 64));
  EXPECT_EQ(step.io[0].length, (h_ + 1 == 64 ? 1u : 2u) * 64);
  EXPECT_EQ(table_.Run(op_),
            (std::vector<std::string>{At("scan", H(0)), "done:OK"}));
}

TEST_F(SlotOpTest, StepsCarryTheirLanes) {
  std::vector<Kind> seen;
  table_.before = [&](const SlotStep& step, size_t io, size_t piece) {
    if (io != 0 || piece != 0) return;
    seen.push_back(step.kind);
    const auto lanes = [&] {
      std::vector<Lane> out;
      for (const SlotIo& i : step.ios()) out.push_back(i.lane);
      return out;
    }();
    switch (step.kind) {
      case Kind::kProbe:
        EXPECT_EQ(lanes, (std::vector<Lane>{Lane::kSpeculative,
                                            Lane::kSpeculative}));
        break;
      case Kind::kLock:
        EXPECT_EQ(lanes,
                  (std::vector<Lane>{Lane::kPlain, Lane::kSpeculative}));
        break;
      case Kind::kWrite:
        EXPECT_EQ(lanes, (std::vector<Lane>{Lane::kPlain, Lane::kSyncCell}));
        EXPECT_EQ(step.io[1].length, 8u);
        break;
      case Kind::kRelease:
        EXPECT_EQ(lanes, (std::vector<Lane>{Lane::kSyncCell}));
        EXPECT_EQ(step.io[0].length, 8u);
        break;
      default:
        ADD_FAILURE() << "unexpected step";
        break;
    }
  };
  // A lost re-check on H(0) runs every step kind.
  int locks = 0;
  const auto check_lanes = table_.before;
  table_.before = [&](const SlotStep& step, size_t io, size_t piece) {
    check_lanes(step, io, piece);
    if (step.kind == Kind::kLock && io == 0 && locks++ == 0) {
      table_.Put(H(0), 0, "z", "2");
    }
  };
  EXPECT_EQ(Upsert("v").back(), "done:OK");
  EXPECT_EQ(seen, (std::vector<Kind>{Kind::kProbe, Kind::kLock,
                                     Kind::kRelease, Kind::kProbe,
                                     Kind::kProbe, Kind::kLock,
                                     Kind::kWrite}));
}

// The mux flushes kPlain before the other lanes, so a step's two IOs
// reach the QP in step order only if a kPlain IO, when the step has one,
// comes first. Checked over every step of contended upserts and deletes.
TEST_F(SlotOpTest, TwoIoStepsListTheirPlainIoFirst) {
  size_t two_io_steps = 0;
  int edits = 0;
  table_.before = [&](const SlotStep& step, size_t io, size_t piece) {
    if (io == 0 && piece == 0 && step.io_count == 2) {
      ++two_io_steps;
      if (step.io[0].lane == Lane::kPlain ||
          step.io[1].lane == Lane::kPlain) {
        EXPECT_EQ(step.io[0].lane, Lane::kPlain);
      }
    }
    // Contend on every other lock: a holder, then a completed writer.
    if (step.kind == Kind::kLock && io == 0 && edits++ % 2 == 0) {
      table_.SetVersion(op_.slot(), table_.Version(op_.slot()) + 1);
    }
  };
  EXPECT_EQ(Upsert("v1").back(), "done:OK");
  EXPECT_EQ(Upsert("v2").back(), "done:OK");
  op_.Start(SlotOpKind::kDelete, "k");
  EXPECT_EQ(table_.Run(op_).back(), "done:OK");
  EXPECT_GE(two_io_steps, 9u);
}

TEST(SlotLayoutTest, HeaderRoundTripsAndRejectsForeignBytes) {
  TableGeometry geo;
  geo.buckets = 1234;
  geo.slot_bytes = 96;
  geo.max_probe = 7;
  std::vector<std::byte> header(SlotLayout::kHeaderBytes);
  SlotLayout::WriteHeader(header.data(), geo);
  auto parsed = SlotLayout::ReadHeader(header);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->buckets, 1234u);
  EXPECT_EQ(parsed->slot_bytes, 96u);
  EXPECT_EQ(parsed->max_probe, 7u);
  header[0] = std::byte{0};
  EXPECT_EQ(SlotLayout::ReadHeader(header).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace rstore::kv
