// OpCoalescer (src/stores/op_coalescer.h), the one rule by which the replay,
// the server and the loadgen batch ops: random op streams over at most 16
// keys, so same-key conflicts are frequent, run through the coalescer into a
// MemStore at several caps. Every read must see what it sees when the same
// ops are applied one at a time to a second MemStore, and both stores must
// end in the same state.
#include "src/stores/op_coalescer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/stores/kvstore.h"

namespace gadget {
namespace {

struct Op {
  bool read = false;
  WriteBatch::Op write = WriteBatch::Op::kPut;
  std::string key;
  std::string value;
};

std::vector<Op> RandomOps(uint64_t seed, size_t n, int keys) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops(n);
  for (size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    op.key = "key-" + std::to_string(rng() % static_cast<uint64_t>(keys));
    const uint64_t kind = rng() % 10;
    op.read = kind < 4;
    op.write = kind < 7 ? WriteBatch::Op::kPut
                        : (kind < 9 ? WriteBatch::Op::kMerge : WriteBatch::Op::kDelete);
    if (!op.read && op.write != WriteBatch::Op::kDelete) {
      op.value = std::to_string(i) + ";";
    }
  }
  return ops;
}

std::string Outcome(const Status& s, const std::string& value) {
  if (s.IsNotFound()) {
    return "<absent>";
  }
  return s.ok() ? value : "<error " + s.ToString() + ">";
}

std::unique_ptr<KVStore> OpenMem() {
  StoreOptions opts;
  opts.engine = "mem";
  auto store = OpenStore(opts);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

// The oracle: one single-op call per op, in stream order.
std::vector<std::string> ApplyOneByOne(const std::vector<Op>& ops, KVStore* store) {
  std::vector<std::string> reads;
  for (const Op& op : ops) {
    if (op.read) {
      std::string value;
      reads.push_back(Outcome(store->Get(op.key, &value), value));
      continue;
    }
    switch (op.write) {
      case WriteBatch::Op::kPut:
        EXPECT_TRUE(store->Put(op.key, op.value).ok());
        break;
      case WriteBatch::Op::kMerge:
        EXPECT_TRUE(store->Merge(op.key, op.value).ok());
        break;
      case WriteBatch::Op::kDelete:
        EXPECT_TRUE(store->Delete(op.key).ok());
        break;
    }
  }
  return reads;
}

// The same ops through an OpCoalescer at `cap`: every side runs as one
// Write or MultiGet, when and in the order the coalescer says. Checks the
// coalescer's invariants after every op.
std::vector<std::string> ApplyCoalesced(const std::vector<Op>& ops, size_t cap,
                                        KVStore* store) {
  OpCoalescer pending(cap);
  std::vector<std::string> reads;
  std::vector<size_t> readers;  // result slot of each pending read
  auto run_reads = [&] {
    if (pending.pending_reads() == 0) {
      return;
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    EXPECT_TRUE(store->MultiGet(pending.reads(), &values, &statuses).ok());
    ASSERT_EQ(statuses.size(), readers.size());
    for (size_t i = 0; i < readers.size(); ++i) {
      reads[readers[i]] = Outcome(statuses[i], values[i]);
    }
    readers.clear();
    pending.ClearReads();
  };
  auto run_writes = [&] {
    if (!pending.writes().empty()) {
      EXPECT_TRUE(store->Write(pending.writes()).ok());
      pending.ClearWrites();
    }
  };
  for (const Op& op : ops) {
    OpCoalescer::Due due;
    if (op.read) {
      readers.push_back(reads.size());
      reads.emplace_back("<never ran>");
      due = pending.AddRead(op.key);
    } else {
      due = pending.AddWrite(op.write, op.key, op.value);
    }
    EXPECT_FALSE(cap == 1 && due.other) << "a conflict at cap 1";
    if (due.other) {
      op.read ? run_writes() : run_reads();
    }
    if (due.own) {
      op.read ? run_reads() : run_writes();
    }
    // No side holds `cap` ops, and the two sides share no key.
    EXPECT_LT(pending.pending_reads(), cap);
    EXPECT_LT(pending.writes().size(), cap);
    std::set<std::string> written;
    for (size_t i = 0; i < pending.writes().size(); ++i) {
      written.insert(pending.writes().entry(i).key);
    }
    if (pending.pending_reads() != 0) {
      for (const std::string& key : pending.reads()) {
        EXPECT_EQ(written.count(key), 0u) << key << " is pending on both sides";
      }
    }
  }
  run_writes();
  run_reads();
  return reads;
}

TEST(OpCoalescerTest, RandomStreamsMatchOneByOneReplay) {
  for (size_t cap : {1, 2, 3, 7, 32, 256}) {
    for (int keys : {1, 4, 16}) {
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("cap " + std::to_string(cap) + ", " + std::to_string(keys) +
                     " keys, seed " + std::to_string(seed));
        const std::vector<Op> ops = RandomOps(seed * 7919 + cap, 1500, keys);
        std::unique_ptr<KVStore> oracle = OpenMem();
        std::unique_ptr<KVStore> coalesced = OpenMem();
        EXPECT_EQ(ApplyCoalesced(ops, cap, coalesced.get()), ApplyOneByOne(ops, oracle.get()));
        for (int k = 0; k < keys; ++k) {
          const std::string key = "key-" + std::to_string(k);
          std::string want;
          std::string got;
          const Status ws = oracle->Get(key, &want);
          const Status gs = coalesced->Get(key, &got);
          EXPECT_EQ(Outcome(gs, got), Outcome(ws, want)) << key;
        }
        // Above cap 1 some call carried more than one op.
        const StoreStats stats = coalesced->stats();
        if (cap > 1) {
          EXPECT_GT(stats.batched_ops, stats.batches);
        } else {
          EXPECT_EQ(stats.batched_ops, stats.batches);
        }
      }
    }
  }
}

// A side that hits its cap runs whole, and the next op starts a new one.
TEST(OpCoalescerTest, SideRunsAtItsCap) {
  OpCoalescer pending(3);
  EXPECT_FALSE(pending.AddWrite(WriteBatch::Op::kPut, "a", "1").own);
  EXPECT_FALSE(pending.AddWrite(WriteBatch::Op::kMerge, "b", "2").own);
  const OpCoalescer::Due due = pending.AddWrite(WriteBatch::Op::kDelete, "c", "");
  EXPECT_TRUE(due.own);
  EXPECT_FALSE(due.other);
  ASSERT_EQ(pending.writes().size(), 3u);
  EXPECT_EQ(pending.writes().entry(2).op, WriteBatch::Op::kDelete);
  pending.ClearWrites();

  // A read of a key the cleared side held is no conflict any more.
  EXPECT_FALSE(pending.AddRead("a").other);
  EXPECT_FALSE(pending.AddRead("a").own);
  // A write of a pending read's key runs the reads first.
  const OpCoalescer::Due write_a = pending.AddWrite(WriteBatch::Op::kPut, "a", "3");
  EXPECT_TRUE(write_a.other);
  EXPECT_FALSE(write_a.own);
  EXPECT_EQ(pending.reads(), (std::vector<std::string>{"a", "a"}));
}

}  // namespace
}  // namespace gadget
