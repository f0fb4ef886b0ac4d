// B+-tree tests: bulk build, insert path with splits, iterators, duplicate
// handling, structural invariants, and I/O accounting of descents and leaf
// traversal.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "index/bplus_tree.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

/// Builds a 2-column heap (c1 = row id, c2 = provided keys).
std::unique_ptr<HeapFile> MakeHeap(Engine* engine,
                                   const std::vector<int64_t>& keys) {
  auto heap = std::make_unique<HeapFile>(engine, "t", MakeIntSchema(2));
  for (size_t i = 0; i < keys.size(); ++i) {
    SMOOTHSCAN_CHECK(
        heap->Append({Value::Int64(static_cast<int64_t>(i)),
                      Value::Int64(keys[i])})
            .ok());
  }
  return heap;
}

BPlusTreeOptions SmallNodes() {
  BPlusTreeOptions o;
  o.fanout_override = 4;
  o.leaf_capacity_override = 4;
  return o;
}

TEST(BPlusTreeTest, EmptyTree) {
  Engine engine;
  auto heap = MakeHeap(&engine, {});
  BPlusTree tree(&engine, "idx", heap.get(), 1);
  tree.BulkBuild();
  tree.CheckInvariants();
  EXPECT_EQ(tree.num_entries(), 0u);
  EXPECT_FALSE(tree.Seek(0).Valid());
  EXPECT_FALSE(tree.Begin().Valid());
}

TEST(BPlusTreeTest, BulkBuildSortsEntries) {
  Engine engine;
  std::vector<int64_t> keys = {5, 3, 9, 1, 7, 3, 5, 0};
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  tree.CheckInvariants();
  ASSERT_EQ(tree.num_entries(), keys.size());

  std::vector<int64_t> got;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) got.push_back(it.key());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(got, keys);
}

TEST(BPlusTreeTest, SeekFindsFirstGeq) {
  Engine engine;
  auto heap = MakeHeap(&engine, {10, 20, 30, 40, 50});
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  EXPECT_EQ(tree.Seek(20).key(), 20);
  EXPECT_EQ(tree.Seek(21).key(), 30);
  EXPECT_EQ(tree.Seek(-100).key(), 10);
  EXPECT_FALSE(tree.Seek(51).Valid());
}

TEST(BPlusTreeTest, SeekWithDuplicatesStraddlingLeaves) {
  Engine engine;
  // 20 duplicates of key 7 with leaf capacity 4 forces straddling.
  std::vector<int64_t> keys(20, 7);
  keys.push_back(3);
  keys.push_back(9);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  tree.CheckInvariants();

  int count = 0;
  for (auto it = tree.Seek(7); it.Valid() && it.key() == 7; it.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 20);
}

TEST(BPlusTreeTest, DuplicateEntriesAreTidOrdered) {
  Engine engine;
  std::vector<int64_t> keys(50, 1);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  Tid prev{0, 0};
  bool first = true;
  for (auto it = tree.Seek(1); it.Valid(); it.Next()) {
    if (!first) {
      EXPECT_LT(prev, it.tid());
    }
    prev = it.tid();
    first = false;
  }
}

TEST(BPlusTreeTest, InsertBuildsBalancedTree) {
  Engine engine;
  auto heap = MakeHeap(&engine, {});
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  Rng rng(5);
  std::vector<int64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const int64_t k = rng.UniformInt(0, 100);
    keys.push_back(k);
    tree.Insert(k, Tid{static_cast<PageId>(i), 0});
    if (i % 97 == 0) tree.CheckInvariants();
  }
  tree.CheckInvariants();
  ASSERT_EQ(tree.num_entries(), 500u);
  std::vector<int64_t> got;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) got.push_back(it.key());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(got, keys);
}

TEST(BPlusTreeTest, InsertAscendingAndDescending) {
  Engine engine;
  auto heap = MakeHeap(&engine, {});
  for (const bool ascending : {true, false}) {
    BPlusTree tree(&engine, ascending ? "asc" : "desc", heap.get(), 1,
                   SmallNodes());
    for (int i = 0; i < 300; ++i) {
      tree.Insert(ascending ? i : 300 - i, Tid{static_cast<PageId>(i), 0});
    }
    tree.CheckInvariants();
    int64_t prev = INT64_MIN;
    uint64_t n = 0;
    for (auto it = tree.Begin(); it.Valid(); it.Next()) {
      EXPECT_GE(it.key(), prev);
      prev = it.key();
      ++n;
    }
    EXPECT_EQ(n, 300u);
  }
}

TEST(BPlusTreeTest, MetaMatchesStructure) {
  Engine engine;
  std::vector<int64_t> keys(1000);
  Rng rng(7);
  for (auto& k : keys) k = rng.UniformInt(0, 10000);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  const IndexMeta meta = tree.meta();
  EXPECT_EQ(meta.num_entries, 1000u);
  EXPECT_EQ(meta.fanout, 4u);
  EXPECT_EQ(meta.leaf_capacity, 4u);
  EXPECT_EQ(meta.num_leaves, 250u);  // Fully packed leaves.
  // height >= log_fanout(leaves): 250 leaves at fanout 4 needs 4 internal
  // levels above the leaf level.
  EXPECT_GE(meta.height, 4u);
}

TEST(BPlusTreeTest, DefaultFanoutFollowsEq5) {
  Engine engine;
  auto heap = MakeHeap(&engine, {1, 2, 3});
  BPlusTree tree(&engine, "idx", heap.get(), 1);
  tree.BulkBuild();
  // Eq. (5): floor(8192 / (1.2 * 8)) = 853.
  EXPECT_EQ(tree.meta().fanout, 853u);
}

TEST(BPlusTreeTest, MinMaxKey) {
  Engine engine;
  auto heap = MakeHeap(&engine, {42, -5, 17, 100, 3});
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  EXPECT_EQ(tree.MinKey(), -5);
  EXPECT_EQ(tree.MaxKey(), 100);
}

TEST(BPlusTreeTest, RootSeparatorsAreSortedSubset) {
  Engine engine;
  std::vector<int64_t> keys(500);
  Rng rng(11);
  for (auto& k : keys) k = rng.UniformInt(0, 1000);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  const std::vector<int64_t> seps = tree.RootSeparators();
  EXPECT_FALSE(seps.empty());
  EXPECT_TRUE(std::is_sorted(seps.begin(), seps.end()));
}

TEST(BPlusTreeTest, IteratorCompletenessVsBruteForce) {
  Engine engine;
  std::vector<int64_t> keys(2000);
  Rng rng(13);
  for (auto& k : keys) k = rng.UniformInt(0, 300);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();

  auto check = [&](const char* label) {
    for (const int64_t lo : {0L, 50L, 299L, 300L}) {
      for (const int64_t hi : {1L, 100L, 301L}) {
        uint64_t expected = 0;
        for (const int64_t k : keys) expected += (k >= lo && k < hi);
        uint64_t got = 0;
        for (auto it = tree.Seek(lo); it.Valid() && it.key() < hi;
             it.Next()) {
          ++got;
        }
        EXPECT_EQ(got, expected)
            << label << " range [" << lo << "," << hi << ")";
        EXPECT_EQ(tree.CountRange(lo, hi), expected)
            << label << " CountRange [" << lo << "," << hi << ")";
      }
    }
  };
  check("bulk-built");
  // Emptying every leaf that holds only keys in [100, 200) leaves empty
  // leaves mid-chain, which both the iterator and CountRange must skip.
  std::vector<std::pair<int64_t, Tid>> doomed;
  for (auto it = tree.Seek(100); it.Valid() && it.key() < 200; it.Next()) {
    doomed.emplace_back(it.key(), it.tid());
  }
  for (const auto& [key, tid] : doomed) ASSERT_TRUE(tree.Remove(key, tid));
  keys.erase(std::remove_if(keys.begin(), keys.end(),
                            [](int64_t k) { return k >= 100 && k < 200; }),
             keys.end());
  check("after removals");
}

TEST(BPlusTreeTest, PeekTidLooksAheadWithinTheLeaf) {
  Engine engine;
  std::vector<int64_t> keys(300);
  Rng rng(29);
  for (auto& k : keys) k = rng.UniformInt(0, 100);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  std::vector<Tid> order;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) order.push_back(it.tid());
  size_t i = 0;
  uint64_t hits = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next(), ++i) {
    for (uint32_t ahead = 0; ahead <= 4; ++ahead) {
      Tid tid;
      const bool in_leaf = it.PeekTid(ahead, &tid);
      EXPECT_TRUE(in_leaf || ahead > 0) << i;
      EXPECT_FALSE(in_leaf && ahead == 4) << i;  // Leaves hold 4 entries.
      if (!in_leaf) continue;
      ++hits;
      ASSERT_LT(i + ahead, order.size());
      EXPECT_EQ(tid, order[i + ahead]) << i << " + " << ahead;
    }
  }
  EXPECT_GT(hits, order.size());  // Looked past the current entry.
}

TEST(BPlusTreeTest, TidsPointToMatchingHeapTuples) {
  Engine engine;
  std::vector<int64_t> keys(300);
  Rng rng(17);
  for (auto& k : keys) k = rng.UniformInt(0, 40);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    const Tuple t = heap->Read(it.tid());
    EXPECT_EQ(t[1].AsInt64(), it.key());
  }
}

TEST(BPlusTreeTest, ColdDescentChargesHeightRandomIos) {
  Engine engine;
  std::vector<int64_t> keys(2000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  engine.ColdRestart();
  const IoStats before = engine.disk().stats();
  tree.Seek(1000);
  const IoStats d = engine.disk().stats() - before;
  // One page per level; Seek may touch one extra leaf when the target key
  // sits exactly on a leaf boundary.
  EXPECT_GE(d.pages_read, tree.meta().height);
  EXPECT_LE(d.pages_read, tree.meta().height + 1);
}

TEST(BPlusTreeTest, WarmDescentIsCheaper) {
  Engine engine;
  std::vector<int64_t> keys(2000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  engine.ColdRestart();
  tree.Seek(1000);
  const IoStats before = engine.disk().stats();
  tree.Seek(1001);  // Same path: internal nodes now resident.
  const IoStats d = engine.disk().stats() - before;
  EXPECT_EQ(d.pages_read, 0u);
}

TEST(BPlusTreeTest, BulkBuiltLeafTraversalIsSequential) {
  Engine engine;
  std::vector<int64_t> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  auto heap = MakeHeap(&engine, keys);
  BPlusTree tree(&engine, "idx", heap.get(), 1, SmallNodes());
  tree.BulkBuild();
  engine.ColdRestart();
  const IoStats before = engine.disk().stats();
  uint64_t n = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) ++n;
  const IoStats d = engine.disk().stats() - before;
  EXPECT_EQ(n, 5000u);
  // Leaf chain reads must be dominated by sequential accesses.
  EXPECT_GT(d.seq_ios, d.random_ios * 10);
}

TEST(BPlusTreeTest, IteratorChargesCpuPerEntry) {
  Engine engine;
  auto heap = MakeHeap(&engine, {1, 2, 3, 4, 5});
  BPlusTree tree(&engine, "idx", heap.get(), 1);
  tree.BulkBuild();
  const double before = engine.cpu().time();
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
  }
  EXPECT_GT(engine.cpu().time(), before);
}

}  // namespace
}  // namespace smoothscan
