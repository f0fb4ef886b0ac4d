#include "index/bplus_tree.h"

#include <algorithm>

namespace smoothscan {

namespace {

/// Eq. (5): fanout = PS / (1.2 * KS) — 20% per-key overhead for the child
/// pointer.
uint32_t DeriveFanout(uint32_t page_size, uint32_t key_size) {
  return std::max<uint32_t>(2, static_cast<uint32_t>(
      page_size / (1.2 * static_cast<double>(key_size))));
}

/// Leaf entries carry the key plus an 8-byte Tid.
uint32_t DeriveLeafCapacity(uint32_t page_size, uint32_t key_size) {
  return std::max<uint32_t>(2, static_cast<uint32_t>(
      page_size / (1.2 * static_cast<double>(key_size + 8))));
}

}  // namespace

BPlusTree::BPlusTree(Engine* engine, std::string name, const HeapFile* heap,
                     int key_column, BPlusTreeOptions options)
    : engine_(engine),
      name_(std::move(name)),
      heap_(heap),
      key_column_(key_column),
      options_(options) {
  SMOOTHSCAN_CHECK(heap_ != nullptr);
  SMOOTHSCAN_CHECK(key_column_ >= 0 &&
                   static_cast<size_t>(key_column_) < heap_->schema().num_columns());
  const ValueType type = heap_->schema().column(key_column_).type;
  SMOOTHSCAN_CHECK(type == ValueType::kInt64 || type == ValueType::kDate);
  const uint32_t page_size = engine_->storage().page_size();
  fanout_ = options_.fanout_override != 0
                ? options_.fanout_override
                : DeriveFanout(page_size, options_.key_size);
  leaf_capacity_ = options_.leaf_capacity_override != 0
                       ? options_.leaf_capacity_override
                       : DeriveLeafCapacity(page_size, options_.key_size);
  file_id_ = engine_->storage().CreateFile(name_);
}

PageId BPlusTree::NewNode(bool is_leaf) {
  const PageId mirror = engine_->storage().AppendPage(file_id_);
  nodes_.push_back(std::make_unique<Node>());
  nodes_.back()->is_leaf = is_leaf;
  SMOOTHSCAN_CHECK(mirror == nodes_.size() - 1);
  return mirror;
}

void BPlusTree::BulkBuild() {
  SMOOTHSCAN_CHECK(nodes_.empty());  // A tree is bulk-built at most once.

  struct Entry {
    int64_t key;
    Tid tid;
  };
  std::vector<Entry> entries;
  entries.reserve(heap_->num_tuples());
  heap_->ForEachDirect([&](Tid tid, const Tuple& tuple) {
    entries.push_back({tuple[key_column_].AsInt64(), tid});
  });
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.tid < b.tid;
  });
  num_entries_ = entries.size();

  if (entries.empty()) {
    root_ = NewNode(/*is_leaf=*/true);
    first_leaf_ = root_;
    height_ = 1;
    return;
  }

  // Level 0: fully packed leaves at consecutive page ids, chained in order.
  struct LevelNode {
    PageId id;
    int64_t min_key;
  };
  std::vector<LevelNode> level;
  for (size_t i = 0; i < entries.size(); i += leaf_capacity_) {
    const PageId id = NewNode(/*is_leaf=*/true);
    Node& n = node(id);
    const size_t end = std::min(entries.size(), i + leaf_capacity_);
    for (size_t j = i; j < end; ++j) {
      n.keys.push_back(entries[j].key);
      n.tids.push_back(entries[j].tid);
    }
    if (!level.empty()) node(level.back().id).next_leaf = id;
    level.push_back({id, n.keys.front()});
  }
  first_leaf_ = level.front().id;
  height_ = 1;

  // Upper levels: group `fanout_` children per internal node; separator i is
  // the min key of child i (i >= 1).
  while (level.size() > 1) {
    std::vector<LevelNode> next;
    for (size_t i = 0; i < level.size(); i += fanout_) {
      const PageId id = NewNode(/*is_leaf=*/false);
      Node& n = node(id);
      const size_t end = std::min(level.size(), i + fanout_);
      for (size_t j = i; j < end; ++j) {
        if (j > i) n.keys.push_back(level[j].min_key);
        n.children.push_back(level[j].id);
      }
      next.push_back({id, level[i].min_key});
    }
    level = std::move(next);
    ++height_;
  }
  root_ = level.front().id;
}

void BPlusTree::Insert(int64_t key, Tid tid) {
  if (nodes_.empty()) {
    root_ = NewNode(/*is_leaf=*/true);
    first_leaf_ = root_;
    height_ = 1;
  }
  const SplitResult split = InsertRec(root_, key, tid);
  if (split.split) {
    const PageId new_root = NewNode(/*is_leaf=*/false);
    Node& r = node(new_root);
    r.keys.push_back(split.separator);
    r.children.push_back(root_);
    r.children.push_back(split.right);
    root_ = new_root;
    ++height_;
  }
  ++num_entries_;
}

BPlusTree::SplitResult BPlusTree::InsertRec(PageId node_id, int64_t key,
                                            Tid tid) {
  Node& n = node(node_id);
  if (n.is_leaf) {
    // Position by (key, Tid) to keep the strict leaf ordering.
    size_t pos = 0;
    while (pos < n.keys.size() &&
           (n.keys[pos] < key || (n.keys[pos] == key && n.tids[pos] < tid))) {
      ++pos;
    }
    n.keys.insert(n.keys.begin() + pos, key);
    n.tids.insert(n.tids.begin() + pos, tid);
    if (n.keys.size() <= leaf_capacity_) return {};

    // Split in half; the right sibling takes the upper entries.
    const size_t mid = n.keys.size() / 2;
    const PageId right_id = NewNode(/*is_leaf=*/true);
    Node& left = node(node_id);  // NewNode may reallocate nodes_.
    Node& right = node(right_id);
    right.keys.assign(left.keys.begin() + mid, left.keys.end());
    right.tids.assign(left.tids.begin() + mid, left.tids.end());
    left.keys.resize(mid);
    left.tids.resize(mid);
    right.next_leaf = left.next_leaf;
    left.next_leaf = right_id;
    return {true, right.keys.front(), right_id};
  }

  // Internal: child index = number of separators < key (see Seek comment).
  const size_t child_idx = static_cast<size_t>(
      std::lower_bound(n.keys.begin(), n.keys.end(), key) - n.keys.begin());
  const PageId child = n.children[child_idx];
  const SplitResult child_split = InsertRec(child, key, tid);
  if (!child_split.split) return {};

  Node& self = node(node_id);  // Re-fetch: recursion may have reallocated.
  self.keys.insert(self.keys.begin() + child_idx, child_split.separator);
  self.children.insert(self.children.begin() + child_idx + 1,
                       child_split.right);
  if (self.children.size() <= fanout_) return {};

  // Split the internal node; the middle separator moves up.
  const size_t mid_key = self.keys.size() / 2;
  const int64_t up = self.keys[mid_key];
  const PageId right_id = NewNode(/*is_leaf=*/false);
  Node& left = node(node_id);
  Node& right = node(right_id);
  right.keys.assign(left.keys.begin() + mid_key + 1, left.keys.end());
  right.children.assign(left.children.begin() + mid_key + 1,
                        left.children.end());
  left.keys.resize(mid_key);
  left.children.resize(mid_key + 1);
  return {true, up, right_id};
}

bool BPlusTree::Remove(int64_t key, Tid tid) {
  if (nodes_.empty() || num_entries_ == 0) return false;
  // Free descent to the leftmost candidate leaf, then walk right through the
  // (possibly duplicate-straddling) run until the exact (key, tid) entry.
  PageId cur = root_;
  while (!node(cur).is_leaf) {
    const Node& n = node(cur);
    const size_t idx = static_cast<size_t>(
        std::lower_bound(n.keys.begin(), n.keys.end(), key) - n.keys.begin());
    cur = n.children[idx];
  }
  for (PageId leaf = cur; leaf != kInvalidPageId; leaf = node(leaf).next_leaf) {
    Node& n = node(leaf);
    if (n.keys.empty()) continue;      // Deletion-emptied leaf mid-run.
    if (n.keys.front() > key) break;   // Walked past any possible match.
    size_t pos = static_cast<size_t>(
        std::lower_bound(n.keys.begin(), n.keys.end(), key) - n.keys.begin());
    while (pos < n.keys.size() && n.keys[pos] == key) {
      if (n.tids[pos] == tid) {
        n.keys.erase(n.keys.begin() + pos);
        n.tids.erase(n.tids.begin() + pos);
        --num_entries_;
        return true;
      }
      ++pos;
    }
    // pos stopped on a key > `key`: the run is over. Otherwise every key from
    // lower_bound to the end equals `key`, so the run may continue right.
    if (pos < n.keys.size()) break;
  }
  return false;
}

PageId BPlusTree::Descend(int64_t key, BufferPool* pool) const {
  SMOOTHSCAN_CHECK(!nodes_.empty());
  PageId cur = root_;
  while (true) {
    if (pool != nullptr) pool->Lookup(file_id_, cur);
    const Node& n = node(cur);
    if (n.is_leaf) return cur;
    // Child index = number of separators strictly below `key`. Because a run
    // of duplicate keys may straddle a leaf boundary (the separator equals
    // the duplicate), a lookup must land on the *leftmost* candidate leaf.
    const size_t idx = static_cast<size_t>(
        std::lower_bound(n.keys.begin(), n.keys.end(), key) - n.keys.begin());
    cur = n.children[idx];
  }
}

BPlusTree::Iterator BPlusTree::Seek(int64_t lo, const ExecContext* ctx) const {
  BufferPool* pool = ctx != nullptr ? ctx->pool : &engine_->pool();
  if (nodes_.empty() || num_entries_ == 0) {
    return Iterator(this, kInvalidPageId, 0, ctx);
  }
  PageId leaf = Descend(lo, pool);
  const Node& n = node(leaf);
  uint32_t pos = static_cast<uint32_t>(
      std::lower_bound(n.keys.begin(), n.keys.end(), lo) - n.keys.begin());
  // All keys in this leaf below `lo` (or the leaf deletion-emptied): the
  // first match, if any, starts in a following non-empty leaf.
  while (leaf != kInvalidPageId && pos >= node(leaf).keys.size()) {
    leaf = node(leaf).next_leaf;
    pos = 0;
    if (leaf != kInvalidPageId) pool->Lookup(file_id_, leaf);
  }
  return Iterator(this, leaf, pos, ctx);
}

BPlusTree::Iterator BPlusTree::Begin() const {
  if (nodes_.empty() || num_entries_ == 0) {
    return Iterator(this, kInvalidPageId, 0, nullptr);
  }
  // Charge the leftmost descent, then skip any deletion-emptied leaves.
  PageId cur = root_;
  while (true) {
    engine_->pool().Lookup(file_id_, cur);
    const Node& n = node(cur);
    if (n.is_leaf) break;
    cur = n.children.front();
  }
  while (cur != kInvalidPageId && node(cur).keys.empty()) {
    cur = node(cur).next_leaf;
    if (cur != kInvalidPageId) engine_->pool().Lookup(file_id_, cur);
  }
  return Iterator(this, cur, 0, nullptr);
}

BufferPool& BPlusTree::Iterator::pool() const {
  return ctx_ != nullptr ? *ctx_->pool : tree_->engine_->pool();
}

CpuMeter& BPlusTree::Iterator::cpu() const {
  return ctx_ != nullptr ? *ctx_->cpu : tree_->engine_->cpu();
}

int64_t BPlusTree::Iterator::key() const {
  SMOOTHSCAN_CHECK(Valid());
  return tree_->node(leaf_).keys[pos_];
}

Tid BPlusTree::Iterator::tid() const {
  SMOOTHSCAN_CHECK(Valid());
  return tree_->node(leaf_).tids[pos_];
}

IndexPosition BPlusTree::Iterator::position() const {
  if (!Valid()) {
    return {std::numeric_limits<int64_t>::max(),
            Tid{kInvalidPageId, std::numeric_limits<SlotId>::max()}};
  }
  return {key(), tid()};
}

bool BPlusTree::Iterator::PeekTid(uint32_t ahead, Tid* tid) const {
  const std::vector<Tid>& tids = tree_->node(leaf_).tids;
  if (pos_ + ahead >= tids.size()) return false;
  *tid = tids[pos_ + ahead];
  return true;
}

void BPlusTree::Iterator::PrefetchHeapAhead() const {
  Tid tid;
  if (PeekTid(2 * kHeapPrefetchDistance, &tid)) tree_->heap_->PrefetchSlot(tid);
  if (PeekTid(kHeapPrefetchDistance, &tid)) tree_->heap_->PrefetchTuple(tid);
}

void BPlusTree::Iterator::Next() {
  SMOOTHSCAN_CHECK(Valid());
  cpu().ChargeIndexEntry();
  ++pos_;
  // Advance across leaf boundaries, skipping deletion-emptied leaves (each
  // visited leaf is still a charged node access).
  while (leaf_ != kInvalidPageId && pos_ >= tree_->node(leaf_).keys.size()) {
    leaf_ = tree_->node(leaf_).next_leaf;
    pos_ = 0;
    if (leaf_ != kInvalidPageId) {
      pool().Lookup(tree_->file_id_, leaf_);
    }
  }
}

std::vector<int64_t> BPlusTree::PartitionKeyRange(int64_t lo, int64_t hi,
                                                  uint32_t max_parts) const {
  std::vector<int64_t> bounds = {lo};
  if (max_parts <= 1 || nodes_.empty() || num_entries_ == 0 || lo >= hi) {
    bounds.push_back(hi);
    return bounds;
  }
  const uint64_t in_range = CountRange(lo, hi);
  if (in_range == 0) {
    bounds.push_back(hi);
    return bounds;
  }
  const uint64_t per_part = (in_range + max_parts - 1) / max_parts;
  uint64_t seen = 0;
  uint64_t next_cut = per_part;
  for (PageId leaf = first_leaf_; leaf != kInvalidPageId;
       leaf = node(leaf).next_leaf) {
    for (const int64_t k : node(leaf).keys) {
      if (k < lo || k >= hi) continue;
      if (seen >= next_cut && k > bounds.back()) {
        // Cut *before* this key so a duplicate run never straddles parts.
        bounds.push_back(k);
        next_cut = seen + per_part;
      }
      ++seen;
    }
  }
  bounds.push_back(hi);
  return bounds;
}

uint64_t BPlusTree::CountRange(int64_t lo, int64_t hi) const {
  if (nodes_.empty() || num_entries_ == 0 || lo >= hi) return 0;
  uint64_t count = 0;
  for (PageId leaf = Descend(lo, nullptr); leaf != kInvalidPageId;
       leaf = node(leaf).next_leaf) {
    const std::vector<int64_t>& keys = node(leaf).keys;
    const auto end = std::lower_bound(keys.begin(), keys.end(), hi);
    count += static_cast<uint64_t>(
        end - std::lower_bound(keys.begin(), end, lo));
    if (end != keys.end()) break;  // A key >= hi: the range ends here.
  }
  return count;
}

std::vector<int64_t> BPlusTree::RootSeparators() const {
  if (nodes_.empty()) return {};
  return node(root_).keys;
}

IndexMeta BPlusTree::meta() const {
  IndexMeta m;
  m.fanout = fanout_;
  m.leaf_capacity = leaf_capacity_;
  m.height = height_;
  m.num_entries = num_entries_;
  uint64_t leaves = 0;
  for (PageId leaf = first_leaf_; leaf != kInvalidPageId;
       leaf = node(leaf).next_leaf) {
    ++leaves;
  }
  m.num_leaves = leaves;
  return m;
}

int64_t BPlusTree::MinKey() const {
  SMOOTHSCAN_CHECK(num_entries_ > 0);
  PageId cur = first_leaf_;
  while (node(cur).keys.empty()) cur = node(cur).next_leaf;
  return node(cur).keys.front();
}

int64_t BPlusTree::MaxKey() const {
  SMOOTHSCAN_CHECK(num_entries_ > 0);
  // Deletes may empty the rightmost leaves, so descend-to-rightmost is not
  // enough; walk the (in-memory, free) chain tracking the last non-empty.
  int64_t max_key = 0;
  for (PageId leaf = first_leaf_; leaf != kInvalidPageId;
       leaf = node(leaf).next_leaf) {
    if (!node(leaf).keys.empty()) max_key = node(leaf).keys.back();
  }
  return max_key;
}

void BPlusTree::CheckRec(PageId node_id, uint32_t depth, uint32_t leaf_depth,
                         int64_t lo, int64_t hi,
                         uint64_t* entries_seen) const {
  const Node& n = node(node_id);
  SMOOTHSCAN_CHECK(std::is_sorted(n.keys.begin(), n.keys.end()));
  for (const int64_t k : n.keys) {
    SMOOTHSCAN_CHECK(k >= lo && k <= hi);
  }
  if (n.is_leaf) {
    SMOOTHSCAN_CHECK(depth == leaf_depth);
    SMOOTHSCAN_CHECK(n.keys.size() == n.tids.size());
    SMOOTHSCAN_CHECK(n.keys.size() <= leaf_capacity_);
    for (size_t i = 1; i < n.keys.size(); ++i) {
      // Strict (key, Tid) order within a leaf.
      SMOOTHSCAN_CHECK(n.keys[i - 1] < n.keys[i] ||
                       (n.keys[i - 1] == n.keys[i] && n.tids[i - 1] < n.tids[i]));
    }
    *entries_seen += n.keys.size();
    return;
  }
  SMOOTHSCAN_CHECK(n.children.size() == n.keys.size() + 1);
  SMOOTHSCAN_CHECK(n.children.size() <= fanout_);
  if (node_id != root_) SMOOTHSCAN_CHECK(n.children.size() >= 2);
  for (size_t i = 0; i < n.children.size(); ++i) {
    // Duplicates may straddle separators, so both bounds are inclusive.
    const int64_t child_lo = i == 0 ? lo : n.keys[i - 1];
    const int64_t child_hi = i == n.keys.size() ? hi : n.keys[i];
    CheckRec(n.children[i], depth + 1, leaf_depth, child_lo, child_hi,
             entries_seen);
  }
}

void BPlusTree::CheckInvariants() const {
  if (nodes_.empty()) return;
  uint64_t entries = 0;
  CheckRec(root_, 1, height_, std::numeric_limits<int64_t>::min(),
           std::numeric_limits<int64_t>::max(), &entries);
  SMOOTHSCAN_CHECK(entries == num_entries_);
  // The leaf chain must visit every entry in order.
  uint64_t chained = 0;
  for (PageId leaf = first_leaf_; leaf != kInvalidPageId;
       leaf = node(leaf).next_leaf) {
    chained += node(leaf).keys.size();
  }
  SMOOTHSCAN_CHECK(chained == num_entries_);
}

}  // namespace smoothscan
