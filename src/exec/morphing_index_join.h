// MorphingIndexJoin: the paper's Section IV-B extension ("Beyond Traditional
// Join Operators"). An index nested-loops join that applies the Smooth Scan
// idea to the join's inner side: whenever a probe has to fetch an inner heap
// page, it harvests *all* tuples of that page into a hash cache keyed by the
// join attribute. Future probes are served from the cache — "INLJ morphs
// into a variant of Hash Join over time, with the index used only when a
// tuple is not found in the cache."
//
// Correctness note: a key is served from the cache only once it is known to
// be *complete* — i.e. its first probe walked the index entries and ensured
// every pointed-to page is harvested. Probes of absent keys descend the index
// (and find nothing), exactly like a plain INLJ.

#ifndef SMOOTHSCAN_EXEC_MORPHING_INDEX_JOIN_H_
#define SMOOTHSCAN_EXEC_MORPHING_INDEX_JOIN_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "access/page_id_cache.h"
#include "exec/operator.h"
#include "index/bplus_tree.h"

namespace smoothscan {

/// Morphing statistics, exposed for the extension benchmark.
struct MorphingJoinStats {
  uint64_t probes = 0;           ///< Outer tuples probed.
  uint64_t cache_hits = 0;       ///< Probes served without an index descent.
  uint64_t index_descents = 0;   ///< Probes that had to consult the index.
  uint64_t pages_harvested = 0;  ///< Distinct inner heap pages cached.
  uint64_t tuples_cached = 0;    ///< Inner tuples resident in the hash cache.

  double CacheHitRate() const {
    return probes == 0 ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(probes);
  }
};

struct MorphingIndexJoinOptions {
  /// When false the operator degenerates to a plain INLJ (no harvesting) —
  /// the baseline for the ablation.
  bool enable_harvesting = true;
};

/// Inner join of `outer` against the table behind `inner_index`, on
/// outer[outer_key_col] == inner index key. Output = outer ++ inner columns.
class MorphingIndexJoinOp : public Operator {
 public:
  MorphingIndexJoinOp(std::unique_ptr<Operator> outer,
                      const BPlusTree* inner_index, int outer_key_col,
                      MorphingIndexJoinOptions options = {});

  const char* name() const override { return "MorphingIndexJoin"; }

  const MorphingJoinStats& morph_stats() const { return mstats_; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    cache_.clear();
    complete_keys_.clear();
    harvested_.reset();
    matches_ = nullptr;  // Would otherwise dangle into the cleared cache_.
    plain_matches_.clear();
    outer_.Reset();
    outer_op_->Close();
  }

 private:
  /// Ensures every inner tuple with `key` is cached and the key is marked
  /// complete. Returns the cached matches (may be empty).
  const std::vector<Tuple>& CompleteKey(int64_t key);
  /// Fetches inner heap page `pid` and caches all its tuples by join key.
  void HarvestPage(PageId pid);

  std::unique_ptr<Operator> outer_op_;
  const BPlusTree* inner_index_;
  int outer_key_col_;
  MorphingIndexJoinOptions options_;
  MorphingJoinStats mstats_;

  std::unordered_map<int64_t, std::vector<Tuple>> cache_;
  std::unordered_set<int64_t> complete_keys_;
  std::unique_ptr<PageIdCache> harvested_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_idx_ = 0;
  size_t match_end_ = 0;  ///< Live prefix of *matches_.
  BatchCursor outer_;  ///< Probe-side batch cursor.
  std::vector<Tuple> plain_matches_;  // INLJ mode scratch (warm slots).
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_EXEC_MORPHING_INDEX_JOIN_H_
