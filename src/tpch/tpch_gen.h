// Deterministic dbgen-style TPC-H data generator (Section VI-A/B substrate).
// Generates the eight TPC-H tables at a configurable scale factor with the
// value distributions the paper's five evaluated queries depend on (date
// ranges, discount/quantity domains, PROMO part types, commit-vs-receipt
// ordering), plus the index set the commercial tuning tool proposed: a
// non-clustered index on LINEITEM(l_shipdate) and primary-key indexes used by
// the nested-loop joins.

#ifndef SMOOTHSCAN_TPCH_TPCH_GEN_H_
#define SMOOTHSCAN_TPCH_TPCH_GEN_H_

#include <cstdint>
#include <memory>

#include "index/bplus_tree.h"
#include "storage/engine.h"
#include "storage/heap_file.h"

namespace smoothscan::tpch {

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
int64_t DateDays(int year, int month, int day);

// ---- Column indexes (kept in sync with the schemas in tpch_gen.cc) ----
namespace lineitem {
inline constexpr int kOrderKey = 0;
inline constexpr int kPartKey = 1;
inline constexpr int kSuppKey = 2;
inline constexpr int kLineNumber = 3;
inline constexpr int kQuantity = 4;
inline constexpr int kExtendedPrice = 5;
inline constexpr int kDiscount = 6;
inline constexpr int kTax = 7;
inline constexpr int kReturnFlag = 8;
inline constexpr int kLineStatus = 9;
inline constexpr int kShipDate = 10;
inline constexpr int kCommitDate = 11;
inline constexpr int kReceiptDate = 12;
inline constexpr int kShipMode = 13;
inline constexpr int kNumColumns = 14;
}  // namespace lineitem

namespace orders {
inline constexpr int kOrderKey = 0;
inline constexpr int kCustKey = 1;
inline constexpr int kOrderStatus = 2;
inline constexpr int kTotalPrice = 3;
inline constexpr int kOrderDate = 4;
inline constexpr int kOrderPriority = 5;
inline constexpr int kNumColumns = 6;
}  // namespace orders

namespace customer {
inline constexpr int kCustKey = 0;
inline constexpr int kNationKey = 1;
inline constexpr int kAcctBal = 2;
inline constexpr int kMktSegment = 3;
inline constexpr int kNumColumns = 4;
}  // namespace customer

namespace supplier {
inline constexpr int kSuppKey = 0;
inline constexpr int kNationKey = 1;
inline constexpr int kAcctBal = 2;
inline constexpr int kNumColumns = 3;
}  // namespace supplier

namespace nation {
inline constexpr int kNationKey = 0;
inline constexpr int kRegionKey = 1;
inline constexpr int kName = 2;
inline constexpr int kNumColumns = 3;
}  // namespace nation

namespace region {
inline constexpr int kRegionKey = 0;
inline constexpr int kName = 1;
inline constexpr int kNumColumns = 2;
}  // namespace region

namespace part {
inline constexpr int kPartKey = 0;
inline constexpr int kRetailPrice = 1;
inline constexpr int kType = 2;
inline constexpr int kNumColumns = 3;
}  // namespace part

namespace partsupp {
inline constexpr int kPartKey = 0;
inline constexpr int kSuppKey = 1;
inline constexpr int kAvailQty = 2;
inline constexpr int kSupplyCost = 3;
inline constexpr int kNumColumns = 4;
}  // namespace partsupp

struct TpchSpec {
  /// TPC-H scale factor. SF 1 = 6 M lineitems; the paper uses SF 10, this
  /// repository's benchmarks default to a laptop-scale fraction.
  double scale_factor = 0.01;
  uint64_t seed = 19920101;
};

/// The generated database: heaps plus the tuned index set.
class TpchDb {
 public:
  TpchDb(Engine* engine, const TpchSpec& spec);

  const HeapFile& lineitem() const { return *lineitem_; }
  const HeapFile& orders() const { return *orders_; }
  const HeapFile& customer() const { return *customer_; }
  const HeapFile& supplier() const { return *supplier_; }
  const HeapFile& nation() const { return *nation_; }
  const HeapFile& region() const { return *region_; }
  const HeapFile& part() const { return *part_; }
  const HeapFile& partsupp() const { return *partsupp_; }

  /// The tuning-tool index under study: LINEITEM(l_shipdate), non-clustered.
  const BPlusTree& lineitem_shipdate_index() const { return *l_shipdate_idx_; }
  /// PK indexes for the nested-loop inner sides.
  const BPlusTree& orders_pk_index() const { return *o_orderkey_idx_; }
  const BPlusTree& part_pk_index() const { return *p_partkey_idx_; }

  Engine* engine() const { return engine_; }
  const TpchSpec& spec() const { return spec_; }

 private:
  Engine* engine_;
  TpchSpec spec_;
  std::unique_ptr<HeapFile> lineitem_;
  std::unique_ptr<HeapFile> orders_;
  std::unique_ptr<HeapFile> customer_;
  std::unique_ptr<HeapFile> supplier_;
  std::unique_ptr<HeapFile> nation_;
  std::unique_ptr<HeapFile> region_;
  std::unique_ptr<HeapFile> part_;
  std::unique_ptr<HeapFile> partsupp_;
  std::unique_ptr<BPlusTree> l_shipdate_idx_;
  std::unique_ptr<BPlusTree> o_orderkey_idx_;
  std::unique_ptr<BPlusTree> p_partkey_idx_;
};

}  // namespace smoothscan::tpch

#endif  // SMOOTHSCAN_TPCH_TPCH_GEN_H_
