// The five TPC-H queries of the paper's Fig. 4 / Table II, parameterized by
// the LINEITEM access path so that the "plain PostgreSQL" plan and the
// Smooth Scan plan can be compared (the rest of each plan is identical,
// exactly as in the paper). LINEITEM selectivities: Q1 ~98%, Q4 ~65%,
// Q6 ~2%, Q7 ~30%, Q14 ~1%.

#ifndef SMOOTHSCAN_TPCH_QUERIES_H_
#define SMOOTHSCAN_TPCH_QUERIES_H_

#include <vector>

#include "plan/access_path_chooser.h"
#include "tpch/tpch_gen.h"

namespace smoothscan::tpch {

struct QueryOutput {
  std::vector<Tuple> rows;
  /// Counters of the LINEITEM access path (the operator under study).
  AccessPathStats lineitem_stats;
};

/// Pricing-summary report: ~98% of LINEITEM, aggregation by
/// (returnflag, linestatus).
QueryOutput RunQ1(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop = 0);

/// Order-priority checking: LINEITEM semi-joins ORDERS (INLJ on the ORDERS
/// PK); LINEITEM residual selectivity ~65%.
QueryOutput RunQ4(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop = 0);

/// Forecasting-revenue change: single-table selection, ~2% of LINEITEM.
QueryOutput RunQ6(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop = 0);

/// Volume shipping: 6-table join (LINEITEM, ORDERS, CUSTOMER, SUPPLIER,
/// NATION x2); LINEITEM shipdate selectivity ~30%.
QueryOutput RunQ7(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop = 0);

/// Promotion effect: LINEITEM (~1%) INLJ PART on the PART PK.
QueryOutput RunQ14(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop = 0);

/// Shipping-modes-and-order-priority: the query whose tuned plan regressed
/// 400x in the paper's Fig. 1. LINEITEM shipdate window ~17% with shipmode /
/// date-ordering residuals, INLJ ORDERS, priority-class counts.
QueryOutput RunQ12(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop = 0);

/// Discounted-revenue (disjunctive part/quantity predicate; 20x regression
/// in Fig. 1): LINEITEM INLJ PART with an OR of three branch conditions.
QueryOutput RunQ19(const TpchDb& db, PathKind lineitem_path,
                  uint32_t dop = 0);

/// Dispatch by query number (1, 4, 6, 7, 12, 14, 19). `dop` selects the
/// LINEITEM leaf's execution model: 0 (default) runs the serial operator as
/// the paper does; dop >= 1 runs the morsel-driven parallel variant with
/// that many morsels in flight — the parallel plan's simulated cost is
/// DOP-invariant, so 1 vs. 8 isolates the wall-clock effect.
QueryOutput RunQuery(int query, const TpchDb& db, PathKind lineitem_path,
                     uint32_t dop = 0);

/// The access path plain PostgreSQL chose in the paper's experiment.
PathKind PlainPostgresChoice(int query);

/// The paper's reported LINEITEM selectivity for the query (fraction).
double PaperLineitemSelectivity(int query);

}  // namespace smoothscan::tpch

#endif  // SMOOTHSCAN_TPCH_QUERIES_H_
