// Analytical cost model of Section V: Eqs. (3)–(23) expressing access path
// I/O costs in terms of random/sequential page accesses, plus the SLA
// trigger-point computation and the competitive-ratio analysis of
// Section V-A. Cost units: one sequential page access = `seq_cost`.

#ifndef SMOOTHSCAN_COST_COST_MODEL_H_
#define SMOOTHSCAN_COST_COST_MODEL_H_

#include <cstdint>

namespace smoothscan {

/// The inputs of Table I.
struct CostModelParams {
  uint64_t tuple_size = 80;          ///< TS, bytes (includes tuple overhead).
  uint64_t num_tuples = 0;           ///< #T.
  uint32_t page_size = 8192;         ///< PS, bytes.
  uint32_t key_size = 8;             ///< KS, bytes.
  double rand_cost = 10.0;           ///< randcost (per page).
  double seq_cost = 1.0;             ///< seqcost (per page).
};

/// Per-path CPU cost constants in simulated-time units (seq page read =
/// 1.0), fitted against the executing substrate by the calibration sweep in
/// bench_cost_model_validation (--calibrate). The committed defaults are the
/// sweep's output on the reference configuration; cost_model_test pins the
/// estimate-vs-measured error within bounds so drift between the model and
/// the substrate is caught in CI. The chooser applies these only when a
/// caller passes a model (ChooserOptions::cpu) — the paper's I/O-only ranking
/// stays the default.
struct CalibratedCpuModel {
  double inspect_tuple = 5e-4;  ///< Per heap tuple inspected.
  double produce_tuple = 2e-4;  ///< Per result tuple materialized.
  double index_entry = 5e-5;    ///< Per index-leaf entry advanced.
  double key_check = 5e-4;      ///< Per compressed key check (run or value).
  double zone_consult = 5e-5;   ///< Per compressed zone-map consult.

  /// Full scan: inspect every tuple, produce the qualifiers.
  double FullScanCpu(uint64_t num_tuples, uint64_t card) const {
    return inspect_tuple * static_cast<double>(num_tuples) +
           produce_tuple * static_cast<double>(card);
  }
  /// Index scan: advance `card` leaf entries, materialize each result.
  double IndexScanCpu(uint64_t card) const {
    return (index_entry + inspect_tuple + produce_tuple) *
           static_cast<double>(card);
  }
  /// Compressed scan: one consult per block, one check per key run (dense
  /// fallbacks degrade toward one per tuple — callers fold that into
  /// `key_checks`), one produce per emitted tuple.
  double CompressedScanCpu(uint64_t zone_consults, uint64_t key_checks,
                           uint64_t card) const {
    return zone_consult * static_cast<double>(zone_consults) +
           key_check * static_cast<double>(key_checks) +
           produce_tuple * static_cast<double>(card);
  }
};

/// Per-mode cardinality split of a Smooth Scan execution (Eq. 12).
struct SmoothScanCardinalities {
  uint64_t mode0 = 0;  ///< Tuples produced with the plain index (pre-trigger).
  uint64_t mode1 = 0;  ///< Tuples produced with Entire Page Probe.
  uint64_t mode2 = 0;  ///< Tuples produced with Flattening Access.
};

class CostModel {
 public:
  explicit CostModel(CostModelParams params);

  // ---- Derived values (Eqs. 3–9) ----
  uint64_t TuplesPerPage() const { return tuples_per_page_; }   ///< Eq. (3).
  uint64_t NumPages() const { return num_pages_; }              ///< Eq. (4).
  uint64_t Fanout() const { return fanout_; }                   ///< Eq. (5).
  uint64_t NumLeaves() const { return num_leaves_; }            ///< Eq. (6).
  uint64_t Height() const { return height_; }                   ///< Eq. (7).
  /// Eq. (8): result cardinality at `selectivity` in [0, 1].
  uint64_t Cardinality(double selectivity) const;
  /// Eq. (9): leaf pages holding pointers to `card` results.
  uint64_t LeavesForResults(uint64_t card) const;

  // ---- Operator costs ----
  /// Eq. (10): full scan, independent of selectivity.
  double FullScanCost() const;
  /// Compressed-tier scan: one sequential pass over `compressed_pages`
  /// sibling pages (Eq. 10's shape, shrunk by the measured compression
  /// ratio; zone skipping only ever removes pages from this upper bound).
  double CompressedScanCost(uint64_t compressed_pages) const {
    return static_cast<double>(compressed_pages) * params_.seq_cost;
  }
  /// Eq. (11): non-clustered index scan producing `card` tuples.
  double IndexScanCost(uint64_t card) const;
  /// Eq. (15): Mode 1 over `card_m1` tuples (one random access per result
  /// page, Eq. 14 capping at #P).
  double Mode1Cost(uint64_t card_m1) const;
  /// Eq. (22): Mode 2 over `card_m2` tuples after `pages_m1` pages were
  /// already consumed by Mode 1 (Eq. 16), using the converged random-access
  /// count of Eqs. (20)–(21).
  double Mode2Cost(uint64_t card_m2, uint64_t pages_m1) const;
  /// Eq. (23): total Smooth Scan cost for a per-mode cardinality split.
  double SmoothScanCost(const SmoothScanCardinalities& cards) const;
  /// Convenience: Eager Smooth Scan at `selectivity`, worst-case uniform
  /// spread (Eq. 13), with the first probed page in Mode 1 and the morphed
  /// remainder in Mode 2.
  double EagerSmoothScanCost(double selectivity) const;

  /// Number of random accesses ("jumps") Mode 2 performs to fetch
  /// `pages_m2` pages — Eqs. (20)/(21), which converge to log2(#P + 1).
  double Mode2RandomAccesses(uint64_t pages_m2) const;

  // ---- Section III-C / V: SLA trigger ----
  /// Largest Mode-0 cardinality c such that, even in the worst case
  /// (selectivity 100% from here on), IndexScanCost(c) + the remaining
  /// morphed cost stays within `sla_bound`. Returns 0 when the bound is
  /// unreachable even with immediate morphing.
  uint64_t SlaTriggerCardinality(double sla_bound) const;

  /// Worst-case total cost when morphing is triggered after `card_m0`
  /// index-produced tuples (the monotone function the SLA search inverts).
  double WorstCaseTriggeredCost(uint64_t card_m0) const;

  // ---- Section V-A: competitive analysis ----
  /// Cost of the optimal non-adaptive choice at `selectivity`:
  /// min(full scan, index scan).
  double OptimalCost(double selectivity) const;
  /// Numeric competitive ratio of Eager Smooth Scan: max over a selectivity
  /// grid of EagerSmoothScanCost / OptimalCost.
  double EagerCompetitiveRatio() const;
  /// The paper's analytic worst case for Elastic Smooth Scan — every second
  /// page has a match, so flattening never engages: (randcost + seqcost) /
  /// (2 * seqcost) relative to a full scan. 5.5 for HDD, 3 for SSD.
  double ElasticWorstCaseRatio() const;
  /// The theoretical bound (1 + randcost / seqcost): 11 for HDD, 6 for SSD.
  double TheoreticalBound() const;

  const CostModelParams& params() const { return params_; }

 private:
  CostModelParams params_;
  uint64_t tuples_per_page_;
  uint64_t num_pages_;
  uint64_t fanout_;
  uint64_t num_leaves_;
  uint64_t height_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COST_COST_MODEL_H_
